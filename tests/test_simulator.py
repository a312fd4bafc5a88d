"""Repeated-game engine: determinism, feedback, persistence, rebuilt ledgers."""

import json
import math
import operator
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import InputError
from regretlab import learners as ln
from regretlab import mechanisms as mech
from regretlab import readers, rounds, scalar_step
from regretlab import simulator as sim
from regretlab.analysis import default_checkpoints
from regretlab.records import replace

from . import oracles
from .conftest import written_csv


def small_config(kind=mech.KIND_FIRST_PRICE, horizon=400, seed=3, **kw):
    m = mech.Mechanism(kind=kind, n=2, grid=mech.uniform_grid(0.25))
    return sim.SimConfig(
        mechanism=m,
        populations=(sim.Population((0.5, 1.0)), sim.Population((0.5, 1.0))),
        horizon=horizon,
        seed=seed,
        **kw,
    )


@pytest.fixture(scope="module")
def medium_trace():
    """One T = 1e5 run shared by the statistical checks below."""
    return sim.run_repeated_game(small_config(horizon=100_000, seed=12))


def test_trace_shapes_and_consistency():
    cfg = small_config()
    trace = sim.run_repeated_game(cfg)
    assert trace.horizon == 400
    assert trace.v_idx.shape == (400, 2)
    assert trace.strategy.shape == (400, 4)  # 2 populations x 2 types
    assert trace.realized_idx.shape == (400, 2)
    assert trace.v_idx.min() >= 0 and trace.v_idx.max() <= 1
    oracles.assert_commitments(cfg, trace.strategy, trace.v_idx, trace.realized_idx)
    (ledger,) = sim.rebuild_ledgers(trace, [trace.horizon])
    assert ledger.counterfactual.shape == (4, len(cfg.mechanism.grid))
    assert ledger.realized.shape == ledger.selected_rounds.shape == (4,)
    # population 0 selects exactly one of its two agents
    assert ledger.selected_rounds[:2].sum() == 400


@st.composite
def small_runs(draw):
    """Random small mechanisms, populations and run settings."""
    kind = draw(st.sampled_from(mech.KINDS))
    n = draw(st.integers(1, 3))
    units = draw(st.integers(1, n)) if kind == mech.KIND_MULTI_UNIT else 1
    step = draw(st.sampled_from((0.5, 0.25, 0.2)))
    m = mech.Mechanism(kind=kind, n=n, grid=mech.uniform_grid(step), units=units)
    types = st.lists(
        st.integers(0, 20).map(lambda x: x / 20), min_size=1, max_size=3, unique=True
    )
    pops = tuple(sim.Population(tuple(draw(types))) for _ in range(n))
    return sim.SimConfig(
        mechanism=m,
        populations=pops,
        horizon=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**32 - 1)),
        feedback=draw(st.sampled_from((sim.FEEDBACK_FULL, sim.FEEDBACK_BANDIT))),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=small_runs())
def test_realized_welfare_matches_oracle_every_round(cfg):
    # sw and opt must equal the oracle's outcome of each round bit for bit,
    # and the welfare of its allocation up to rounding
    m = cfg.mechanism
    trace = sim.run_repeated_game(cfg)
    for t in range(trace.horizon):
        values = tuple(
            cfg.populations[i].values[trace.v_idx[t, i]] for i in range(m.n)
        )
        bids = tuple(m.grid[trace.realized_idx[t, i]] for i in range(m.n))
        utilities, revenue, _ = oracles.auction_outcome(m.kind, bids, values, m.units)
        assert trace.sw[t] == sum(utilities) + revenue
        assert trace.opt[t] == mech.optimal_welfare(values, m)
        assert trace.sw[t] == pytest.approx(
            oracles.allocation_welfare(m.kind, bids, values, m.units), abs=1e-12
        )


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


TRACE_ARRAYS = ("v_idx", "strategy", "realized_idx", "sw", "opt")


def assert_ledgers_match(got, want, cfg):
    """A recounted ledger ``got`` agrees with the reference engine's running
    sums ``want``: the round counts exactly, the gap sums up to the rounding
    of adding the same terms in another order."""
    atol = 1e-9 * cfg.horizon * cfg.mechanism.scale
    assert np.array_equal(got.selected_rounds, want.selected_rounds)
    np.testing.assert_allclose(got.gaps(), want.gaps(), rtol=1e-9, atol=atol)


def assert_matches_reference(trace, cfg):
    """``trace`` equals the per-agent reference engine's run of ``cfg`` bit
    for bit, and its recounted ledgers agree with the reference's running
    sums. Returns the reference run."""
    want = oracles.reference_run(cfg)
    assert trace.config == cfg
    for name in TRACE_ARRAYS:
        assert same_bits(getattr(trace, name), want[name]), name
    (ledger,) = sim.rebuild_ledgers(trace, [trace.horizon])
    assert_ledgers_match(ledger, want["ledger"], cfg)
    return want


@pytest.mark.parametrize("kind, eta", [(mech.KIND_FIRST_PRICE, None),
                                       (mech.KIND_ALL_PAY, 0.1)])
def test_hedge_weights_and_block_cdfs_have_the_reference_bits(monkeypatch, kind, eta):
    # A trace shows a weight or CDF entry one ulp off only once a draw lands
    # within an ulp of a CDF entry, which the pinned runs never do. So the
    # engine's weights are read directly: math.exp differs from np.exp in
    # the last bit on a few percent of inputs, which moves the final
    # weights, and a row total summed in another order moves the CDFs a
    # block samples its first round from.
    made, checked = [], []
    sample = rounds._sample

    def keep(*args, **kwargs):
        made.append(ln.LearnerState(*args, **kwargs))
        return made[-1]

    def start_cdfs_checked(cdf, draws):
        if cdf.ndim == 2:  # a block's start: made[0].weights are its weights
            want = np.cumsum(ln.LearnerState(made[0].weights.copy()).probabilities(), axis=1)
            checked.append(same_bits(cdf, want))
        return sample(cdf, draws)

    monkeypatch.setattr(rounds, "LearnerState", keep)
    monkeypatch.setattr(rounds, "_sample", start_cdfs_checked)
    cfg = small_config(kind, horizon=600, seed=8, eta=eta)
    sim.run_repeated_game(cfg)
    assert len(checked) > 10 and all(checked)
    assert same_bits(made[0].weights, np.array(oracles.reference_run(cfg)["weights"]))


@st.composite
def seed_batches(draw):
    """A small run with a fixed or anytime step and one to four seeds."""
    cfg = replace(draw(small_runs()), eta=draw(st.sampled_from((None, 0.1, 2.5))))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True))
    return cfg, seeds


@settings(max_examples=60, deadline=None)
@given(batch=seed_batches())
def test_seed_batch_matches_the_reference_engine(batch):
    cfg, seeds = batch
    traces = [sim.run_repeated_game(replace(cfg, seed=seed)) for seed in seeds]
    for seed, trace in zip(seeds, traces):
        assert_matches_reference(trace, replace(cfg, seed=seed))
        # a seed's trace does not depend on the seeds played before it
        alone = sim.run_repeated_game(replace(cfg, seed=seed))
        for name in TRACE_ARRAYS:
            assert same_bits(getattr(alone, name), getattr(trace, name)), name


HEADLINE_GRID_RUNS = {
    "first-price-full": (mech.KIND_FIRST_PRICE, 2, 1, sim.FEEDBACK_FULL, None, 0.1),
    "all-pay-full": (mech.KIND_ALL_PAY, 2, 1, sim.FEEDBACK_FULL, None, 0.1),
    "first-price-bandit": (mech.KIND_FIRST_PRICE, 2, 1, sim.FEEDBACK_BANDIT, None, 0.1),
    "first-price-bandit-across-the-ceiling":
        (mech.KIND_FIRST_PRICE, 2, 1, sim.FEEDBACK_BANDIT, 2.0, 0.05),
    "first-price-bandit-unmixed": (mech.KIND_FIRST_PRICE, 2, 1, sim.FEEDBACK_BANDIT, None, 0.0),
    "multi-unit-n4-bandit": (mech.KIND_MULTI_UNIT, 4, 2, sim.FEEDBACK_BANDIT, None, 0.1),
    "multi-unit-n4-full": (mech.KIND_MULTI_UNIT, 4, 2, sim.FEEDBACK_FULL, None, 0.1),
}


# Hedge's verified blocks at their default bounds, cut to one round (every
# round is committed alone) and grown past the horizon (every block guesses a
# whole draw chunk from stale CDFs and rolls back at its first wrong guess)
HEDGE_BLOCKS = {"": None, "-one-round-blocks": 1, "-blocks-past-the-horizon": 1501}


def hedge_block_params(runs, seed_sets):
    """One param per run, seed set and Hedge block bound; bandit runs, which
    do not play blocks, only at the default bound."""
    return [pytest.param(*run, seeds, block, id=name + suffix + tag)
            for name, run in runs.items()
            for seeds, suffix in seed_sets
            for tag, block in HEDGE_BLOCKS.items()
            if block is None or sim.FEEDBACK_FULL in run]


def set_hedge_block(monkeypatch, block):
    """Bound every Hedge block to ``block`` rounds, however few bids it
    holds, and return a list that gathers the number of draws each block
    samples from its starting CDFs, and a 0 for each verification pass."""
    lengths = []
    if block is not None:
        monkeypatch.setattr(rounds, "HEDGE_BLOCK", (block, block, block * 2**20))
        sample = rounds._sample

        def counted(cdf, draws):
            lengths.append(len(draws) if cdf.ndim == 2 else 0)
            return sample(cdf, draws)

        monkeypatch.setattr(rounds, "_sample", counted)
    return lengths


def assert_blocks_played(lengths, block, seeds):
    """One-round blocks commit each of the 1,500 rounds alone. Longer blocks
    roll back at a wrong guess and carry the samples of the rounds after it
    into the next block as its guesses, so no round is sampled from a
    block's starting CDFs twice; without the carried guesses, every rolled
    back round would be."""
    if block == 1:
        assert lengths == [1] * (1500 * len(seeds))  # and no verification pass
    elif block is not None:
        # more verification passes than draw chunks: some block rolled back
        assert sum(lengths) == 1500 * len(seeds) and lengths.count(0) > 2 * len(seeds)


@pytest.mark.parametrize(
    "kind, n, units, feedback, eta, gamma, seeds, block",
    hedge_block_params(HEADLINE_GRID_RUNS, (([2, 4, 7], ""), ([4], "-one-seed"))),
)
def test_seed_batch_matches_the_reference_engine_on_the_headline_grid(
    kind, n, units, feedback, eta, gamma, seeds, block, monkeypatch
):
    # 11 bids per grid: row sums of eight or more weights take numpy's
    # pairwise path, which the small grids above never reach; 1,500 rounds
    # also cross a boundary between chunks of uniform draws. A fixed bandit
    # step of 2 at gamma 0.05 multiplies in exponents up to 2 * 11 / 0.05,
    # so the ceiling checks run on that path too; at gamma 0 the importance
    # weight divides by the unmixed probability. Four seats selling two
    # units index 11**3 opponent profiles per agent, under either feedback.
    lengths = set_hedge_block(monkeypatch, block)
    m = mech.Mechanism(kind=kind, n=n, grid=mech.uniform_grid(0.1), units=units)
    cfg = sim.SimConfig(
        mechanism=m,
        populations=(sim.Population((0.5, 1.0)),) * n,
        horizon=1500,
        seed=2,
        feedback=feedback,
        eta=eta,
        gamma=gamma,
    )
    for seed in seeds:
        one = replace(cfg, seed=seed)
        want = assert_matches_reference(sim.run_repeated_game(one), one)
        if eta is not None:
            assert want["renormalizations"] >= 20
    assert_blocks_played(lengths, block, seeds)


@pytest.mark.parametrize(
    "feedback, seeds, block",
    hedge_block_params({f: (f,) for f in (sim.FEEDBACK_FULL, sim.FEEDBACK_BANDIT)},
                       (([3, 8], ""), ([3, 8, 11, 14, 17], "-five-seeds"))),
)
def test_seed_batch_matches_the_reference_engine_across_the_weight_ceiling(
    feedback, seeds, block, monkeypatch
):
    # a step of 5 takes weights past the ceiling again and again; both rules
    # skip the ceiling check while it provably cannot fire, so the checks
    # they do run must renormalize on exactly the rounds the reference does,
    # and Hedge's blocks end at those checks. 1,500 rounds end partway into
    # the second draw chunk.
    lengths = set_hedge_block(monkeypatch, block)
    cfg = small_config(horizon=1500, feedback=feedback, eta=5.0, gamma=0.1)
    for seed in seeds:
        one = replace(cfg, seed=seed)
        want = assert_matches_reference(sim.run_repeated_game(one), one)
        assert want["renormalizations"] >= 20
    assert_blocks_played(lengths, block, seeds)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       extra=st.lists(st.floats(-1e296, 1e296), max_size=8))
def test_pairwise_sum_is_numpys_float64_sum(n, seed, extra):
    # the bandit round step sums weight rows in numpy's order; terms of both
    # signs spread over 2**-60 to 2**60 round differently in any other order
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], n) * rng.random(n) * 2.0 ** rng.integers(-60, 60, n)
    a = np.concatenate([a, extra])
    for terms in (a, np.full(n, -0.0)):  # numpy sums -0.0 terms to 0.0
        got = np.float64(scalar_step.pairwise_sum(terms.tolist()))
        assert got.tobytes() == np.add.reduce(terms).tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       gamma=st.sampled_from((0.0, 0.05, 0.3)))
def test_scalar_rows_hold_the_learner_state_s_probabilities(n, seed, gamma):
    # the bandit step samples from each row's CDF and divides by the
    # probability it recomputes from the row's weight and total, so both must
    # hold the bits of LearnerState.probabilities and their cumsum, the
    # reference engine's distribution, when the rows are built and after
    # rounds rebuild them; a draw rarely lands within a rounding error of a
    # CDF entry, so traces alone miss a change
    rng = np.random.default_rng(seed)
    w = rng.random((1, n)) * 2.0 ** rng.integers(-60, 60, (1, n))
    step = scalar_step.ScalarStep(ln.LearnerState(w, gamma=gamma), rng.random((1, n)), 0.1)

    def assert_rows_match():
        p = ln.LearnerState(np.array(step.weights), gamma=gamma).probabilities()
        got_p = [step.keep * (x / step.totals[0]) + step.floor for x in step.weights[0]]
        assert same_bits(np.array(got_p), p[0])
        assert same_bits(np.array(step.cdfs[0]), p[0].cumsum())

    assert_rows_match()
    # rounds from weights of one scale, whose steps stay far below the ceiling
    step.state.weights[:] = rng.random((1, n)) + 0.5
    step._load()
    picks, _ = step.rounds(rng.random((8, 1)), np.zeros((8, 1), dtype=np.int64), 1e3)
    assert step.weights[0] != step.state.weights[0].tolist() and len(picks) == 8
    assert_rows_match()


@pytest.mark.parametrize("kind, n, units", [
    (mech.KIND_FIRST_PRICE, 1, 1), (mech.KIND_FIRST_PRICE, 2, 1),
    (mech.KIND_ALL_PAY, 3, 1), (mech.KIND_MULTI_UNIT, 4, 2),
])
def test_bandit_table_holds_every_seat_s_utility_at_each_profile_code(kind, n, units):
    # a bandit round reads every seat's utility at one bid-profile code; each
    # entry must be utility_table's at that profile, remapped to [0, 1].
    # Types differ by seat, and ties go to the lowest index, so a seat's axis
    # in the wrong place or reversed place values move some entry
    m = mech.Mechanism(kind=kind, n=n, grid=mech.uniform_grid(0.25), units=units, scale=2.0)
    pops = tuple(sim.Population((0.25 * (i + 1), 2.0)) for i in range(n))
    cfg = sim.SimConfig(mechanism=m, populations=pops, horizon=1, seed=0,
                        feedback=sim.FEEDBACK_BANDIT)
    A, H, G = len(m.grid), m.scale, len(cfg.agents())
    unit = scalar_step.profile_table(cfg)
    # the simulator's one table buffer, (G * A**(n-1), A) floats
    assert unit.size == G * A**n and unit.flags.c_contiguous
    step = scalar_step.ScalarStep(ln.LearnerState(np.ones((G, A))), unit, 0.1)
    for g, (seat, _ti, v) in enumerate(cfg.agents()):
        want = (mech.utility_table(m, seat, v) + H) / (2.0 * H)
        for bids in np.ndindex(*(A,) * n):
            code = sum(map(operator.mul, bids, step.powers))
            assert code == sum(b * A ** (n - 1 - s) for s, b in enumerate(bids))
            opp = int(mech.opponent_index(bids, m.sizes, seat))
            got = step.unit[step.first[g] + code]
            assert np.float64(got).tobytes() == want[bids[seat], opp].tobytes()


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 300)),
       seed=st.integers(0, 2**32 - 1))
def test_block_arrays_reduce_row_by_row_as_a_round_at_a_time_does(shape, seed):
    # Hedge's verified blocks rest on three numpy facts, checked here on
    # weights spread over 2**-60 to 2**60, where another order rounds
    # differently: the last-axis sum of a C-contiguous (rounds, rows, bids)
    # block is np.add.reduce of each row (pairwise blocks of 8 and 128 bids
    # included), np.multiply.accumulate down the rounds is the running
    # product of one round at a time, and cumsum along the bids is a running
    # sum
    rng = np.random.default_rng(seed)
    block = rng.random(shape) * 2.0 ** rng.integers(-60, 60, shape)
    sums = block.sum(axis=2, keepdims=True)
    chain = np.multiply.accumulate(block, axis=0)
    cdf = block.cumsum(axis=2)
    running = block[0].copy()
    for b, rows in enumerate(block):
        if b:
            running = running * rows
        assert same_bits(chain[b], running)
        for g, row in enumerate(rows):
            assert sums[b, g, 0].tobytes() == np.add.reduce(row).tobytes()
            acc, want = 0.0, []
            for x in row.tolist():
                acc += x
                want.append(acc)
            assert same_bits(cdf[b, g], np.array(want))


def test_step_sizes_that_can_overflow_a_weight_are_rejected():
    # one update may move ln(weight) by ln(float max) - ln(ceiling), about
    # 479.5: eta for Hedge, eta * |A| / gamma for bandit (5 bids here)
    assert 479.0 < ln.MAX_LOG_STEP < 480.0
    ok = [dict(eta=479.0), dict(feedback=sim.FEEDBACK_BANDIT, eta=9.5, gamma=0.1),
          dict(feedback=sim.FEEDBACK_BANDIT, eta=0.0, gamma=0.0),
          dict(feedback=sim.FEEDBACK_BANDIT, gamma=0.0)]
    for kw in ok:
        small_config(**kw)
    bad = [dict(eta=480.0), dict(eta=-0.1),
           dict(feedback=sim.FEEDBACK_BANDIT, eta=9.6, gamma=0.1),
           dict(feedback=sim.FEEDBACK_BANDIT, eta=1e-9, gamma=0.0)]
    for kw in bad:
        with pytest.raises(InputError, match="eta"):
            small_config(**kw)


def test_single_type_populations_have_constant_draws():
    m = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=2, grid=mech.uniform_grid(0.5))
    cfg = sim.SimConfig(
        mechanism=m,
        populations=(sim.Population((1.0,)), sim.Population((0.5,))),
        horizon=3,
        seed=1,
    )
    trace = sim.run_repeated_game(cfg)
    assert trace.horizon == 3
    assert trace.v_idx.max() == 0


def test_same_seed_reproduces_bytes_different_seed_does_not():
    a = written_csv(sim.run_repeated_game(small_config(seed=5)))
    b = written_csv(sim.run_repeated_game(small_config(seed=5)))
    c = written_csv(sim.run_repeated_game(small_config(seed=6)))
    assert a == b
    assert a != c


def test_type_frequencies_concentrate(medium_trace):
    # uniform sampling: each of the two types should be drawn half the time,
    # within 0.01 at T = 1e5
    T = medium_trace.horizon
    for i in range(2):
        freq = float((medium_trace.v_idx[:, i] == 0).sum()) / T
        assert abs(freq - 0.5) < 0.01


def test_average_optimum_concentrates(medium_trace):
    # E[Opt] = E[max(v1, v2)] = (0.5 + 1 + 1 + 1) / 4 with both populations
    # uniform on {0.5, 1.0}; Hoeffding-style tolerance at rho = 0.01
    T = medium_trace.horizon
    expected = 0.875
    gap = abs(float(medium_trace.opt.mean()) - expected)
    assert gap < 3.0 * math.sqrt(math.log(100.0) / T)


def test_every_agent_meets_the_regret_bound(medium_trace):
    (ledger,) = sim.rebuild_ledgers(medium_trace, [medium_trace.horizon])
    rounds = ledger.selected_rounds
    assert rounds.min() > 0
    bound = 2.0 * np.sqrt(math.log(5.0) / rounds) + 0.01
    assert np.all(ledger.gaps().max(axis=1) / rounds <= bound)


def test_counterfactual_vector_examples():
    # the loop's feedback is a utility-table column picked by the opponent's
    # realized bid index
    g3 = (0.0, 0.25, 0.5)
    m = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=2, grid=g3)
    # opponent's realized bid is 0.25 (index 1)
    assert mech.utility_table(m, 0, 1.0)[:, 1].tolist() == [0.0, 0.75, 0.5]
    # ties lost by the higher index
    assert mech.utility_table(m, 1, 1.0)[:, 1].tolist() == [0.0, 0.0, 0.5]
    gap = (0.0, 0.5, 1.0)
    ap = mech.Mechanism(kind=mech.KIND_ALL_PAY, n=2, grid=gap)
    assert mech.utility_table(ap, 0, 1.0)[:, 1].tolist() == [0.0, 0.5, 0.0]


@st.composite
def csv_runs(draw):
    """A small run, sometimes longer than one chunk of written rows."""
    cfg = draw(small_runs())
    horizon = draw(st.sampled_from((cfg.horizon, sim.WRITE_CHUNK + 7)))
    return replace(cfg, horizon=horizon)


@settings(max_examples=30, deadline=None)
@given(cfg=csv_runs())
def test_streamed_csv_equals_the_csv_writer_table(cfg):
    trace = sim.run_repeated_game(cfg)
    assert written_csv(trace) == oracles.trace_csv_text(trace)


def test_csv_writer_formats_every_round_s_welfare_from_its_own_bits(tmp_path):
    # rounds that share a (types, bids) key but store welfare of other bits
    # are each written as their own cells: 0.0 against -0.0 in the second
    # chunk of rows, after a first chunk that held 0.0 and no -0.0, and a
    # value against its 1-ulp neighbour
    W = sim.WRITE_CHUNK
    trace = sim.run_repeated_game(small_config(horizon=W + 50, seed=4))
    rounds = {}
    for t, key in enumerate(zip(map(tuple, trace.v_idx), map(tuple, trace.realized_idx))):
        rounds.setdefault(key, []).append(t)
    zero = next(ts for ts in rounds.values() if ts[0] < W and sum(t >= W for t in ts) > 1)
    a, (b, c) = zero[0], [t for t in zero if t >= W][:2]
    d, e = next(ts for ts in rounds.values() if ts is not zero and ts[1] < W)[:2]
    trace.sw, trace.opt = trace.sw.copy(), trace.opt.copy()
    trace.sw[[a, b, c]] = 0.0, 0.0, -0.0
    assert trace.sw[d] != 0.0
    trace.sw[e] = np.nextafter(trace.sw[d], np.inf)
    trace.opt[e] = np.nextafter(trace.opt[d], -np.inf)
    sim.write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text() == oracles.trace_csv_text(trace)


def test_csv_format():
    trace = sim.run_repeated_game(small_config(horizon=3, seed=4))
    text = written_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "t,v_idx_1,v_idx_2,action_1,action_2,sw,opt"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"  # 1-based round numbers
    assert float(first[5]) == trace.sw[0]


@settings(max_examples=40, deadline=None)
@given(cfg=small_runs())
def test_round_trip_preserves_everything(cfg):
    trace = sim.run_repeated_game(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "trace.csv"
        json_path = Path(tmp) / "strategies.json"
        sim.write_trace_csv(trace, csv_path)
        json_path.write_text(sim.strategies_json_text(trace))
        back = sim.load_trace(csv_path, json_path)
    assert back.config == cfg
    for name in ("v_idx", "strategy", "realized_idx", "sw", "opt"):
        assert same_bits(getattr(back, name), getattr(trace, name)), name


def test_sidecar_text_equals_the_plain_json_document():
    # the table is formatted in chunks of rounds; across chunk boundaries the
    # text must still be the sorted, compact json.dumps of the whole document
    trace = sim.run_repeated_game(small_config(horizon=2 * sim.WRITE_CHUNK + 5, seed=8))
    text = sim.strategies_json_text(trace)
    doc = json.loads(text)
    assert doc["every"] == 1
    doc["rounds"] = [[int(x) for x in row] for row in trace.strategy]
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_sidecar_meta_fields():
    cfg = small_config(horizon=10, seed=42)
    doc = json.loads(sim.strategies_json_text(sim.run_repeated_game(cfg)))
    meta = doc["meta"]
    assert meta["seed"] == 42
    assert meta["horizon"] == 10
    assert meta["feedback"] == sim.FEEDBACK_FULL
    assert meta["mechanism"]["kind"] == "first-price"
    assert meta["populations"] == [[0.5, 1.0], [0.5, 1.0]]
    # the meta is the config's fields, and the reader's table reads each back
    assert set(meta) == set(sim.SimConfig._fields) == set(readers.META)


@st.composite
def commitment_tables(draw):
    """An int16 table of bid indices on a one-seat grid that holds them,
    with 1- to 5-digit entries, 0 and the grid's last index among them, and
    sometimes more rows than one written chunk."""
    top = draw(st.sampled_from((1, 9, 10, 99, 1000, 9999, 32767)))
    rows = draw(st.sampled_from((1, 5, sim.WRITE_CHUNK, 2 * sim.WRITE_CHUNK + 3)))
    agents = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # every digit count up to the top index's, each about equally often
    width = rng.integers(1, len(str(top)) + 1, size=(rows, agents))
    table = np.minimum(rng.integers(0, 10**width), top).astype(np.int16)
    table.flat[rng.choice(table.size, size=min(2, table.size), replace=False)] = [0, top][:table.size]
    return top, table


@settings(max_examples=25, deadline=None)
@given(drawn=commitment_tables())
def test_sidecar_table_bytes_are_the_json_text_and_read_back(drawn):
    top, table = drawn
    rows, agents = table.shape
    # one seat bidding 0, 1, ..., top, with one agent per column
    one_seat = mech.Mechanism(
        kind=mech.KIND_FIRST_PRICE, n=1, grid=mech.uniform_grid(1.0, float(top)), scale=float(top)
    )
    types = tuple(top * k / agents for k in range(agents))
    cfg = sim.SimConfig(mechanism=one_seat, populations=(types,), horizon=rows, seed=0)
    trace = sim.Trace(config=cfg, v_idx=None, strategy=table, realized_idx=None,
                      sw=None, opt=None)
    head, _, text = sim.strategies_json_text(trace).rpartition(',"rounds":')
    assert text == json.dumps(table.tolist(), separators=(",", ":")) + "}"
    assert same_bits(readers.compact_table(text.encode(), rows, agents), table)


@pytest.fixture(scope="module")
def written_run(tmp_path_factory):
    """The trace.csv and the compact sidecar text of a 30-round run."""
    tmp = tmp_path_factory.mktemp("written")
    trace = sim.run_repeated_game(small_config(horizon=30, seed=6))
    sim.write_trace_csv(trace, tmp / "trace.csv")
    return tmp / "trace.csv", sim.strategies_json_text(trace)


def load_outcome(csv_path, json_path):
    """The commitment table load_trace returns, or its error's type and text."""
    try:
        return sim.load_trace(csv_path, json_path).strategy.tolist()
    except Exception as e:  # noqa: BLE001 - compared whole, whatever it is
        return type(e).__name__, str(e)


def first_entry(text, entry):
    """The sidecar text with its table's first number replaced."""
    a = text.index('"rounds":[[') + len('"rounds":[[')
    return text[:a] + entry + text[text.index(",", a):]


def first_comma(text, separator):
    """The sidecar text with the comma after its table's first number replaced."""
    a = text.index(",", text.index('"rounds":[['))
    return text[:a] + separator + text[a + 1:]


def second_rounds_key(text, where):
    extra = ',"rounds":[[0,0,0,0]]'
    if where == "before":
        return text.replace(',"rounds":', extra + ',"rounds":', 1)
    return text[:-1] + extra + "}"


def rounds_first(text):
    doc = json.loads(text)
    return json.dumps({"rounds": doc.pop("rounds"), **doc}, separators=(",", ":"))


@pytest.mark.parametrize(
    "edit, compact",
    [
        (lambda s: s, True),
        (lambda s: first_entry(s, "32767"), True),
        (lambda s: s.replace("],[", "], ["), False),
        (lambda s: first_entry(s, "01"), False),
        (lambda s: first_entry(s, "+1"), False),
        (lambda s: first_entry(s, "-1"), False),
        (lambda s: first_entry(s, "32768"), False),
        (lambda s: first_entry(s, "1" * 20), False),
        (lambda s: first_entry(s, ""), False),
        (lambda s: first_comma(s, ";"), False),
        (lambda s: s.replace("],[", "],7[", 1), False),
        (lambda s: s.replace("],[", ",3],[", 1), False),
        (lambda s: s[:s.index('"rounds":')] + '"rounds":[]}', False),
        (lambda s: s + "\n", False),
        (lambda s: s + "x", False),
        (lambda s: s[:-7], False),
        (lambda s: second_rounds_key(s, "before"), True),
        (lambda s: second_rounds_key(s, "after"), False),
        (rounds_first, False),
    ],
    ids=["canonical", "off-the-grid", "spaces", "leading-zero", "plus-sign", "negative",
         "out-of-int16", "twenty-digits", "empty-number", "semicolon",
         "digit-between-rows", "ragged-row", "empty-table", "trailing-newline",
         "text-after-the-brace", "truncated", "rounds-key-twice-table-last",
         "rounds-key-twice-table-first", "rounds-not-last"],
)
def test_any_sidecar_text_loads_as_json_loads_reads_it(written_run, tmp_path, monkeypatch,
                                                        edit, compact):
    # the bytes reader takes the compact texts; every text loads to the
    # table or the error that json.loads alone gives
    csv_path, text = written_run
    json_path = tmp_path / "strategies.json"
    json_path.write_text(edit(text))
    read, tables = readers.compact_table, []

    def spied(*args):
        tables.append(read(*args))
        return tables[-1]

    monkeypatch.setattr(readers, "compact_table", spied)
    got = load_outcome(csv_path, json_path)
    assert any(table is not None for table in tables) == compact
    monkeypatch.setattr(readers, "compact_table", lambda *args: None)
    assert got == load_outcome(csv_path, json_path)


def test_rebuild_ledgers_matches_live_ones():
    # the reference engine adds each selected round to running sums
    cfg = small_config(horizon=300, seed=13)
    trace = sim.run_repeated_game(cfg)
    (rebuilt,) = sim.rebuild_ledgers(trace, [trace.horizon])
    live = oracles.reference_run(cfg)["ledger"]
    assert np.array_equal(rebuilt.selected_rounds, live.selected_rounds)
    assert rebuilt.realized == pytest.approx(live.realized, abs=1e-9)
    np.testing.assert_allclose(rebuilt.counterfactual, live.counterfactual, atol=1e-9)
    # a prefix recount sees only the first rounds
    (prefix,) = sim.rebuild_ledgers(trace, [100])
    assert prefix.selected_rounds.tolist() == [
        int((trace.v_idx[:100, pop] == ti).sum()) for pop, ti, _v in cfg.agents()
    ]


def prefix_of(trace, h):
    """``trace`` cut to its first ``h`` rounds."""
    return replace(trace, v_idx=trace.v_idx[:h], strategy=trace.strategy[:h],
                   realized_idx=trace.realized_idx[:h], sw=trace.sw[:h], opt=trace.opt[:h])


@pytest.mark.parametrize("feedback", [sim.FEEDBACK_FULL, sim.FEEDBACK_BANDIT])
def test_one_sweep_counts_each_prefix_as_a_recount_would(feedback):
    # a first-price Hedge run, and an n = 4 multi-unit bandit run; each
    # population selects some agent in every round, so a sweep that counted
    # round h + 1 into horizon h, or left round h out, fails for some agent
    if feedback == sim.FEEDBACK_FULL:
        cfg = small_config(horizon=700, seed=8)
    else:
        m = mech.Mechanism(kind=mech.KIND_MULTI_UNIT, n=4, units=2,
                           grid=mech.uniform_grid(0.25))
        cfg = sim.SimConfig(mechanism=m, populations=(sim.Population((0.5, 1.0)),) * 4,
                            horizon=700, seed=4, feedback=feedback, gamma=0.1)
    trace = sim.run_repeated_game(cfg)
    pts = default_checkpoints(trace.horizon)
    assert pts == [16, 32, 64, 128, 256, 512, 700]
    for h, got in zip(pts, sim.rebuild_ledgers(trace, pts)):
        (want,) = sim.rebuild_ledgers(prefix_of(trace, h), [h])
        assert want.selected_rounds.tolist() == [
            int((trace.v_idx[:h, pop] == ti).sum()) for pop, ti, _v in cfg.agents()
        ]
        for name in ("counterfactual", "realized", "selected_rounds"):
            assert same_bits(getattr(got, name), getattr(want, name)), (h, name)


def test_bandit_mode_runs_and_stays_consistent():
    cfg = small_config(horizon=500, seed=21, feedback=sim.FEEDBACK_BANDIT, gamma=0.1)
    trace = sim.run_repeated_game(cfg)
    oracles.assert_commitments(cfg, trace.strategy, trace.v_idx, trace.realized_idx)
    # the diagnostic ledgers see full counterfactual vectors even though the
    # learners only see realized payoffs
    (rebuilt,) = sim.rebuild_ledgers(trace, [trace.horizon])
    live = oracles.reference_run(cfg)["ledger"]
    np.testing.assert_allclose(rebuilt.counterfactual, live.counterfactual, atol=1e-9)


def test_eta_override_changes_dynamics():
    t1 = sim.run_repeated_game(small_config(horizon=200, seed=5))
    t2 = sim.run_repeated_game(small_config(horizon=200, seed=5, eta=2.5))
    assert not np.array_equal(t1.strategy, t2.strategy)


def test_config_validation():
    with pytest.raises(InputError):
        small_config(horizon=0)
    with pytest.raises(InputError):
        small_config(feedback="oracular")
    with pytest.raises(InputError):
        small_config(gamma=1.5)
    with pytest.raises(InputError):
        sim.Population((0.5, 0.5))
    m = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=2, grid=mech.uniform_grid(0.5))
    with pytest.raises(InputError, match="player seats"):
        sim.SimConfig(
            mechanism=m, populations=(sim.Population((1.0,)),), horizon=5, seed=0
        )
    with pytest.raises(InputError, match=r"outside \[0"):
        sim.SimConfig(mechanism=m, populations=((1.0,), (0.5, 2.0)), horizon=5, seed=0)
    # indices are stored as int16: larger grids and populations are rejected
    wide = tuple(k / 40_000 for k in range(40_001))
    with pytest.raises(InputError, match="32768"):
        sim.SimConfig(
            mechanism=mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=1, grid=wide),
            populations=((1.0,),), horizon=5, seed=0,
        )
    one = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=1, grid=mech.uniform_grid(0.5))
    crowd = tuple(k / 40_000 for k in range(mech.INDEX_LIMIT + 1))
    with pytest.raises(InputError, match="32768"):
        sim.SimConfig(mechanism=one, populations=(crowd,), horizon=5, seed=0)


def test_validate_catches_tampering(tmp_path):
    trace = sim.run_repeated_game(small_config(horizon=20, seed=1))
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "strategies.json"
    sim.write_trace_csv(trace, csv_path)
    json_path.write_text(sim.strategies_json_text(trace))
    realized = trace.realized_idx.copy()
    realized[3, 0] = (realized[3, 0] + 1) % 5
    with pytest.raises(AssertionError, match="round 4, seat 0"):
        oracles.assert_commitments(trace.config, trace.strategy, trace.v_idx, realized)
    # on load, the realized bids are the sidecar's commitments, so a sidecar
    # that gives agent 0 another bid in a round it played renders another
    # trace.csv than the one written: the file is refused at that round
    t = int(np.flatnonzero(trace.v_idx[:, 0] == 0)[0])
    doc = json.loads(json_path.read_text())
    doc["rounds"][t][0] = (doc["rounds"][t][0] + 1) % 5
    json_path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=f"round {t + 1}, column action_1: "):
        sim.load_trace(csv_path, json_path)
