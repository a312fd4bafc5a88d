"""Repeated play of a grid auction by populations of learning agents.

Each player seat of the mechanism is filled by one population holding one
learning agent per valuation type. Every round proceeds in three steps:

1. every agent in every population commits an action sampled from its
   current mixed strategy (the full commitment table is recorded, not just
   the realized match);
2. each population independently selects one agent uniformly at random;
3. the selected agents play the auction and experience their realized
   utility, while unselected agents earn zero and do not update.

Selected agents receive either the full counterfactual utility vector
(``full`` feedback, Hedge update) or only the realized utility (``bandit``
feedback, importance-weighted update). A trace
holds only what play decided: the types, the commitments and the realized
bids, plus the welfare they give. ``rebuild_ledgers`` recounts the regret
ledgers from the type and realized-bid columns, at many horizons in one
sweep, for a simulated and a loaded trace alike; they always hold the exact
counterfactual vector, whatever feedback the learner saw.

Each seed is one independent run of the repeated game, played to its end
before the next seed starts. Its randomness is the PCG64 stream numpy's
``Generator(PCG64(seed))`` draws, which ``pcg64`` reproduces without
loading numpy's random package. Draw order is fixed: one uniform per agent
per round in round-major order, then one type-index column per population.
Runs with equal configs are therefore reproducible bit for bit.

The loop works through the rounds in chunks of DRAW_CHUNK. The types are
drawn before play, so a chunk first works out everything play cannot
change (each round's learner rows and Hedge step sizes). Hedge then plays
the rounds in verified blocks: only the selected agents' bids couple the
rounds, and a CDF a few updates stale nearly always gives the same bid, so
a block plays many rounds from guessed bids in a few numpy calls and keeps
those the guesses got right; the bids it resampled after a wrong guess are
the next block's guesses. A bandit update divides by the probability its
bid was sampled with, so bandit plays a round at a time, in plain Python
(``scalar_step``): each row keeps its weights, their total and its CDF,
rebuilt only when the row's weights change, and the utilities are laid out
by whole bid profile (``scalar_step.profile_table``), so a round computes
one profile code for all its updates. A round updates a handful of short
rows, where each numpy call would cost more than the arithmetic it does.
``trace.csv`` and ``strategies.json`` are assembled as byte matrices in
blocks of WRITE_CHUNK rounds. ``load_trace`` reads them back through
``readers``, which only it imports.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence

import numpy as np

from . import mechanisms as mech
from .errors import ContractViolationError, InputError
from .learners import (
    LOG_STEP_SLACK,
    MAX_LOG_STEP,
    LearnerState,
    RegretLedger,
    anytime_eta,
    ceiling_headroom,
    count_selections,
    renormalize,
)
from .mechanisms import FEEDBACK_BANDIT, FEEDBACK_FULL, Population
from .records import record


@record(frozen=True)
class SimConfig:
    mechanism: mech.Mechanism
    populations: tuple[Population, ...]
    horizon: int
    seed: int
    feedback: str = FEEDBACK_FULL
    eta: float | None = None  # None: the anytime schedule, or gamma / |A| for bandit
    gamma: float = 0.05

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise InputError(f"horizon must be >= 1, got {self.horizon}")
        if self.feedback not in mech.FEEDBACK_MODES:
            raise InputError(f"unknown feedback mode {self.feedback!r}")
        pops = mech.check_populations(self.mechanism, self.populations)
        object.__setattr__(self, "populations", pops)
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError(f"gamma must lie in [0, 1], got {self.gamma}")
        bids = len(self.mechanism.grid)
        if self.eta is not None:
            # an update multiplies a weight of up to the ceiling by exp(step);
            # unit utilities lie in [0, 1], bandit probabilities in [gamma/|A|, 1]
            step = self.eta
            if self.feedback == FEEDBACK_BANDIT and self.eta > 0.0:
                step = self.eta * bids / self.gamma if self.gamma > 0.0 else math.inf
            if not 0.0 <= step <= MAX_LOG_STEP:
                raise InputError(
                    f"eta {self.eta} ({self.feedback} feedback, gamma {self.gamma}) takes "
                    f"log steps up to {step:.6g}; weights stay finite up to {MAX_LOG_STEP:.6g}"
                )
        largest = max(bids, max(len(p) for p in pops))
        if largest > mech.INDEX_LIMIT:
            raise InputError(
                f"a bid grid or population has {largest} entries; the simulator "
                f"indexes at most {mech.INDEX_LIMIT}"
            )
        mech.check_table_cap(self.mechanism)
        check_index_memory(self, 1)

    def agents(self) -> list[tuple[int, int, float]]:
        """Flat agent order, ``mechanisms.flat_agents``: (population, type
        index, type value), the order of the learner rows and of the exact
        agent game's players."""
        return mech.flat_agents(self.populations)

    def agent_offsets(self) -> list[int]:
        offs, acc = [], 0
        for p in self.populations:
            offs.append(acc)
            acc += len(p)
        return offs


def check_index_memory(config: SimConfig, n_seeds: int) -> None:
    """Raise InputError unless the type, commitment and realized-bid indices
    of ``n_seeds`` seeds, int16 each and all held at once, fit in physical
    memory."""
    need = 2 * n_seeds * config.horizon * (2 * config.mechanism.n + len(config.agents()))
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise InputError(
            f"horizon {config.horizon} needs {need / 2**30:.3g} GiB of index "
            f"arrays for {n_seeds} seed(s), more than the {memory / 2**30:.3g} "
            "GiB of physical memory"
        )


@record
class Trace:
    """Complete record of one run.

    ``strategy[t, g]`` is the action index agent ``g`` (flat order) committed
    to in round ``t``; ``v_idx[t, i]`` the type selected in population ``i``;
    ``realized_idx[t, i]`` the bid index actually played for seat ``i``,
    which always equals the selected agent's committed action.
    """

    config: SimConfig
    v_idx: np.ndarray
    strategy: np.ndarray | None
    realized_idx: np.ndarray
    sw: np.ndarray
    opt: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.sw)


def check_commitments(config: SimConfig, strategy: np.ndarray, v_idx: np.ndarray,
                      realized_idx: np.ndarray) -> None:
    """Raise InputError unless each row's selected agents committed to the realized bids."""
    rows = np.arange(len(strategy))
    for i, off in enumerate(config.agent_offsets()):
        if not np.array_equal(strategy[rows, off + v_idx[:, i]], realized_idx[:, i]):
            raise InputError(
                f"seat {i}: realized actions diverge from committed strategies"
            )


def welfare_columns(
    config: SimConfig, v_idx: np.ndarray, realized_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-round realized welfare ``sw`` and optimal welfare ``opt``.

    ``v_idx`` and ``realized_idx`` are the (rounds, seats) type and bid
    indices of a run. ``sw`` adds the seats' utilities in seat order, then the
    revenue, which are the float operations of replaying the mechanism once
    per round, so the columns are bit-identical to that replay.
    """
    m = config.mechanism
    sw = np.zeros(len(v_idx))
    for i, pop in enumerate(config.populations):
        opp = mech.opponent_index(realized_idx.T, m.sizes, i)
        tables = np.stack([mech.utility_table(m, i, v) for v in pop.values])
        sw += tables[v_idx[:, i], realized_idx[:, i], opp]
    sw += mech.revenue_table(m)[np.ravel_multi_index(realized_idx.T, m.sizes)]
    value_lists = [p.values for p in config.populations]
    opt_by_profile = np.array(
        [mech.optimal_welfare(v, m) for v in mech.value_profiles(value_lists)]
    )
    opt = opt_by_profile[np.ravel_multi_index(v_idx.T, [len(v) for v in value_lists])]
    return sw, opt


def run_repeated_game(config: SimConfig) -> Trace:
    """Simulate ``config.horizon`` rounds of ``config.seed`` and return the
    full trace. The loop's working set is freed before the welfare columns
    are built."""
    v_idx, strategy, realized = _play_rounds(config)
    sw, opt = welfare_columns(config, v_idx, realized)
    return Trace(config=config, v_idx=v_idx, strategy=strategy, realized_idx=realized,
                 sw=sw, opt=opt)


# Rounds per draw chunk: the loop draws the uniforms and precomputes what play
# cannot change once per chunk.
DRAW_CHUNK = 1024

# Bounds of a seed's verified Hedge blocks. A block tries twice as many rounds
# as the last one if that kept them all, else the more of the rounds it kept
# and the rounds after them, whose samples it carries over as guesses; but no
# fewer than HEDGE_BLOCK[0] and no more than HEDGE_BLOCK[1] rounds or
# HEDGE_BLOCK[2] weights (rounds x rows x bids) in one array.
HEDGE_BLOCK = (8, 256, 1 << 16)


def draw_types(config: SimConfig) -> np.ndarray:
    """The (rounds, seats) type indices of seed ``config.seed``: the draws
    that follow its T x G uniforms in the seed's stream."""
    from .pcg64 import Stream

    T = config.horizon
    types = Stream(config.seed)
    types.advance(T * len(config.agents()))
    v_idx = np.empty((T, config.mechanism.n), dtype=np.int16)
    for i, pop in enumerate(config.populations):
        v_idx[:, i] = types.integers(len(pop), T)
    return v_idx


def _play_rounds(config: SimConfig):
    """The round loop of one seed, ``config.seed``.

    Returns the (rounds, ...) type, commitment and realized-bid index
    arrays; learner rows are in flat agent order. The loop's working set
    (stacked tables, learner weights, chunk buffers) is freed on return.

    A round samples every row and updates the selected rows: Hedge
    multiplies exp(eta * unit utility) into the row, bandit exp(eta * unit
    utility / p) into the chosen weight. Both skip the weight-ceiling check
    while the log steps since the last check provably cannot take a weight
    past the ceiling, which leaves every weight as a check in every round
    would. Hedge plays the rounds in verified blocks (``_hedge_blocks``),
    bandit a round at a time in ``scalar_step.ScalarStep``.
    """
    m = config.mechanism
    n = m.n
    T = config.horizon
    H = m.scale
    A = len(m.grid)
    agents = config.agents()
    G = len(agents)
    offsets = np.array(config.agent_offsets())

    from .pcg64 import Stream

    gen = Stream(config.seed)
    v_idx = draw_types(config)
    full = config.feedback == FEEDBACK_FULL
    state = LearnerState(np.ones((G, A)), gamma=0.0 if full else config.gamma)
    strategy = np.empty((T, G), dtype=np.int16)
    realized = np.empty((T, n), dtype=np.int16)
    chunk = min(DRAW_CHUNK, T)
    rows_at = np.empty((chunk, n), dtype=np.int64)
    if full:
        # Hedge reads only the unit utilities (u + H) / 2H; row g * n_opp +
        # opp holds agent g's utility vector against opponent profile opp
        n_opp = A ** (n - 1)
        unit = np.empty((G * n_opp, A))
        for g, (pop, _ti, val) in enumerate(agents):
            unit[g * n_opp:(g + 1) * n_opp] = mech.utility_table(m, pop, val).T
        unit += H
        unit /= 2.0 * H
        # opp_place[j, i]: weight of seat j's bid in seat i's opponent index
        opp_place = np.array([mech.opponent_places([A] * n, i) for i in range(n)]).T
        # the first utility cell of each learner row's agent
        first_cell = np.arange(G) * n_opp
        # ln(weight) grows by at most eta * top_unit per update
        top_unit = max(float(unit.max()), 0.0)
        etas = np.empty((chunk, n, 1))
        carried = (ceiling_headroom(state.weights), HEDGE_BLOCK[0])
    else:
        from .scalar_step import ScalarStep, profile_table

        eta = config.eta if config.eta is not None else config.gamma / A
        headroom = ceiling_headroom(state.weights)
        step = ScalarStep(state, profile_table(config), eta)

    for a in range(0, T, DRAW_CHUNK):
        R = min(DRAW_CHUNK, T - a)
        draws = gen.random(R * G).reshape(R, G)
        rows = rows_at[:R]
        np.add(offsets, v_idx[a:a + R], out=rows)
        if full:
            counts = count_selections(state.t_sel, rows)
            etas[:R, :, 0] = anytime_eta(A, counts) if config.eta is None else config.eta
            steps = etas[:R, :, 0].max(axis=1) * top_unit + LOG_STEP_SLACK
            carried = _hedge_blocks(
                state.weights, draws, rows, etas[:R], steps, unit, first_cell,
                opp_place, *carried, strategy[a:a + R], realized[a:a + R],
            )
        else:
            picks, played, headroom = step.rounds(draws, rows, headroom)
            strategy[a:a + R] = np.reshape(picks, (R, G))
            realized[a:a + R] = np.reshape(played, (R, n))

    return v_idx, strategy, realized


def _sample(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling along the last axis: the count of CDF entries at
    or below the draw times the total, where leaving out the last entry caps
    the index at A - 1."""
    return (cdf[..., :-1] <= draws[..., None] * cdf[..., -1:]).sum(axis=-1)


def _hedge_blocks(w, draws, rows, etas, steps, unit, first_cell, opp_place,
                  headroom, size, strategy, realized) -> tuple[float, int]:
    """Play one seed's Hedge rounds of a draw chunk in verified blocks.

    ``w`` is the seed's (G, A) weight rows, updated in place; ``draws[c]``,
    ``rows[c]`` and ``etas[c]`` are round c's uniforms, updated rows and step
    sizes, and ``steps[c]`` its log-step bound. Returns the ceiling headroom
    and next block length, which the seed carries into its next chunk.

    A block guesses its selected bids from the CDFs at its start, multiplies
    every round's factors in at once (1.0 in the rows a round leaves alone,
    so each product is exact) and samples every round from the weights that
    chain gives. It commits the rounds before the first whose selected bids
    differ from the guess, always at least round 0, whose guess used exact
    CDFs. Each float operation is one a round at a time would make, so the
    result is that of playing the rounds one by one. The next block takes
    the samples of the rounds from the wrong guess on as its first guesses:
    the first of them came from verified weights, so it is exact. A block
    also ends at the round whose step may take a weight past the ceiling,
    where the rows are renormalized.
    """
    lo, hi, cells_cap = HEDGE_BLOCK
    G, A = w.shape
    hi = min(hi, max(1, cells_cap // (G * A)))
    R = len(draws)
    at = np.arange(R + 1)[:, None]
    cells_at = first_cell[rows]
    c = 0
    carry = ()  # verified samples of the rounds from c on, the first exact
    while c < R:
        L = min(size, hi, R - c)
        # the headroom after each round, as headroom -= steps[c] leaves it;
        # the steps are positive, so it only falls
        left = np.subtract.accumulate(np.concatenate(([headroom], steps[c:c + L])))
        ceiling = left[L] < 0.0
        if ceiling:
            L = int((left < 0.0).argmax())
        u, r = draws[c:c + L], rows[c:c + L]
        # round 0's commitments and the other rounds' guessed bids: the
        # carried samples, then rows sampled from the CDFs at the block's start
        start = carry[:L]
        if len(start) < L:
            fresh = _sample((w / w.sum(axis=1, keepdims=True)).cumsum(axis=1), u[len(start):])
            start = np.concatenate((start, fresh)) if len(start) else fresh
        guess = start[at[:L], r]
        chain = np.ones((L + 1, G, A))
        chain[0] = w
        cells = cells_at[c:c + L] + guess @ opp_place
        chain[at[1:L + 1], r] = np.exp(etas[c:c + L] * unit[cells])
        np.multiply.accumulate(chain, axis=0, out=chain)
        strategy[c] = start[0]
        k, carry = L, ()
        if L > 1:
            later = chain[1:L]
            j = _sample((later / later.sum(axis=2, keepdims=True)).cumsum(axis=2), u[1:])
            wrong = np.flatnonzero(j[at[:L - 1], r[1:]] != guess[1:])
            if len(wrong):
                k = 1 + int(wrong[0]) // len(opp_place)
            strategy[c + 1:c + k] = j[:k - 1]
            carry = j[k - 1:]
        realized[c:c + k] = guess[:k]
        w[:] = chain[k]
        if k == L and ceiling:
            renormalize(w)
            headroom = ceiling_headroom(w)
        else:
            headroom = float(left[k])
        size = min(max(max(k, L - k) if k < L else 2 * size, lo), hi)
        c += k
    return headroom, size


# --- persistence -------------------------------------------------------------


def _csv_header(n: int) -> list[str]:
    return (
        ["t"]
        + [f"v_idx_{i + 1}" for i in range(n)]
        + [f"action_{i + 1}" for i in range(n)]
        + ["sw", "opt"]
    )


# Rounds per step of write_trace_csv and strategies_json_text, and at most
# per step of readers.compact_table. A trace.csv chunk renders its distinct
# keys as Python strings; at 4,096 rounds the n = 4 bandit's ~4,000 distinct
# keys per chunk raised simulate's peak RSS by 0.15 MB.
WRITE_CHUNK = 1024


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The decimal digits of nonnegative integers as a (len, width) byte
    matrix, right-aligned after NUL bytes, which the writers drop. The
    quotients by powers of ten come from float division, exact below 2**53,
    so a run loads none of numpy's integer-division loops."""
    power = np.array([10.0**k for k in range(width - 1, -1, -1)])
    q = (values[:, None] / power).astype(np.int64)
    lead = q[:, :-1] == 0
    q[:, 1:] -= 10 * q[:, :-1]
    q += 48
    q[:, :-1][lead] = 0
    return q.astype(np.uint8)


def write_trace_csv(trace: Trace, path) -> None:
    """Write the per-round table as CSV (1-based round numbers).

    A row after its round number depends only on the round's (type profile,
    bid profile) key. The rows are assembled WRITE_CHUNK rounds at a time
    as a byte matrix, the round numbers' digits beside the texts of the
    rounds' keys; each key's text is joined once per chunk from the texts
    of its cells, and each grid bid is formatted once per run.
    """
    cfg = trace.config
    n = cfg.mechanism.n
    row, key, _ = mech.profile_index(
        [*trace.v_idx.T, *trace.realized_idx.T],
        [len(p) for p in cfg.populations] + list(cfg.mechanism.sizes),
    )
    for name in ("sw", "opt"):
        col = getattr(trace, name)
        bad = np.flatnonzero(col != col[row][key])
        if len(bad):
            t, other = bad[0], row[key[bad[0]]]
            raise ContractViolationError(
                f"round {t + 1} stores {name}={float(col[t])!r}, but round "
                f"{other + 1} with the same types and bids stores {float(col[other])!r}"
            )
    bid_texts = [repr(b) for b in cfg.mechanism.grid]
    slot = np.empty(len(row), dtype=np.intp)
    width = len(str(trace.horizon))
    with open(path, "wb") as fh:
        fh.write((",".join(_csv_header(n)) + "\n").encode())
        for a in range(0, trace.horizon, WRITE_CHUNK):
            keys = key[a:a + WRITE_CHUNK]
            distinct = np.flatnonzero(np.bincount(keys, minlength=len(row)))
            slot[distinct] = np.arange(len(distinct))
            at = row[distinct]
            cols = [map(str, col) for col in trace.v_idx[at].T.tolist()]
            cols += [map(bid_texts.__getitem__, col)
                     for col in trace.realized_idx[at].T.tolist()]
            cols += [map(repr, trace.sw[at].tolist()), map(repr, trace.opt[at].tolist())]
            # each text leaves room for the round number's digits; the cell
            # lists and the texts are freed as soon as they are used
            pad = " " * width
            texts = [f"{pad},{s}\n" for s in map(",".join, zip(*cols))]
            del cols
            texts = np.array(texts, dtype=bytes).view(np.uint8).reshape(len(distinct), -1)
            # rows are assembled 64 KiB at a time: freeing a buffer past
            # glibc's mmap threshold (128 KiB) raises it, and the arrays
            # allocated after that stay resident
            step = max(1, (1 << 16) // texts.shape[1])
            for s in range(0, len(keys), step):
                lines = texts[slot[keys[s:s + step]]]
                lines[:, :width] = _digits(np.arange(a + s + 1, a + s + len(lines) + 1), width)
                fh.write(lines.tobytes().replace(b"\0", b""))


def strategies_json_text(trace: Trace, every: int = 1) -> str:
    """Commitment tables (all agents, every ``every``-th round) plus run metadata."""
    if every < 1:
        raise InputError(f"every must be >= 1, got {every}")
    if trace.strategy is None:
        raise InputError("this trace carries no commitment table")
    cfg = trace.config
    doc = {
        "meta": {
            "mechanism": cfg.mechanism.to_descriptor(),
            "populations": [list(p.values) for p in cfg.populations],
            "horizon": cfg.horizon,
            "seed": cfg.seed,
            "feedback": cfg.feedback,
            "gamma": cfg.gamma,
            "eta": cfg.eta,
        },
        "every": every,
        "rounds": 0,
    }
    # "rounds" sorts last, so the table replaces the placeholder at the end.
    # A chunk of rows is a byte matrix: each row a copy of one row's
    # separators, each agent's slot filled from the digits of its bid index
    head = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    kept = trace.strategy[::every]
    bids = len(cfg.mechanism.grid)
    width = len(str(bids - 1))
    digits = _digits(np.arange(bids), width)
    line = np.zeros(kept.shape[1] * (width + 1) + 2, dtype=np.uint8)
    line[[0, -2, -1]] = list(b"[],")
    line[width + 1:-2:width + 1] = ord(",")
    slots = np.flatnonzero(line == 0)
    parts = [head[:-2], "["]
    for a in range(0, len(kept), WRITE_CHUNK):
        block = kept[a:a + WRITE_CHUNK]
        rows = np.tile(line, (len(block), 1))
        rows[:, slots] = digits[block].reshape(len(block), -1)
        parts.append(rows.tobytes().replace(b"\0", b"").decode())
    parts[-1] = parts[-1][:-1] + "]}"
    return "".join(parts)


def load_trace(csv_path, strategies_path) -> Trace:
    """Rebuild a trace from its CSV table and strategies sidecar, checked
    against its own types and bids (``readers.load_trace``)."""
    from .readers import load_trace

    return load_trace(csv_path, strategies_path)


def rebuild_ledgers(trace: Trace, horizons: Sequence[int]) -> list[list[RegretLedger]]:
    """Per-agent ledgers, in flat agent order, of the first T rounds of a
    trace, for each T in ``horizons`` (the whole trace: ``[trace.horizon]``).
    Each agent's selected rounds, opponents and utilities are gathered once;
    horizon T sums those of the first T rounds, in round order. This is the
    one place regret sums are kept."""
    cfg = trace.config
    m = cfg.mechanism
    out = [[] for _ in horizons]
    for pop, ti, val in cfg.agents():
        table = mech.utility_table(m, pop, val)
        sel = np.flatnonzero(trace.v_idx[:, pop] == ti)
        bids = trace.realized_idx[sel].T
        opp = mech.opponent_index(bids, m.sizes, pop)
        got = table[bids[pop], opp]
        for ledgers, T in zip(out, horizons):
            k = int(np.searchsorted(sel, T))
            counts = np.bincount(opp[:k], minlength=table.shape[1]).astype(np.float64)
            ledgers.append(RegretLedger(
                counterfactual=table @ counts,
                realized=float(got[:k].sum()),
                selected_rounds=k,
                unselected_rounds=T - k,
            ))
    return out
