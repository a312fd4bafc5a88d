"""Trace analysis: the independence gap, epsilon, welfare bounds, horizon formula."""

import logging
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from regretlab import InputError, UndefinedResultError
from regretlab import analysis as an
from regretlab import mechanisms as mech
from regretlab import simulator as sim
from regretlab.records import replace
from regretlab.smoothness import SmoothnessParams

from . import oracles
from .conftest import acceptance_config


def one_seat(values=(1.0,), grid=(0.0, 0.5)):
    m = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=1, grid=grid)
    return sim.SimConfig(
        mechanism=m, populations=(sim.Population(values),), horizon=4, seed=0
    )


def manual_trace(cfg, v_idx, strategy, sw, opt):
    v = np.asarray(v_idx, dtype=np.int16)
    s = np.asarray(strategy, dtype=np.int16)
    offs = cfg.agent_offsets()
    realized = np.empty((cfg.horizon, cfg.mechanism.n), dtype=np.int16)
    for i in range(cfg.mechanism.n):
        realized[:, i] = s[np.arange(cfg.horizon), offs[i] + v[:, i]]
    trace = sim.Trace(
        config=cfg,
        v_idx=v,
        strategy=s,
        realized_idx=realized,
        sw=np.asarray(sw, dtype=float),
        opt=np.asarray(opt, dtype=float),
    )
    oracles.assert_commitments(cfg, s, v, realized)
    return trace


@pytest.fixture(scope="module")
def run_1e5():
    return sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=3, horizon=100_000)
    )


@pytest.fixture(scope="module")
def report_1e5(run_1e5):
    return an.analysis_report(run_1e5, SmoothnessParams(1.0 - 1.0 / math.e, 1.0))


# --- independence gap -----------------------------------------------------------


UNIT = SmoothnessParams(1.0, 1.0)


def recounted_gap(trace, zeta):
    """The independence gap by a direct recount: for each commitment profile
    committed in at least a ``zeta`` share of the rounds, the total-variation
    distance of its type-profile frequencies from uniform; the worst of them."""
    sizes = [len(p) for p in trace.config.populations]
    n_types = int(np.prod(sizes))
    by_profile = Counter(tuple(row) for row in trace.strategy.tolist())
    joint = Counter(zip(map(tuple, trace.strategy.tolist()), map(tuple, trace.v_idx.tolist())))
    gap = 0.0
    for s, count in by_profile.items():
        if count / trace.horizon >= zeta:
            tv = 0.5 * sum(abs(joint[s, v] / count - 1.0 / n_types)
                           for v in np.ndindex(*sizes))
            gap = max(gap, tv)
    return gap


def report_gap(trace, zeta=0.0):
    return an.analysis_report(trace, UNIT, zeta=zeta)["independence_gap"]


def test_independence_gap_examples():
    cfg = one_seat(values=(0.5, 1.0))
    balanced = manual_trace(
        cfg, [[0], [1], [0], [1]], [[1, 1]] * 4, [0.5, 1, 0.5, 1], [0.5, 1, 0.5, 1]
    )
    assert report_gap(balanced) == 0.0 == recounted_gap(balanced, 0.0)
    skewed = manual_trace(
        cfg, [[0], [0], [0], [1]], [[1, 1]] * 4, [0.5] * 3 + [1], [0.5] * 3 + [1]
    )
    assert report_gap(skewed) == pytest.approx(0.25, abs=1e-15)
    assert report_gap(skewed) == recounted_gap(skewed, 0.0)


def test_independence_gap_threshold_filters_rare_profiles():
    # four profiles of mass 1/4, each drawn with one of the two types
    cfg = one_seat(values=(0.5, 1.0), grid=(0.0, 0.25, 0.5, 0.75))
    trace = manual_trace(
        cfg, [[0], [1], [0], [1]], [[0, 0], [1, 1], [2, 2], [3, 3]], [1.0] * 4, [1.0] * 4
    )
    # a profile of mass exactly zeta is measured
    assert report_gap(trace, zeta=0.25) == 0.5 == recounted_gap(trace, 0.25)
    # every profile has mass 1/4 < zeta, so nothing is measured
    assert report_gap(trace, zeta=0.5) == 0.0 == recounted_gap(trace, 0.5)


def test_independence_gap_matches_a_direct_recount():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=1, horizon=200)
    )
    for zeta in (0.0, 0.01, 0.05):
        assert report_gap(trace, zeta) == pytest.approx(recounted_gap(trace, zeta), abs=1e-12)


def test_independence_gap_needs_zeta_in_the_unit_interval():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=1, horizon=20)
    )
    for zeta in (-0.1, 1.5):
        with pytest.raises(InputError, match="zeta must lie in"):
            report_gap(trace, zeta)


def test_independence_gap_is_small_on_a_long_run(report_1e5):
    assert report_1e5["independence_gap"] < 0.05


# --- empirical epsilon ---------------------------------------------------------


def constant_bid_trace():
    """Single seat, one type of value 1, always bidding 0.5 on {0, 0.5}."""
    cfg = one_seat()
    return manual_trace(cfg, [[0]] * 4, [[1]] * 4, [1.0] * 4, [1.0] * 4)


def checkpoint_epsilon(trace, horizon):
    """The report's epsilon over the first ``horizon`` rounds: the row of
    its one checkpoint."""
    (row,) = an.analysis_report(trace, UNIT, checkpoints=[horizon])["checkpoints"]
    return row["epsilon"]


def test_epsilon_of_constant_overbidding():
    report = an.analysis_report(constant_bid_trace(), UNIT)
    # bidding 0 still wins the single-seat auction, so the fixed deviation
    # to 0 gains 0.5 every round
    assert report["epsilon"] == pytest.approx(0.5, abs=1e-12)
    agent = report["epsilon_breakdown"]["pop0_type0"]
    np.testing.assert_allclose(agent["per_action"], [0.5, 0.0], atol=1e-12)
    assert agent["epsilon"] == report["epsilon"]
    # one seat, so the total regret level n * epsilon is epsilon itself
    trace = constant_bid_trace()
    assert trace.config.mechanism.n * report["epsilon"] == pytest.approx(0.5, abs=1e-12)


def test_epsilon_of_best_responding_is_zero():
    cfg = one_seat()
    trace = manual_trace(cfg, [[0]] * 4, [[0]] * 4, [1.0] * 4, [1.0] * 4)
    report = an.analysis_report(trace, UNIT)
    assert report["epsilon"] == 0.0
    agent = report["epsilon_breakdown"]["pop0_type0"]
    np.testing.assert_allclose(agent["per_action"], [0.0, -0.5], atol=1e-12)
    assert agent["epsilon"] == 0.0


def test_epsilon_prefix_window_and_validation():
    trace = constant_bid_trace()
    eps = checkpoint_epsilon(trace, 2)
    assert eps == pytest.approx(0.5, abs=1e-12)
    for bad in [0, 5]:
        with pytest.raises(InputError, match=r"checkpoints must lie in \[1, 4\]"):
            checkpoint_epsilon(trace, bad)
    # epsilon reads only the type and realized bid columns
    trace.strategy = np.zeros_like(trace.strategy)
    assert checkpoint_epsilon(trace, 2) == eps


def test_epsilon_agrees_with_ledger_view():
    # the reference engine's running ledger sums, averaged over the horizon
    cfg = acceptance_config(mech.KIND_FIRST_PRICE, seed=6, horizon=400)
    trace = sim.run_repeated_game(cfg)
    report = an.analysis_report(trace, UNIT)
    live = oracles.reference_run(cfg)["ledger"]
    avg = [row["per_action"] for row in report["epsilon_breakdown"].values()]
    assert list(report["epsilon_breakdown"]) == [
        f"pop{pop}_type{ti}" for pop, ti, _v in trace.config.agents()
    ]
    np.testing.assert_allclose(avg, live.gaps() / trace.horizon, atol=1e-12)
    assert report["epsilon"] >= 0.0


def test_an_agent_never_selected_before_a_checkpoint_has_zero_sums():
    # three types on one seat, all bidding 0.5: type 1 is first selected in
    # round 3 and type 2 never, so at checkpoint 1 two agents have no
    # selected round and over the whole horizon one; the Hedge-bound check
    # divides by selected rounds, and numpy errors fail this test
    cfg = replace(one_seat(values=(0.25, 0.5, 1.0)), horizon=4)
    welfare = [0.25, 0.25, 0.5, 0.25]
    trace = manual_trace(cfg, [[0], [0], [1], [0]], [[1, 1, 1]] * 4, welfare, welfare)
    first, whole = sim.rebuild_ledgers(trace, [1, 4])
    assert first.selected_rounds.tolist() == [1, 0, 0]
    assert whole.selected_rounds.tolist() == [3, 1, 0]
    assert first.counterfactual[1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert first.realized[1:].tolist() == [0.0, 0.0]
    assert (whole.counterfactual[2].tolist(), whole.realized[2]) == ([0.0, 0.0], 0.0)
    with np.errstate(all="raise"):
        report = an.analysis_report(trace, UNIT, checkpoints=[1, 4])
    never = report["epsilon_breakdown"]["pop0_type2"]
    assert never["per_action"] == [0.0, 0.0]
    assert never["epsilon"] == 0.0 and math.copysign(1.0, never["epsilon"]) == 1.0
    # type 0 forgoes 0.5 a round by bidding 0.5 rather than 0
    assert [row["epsilon"] for row in report["checkpoints"]] == [0.5, 0.375]


@pytest.mark.parametrize("feedback", [sim.FEEDBACK_FULL, sim.FEEDBACK_BANDIT])
def test_report_logs_regret_above_the_hedge_bound_once(caplog, feedback):
    # bidding 0.5 for a unit valued 1.0 against no one forgoes 0.5 a round,
    # far above 2 sqrt(ln 2 / 100) + 0.01; the bound is Hedge's, so only a
    # full-feedback report checks it, and only over the whole horizon
    cfg = replace(one_seat(), horizon=100, feedback=feedback)
    trace = manual_trace(cfg, [[0]] * 100, [[1]] * 100, [1.0] * 100, [1.0] * 100)
    with caplog.at_level(logging.WARNING, logger="regretlab.analysis"):
        an.analysis_report(trace, SmoothnessParams(1.0, 1.0))
    warned = [r for r in caplog.records if "above the hedge bound" in r.getMessage()]
    assert len(warned) == (1 if feedback == sim.FEEDBACK_FULL else 0)


# --- welfare ratio and the finite-time inequality -------------------------------


def fabricated(sw, opt):
    cfg = one_seat()
    T = len(sw)
    return sim.Trace(
        config=cfg,
        v_idx=np.zeros((T, 1), dtype=np.int16),
        strategy=np.zeros((T, 1), dtype=np.int16),
        realized_idx=np.zeros((T, 1), dtype=np.int16),
        sw=np.asarray(sw, dtype=float),
        opt=np.asarray(opt, dtype=float),
    )


def test_welfare_ratio_basic():
    report = an.analysis_report(fabricated([1.0] * 4, [1.0] * 4), UNIT)
    assert report["ratio"] == 1.0
    assert report["bound"] == 1.0
    assert report["within_bound"]
    assert report["avg_sw"] == 1.0 and report["avg_opt"] == 1.0


def test_welfare_ratio_bound_comparison():
    params = SmoothnessParams(0.5, 2.0)  # bound max(1, 2) / 0.5 = 4
    ok = an.analysis_report(fabricated([1.0], [4.0]), params)
    assert ok["within_bound"]
    bad = an.analysis_report(fabricated([1.0], [4.2]), params)
    assert bad["ratio"] == pytest.approx(4.2) and not bad["within_bound"]
    # within the bound means within it plus the tolerance, inclusive
    at = an.analysis_report(fabricated([2.0], [3.0]), UNIT, tolerance=0.5)
    assert at["ratio"] == 1.5 and at["within_bound"]
    over = an.analysis_report(fabricated([2.0], [3.0 + 1e-12]), UNIT, tolerance=0.5)
    assert over["ratio"] > 1.5 and not over["within_bound"]


def test_welfare_ratio_degenerate_cases():
    report = an.analysis_report(fabricated([0.0, 0.0], [1.0, 1.0]), UNIT)
    assert report["ratio"] == math.inf
    assert not report["within_bound"]
    assert report["avg_sw"] == 0.0 and report["avg_opt"] == 1.0
    with pytest.raises(UndefinedResultError):
        an.analysis_report(fabricated([0.0], [0.0]), UNIT)


def test_finite_time_slack_formula():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=2, horizon=2_000)
    )
    params = SmoothnessParams(1.0 - 1.0 / math.e, 1.0)
    for delta in (0.05, 0.2):
        report = an.analysis_report(trace, params, delta=delta)
        eps = trace.config.mechanism.n * report["epsilon"]
        want = float(trace.sw.mean()) - (
            params.lam / max(1.0, params.mu) * float(trace.opt.mean()) - delta - params.mu * eps
        )
        assert report["finite_time_slack"] == want
        assert report["finite_time_holds"] == (want >= 0.0)
        assert report["delta"] == delta


def test_finite_time_all_zero_bids_regression():
    # both seats bid 0 forever: seat 0 wins at price 0, welfare equals the
    # winner's value, and seat 1 forgoes 1 - 0.5 a round by not bidding 0.5
    m = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=2, grid=mech.uniform_grid(0.5))
    cfg = sim.SimConfig(
        mechanism=m,
        populations=(sim.Population((1.0,)), sim.Population((1.0,))),
        horizon=8,
        seed=0,
    )
    trace = manual_trace(
        cfg, [[0, 0]] * 8, [[0, 0]] * 8, [1.0] * 8, [1.0] * 8
    )
    report = an.analysis_report(trace, SmoothnessParams(1.0 - 1.0 / math.e, 1.0), delta=0.05)
    assert report["avg_sw"] == 1.0 and report["epsilon"] == 0.5
    assert report["finite_time_holds"]
    # 1 - ((1 - 1/e) * 1 - 0.05 - 1 * (2 * 0.5))
    assert report["finite_time_slack"] == pytest.approx(1.0 / math.e + 1.05, abs=1e-15)


@pytest.mark.parametrize("kw, error, match", [
    (dict(delta=-0.01), InputError, "delta must be positive"),
    (dict(delta=0.0), InputError, "delta must be positive"),
    # a delta this negative would fail the inequality the ratio implies
    (dict(delta=-1e9), InputError, "delta must be positive"),
    (dict(rho=0.0), InputError, "rho must lie in"),
    (dict(rho=1.5), InputError, "rho must lie in"),
    (dict(zeta=1.5), InputError, "zeta must lie in"),
    (dict(checkpoints=[0]), InputError, "checkpoints must lie in"),
])
def test_report_checks_its_inputs_before_the_ledger_sweep(monkeypatch, kw, error, match):
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=2, horizon=200)
    )
    monkeypatch.setattr(an, "rebuild_ledgers", lambda *a: pytest.fail("swept the ledgers"))
    with pytest.raises(error, match=match):
        an.analysis_report(trace, SmoothnessParams(1.0 - 1.0 / math.e, 1.0), **kw)


def test_an_undefined_ratio_is_refused_before_the_ledger_sweep(monkeypatch):
    monkeypatch.setattr(an, "rebuild_ledgers", lambda *a: pytest.fail("swept the ledgers"))
    with pytest.raises(UndefinedResultError):
        an.analysis_report(fabricated([0.0], [0.0]), UNIT)


# --- sufficient horizon ---------------------------------------------------------


def test_t_star_frozen_value():
    got = an.t_star(0.1, 0.05, 2, 16, 4, 1)
    assert got == pytest.approx(407960556.58936834, rel=1e-12)
    assert got == pytest.approx(oracles.t_star_arithmetic(0.1, 0.05, 2, 16, 4, 1), rel=1e-12)


def test_t_star_scaling_in_delta():
    assert an.t_star(0.2, 0.05, 2, 16, 4, 1) * 8.0 == an.t_star(0.1, 0.05, 2, 16, 4, 1)


def test_t_star_validation():
    with pytest.raises(InputError):
        an.t_star(0.0, 0.05, 2, 16, 4, 1)
    with pytest.raises(InputError):
        an.t_star(0.1, 2.0, 2, 16, 4, 1)
    with pytest.raises(InputError):
        an.t_star(0.1, 0.0, 2, 16, 4, 1)
    an.t_star(0.1, 1.0, 2, 16, 4, 1)  # rho = 1 is the boundary, allowed


# --- checkpoints and the report --------------------------------------------------


def test_default_checkpoints():
    assert an.default_checkpoints(16) == [16]
    assert an.default_checkpoints(10) == [10]
    assert an.default_checkpoints(20) == [16, 20]
    pts = an.default_checkpoints(200_000)
    assert pts[0] == 16 and pts[-1] == 200_000 and 131072 in pts


def test_report_checkpoints_match_prefix_recomputation():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=5, horizon=500)
    )
    params = SmoothnessParams(1.0, 1.0)
    rows = an.analysis_report(trace, params)["checkpoints"]
    assert [r["horizon"] for r in rows] == [16, 32, 64, 128, 256, 500]
    for r in rows:
        h = r["horizon"]
        # the report of the trace's first h rounds counts them in its own sweep
        prefix = sim.Trace(
            config=replace(trace.config, horizon=h), v_idx=trace.v_idx[:h],
            strategy=trace.strategy[:h], realized_idx=trace.realized_idx[:h],
            sw=trace.sw[:h], opt=trace.opt[:h],
        )
        assert r["epsilon"] == an.analysis_report(prefix, params)["epsilon"]
        assert r["ratio"] == pytest.approx(
            float(trace.opt[:h].sum()) / float(trace.sw[:h].sum()), rel=1e-12
        )
    with pytest.raises(InputError):
        an.analysis_report(trace, params, checkpoints=[0, 10])
    with pytest.raises(InputError):
        an.analysis_report(trace, params, checkpoints=[501])


def test_report_counts_the_full_horizon_once(monkeypatch):
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=5, horizon=500)
    )
    calls = []

    def counted(trace, horizons):
        calls.append(list(horizons))
        return sim.rebuild_ledgers(trace, horizons)

    monkeypatch.setattr(an, "rebuild_ledgers", counted)
    params = SmoothnessParams(1.0, 1.0)
    report = an.analysis_report(trace, params)
    # one sweep counts every checkpoint; the last is the whole horizon, which
    # the report's epsilon shares
    assert calls == [[16, 32, 64, 128, 256, 500]]
    assert report["checkpoints"][-1]["epsilon"] == report["epsilon"]
    # checkpoints that omit the horizon add it to the same sweep, not a row
    calls.clear()
    custom = an.analysis_report(trace, params, checkpoints=[64, 16, 64])
    assert calls == [[16, 64, 500]]
    assert custom["checkpoints"] == report["checkpoints"][0:3:2]
    assert custom["epsilon"] == report["epsilon"]


def test_checkpoints_csv_round_trip():
    rows = [
        {"horizon": 16, "epsilon": 0.125, "ratio": 1.25},
        {"horizon": 32, "epsilon": 0.0625, "ratio": 1.125},
    ]
    text = an.checkpoints_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "horizon,epsilon,ratio"
    h, e, r = lines[1].split(",")
    assert (int(h), float(e), float(r)) == (16, 0.125, 1.25)


def test_t_star_counts_every_joint_commitment_profile():
    # |Sigma| is the grid size to the power of the agents: 11 bids, 4 agents
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=1, horizon=4)
    )
    report = an.analysis_report(trace, UNIT, delta=0.1, rho=0.5)
    assert report["t_star"] == an.t_star(0.1, 0.5, 2, 11.0**4, 4.0, 1.0)


def test_analysis_report_contents(run_1e5, report_1e5):
    report = report_1e5
    for key in [
        "horizon", "seed", "epsilon", "epsilon_breakdown", "independence_gap",
        "zeta", "ratio", "bound", "within_bound", "avg_sw", "avg_opt",
        "finite_time_slack", "finite_time_holds", "delta", "rho", "t_star",
        "checkpoints",
    ]:
        assert key in report
    assert report["horizon"] == 100_000
    assert report["seed"] == 3
    # the largest window-averaged gain of a fixed deviation, clipped at 0
    (ledger,) = sim.rebuild_ledgers(run_1e5, [100_000])
    assert report["epsilon"] == max(0.0, float(ledger.gaps().max()) / 100_000)
    assert set(report["epsilon_breakdown"]) == {
        "pop0_type0", "pop0_type1", "pop1_type0", "pop1_type1"
    }
    assert report["t_star"] == an.t_star(0.05, 0.05, 2, 11.0**4, 4.0, 1.0)
    assert report["checkpoints"][-1]["horizon"] == 100_000


def test_readme_python_example_runs(capsys):
    # the documented call, at a horizon a test can afford
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert "horizon=200_000" in code
    exec(compile(code.replace("horizon=200_000", "horizon=2_000"), "README.md", "exec"), {})
    eps, ratio, within = capsys.readouterr().out.split()
    assert float(eps) >= 0.0 and float(ratio) >= 1.0 and within in ("True", "False")
