"""Trace analysis: empirical joints, epsilon, welfare bounds, horizon formula."""

import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from regretlab import InputError, UndefinedResultError
from regretlab import analysis as an
from regretlab import mechanisms as mech
from regretlab import simulator as sim
from regretlab.smoothness import SmoothnessParams

from . import oracles
from .conftest import acceptance_config


def one_seat(values=(1.0,), grid=(0.0, 0.5)):
    m = mech.Mechanism(
        kind=mech.KIND_FIRST_PRICE, n=1, actions=mech.ActionSpace(grids=(grid,), scale=1.0)
    )
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
    sim.check_commitments(cfg, s, v, realized)
    return trace


@pytest.fixture(scope="module")
def run_1e5():
    return sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=3, horizon=100_000)
    )


# --- empirical joint ----------------------------------------------------------


def test_joint_constant_strategies_single_profile():
    cfg = one_seat(values=(0.5, 1.0))
    trace = manual_trace(
        cfg,
        v_idx=[[0], [1], [0], [1]],
        strategy=[[1, 1]] * 4,
        sw=[0.5, 1.0, 0.5, 1.0],
        opt=[0.5, 1.0, 0.5, 1.0],
    )
    joint = an.empirical_joint(trace)
    assert joint.total == 4
    assert joint.profiles.tolist() == [[1, 1]]
    assert joint.counts.tolist() == [joint.total]
    np.testing.assert_allclose(joint.cond[0] / joint.counts[0], [0.5, 0.5])


def test_joint_all_distinct_profiles():
    cfg = one_seat(grid=(0.0, 0.25, 0.5, 0.75))
    trace = manual_trace(
        cfg,
        v_idx=[[0]] * 4,
        strategy=[[0], [1], [2], [3]],
        sw=[1.0] * 4,
        opt=[1.0] * 4,
    )
    joint = an.empirical_joint(trace)
    assert joint.profiles.tolist() == [[0], [1], [2], [3]]
    assert (joint.counts / joint.total).tolist() == [0.25] * 4


def test_joint_window_matches_direct_recount():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=1, horizon=200)
    )
    joint = an.empirical_joint(trace)
    assert joint.total == 200
    want = Counter(tuple(trace.strategy[t].tolist()) for t in range(200))
    got = dict(zip(map(tuple, joint.profiles.tolist()), joint.counts.tolist()))
    assert got == dict(want)
    assert sorted(got) == list(got)  # lexicographic order
    assert joint.cond.sum(axis=1).tolist() == joint.counts.tolist()


def test_joint_rejects_bad_inputs():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=1, horizon=20)
    )
    with pytest.raises(InputError):
        an.empirical_joint(trace, zeta=1.5)
    bare = sim.Trace(
        config=trace.config,
        v_idx=trace.v_idx,
        strategy=None,
        realized_idx=trace.realized_idx,
        sw=trace.sw,
        opt=trace.opt,
    )
    with pytest.raises(InputError):
        an.empirical_joint(bare)


def test_independence_gap_examples():
    cfg = one_seat(values=(0.5, 1.0))
    balanced = manual_trace(
        cfg, [[0], [1], [0], [1]], [[1, 1]] * 4, [0.5, 1, 0.5, 1], [0.5, 1, 0.5, 1]
    )
    assert an.conditional_independence_gap(an.empirical_joint(balanced)) == 0.0
    skewed = manual_trace(
        cfg, [[0], [0], [0], [1]], [[1, 1]] * 4, [0.5] * 3 + [1], [0.5] * 3 + [1]
    )
    joint = an.empirical_joint(skewed)
    assert an.conditional_independence_gap(joint) == pytest.approx(0.25, abs=1e-15)


def test_independence_gap_threshold_filters_rare_profiles():
    cfg = one_seat(grid=(0.0, 0.25, 0.5, 0.75))
    trace = manual_trace(
        cfg, [[0]] * 4, [[0], [1], [2], [3]], [1.0] * 4, [1.0] * 4
    )
    joint = an.empirical_joint(trace, zeta=0.5)
    # every profile has mass 1/4 < zeta, so nothing is measured
    assert an.conditional_independence_gap(joint) == 0.0


def test_independence_gap_is_small_on_a_long_run(run_1e5):
    joint = an.empirical_joint(run_1e5, zeta=0.01)
    assert an.conditional_independence_gap(joint) < 0.05


# --- empirical epsilon ---------------------------------------------------------


def constant_bid_trace():
    """Single seat, one type of value 1, always bidding 0.5 on {0, 0.5}."""
    cfg = one_seat()
    return manual_trace(cfg, [[0]] * 4, [[1]] * 4, [1.0] * 4, [1.0] * 4)


def test_epsilon_of_constant_overbidding():
    eps, breakdown = an.bayes_cce_epsilon(constant_bid_trace())
    # bidding 0 still wins the single-seat auction, so the fixed deviation
    # to 0 gains 0.5 every round
    assert eps == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(breakdown[(0, 0)], [0.5, 0.0], atol=1e-12)
    # one seat, so the total regret level n * epsilon is epsilon itself
    trace = constant_bid_trace()
    assert trace.config.mechanism.n * an.bayes_cce_epsilon(trace)[0] == pytest.approx(
        0.5, abs=1e-12
    )


def test_epsilon_of_best_responding_is_zero():
    cfg = one_seat()
    trace = manual_trace(cfg, [[0]] * 4, [[0]] * 4, [1.0] * 4, [1.0] * 4)
    eps, breakdown = an.bayes_cce_epsilon(trace)
    assert eps == 0.0
    np.testing.assert_allclose(breakdown[(0, 0)], [0.0, -0.5], atol=1e-12)


def test_epsilon_prefix_window_and_validation():
    trace = constant_bid_trace()
    eps, _ = an.bayes_cce_epsilon(trace, horizon=2)
    assert eps == pytest.approx(0.5, abs=1e-12)
    for bad in [0, 5]:
        with pytest.raises(InputError):
            an.bayes_cce_epsilon(trace, horizon=bad)
    # epsilon reads only the type and realized bid columns
    trace.strategy = None
    assert an.bayes_cce_epsilon(trace, horizon=2)[0] == eps


def test_epsilon_agrees_with_ledger_view():
    # the reference engine's running ledger sums, averaged over the horizon
    cfg = acceptance_config(mech.KIND_FIRST_PRICE, seed=6, horizon=400)
    trace = sim.run_repeated_game(cfg)
    eps, breakdown = an.bayes_cce_epsilon(trace)
    live = oracles.reference_run(cfg)["ledgers"]
    offs = trace.config.agent_offsets()
    for (pop, ti), avg in breakdown.items():
        led = live[offs[pop] + ti]
        np.testing.assert_allclose(avg, led.gaps() / trace.horizon, atol=1e-12)
    assert eps >= 0.0


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
    summary = an.welfare_ratio(fabricated([1.0] * 4, [1.0] * 4), SmoothnessParams(1.0, 1.0))
    assert summary.ratio == 1.0
    assert summary.bound == 1.0
    assert summary.within_bound
    assert summary.avg_sw == 1.0 and summary.avg_opt == 1.0


def test_welfare_ratio_bound_comparison():
    params = SmoothnessParams(0.5, 2.0)  # bound max(1, 2) / 0.5 = 4
    ok = an.welfare_ratio(fabricated([1.0], [4.0]), params)
    assert ok.within_bound
    bad = an.welfare_ratio(fabricated([1.0], [4.2]), params)
    assert bad.ratio == pytest.approx(4.2) and not bad.within_bound


def test_welfare_ratio_degenerate_cases():
    summary = an.welfare_ratio(fabricated([0.0, 0.0], [1.0, 1.0]), SmoothnessParams(1.0, 1.0))
    assert summary.ratio == math.inf
    assert not summary.within_bound
    with pytest.raises(UndefinedResultError):
        an.welfare_ratio(fabricated([0.0], [0.0]), SmoothnessParams(1.0, 1.0))


def test_finite_time_check_formula():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=2, horizon=2_000)
    )
    params = SmoothnessParams(1.0 - 1.0 / math.e, 1.0)
    eps = trace.config.mechanism.n * an.bayes_cce_epsilon(trace)[0]
    res = an.finite_time_check(trace, params, 0.05, eps)
    want = float(trace.sw.mean()) - (
        params.lam / max(1.0, params.mu) * float(trace.opt.mean()) - 0.05 - params.mu * eps
    )
    assert res.slack == pytest.approx(want, abs=1e-12)
    assert res.holds == (res.slack >= 0.0)
    assert res.epsilon == eps and res.delta == 0.05
    with pytest.raises(InputError):
        an.finite_time_check(trace, params, -0.01, eps)
    with pytest.raises(InputError):
        an.finite_time_check(trace, params, 0.05, -1e-9)


def test_finite_time_all_zero_bids_regression():
    # both seats bid 0 forever: seat 0 wins at price 0, welfare equals the
    # winner's value, and the inequality holds with slack exactly 1/e
    m = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=2, actions=mech.ActionSpace.uniform(2, 0.5, 1.0))
    cfg = sim.SimConfig(
        mechanism=m,
        populations=(sim.Population((1.0,)), sim.Population((1.0,))),
        horizon=8,
        seed=0,
    )
    trace = manual_trace(
        cfg, [[0, 0]] * 8, [[0, 0]] * 8, [1.0] * 8, [1.0] * 8
    )
    res = an.finite_time_check(trace, SmoothnessParams(1.0 - 1.0 / math.e, 1.0), 0.0, 0.0)
    assert res.holds
    assert res.slack == pytest.approx(1.0 - (1.0 - 1.0 / math.e), abs=1e-15)


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


def test_checkpoint_series_matches_prefix_recomputation():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=5, horizon=500)
    )
    rows = an.checkpoint_series(trace)
    assert [r["horizon"] for r in rows] == [16, 32, 64, 128, 256, 500]
    for r in rows:
        h = r["horizon"]
        eps, _ = an.bayes_cce_epsilon(trace, horizon=h)
        assert r["epsilon"] == eps
        assert r["ratio"] == pytest.approx(
            float(trace.opt[:h].sum()) / float(trace.sw[:h].sum()), rel=1e-12
        )
    with pytest.raises(InputError):
        an.checkpoint_series(trace, [0, 10])
    with pytest.raises(InputError):
        an.checkpoint_series(trace, [501])


def test_report_counts_the_full_horizon_once(monkeypatch):
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=5, horizon=500)
    )
    calls = []

    def counted(trace, horizon=None):
        calls.append(horizon)
        return sim.rebuild_ledgers(trace, horizon)

    monkeypatch.setattr(an, "rebuild_ledgers", counted)
    report = an.analysis_report(trace, SmoothnessParams(1.0, 1.0))
    # one full-horizon recount shared by the report's epsilon and its last
    # checkpoint, plus one per shorter prefix
    assert calls == [None, 16, 32, 64, 128, 256]
    monkeypatch.undo()
    assert report["checkpoints"] == an.checkpoint_series(trace)
    assert report["checkpoints"][-1]["epsilon"] == report["epsilon"]


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


def test_sigma_size_of():
    trace = sim.run_repeated_game(
        acceptance_config(mech.KIND_FIRST_PRICE, seed=1, horizon=4)
    )
    assert an.sigma_size_of(trace) == 11.0**4


def test_analysis_report_contents(run_1e5):
    report = an.analysis_report(run_1e5, SmoothnessParams(1.0 - 1.0 / math.e, 1.0))
    for key in [
        "horizon", "seed", "epsilon", "epsilon_breakdown", "independence_gap",
        "zeta", "ratio", "bound", "within_bound", "avg_sw", "avg_opt",
        "finite_time_slack", "finite_time_holds", "delta", "rho", "t_star",
        "checkpoints",
    ]:
        assert key in report
    assert report["horizon"] == 100_000
    assert report["seed"] == 3
    eps, _ = an.bayes_cce_epsilon(run_1e5)
    assert report["epsilon"] == eps
    assert set(report["epsilon_breakdown"]) == {
        "pop0_type0", "pop0_type1", "pop1_type0", "pop1_type1"
    }
    assert report["t_star"] == an.t_star(0.05, 0.05, 2, an.sigma_size_of(run_1e5), 4.0, 1.0)
    assert report["checkpoints"][-1]["horizon"] == 100_000
