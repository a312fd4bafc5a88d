"""Acceptance gate: the eight headline properties, one test each.

Criteria 1-3 and 7 share the session-scoped 5-seed runs from conftest
(two populations with types {0.5, 1.0}, bid grid step 0.1, horizon 2e5,
hedge with full feedback), and read what they check from one analysis
report per seed: criteria 1, 3 and 7 the first-price ratio, epsilon curve,
independence gap and finite-horizon slack, criterion 2 the all-pay ratio.
Each test prints one summary line with the
measured numbers; assertions carry them too so a red run is self-describing.
"""

import json
import math

import numpy as np
import pytest

from regretlab import analysis as an
from regretlab import cli
from regretlab import exact
from regretlab import mechanisms as mech
from regretlab import simulator as sim
from regretlab import smoothness as smooth

from . import oracles
from .conftest import ACCEPT_SEEDS, acceptance_config, written_csv
from .corpus import TINY_CORPUS

E_INV = 1.0 - 1.0 / math.e
FP_PARAMS = smooth.SmoothnessParams(E_INV, 1.0)
AP_PARAMS = smooth.SmoothnessParams(0.5, 1.0)


# criterion 3's learning curve: epsilon at 1024 .. 131072 rounds
CURVE = [2**k for k in range(10, 18)]


@pytest.fixture(scope="module")
def first_price_reports(first_price_runs):
    """seed -> the one report criteria 1, 3 and 7 read."""
    return {seed: an.analysis_report(trace, FP_PARAMS, checkpoints=CURVE)
            for seed, (trace, _wall) in first_price_runs.items()}


def test_criterion_1_first_price_ratio(first_price_runs, first_price_reports):
    ratios = {}
    for seed, (_trace, wall) in first_price_runs.items():
        report = first_price_reports[seed]
        ratios[seed] = report["ratio"]
        assert report["ratio"] <= 1.632, (
            f"seed {seed}: first-price ratio {report['ratio']:.6f} > 1.632"
        )
        assert report["within_bound"]
        assert wall < 60.0, f"seed {seed}: run took {wall:.1f}s (budget 60s)"
    worst = max(ratios.values())
    slowest = max(w for _, w in first_price_runs.values())
    print(
        f"criterion 1: PASS - first-price ratio <= 1.632 on seeds "
        f"{sorted(ratios)} (worst {worst:.4f}, slowest run {slowest:.1f}s)"
    )


def test_criterion_2_all_pay_ratio(all_pay_runs):
    ratios = {}
    for seed, (trace, wall) in all_pay_runs.items():
        ratio = an.analysis_report(trace, AP_PARAMS)["ratio"]
        ratios[seed] = ratio
        assert ratio <= 2.05, f"seed {seed}: all-pay ratio {ratio:.6f} > 2.05"
        assert wall < 60.0, f"seed {seed}: run took {wall:.1f}s (budget 60s)"
    print(
        f"criterion 2: PASS - all-pay ratio <= 2.05 on seeds "
        f"{sorted(ratios)} (worst {max(ratios.values()):.4f})"
    )


def test_criterion_3_epsilon_trajectory_and_independence(first_price_reports):
    finals, gaps, pair_counts = {}, {}, {}
    for seed, report in first_price_reports.items():
        rows = report["checkpoints"]
        assert [r["horizon"] for r in rows] == CURVE
        eps = [r["epsilon"] for r in rows]
        pairs = sum(b <= a for a, b in zip(eps, eps[1:]))
        pair_counts[seed] = pairs
        assert pairs >= 6, (
            f"seed {seed}: epsilon decreased in only {pairs}/7 consecutive "
            f"checkpoint pairs; series {[f'{e:.5f}' for e in eps]}"
        )
        finals[seed] = eps[-1]
        assert eps[-1] < 0.02, f"seed {seed}: final epsilon {eps[-1]:.5f} >= 0.02"
        assert report["zeta"] == 0.01
        gap = report["independence_gap"]
        gaps[seed] = gap
        assert gap < 0.05, f"seed {seed}: independence gap {gap:.4f} >= 0.05"
    print(
        f"criterion 3: PASS - epsilon non-increasing on "
        f"{sorted(pair_counts.values())} of 7 pairs per seed, final "
        f"epsilon max {max(finals.values()):.5f} < 0.02, independence gap "
        f"max {max(gaps.values()):.4f} < 0.05"
    )


def test_criterion_4_certificates_via_cli(tmp_path):
    def descriptor(kind, step):
        return {
            "kind": kind, "n": 2, "k": 1, "grid_step": step, "H": 1.0,
            "tie_break": "lowest-index",
        }

    pops = [[0.5, 1.0], [0.5, 1.0]]
    fp_cfg = tmp_path / "fp.json"
    fp_cfg.write_text(json.dumps({
        "mechanism": descriptor("first-price", 0.1),
        "populations": pops,
        "deviation": "half",
        "smoothness": {"lambda": 0.5, "mu": 1.0},
    }))
    assert cli.main(["certify", "--config", str(fp_cfg)]) == 0

    ap_cfg = tmp_path / "ap.json"
    ap_cfg.write_text(json.dumps({
        "mechanism": descriptor("all-pay", 0.1),
        "populations": pops,
        "deviation": "uniform",
    }))  # defaults to (1/2, 1)
    assert cli.main(["certify", "--config", str(ap_cfg)]) == 0

    values = mech.value_profiles(tuple(tuple(p) for p in pops))
    certs, penalty = {}, {}
    for step in (0.1, 0.05):
        m = mech.Mechanism(
            kind=mech.KIND_FIRST_PRICE, n=2,
            grid=mech.uniform_grid(step),
        )
        rule = smooth.named_deviation("log", m)
        cert = smooth.check_deviation_smoothness(
            m, rule, smooth.SmoothnessParams(E_INV, 1.0), values
        ).level
        certs[step] = cert
        report = smooth.check_deviation_smoothness(
            m, rule, smooth.SmoothnessParams(cert - 1e-9, 1.0), values
        )
        assert report.holds, f"step {step}: log certificate not exhaustively verified"
        penalty[step] = max(0.0, E_INV - cert)
        assert cert == pytest.approx(E_INV - penalty[step], abs=1e-12)
    assert certs[0.1] == pytest.approx(0.533483707250338, rel=1e-10)
    assert penalty[0.05] <= penalty[0.1] / 2.0 + 1e-12, (
        f"halving the grid step only moved the penalty from "
        f"{penalty[0.1]:.6f} to {penalty[0.05]:.6f}"
    )
    print(
        "criterion 4: PASS - half certifies (0.5, 1), uniform certifies (0.5, 1), "
        f"log certifies ({certs[0.1]:.4f}, 1) at step 0.1 with "
        f"penalty {penalty[0.1]:.4f} -> {penalty[0.05]:.4f} "
        "at step 0.05"
    )


def test_criterion_5_base_certificates_survive_the_lift():
    assert len(TINY_CORPUS) >= 10
    for inst in TINY_CORPUS:
        params, rule = inst.certificate()
        base = smooth.check_deviation_smoothness(
            inst.mechanism, rule, params, inst.value_space()
        )
        assert base.holds, f"{inst.name}: base certificate failed"
        game = exact.build_agent_game(inst.mechanism, inst.populations)
        lifted = exact.lift_smoothness_check(game, rule, params)
        assert lifted.holds, (
            f"{inst.name}: base held but lift failed with slack "
            f"{lifted.worst_slack:.3e} at {lifted.witness_actions}"
        )
    print(
        f"criterion 5: PASS - base implies lift on all {len(TINY_CORPUS)} "
        "corpus instances, zero exceptions"
    )


def test_criterion_6_lp_floor_and_vertex_oracle():
    checked_vertices = 0
    for inst in TINY_CORPUS:
        params, _rule = inst.certificate()
        game = exact.build_agent_game(inst.mechanism, inst.populations)
        sol = exact.worst_cce_welfare(game)
        floor = params.lam / max(1.0, params.mu) * game.e_opt
        assert sol.objective >= floor - 1e-6, (
            f"{inst.name}: LP welfare {sol.objective:.6f} below floor {floor:.6f}"
        )
        if len(sol.slacks):
            assert sol.slacks.min() >= -1e-7, (
                f"{inst.name}: re-evaluated constraint slack {sol.slacks.min():.2e}"
            )
        if game.sigma <= 16:
            _labels, G = oracles.cce_rows(game)
            want = oracles.vertex_minimum(game.social_welfare(), list(-G))
            assert sol.objective == pytest.approx(want, abs=1e-6), (
                f"{inst.name}: LP {sol.objective!r} vs vertex enumeration {want!r}"
            )
            checked_vertices += 1
    print(
        f"criterion 6: PASS - LP floor holds on all {len(TINY_CORPUS)} instances; "
        f"vertex-enumeration agreement within 1e-6 on {checked_vertices} instances"
    )


def test_criterion_7_finite_time_inequality(first_price_reports):
    slacks = {}
    for seed, report in first_price_reports.items():
        assert report["delta"] == 0.05
        slack = report["finite_time_slack"]
        slacks[seed] = slack
        assert report["finite_time_holds"] and slack > 0.0, (
            f"seed {seed}: finite-time inequality slack {slack:.5f}"
        )
    got = an.t_star(0.1, 0.05, 2, 16, 4, 1)
    assert got == pytest.approx(4.08e8, rel=0.01)
    assert got == pytest.approx(
        oracles.t_star_arithmetic(0.1, 0.05, 2, 16, 4, 1), rel=1e-12
    )
    print(
        f"criterion 7: PASS - finite-time slack in "
        f"[{min(slacks.values()):.4f}, {max(slacks.values()):.4f}] across seeds; "
        f"t_star(0.1, 0.05, 2, 16, 4, 1) = {got:.6e} within 1% of 4.08e8"
    )


def test_criterion_8_identities_and_determinism():
    # (a) welfare identity on 1e4 random mechanism/value/bid triples
    rng = np.random.default_rng(0)
    kinds = [mech.KIND_FIRST_PRICE, mech.KIND_ALL_PAY, mech.KIND_MULTI_UNIT]
    worst_gap = 0.0
    for _ in range(10_000):
        kind = kinds[rng.integers(0, 3)]
        n = int(rng.integers(1, 5))
        units = int(rng.integers(1, n + 1)) if kind == mech.KIND_MULTI_UNIT else 1
        step = float(rng.choice([0.25, 0.5]))
        m = mech.Mechanism(
            kind=kind, n=n, grid=mech.uniform_grid(step),
            units=units,
        )
        values = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=n))
        grid = m.grid
        bid_idx = rng.integers(0, len(grid), size=n)
        bids = [float(grid[j]) for j in bid_idx]
        cfg = sim.SimConfig(
            mechanism=m, populations=tuple(sim.Population((v,)) for v in values),
            horizon=1, seed=0,
        )
        sw, opt = sim.welfare_columns(
            cfg, np.zeros((1, n), dtype=np.int16), bid_idx[None, :].astype(np.int16)
        )
        sw = float(sw[0])
        utilities, revenue, _ = oracles.auction_outcome(kind, bids, list(values), units)
        assert sw == sum(utilities) + revenue
        assert float(opt[0]) == oracles.opt_welfare(kind, list(values), units)
        oracle_sw = oracles.allocation_welfare(kind, bids, list(values), units)
        worst_gap = max(worst_gap, abs(sw - oracle_sw))
        assert abs(sw - oracle_sw) <= 1e-12

    # (b) regret is exactly invariant under inserted unselected rounds: a
    # round adds one to the selected agents' counts, and leaves every other
    # agent's row of the ledger as it was
    trace = sim.run_repeated_game(acceptance_config(mech.KIND_ALL_PAY, 1, horizon=400))
    ledgers = sim.rebuild_ledgers(trace, range(1, 401))
    picked = np.zeros((400, len(trace.config.agents())), dtype=bool)
    for i, off in enumerate(trace.config.agent_offsets()):
        picked[np.arange(400), off + trace.v_idx[:, i]] = True
    counts = np.array([led.selected_rounds for led in ledgers])
    assert np.array_equal(np.diff(counts, axis=0), picked[1:])
    for name in ("counterfactual", "realized"):
        rows = np.array([getattr(led, name) for led in ledgers])
        assert np.array_equal(rows[1:][~picked[1:]], rows[:-1][~picked[1:]]), name

    # (c) byte-exact reruns per seed; different seeds differ
    for kind in (mech.KIND_FIRST_PRICE, mech.KIND_ALL_PAY):
        texts = {}
        for seed in ACCEPT_SEEDS[:2]:
            a = sim.run_repeated_game(acceptance_config(kind, seed, horizon=5000))
            b = sim.run_repeated_game(acceptance_config(kind, seed, horizon=5000))
            ta, tb = written_csv(a), written_csv(b)
            assert ta == tb, f"{kind} seed {seed}: reruns differ"
            assert sim.strategies_json_text(a) == sim.strategies_json_text(b)
            texts[seed] = ta
        s0, s1 = ACCEPT_SEEDS[:2]
        assert texts[s0] != texts[s1], f"{kind}: seeds {s0} and {s1} coincide"
    print(
        "criterion 8: PASS - welfare identity on 10000 random triples "
        f"(worst oracle gap {worst_gap:.1e}), regret invariant under "
        "unselected rounds, traces byte-identical across reruns"
    )
