"""Exact small-instance machinery: agent game, lifted certificates, LP."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import CapExceededError, InputError, SolverError
from regretlab import exact
from regretlab import mechanisms as mech
from regretlab import smoothness as smooth
from regretlab.records import replace

from . import oracles
from .corpus import TINY_CORPUS

BY_NAME = {inst.name: inst for inst in TINY_CORPUS}

# instances small enough for the vertex-enumeration cross-check to be instant
SMALL = [
    "fp_1pop_2types_dom",
    "fp_2x1_symmetric",
    "ap_2x1",
    "mu_2x1_k1",
    "fp_1pop_1type",
]

SMALL_LP = {
    "fp_1pop_2types_dom": 0.75,
    "fp_2x1_symmetric": 1.0,
    "ap_2x1": 0.75,
    "mu_2x1_k1": 1.0,
    "fp_1pop_1type": 1.0,
}

# Two-player, two-type instances on the 0.1 grid with thousands of profiles.
# Each objective was solved independently with HiGHS
# (scipy.optimize.linprog, method="highs"); the benchmark's LP corpus pins
# the same values.
# name: (kind, H, types per population, worst-CCE welfare)
HIGHS_LP = {
    "fp-h06": (mech.KIND_FIRST_PRICE, 0.6, (0.3, 0.6), 0.472745292369),
    "ap-h06": (mech.KIND_ALL_PAY, 0.6, (0.3, 0.6), 21 / 40),
    "ap-h07": (mech.KIND_ALL_PAY, 0.7, (0.35, 0.7), 171 / 280),
    "fp-h07b": (mech.KIND_FIRST_PRICE, 0.7, (0.4, 0.7), 0.554959950709),
    "fp-h07a": (mech.KIND_FIRST_PRICE, 0.7, (0.35, 0.7), 0.550811117277),
}

# The headline game: types {0.5, 1.0} per population on the 0.1 grid over
# [0, 1], 11^4 = 14,641 joint profiles and 44 deviation rows. The first-price
# value agrees with a column-generation solve to 1e-15 and with HiGHS to the
# five digits it was recorded with; the all-pay worst CCE is efficient.
HEADLINE_LP = {
    "fp-headline": (mech.KIND_FIRST_PRICE, 1.0, (0.5, 1.0), 0.7714089848259037),
    "ap-headline": (mech.KIND_ALL_PAY, 1.0, (0.5, 1.0), 0.875),
}


def fp2(pops, grid=(0.0, 0.5), scale=1.0):
    m = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=2, grid=grid, scale=scale)
    return exact.build_agent_game(m, pops)


@pytest.mark.parametrize("inst", TINY_CORPUS, ids=lambda i: i.name)
def test_agent_game_matches_naive_enumeration(inst):
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    agents, sizes, U, R, e_opt = oracles.naive_agent_game(
        inst.mechanism, inst.populations
    )
    assert list(game.agents) == agents
    assert list(game.sizes) == sizes
    np.testing.assert_allclose(game.utilities, U, atol=1e-12)
    np.testing.assert_allclose(game.revenue, R, atol=1e-12)
    assert game.e_opt == pytest.approx(e_opt, abs=1e-12)


def test_agent_game_frozen_values_single_seat():
    game = exact.build_agent_game(
        BY_NAME["fp_1pop_2types_dom"].mechanism,
        BY_NAME["fp_1pop_2types_dom"].populations,
    )
    # one seat, types 1.0 and 0.5 each selected half the time, bids {0, 0.5}
    assert game.sigma == 4 and game.n_agents == 2
    np.testing.assert_allclose(game.utilities[0], [0.5, 0.5, 0.25, 0.25], atol=1e-15)
    np.testing.assert_allclose(game.utilities[1], [0.25, 0.0, 0.25, 0.0], atol=1e-15)
    np.testing.assert_allclose(game.revenue, [0.0, 0.25, 0.25, 0.5], atol=1e-15)
    assert game.e_opt == pytest.approx(0.75, abs=1e-15)


def test_agent_game_frozen_values_two_seats():
    game = exact.build_agent_game(
        BY_NAME["fp_2x2_coarse"].mechanism, BY_NAME["fp_2x2_coarse"].populations
    )
    assert game.sigma == 16
    # profile 0: everyone commits to bid 0; seat 0 wins the tie
    assert game.utilities[0, 0] == pytest.approx(0.25)  # value 0.5, selected w.p. 1/2
    assert game.utilities[2, 0] == 0.0  # seat 1 never wins the 0-0 tie
    assert game.e_opt == pytest.approx(0.875, abs=1e-15)
    np.testing.assert_allclose(
        game.social_welfare(), game.utilities.sum(axis=0) + game.revenue, atol=0
    )


def test_deviation_oracle_edits_one_digit():
    game = exact.build_agent_game(
        BY_NAME["fp_2x2_coarse"].mechanism, BY_NAME["fp_2x2_coarse"].populations
    )
    for g in range(game.n_agents):
        for a in range(game.sizes[g]):
            dev = oracles.deviation(game, g, a)
            assert dev.shape == (game.sigma,)
            for s in [0, 5, 11, 15]:
                digits = list(np.unravel_index(s, game.sizes))
                digits[g] = a
                moved = int(np.ravel_multi_index(digits, game.sizes))
                assert dev[s] == game.utilities[g][moved]


@pytest.mark.parametrize("inst", TINY_CORPUS, ids=lambda i: i.name)
def test_price_matches_the_dense_rows(inst):
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    rng = np.random.default_rng(len(inst.name))
    weights = rng.random(sum(game.sizes))
    weights[rng.random(weights.size) < 0.3] = 0.0
    pairs = [(g, a) for g in range(game.n_agents) for a in range(game.sizes[g])]
    mix = sum(w * oracles.deviation(game, g, a) for w, (g, a) in zip(weights, pairs))
    rows = sum(w * (game.utilities[g] - oracles.deviation(game, g, a))
               for w, (g, a) in zip(weights, pairs))
    np.testing.assert_allclose(game.deviation_mix(weights), mix, rtol=0, atol=1e-13)
    np.testing.assert_allclose(game.price(weights), rows, rtol=0, atol=1e-13)


def test_agent_game_caps_and_validation(monkeypatch):
    inst = BY_NAME["fp_2x2_fine"]
    monkeypatch.setattr(exact, "TENSOR_CAP", 10)
    with pytest.raises(CapExceededError) as exc:
        exact.build_agent_game(inst.mechanism, inst.populations)
    assert "cap is 10" in str(exc.value)
    assert "action counts" in str(exc.value)
    with pytest.raises(InputError, match="player seats"):
        exact.build_agent_game(inst.mechanism, [(0.5, 1.0)])  # one pop for two seats
    with pytest.raises(InputError, match=r"outside \[0"):
        exact.build_agent_game(inst.mechanism, [(0.5, 1.0), (0.5, 2.0)])


def test_agent_game_is_linear_in_the_scale():
    pops1 = ((0.5, 1.0), (0.5, 1.0))
    g1 = fp2(pops1)
    g2 = fp2(((1.0, 2.0), (1.0, 2.0)), grid=(0.0, 1.0), scale=2.0)
    # doubling all values and bids doubles every payoff exactly (powers of two)
    assert np.array_equal(g2.utilities, 2.0 * g1.utilities)
    assert np.array_equal(g2.revenue, 2.0 * g1.revenue)
    assert g2.e_opt == 2.0 * g1.e_opt


# --- lifted certificates ---------------------------------------------------------


@pytest.mark.parametrize("inst", TINY_CORPUS, ids=lambda i: i.name)
def test_certified_base_rules_survive_the_lift(inst):
    params, rule = inst.certificate()
    base = smooth.check_deviation_smoothness(
        inst.mechanism, rule, params, inst.value_space()
    )
    assert base.holds, f"{inst.name}: base certificate unexpectedly failed"
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    lifted = exact.lift_smoothness_check(game, rule, params)
    assert lifted.holds, (
        f"{inst.name}: lift failed with slack {lifted.worst_slack} "
        f"at {lifted.witness_actions}"
    )


@pytest.mark.parametrize("inst", TINY_CORPUS, ids=lambda i: i.name)
def test_lifted_level_is_at_least_the_base_level(inst):
    # the base inequality at every value profile averages into the lifted one
    params, corpus_rule = inst.certificate()
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    rules = [corpus_rule] + [
        smooth.named_deviation(name, inst.mechanism)
        for name in ("half", "uniform", "log", "zero")
    ]
    for rule in rules:
        base = smooth.check_deviation_smoothness(
            inst.mechanism, rule, params, inst.value_space()
        )
        lifted = exact.lift_smoothness_check(game, rule, params)
        assert lifted.level >= base.level - 1e-9, (inst.name, rule.name)


def test_corrupted_rule_fails_the_lift_with_witness():
    inst = BY_NAME["fp_2x2_coarse"]
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    size = len(inst.mechanism.grid)
    overbid = smooth.DeviationRule(name="max-bid", fn=lambda player, values: np.eye(size)[-1])
    report = exact.lift_smoothness_check(
        game, overbid, smooth.SmoothnessParams(1.0 - 1.0 / np.e, 1.0)
    )
    assert not report.holds
    assert report.worst_slack < -1e-9
    assert len(report.witness_actions) == game.n_agents
    for bid in report.witness_actions:
        assert bid in inst.mechanism.grid


def test_single_type_lift_reduces_to_the_base_check():
    m = mech.Mechanism(
        kind=mech.KIND_FIRST_PRICE,
        n=2,
        grid=(0.0, 0.5),
    )
    pops = ((1.0,), (0.5,))
    rule = smooth.named_deviation("half", m)
    params = smooth.SmoothnessParams(0.5, 1.0)
    base = smooth.check_deviation_smoothness(m, rule, params, [(1.0, 0.5)])
    game = exact.build_agent_game(m, pops)
    lifted = exact.lift_smoothness_check(game, rule, params)
    # with one type per population the resampling mixture is degenerate, so
    # the lifted slack landscape is the base one
    assert lifted.worst_slack == pytest.approx(base.worst_slack, abs=1e-12)
    assert lifted.holds == base.holds


# --- the welfare LP ---------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_lp_agrees_with_vertex_enumeration(name):
    inst = BY_NAME[name]
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    sol = exact.worst_cce_welfare(game)
    _labels, G = oracles.cce_rows(game)
    want = oracles.vertex_minimum(game.social_welfare(), list(-G))
    assert sol.objective == pytest.approx(want, abs=1e-9)
    assert sol.objective == pytest.approx(SMALL_LP[name], abs=1e-9)


@pytest.mark.parametrize("name", SMALL)
def test_lp_solution_certificates(name):
    inst = BY_NAME[name]
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    sol = exact.worst_cce_welfare(game)
    x = sol.distribution
    assert x.sum() == pytest.approx(1.0, abs=1e-7)
    assert x.min() >= -1e-7
    if len(sol.slacks):
        assert sol.slacks.min() >= -1e-7
    # re-evaluate everything from the tensor
    assert sol.objective == pytest.approx(float(game.social_welfare() @ x), abs=1e-9)
    for (g, a), slack in zip(sol.constraints, sol.slacks):
        row = game.utilities[g] - oracles.deviation(game, g, a)
        assert slack == pytest.approx(float(row @ x), abs=1e-12)


@pytest.mark.parametrize("name", SMALL)
def test_pure_nash_points_never_beat_the_lp_minimum(name):
    inst = BY_NAME[name]
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    sol = exact.worst_cce_welfare(game)
    welfares = oracles.pure_nash_welfares(
        game.utilities, list(game.sizes), game.revenue
    )
    assert welfares, f"{name}: no pure equilibrium found by exhaustive search"
    for w in welfares:
        assert w >= sol.objective - 1e-7


def test_lp_on_a_dominance_solvable_game():
    game = fp2(((1.0,), (0.0,)))
    sol = exact.worst_cce_welfare(game)
    # seat 1 overbidding is dominated and is the only way to misallocate, so
    # every coarse equilibrium is fully efficient
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.distribution[1] == pytest.approx(0.0, abs=1e-7)


def test_lp_single_profile_game():
    m = mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=1, grid=(0.0,), scale=1.0)
    game = exact.build_agent_game(m, ((1.0,),))
    sol = exact.worst_cce_welfare(game)
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sol.distribution, [1.0], atol=1e-12)
    assert len(sol.slacks) == 0


def test_lp_solves_above_the_old_column_cap():
    # 6 agents with 6 bids each: 46,656 profiles, above the 16,384 columns
    # the dense LP used to accept. The value was solved independently with
    # HiGHS (scipy.optimize.linprog, method="highs").
    m = mech.Mechanism.from_descriptor(
        {"kind": mech.KIND_FIRST_PRICE, "n": 2, "k": 1, "grid_step": 0.2,
         "H": 1.0, "tie_break": "lowest-index"}
    )
    types = (0.5, 0.75, 1.0)
    sol = exact.worst_cce_welfare(exact.build_agent_game(m, (types, types)))
    assert sol.distribution.size == 6**6
    assert abs(sol.objective - 0.7852607709750565) <= 1e-9
    assert abs(sol.dual_gap) <= 1e-9


def test_lp_memory_does_not_grow_with_rows_times_profiles():
    # the dense constraint matrix alone is 44 x 14,641 floats (5.2 MB), and
    # the solver used to hold it three times over (25.2 MB traced)
    kind, H, types, _want = HEADLINE_LP["fp-headline"]
    m = mech.Mechanism.from_descriptor(
        {"kind": kind, "n": 2, "k": 1, "grid_step": 0.1, "H": H,
         "tie_break": "lowest-index"}
    )
    game = exact.build_agent_game(m, (types, types))
    tracemalloc.start()
    try:
        exact.worst_cce_welfare(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_bound_comparison_fields():
    inst = BY_NAME["fp_2x2_coarse"]
    params, _rule = inst.certificate()
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    sol = exact.worst_cce_welfare(game)
    comp = exact.bound_comparison(game, sol, params)
    assert comp["holds"]
    assert comp["floor"] == pytest.approx(
        params.lam / max(1.0, params.mu) * game.e_opt, abs=1e-15
    )
    assert comp["e_opt"] == game.e_opt
    assert comp["lp_welfare"] == sol.objective
    assert comp["sigma"] == 16
    assert comp["n_constraints"] == len(sol.constraints)
    assert comp["lam"] == params.lam and comp["mu"] == params.mu
    assert comp["lp_dual_bound"] == sol.dual_bound
    assert comp["lp_dual_gap"] == sol.dual_gap
    # the verdict rests on the proven lower bound, not on the primal value
    unproven = replace(sol, dual_bound=comp["floor"] - 1e-3)
    assert not exact.bound_comparison(game, unproven, params)["holds"]


def test_json_exports_parse_and_round_figures(tmp_path):
    # ap_2x1's grid (0, 0.5) stops below H = 1, so no descriptor writes it
    inst = BY_NAME["ap_2x1"]
    path = tmp_path / "agent_game.json"
    with pytest.raises(InputError, match="no grid step rebuilds"):
        exact.write_agent_game_json(exact.build_agent_game(inst.mechanism, inst.populations),
                                    path)
    assert not path.exists()
    inst = BY_NAME["ap_2x2_fine"]
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    sol = exact.worst_cce_welfare(game)
    exact.write_agent_game_json(game, path)
    gdoc = json.loads(path.read_text())
    assert gdoc["mechanism"]["kind"] == "all-pay"
    assert mech.Mechanism.from_descriptor(gdoc["mechanism"]) == inst.mechanism
    assert gdoc["sizes"] == [3, 3, 3, 3]
    assert len(gdoc["utilities"]) == 4 and len(gdoc["utilities"][0]) == 81
    assert len(gdoc["revenue"]) == 81
    assert gdoc["e_opt"] == pytest.approx(game.e_opt)
    spath = tmp_path / "lp_solution.json"
    exact.write_solution_json(sol, spath)
    sdoc = json.loads(spath.read_text())
    assert sum(sdoc["distribution"]) == pytest.approx(1.0, abs=1e-9)
    assert sdoc["objective"] == pytest.approx(sol.objective)
    assert len(sdoc["slacks"]) == len(sdoc["constraints"])


def headline_game(kind, step=0.1, n=2, k=1, types=(0.5, 1.0), H=1.0):
    m = mech.Mechanism.from_descriptor(
        {"kind": kind, "n": n, "k": k, "grid_step": step, "H": H,
         "tie_break": "lowest-index"}
    )
    return exact.build_agent_game(m, (types,) * n)


# The tiny-corpus games whose grids stop below their scale: no grid step
# rebuilds them, so no descriptor, and no agent_game.json, writes them.
UNWRITTEN = {"fp_1pop_2types_dom", "fp_2x1_symmetric", "fp_2x2_coarse", "fp_asym",
             "ap_1pop_2types", "ap_2x1", "ap_2x2_coarse", "mu_2x1_k1", "mu_2x2_k2"}

# Twins of the one-population, fp_asym and multi-unit games on grids that reach
# their scale, so that agent_game.json is written for those shapes too:
# name -> (corpus game, grid, scale).
TWINS = {
    "fp_1pop_2types_dom-to-scale": ("fp_1pop_2types_dom", (0.0, 0.5, 1.0), 1.0),
    "ap_1pop_2types-to-scale": ("ap_1pop_2types", (0.0, 0.5, 1.0), 1.0),
    "fp_asym-to-scale": ("fp_asym", (0.0, 0.25, 0.5, 0.75, 1.0), 1.0),
    "mu_2x1_k1-to-scale": ("mu_2x1_k1", (0.0, 0.5, 1.0), 1.0),
    "mu_2x2_k2-to-scale": ("mu_2x2_k2", (0.0, 0.25, 0.5), 0.5),
}


def corpus_game(name):
    if name in HEADLINE_LP:
        kind, H, types, _want = HEADLINE_LP[name]
        return headline_game(kind, types=types, H=H)
    if name in TWINS:
        base, grid, scale = TWINS[name]
        inst = BY_NAME[base]
        m = replace(inst.mechanism, grid=grid, scale=scale)
        return exact.build_agent_game(m, inst.populations)
    return exact.build_agent_game(BY_NAME[name].mechanism, BY_NAME[name].populations)


STREAMED = [inst.name for inst in TINY_CORPUS] + list(TWINS) + list(HEADLINE_LP)


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_agent_game_json_matches_one_dump(name, tmp_path):
    game = corpus_game(name)
    path = tmp_path / "agent_game.json"
    if name in UNWRITTEN:  # a grid with no descriptor form: neither writes
        with pytest.raises(InputError):
            oracles.agent_game_json_text(game)
        with pytest.raises(InputError):
            exact.write_agent_game_json(game, path)
        assert not path.exists()
        return
    exact.write_agent_game_json(game, path)
    assert path.read_text() == oracles.agent_game_json_text(game)


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_lp_solution_json_matches_one_dump(name, tmp_path):
    sol = exact.worst_cce_welfare(corpus_game(name))
    path = tmp_path / "lp_solution.json"
    exact.write_solution_json(sol, path)
    assert path.read_text() == oracles.solution_json_text(sol)


# Pinned SHA-256 of agent_game.json. Every float in it is a sum of table
# entries, added in type-profile order, divided by the type-profile count, so
# neither the layout code nor the numpy build may move a bit of it.
AGENT_GAME_SHA256 = {
    "fp-headline": "42c96b551378e629b1ee55755962091a46a88e47909254cdddac9cd4be46adaf",
    "ap-headline": "c71cb0b12cd9dc0e5114ed972bf460eb9e23daacb42459a82c780a588dd4a83d",
    "mu-n3-k2-step0.25": "efaa43e7c9ccf879c9bb63a231deca617a3c30a9559ded4b40a45a1918c59607",
}


@pytest.mark.parametrize("name", AGENT_GAME_SHA256)
def test_agent_game_json_keeps_its_pinned_bytes(name, tmp_path):
    if name in HEADLINE_LP:
        game = corpus_game(name)
    else:
        game = headline_game(mech.KIND_MULTI_UNIT, step=0.25, n=3, k=2)
    path = tmp_path / "agent_game.json"
    exact.write_agent_game_json(game, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == AGENT_GAME_SHA256[name]


def test_agent_game_build_holds_little_beyond_its_result():
    # the step-0.05 first-price game: 4 agents with 21 bids, 194,481 profiles.
    # The tensor is all the build needs to hold; a sigma-long int64 index
    # array per agent would put its peak at 2.4x the result.
    tracemalloc.start()
    try:
        game = headline_game(mech.KIND_FIRST_PRICE, step=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert game.sigma == 21**4
    assert peak <= 1.25 * (game.utilities.nbytes + game.revenue.nbytes)


@pytest.mark.parametrize("inst", TINY_CORPUS, ids=lambda i: i.name)
def test_dual_bound_certifies_the_minimum(inst):
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    sol = exact.worst_cce_welfare(game)
    assert abs(sol.dual_gap) <= 1e-9
    assert sol.dual_gap == sol.objective - sol.dual_bound
    assert sol.duals.shape == (len(sol.constraints),) and sol.duals.min() >= 0.0
    # re-evaluate the bound from the tensor
    labels, G = oracles.cce_rows(game)
    assert tuple(labels) == sol.constraints
    z = float((game.social_welfare() - sol.duals @ G).min())
    assert z == pytest.approx(sol.dual_bound, abs=1e-12)


def test_duals_that_prove_nothing_are_refused(monkeypatch):
    inst = BY_NAME["fp_2x2_coarse"]
    game = exact.build_agent_game(inst.mechanism, inst.populations)
    solve = exact._two_phase_simplex

    def zero_duals(c, columns, b):
        x, objective, pivots, y = solve(c, columns, b)
        return x, objective, pivots, np.zeros_like(y)

    monkeypatch.setattr(exact, "_two_phase_simplex", zero_duals)
    # with y = 0 the bound is the least welfare of any profile, 0.625 < 0.75
    with pytest.raises(SolverError, match="dual bound"):
        exact.worst_cce_welfare(game)


def grid_lp(kind, H, types):
    m = mech.Mechanism.from_descriptor(
        {"kind": kind, "n": 2, "k": 1, "grid_step": 0.1, "H": H,
         "tie_break": "lowest-index"}
    )
    return exact.worst_cce_welfare(exact.build_agent_game(m, (types, types)))


@pytest.mark.parametrize("name", list(HIGHS_LP))
def test_lp_matches_highs_on_the_grid_instances(name):
    kind, H, types, want = HIGHS_LP[name]
    sol = grid_lp(kind, H, types)
    assert abs(sol.objective - want) <= 1e-9
    assert abs(sol.dual_gap) <= 1e-9
    assert abs(sol.dual_bound - want) <= 1e-9
    # Dantzig pricing takes 61-80 pivots here; Bland's smallest-index rule
    # took 1,114-5,301, so a slide back to it fails this bound
    assert sol.iterations <= 150


@pytest.mark.parametrize("name", list(HEADLINE_LP))
def test_lp_solves_the_headline_game(name):
    kind, H, types, want = HEADLINE_LP[name]
    sol = grid_lp(kind, H, types)
    assert sol.distribution.size == 11**4
    assert abs(sol.objective - want) <= 1e-9
    assert abs(sol.dual_gap) <= 1e-9


def test_singular_basis_is_a_solver_error():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # columns 0 and 1 agree
    with pytest.raises(SolverError, match="singular basis"):
        exact._Basis(oracles.DenseColumns(A), np.array([1.0, 1.0]), np.array([0, 1]))


@st.composite
def degenerate_lps(draw):
    """min c.x over {x >= 0, sum x = 1, r.x <= 0 for each row r}, integer data.

    Every inequality has right-hand side 0, so vertices are highly
    degenerate; a repeated row makes the equality system redundant.
    """
    k = draw(st.integers(1, 5))
    ints = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(ints, min_size=k, max_size=k), max_size=4))
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
    cost = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    flip = draw(st.booleans())  # state the normalization as -sum x = -1
    return np.array(rows, dtype=float).reshape(len(rows), k), np.array(cost, float), flip


@settings(max_examples=150, deadline=None)
@given(lp=degenerate_lps())
def test_simplex_matches_vertex_enumeration_on_degenerate_lps(lp):
    R, cost, flip = lp
    r, k = R.shape
    # standard form over [x, s]: R x + s = 0, sum x = 1
    A = np.zeros((r + 1, k + r))
    A[:r, :k] = R
    A[:r, k:] = np.eye(r)
    A[r, :k] = 1.0
    b = np.zeros(r + 1)
    b[r] = 1.0
    if flip:
        A[r] *= -1.0
        b[r] = -1.0
    c = np.concatenate([cost, np.zeros(r)])
    want = oracles.vertex_minimum(cost, list(R))
    if want == np.inf:
        with pytest.raises(SolverError, match="infeasible"):
            exact._two_phase_simplex(c, oracles.DenseColumns(A), b)
        return
    x, objective, _pivots, y = exact._two_phase_simplex(c, oracles.DenseColumns(A), b)
    assert objective == pytest.approx(want, abs=1e-9)
    assert np.abs(A @ x - b).max() <= 1e-9 and x.min() >= -1e-9
    # the final basis's duals are feasible and meet the primal value
    assert (A.T @ y <= c + 1e-9).all()
    assert float(b @ y) == pytest.approx(objective, abs=1e-9)
