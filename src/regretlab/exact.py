"""Small-instance ground truth by exhaustive enumeration and LP.

The population game induced by a mechanism and finite type populations is a
complete-information game whose players are all (population, type) pairs.
This module builds that game's dense payoff tensor exactly, verifies lifted
smoothness certificates on it by enumerating every joint profile, and bounds
worst-case coarse-equilibrium welfare with a linear program.

Everything is deliberately dense and exact within double precision. Size caps
reject instances that would not fit; nothing here samples.

LP solver: a two-phase revised primal simplex with Bland's smallest-index
rule. Bland's rule is slow but cannot cycle and is fully deterministic, which
is what a ground-truth oracle needs at these sizes (a few thousand variables,
a few dozen rows). The solver keeps one explicit m x m basis inverse, updated
by a rank-1 step per pivot and recomputed from the basis columns every
``REFACTOR_EVERY`` pivots so that rounding cannot pile up; pricing computes
reduced costs one block of ``PRICE_BLOCK`` columns at a time and stops at the
first block holding an entering column. A singular basis is a SolverError.

The minimum is certified by weak duality: with y >= 0 the final basis's
deviation-row duals (clipped at 0), z = min_s (sw(s) - y.G(s)) is a lower
bound on every coarse equilibrium's welfare, checked from the tensor. The
solution is refused unless z lies within the feasibility tolerance of the
primal value, and floor verdicts compare z. Feasibility, re-evaluation and
duality-gap tolerances are 1e-7 (relative to the objective when above 1).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import mechanisms as mech
from .errors import CapExceededError, ContractViolationError, InputError, SolverError
from .simulator import Population
from .smoothness import SLACK_TOL, DeviationRule, SmoothnessParams, SmoothnessReport

TENSOR_CAP = 1_000_000
LP_CAP = 4096
FEAS_TOL = 1e-7


@dataclass(frozen=True)
class AgentGame:
    """Dense normal form over all (population, type) agents.

    ``utilities[g, s]`` is agent g's expected utility at joint profile s,
    the expectation running over the uniform type draw (an agent earns 0 in
    rounds where its population selected another type). Profiles are indexed
    in mixed radix over agents (population ascending, types in declaration
    order, last agent varying fastest).
    """

    mechanism: mech.Mechanism
    populations: tuple[Population, ...]
    agents: tuple[tuple[int, int, float], ...]
    sizes: tuple[int, ...]
    utilities: np.ndarray
    revenue: np.ndarray
    e_opt: float

    @property
    def sigma(self) -> int:
        return self.revenue.shape[0]

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def deviation(self, g: int, action: int) -> np.ndarray:
        """Agent g's utility at every joint profile s after g switches to
        ``action``: entry s holds U_g(action, s_-g)."""
        if not 0 <= action < self.sizes[g]:
            raise InputError(f"action {action} out of range for agent {g}")
        u = self.utilities[g].reshape(self.sizes)
        return np.broadcast_to(u.take([action], axis=g), self.sizes).ravel()

    def social_welfare(self) -> np.ndarray:
        return self.utilities.sum(axis=0) + self.revenue


def build_agent_game(mechanism: mech.Mechanism, populations) -> AgentGame:
    """Exact expected payoffs of every agent at every joint profile.

    Expectations run over the uniform product type draw by full enumeration;
    E[Opt] likewise. Instances above ``TENSOR_CAP`` joint profiles are
    rejected with the measured size.
    """
    pops = tuple(
        p if isinstance(p, Population) else Population(tuple(p)) for p in populations
    )
    if len(pops) != mechanism.n:
        raise InputError(
            f"{len(pops)} populations for {mechanism.n} player seats"
        )
    agents = []
    sizes = []
    for i, p in enumerate(pops):
        for ti, v in enumerate(p.values):
            if not 0.0 <= v <= mechanism.scale + mech.GRID_TOL:
                raise InputError(
                    f"population {i}: type value {v} outside [0, {mechanism.scale}]"
                )
            agents.append((i, ti, v))
            sizes.append(mechanism.actions.size(i))
    sigma = 1
    for k in sizes:
        sigma *= k
    if sigma > TENSOR_CAP:
        raise CapExceededError(
            f"agent game needs {sigma} joint profiles, cap is {TENSOR_CAP} "
            f"(per-agent action counts: {sizes})"
        )
    n = mechanism.n
    n_agents = len(agents)
    agent_index = {(i, ti): g for g, (i, ti, _v) in enumerate(agents)}

    # Per-player utilities and revenue flattened over the mechanism's joint
    # action profiles (player ascending, last fastest).
    joint = mech.joint_profile_count(mechanism)
    a_sizes = mechanism.actions.sizes()
    pdigs = mech.radix_decode(np.arange(joint), a_sizes)
    rev_flat = mech.revenue_table(mechanism)
    util_flat: dict[tuple[int, float], np.ndarray] = {}
    for i, p in enumerate(pops):
        oflat = mech.radix_encode(pdigs[:i] + pdigs[i + 1:], a_sizes[:i] + a_sizes[i + 1:])
        for v in p.values:
            table = mech.utility_table(mechanism, i, v)
            util_flat[(i, v)] = table[pdigs[i], oflat]

    utilities = np.zeros((n_agents, sigma))
    revenue = np.zeros(sigma)
    opt_total = 0.0
    v_count = 0
    sdigs = mech.radix_decode(np.arange(sigma), sizes)
    for tv in itertools.product(*[range(len(p)) for p in pops]):
        v_count += 1
        vals = tuple(pops[i].values[tv[i]] for i in range(n))
        opt_total += mech.optimal_welfare(vals, mechanism)
        sel = [agent_index[(i, tv[i])] for i in range(n)]
        aflat = mech.radix_encode([sdigs[g] for g in sel], a_sizes)
        revenue += rev_flat[aflat]
        for i in range(n):
            utilities[sel[i]] += util_flat[(i, vals[i])][aflat]
    utilities /= v_count
    revenue /= v_count
    return AgentGame(
        mechanism=mechanism,
        populations=pops,
        agents=tuple(agents),
        sizes=tuple(sizes),
        utilities=utilities,
        revenue=revenue,
        e_opt=opt_total / v_count,
    )


def lift_smoothness_check(
    agent_game: AgentGame, base_deviation: DeviationRule, params: SmoothnessParams
) -> SmoothnessReport:
    """Verify the lifted deviation inequality at every joint profile.

    Each agent's lifted deviation resamples a fresh type profile and plays the
    base rule at its own true value against the resampled opponents; here
    that is realized as an exact mixture over the base rule's distributions.
    Checks sum_g E[U_g(dev_g, s_-g)] >= lam * E[Opt] - mu * R(s) for every s.
    Meaningful when the base rule certifies (lam, mu) on the same grids; on a
    corrupted rule it fails and reports a witness profile. The report's
    ``level`` is min_s (sum_g E[U_g(dev_g, s_-g)] + mu * R(s)) / E[Opt], or
    None when E[Opt] is 0.
    """
    g_ = agent_game
    m = g_.mechanism
    pops = g_.populations
    value_lists = [p.values for p in pops]
    lhs = np.zeros(g_.sigma)
    for g, (i, _ti, val) in enumerate(g_.agents):
        dev = np.zeros(g_.sizes[g])
        count = 0
        for w in itertools.product(*value_lists):
            wv = list(w)
            wv[i] = val
            dev += base_deviation.distribution(m, i, tuple(wv))
            count += 1
        dev /= count
        for a in range(g_.sizes[g]):
            w = dev[a]
            if w > 0.0:
                lhs += w * g_.deviation(g, a)
    slack = lhs - params.lam * g_.e_opt + params.mu * g_.revenue
    worst = int(np.argmin(slack))
    worst_slack = float(slack[worst])
    digits = np.unravel_index(worst, g_.sizes)
    bids = tuple(
        m.actions.grids[i][d] for (i, _ti, _v), d in zip(g_.agents, digits)
    )
    level = None
    if g_.e_opt > 0.0:
        level = float((lhs + params.mu * g_.revenue).min()) / g_.e_opt
    return SmoothnessReport(
        params=params,
        holds=bool(worst_slack >= -SLACK_TOL),
        worst_slack=worst_slack,
        witness_values=(),
        witness_actions=bids,
        level=level,
    )


# --- worst-case coarse-equilibrium welfare ------------------------------------


@dataclass(frozen=True)
class CceLpSolution:
    """LP minimizer with its independently re-evaluated certificates.

    ``duals`` are the deviation rows' duals from the final basis, clipped at
    0; ``dual_bound`` is the weak-duality lower bound they prove on the
    minimum, and ``dual_gap`` is ``objective - dual_bound``.
    """

    distribution: np.ndarray
    objective: float
    slacks: np.ndarray
    constraints: tuple[tuple[int, int], ...]
    iterations: int
    duals: np.ndarray
    dual_bound: float
    dual_gap: float


PRICE_BLOCK = 512  # columns priced per matrix product
REFACTOR_EVERY = 32  # pivots between fresh basis inverses


class _Basis:
    """An explicit inverse of the basis drawn from ``cols``, whose rows are the
    standard-form columns, and the basic solution it gives for ``b``."""

    def __init__(self, cols: np.ndarray, b: np.ndarray, basis: np.ndarray):
        self.cols = cols
        self.b = b
        self.basis = basis
        self.refactor()

    def refactor(self) -> None:
        try:
            self.inv = np.linalg.inv(self.cols[self.basis].T)
        except np.linalg.LinAlgError as e:
            raise SolverError(f"singular basis {self.basis.tolist()}: {e}") from None
        self.x = self.inv @ self.b
        self.updates = 0

    def pivot(self, row: int, col: int, alpha: np.ndarray) -> None:
        """Exchange basis[row] for col, whose column in the basis is alpha."""
        self.basis[row] = col
        if self.updates == REFACTOR_EVERY:
            self.refactor()
            return
        f = alpha.copy()
        f[row] = 0.0
        self.inv[row] /= alpha[row]
        self.inv -= f[:, None] * self.inv[row]
        self.x[row] /= alpha[row]
        self.x -= f * self.x[row]
        self.updates += 1


def _bland_loop(B: _Basis, cost: np.ndarray, n_cols: int, maxiter: int,
                phase: int) -> int:
    """Primal simplex pivots with Bland's smallest-index rule over the first
    ``n_cols`` columns. Returns the pivot count; raises SolverError on
    non-convergence or unboundedness."""
    cols, price = B.cols[:n_cols], cost[:n_cols]
    it = 0
    while True:
        y = cost[B.basis] @ B.inv
        col = -1
        for lo in range(0, n_cols, PRICE_BLOCK):
            hi = lo + PRICE_BLOCK
            # reduced cost c_j - y.A_j below -1e-9
            neg = cols[lo:hi] @ y - price[lo:hi] > 1e-9
            k = int(neg.argmax())
            if neg[k]:
                col = lo + k
                break
        if col < 0:
            return it
        alpha = B.inv @ B.cols[col]
        rows = (alpha > 1e-9).nonzero()[0]
        if len(rows) == 0:
            raise SolverError(
                f"LP unbounded in phase {phase} at pivot {it}, entering column "
                f"{col}, basis {B.basis.tolist()}"
            )
        q = B.x[rows] / alpha[rows]
        ties = rows[q <= q.min() + 1e-12]
        row = int(ties[B.basis[ties].argmin()])
        B.pivot(row, col, alpha)
        it += 1
        if it > maxiter:
            raise SolverError(
                f"simplex exceeded {maxiter} pivots in phase {phase}; last basis "
                f"{B.basis.tolist()}, objective value {float(cost[B.basis] @ B.x)!r}"
            )


def _two_phase_simplex(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """min c.x subject to A x = b, x >= 0. Returns (x, objective, pivots, y)
    with y = c_B B^-1 the duals of the final basis."""
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    maxiter = 1000 + 200 * (m + n)
    # one row per column: the sign-normalized A's columns, then artificials
    cols = np.vstack([(A * sign[:, None]).T, np.eye(m)])
    B = _Basis(cols, b * sign, np.arange(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    pivots = _bland_loop(B, cost, n + m, maxiter, phase=1)
    mass = float(cost[B.basis] @ B.x)
    if mass > FEAS_TOL:
        raise SolverError(
            f"phase 1 ended infeasible (artificial mass {mass!r}) "
            f"after {pivots} pivots, basis {B.basis.tolist()}"
        )
    # Drive leftover artificials out of the basis; rows that admit no pivot
    # are redundant and harmless (the artificial stays basic at level 0 and
    # phase 2 never lets it grow since its column is excluded).
    for r in range(m):
        if B.basis[r] >= n:
            row = cols[:n] @ B.inv[r]
            hit = np.abs(row) > 1e-9
            j = int(hit.argmax())
            if hit[j]:
                B.pivot(r, j, B.inv @ cols[j])
                pivots += 1

    cost = np.concatenate([c, np.zeros(m)])
    pivots += _bland_loop(B, cost, n, maxiter, phase=2)
    B.refactor()
    x = np.zeros(n + m)
    x[B.basis] = B.x
    y = (cost[B.basis] @ B.inv) * sign
    return x[:n], float(c @ x[:n]), pivots, y


def worst_cce_welfare(agent_game: AgentGame) -> CceLpSolution:
    """Minimize expected welfare over coarse-equilibrium distributions.

    Variables are the joint-profile probabilities; for every agent g and
    fixed action a' the constraint E_x[U_g(s)] >= E_x[U_g(a', s_-g)] must
    hold. The LP is always feasible (a Nash point is). The returned slacks
    are re-evaluated from the tensor, not read off the solver.
    """
    g_ = agent_game
    if g_.sigma > LP_CAP:
        raise CapExceededError(
            f"LP needs {g_.sigma} variables, cap is {LP_CAP} "
            f"(per-agent action counts: {list(g_.sizes)})"
        )
    rows = []
    labels = []
    for g in range(g_.n_agents):
        ug = g_.utilities[g]
        for a in range(g_.sizes[g]):
            row = ug - g_.deviation(g, a)
            if np.abs(row).max() > 0.0:
                rows.append(row)
                labels.append((g, a))
    n_c = len(rows)
    G = np.array(rows).reshape(n_c, g_.sigma)
    sw = g_.social_welfare()
    # standard form: [x, t] with G x - t = 0 and sum x = 1
    A = np.zeros((n_c + 1, g_.sigma + n_c))
    A[:n_c, : g_.sigma] = G
    A[:n_c, g_.sigma :] = -np.eye(n_c)
    A[n_c, : g_.sigma] = 1.0
    b = np.zeros(n_c + 1)
    b[n_c] = 1.0
    c = np.concatenate([sw, np.zeros(n_c)])
    x_full, objective, pivots, y = _two_phase_simplex(c, A, b)
    x = x_full[: g_.sigma]

    if abs(x.sum() - 1.0) > FEAS_TOL or x.min() < -FEAS_TOL:
        raise SolverError(
            f"solver returned a non-distribution (mass {x.sum()!r}, "
            f"min {x.min()!r}) after {pivots} pivots"
        )
    slacks = G @ x
    if len(slacks) and slacks.min() < -FEAS_TOL:
        worst = labels[int(np.argmin(slacks))]
        raise SolverError(
            f"constraint {worst} violated by {-slacks.min()!r} after {pivots} pivots"
        )
    re_obj = float(sw @ x)
    if abs(re_obj - objective) > FEAS_TOL * max(1.0, abs(objective)):
        raise ContractViolationError(
            f"objective {objective!r} disagrees with re-evaluation {re_obj!r}"
        )
    # Weak duality: for any y_G >= 0 and any feasible x, sw.x >= sw.x - y_G.Gx
    # >= min_s (sw(s) - y_G.G(s)), so that minimum is a lower bound.
    duals = np.maximum(y[:n_c], 0.0)
    dual_bound = float((sw - duals @ G).min())
    gap = re_obj - dual_bound
    if gap > FEAS_TOL * max(1.0, abs(re_obj)):
        raise SolverError(
            f"dual bound {dual_bound!r} lies {gap!r} below the objective "
            f"{re_obj!r} after {pivots} pivots"
        )
    return CceLpSolution(
        distribution=x,
        objective=re_obj,
        slacks=slacks,
        constraints=tuple(labels),
        iterations=pivots,
        duals=duals,
        dual_bound=dual_bound,
        dual_gap=gap,
    )


def bound_comparison(
    agent_game: AgentGame, solution: CceLpSolution, params: SmoothnessParams
) -> dict:
    """Worst-equilibrium welfare against the smoothness floor lam/max(1,mu)*E[Opt].

    The verdict compares the LP's dual bound, a proven lower bound on the
    minimum, with the floor."""
    floor = params.lam / max(1.0, params.mu) * agent_game.e_opt
    return {
        "e_opt": agent_game.e_opt,
        "lp_welfare": solution.objective,
        "floor": floor,
        "lam": params.lam,
        "mu": params.mu,
        "holds": bool(solution.dual_bound >= floor - 1e-6),
        "lp_iterations": solution.iterations,
        "lp_dual_bound": solution.dual_bound,
        "lp_dual_gap": solution.dual_gap,
        "sigma": agent_game.sigma,
        "n_constraints": len(solution.constraints),
    }


def agent_game_to_json(agent_game: AgentGame) -> str:
    doc = {
        "mechanism": agent_game.mechanism.to_descriptor(),
        "populations": [list(p.values) for p in agent_game.populations],
        "agents": [[i, ti, v] for (i, ti, v) in agent_game.agents],
        "sizes": list(agent_game.sizes),
        "utilities": [[float(x) for x in row] for row in agent_game.utilities],
        "revenue": [float(x) for x in agent_game.revenue],
        "e_opt": agent_game.e_opt,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def solution_to_json(solution: CceLpSolution) -> str:
    doc = {
        "distribution": [float(x) for x in solution.distribution],
        "objective": solution.objective,
        "slacks": [float(x) for x in solution.slacks],
        "constraints": [list(c) for c in solution.constraints],
        "iterations": solution.iterations,
        "duals": [float(y) for y in solution.duals],
        "dual_bound": solution.dual_bound,
        "dual_gap": solution.dual_gap,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
