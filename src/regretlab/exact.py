"""Small-instance ground truth by exhaustive enumeration and LP.

The population game induced by a mechanism and finite type populations is a
complete-information game whose players are all (population, type) pairs.
This module builds that game's dense payoff tensor exactly, verifies lifted
smoothness certificates on it by enumerating every joint profile, and bounds
worst-case coarse-equilibrium welfare with a linear program.

Everything is deliberately dense and exact within double precision. Size caps
reject instances that would not fit; nothing here samples.

LP solver: a two-phase revised primal simplex. Each pivot prices every
nonbasic column and enters the most negative reduced cost (Dantzig's rule,
lowest index on ties); the leaving row is chosen by the lexicographic ratio
test over the rows of [x, B^-1] / alpha (Dantzig, Orden & Wolfe, Pac. J.
Math. 1955). The identity start basis is lexico-positive and the test keeps
it so, which rules out cycling; only driving a leftover artificial out of
the basis after phase 1 can break that, and the pivot cap stays as the
backstop. The rule is fully deterministic, which is what a ground-truth
oracle needs. The solver keeps one explicit m x m basis inverse, recomputed
from the basis columns at every pivot, so no rounding carries from one pivot
to the next. A singular basis is a SolverError.

The constraint matrix G is never stored. Its row (g, a) is U_g(s) - U_g(a,
s_-g), so a column is gathered from 2 entries of the tensor per row, and
every product y.G(s) over all profiles is one ``AgentGame.price`` call, one
deviation sum (``smoothness.add_deviation_sums``, the base check's kernel).
The LP thus takes O(sigma + rows^2) memory; ``TENSOR_CAP`` is its only limit.

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
import math

import numpy as np

from . import mechanisms as mech
from .errors import CapExceededError, ContractViolationError, SolverError
from .records import asdict, record
from .smoothness import (DeviationRule, SmoothnessParams, SmoothnessReport,
                         add_deviation_sums, smoothness_report)

TENSOR_CAP = 1_000_000
FEAS_TOL = 1e-7


@record(frozen=True)
class AgentGame:
    """Dense normal form over all (population, type) agents.

    ``utilities[g, s]`` is agent g's expected utility at joint profile s,
    the expectation running over the uniform type draw (an agent earns 0 in
    rounds where its population selected another type). Profiles are indexed
    in C order over agents (population ascending, types in declaration
    order, last agent varying fastest).
    """

    mechanism: mech.Mechanism
    populations: tuple[mech.Population, ...]
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

    def deviation_mix(self, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """sum_g sum_a Y[g][a] * U_g(a, s_-g) at every joint profile s, added
        into ``out`` when it is given, ``weights`` holding Y[0], Y[1], ... end
        to end: ``add_deviation_sums`` over the agents' rows as views."""
        terms, pre, at = [], 1, 0
        for g, k in enumerate(self.sizes):
            terms.append((self.utilities[g].reshape(pre, k, -1), weights[at:at + k]))
            pre, at = pre * k, at + k
        return add_deviation_sums(np.zeros(self.sigma) if out is None else out, terms)

    def price(self, weights: np.ndarray) -> np.ndarray:
        """sum_g sum_a Y[g][a] * (U_g(s) - U_g(a, s_-g)) at every joint profile
        s, with ``weights`` laid out as in ``deviation_mix``: y.G(s) for duals
        y on the coarse-equilibrium rows."""
        totals = np.add.reduceat(weights, np.cumsum((0,) + self.sizes[:-1]))
        return self.deviation_mix(-weights, np.einsum("g,gs->s", totals, self.utilities))

    def social_welfare(self) -> np.ndarray:
        return self.utilities.sum(axis=0) + self.revenue


def build_agent_game(mechanism: mech.Mechanism, populations) -> AgentGame:
    """Exact expected payoffs of every agent at every joint profile.

    Expectations run over the uniform product type draw by full enumeration;
    E[Opt] likewise. Instances above ``TENSOR_CAP`` joint profiles are
    rejected with the measured size.
    """
    pops = mech.check_populations(mechanism, populations)
    agents = mech.flat_agents(pops)
    sizes = [len(mechanism.grid)] * len(agents)
    sigma = math.prod(sizes)
    if sigma > TENSOR_CAP:
        raise CapExceededError(
            f"agent game needs {sigma} joint profiles, cap is {TENSOR_CAP} "
            f"(per-agent action counts: {sizes})"
        )
    n = mechanism.n
    agent_index = {(i, ti): g for g, (i, ti, _v) in enumerate(agents)}
    a_sizes = mechanism.sizes
    rev = mech.revenue_table(mechanism)

    # One axis per agent. At a type profile, seat i's bid axis of a joint
    # table lies on the axis of the agent it selects, sel[i]; sel rises with
    # i, so a reshape with unit axes for the other agents places every seat.
    utilities = np.zeros((len(agents), *sizes))
    revenue = np.zeros(sizes)
    opt_total = 0.0
    v_count = 0
    for tv in itertools.product(*[range(len(p)) for p in pops]):
        v_count += 1
        vals = tuple(pops[i].values[tv[i]] for i in range(n))
        opt_total += mech.optimal_welfare(vals, mechanism)
        sel = [agent_index[(i, tv[i])] for i in range(n)]
        shape = [a_sizes[i] if ti == tv[i] else 1 for i, ti, _v in agents]
        revenue += rev.reshape(shape)
        for i in range(n):
            # the table [b_i, a_-i] as a joint-profile array, axis i its own bid
            table = mech.utility_table(mechanism, i, vals[i])
            opp = a_sizes[:i] + a_sizes[i + 1:]
            utilities[sel[i]] += np.moveaxis(table.reshape(a_sizes[i], *opp), 0, i).reshape(shape)
    utilities /= v_count
    revenue /= v_count
    return AgentGame(
        mechanism=mechanism,
        populations=pops,
        agents=tuple(agents),
        sizes=tuple(sizes),
        utilities=utilities.reshape(len(agents), sigma),
        revenue=revenue.reshape(sigma),
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
    value_lists = [p.values for p in g_.populations]
    count = math.prod(map(len, value_lists))
    devs = []
    for i, _ti, val in g_.agents:
        dev = np.zeros(len(m.grid))
        for w in itertools.product(*value_lists):
            dev += base_deviation.distribution(m, i, w[:i] + (val,) + w[i + 1:])
        devs.append(dev / count)
    lhs = g_.deviation_mix(np.concatenate(devs))
    slack = lhs - params.lam * g_.e_opt + params.mu * g_.revenue
    return smoothness_report(params, slack, lhs + params.mu * g_.revenue, g_.e_opt, m.grid,
                             g_.sizes)


# --- worst-case coarse-equilibrium welfare ------------------------------------

# The LP's products over the joint profiles go through einsum, not BLAS: BLAS
# splits a long product across threads, so its sums, and with them the pivots
# and the written solution, would depend on the thread count.


@record(frozen=True)
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


class _CceColumns:
    """The worst-CCE LP's standard-form columns, read off the agent game.

    Rows are the deviation rows (g, a), then the mass row. Column s < sigma
    is profile s, with entries U_g(s) - U_g(a, s_-g) and 1, each gathered
    from the tensor; column sigma + r is row r's surplus, -e_r. Nothing of
    size rows x sigma is ever stored."""

    def __init__(self, game: AgentGame, labels: list[tuple[int, int]]):
        self.game = game
        self.m = len(labels) + 1
        self.n = game.sigma + len(labels)
        self.agent, self.action = np.array(labels, dtype=np.int64).reshape(-1, 2).T
        sizes = np.array(game.sizes, dtype=np.int64)
        self.place = np.array(mech.radix_place_values(game.sizes), dtype=np.int64)[self.agent]
        self.size = sizes[self.agent]
        # where row (g, a)'s dual sits among AgentGame.price's weights
        self.slot = (np.cumsum(sizes) - sizes)[self.agent] + self.action
        self.n_weights = int(sizes.sum())

    def column(self, j: int) -> np.ndarray:
        out = np.zeros(self.m)
        if j >= self.game.sigma:
            out[j - self.game.sigma] = -1.0
            return out
        u = self.game.utilities
        moved = j + (self.action - j // self.place % self.size) * self.place
        out[:-1] = u[self.agent, j] - u[self.agent, moved]
        out[-1] = 1.0
        return out

    def price(self, y: np.ndarray) -> np.ndarray:
        """y.G(s) at every profile s, for duals ``y`` on the deviation rows."""
        weights = np.zeros(self.n_weights)
        weights[self.slot] = y
        return self.game.price(weights)

    def products(self, w: np.ndarray) -> np.ndarray:
        """w . A_j for every column j."""
        return np.concatenate([self.price(w[:-1]) + w[-1], -w[:-1]])


class _Basis:
    """An explicit inverse of the basis and the basic solution it gives for
    ``b``, both recomputed at every pivot.

    The columns are those of ``source`` (an object with ``m`` rows, ``n``
    columns, ``column(j)`` and ``products(w)`` = w.A), each row's sign
    flipped where b < 0, then the m artificial columns e_r."""

    def __init__(self, source, b: np.ndarray, basis: np.ndarray):
        self.source = source
        self.sign = np.where(b < 0, -1.0, 1.0)
        self.b = b * self.sign
        self.basis = basis
        self.matrix = np.zeros((source.m, source.m))
        for r, j in enumerate(basis):
            self.matrix[:, r] = self.column(j)
        self.refactor()

    def column(self, j: int) -> np.ndarray:
        if j < self.source.n:
            return self.source.column(j) * self.sign
        out = np.zeros(self.source.m)
        out[j - self.source.n] = 1.0
        return out

    def products(self, w: np.ndarray) -> np.ndarray:
        """w . column j for every column j, artificials included."""
        return np.concatenate([self.source.products(w * self.sign), w])

    def refactor(self) -> None:
        try:
            self.inv = np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as e:
            raise SolverError(f"singular basis {self.basis.tolist()}: {e}") from None
        self.x = self.inv @ self.b

    def pivot(self, row: int, col: int, column: np.ndarray) -> None:
        """Exchange basis[row] for col, whose column is ``column``."""
        self.basis[row] = col
        self.matrix[:, row] = column
        self.refactor()


def _leaving_row(B: _Basis, alpha: np.ndarray, rows: np.ndarray) -> int:
    """The lexicographic ratio test: the row r among ``rows`` (those with
    alpha_r > 0) whose [x_r, inv[r]] / alpha_r is lexicographically least,
    entries within 1e-12 counting as equal."""
    for key in itertools.chain([B.x], B.inv.T):
        if len(rows) == 1:
            break
        q = key[rows] / alpha[rows]
        rows = rows[q <= q.min() + 1e-12]
    return int(rows[0])


def _pivot_loop(B: _Basis, cost: np.ndarray, n_cols: int, maxiter: int,
                phase: int) -> int:
    """Primal simplex pivots over the first ``n_cols`` columns, entering the
    nonbasic column of most negative reduced cost (Dantzig's rule, lowest
    index on ties) and leaving by the lexicographic ratio test. Returns the
    pivot count; raises SolverError on non-convergence or unboundedness."""
    price = cost[:n_cols]
    it = 0
    while True:
        y = cost[B.basis] @ B.inv
        reduced = price - B.products(y)[:n_cols]
        # a basic column's reduced cost is 0 up to rounding; never re-enter it
        reduced[B.basis[B.basis < n_cols]] = 0.0
        col = int(reduced.argmin())
        if reduced[col] >= -1e-9:
            return it
        column = B.column(col)
        alpha = B.inv @ column
        rows = (alpha > 1e-9).nonzero()[0]
        if len(rows) == 0:
            raise SolverError(
                f"LP unbounded in phase {phase} at pivot {it}, entering column "
                f"{col}, basis {B.basis.tolist()}"
            )
        B.pivot(_leaving_row(B, alpha, rows), col, column)
        it += 1
        if it > maxiter:
            raise SolverError(
                f"simplex exceeded {maxiter} pivots in phase {phase}; last basis "
                f"{B.basis.tolist()}, objective value {float(cost[B.basis] @ B.x)!r}"
            )


def _two_phase_simplex(c: np.ndarray, source, b: np.ndarray):
    """min c.x subject to A x = b, x >= 0, where ``source`` gives A's columns
    (see ``_Basis``). Returns (x, objective, pivots, y) with y = c_B B^-1 the
    duals of the final basis."""
    m, n = source.m, source.n
    maxiter = 1000 + 200 * (m + n)
    B = _Basis(source, b, np.arange(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    pivots = _pivot_loop(B, cost, n + m, maxiter, phase=1)
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
            hit = np.abs(B.products(B.inv[r])[:n]) > 1e-9
            j = int(hit.argmax())
            if hit[j]:
                B.pivot(r, j, B.column(j))
                pivots += 1

    cost = np.concatenate([c, np.zeros(m)])
    pivots += _pivot_loop(B, cost, n, maxiter, phase=2)
    x = np.zeros(n + m)
    x[B.basis] = B.x
    y = (cost[B.basis] @ B.inv) * B.sign
    return x[:n], float(np.einsum("i,i->", c, x[:n])), pivots, y


def worst_cce_welfare(agent_game: AgentGame) -> CceLpSolution:
    """Minimize expected welfare over coarse-equilibrium distributions.

    Variables are the joint-profile probabilities; for every agent g and
    fixed action a' the constraint E_x[U_g(s)] >= E_x[U_g(a', s_-g)] must
    hold. The LP is always feasible (a Nash point is). The returned slacks
    are re-evaluated from the tensor, not read off the solver.
    """
    g_ = agent_game
    labels = []
    for g in range(g_.n_agents):
        # rows (g, a) vanish for every a at once: exactly when U_g is
        # constant along agent g's own axis
        u = g_.utilities[g].reshape(g_.sizes)
        if (u.max(axis=g) > u.min(axis=g)).any():
            labels += [(g, a) for a in range(g_.sizes[g])]
    n_c = len(labels)
    source = _CceColumns(g_, labels)
    sw = g_.social_welfare()
    # standard form: [x, t] with G x - t = 0 and sum x = 1
    b = np.zeros(n_c + 1)
    b[n_c] = 1.0
    c = np.concatenate([sw, np.zeros(n_c)])
    x_full, objective, pivots, y = _two_phase_simplex(c, source, b)
    x = x_full[: g_.sigma]

    if abs(x.sum() - 1.0) > FEAS_TOL or x.min() < -FEAS_TOL:
        raise SolverError(
            f"solver returned a non-distribution (mass {x.sum()!r}, "
            f"min {x.min()!r}) after {pivots} pivots"
        )
    support = np.flatnonzero(x)
    at_support = np.array([source.column(j)[:n_c] for j in support]).reshape(len(support), n_c)
    slacks = np.einsum("ji,j->i", at_support, x[support])
    if len(slacks) and slacks.min() < -FEAS_TOL:
        worst = labels[int(np.argmin(slacks))]
        raise SolverError(
            f"constraint {worst} violated by {-slacks.min()!r} after {pivots} pivots"
        )
    re_obj = float(np.einsum("i,i->", sw, x))
    if abs(re_obj - objective) > FEAS_TOL * max(1.0, abs(objective)):
        raise ContractViolationError(
            f"objective {objective!r} disagrees with re-evaluation {re_obj!r}"
        )
    # Weak duality: for any y_G >= 0 and any feasible x, sw.x >= sw.x - y_G.Gx
    # >= min_s (sw(s) - y_G.G(s)), so that minimum is a lower bound.
    duals = np.maximum(y[:n_c], 0.0)
    dual_bound = float((sw - source.price(duals)).min())
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


# Floats formatted per write of a streamed JSON array.
WRITE_CHUNK = 4096


def _float_list_parts(values: np.ndarray):
    """The text of ``json.dumps(values.tolist())`` in compact form, for a 1-d
    or 2-d array, in pieces of at most WRITE_CHUNK floats; json writes a
    float as its repr."""
    yield "["
    if values.ndim == 2:
        for g, row in enumerate(values):
            yield "," if g else ""
            yield from _float_list_parts(row)
    else:
        for a in range(0, len(values), WRITE_CHUNK):
            yield ("," if a else "") + ",".join(map(repr, values[a:a + WRITE_CHUNK].tolist()))
    yield "]"


def _write_json(path, rec) -> None:
    """Write ``json.dumps`` of the record's fields (sorted keys, compact,
    ``mechanisms.json_default``) and a newline, its float arrays formatted in
    pieces instead of built into sigma-long lists. Every other field is
    formatted before the file is opened, so a record that cannot be written
    (a mechanism with no descriptor) leaves no file."""
    parts = {key: _float_list_parts(value) if isinstance(value, np.ndarray) else [json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=mech.json_default)]
        for key, value in asdict(rec).items()}
    with open(path, "w") as fh:
        fh.write("{")
        for i, key in enumerate(sorted(parts)):
            fh.write(("," if i else "") + json.dumps(key) + ":")
            fh.writelines(parts[key])
        fh.write("}\n")


def write_agent_game_json(agent_game: AgentGame, path) -> None:
    """Write ``agent_game.json`` from the game's fields: layout, tensor, E[Opt]."""
    _write_json(path, agent_game)


def write_solution_json(solution: CceLpSolution, path) -> None:
    """Write ``lp_solution.json`` from the LP minimizer's and certificates' fields."""
    _write_json(path, solution)
