"""Independent reference implementations used to cross-check the package.

Everything in this file is deliberately written the slow, obvious way: plain
loops over profiles, no shared code with the library's table or tensor paths.
When a test compares a library result against a function here, the two values
reach the same quantity through disjoint code.
"""

import csv
import io
import itertools
import json
import math

import numpy as np

from regretlab import learners as ln
from regretlab import mechanisms as mech
from regretlab import simulator as sim


# --- auction rules from the definitions --------------------------------------


def auction_outcome(kind, bids, values, units=1):
    """(utilities, revenue, winner set) by direct rule application.

    Highest bid wins (top ``units`` bids for the multi-unit rule), ties to the
    lowest index. Winners pay their bid; under all-pay everyone pays.
    """
    n = len(bids)
    k = units if kind == mech.KIND_MULTI_UNIT else 1
    order = sorted(range(n), key=lambda i: (-bids[i], i))
    winners = set(order[: min(k, n)])
    utilities = []
    revenue = 0.0
    for i in range(n):
        if kind == mech.KIND_ALL_PAY:
            revenue += bids[i]
            utilities.append((values[i] if i in winners else 0.0) - bids[i])
        elif i in winners:
            utilities.append(values[i] - bids[i])
            revenue += bids[i]
        else:
            utilities.append(0.0)
    return utilities, revenue, winners


def opt_welfare(kind, values, units=1):
    if kind == mech.KIND_MULTI_UNIT:
        return sum(sorted(values, reverse=True)[:units])
    return max(values)


def allocation_welfare(kind, bids, values, units=1):
    """Total value delivered to the winners; payments are pure transfers."""
    _, _, winners = auction_outcome(kind, bids, values, units)
    return sum(values[i] for i in winners)


def joint_bid_profiles(m):
    return itertools.product(m.grid, repeat=m.n)


# --- smoothness by brute force ------------------------------------------------


def deviation_slack(m, dists, lam, mu, values):
    """min over adversary profiles a of sum_i E[U_i(dev_i, a_-i; v_i)]
    - lam * Opt(v) + mu * R(a), with the expectation expanded termwise.

    ``dists`` is one mass vector per player over that player's grid.
    """
    opt = opt_welfare(m.kind, values, m.units)
    worst = math.inf
    for a in joint_bid_profiles(m):
        _, rev, _ = auction_outcome(m.kind, list(a), list(values), m.units)
        gain = 0.0
        for i in range(m.n):
            for w, b in zip(dists[i], m.grid):
                if w == 0.0:
                    continue
                bids = list(a)
                bids[i] = b
                u, _, _ = auction_outcome(m.kind, bids, list(values), m.units)
                gain += w * u[i]
        worst = min(worst, gain - lam * opt + mu * rev)
    return worst


def pure_maximin_lambda(m, mu, profiles):
    """Best lambda supported by per-profile deterministic deviations.

    For each valuation profile with positive optimum, maximize over joint
    pure deviations b the minimum over adversary profiles a of
    (sum_i U_i(b_i, a_-i) + mu R(a)) / Opt(v); return the min across profiles.
    """
    best_over_v = math.inf
    for values in profiles:
        opt = opt_welfare(m.kind, values, m.units)
        if opt <= 0.0:
            continue
        best = -math.inf
        for star in joint_bid_profiles(m):
            low = math.inf
            for a in joint_bid_profiles(m):
                _, rev, _ = auction_outcome(m.kind, list(a), list(values), m.units)
                gain = 0.0
                for i in range(m.n):
                    bids = list(a)
                    bids[i] = star[i]
                    u, _, _ = auction_outcome(m.kind, bids, list(values), m.units)
                    gain += u[i]
                low = min(low, (gain + mu * rev) / opt)
                if low < best:
                    break  # this star cannot beat the incumbent
            best = max(best, low)
        best_over_v = min(best_over_v, best)
    return best_over_v


# --- agent normal form by four nested loops ------------------------------------


def naive_agent_game(m, pops):
    """Agent-form payoff tensors from scratch.

    Agents are (population, type) pairs in population-major order. A joint
    commitment assigns one grid index per agent; each uniform type draw
    selects one agent per population, whose committed bid is played.
    """
    agents = [
        (p, t, pops[p][t]) for p in range(len(pops)) for t in range(len(pops[p]))
    ]
    sizes = [len(m.grid)] * len(agents)
    seat_of = {}
    for g, (p, t, _) in enumerate(agents):
        seat_of[(p, t)] = g
    draws = list(itertools.product(*[range(len(vals)) for vals in pops]))
    n_sigma = 1
    for s in sizes:
        n_sigma *= s
    U = np.zeros((len(agents), n_sigma))
    R = np.zeros(n_sigma)
    w = 1.0 / len(draws)
    for flat, digits in enumerate(itertools.product(*[range(s) for s in sizes])):
        for draw in draws:
            chosen = [seat_of[(p, draw[p])] for p in range(len(pops))]
            vals = [agents[g][2] for g in chosen]
            bids = [m.grid[digits[chosen[p]]] for p in range(len(pops))]
            u, rev, _ = auction_outcome(m.kind, bids, vals, m.units)
            R[flat] += w * rev
            for p, g in enumerate(chosen):
                U[g, flat] += w * u[p]
    e_opt = w * sum(
        opt_welfare(m.kind, [pops[p][d[p]] for p in range(len(pops))], m.units)
        for d in draws
    )
    return agents, sizes, U, R, e_opt


# --- CCE polytope minimum by vertex enumeration --------------------------------


def deviation(game, g, action):
    """Agent g's utility at every joint profile s of an agent game after g
    switches to ``action``: entry s holds U_g(action, s_-g)."""
    u = game.utilities[g].reshape(game.sizes)
    return np.broadcast_to(u.take([action], axis=g), game.sizes).ravel()


def cce_rows(game):
    """The coarse-equilibrium constraint matrix, one dense row
    U_g - U_g(a, .) per (agent, action) pair that is not identically 0, and
    the pairs' labels."""
    labels, rows = [], []
    for g in range(game.n_agents):
        for a in range(game.sizes[g]):
            row = game.utilities[g] - deviation(game, g, a)
            if np.abs(row).max() > 0.0:
                labels.append((g, a))
                rows.append(row)
    return labels, np.array(rows).reshape(len(rows), game.sigma)


def agent_game_json_text(game):
    """``agent_game.json`` as one ``json.dumps`` of the whole document."""
    doc = {
        "mechanism": game.mechanism.to_descriptor(),
        "populations": [list(p.values) for p in game.populations],
        "agents": [[i, ti, v] for (i, ti, v) in game.agents],
        "sizes": list(game.sizes),
        "utilities": [[float(x) for x in row] for row in game.utilities],
        "revenue": [float(x) for x in game.revenue],
        "e_opt": game.e_opt,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def solution_json_text(solution):
    """``lp_solution.json`` as one ``json.dumps`` of the whole document."""
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
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class DenseColumns:
    """A dense standard-form matrix A as the column source the library's
    simplex reads: ``column(j)`` is A[:, j] and ``products(w)`` is w.A."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.m, self.n = self.A.shape

    def column(self, j):
        return self.A[:, j]

    def products(self, w):
        return w @ self.A



def vertex_minimum(objective, rows, tol=1e-9):
    """Minimize c @ x over {x >= 0, sum x = 1, r @ x <= 0 for r in rows}.

    Exhaustive basic-feasible-point enumeration: every vertex satisfies the
    normalization equality plus K-1 independent tight inequalities, so trying
    all (K-1)-subsets and keeping the feasible solutions covers every vertex.
    Intended for K <= 16 only.
    """
    c = np.asarray(objective, dtype=float)
    K = c.size
    normals = [np.asarray(r, dtype=float) for r in rows]
    normals = [r for r in normals if np.abs(r).max() > 0.0]
    blocks = [-np.eye(K)]
    if normals:
        blocks.append(np.vstack(normals))
    N = np.vstack(blocks)
    rhs = np.zeros((K, 1))
    rhs[0, 0] = 1.0
    best = math.inf
    combos = itertools.combinations(range(N.shape[0]), K - 1)
    while True:
        batch = list(itertools.islice(combos, 20_000))
        if not batch:
            break
        idx = np.array(batch, dtype=np.int64)
        A = np.empty((len(batch), K, K))
        A[:, 0, :] = 1.0
        A[:, 1:, :] = N[idx]
        keep = np.abs(np.linalg.det(A)) > 1e-12
        if not keep.any():
            continue
        b = np.broadcast_to(rhs, (int(keep.sum()), K, 1))
        x = np.linalg.solve(A[keep], b)[:, :, 0]
        feasible = (x @ N.T <= tol).all(axis=1)
        if feasible.any():
            best = min(best, float((x[feasible] @ c).min()))
    return best


def pure_nash_welfares(U, sizes, revenue):
    """Welfare of every pure Nash profile of an agent game, found by direct
    exhaustive verification of the equilibrium condition. May be empty."""
    n_agents, n_sigma = U.shape
    strides = [1] * n_agents
    for g in range(n_agents - 2, -1, -1):
        strides[g] = strides[g + 1] * sizes[g + 1]
    welfares = []
    for s in range(n_sigma):
        digit = [(s // strides[g]) % sizes[g] for g in range(n_agents)]
        is_nash = True
        for g in range(n_agents):
            here = U[g, s]
            for a in range(sizes[g]):
                dev = s + (a - digit[g]) * strides[g]
                if U[g, dev] > here + 1e-12:
                    is_nash = False
                    break
            if not is_nash:
                break
        if is_nash:
            welfares.append(float(U[:, s].sum() + revenue[s]))
    return welfares


# --- learning references --------------------------------------------------------


def hedge_probabilities(utility_rows, etas):
    """Hedge sampling distribution after the given updates, in closed form:
    p proportional to exp(sum_t eta_t * u_t)."""
    rows = [np.asarray(u, dtype=float) for u in utility_rows]
    log_w = np.zeros(rows[0].size)
    for u, eta in zip(rows, etas):
        log_w += eta * u
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def regret_reference(utility_rows, chosen):
    """Time-averaged external regret over the recorded rounds."""
    rows = [np.asarray(u, dtype=float) for u in utility_rows]
    if not rows:
        return 0.0
    cumulative = np.sum(rows, axis=0)
    realized = sum(float(u[a]) for u, a in zip(rows, chosen))
    return float(cumulative.max() - realized) / len(rows)


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def t_star_arithmetic(delta, rho, n, sigma_size, v_size, H):
    """The sufficient-horizon formula, written out term by term."""
    cubic = (n * n * n) * (H * H * H) / (delta * delta * delta)
    return 54.0 * cubic * sigma_size * (v_size * v_size) * math.log(2.0 / rho)


# --- the repeated game, one agent at a time ---------------------------------------


class _Learner:
    """One agent's weights, with the arithmetic of a lone Hedge/bandit
    learner. ``gamma`` is the exploration share of the sampling distribution,
    0 for Hedge."""

    def __init__(self, n_actions, gamma=0.0):
        self.weights = np.ones(n_actions)
        self.t_sel = 0
        self.gamma = gamma
        self.renormalizations = 0

    @property
    def n_actions(self):
        return len(self.weights)

    def probabilities(self):
        p = self.weights / self.weights.sum()
        if self.gamma > 0.0:
            p = (1.0 - self.gamma) * p + self.gamma / self.n_actions
        return p

    def _renormalize(self):
        top = self.weights.max()
        if top > ln.WEIGHT_CEILING:
            self.weights /= top
            self.renormalizations += 1

    def hedge(self, u, eta):
        self.weights *= np.exp(eta * u)
        self._renormalize()
        self.t_sel += 1

    def bandit(self, chosen, realized_utility, eta):
        estimate = realized_utility / self.probabilities()[chosen]
        self.weights[chosen] *= math.exp(eta * estimate)
        self._renormalize()
        self.t_sel += 1


def reference_run(config):
    """One seed of the repeated game, agent by agent and round by round.

    The loop the batched engine replaced: one (horizon, agents) block of
    uniforms drawn up front, a cached CDF and one ``searchsorted`` per agent,
    one update and one addition to the ledger sums per selected agent, and
    welfare from ``auction_outcome`` once per round. It reads the library's
    utility tables; the loop around them is what it pins. Returns a dict with
    ``v_idx``, ``strategy``, ``realized_idx``, ``sw``, ``opt``, ``ledgers``,
    ``renormalizations``, the number of times a weight passed the ceiling,
    and ``weights``, every learner's weights after the last round.
    """
    m = config.mechanism
    n = m.n
    T = config.horizon
    H = m.scale
    sizes_a = list(m.sizes)
    pops = config.populations
    agents = config.agents()
    offsets = config.agent_offsets()
    n_agents = len(agents)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    action_u = rng.random((T, n_agents))
    v_idx = np.empty((T, n), dtype=np.int16)
    for i, p in enumerate(pops):
        v_idx[:, i] = rng.integers(0, len(p), size=T)

    tables = [mech.utility_table(m, pop, val) for (pop, _ti, val) in agents]
    full = config.feedback == sim.FEEDBACK_FULL
    states = [_Learner(sizes_a[pop], 0.0 if full else config.gamma)
              for (pop, _ti, _v) in agents]
    counterfactual = [np.zeros(sizes_a[pop]) for (pop, _ti, _v) in agents]
    earned = [0.0] * n_agents

    opp_places = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        places = mech.radix_place_values([sizes_a[j] for j in others])
        opp_places.append(list(zip(others, places)))

    strategy = np.empty((T, n_agents), dtype=np.int16)
    realized = np.empty((T, n), dtype=np.int16)
    sw = np.empty(T)
    opt = np.empty(T)
    cdfs = [None] * n_agents
    two_h = 2.0 * H

    for t in range(T):
        srow = strategy[t]
        for g in range(n_agents):
            cdf = cdfs[g]
            if cdf is None:
                cdf = np.cumsum(states[g].probabilities())
                cdfs[g] = cdf
            j = int(np.searchsorted(cdf, action_u[t, g] * cdf[-1], side="right"))
            srow[g] = j if j < len(cdf) else len(cdf) - 1

        vrow = v_idx[t]
        sel = [offsets[i] + int(vrow[i]) for i in range(n)]
        ridx = [int(srow[s]) for s in sel]
        realized[t] = ridx

        for i in range(n):
            g = sel[i]
            opp = 0
            for j, place in opp_places[i]:
                opp += ridx[j] * place
            uvec = tables[g][:, opp]
            counterfactual[g] += uvec
            earned[g] += float(uvec[ridx[i]])
            st = states[g]
            if full:
                eta = config.eta if config.eta is not None else math.sqrt(
                    math.log(max(st.n_actions, 2)) / (st.t_sel + 1)
                )
                st.hedge((uvec + H) / two_h, eta)
            else:
                eta = config.eta if config.eta is not None else config.gamma / st.n_actions
                st.bandit(ridx[i], (uvec[ridx[i]] + H) / two_h, eta)
            cdfs[g] = None

        values = tuple(pops[i].values[vrow[i]] for i in range(n))
        bids = [m.grid[ridx[i]] for i in range(n)]
        utilities, revenue, _ = auction_outcome(m.kind, bids, values, m.units)
        sw[t] = sum(utilities) + revenue
        opt[t] = mech.optimal_welfare(values, m)

    ledgers = [
        ln.RegretLedger(counterfactual=counterfactual[g], realized=earned[g],
                        selected_rounds=st.t_sel, unselected_rounds=T - st.t_sel)
        for g, st in enumerate(states)
    ]
    return {"v_idx": v_idx, "strategy": strategy, "realized_idx": realized,
            "sw": sw, "opt": opt, "ledgers": ledgers,
            "renormalizations": sum(st.renormalizations for st in states),
            "weights": [st.weights for st in states]}


# --- persistence ------------------------------------------------------------------


def trace_csv_text(trace):
    """A trace's CSV table, one ``csv.writer`` row per round (1-based round
    numbers), every cell formatted afresh."""
    n = trace.config.mechanism.n
    grid = trace.config.mechanism.grid
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["t"]
        + [f"v_idx_{i + 1}" for i in range(n)]
        + [f"action_{i + 1}" for i in range(n)]
        + ["sw", "opt"]
    )
    for t in range(trace.horizon):
        row = [t + 1]
        row += [int(trace.v_idx[t, i]) for i in range(n)]
        row += [repr(grid[trace.realized_idx[t, i]]) for i in range(n)]
        row += [repr(float(trace.sw[t])), repr(float(trace.opt[t]))]
        writer.writerow(row)
    return buf.getvalue()
