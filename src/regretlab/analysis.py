"""Post-hoc analysis of repeated-play traces.

``analysis_report`` checks one completed trace against the paper's two
results. No-regret play should reach an approximate Bayes coarse correlated
equilibrium: the report gives the empirical epsilon of its no-fixed-deviation
condition and, when the trace carries its commitment table, how far the type
draws conditioned on a commitment profile lie from independent uniform
draws. Smoothness bounds that equilibrium's welfare: the report gives the
ratio of average optimal to average realized welfare against the bound
max(1, mu)/lambda, the slack of the finite-horizon welfare inequality, and
the (astronomically large) sufficient horizon ``t_star``, which is reported
rather than waited for.

Conventions. Averages that define epsilon divide by the full window length,
not by the number of rounds an agent was selected. Their numerators are the
gap sums of a regret ledger, one row per agent, which
``simulator.rebuild_ledgers`` counts from the trace's type and realized-bid
columns; a simulated and a loaded trace take this one path. A report counts
the whole horizon and each checkpoint of its learning curve (epsilon and
welfare ratio at prefix horizons) in one sweep, one ledger per horizon, and
reads each of them as whole arrays. It also checks each agent's regret over
the whole horizon against the Hedge bound under full feedback, and logs a
warning, not an error, when an agent lies above it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import mechanisms as mech
from .errors import ContractViolationError, InputError, UndefinedResultError
from .learners import RegretLedger
from .simulator import FEEDBACK_FULL, Trace, rebuild_ledgers

RATIO_TOL_DEFAULT = 0.05


# --- the coarse-equilibrium condition -----------------------------------------


def _check_hedge_bound(trace: Trace, ledger: RegretLedger) -> None:
    # Soft sanity bound on measured regret; a violation is logged, not fatal,
    # since it is a probabilistic statement. An agent never selected has zero
    # sums, so counting its rounds as one leaves it below the bound.
    rounds = np.maximum(ledger.selected_rounds, 1)
    bound = 2.0 * trace.config.mechanism.scale * np.sqrt(
        math.log(max(ledger.counterfactual.shape[1], 2)) / rounds
    ) + 0.01
    regret = ledger.gaps().max(axis=1) / rounds
    agents = trace.config.agents()
    for g in np.flatnonzero(regret > bound):
        # imported here: at import, logging adds 0.5 MB to every run's peak
        import logging

        logging.getLogger(__name__).warning(
            "agent (pop=%d, type=%.4g): regret %.4f above the hedge bound %.4f",
            agents[g][0],
            agents[g][2],
            regret[g],
            bound[g],
        )


def _independence_gap(trace: Trace, zeta: float) -> float:
    """Worst total-variation gap between p(v | s) and the uniform product
    distribution of type profiles, over the commitment profiles s committed
    in at least a ``zeta`` share of the rounds; 0 when none is.

    The rounds are counted by commitment profile and flat type profile, as
    int32 below 2**31 rounds: the table holds a row per distinct commitment
    profile, nearly one per round under bandit exploration.
    """
    v_sizes = [len(p) for p in trace.config.populations]
    bids = len(trace.config.mechanism.grid)
    _, inverse, counts = mech.profile_index(
        trace.strategy.T, [bids] * len(trace.config.agents())
    )
    count_type = np.int32 if trace.horizon < 2**31 else np.int64
    cond = np.zeros((len(counts), int(np.prod(v_sizes))), dtype=count_type)
    np.add.at(cond, (inverse, np.ravel_multi_index(trace.v_idx.T, v_sizes)), 1)
    keep = counts / trace.horizon >= zeta
    p = cond[keep] / counts[keep, None]
    return float((0.5 * np.abs(p - 1.0 / p.shape[1]).sum(axis=1)).max(initial=0.0))


# --- sufficient horizon -------------------------------------------------------


def t_star(
    delta: float, rho: float, n: int, sigma_size: float, v_size: float, H: float
) -> float:
    """Sufficient horizon 54 * n^3 * |Sigma| * |V|^2 * H^3 / delta^3 * ln(2/rho).

    Astronomically large at realistic sizes; callers report it, they do not
    wait for it. Natural logarithm throughout.
    """
    if delta <= 0:
        raise InputError(f"delta must be positive, got {delta}")
    if not 0.0 < rho <= 1.0:
        raise InputError(f"rho must lie in (0, 1], got {rho}")
    if n < 1 or sigma_size < 1 or v_size < 1 or H <= 0:
        raise InputError("need n >= 1, sigma_size >= 1, v_size >= 1, H > 0")
    cube = delta**3
    if cube == 0.0:  # delta**3 underflows below delta ~1.35e-108
        return math.inf
    return 54.0 * n**3 * sigma_size * v_size**2 * H**3 / cube * math.log(2.0 / rho)


# --- report ------------------------------------------------------------------


def default_checkpoints(T: int) -> list[int]:
    """Powers of two up to the horizon (starting at 16), plus the horizon."""
    pts = []
    p = 16
    while p <= T:
        pts.append(p)
        p *= 2
    if not pts or pts[-1] != T:
        pts.append(T)
    return pts


def checkpoints_csv_text(rows: Sequence[dict]) -> str:
    lines = ["horizon,epsilon,ratio"]
    for r in rows:
        lines.append(f"{r['horizon']},{r['epsilon']!r},{r['ratio']!r}")
    return "\n".join(lines) + "\n"


def analysis_report(
    trace: Trace,
    smoothness_params: mech.SmoothnessParams,
    delta: float = 0.05,
    rho: float = 0.05,
    zeta: float = 0.01,
    checkpoints: Sequence[int] | None = None,
    tolerance: float = RATIO_TOL_DEFAULT,
) -> dict:
    """One-stop JSON-ready summary of a trace; every input is checked first.

    ``ratio`` is average optimal over average realized welfare: infinite
    when only the optimum is positive, an UndefinedResultError when neither
    is. ``within_bound`` compares it with max(1, mu)/lambda + ``tolerance``.
    ``finite_time_slack`` is avg SW - (lambda/max(1, mu) * avg Opt - delta -
    mu * n * epsilon), where n * epsilon is the total regret level (the
    regret budget is split evenly across populations); the inequality holds
    when the slack is non-negative. A ratio within the bound implies it, so a
    violation of that implication raises, since it can only come from
    corrupted inputs. Under full feedback, agents whose regret over the
    horizon lies above the Hedge bound are logged as warnings. One
    ledger sweep counts the horizon and the ``checkpoints`` (default
    ``default_checkpoints``) of the running rows."""
    T = trace.horizon
    m = trace.config.mechanism
    lam, mu, bound = smoothness_params.lam, smoothness_params.mu, smoothness_params.poa_bound
    if checkpoints is None:
        checkpoints = default_checkpoints(T)
    pts = sorted(set(int(c) for c in checkpoints))
    if not pts or pts[0] < 1 or pts[-1] > T:
        raise InputError(f"checkpoints must lie in [1, {T}]")
    if not 0.0 <= zeta <= 1.0:
        raise InputError(f"zeta must lie in [0, 1], got {zeta}")
    # |Sigma|, the number of joint commitment profiles, as a float product
    sigma_size = math.prod([len(m.grid)] * len(trace.config.agents()), start=1.0)
    v_size = float(np.prod([len(p) for p in trace.config.populations]))
    ts = t_star(delta, rho, m.n, sigma_size, v_size, m.scale)
    total_sw = float(trace.sw.sum())
    total_opt = float(trace.opt.sum())
    if total_sw <= 0.0 and total_opt <= 0.0:
        raise UndefinedResultError(
            "welfare ratio is undefined on a trace with zero welfare and zero optimum"
        )
    ratio = total_opt / total_sw if total_sw > 0.0 else math.inf
    avg_sw, avg_opt = total_sw / T, total_opt / T

    counted = rebuild_ledgers(trace, pts if pts[-1] == T else pts + [T])
    if trace.config.feedback == FEEDBACK_FULL:
        _check_hedge_bound(trace, counted[-1])
    # the gain of always playing each own action against the realized
    # opponent actions, per agent, averaged over the whole window
    avg = counted[-1].gaps() / T
    eps = max(0.0, float(avg.max()))
    eps_total = m.n * eps
    slack = avg_sw - ((lam / max(1.0, mu)) * avg_opt - delta - mu * eps_total)
    holds = slack >= 0.0
    if avg_sw > 0 and avg_opt / avg_sw <= bound and not holds:
        raise ContractViolationError(
            "finite-time inequality failed although the welfare ratio is within "
            "the bound; inputs are inconsistent"
        )
    gap = _independence_gap(trace, zeta)
    bd = {
        f"pop{pop}_type{ti}": {
            "value": val,
            "per_action": row.tolist(),
            "epsilon": max(0.0, float(row.max())),
        }
        for (pop, ti, val), row in zip(trace.config.agents(), avg)
    }
    # built after the independence gap, so the running sums stay out of its peak
    cum_sw = np.cumsum(trace.sw)
    cum_opt = np.cumsum(trace.opt)
    rows = []
    for h, led in zip(pts, counted):
        sw = float(cum_sw[h - 1])
        rows.append({
            "horizon": h,
            "epsilon": max(0.0, float((led.gaps() / h).max())),
            "ratio": float(cum_opt[h - 1]) / sw if sw > 0 else math.inf,
        })
    return {
        "horizon": T,
        "seed": trace.config.seed,
        "epsilon": eps,
        "epsilon_breakdown": bd,
        "independence_gap": gap,
        "zeta": zeta,
        "ratio": ratio,
        "bound": bound,
        "within_bound": ratio <= bound + tolerance,
        "avg_sw": avg_sw if total_sw > 0.0 else 0.0,
        "avg_opt": avg_opt,
        "finite_time_slack": slack,
        "finite_time_holds": holds,
        "delta": delta,
        "rho": rho,
        "t_star": ts,
        "checkpoints": rows,
    }
