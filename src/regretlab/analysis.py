"""Post-hoc analysis of repeated-play traces.

Everything here is read-only over a completed trace: the empirical joint
distribution of (commitment profile, type profile), the empirical epsilon of
the population game's coarse-equilibrium condition, independence diagnostics
for the type draws conditioned on play, welfare ratios against the smoothness
bound, the finite-horizon welfare inequality, and the (astronomically large)
sufficient-horizon formula, which is reported rather than waited for.

Conventions. Averages that define epsilon divide by the full window length,
not by the number of rounds an agent was selected. Their numerators are the
gap sums of the per-agent regret ledgers, which ``simulator.rebuild_ledgers``
counts from the trace's type and realized-bid columns; a simulated and a
loaded trace take this one path. A report counts the whole horizon and each
checkpoint of its learning curve (epsilon and welfare ratio at prefix
horizons) in one sweep of the ledgers. It also checks each agent's regret
over the whole horizon against the Hedge bound under full feedback, and logs
a warning, not an error, when an agent lies above it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mechanisms as mech
from .errors import ContractViolationError, InputError, UndefinedResultError
from .learners import RegretLedger, external_regret
from .simulator import FEEDBACK_FULL, Trace, rebuild_ledgers
from .smoothness import SmoothnessParams

logger = logging.getLogger(__name__)

RATIO_TOL_DEFAULT = 0.05


# --- empirical joint over (commitment profile, type profile) -----------------


@dataclass(frozen=True)
class EmpiricalJoint:
    """Counts of commitment profiles and, per profile, of type draws.

    ``profiles[r]`` is the ``r``-th distinct commitment profile (an int16
    row of the commitment table, in lexicographic order), ``counts[r]`` the
    number of rounds it was committed, and ``cond[r, v]`` the rounds of it
    drawn with flat type profile ``v``, as int32 below 2**31 rounds: the
    table holds a row per distinct profile, nearly one per round under
    bandit exploration.
    """

    total: int
    zeta: float
    v_sizes: tuple[int, ...]
    profiles: np.ndarray
    counts: np.ndarray
    cond: np.ndarray


def empirical_joint(trace: Trace, zeta: float = 0.0) -> EmpiricalJoint:
    """Exact counting of rounds by commitment profile over the whole trace."""
    if trace.strategy is None:
        raise InputError("trace carries no commitment table; rerun or reload with a full sidecar")
    if not 0.0 <= zeta <= 1.0:
        raise InputError(f"zeta must lie in [0, 1], got {zeta}")
    v_sizes = tuple(len(p) for p in trace.config.populations)
    a_sizes = trace.config.mechanism.actions.sizes()
    row, inverse, counts = mech.profile_index(
        trace.strategy.T, [a_sizes[pop] for pop, _ti, _v in trace.config.agents()]
    )
    count_type = np.int32 if trace.horizon < 2**31 else np.int64
    cond = np.zeros((len(row), int(np.prod(v_sizes))), dtype=count_type)
    np.add.at(cond, (inverse, np.ravel_multi_index(trace.v_idx.T, v_sizes)), 1)
    return EmpiricalJoint(
        total=trace.horizon, zeta=zeta, v_sizes=v_sizes,
        profiles=trace.strategy[row], counts=counts, cond=cond,
    )


def conditional_independence_gap(joint: EmpiricalJoint) -> float:
    """Worst total-variation gap between p(v | s) and the uniform product
    distribution of type profiles, over commitment profiles with empirical
    mass at least ``joint.zeta``.

    Returns 0 when no profile clears the threshold.
    """
    keep = joint.counts / joint.total >= joint.zeta
    p = joint.cond[keep] / joint.counts[keep, None]
    return float((0.5 * np.abs(p - 1.0 / p.shape[1]).sum(axis=1)).max(initial=0.0))


# --- empirical epsilon of the coarse-equilibrium condition -------------------


def bayes_cce_epsilon(trace: Trace, horizon: int | None = None) -> tuple[float, dict]:
    """Empirical violation of the no-fixed-deviation condition.

    For each population i, type value v, and fixed own action a', average
    over the window the selected-round gain of always playing a' against the
    realized opponent actions. The returned epsilon is the max over all
    (i, v, a'), clipped at zero; the breakdown maps (population, type index)
    to the per-action averaged gains. Only the type and realized bid columns
    are read, so a trace without its commitment table is enough.
    """
    T = trace.horizon if horizon is None else horizon
    if not 1 <= T <= trace.horizon:
        raise InputError(f"horizon {T} outside [1, {trace.horizon}]")
    (ledgers,) = rebuild_ledgers(trace, [T])
    return _epsilon(trace, ledgers, T)


def _epsilon(trace: Trace, ledgers: list[RegretLedger], T: int) -> tuple[float, dict]:
    breakdown = {}
    eps = 0.0
    for (pop, ti, _val), led in zip(trace.config.agents(), ledgers):
        avg = led.gaps() / T
        breakdown[(pop, ti)] = avg
        eps = max(eps, float(avg.max()))
    return max(eps, 0.0), breakdown


def _check_hedge_bound(trace: Trace, ledgers: list[RegretLedger]) -> None:
    # Soft sanity bound on measured regret; a violation is logged, not fatal,
    # since it is a probabilistic statement.
    H = trace.config.mechanism.scale
    for (pop, _ti, val), led in zip(trace.config.agents(), ledgers):
        if led.selected_rounds == 0:
            continue
        bound = 2.0 * H * math.sqrt(
            math.log(max(led.counterfactual.shape[0], 2)) / led.selected_rounds
        ) + 0.01
        reg = external_regret(led)
        if reg > bound:
            logger.warning(
                "agent (pop=%d, type=%.4g): regret %.4f above the hedge bound %.4f",
                pop,
                val,
                reg,
                bound,
            )


# --- welfare ------------------------------------------------------------------


@dataclass(frozen=True)
class WelfareSummary:
    avg_sw: float
    avg_opt: float
    ratio: float
    bound: float
    tolerance: float
    within_bound: bool


def welfare_ratio(
    trace: Trace,
    smoothness_params: SmoothnessParams,
    tolerance: float = RATIO_TOL_DEFAULT,
) -> WelfareSummary:
    """Average optimal over average realized welfare, against max(1,mu)/lambda."""
    total_sw = float(trace.sw.sum())
    total_opt = float(trace.opt.sum())
    bound = smoothness_params.poa_bound
    if total_sw <= 0.0:
        if total_opt > 0.0:
            return WelfareSummary(
                avg_sw=0.0,
                avg_opt=total_opt / trace.horizon,
                ratio=math.inf,
                bound=bound,
                tolerance=tolerance,
                within_bound=False,
            )
        raise UndefinedResultError(
            "welfare ratio is undefined on a trace with zero welfare and zero optimum"
        )
    ratio = total_opt / total_sw
    return WelfareSummary(
        avg_sw=total_sw / trace.horizon,
        avg_opt=total_opt / trace.horizon,
        ratio=ratio,
        bound=bound,
        tolerance=tolerance,
        within_bound=ratio <= bound + tolerance,
    )


@dataclass(frozen=True)
class FiniteTimeResult:
    holds: bool
    slack: float
    avg_sw: float
    avg_opt: float
    delta: float
    epsilon: float


def finite_time_check(
    trace: Trace,
    smoothness_params: SmoothnessParams,
    delta: float,
    measured_epsilon: float,
) -> FiniteTimeResult:
    """Check avg SW >= (lambda/max(1,mu)) * avg Opt - delta - mu * epsilon.

    ``measured_epsilon`` is the total regret level: n times the worst
    per-population time-averaged regret from ``bayes_cce_epsilon`` (the
    regret budget is split evenly across populations). Returns the slack of
    the inequality; holds means slack >= 0.

    Whenever the welfare ratio is within the smoothness bound and both delta
    and epsilon are non-negative, the inequality is implied; that implication
    is re-checked on every call and a violation raises, since it can only
    come from corrupted inputs.
    """
    if delta < 0 or measured_epsilon < 0:
        raise InputError("delta and measured_epsilon must be non-negative")
    lam, mu = smoothness_params.lam, smoothness_params.mu
    avg_sw = float(trace.sw.mean())
    avg_opt = float(trace.opt.mean())
    slack = avg_sw - ((lam / max(1.0, mu)) * avg_opt - delta - mu * measured_epsilon)
    holds = slack >= 0.0
    if avg_sw > 0 and avg_opt / avg_sw <= smoothness_params.poa_bound and not holds:
        raise ContractViolationError(
            "finite-time inequality failed although the welfare ratio is within "
            "the bound; inputs are inconsistent"
        )
    return FiniteTimeResult(
        holds=holds,
        slack=slack,
        avg_sw=avg_sw,
        avg_opt=avg_opt,
        delta=delta,
        epsilon=measured_epsilon,
    )


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


def sigma_size_of(trace: Trace) -> float:
    """Number of joint commitment profiles: product over agents of grid size."""
    m = trace.config.mechanism
    out = 1.0
    for pop, _ti, _v in trace.config.agents():
        out *= m.actions.size(pop)
    return out


def analysis_report(
    trace: Trace,
    smoothness_params: SmoothnessParams,
    delta: float = 0.05,
    rho: float = 0.05,
    zeta: float = 0.01,
    checkpoints: Sequence[int] | None = None,
    tolerance: float = RATIO_TOL_DEFAULT,
) -> dict:
    """One-stop JSON-ready summary of a trace. The independence gap needs the
    commitment table and is None on a trace without one. Under full feedback,
    agents whose regret over the horizon lies above the Hedge bound are
    logged as warnings. One ledger sweep counts the horizon and the
    ``checkpoints`` (default ``default_checkpoints``) of the running rows."""
    T = trace.horizon
    if checkpoints is None:
        checkpoints = default_checkpoints(T)
    pts = sorted(set(int(c) for c in checkpoints))
    if not pts or pts[0] < 1 or pts[-1] > T:
        raise InputError(f"checkpoints must lie in [1, {T}]")
    counted = rebuild_ledgers(trace, pts if pts[-1] == T else pts + [T])
    ledgers = counted[-1]
    if trace.config.feedback == FEEDBACK_FULL:
        _check_hedge_bound(trace, ledgers)
    eps, breakdown = _epsilon(trace, ledgers, T)
    gap = None
    if trace.strategy is not None:
        gap = conditional_independence_gap(empirical_joint(trace, zeta=zeta))
    summary = welfare_ratio(trace, smoothness_params, tolerance)
    eps_total = trace.config.mechanism.n * eps
    ft = finite_time_check(trace, smoothness_params, delta, eps_total)
    v_size = float(np.prod([len(p) for p in trace.config.populations]))
    ts = t_star(
        delta,
        rho,
        trace.config.mechanism.n,
        sigma_size_of(trace),
        v_size,
        trace.config.mechanism.scale,
    )
    bd = {}
    for (pop, ti), avg in sorted(breakdown.items()):
        value = trace.config.populations[pop].values[ti]
        bd[f"pop{pop}_type{ti}"] = {
            "value": value,
            "per_action": [float(x) for x in avg],
            "epsilon": max(0.0, float(avg.max())),
        }
    # built after the empirical joint, so the running sums stay out of its peak
    cum_sw = np.cumsum(trace.sw)
    cum_opt = np.cumsum(trace.opt)
    rows = []
    for h, led in zip(pts, counted):
        sw = float(cum_sw[h - 1])
        rows.append({
            "horizon": h,
            "epsilon": _epsilon(trace, led, h)[0],
            "ratio": float(cum_opt[h - 1]) / sw if sw > 0 else math.inf,
        })
    return {
        "horizon": T,
        "seed": trace.config.seed,
        "epsilon": eps,
        "epsilon_breakdown": bd,
        "independence_gap": gap,
        "zeta": zeta,
        "ratio": summary.ratio,
        "bound": summary.bound,
        "within_bound": summary.within_bound,
        "avg_sw": summary.avg_sw,
        "avg_opt": summary.avg_opt,
        "finite_time_slack": ft.slack,
        "finite_time_holds": ft.holds,
        "delta": delta,
        "rho": rho,
        "t_star": ts,
        "checkpoints": rows,
    }
