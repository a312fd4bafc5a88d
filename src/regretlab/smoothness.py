"""Deviation-based welfare certificates for grid auctions.

A mechanism admits a ``(lam, mu)`` certificate on a value space V if there is
a per-player randomized deviation a*(v), independent across players, with

    sum_i E[U_i(a*_i(v), a_-i; v_i)]  >=  lam * Opt(v) - mu * R(a)

for every action profile a and every v in V. The functions here evaluate that
inequality exhaustively and exactly on the finite bid grids, search for the
best certificate reachable with pure deviations, and build the logarithmic
randomized deviation that is the standard certificate for the first-price
rule. The exhaustive check also reports the largest lam its rule certifies at
the given mu, so a rule's grid-certified level comes from the same pass.
``add_deviation_sums`` is the deviation sum of this check, the lifted one
and the LP's pricing in ``exact``.

All expectations are closed-form sums over grid points; nothing is sampled.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import mechanisms as mech
from .errors import CapExceededError, InputError, UndefinedResultError
from .mechanisms import LOG_RULE_LIMIT, SmoothnessParams
from .records import record, replace

SLACK_TOL = 1e-9
DIST_TOL = 1e-9
PURE_SEARCH_CAP = 20_000_000  # maximin evaluations, joint profiles squared


@record(frozen=True)
class DeviationRule:
    """Map (player, valuation profile) -> distribution over the bid grid.

    ``fn`` returns a mass vector aligned with the mechanism's grid. Masses
    must be nonnegative and sum to 1 within 1e-9; this is validated on every
    evaluation.
    """

    name: str
    fn: Callable[[int, tuple[float, ...]], np.ndarray]

    def distribution(
        self, mechanism: mech.Mechanism, player: int, values: tuple[float, ...]
    ) -> np.ndarray:
        dist = np.asarray(self.fn(player, values), dtype=np.float64)
        size = len(mechanism.grid)
        if dist.shape != (size,):
            raise InputError(
                f"rule {self.name!r}: distribution for player {player} has shape "
                f"{dist.shape}, expected ({size},)"
            )
        if np.any(dist < -DIST_TOL):
            raise InputError(f"rule {self.name!r}: negative mass for player {player}")
        total = float(dist.sum())
        if abs(total - 1.0) > DIST_TOL:
            raise InputError(
                f"rule {self.name!r}: masses sum to {total}, not 1, for player {player}"
            )
        return dist


@record(frozen=True)
class SmoothnessReport:
    """Verdict of one exhaustive check at ``params``.

    ``level`` is the largest lam the checked rule certifies at ``params.mu``:
    the minimum of (deviation gain + mu R) / Opt over the checked pairs, or
    None when every optimum is 0 and no lam is certified or refuted.
    """

    params: SmoothnessParams
    holds: bool
    worst_slack: float
    witness_values: tuple[float, ...]
    witness_actions: tuple[float, ...]
    level: float | None

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        return (
            f"(lam={self.params.lam:.6g}, mu={self.params.mu:.6g}) {verdict}: "
            f"worst slack {self.worst_slack:.3e} at v={self.witness_values}, "
            f"a={self.witness_actions}"
        )


def _grid_floor_index(grid: Sequence[float], x: float) -> int:
    """Largest grid index whose point is <= x (within grid tolerance)."""
    j = 0
    for i, b in enumerate(grid):
        if b <= x + mech.GRID_TOL:
            j = i
        else:
            break
    return j


def _point_mass(grid: Sequence[float], j: int) -> np.ndarray:
    """The distribution over ``grid`` that puts all its mass on index ``j``."""
    dist = np.zeros(len(grid))
    dist[j] = 1.0
    return dist


def fpa_log_deviation(value: float, grid: Sequence[float]) -> np.ndarray:
    """Discretized logarithmic bid distribution for a first-price bidder.

    The continuous rule has cumulative mass F(b) = ln(v / (v - b)) supported
    on [0, (1 - 1/e) v]. On a grid each point receives the mass of the cell
    to its right, the upper endpoint is rounded down to the grid, and the last
    supported point absorbs the tail, so the masses always sum to one. A zero
    value degenerates to a point mass on bidding zero.
    """
    grid = tuple(grid)
    if not grid or grid[0] != 0.0:
        raise InputError("bid grid must start at 0.0")
    if value < 0.0:
        raise InputError(f"value must be nonnegative, got {value}")
    if value == 0.0:
        return _point_mass(grid, 0)
    masses = np.zeros(len(grid))
    top = _grid_floor_index(grid, LOG_RULE_LIMIT * value)

    def cdf(b: float) -> float:
        return math.log(value / (value - b))

    for j in range(top):
        masses[j] = cdf(grid[j + 1]) - cdf(grid[j])
    masses[top] = 1.0 - cdf(grid[top])
    return masses


def named_deviation(name: str, mechanism: mech.Mechanism) -> DeviationRule:
    """Build one of the library deviation rules for ``mechanism``.

    * ``half``: point mass on the largest grid point <= v_i / 2.
    * ``uniform``: uniform over the grid points <= v_i.
    * ``log``: the logarithmic first-price rule, per player.
    * ``zero``: point mass on bidding zero.
    """
    grid = mechanism.grid
    if name == "half":
        return DeviationRule(
            name="half",
            fn=lambda i, v: _point_mass(grid, _grid_floor_index(grid, v[i] / 2.0)),
        )
    if name == "zero":
        return DeviationRule(name="zero", fn=lambda i, v: _point_mass(grid, 0))
    if name == "uniform":

        def uniform_fn(player: int, values: tuple[float, ...]) -> np.ndarray:
            top = _grid_floor_index(grid, values[player])
            dist = np.zeros(len(grid))
            dist[: top + 1] = 1.0 / (top + 1)
            return dist

        return DeviationRule(name="uniform", fn=uniform_fn)
    if name == "log":
        return DeviationRule(
            name="log",
            fn=lambda i, v: fpa_log_deviation(v[i], grid),
        )
    raise InputError(f"unknown deviation rule {name!r}")


def add_deviation_sums(out: np.ndarray, terms) -> np.ndarray:
    """Add sum_k w[k] T[p, k, q] into ``out``, read as (p, k, q) too, at
    every k, for each (T, w) in ``terms``; return ``out``. With T a player's
    utilities laid out as (profiles before its axis, own action, profiles
    after), this is the deviation sum sum_i E_{w_i}[U_i(., a_-i)]. One
    einsum per T: no copy, and no BLAS, whose thread count could move bits.
    """
    for table, w in terms:
        pre, k, post = table.shape
        view = out.reshape(pre, k, post)
        view += np.einsum("pkq,k->pq", table, w)[:, None, :]
    return out


def smoothness_report(params: SmoothnessParams, slack: np.ndarray, gain: np.ndarray, opt: float,
                      grid: Sequence[float], sizes: Sequence[int],
                      values: tuple[float, ...] = ()) -> SmoothnessReport:
    """The verdict of a slack array over the joint profiles of ``sizes``: its
    least entry, witnessed by that profile's bids on ``grid`` (at value
    profile ``values``), holds unless below -SLACK_TOL; the level is
    ``gain.min() / opt``, or None when ``opt`` is 0."""
    flat = int(np.argmin(slack))
    worst = float(slack[flat])
    bids = tuple(grid[j] for j in np.unravel_index(flat, sizes))
    level = float(gain.min()) / opt if opt > 0.0 else None
    return SmoothnessReport(params, worst >= -SLACK_TOL, worst, values, bids, level)


def check_deviation_smoothness(
    mechanism: mech.Mechanism,
    rule: DeviationRule,
    params: SmoothnessParams,
    value_space: Sequence[Sequence[float]],
) -> SmoothnessReport:
    """Exhaustively verify the certificate inequality over all (a, v) pairs.

    The expectation over the deviation is computed in closed form, so the
    check is exact up to float arithmetic; the verdict uses a -1e-9 slack
    tolerance. Of the value profiles' reports, the first with the least
    worst slack is returned, with the least level among them; its witness is
    the minimizing (v, a) pair whether or not the certificate holds.
    """
    profiles = [mechanism.validate_values(v) for v in value_space]
    if not profiles:
        raise InputError("value_space must contain at least one profile")
    n, size = mechanism.n, len(mechanism.grid)
    rev = mech.revenue_table(mechanism)
    reports = []
    for values in profiles:
        opt = mech.optimal_welfare(values, mechanism)
        # mu R, then each seat's table [b_i, a_-i] viewed as (a_<i, b_i, a_>i)
        gain = add_deviation_sums(params.mu * rev, (
            (mech.utility_table(mechanism, i, values[i]).reshape(size, size**i, -1)
             .transpose(1, 0, 2), rule.distribution(mechanism, i, values))
            for i in range(n)
        ))
        reports.append(smoothness_report(params, gain - params.lam * opt, gain, opt,
                                         mechanism.grid, mechanism.sizes, values))
    levels = [r.level for r in reports if r.level is not None]
    worst = min(reports, key=lambda r: r.worst_slack)
    return replace(worst, level=min(levels, default=None))


def best_pure_deviation(
    mechanism: mech.Mechanism,
    mu: float,
    value_space: Sequence[Sequence[float]],
) -> tuple[float, DeviationRule]:
    """Best certificate level reachable with pure deviations, plus the rule.

    For each value profile with positive optimum this maximizes, over joint
    pure deviations b, the minimum over adversary profiles a of

        (sum_i U_i(b_i, a_-i; v_i) + mu R(a)) / Opt(v),

    and returns the minimum of those maximin ratios across the value space
    together with the per-profile argmax rule.
    """
    if mu < 0:
        raise InputError(f"mu must be nonnegative, got {mu}")
    profiles = [mechanism.validate_values(v) for v in value_space]
    if not profiles:
        raise InputError("value_space must contain at least one profile")
    sizes = mechanism.sizes
    joint = mech.joint_profile_count(mechanism)
    if joint * joint > PURE_SEARCH_CAP:
        raise CapExceededError(
            f"maximin enumeration needs {joint}^2 = {joint * joint} evaluations, "
            f"over the cap of {PURE_SEARCH_CAP}"
        )
    rev = mech.revenue_table(mechanism)
    n = mechanism.n
    # seat i's table [b_i, a_-i] laid on the axes (b_0..b_{n-1}, a_0..a_{n-1})
    # of gain: its axes keep their order, so a reshape places them
    seat_shapes = [
        [k if j == i else 1 for j, k in enumerate(sizes)]
        + [1 if j == i else k for j, k in enumerate(sizes)]
        for i in range(n)
    ]

    best_overall = math.inf
    chosen: dict[tuple[float, ...], tuple[int, ...]] = {}
    any_positive = False
    for values in profiles:
        opt = mech.optimal_welfare(values, mechanism)
        if opt <= 0.0:
            continue
        any_positive = True
        # gain[b_flat, a_flat] = sum_i U_i(b_i, a_-i) + mu R(a)
        gain = np.broadcast_to(mu * rev, (joint, joint)).copy()
        view = gain.reshape(sizes + sizes)
        for i in range(n):
            view += mech.utility_table(mechanism, i, values[i]).reshape(seat_shapes[i])
        floor = gain.min(axis=1)
        b_flat = int(np.argmax(floor))
        chosen[values] = tuple(int(d) for d in np.unravel_index(b_flat, sizes))
        best_overall = min(best_overall, float(floor[b_flat]) / opt)
    if not any_positive:
        raise UndefinedResultError(
            "every profile in value_space has zero optimal welfare"
        )

    def fn(player: int, values: tuple[float, ...]) -> np.ndarray:
        key = tuple(float(v) for v in values)
        if key not in chosen:
            raise InputError(f"value profile {key} was not in the searched space")
        return _point_mass(mechanism.grid, chosen[key][player])

    return best_overall, DeviationRule(name="best-pure", fn=fn)
