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

All expectations are closed-form sums over grid points; nothing is sampled.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import mechanisms as mech
from .errors import CapExceededError, InputError, UndefinedResultError
from .records import record

SLACK_TOL = 1e-9
DIST_TOL = 1e-9
PURE_SEARCH_CAP = 20_000_000  # maximin evaluations, joint profiles squared

# Continuous-grid limit of the certificate reached by the logarithmic rule.
LOG_RULE_LIMIT = 1.0 - 1.0 / math.e


@record(frozen=True)
class SmoothnessParams:
    lam: float
    mu: float

    def __post_init__(self) -> None:
        # chained comparisons are false for NaN
        if not 0 < self.lam < math.inf:
            raise InputError(f"lam must be positive and finite, got {self.lam}")
        if not 0 <= self.mu < math.inf:
            raise InputError(f"mu must be nonnegative and finite, got {self.mu}")

    @property
    def poa_bound(self) -> float:
        """Worst-case ratio Opt/SW guaranteed for no-regret play."""
        return max(1.0, self.mu) / self.lam


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

    @classmethod
    def from_bid_function(
        cls,
        name: str,
        mechanism: mech.Mechanism,
        bid_fn: Callable[[int, tuple[float, ...]], float],
    ) -> "DeviationRule":
        """Pure rule: point mass on ``bid_fn(player, values)``."""

        def fn(player: int, values: tuple[float, ...]) -> np.ndarray:
            dist = np.zeros(len(mechanism.grid))
            j = mechanism.index_of(bid_fn(player, values))
            dist[j] = 1.0
            return dist

        return cls(name=name, fn=fn)


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
    masses = np.zeros(len(grid))
    if value <= 0.0:
        if value < 0.0:
            raise InputError(f"value must be nonnegative, got {value}")
        masses[0] = 1.0
        return masses
    endpoint = LOG_RULE_LIMIT * value
    top = _grid_floor_index(grid, endpoint)

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
        return DeviationRule.from_bid_function(
            "half",
            mechanism,
            lambda i, v: grid[_grid_floor_index(grid, v[i] / 2.0)],
        )
    if name == "zero":
        return DeviationRule.from_bid_function("zero", mechanism, lambda i, v: 0.0)
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


def _deviation_gain_grid(
    mechanism: mech.Mechanism,
    rule: DeviationRule,
    values: tuple[float, ...],
    mu: float,
) -> np.ndarray:
    """Array over joint action profiles of sum_i E[U_i(dev_i, a_-i)] + mu R(a)."""
    shape = mechanism.sizes
    rev = mech.revenue_table(mechanism).reshape(shape)
    total = mu * rev if mu != 0.0 else np.zeros(shape)
    for i in range(mechanism.n):
        dist = rule.distribution(mechanism, i, values)
        table = mech.utility_table(mechanism, i, values[i])
        expected = dist @ table  # over opponent profiles of player i
        opp_shape = tuple(s for j, s in enumerate(shape) if j != i)
        total = total + np.expand_dims(expected.reshape(opp_shape), axis=i)
    return total


def check_deviation_smoothness(
    mechanism: mech.Mechanism,
    rule: DeviationRule,
    params: SmoothnessParams,
    value_space: Sequence[Sequence[float]],
) -> SmoothnessReport:
    """Exhaustively verify the certificate inequality over all (a, v) pairs.

    The expectation over the deviation is computed in closed form, so the
    check is exact up to float arithmetic; the verdict uses a -1e-9 slack
    tolerance. The witness is the minimizing (v, a) pair whether or not the
    certificate holds. The report's ``level`` comes from the same gain grids,
    over the value profiles with positive optimum.
    """
    profiles = [mechanism.validate_values(v) for v in value_space]
    if not profiles:
        raise InputError("value_space must contain at least one profile")
    shape = mechanism.sizes
    worst = math.inf
    level = math.inf
    wit_v: tuple[float, ...] = profiles[0]
    wit_a: tuple[int, ...] = (0,) * mechanism.n
    for values in profiles:
        opt = mech.optimal_welfare(values, mechanism)
        gain = _deviation_gain_grid(mechanism, rule, values, params.mu)
        if opt > 0.0:
            level = min(level, float(gain.min()) / opt)
        slack = gain - params.lam * opt
        flat = int(np.argmin(slack))
        low = float(slack.reshape(-1)[flat])
        if low < worst:
            worst = low
            wit_v = values
            wit_a = np.unravel_index(flat, shape)
    actions = tuple(mechanism.grid[j] for j in wit_a)
    return SmoothnessReport(
        params=params,
        holds=worst >= -SLACK_TOL,
        worst_slack=worst,
        witness_values=wit_v,
        witness_actions=actions,
        level=level if level < math.inf else None,
    )


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
        dist = np.zeros(len(mechanism.grid))
        dist[chosen[key][player]] = 1.0
        return dist

    return best_overall, DeviationRule(name="best-pure", fn=fn)
