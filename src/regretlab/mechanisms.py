"""Single-shot auction mechanisms on finite bid grids.

Three payment rules are supported, all pay-as-bid:

* ``first-price``: one unit, highest bid wins and pays its bid.
* ``all-pay``: one unit, highest bid wins, every player pays their own bid.
* ``multi-unit-first-price``: ``units`` identical items, the top ``units``
  bids each win one item and pay their own bid.

Bids live on per-player finite grids so that exhaustive enumeration over
action profiles stays exact. Ties are broken deterministically in favour of
the lowest player index.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

GRID_TOL = 1e-9

# Type and action indices are stored as int16, so a grid holds at most this
# many bids and a population at most this many types.
INDEX_LIMIT = int(np.iinfo(np.int16).max) + 1

KIND_FIRST_PRICE = "first-price"
KIND_ALL_PAY = "all-pay"
KIND_MULTI_UNIT = "multi-unit-first-price"
KINDS = (KIND_FIRST_PRICE, KIND_ALL_PAY, KIND_MULTI_UNIT)

TIE_LOWEST = "lowest-index"


def _canonical_point(x: float) -> float:
    # Kill accumulated binary noise such as 3*0.1 != 0.3 so that grid points
    # built from a step compare equal to their decimal spelling.
    return round(float(x), 12)


@dataclass(frozen=True)
class ActionSpace:
    """Per-player sorted bid grids sharing a common scale.

    Every grid is strictly increasing, contains 0.0, and stays within
    ``[0, scale]``.
    """

    grids: tuple[tuple[float, ...], ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise InputError(f"scale must be positive, got {self.scale}")
        if not self.grids:
            raise InputError("at least one player grid is required")
        # equal grids are checked once and share one canonical tuple
        canon = {}
        for p, grid in enumerate(self.grids):
            grid = tuple(grid)
            if grid in canon:
                continue
            pts = tuple(_canonical_point(b) for b in grid)
            if not pts:
                raise InputError(f"player {p}: empty bid grid")
            if any(b2 <= b1 for b1, b2 in zip(pts, pts[1:])):
                raise InputError(f"player {p}: grid must be strictly increasing")
            if pts[0] != 0.0:
                raise InputError(f"player {p}: grid must contain 0.0")
            if pts[-1] > self.scale + GRID_TOL:
                raise InputError(
                    f"player {p}: max bid {pts[-1]} exceeds scale {self.scale}"
                )
            canon[grid] = pts
        object.__setattr__(self, "grids", tuple(canon[tuple(g)] for g in self.grids))

    @classmethod
    def uniform(cls, n_players: int, step: float, scale: float = 1.0) -> "ActionSpace":
        """Shared grid {0, step, 2*step, ..., scale} for every player."""
        if step <= 0 or step > scale + GRID_TOL:
            raise InputError(f"grid step {step} not in (0, {scale}]")
        # sized before any point is built; min() also keeps an overflowing
        # ratio out of round()
        m = round(min(scale / step, INDEX_LIMIT))
        if m + 1 > INDEX_LIMIT:
            raise InputError(
                f"grid step {step} gives more than {INDEX_LIMIT} bids on [0, {scale}]"
            )
        if abs(m * step - scale) > GRID_TOL:
            raise InputError(f"grid step {step} does not divide scale {scale}")
        grid = tuple(_canonical_point(j * step) for j in range(m + 1))
        return cls(grids=(grid,) * n_players, scale=scale)

    @property
    def n_players(self) -> int:
        return len(self.grids)

    def size(self, player: int) -> int:
        return len(self.grids[player])

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.grids)

    def index_of(self, player: int, bid: float) -> int:
        """Grid index of ``bid``; raises InputError for off-grid bids."""
        grid = self.grids[player]
        i = bisect.bisect_left(grid, bid - GRID_TOL)
        if i < len(grid) and abs(grid[i] - bid) <= GRID_TOL:
            return i
        raise InputError(f"player {player}: bid {bid} is not on the grid")


@dataclass(frozen=True)
class Mechanism:
    kind: str
    n: int
    actions: ActionSpace
    units: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InputError(f"unknown mechanism kind {self.kind!r}")
        if self.n < 1:
            raise InputError(f"need at least one player, got n={self.n}")
        if self.actions.n_players != self.n:
            raise InputError(
                f"action space has {self.actions.n_players} grids for n={self.n} players"
            )
        if self.kind == KIND_MULTI_UNIT:
            if not 1 <= self.units <= self.n:
                raise InputError(f"units={self.units} not in [1, {self.n}]")
        elif self.units != 1:
            raise InputError(f"{self.kind} is a single-unit rule; units must be 1")

    @property
    def scale(self) -> float:
        return self.actions.scale

    def validate_values(self, values: Sequence[float]) -> tuple[float, ...]:
        if len(values) != self.n:
            raise InputError(f"expected {self.n} values, got {len(values)}")
        vals = tuple(float(v) for v in values)
        for i, v in enumerate(vals):
            if not 0.0 <= v <= self.scale + GRID_TOL:
                raise InputError(f"player {i}: value {v} outside [0, {self.scale}]")
        return vals

    def to_descriptor(self) -> dict:
        """JSON-serializable descriptor. Requires a shared uniform grid."""
        g0 = self.actions.grids[0]
        if any(g != g0 for g in self.actions.grids):
            raise InputError("descriptor form requires identical per-player grids")
        steps = {
            _canonical_point(b2 - b1) for b1, b2 in zip(g0, g0[1:])
        }
        if len(steps) > 1:
            raise InputError("descriptor form requires a uniform grid")
        step = steps.pop() if steps else self.scale
        return {
            "kind": self.kind,
            "n": self.n,
            "k": self.units,
            "grid_step": step,
            "H": self.scale,
            "tie_break": TIE_LOWEST,
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> "Mechanism":
        if not isinstance(d, dict):
            raise InputError(f"descriptor must be an object, got {type(d).__name__}")
        required = {"kind", "n", "k", "grid_step", "H", "tie_break"}
        missing = required - d.keys()
        if missing:
            raise InputError(f"descriptor missing keys: {sorted(missing)}")
        unknown = d.keys() - required
        if unknown:
            raise InputError(f"descriptor has unknown keys: {sorted(unknown)}")
        if d["tie_break"] != TIE_LOWEST:
            raise InputError(f"unknown tie_break {d['tie_break']!r}; use {TIE_LOWEST!r}")
        for key in ("n", "k"):
            if not isinstance(d[key], int) or isinstance(d[key], bool):
                raise InputError(f"descriptor {key}: expected an integer, got {d[key]!r}")
        for key in ("grid_step", "H"):
            x = d[key]
            # NaN fails the comparison too; an integer can exceed the float range
            if isinstance(x, bool) or not isinstance(x, (int, float)) or not (
                abs(x) <= sys.float_info.max
            ):
                raise InputError(f"descriptor {key}: expected a finite number, got {x!r}")
        return cls(
            kind=d["kind"],
            n=d["n"],
            actions=ActionSpace.uniform(d["n"], float(d["grid_step"]), float(d["H"])),
            units=d["k"],
        )


@dataclass(frozen=True)
class Population:
    """The distinct valuation types competing for one player seat."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise InputError("a population needs at least one type")
        if len(set(vals)) != len(vals):
            raise InputError(f"population types must be distinct, got {vals}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def check_populations(mechanism: Mechanism, populations) -> tuple[Population, ...]:
    """One Population per player seat of ``mechanism``, each type value in
    ``[0, scale]``; a plain sequence of values is converted."""
    pops = tuple(p if isinstance(p, Population) else Population(tuple(p)) for p in populations)
    if len(pops) != mechanism.n:
        raise InputError(f"{len(pops)} populations for {mechanism.n} player seats")
    for i, p in enumerate(pops):
        for v in p.values:
            if not 0.0 <= v <= mechanism.scale + GRID_TOL:
                raise InputError(
                    f"population {i}: type value {v} outside [0, {mechanism.scale}]"
                )
    return pops


def flat_agents(populations: Sequence[Population]) -> list[tuple[int, int, float]]:
    """The population game's agents as (population, type index, type value),
    populations ascending, types in declaration order: the row order of the
    simulator's learners and the player order of the exact agent game."""
    return [(i, ti, v) for i, p in enumerate(populations) for ti, v in enumerate(p.values)]


# What a selected agent learns from its round: the full counterfactual
# utility vector, or only its realized utility.
FEEDBACK_FULL = "full"
FEEDBACK_BANDIT = "bandit"


def optimal_welfare(valuation_profile: Sequence[float], mechanism: Mechanism) -> float:
    """Welfare of the best feasible allocation: the top value, or the sum of
    the top ``units`` values for the multi-unit rule."""
    values = mechanism.validate_values(valuation_profile)
    if mechanism.kind == KIND_MULTI_UNIT:
        return sum(sorted(values, reverse=True)[: mechanism.units])
    return max(values)


# --- exhaustive tables -----------------------------------------------------
#
# Enumeration-heavy callers (deviation checks, agent-form construction, the
# simulator's feedback path) all need U_i(b, a_-i; v) for every own bid b and
# every joint opponent profile. Building the table once per (player, value)
# keeps those paths to array lookups. Opponent profiles are flattened in
# numpy's C order over ascending player index j != i.
#
# The auction rule itself is the cached win-flag array below; the utility and
# revenue tables apply the payment rule to it with array operations.

TABLE_CAP = 10_000_000  # joint profiles per utility or revenue table


def joint_profile_count(mechanism: Mechanism) -> int:
    # a Python int: an int64 product of 5 seats' 32,768-bid grids wraps to 0
    return math.prod(mechanism.actions.sizes())


def check_table_cap(mechanism: Mechanism) -> None:
    """Raise InputError when the mechanism's utility and revenue tables
    would hold more than TABLE_CAP entries."""
    entries = joint_profile_count(mechanism)
    if entries > TABLE_CAP:
        raise InputError(
            f"utility table would hold {entries} entries, over the cap of {TABLE_CAP}"
        )


def _seat_bids(mechanism: Mechanism) -> list[np.ndarray]:
    """Each seat's grid shaped to broadcast over the joint profile grid."""
    n = mechanism.n
    return [
        np.asarray(g, dtype=np.float64).reshape([-1 if j == i else 1 for j in range(n)])
        for i, g in enumerate(mechanism.actions.grids)
    ]


@lru_cache(maxsize=64)
def _win_flags(mechanism: Mechanism) -> np.ndarray:
    """Boolean ``W[i, b_0, ..., b_{n-1}]``: whether seat ``i`` wins a unit at
    the joint bid profile with grid indices ``b``.

    Seat ``j`` outranks seat ``i`` when it bids more, or bids the same from a
    lower index. Seat ``i`` wins when fewer than ``units`` seats outrank it:
    the top ``units`` bids win, ties to the lowest index.
    """
    bids = _seat_bids(mechanism)
    flags = np.empty((mechanism.n, *mechanism.actions.sizes()), dtype=bool)
    for i, own in enumerate(bids):
        # float64 counts are exact here; an integer counter pulls in numpy
        # loops that no other step runs, which raised peak RSS by ~0.1 MB
        outranked = np.zeros(flags.shape[1:])
        for j, other in enumerate(bids):
            if j != i:
                outranked += own <= other if j < i else own < other
        np.less(outranked, mechanism.units, out=flags[i])
    flags.setflags(write=False)
    return flags


@lru_cache(maxsize=256)
def utility_table(mechanism: Mechanism, player: int, value: float) -> np.ndarray:
    """Array ``T[b_idx, opp_idx]`` of the player's utility against every joint
    opponent bid profile, holding the player's value fixed.

    Opponent profiles are indexed in C order over the other players' grids,
    ascending player index, last player fastest. A winner gets value
    minus bid; a loser gets 0.0, or minus its bid under all-pay.
    """
    if not 0 <= player < mechanism.n:
        raise InputError(f"player {player} out of range for n={mechanism.n}")
    check_table_cap(mechanism)
    own = np.asarray(mechanism.actions.grids[player], dtype=np.float64)[:, None]
    # C order, as callers' matrix products sum in the layout's order
    wins = np.ascontiguousarray(
        np.moveaxis(_win_flags(mechanism)[player], player, 0).reshape(len(own), -1)
    )
    lose = -own if mechanism.kind == KIND_ALL_PAY else 0.0
    table = np.where(wins, value - own, lose)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def revenue_table(mechanism: Mechanism) -> np.ndarray:
    """Flat array of auction revenue for every joint action profile, indexed
    in C order over all players' grids (last player fastest).

    Seats add their payments in seat order: every bid under all-pay, the
    winners' bids otherwise.
    """
    check_table_cap(mechanism)
    rev = np.zeros(mechanism.actions.sizes())
    all_pay = mechanism.kind == KIND_ALL_PAY
    for i, bid in enumerate(_seat_bids(mechanism)):
        np.add(rev, bid, out=rev, where=all_pay or _win_flags(mechanism)[i])
    rev = rev.ravel()
    rev.setflags(write=False)
    return rev


# --- flattened profiles ------------------------------------------------------
#
# Joint bid profiles, opponent profiles, type profiles and agent-game profiles
# are all flattened in numpy's C order: digit ``j`` ranges over ``sizes[j]``
# and the last digit varies fastest, which is the order of
# ``itertools.product``. ``np.ravel_multi_index`` and ``np.unravel_index``
# convert, and a table reshaped to ``sizes`` has one axis per digit.


def radix_place_values(sizes: Sequence[int]) -> list[int]:
    """Place value (stride) of each digit: ``flat = sum(digit[j] * place[j])``."""
    places = [1] * len(sizes)
    for j in range(len(sizes) - 2, -1, -1):
        places[j] = places[j + 1] * sizes[j + 1]
    return places


def opponent_places(sizes: Sequence[int], seat: int) -> list[int]:
    """Place value of each seat's digit in ``seat``'s opponent index: the
    other seats in ascending order, last fastest, and 0 for ``seat`` itself."""
    places = radix_place_values([s for j, s in enumerate(sizes) if j != seat])
    places.insert(seat, 0)
    return places


def opponent_index(digits, sizes: Sequence[int], seat: int) -> np.ndarray:
    """Flat opponent profile of ``seat`` for a joint digit tuple, the column
    of ``utility_table(mechanism, seat, value)`` it indexes. Digits may be
    ints or integer arrays of one shape; the result is an int64 array of that
    shape, all zeros when ``seat`` has no opponents."""
    flat = np.zeros(np.shape(digits[seat]), dtype=np.int64)
    for d, place in zip(digits, opponent_places(sizes, seat)):
        if place:
            flat += np.multiply(d, place, dtype=np.int64)
    return flat


# profile_index ranks the rows seen so far before a partial code could pass
# this, which keeps the codes inside int64.
RANK_SPAN_LIMIT = 2**62
# Codes spanning at most this many values are ranked by counting them, which
# needs no sort; wider ones are ranked by np.unique.
COUNT_SPAN_LIMIT = 2**16


def _dense_rank(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Each code's rank among the distinct codes, ascending, and each
    distinct code's count; codes lie in [0, span)."""
    if span > COUNT_SPAN_LIMIT:
        _, rank, counts = np.unique(code, return_inverse=True, return_counts=True)
        return rank, counts
    counts = np.bincount(code, minlength=span)
    seen = np.flatnonzero(counts)
    rank_of = np.zeros(span, dtype=np.int64)
    rank_of[seen] = np.arange(len(seen))
    return rank_of[code], counts[seen]


def profile_index(columns, sizes: Sequence[int]):
    """The distinct digit tuples of a table's rows, in lexicographic order.

    ``columns`` holds one integer array per digit, all of one length. Returns
    a row holding each distinct tuple, each row's rank among the distinct
    tuples, and each tuple's count: the order, inverse and counts of
    ``np.unique(rows, axis=0)``, which is far slower. Rows are compared by
    their C-order flat index over ``sizes``; when the sizes' product would
    overflow int64, the partial codes are replaced by their ranks, which keep
    their order.
    """
    code, span = 0, 1
    for col, size in zip(columns, sizes):
        if span * size > RANK_SPAN_LIMIT:
            code, counts = _dense_rank(code, span)
            span = len(counts)
        code = code * size + np.asarray(col, dtype=np.int64)
        span *= size
    rank, counts = _dense_rank(code, span)
    # rows of one tuple are interchangeable, so whichever write lands is one
    row = np.empty(len(counts), dtype=np.int64)
    row[rank] = np.arange(len(rank))
    return row, rank, counts


def value_profiles(per_player_values: Iterable[Sequence[float]]) -> list[tuple[float, ...]]:
    """Cartesian product of per-player value lists, in lexicographic order."""
    return [tuple(v) for v in itertools.product(*per_player_values)]

