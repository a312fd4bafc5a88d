"""Single-shot auction mechanisms on a finite bid grid.

Three payment rules are supported, all pay-as-bid:

* ``first-price``: one unit, highest bid wins and pays its bid.
* ``all-pay``: one unit, highest bid wins, every player pays their own bid.
* ``multi-unit-first-price``: ``units`` identical items, the top ``units``
  bids each win one item and pay their own bid.

Every seat bids on one finite grid, so that exhaustive enumeration over
action profiles stays exact. Ties are broken deterministically in favour of
the lowest player index.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache, partial
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .records import record

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


def uniform_grid(step: float, scale: float = 1.0) -> tuple[float, ...]:
    """The bid grid {0, step, 2*step, ..., scale}."""
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
    return tuple(_canonical_point(j * step) for j in range(m + 1))


# The config, the mechanism descriptor and a sidecar's meta entry are each read
# against a table of key -> (parser, default). A parser takes a JSON value and
# its key path, and returns the value read or raises InputError naming the path.

REQUIRED = object()  # the default of a key that must be present


def read_object(spec: dict, obj, path: str = "") -> dict:
    """Every key of ``spec``: its value parsed, or its default when absent."""
    at = f"{path}: " if path else ""
    if not isinstance(obj, dict):
        raise InputError(f"{at}expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(spec))
    if unknown:
        raise InputError(f"{at}unknown keys {unknown}")
    missing = sorted(k for k, (_, d) in spec.items() if d is REQUIRED and k not in obj)
    if missing:
        raise InputError(f"{at}missing required keys {missing}")
    prefix = f"{path}." if path else ""
    return {k: parse(obj[k], prefix + k) if k in obj else default
            for k, (parse, default) in spec.items()}


def read_number(obj, path: str, minimum=None, maximum=None, positive=False) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise InputError(f"{path}: expected a number, got {type(obj).__name__}")
    # NaN fails the comparison too; an integer literal can exceed the float range
    if not abs(obj) <= sys.float_info.max:
        raise InputError(f"{path}: must be a finite number, got {obj}")
    x = float(obj)
    if minimum is not None and x < minimum:
        raise InputError(f"{path}: must be >= {minimum}, got {x}")
    if positive and x <= 0.0:
        raise InputError(f"{path}: must be > 0, got {x}")
    if maximum is not None and x > maximum:
        raise InputError(f"{path}: must be <= {maximum}, got {x}")
    return x


def read_integer(obj, path: str, minimum=None, maximum=None) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise InputError(f"{path}: expected an integer, got {type(obj).__name__}")
    if minimum is not None and obj < minimum:
        raise InputError(f"{path}: must be >= {minimum}, got {obj}")
    if maximum is not None and obj > maximum:
        raise InputError(f"{path}: must be <= {maximum}, got {obj}")
    return obj


def read_string(obj, path: str, choices=None) -> str:
    if not isinstance(obj, str):
        raise InputError(f"{path}: expected a string, got {type(obj).__name__}")
    if choices is not None and obj not in choices:
        raise InputError(f"{path}: expected one of {list(choices)}, got {obj!r}")
    return obj


def read_list(obj, path: str, item, nonempty=False) -> tuple:
    """The tuple of the list's entries, each read by ``item``."""
    if not isinstance(obj, list):
        raise InputError(f"{path}: expected a list, got {type(obj).__name__}")
    if nonempty and not obj:
        raise InputError(f"{path}: expected a non-empty list")
    return tuple(item(v, f"{path}[{j}]") for j, v in enumerate(obj))


def nullable(parse):
    """``parse``, except that null reads as None."""
    return lambda obj, path: None if obj is None else parse(obj, path)


@record(frozen=True)
class Mechanism:
    """An auction rule whose ``n`` seats all bid on one grid.

    The grid is strictly increasing, contains 0.0, and stays within
    ``[0, scale]``.
    """

    kind: str
    n: int
    grid: tuple[float, ...]
    scale: float = 1.0
    units: int = 1

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise InputError(f"scale must be positive, got {self.scale}")
        pts = tuple(_canonical_point(b) for b in self.grid)
        if not pts:
            raise InputError("empty bid grid")
        if any(b2 <= b1 for b1, b2 in zip(pts, pts[1:])):
            raise InputError("grid must be strictly increasing")
        if pts[0] != 0.0:
            raise InputError("grid must contain 0.0")
        if pts[-1] > self.scale + GRID_TOL:
            raise InputError(f"max bid {pts[-1]} exceeds scale {self.scale}")
        object.__setattr__(self, "grid", pts)
        if self.kind not in KINDS:
            raise InputError(f"unknown mechanism kind {self.kind!r}")
        if self.n < 1:
            raise InputError(f"need at least one player, got n={self.n}")
        if self.kind == KIND_MULTI_UNIT:
            if not 1 <= self.units <= self.n:
                raise InputError(f"units={self.units} not in [1, {self.n}]")
        elif self.units != 1:
            raise InputError(f"{self.kind} is a single-unit rule; units must be 1")

    @property
    def sizes(self) -> tuple[int, ...]:
        """Every seat's grid size: the shape of the joint bid profiles."""
        return (len(self.grid),) * self.n

    def validate_values(self, values: Sequence[float]) -> tuple[float, ...]:
        if len(values) != self.n:
            raise InputError(f"expected {self.n} values, got {len(values)}")
        vals = tuple(float(v) for v in values)
        for i, v in enumerate(vals):
            if not 0.0 <= v <= self.scale + GRID_TOL:
                raise InputError(f"player {i}: value {v} outside [0, {self.scale}]")
        return vals

    def to_descriptor(self) -> dict:
        """JSON-serializable descriptor, or InputError when no step rebuilds
        the grid.

        ``grid_step`` is the grid's first positive bid when ``uniform_grid``
        rebuilds the grid from it, else ``scale / (bids - 1)``: at a step of
        1/3 that bid, 0.333333333333, builds 0.666666666666 where the grid
        holds 0.666666666667.
        """
        g = self.grid
        first = g[1] if len(g) > 1 else self.scale
        for step in (first, self.scale / max(len(g) - 1, 1)):
            try:
                if uniform_grid(step, self.scale) == g:
                    break
            except InputError:
                pass
        else:
            raise InputError(
                f"no grid step rebuilds this grid of {len(g)} bids on [0, {self.scale}]"
            )
        return {
            "kind": self.kind,
            "n": self.n,
            "k": self.units,
            "grid_step": step,
            "H": self.scale,
            "tie_break": TIE_LOWEST,
        }

    @classmethod
    def from_descriptor(cls, d, path: str = "mechanism") -> "Mechanism":
        """The mechanism of a descriptor object, or InputError naming the key
        path; a grid that no step writes back is refused before any file is."""
        f = read_object(DESCRIPTOR, d, path)
        try:
            m = cls(kind=f["kind"], n=f["n"], grid=uniform_grid(f["grid_step"], f["H"]),
                    scale=f["H"], units=f["k"])
            m.to_descriptor()
        except InputError as e:
            raise InputError(f"{path}: {e}") from e
        return m


# The largest float whose cube is finite: the sufficient horizon cubes H and
# delta, so larger values are refused as they are read.
CUBE_MAX = 5.643803094122361e102

DESCRIPTOR = {
    "kind": (read_string, REQUIRED),
    "n": (read_integer, REQUIRED),
    "k": (read_integer, REQUIRED),
    "grid_step": (read_number, REQUIRED),
    "H": (partial(read_number, maximum=CUBE_MAX), REQUIRED),
    "tie_break": (partial(read_string, choices=(TIE_LOWEST,)), REQUIRED),
}


@record(frozen=True)
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


# each seat's list of type values, as a config or a sidecar gives them
read_populations = partial(read_list, item=partial(read_list, item=read_number))


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
FEEDBACK_MODES = (FEEDBACK_FULL, FEEDBACK_BANDIT)

# Continuous-grid limit of the certificate reached by the logarithmic rule.
LOG_RULE_LIMIT = 1.0 - 1.0 / math.e


@record(frozen=True)
class SmoothnessParams:
    """A ``(lam, mu)`` certificate: ``smoothness`` checks it, a config reads it."""

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
    return math.prod(mechanism.sizes)


def check_table_cap(mechanism: Mechanism) -> None:
    """Raise InputError when the mechanism's utility and revenue tables
    would hold more than TABLE_CAP entries."""
    entries = joint_profile_count(mechanism)
    if entries > TABLE_CAP:
        raise InputError(
            f"utility table would hold {entries} entries, over the cap of {TABLE_CAP}"
        )


def _seat_bids(mechanism: Mechanism) -> list[np.ndarray]:
    """The grid shaped, once per seat, to broadcast along that seat's axis
    of the joint profile grid."""
    n = mechanism.n
    grid = np.asarray(mechanism.grid, dtype=np.float64)
    return [grid.reshape([-1 if j == i else 1 for j in range(n)]) for i in range(n)]


@lru_cache(maxsize=64)
def _win_flags(mechanism: Mechanism) -> np.ndarray:
    """Boolean ``W[i, b_0, ..., b_{n-1}]``: whether seat ``i`` wins a unit at
    the joint bid profile with grid indices ``b``.

    Seat ``j`` outranks seat ``i`` when it bids more, or bids the same from a
    lower index. Seat ``i`` wins when fewer than ``units`` seats outrank it:
    the top ``units`` bids win, ties to the lowest index.
    """
    bids = _seat_bids(mechanism)
    flags = np.empty((mechanism.n, *mechanism.sizes), dtype=bool)
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

    Opponent profiles are indexed in C order over the other players' bids,
    ascending player index, last player fastest. A winner gets value
    minus bid; a loser gets 0.0, or minus its bid under all-pay.
    """
    if not 0 <= player < mechanism.n:
        raise InputError(f"player {player} out of range for n={mechanism.n}")
    check_table_cap(mechanism)
    own = np.asarray(mechanism.grid, dtype=np.float64)[:, None]
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
    in C order over all players' bids (last player fastest).

    Seats add their payments in seat order: every bid under all-pay, the
    winners' bids otherwise.
    """
    check_table_cap(mechanism)
    rev = np.zeros(mechanism.sizes)
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

