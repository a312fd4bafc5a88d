"""Auction rules: outcomes and welfare read from the exhaustive tables, and
serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import InputError
from regretlab import mechanisms as mech

from . import oracles


def fp(n, grid, **kw):
    return mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=n, grid=grid, **kw)


QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)
TENTHS = tuple(round(0.1 * i, 10) for i in range(11))


def outcome(m, bids, values):
    """(utilities, revenue) of one bid profile, read from the tables."""
    idx = [m.grid.index(b) for b in bids]
    sizes = m.sizes
    utilities = []
    for i in range(m.n):
        others = [j for j in range(m.n) if j != i]
        opp = np.ravel_multi_index([idx[j] for j in others], [sizes[j] for j in others])
        utilities.append(float(mech.utility_table(m, i, values[i])[idx[i], opp]))
    revenue = float(mech.revenue_table(m)[np.ravel_multi_index(idx, sizes)])
    return tuple(utilities), revenue


def welfare(m, bids, values):
    utilities, revenue = outcome(m, bids, values)
    return sum(utilities) + revenue


def test_first_price_outcome():
    m = fp(2, QUARTERS)
    # seat 1 would get 0.25 had it won
    assert outcome(m, (0.5, 0.25), (1.0, 0.5)) == ((0.5, 0.0), 0.5)


def test_all_pay_outcome():
    m = mech.Mechanism(kind=mech.KIND_ALL_PAY, n=2, grid=QUARTERS)
    assert outcome(m, (0.5, 0.25), (1.0, 0.5)) == ((0.5, -0.25), 0.75)


def test_multi_unit_outcome():
    m = mech.Mechanism(
        kind=mech.KIND_MULTI_UNIT,
        n=3,
        units=2,
        grid=TENTHS,
    )
    utilities, revenue = outcome(m, (0.4, 0.3, 0.3), (1.0, 0.5, 0.2))
    # the 0.3 tie at the second unit goes to the lower index; seat 2 would
    # get 0.2 - 0.3 had it won
    assert utilities == (0.6, 0.2, 0.0)
    assert revenue == pytest.approx(0.7, abs=1e-15)


def test_social_welfare_examples():
    m2 = fp(2, QUARTERS)
    assert welfare(m2, (0.5, 0.25), (1.0, 0.5)) == 1.0
    ap = mech.Mechanism(kind=mech.KIND_ALL_PAY, n=2, grid=QUARTERS)
    assert welfare(ap, (0.5, 0.25), (1.0, 0.5)) == 1.0
    mu = mech.Mechanism(
        kind=mech.KIND_MULTI_UNIT,
        n=3,
        units=2,
        grid=TENTHS,
    )
    assert welfare(mu, (0.4, 0.3, 0.3), (1.0, 0.5, 0.2)) == pytest.approx(1.5, abs=1e-15)


def test_optimal_welfare():
    m = fp(2, QUARTERS)
    assert mech.optimal_welfare((1.0, 0.5), m) == 1.0
    assert mech.optimal_welfare((0.0, 0.0), m) == 0.0
    mu = mech.Mechanism(
        kind=mech.KIND_MULTI_UNIT,
        n=3,
        units=2,
        grid=TENTHS,
    )
    assert mech.optimal_welfare((1.0, 0.5, 0.2), mu) == 1.5


def test_off_grid_and_arity_rejected():
    m = fp(2, QUARTERS)
    with pytest.raises(InputError):
        m.validate_values((1.0,))
    with pytest.raises(InputError):
        m.validate_values((1.5, 0.5))  # value above the scale
    with pytest.raises(InputError):
        mech.optimal_welfare((1.0, 0.5, 0.2), m)


def test_grid_invariants():
    for grid, scale in [
        ((0.5, 1.0), 1.0),  # must contain 0
        ((0.0, 0.5, 0.5), 1.0),  # strictly increasing
        ((0.0, 2.0), 1.0),  # above the scale
        ((), 1.0),  # empty
        ((0.0,), 0.0),  # the scale must be positive
    ]:
        with pytest.raises(InputError):
            fp(1, grid, scale=scale)
    m = fp(2, mech.uniform_grid(0.25, 1.0))
    assert m.grid == QUARTERS


def test_one_grid_is_stored_as_a_canonical_tuple():
    # every seat bids on the one grid, checked and stored once
    m = fp(5, mech.uniform_grid(1 / 32767))
    assert len(m.grid) == 32768 and m.sizes == (32768,) * 5
    m = fp(3, list(QUARTERS))
    assert m.grid == QUARTERS and isinstance(m.grid, tuple)
    # points are kept to 12 decimals, so 3 * 0.1 is the grid's 0.3
    assert fp(1, (0.0, 0.1, 2 * 0.1, 3 * 0.1)).grid == TENTHS[:4]


def test_mechanism_validation():
    with pytest.raises(InputError):
        mech.Mechanism(kind="second-price", n=1, grid=mech.uniform_grid(0.5))
    with pytest.raises(InputError):
        mech.Mechanism(
            kind=mech.KIND_MULTI_UNIT,
            n=2,
            units=3,
            grid=mech.uniform_grid(0.5),
        )
    with pytest.raises(InputError):
        mech.Mechanism(
            kind=mech.KIND_FIRST_PRICE,
            n=2,
            units=2,
            grid=mech.uniform_grid(0.5),
        )


def test_identity_against_independent_recomputation():
    """Table utilities and revenue equal the standalone oracle's, and their
    sum is the value of the allocation."""
    rng = np.random.default_rng(5)
    kinds = [mech.KIND_FIRST_PRICE, mech.KIND_ALL_PAY, mech.KIND_MULTI_UNIT]
    for _ in range(300):
        kind = kinds[rng.integers(3)]
        n = int(rng.integers(1, 5)) if kind != mech.KIND_MULTI_UNIT else int(rng.integers(2, 5))
        units = int(rng.integers(1, n + 1)) if kind == mech.KIND_MULTI_UNIT else 1
        m = mech.Mechanism(kind=kind, n=n, units=units, grid=mech.uniform_grid(0.25))
        bids = [QUARTERS[rng.integers(5)] for _ in range(n)]
        values = [QUARTERS[rng.integers(5)] for _ in range(n)]
        utilities, revenue = outcome(m, bids, values)
        want_u, want_rev, _ = oracles.auction_outcome(kind, bids, values, units)
        assert list(utilities) == want_u and revenue == want_rev
        sw = sum(utilities) + revenue
        assert abs(sw - oracles.allocation_welfare(kind, bids, values, units)) <= 1e-12


def test_welfare_dominated_by_optimum():
    m = fp(2, (0.0, 0.5, 1.0))
    for v in mech.value_profiles([[0.0, 0.5, 1.0]] * 2):
        opt = mech.optimal_welfare(v, m)
        for a in itertools.product((0.0, 0.5, 1.0), repeat=2):
            assert welfare(m, a, v) <= opt + 1e-12


def test_all_pay_welfare_is_winner_value():
    ap = mech.Mechanism(kind=mech.KIND_ALL_PAY, n=2, grid=QUARTERS)
    v = (0.75, 0.5)
    for a in itertools.product(QUARTERS, repeat=2):
        utilities, _ = outcome(ap, a, v)
        # a loser pays its bid for nothing; both values are positive
        winners = [i for i in range(2) if utilities[i] != -a[i]]
        assert len(winners) == 1
        assert welfare(ap, a, v) == pytest.approx(v[winners[0]], abs=1e-12)


def test_tie_break_is_minimal_index():
    m = fp(3, QUARTERS)
    assert outcome(m, (0.5, 0.5, 0.5), (0.2, 0.9, 0.9))[0] == (0.2 - 0.5, 0.0, 0.0)
    # moving the equal high bids to later seats never steals the win from
    # the earliest max bidder
    assert outcome(m, (0.25, 0.5, 0.5), (0.2, 0.9, 0.9))[0] == (0.0, 0.9 - 0.5, 0.0)


def test_utility_table_matches_plays():
    grid = (0.0, 0.25, 0.5, 1.0)  # not uniform: the tables take any grid
    m = fp(2, grid)
    table = mech.utility_table(m, 0, 0.8)
    assert table.shape == (4, 4)
    assert not table.flags.writeable
    for bi, b in enumerate(grid):
        for oi, ob in enumerate(grid):
            u, _, _ = oracles.auction_outcome(m.kind, (b, ob), (0.8, 0.0))
            assert table[bi, oi] == u[0]
    # C order whatever the seat: callers' matrix products sum in layout order
    assert mech.utility_table(m, 1, 0.5).flags.c_contiguous
    # single-player table has one opponent column
    sp = fp(1, (0.0, 0.5))
    assert mech.utility_table(sp, 0, 1.0).shape == (2, 1)


def test_revenue_table_matches_plays():
    ap = mech.Mechanism(
        kind=mech.KIND_ALL_PAY,
        n=2,
        grid=(0.0, 0.25, 0.75),
    )
    rev = mech.revenue_table(ap)
    assert not rev.flags.writeable
    flat = 0
    for b0 in ap.grid:
        for b1 in ap.grid:
            _, want, _ = oracles.auction_outcome(ap.kind, (b0, b1), (0.0, 0.0))
            assert rev[flat] == want
            flat += 1


@st.composite
def table_cases(draw):
    kind = draw(st.sampled_from(
        [mech.KIND_FIRST_PRICE, mech.KIND_ALL_PAY, mech.KIND_MULTI_UNIT]
    ))
    n = draw(st.integers(1, 4))
    units = draw(st.integers(1, n)) if kind == mech.KIND_MULTI_UNIT else 1
    scale = draw(st.sampled_from([1.0, 0.7]))
    point = st.integers(1, 20).map(lambda x: round(scale * x / 20, 12))
    grid = (0.0,) + tuple(sorted(draw(st.sets(point, max_size=3))))
    m = mech.Mechanism(kind=kind, n=n, units=units, grid=grid, scale=scale)
    value = st.one_of(st.just(0.0), st.just(scale), st.floats(0.0, scale))
    values = tuple(draw(value) for _ in range(n))
    return m, values


@settings(max_examples=150, deadline=None)
@given(case=table_cases())
def test_tables_match_the_oracle(case):
    """Every table entry equals the rule applied to its profile directly. The
    only difference allowed is the sign of zero: the table's all-pay loser at
    bid 0 gets -0.0, the oracle's 0.0 - 0.0 gives 0.0, and == ignores it."""
    m, values = case
    tables = [mech.utility_table(m, i, values[i]) for i in range(m.n)]
    rev = mech.revenue_table(m)
    sizes = m.sizes
    for flat, idx in enumerate(itertools.product(*[range(s) for s in sizes])):
        bids = [m.grid[idx[i]] for i in range(m.n)]
        want_u, want_rev, _ = oracles.auction_outcome(m.kind, bids, values, m.units)
        assert rev[flat] == want_rev
        for i in range(m.n):
            others = [j for j in range(m.n) if j != i]
            opp = np.ravel_multi_index([idx[j] for j in others], [sizes[j] for j in others])
            assert tables[i][idx[i], opp] == want_u[i], (i, bids)
            # the shared opponent layout agrees with this recount
            assert mech.opponent_index(idx, sizes, i) == opp
            assert np.dot(idx, mech.opponent_places(sizes, i)) == opp


def test_table_cap_enforced(monkeypatch):
    m = fp(2, QUARTERS)
    # a cached table would skip the check
    mech.utility_table.cache_clear()
    mech.revenue_table.cache_clear()
    monkeypatch.setattr(mech, "TABLE_CAP", 3)
    with pytest.raises(InputError, match="over the cap of 3"):
        mech.utility_table(m, 0, 1.0)
    with pytest.raises(InputError, match="over the cap of 3"):
        mech.revenue_table(m)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 7), min_size=0, max_size=4),
    data=st.data(),
)
def test_c_order_is_product_order_with_radix_place_values(sizes, data):
    # every flattened profile is numpy's C order over its digits: the order
    # of itertools.product, with radix_place_values as its place values
    expected = list(itertools.product(*[range(s) for s in sizes]))
    count = len(expected)
    places = mech.radix_place_values(sizes)
    assert [sum(d * w for d, w in zip(t, places)) for t in expected] == list(range(count))
    if not sizes:  # no caller flattens an empty shape
        return
    flat = data.draw(st.integers(0, count - 1))
    digits = np.unravel_index(flat, sizes)
    assert tuple(int(d) for d in digits) == expected[flat]
    assert int(np.ravel_multi_index(digits, sizes)) == flat
    cols = np.unravel_index(np.arange(count), sizes)
    assert list(zip(*[c.tolist() for c in cols])) == expected
    np.testing.assert_array_equal(np.ravel_multi_index(cols, sizes), np.arange(count))


def test_descriptor_round_trip():
    m = fp(2, QUARTERS)
    d = m.to_descriptor()
    assert d == {
        "kind": "first-price",
        "n": 2,
        "k": 1,
        "grid_step": 0.25,
        "H": 1.0,
        "tie_break": mech.TIE_LOWEST,
    }
    assert mech.Mechanism.from_descriptor(d) == m
    with pytest.raises(InputError):
        mech.Mechanism.from_descriptor({**d, "extra": 1})
    with pytest.raises(InputError, match="tie_break"):
        mech.Mechanism.from_descriptor({**d, "tie_break": "random"})
    bad = dict(d)
    del bad["kind"]
    with pytest.raises(InputError):
        mech.Mechanism.from_descriptor(bad)


def descriptor(step, H):
    return {"kind": "first-price", "n": 2, "k": 1, "grid_step": step, "H": H,
            "tie_break": mech.TIE_LOWEST}


@pytest.mark.parametrize("H", [0.6, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("step", ["H/3", "H/6", "H/7", "H/32767", 0.1, 0.05])
def test_every_loaded_grid_is_written_back(H, step):
    # H/3 is no 12-decimal number: at H = 1 its first positive bid,
    # 0.333333333333, rebuilds 0.666666666666 where the grid holds
    # 0.666666666667, so the step written is H / (bids - 1); 12-decimal
    # steps are written as read
    step = H / int(step[2:]) if isinstance(step, str) else step
    m = mech.Mechanism.from_descriptor(descriptor(step, H))
    d = m.to_descriptor()
    assert mech.Mechanism.from_descriptor(d) == m
    assert mech.uniform_grid(d["grid_step"], H) == m.grid
    if step in (0.1, 0.05):
        assert d["grid_step"] == step


def test_a_grid_no_step_writes_back_is_refused():
    # 0.1000000000004 moves its bids up to 4e-12 off the tenths, which
    # neither 0.1 nor H / 10 rebuilds; the descriptor is refused as it is read
    with pytest.raises(InputError, match="^mechanism: no grid step rebuilds"):
        mech.Mechanism.from_descriptor(descriptor(0.1000000000004, 1.0))
    # a grid with a gap, and one that stops below its scale
    for grid in ((0.0, 0.25, 1.0), (0.0, 0.5)):
        with pytest.raises(InputError, match="no grid step rebuilds"):
            fp(2, grid).to_descriptor()


def test_value_profiles_order():
    profs = mech.value_profiles([[0.5, 1.0], [0.25]])
    assert profs == [(0.5, 0.25), (1.0, 0.25)]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.sampled_from((1, 2, 3, 11, mech.INDEX_LIMIT)), min_size=1, max_size=7),
    rows=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_profile_index_matches_unique_rows(sizes, rows, seed):
    # digits drawn from at most 3 values repeat rows often; small products of
    # sizes are ranked by counting, larger ones by sorting, and five or more
    # 32768-sized digits overflow int64 and take the re-ranking step
    rng = np.random.default_rng(seed)
    table = rng.integers(0, np.minimum(sizes, 3), size=(rows, len(sizes))).astype(np.int16)
    check_profile_index(table, sizes)


def check_profile_index(table, sizes):
    _, inverse, counts = np.unique(table, axis=0, return_inverse=True, return_counts=True)
    rank, cnt = mech.profile_index(table.T, sizes)
    np.testing.assert_array_equal(rank, inverse.reshape(-1))
    np.testing.assert_array_equal(cnt, counts)


def test_profile_index_reranks_before_int64_overflow():
    sizes = [mech.INDEX_LIMIT] * 6  # a product of 2**90
    rng = np.random.default_rng(5)
    table = rng.integers(0, mech.INDEX_LIMIT, size=(200, 6)).astype(np.int16)
    table[100:] = table[:100]  # every row occurs twice
    table[::7, 0] = mech.INDEX_LIMIT - 1  # digits at the top of the range
    check_profile_index(table, sizes)
