"""``pcg64.Stream`` against numpy's ``Generator(PCG64(seed))``, its oracle.

Only the tests import numpy's random package; the simulator draws every
seed's stream through ``pcg64``. After each call the stream's state, its
increment and its kept 32-bit half must be the ones numpy reports.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretlab import pcg64

K = pcg64.TABLE
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**128)


def seeds(test):
    """Hypothesis seeds in [0, 2**256), the seeding's word-count edges first."""
    test = given(seed=st.integers(0, 2**256 - 1))(test)
    for seed in EDGE_SEEDS:
        test = example(seed=seed)(test)
    return settings(max_examples=30, deadline=None)(test)


def oracle(seed):
    return np.random.Generator(np.random.PCG64(seed))


def assert_same_state(gen, stream):
    state = gen.bit_generator.state
    assert state["state"] == {"state": stream.state, "inc": stream.inc}
    assert state["has_uint32"] == (stream.half is not None)
    if stream.half is not None:
        assert state["uinteger"] == stream.half


@seeds
def test_seeding_matches_numpy(seed):
    assert_same_state(oracle(seed), pcg64.Stream(seed))


@seeds
def test_doubles_match_numpy_across_table_edges(seed):
    gen, stream = oracle(seed), pcg64.Stream(seed)
    for size in (1, K - 1, K, K + 1, 3 * K + 5):
        assert np.array_equal(stream.random(size), gen.random(size))
        assert_same_state(gen, stream)


@pytest.mark.parametrize("seed", EDGE_SEEDS[:2])
def test_advance_matches_numpy_and_drops_the_kept_half(seed):
    gen, stream = oracle(seed), pcg64.Stream(seed)
    for n in (0, 1, 3_000 * 4, 2**70):
        # an odd draw count leaves a half kept, which advance drops
        assert np.array_equal(stream.integers(5, 3), gen.integers(0, 5, size=3))
        assert stream.half is not None
        stream.advance(n)
        gen.bit_generator.advance(n)
        assert_same_state(gen, stream)
        assert np.array_equal(stream.random(5), gen.random(5))


@seeds
def test_integers_match_numpy_call_after_call(seed):
    gen, stream = oracle(seed), pcg64.Stream(seed)
    # odd sizes carry a half from call to call; 2**31 + 1 rejects about half
    # its words, so its calls take several blocks and rejection rounds
    for k, size in ((1, 3), (2, 7), (3, 1), (5, 2 * K + 3), (32768, 11), (2**31 + 1, 1),
                    (2**31 + 1, 3 * K + 5), (1, 4), (2, 1), (3, 2 * K)):
        assert np.array_equal(stream.integers(k, size), gen.integers(0, k, size=size))
        assert_same_state(gen, stream)
    # doubles leave the kept half as it is
    assert np.array_equal(stream.random(3), gen.random(3))
    assert_same_state(gen, stream)
    assert np.array_equal(stream.integers(7, 9), gen.integers(0, 7, size=9))
    assert_same_state(gen, stream)


def test_jump_composes_and_has_the_full_period():
    a, c = pcg64.jump(5)
    stream = pcg64.Stream(9)
    s, inc = stream.state, stream.inc
    state = s
    for _ in range(5):
        state = (state * pcg64.MULT + inc) % pcg64.MOD
    assert (a * s + c * inc) % pcg64.MOD == state
    assert pcg64.jump(2**128) == (1, 0)
