"""Hedge and bandit updates, step schedules, regret accounting."""

import math

import numpy as np
import pytest

from regretlab import InputError
from regretlab import learners as ln

from . import oracles


ROW = [0]  # the single row of a one-learner state


def sample(state, rng):
    """Draw an action from a one-row state's distribution by CDF inversion of
    one uniform, the arithmetic the simulator's loop uses."""
    cdf = np.cumsum(state.probabilities()[0])
    j = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(j, state.n_actions - 1)


def test_hedge_single_update():
    st = ln.LearnerState.fresh(ln.HEDGE, 2)
    ln.hedge_update(st, ROW, [(1.0, 0.0)], math.log(2.0))
    assert st.weights.tolist() == [[2.0, 1.0]]
    np.testing.assert_allclose(st.probabilities(), [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)
    assert st.t_sel.tolist() == [1]


def test_hedge_equal_utilities_keep_probabilities():
    st = ln.LearnerState.fresh(ln.HEDGE, 3)
    before = st.probabilities().copy()
    ln.hedge_update(st, ROW, [(0.4, 0.4, 0.4)], 1.3)
    np.testing.assert_allclose(st.probabilities(), before, atol=1e-15)


def test_hedge_concentrates_on_dominant_action():
    st = ln.LearnerState.fresh(ln.HEDGE, 3)
    for _ in range(50):
        ln.hedge_update(st, ROW, [(0.0, 0.0, 1.0)], 1.0)
    p = st.probabilities()[0]
    assert p[2] >= 0.99
    assert p[2] == pytest.approx(math.exp(50.0) / (2.0 + math.exp(50.0)), rel=1e-12)


def test_hedge_matches_closed_form_with_anytime_schedule():
    rng = np.random.default_rng(3)
    st = ln.LearnerState.fresh(ln.HEDGE, 5)
    rows, etas = [], []
    for t in range(1, 41):
        u = rng.random(5)
        ln.hedge_update(st, ROW, [u])  # eta None: the anytime schedule
        rows.append(u)
        etas.append(math.sqrt(math.log(5.0) / t))
    np.testing.assert_allclose(
        st.probabilities()[0], oracles.hedge_probabilities(rows, etas), atol=1e-12
    )


def test_probabilities_normalized_after_every_update():
    rng = np.random.default_rng(11)
    st = ln.LearnerState.fresh(ln.HEDGE, 4)
    for t in range(1, 200):
        ln.hedge_update(st, ROW, [rng.uniform(-1.0, 1.0, 4)], ln.anytime_eta(4, t))
        assert abs(st.probabilities().sum() - 1.0) < 1e-12


def test_weight_ceiling_renormalization_preserves_distribution():
    # row 0 passes the ceiling and is rescaled; row 1, updated alongside it
    # with zero utilities, stays exactly as it was
    st = ln.LearnerState.fresh(ln.HEDGE, 2, rows=2)
    rows = [(1.0, 0.0)] * 300
    etas = [1.0] * 300
    for u, eta in zip(rows, etas):
        ln.hedge_update(st, [0, 1], [u, (0.0, 0.0)], eta)
    assert st.weights.max() <= ln.WEIGHT_CEILING
    np.testing.assert_allclose(
        st.probabilities()[0], oracles.hedge_probabilities(rows, etas), atol=1e-300
    )
    assert st.weights[1].tolist() == [1.0, 1.0]


def test_rows_update_independently():
    # updates of rows 0 and 2 of a three-row state equal the same updates of
    # one-row states bit for bit, each row at its own anytime step; row 1 is
    # never touched
    rng = np.random.default_rng(4)
    first, second = rng.random((1, 3)), rng.random((2, 3))
    batch = ln.LearnerState.fresh(ln.HEDGE, 3, rows=3)
    ln.hedge_update(batch, [2], first)
    ln.hedge_update(batch, [0, 2], second)
    assert batch.t_sel.tolist() == [1, 0, 2]
    assert batch.weights[1].tolist() == [1.0, 1.0, 1.0]
    for r, updates in ((0, [second[0]]), (2, [first[0], second[1]])):
        lone = ln.LearnerState.fresh(ln.HEDGE, 3)
        for u in updates:
            ln.hedge_update(lone, ROW, [u])
        assert lone.weights[0].tobytes() == batch.weights[r].tobytes()

    bandit = ln.LearnerState.fresh(ln.BANDIT, 2, gamma=0.2, rows=2)
    ln.bandit_update(bandit, [1, 0], [0, 1], np.array([0.5, 1.0]), 0.3)
    assert bandit.t_sel.tolist() == [1, 1]
    for r, (a, x) in enumerate(((1, 1.0), (0, 0.5))):
        lone = ln.LearnerState.fresh(ln.BANDIT, 2, gamma=0.2)
        ln.bandit_update(lone, ROW, [a], np.array([x]), 0.3)
        assert lone.weights[0].tobytes() == bandit.weights[r].tobytes()


def test_anytime_eta():
    assert ln.anytime_eta(2, 1) == pytest.approx(math.sqrt(math.log(2.0)), rel=1e-12)
    assert ln.anytime_eta(8, 4) == pytest.approx(math.sqrt(math.log(8.0) / 4.0), rel=1e-12)
    # elementwise over counts, with the correctly rounded arithmetic of math
    counts = np.arange(1, 200)
    assert ln.anytime_eta(11, counts).tolist() == [
        math.sqrt(math.log(11) / t) for t in range(1, 200)
    ]
    with pytest.raises(InputError):
        ln.anytime_eta(2, 0)
    with pytest.raises(InputError):
        ln.anytime_eta(2, np.array([3, 0]))


def test_bandit_update_is_importance_weighted():
    st = ln.LearnerState.fresh(ln.BANDIT, 2, gamma=0.0)
    # p(chosen) = 0.5, estimate = 1 / 0.5 = 2, exponent 0.1 * 2
    ln.bandit_update(st, ROW, [1], np.array([1.0]), 0.1)
    assert st.weights[0, 1] == pytest.approx(math.exp(0.2), rel=1e-12)
    assert st.weights[0, 0] == 1.0
    # the estimate divides by the exploration-mixed probability of the state:
    # p(1) = 0.8 * 1/4 + 0.2 / 2 = 0.3
    mixed = ln.LearnerState(kind=ln.BANDIT, weights=np.array([[3.0, 1.0]]), gamma=0.2)
    ln.bandit_update(mixed, ROW, [1], np.array([0.6]), 0.5)
    assert mixed.weights[0, 1] == pytest.approx(math.exp(0.5 * 0.6 / 0.3), rel=1e-12)


def test_bandit_update_has_the_scalar_arithmetic():
    # each row's new weight is w * math.exp(eta * (u / p)) to the last bit;
    # an array exp differs from math.exp in the last bit on a few percent of
    # inputs, which a trace would only show after a draw lands on the
    # shifted CDF boundary
    rng = np.random.default_rng(5)
    rows = 400
    st = ln.LearnerState(kind=ln.BANDIT, weights=rng.uniform(0.5, 2.0, (rows, 4)),
                         gamma=0.1)
    chosen = rng.integers(0, 4, rows)
    u = rng.random(rows)
    p = st.probabilities()[np.arange(rows), chosen]
    want = [w * math.exp(0.3 * (x / q))
            for w, x, q in zip(st.weights[np.arange(rows), chosen], u, p)]
    ln.bandit_update(st, np.arange(rows), chosen, u, 0.3)
    assert st.weights[np.arange(rows), chosen].tolist() == want


def test_bandit_full_exploration_samples_uniformly():
    st = ln.LearnerState(kind=ln.BANDIT, weights=np.array([[100.0, 1.0]]), gamma=1.0)
    np.testing.assert_allclose(st.probabilities(), [[0.5, 0.5]], atol=1e-15)


def test_bandit_beats_stochastic_gap():
    # two Bernoulli arms with means 0.75 and 0.25; the time-averaged shortfall
    # from the best arm must fall below 0.05 by T = 1e5
    rng = np.random.default_rng(1)
    st = ln.LearnerState.fresh(ln.BANDIT, 2, gamma=0.05)
    T = 100_000
    eta = 0.05 / 2.0
    total = 0.0
    for _ in range(T):
        a = sample(st, rng)
        u = float(rng.random() < (0.75 if a == 0 else 0.25))
        total += u
        ln.bandit_update(st, ROW, [a], np.array([u]), eta)
    assert 0.75 - total / T < 0.05


def test_learner_state_validation():
    with pytest.raises(InputError):
        ln.LearnerState(kind="follow-the-leader", weights=np.ones((1, 2)))
    with pytest.raises(InputError):
        ln.LearnerState(kind=ln.HEDGE, weights=np.array([[1.0, 0.0]]))
    with pytest.raises(InputError):
        ln.LearnerState(kind=ln.BANDIT, weights=np.ones((1, 2)), gamma=1.5)
    with pytest.raises(InputError):
        ln.LearnerState(kind=ln.HEDGE, weights=np.ones(2))  # one row is (1, n)
    st = ln.LearnerState.fresh(ln.BANDIT, 3, gamma=0.1)
    with pytest.raises(InputError):
        ln.bandit_update(st, ROW, [5], np.array([1.0]), 0.1)
    with pytest.raises(InputError):
        ln.bandit_update(st, ROW, [-1], np.array([1.0]), 0.1)
    with pytest.raises(InputError):
        ln.hedge_update(ln.LearnerState.fresh(ln.HEDGE, 2), ROW, [(1.0, 0.0, 0.0)], 0.5)
    with pytest.raises(InputError):
        ln.hedge_update(ln.LearnerState.fresh(ln.HEDGE, 2, rows=2), [0, 1], [(1.0, 0.0)], 0.5)


def test_ledger_basic_regret():
    led = ln.RegretLedger.fresh(2)
    led.record_selected((1.0, 0.0), 1)
    led.record_selected((1.0, 0.0), 1)
    assert ln.external_regret(led) == 1.0
    assert led.selected_rounds == 2


def test_ledger_argmax_play_has_nonpositive_regret():
    rng = np.random.default_rng(2)
    led = ln.RegretLedger.fresh(4)
    for _ in range(100):
        u = rng.random(4)
        led.record_selected(u, int(u.argmax()))
    assert ln.external_regret(led) <= 0.0


def test_ledger_matches_reference_and_ignores_unselected():
    rng = np.random.default_rng(9)
    led = ln.RegretLedger.fresh(3)
    rows, chosen = [], []
    for _ in range(57):
        u = rng.uniform(-1.0, 1.0, 3)
        a = int(rng.integers(3))
        led.record_selected(u, a)
        rows.append(u)
        chosen.append(a)
    want = oracles.regret_reference(rows, chosen)
    assert ln.external_regret(led) == pytest.approx(want, abs=1e-12)
    before = ln.external_regret(led)
    for _ in range(23):
        led.record_unselected()
    assert ln.external_regret(led) == before  # exact, not approximate
    assert led.unselected_rounds == 23


def test_empty_ledger_returns_zero():
    assert ln.external_regret(ln.RegretLedger.fresh(4)) == 0.0


def test_hedge_meets_its_regret_bound_on_adversarial_sequences():
    rng = np.random.default_rng(7)
    st = ln.LearnerState.fresh(ln.HEDGE, 4)
    led = ln.RegretLedger.fresh(4)
    T = 10_000
    for _ in range(T):
        u = (rng.random(4) < 0.5).astype(float)
        a = sample(st, rng)
        led.record_selected(u, a)
        ln.hedge_update(st, ROW, [u])
    bound = 2.0 * math.sqrt(math.log(4.0) / T) + 0.01
    assert ln.external_regret(led) <= bound
