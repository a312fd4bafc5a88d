"""Hedge and bandit arithmetic, step schedules, learner state, regret accounting.

The update rules run inline in the simulator's round loop, which the
reference engine's per-agent learner ``oracles._Learner`` pins bit for bit;
the closed-form checks below are made against that learner.
"""

import math

import numpy as np
import pytest

from regretlab import InputError
from regretlab import learners as ln

from . import oracles


def sample(learner, rng):
    """Draw an action from a learner's distribution by CDF inversion of one
    uniform, the arithmetic the simulator's loop uses."""
    cdf = np.cumsum(learner.probabilities())
    j = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(j, learner.n_actions - 1)


def ledger_of(utility_rows, chosen):
    """The one-agent ledger of an agent that earned
    ``utility_rows[t][chosen[t]]`` on each of its selected rounds."""
    rows = [np.asarray(u, dtype=float) for u in utility_rows]
    counterfactual = np.zeros(len(rows[0]))
    realized = 0.0
    for u, a in zip(rows, chosen):
        counterfactual += u
        realized += float(u[a])
    return ln.RegretLedger(counterfactual=counterfactual[None, :],
                           realized=np.array([realized]),
                           selected_rounds=np.array([len(rows)]))


def average_regret(ledger):
    """Each agent's time-averaged external regret
    max_a (counterfactual(a) - realized) / selected rounds."""
    return ledger.gaps().max(axis=1) / ledger.selected_rounds


def test_hedge_single_update():
    lone = oracles._Learner(2)
    lone.hedge(np.array([1.0, 0.0]), math.log(2.0))
    assert lone.weights.tolist() == [2.0, 1.0]
    np.testing.assert_allclose(lone.probabilities(), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert lone.t_sel == 1


def test_hedge_equal_utilities_keep_probabilities():
    lone = oracles._Learner(3)
    before = lone.probabilities().copy()
    lone.hedge(np.array([0.4, 0.4, 0.4]), 1.3)
    np.testing.assert_allclose(lone.probabilities(), before, atol=1e-15)


def test_hedge_concentrates_on_dominant_action():
    lone = oracles._Learner(3)
    for _ in range(50):
        lone.hedge(np.array([0.0, 0.0, 1.0]), 1.0)
    p = lone.probabilities()
    assert p[2] >= 0.99
    assert p[2] == pytest.approx(math.exp(50.0) / (2.0 + math.exp(50.0)), rel=1e-12)


def test_hedge_matches_closed_form_with_anytime_schedule():
    rng = np.random.default_rng(3)
    lone = oracles._Learner(5)
    rows, etas = [], []
    for t in range(1, 41):
        u = rng.random(5)
        lone.hedge(u, float(ln.anytime_eta(5, lone.t_sel + 1)))
        rows.append(u)
        etas.append(math.sqrt(math.log(5.0) / t))
    np.testing.assert_allclose(
        lone.probabilities(), oracles.hedge_probabilities(rows, etas), atol=1e-12
    )


def test_probabilities_normalized_after_every_update():
    rng = np.random.default_rng(11)
    lone = oracles._Learner(4)
    for t in range(1, 200):
        lone.hedge(rng.uniform(-1.0, 1.0, 4), float(ln.anytime_eta(4, t)))
        state = ln.LearnerState(lone.weights[None], gamma=0.1)
        assert abs(state.probabilities().sum() - 1.0) < 1e-12


def test_weight_ceiling_renormalization_preserves_distribution():
    lone = oracles._Learner(2)
    rows = [(1.0, 0.0)] * 300
    etas = [1.0] * 300
    for u, eta in zip(rows, etas):
        lone.hedge(np.array(u), eta)
    assert lone.renormalizations >= 1
    assert lone.weights.max() <= ln.WEIGHT_CEILING
    np.testing.assert_allclose(
        lone.probabilities(), oracles.hedge_probabilities(rows, etas), atol=1e-300
    )
    # the library's renormalization rescales row 0, which passed the
    # ceiling, and leaves row 1 exactly as it was
    weights = np.array([[4e100, 2e100], [3.0, 1.0]])
    assert ln.ceiling_headroom(weights) < 0.0
    ln.renormalize(weights)
    assert weights.tolist() == [[1.0, 0.5], [3.0, 1.0]]
    assert ln.ceiling_headroom(weights) == pytest.approx(math.log(1e100 / 3.0))


def test_rows_update_independently():
    # each row of a batched state samples from the distribution a lone
    # learner with its weights would, bit for bit, with and without
    # exploration; 11 actions take numpy's pairwise row sums
    rng = np.random.default_rng(4)
    weights = rng.uniform(0.5, 2.0, (3, 11)) * np.array([[1.0], [1e90], [1e-50]])
    for gamma in (0.0, 0.2):
        p = ln.LearnerState(weights, gamma=gamma).probabilities()
        for r in range(3):
            lone = oracles._Learner(11, gamma)
            lone.weights = weights[r].copy()
            assert lone.probabilities().tobytes() == p[r].tobytes()
    # the selected-round counts of a block of rounds: rows 2 and 1 update in
    # the first round, rows 0 and 2 in the second; row 3 never does
    t_sel = np.array([0, 4, 0, 7])
    counts = ln.count_selections(t_sel, [[2, 1], [0, 2]])
    assert counts.tolist() == [[1, 5], [1, 2]]
    assert t_sel.tolist() == [1, 5, 2, 7]


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
    lone = oracles._Learner(2)
    # p(chosen) = 0.5, estimate = 1 / 0.5 = 2, exponent 0.1 * 2
    lone.bandit(1, 1.0, 0.1)
    assert lone.weights[1] == pytest.approx(math.exp(0.2), rel=1e-12)
    assert lone.weights[0] == 1.0
    # the estimate divides by the exploration-mixed probability:
    # p(1) = 0.8 * 1/4 + 0.2 / 2 = 0.3
    mixed = oracles._Learner(2, gamma=0.2)
    mixed.weights = np.array([3.0, 1.0])
    mixed.bandit(1, 0.6, 0.5)
    assert mixed.weights[1] == pytest.approx(math.exp(0.5 * 0.6 / 0.3), rel=1e-12)


def test_bandit_update_has_the_scalar_arithmetic():
    # each row's new weight is w * math.exp(eta * (u / p)) to the last bit,
    # with p read off the batched state's distribution; an array exp differs
    # from math.exp in the last bit on a few percent of inputs, which a trace
    # would only show after a draw lands on the shifted CDF boundary
    rng = np.random.default_rng(5)
    rows = 400
    weights = rng.uniform(0.5, 2.0, (rows, 11))
    chosen = rng.integers(0, 11, rows)
    u = rng.random(rows)
    p = ln.LearnerState(weights, gamma=0.1).probabilities()[np.arange(rows), chosen]
    for r in range(rows):
        lone = oracles._Learner(11, gamma=0.1)
        lone.weights = weights[r].copy()
        lone.bandit(int(chosen[r]), float(u[r]), 0.3)
        assert lone.weights[chosen[r]] == weights[r, chosen[r]] * math.exp(0.3 * (u[r] / p[r]))


def test_bandit_full_exploration_samples_uniformly():
    st = ln.LearnerState(weights=np.array([[100.0, 1.0]]), gamma=1.0)
    np.testing.assert_allclose(st.probabilities(), [[0.5, 0.5]], atol=1e-15)


def test_bandit_beats_stochastic_gap():
    # two Bernoulli arms with means 0.75 and 0.25; the time-averaged shortfall
    # from the best arm must fall below 0.05 by T = 1e5
    rng = np.random.default_rng(1)
    lone = oracles._Learner(2, gamma=0.05)
    T = 100_000
    eta = 0.05 / 2.0
    total = 0.0
    for _ in range(T):
        a = sample(lone, rng)
        u = float(rng.random() < (0.75 if a == 0 else 0.25))
        total += u
        lone.bandit(a, u, eta)
    assert 0.75 - total / T < 0.05


def test_learner_state_validation():
    with pytest.raises(InputError):
        ln.LearnerState(weights=np.array([[1.0, 0.0]]))
    with pytest.raises(InputError):
        ln.LearnerState(weights=np.ones((1, 2)), gamma=1.5)
    with pytest.raises(InputError):
        ln.LearnerState(weights=np.ones(2))  # one row is (1, n)
    st = ln.LearnerState(weights=np.ones((3, 2)))
    assert st.t_sel.tolist() == [0, 0, 0]
    assert st.gamma == 0.0


def test_ledger_basic_regret():
    led = ledger_of([(1.0, 0.0), (1.0, 0.0)], [1, 1])
    assert average_regret(led).tolist() == [1.0]
    assert led.selected_rounds.tolist() == [2]


def test_ledger_argmax_play_has_nonpositive_regret():
    rng = np.random.default_rng(2)
    rows = rng.random((100, 4))
    led = ledger_of(rows, rows.argmax(axis=1))
    assert average_regret(led)[0] <= 0.0


def test_ledger_matches_reference():
    rng = np.random.default_rng(9)
    rows = rng.uniform(-1.0, 1.0, (57, 3))
    chosen = rng.integers(3, size=57)
    led = ledger_of(rows, chosen)
    want = oracles.regret_reference(rows, chosen)
    assert average_regret(led)[0] == pytest.approx(want, abs=1e-12)


def test_ledger_gaps_subtract_each_agents_own_realized_sum():
    # three agents over two actions: row g loses realized[g], not another
    # agent's sum
    led = ln.RegretLedger(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]),
                          np.array([0.5, 4.0, 0.0]), np.array([1, 2, 0]))
    assert led.gaps().tolist() == [[0.5, 1.5], [-1.0, 0.0], [0.0, 0.0]]


def test_hedge_meets_its_regret_bound_on_adversarial_sequences():
    rng = np.random.default_rng(7)
    lone = oracles._Learner(4)
    T = 10_000
    rows, chosen = [], []
    for _ in range(T):
        u = (rng.random(4) < 0.5).astype(float)
        chosen.append(sample(lone, rng))
        rows.append(u)
        lone.hedge(u, float(ln.anytime_eta(4, lone.t_sel + 1)))
    bound = 2.0 * math.sqrt(math.log(4.0) / T) + 0.01
    assert average_regret(ledger_of(rows, chosen))[0] <= bound
