"""Multiplicative-weights learners and exact regret accounting.

Two update rules share one state object: ``hedge`` consumes a full
counterfactual utility vector each round, ``bandit`` consumes only the
realized utility of the chosen action and reweights it by the probability of
having chosen it (importance weighting), mixing a uniform exploration floor
into the sampling distribution.

Updates happen only on rounds where the owning agent was matched into the
game; the anytime step size is therefore driven by the selected-round count,
not wall-clock rounds. Callers feeding game utilities in [-H, H] should remap
them to [0, 1] before updating so the classical step-size schedule applies
unchanged; constant shifts do not change hedge's probabilities, only the
effective step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Renormalization threshold: divide weights by their max once any weight
# passes this, which leaves sampling probabilities untouched.
WEIGHT_CEILING = 1e100

HEDGE = "hedge"
BANDIT = "bandit"


def anytime_eta(n_actions: int, t_sel: int) -> float:
    """Step size sqrt(ln|A| / t) for the t-th selected round (1-based)."""
    if n_actions < 1 or t_sel < 1:
        raise InputError(f"need n_actions >= 1 and t_sel >= 1, got {n_actions}, {t_sel}")
    return math.sqrt(math.log(max(n_actions, 2)) / t_sel)


@dataclass
class LearnerState:
    kind: str
    weights: np.ndarray
    t_sel: int = 0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (HEDGE, BANDIT):
            raise InputError(f"unknown learner kind {self.kind!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or len(self.weights) == 0:
            raise InputError("weights must be a nonempty 1-d array")
        if np.any(self.weights <= 0):
            raise InputError("weights must stay strictly positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError(f"gamma must lie in [0, 1], got {self.gamma}")

    @classmethod
    def fresh(cls, kind: str, n_actions: int, gamma: float = 0.0) -> "LearnerState":
        return cls(kind=kind, weights=np.ones(n_actions), gamma=gamma)

    @property
    def n_actions(self) -> int:
        return len(self.weights)

    def probabilities(self) -> np.ndarray:
        p = self.weights / self.weights.sum()
        if self.kind == BANDIT and self.gamma > 0.0:
            p = (1.0 - self.gamma) * p + self.gamma / self.n_actions
        return p


def _renormalize(weights: np.ndarray) -> None:
    top = weights.max()
    if top > WEIGHT_CEILING:
        weights /= top


def hedge_update(state: LearnerState, utility_vector, eta: float) -> LearnerState:
    """Multiply each weight by exp(eta * utility). Mutates and returns state."""
    u = np.asarray(utility_vector, dtype=np.float64)
    if u.shape != state.weights.shape:
        raise InputError(
            f"utility vector has shape {u.shape}, expected {state.weights.shape}"
        )
    state.weights *= np.exp(eta * u)
    _renormalize(state.weights)
    state.t_sel += 1
    return state


def bandit_update(
    state: LearnerState, chosen_action: int, realized_utility: float, eta: float
) -> LearnerState:
    """Importance-weighted exponential update on the chosen arm only.

    The estimate utility / p(chosen) uses ``state.probabilities()``, the
    exploration-mixed distribution that generated the choice.
    """
    if not 0 <= chosen_action < state.n_actions:
        raise InputError(f"chosen_action {chosen_action} out of range")
    estimate = realized_utility / state.probabilities()[chosen_action]
    state.weights[chosen_action] *= math.exp(eta * estimate)
    _renormalize(state.weights)
    state.t_sel += 1
    return state


@dataclass
class RegretLedger:
    """Exact counterfactual bookkeeping for one agent.

    ``counterfactual[a]`` accumulates the utility action ``a`` would have
    earned on each selected round against the realized opponent bids;
    ``realized`` accumulates what the agent actually earned. Rounds where the
    agent was not matched contribute zero to both sums and are only counted.
    """

    counterfactual: np.ndarray
    realized: float = 0.0
    selected_rounds: int = 0
    unselected_rounds: int = 0

    @classmethod
    def fresh(cls, n_actions: int) -> "RegretLedger":
        return cls(counterfactual=np.zeros(n_actions))

    def record_selected(self, utility_vector, chosen_action: int) -> None:
        u = np.asarray(utility_vector, dtype=np.float64)
        if u.shape != self.counterfactual.shape:
            raise InputError(
                f"utility vector has shape {u.shape}, expected {self.counterfactual.shape}"
            )
        if not 0 <= chosen_action < len(u):
            raise InputError(f"chosen_action {chosen_action} out of range")
        self.counterfactual += u
        self.realized += float(u[chosen_action])
        self.selected_rounds += 1

    def record_unselected(self) -> None:
        self.unselected_rounds += 1

    def gaps(self) -> np.ndarray:
        """Cumulative regret sums counterfactual(a) - realized, one per action."""
        return self.counterfactual - self.realized


def external_regret(ledger: RegretLedger) -> float:
    """Time-averaged external regret max_a (counterfactual(a) - realized) / T.

    T counts the rounds that contribute to the sums, i.e. the selected ones;
    recording unselected rounds changes neither the sums nor the average.
    Returns 0.0 when nothing was recorded.
    """
    if ledger.selected_rounds == 0:
        return 0.0
    return float(ledger.gaps().max()) / ledger.selected_rounds
