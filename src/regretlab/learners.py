"""Multiplicative-weights learners and exact regret accounting.

Two update rules share one state object: ``hedge`` consumes a full
counterfactual utility vector each round, ``bandit`` consumes only the
realized utility of the chosen action and reweights it by the probability of
having chosen it (importance weighting), mixing a uniform exploration floor
into the sampling distribution.

One state holds many independent learners over the same action set, one per
row of its ``(rows, n_actions)`` weight array; an update touches only the
rows it is given, with the float operations a single learner would perform,
so a row's trajectory does not depend on the other rows.

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

# Renormalization threshold: divide a row's weights by their max once any of
# them passes this, which leaves its sampling probabilities untouched.
WEIGHT_CEILING = 1e100

# Bound on how far the rounding of one update (the exponent, exp, the product,
# and a caller's running sum of step sizes) can move ln(weight) past its exact
# value; each of these is off by at most a few units in the last place.
LOG_STEP_SLACK = 1e-9

HEDGE = "hedge"
BANDIT = "bandit"


def anytime_eta(n_actions: int, t_sel) -> np.ndarray:
    """Step size sqrt(ln|A| / t) for the t-th selected round (1-based),
    elementwise over an array of counts."""
    t = np.asarray(t_sel)
    if n_actions < 1 or t.min() < 1:
        raise InputError(f"need n_actions >= 1 and t_sel >= 1, got {n_actions}, {t_sel}")
    return np.sqrt(math.log(max(n_actions, 2)) / t)


def count_selections(t_sel: np.ndarray, rows) -> np.ndarray:
    """Selected-round count each update of a block of rounds brings its row to.

    ``rows[r]`` lists the distinct learner rows updated in round ``r`` of the
    block. Returns an array shaped like ``rows`` and advances ``t_sel`` past
    the block.
    """
    rows = np.asarray(rows)
    hits = np.zeros((len(rows), len(t_sel)), dtype=np.int64)
    np.put_along_axis(hits, rows, 1, axis=1)
    np.cumsum(hits, axis=0, out=hits)
    counts = t_sel[rows]
    counts += np.take_along_axis(hits, rows, axis=1)
    t_sel += hits[-1]
    return counts


@dataclass
class LearnerState:
    """``weights[r]`` and ``t_sel[r]`` are learner ``r``'s weights and its
    number of updates so far."""

    kind: str
    weights: np.ndarray
    t_sel: np.ndarray | None = None
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (HEDGE, BANDIT):
            raise InputError(f"unknown learner kind {self.kind!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.size == 0:
            raise InputError("weights must be a nonempty (rows, actions) array")
        if np.any(self.weights <= 0):
            raise InputError("weights must stay strictly positive")
        if self.t_sel is None:
            self.t_sel = np.zeros(len(self.weights), dtype=np.int64)
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError(f"gamma must lie in [0, 1], got {self.gamma}")

    @classmethod
    def fresh(
        cls, kind: str, n_actions: int, gamma: float = 0.0, rows: int = 1
    ) -> "LearnerState":
        return cls(kind=kind, weights=np.ones((rows, n_actions)), gamma=gamma)

    @property
    def n_actions(self) -> int:
        return self.weights.shape[1]

    def probabilities(self, rows=None) -> np.ndarray:
        """Sampling distributions of the given rows (default: all), one per row."""
        w = self.weights if rows is None else self.weights[rows]
        p = w / w.sum(axis=1, keepdims=True)
        if self.kind == BANDIT and self.gamma > 0.0:
            p = (1.0 - self.gamma) * p + self.gamma / self.n_actions
        return p


def renormalize(weights: np.ndarray) -> None:
    """Divide every row whose largest weight passed WEIGHT_CEILING by it."""
    if weights.max() > WEIGHT_CEILING:
        top = weights.max(axis=1)
        big = top > WEIGHT_CEILING
        weights[big] /= top[big, None]


def ceiling_headroom(weights: np.ndarray) -> float:
    """How far ln(weight) can grow, for every weight, before one of them can
    pass WEIGHT_CEILING. A caller may skip ``renormalize`` while the
    exponents it multiplied in since, each plus LOG_STEP_SLACK, sum to less."""
    return math.log(WEIGHT_CEILING) - math.log(float(weights.max()))


def hedge_update(state: LearnerState, rows, utilities, eta=None) -> LearnerState:
    """Multiply each weight of the given rows by exp(eta * utility).

    ``utilities`` holds one utility vector per row. ``eta`` is a fixed step
    size, or None for each row's anytime step at its new selected-round
    count. Mutates and returns state.
    """
    rows = np.asarray(rows)
    u = np.asarray(utilities, dtype=np.float64)
    if u.shape != (len(rows), state.n_actions):
        raise InputError(
            f"utilities have shape {u.shape}, expected {(len(rows), state.n_actions)}"
        )
    t_sel = count_selections(state.t_sel, rows[None])[0]
    if eta is None:
        eta = anytime_eta(state.n_actions, t_sel)[:, None]
    w = state.weights[rows] * np.exp(eta * u)
    renormalize(w)
    state.weights[rows] = w
    return state


def bandit_update(
    state: LearnerState, rows, chosen, realized_utilities, eta: float
) -> LearnerState:
    """Importance-weighted exponential update on each given row's chosen arm.

    The estimate utility / p(chosen) uses ``state.probabilities()``, the
    exploration-mixed distribution that generated the choice. Mutates and
    returns state.
    """
    rows = np.asarray(rows)
    chosen = np.asarray(chosen)
    if chosen.shape != rows.shape or chosen.min() < 0 or chosen.max() >= state.n_actions:
        raise InputError(f"chosen actions {chosen} out of range")
    k = np.arange(len(rows))
    exponents = eta * (realized_utilities / state.probabilities(rows)[k, chosen])
    w = state.weights[rows]
    # math.exp, not np.exp: the two can differ in the last bit
    w[k, chosen] *= [math.exp(x) for x in exponents.tolist()]
    renormalize(w)
    state.weights[rows] = w
    state.t_sel[rows] += 1
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
