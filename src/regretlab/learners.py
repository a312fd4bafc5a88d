"""Multiplicative-weights learner state and exact regret accounting.

One state holds many independent learners over the same action set, one per
row of its ``(rows, n_actions)`` weight array. Only the simulator's round
loop updates the weights, with one of two rules: full-feedback Hedge
multiplies exp(eta * utility) into every weight of a row, importance-weighted
bandit (Exp3) multiplies exp(eta * utility / p) into the chosen weight only,
where p is the exploration-mixed probability it was sampled with. Its Hedge
blocks repeat the float operations of ``probabilities`` at gamma 0 on a
(rounds, rows, bids) array, and its bandit step repeats them one row at a
time on Python lists (``scalar_step.ScalarStep``), so a change to one must be
made to the others. The loop never calls ``probabilities`` itself: it is the
reference both are tested against.
This module holds what the loop shares: the sampling distribution, the
step-size schedule, the selected-round counts and the weight-ceiling
renormalization. The regret ledger that ``simulator.rebuild_ledgers``
counts from a trace is one record per horizon whose fields are arrays with
one row per agent, the layout of the weights.

Updates happen only on rounds where the owning agent was matched into the
game; the anytime step size is therefore driven by the selected-round count,
not wall-clock rounds. Game utilities in [-H, H] are remapped to [0, 1]
before updating so the classical step-size schedule applies unchanged;
constant shifts do not change Hedge's probabilities, only the effective step
size.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InputError
from .records import record

# Renormalization threshold: divide a row's weights by their max once any of
# them passes this, which leaves its sampling probabilities untouched.
WEIGHT_CEILING = 1e100

# Bound on how far the rounding of one update (the exponent, exp, the product,
# and a caller's running sum of step sizes) can move ln(weight) past its exact
# value; each of these is off by at most a few units in the last place.
LOG_STEP_SLACK = 1e-9

# Largest log step one update may take: a weight at the ceiling, times
# exp(step) plus rounding, stays below the largest float.
MAX_LOG_STEP = math.log(sys.float_info.max) - math.log(WEIGHT_CEILING) - LOG_STEP_SLACK


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


@record
class LearnerState:
    """``weights[r]`` are learner ``r``'s weights and ``t_sel[r]`` its number
    of Hedge updates so far, as ``count_selections`` advances it (a bandit
    update leaves it alone); ``gamma`` is the uniform exploration share of
    the sampling distribution, 0 for Hedge."""

    weights: np.ndarray
    t_sel: np.ndarray | None = None
    gamma: float = 0.0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.size == 0:
            raise InputError("weights must be a nonempty (rows, actions) array")
        if np.any(self.weights <= 0):
            raise InputError("weights must stay strictly positive")
        if self.t_sel is None:
            self.t_sel = np.zeros(len(self.weights), dtype=np.int64)
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError(f"gamma must lie in [0, 1], got {self.gamma}")

    @property
    def n_actions(self) -> int:
        return self.weights.shape[1]

    def probabilities(self) -> np.ndarray:
        """Sampling distributions, one per row: the float operations the
        simulator's Hedge blocks and bandit step repeat, kept as the
        reference the tests compare them with."""
        p = self.weights / self.weights.sum(axis=1, keepdims=True)
        if self.gamma > 0.0:
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


@record
class RegretLedger:
    """Exact counterfactual bookkeeping of every agent over one horizon, one
    row per agent in flat agent order.

    ``counterfactual[g, a]`` sums the utility action ``a`` would have earned
    agent ``g`` on each of its selected rounds against the realized opponent
    bids; ``realized[g]`` sums what the agent actually earned over those
    ``selected_rounds[g]`` rounds. Rounds where an agent was not matched add
    nothing to its sums.
    """

    counterfactual: np.ndarray
    realized: np.ndarray
    selected_rounds: np.ndarray

    def gaps(self) -> np.ndarray:
        """Cumulative regret sums counterfactual(g, a) - realized(g)."""
        return self.counterfactual - self.realized[:, None]
