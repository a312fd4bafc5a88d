"""The bandit round step of ``simulator._play_rounds``.

A bandit seed plays its rounds here, one at a time, in plain Python: each
learner row keeps its weights, sampling probabilities and CDF as lists,
rebuilt only when the row's weights change. Every float operation repeats
one of ``LearnerState.probabilities`` and numpy's ``cumsum`` on that row, the
reference the tests compare it with. Only bandit runs import the module;
Hedge runs do not compile it, which kept their peak RSS where it was.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from operator import add, mul

import numpy as np

from .learners import LOG_STEP_SLACK, LearnerState, ceiling_headroom, renormalize


def pairwise_sum(a: list) -> float:
    """Sum of the floats ``a`` in numpy's float64 summation order: in order
    below 8 terms, 8 running sums up to 128, halves split at a multiple of 8
    above, so it equals ``np.add.reduce`` bit for bit."""
    n = len(a)
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return res
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(a[:half]) + pairwise_sum(a[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = a[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0, r1, r2, r3, r4, r5, r6, r7 = map(
            add, (r0, r1, r2, r3, r4, r5, r6, r7), a[i:i + 8]
        )
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in a[end:]:
        res += x
    # numpy adds the sum to a zero of its own, which turns -0.0 into 0.0
    return 0.0 + res


def row_cdf(w: list, gamma: float) -> tuple[list, list, list]:
    """One weight row with its sampling probabilities and their CDF, by the
    float operations of ``LearnerState.probabilities`` and ``cumsum``."""
    total = pairwise_sum(w)
    if gamma > 0.0:
        keep, floor = 1.0 - gamma, gamma / len(w)
        p = [keep * (x / total) + floor for x in w]
    else:
        p = [x / total for x in w]
    return w, p, list(accumulate(p))


class ScalarStep:
    """One bandit seed's learner rows as Python lists, and the rounds that
    update them. ``state.weights`` is brought up to date only for a ceiling
    check. ``unit`` is the (cells, bids) unit utility table and ``eta`` the
    bandit step size."""

    def __init__(self, state: LearnerState, first_cell: np.ndarray,
                 opp_place: np.ndarray, unit: np.ndarray, eta: float):
        self.state = state
        A = state.n_actions
        # a row's table entries start at first[r] + sum(bids * place[i]), for
        # the row r of seat i's update
        self.first = (first_cell * A).tolist()
        self.place = (opp_place.T * A).tolist()
        self.eta = eta
        self.unit = unit.ravel()
        self.cache = [row_cdf(w, state.gamma) for w in state.weights.tolist()]

    def rounds(self, draws: np.ndarray, rows_at: np.ndarray, headroom: float):
        """Play one chunk: ``draws[c]`` and ``rows_at[c]`` are round c's
        uniforms and updated learner rows. Returns the commitments and
        realized bids, flat in round order, and the weight-ceiling headroom
        left."""
        state, cache, first, place = self.state, self.cache, self.first, self.place
        gamma, top = state.gamma, state.n_actions - 1
        eta, unit = self.eta, self.unit
        picks, played = [], []
        for c in range(len(draws)):
            # a round at a time: lists of a whole chunk raised the peak RSS
            us, rows = draws[c].tolist(), rows_at[c].tolist()
            # the count of CDF entries below the last at or below the draw
            # times the total, as ``simulator._sample`` counts them
            j = [bisect_right(cdf, u * cdf[-1], 0, top) for (_, _, cdf), u in zip(cache, us)]
            bids = [j[r] for r in rows]
            picks += j
            played += bids
            xs = []
            for r, b, pl in zip(rows, bids, place):
                o = first[r] + sum(map(mul, bids, pl))
                w, p, _ = cache[r]
                x = eta * (unit.item(o + b) / p[b])
                w[b] *= math.exp(x)
                xs.append(x)
                cache[r] = row_cdf(w, gamma)
            headroom -= max(xs) + LOG_STEP_SLACK
            if headroom < 0.0:
                state.weights[:] = [w for w, _, _ in cache]
                renormalize(state.weights)
                headroom = ceiling_headroom(state.weights)
                cache = [row_cdf(w, gamma) for w in state.weights.tolist()]
        self.cache = cache
        return picks, played, headroom
