"""The bandit round step of ``rounds._play_rounds``.

A bandit seed plays its rounds here, one at a time, in plain Python: each
learner row keeps its weights, their total and its CDF as Python floats,
rebuilt only when the row's weights change, and an update recomputes the
probability of its bid from the weight and the total. Every float operation
repeats one of ``LearnerState.probabilities`` and numpy's ``cumsum`` on that
row, the reference the tests compare it with. The utility table and the
draws are read through memoryviews, which give Python floats without a
copy. Only bandit runs import the module; Hedge runs do not compile it,
which kept their peak RSS where it was.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from operator import add, mul

import numpy as np

from . import mechanisms as mech
from .learners import LOG_STEP_SLACK, LearnerState, ceiling_headroom, renormalize


def profile_table(config) -> np.ndarray:
    """A bandit seed's unit utilities (u + H) / 2H, (agents, A, ..., A):
    agent g's utility at the bid profile b of its n seats is entry
    ``[g, *b]``, its utility table with the own bid's axis moved to its
    seat, so one profile code serves every seat of a round."""
    m = config.mechanism
    n, A = m.n, len(m.grid)
    unit = np.empty((len(config.agents()), *[A] * n))
    for g, (pop, _ti, val) in enumerate(config.agents()):
        unit[g] = np.moveaxis(mech.utility_table(m, pop, val).reshape(unit[g].shape), 0, pop)
    unit += m.scale
    unit /= 2.0 * m.scale
    return unit


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


class ScalarStep:
    """One bandit seed's learner rows, and the rounds that update them.

    ``weights[r]``, ``totals[r]`` and ``cdfs[r]`` are row r's weights, their
    pairwise sum and the CDF of its sampling probabilities, whose entry b is
    ``keep * (weights[r][b] / totals[r]) + floor``: the float operations of
    ``LearnerState.probabilities``, where gamma 0 gives keep 1.0 and floor
    0.0, which leave the quotient's bits as they are. ``state.weights`` is
    brought up to date only for a ceiling check. ``unit`` is a
    ``profile_table``, read flat: agent g's utility at bid profile b is entry
    g * A**n + sum(b[s] * A**(n-1-s)). ``eta`` is the bandit step size.
    """

    def __init__(self, state: LearnerState, unit: np.ndarray, eta: float):
        self.state = state
        A, n = state.n_actions, unit.ndim - 1
        self.keep, self.floor = 1.0 - state.gamma, state.gamma / A
        self.powers = [A ** (n - 1 - s) for s in range(n)]
        self.first = [g * A**n for g in range(len(state.weights))]
        self.unit = memoryview(unit.ravel())
        self.eta = eta
        self._load()

    def _load(self) -> None:
        """Rebuild every row from ``state.weights``."""
        self.weights = self.state.weights.tolist()
        self.totals = [pairwise_sum(w) for w in self.weights]
        keep, floor = self.keep, self.floor
        self.cdfs = [list(accumulate([keep * (x / total) + floor for x in w]))
                     for w, total in zip(self.weights, self.totals)]

    def rounds(self, draws: np.ndarray, rows_at: np.ndarray, headroom: float):
        """Play one chunk: ``draws[c]`` and ``rows_at[c]`` are round c's
        uniforms, one per learner row, and updated rows, one per seat.
        Returns the commitments, flat in round order, and the weight-ceiling
        headroom left; a seat's realized bid is the commitment of its row."""
        weights, totals, cdfs = self.weights, self.totals, self.cdfs
        keep, floor, eta = self.keep, self.floor, self.eta
        unit, first, powers = self.unit, self.first, self.powers
        top, G = self.state.n_actions - 1, len(cdfs)
        us = memoryview(draws.ravel())
        exp = math.exp
        picks = []
        for c, rows in enumerate(rows_at.tolist()):
            # the count of CDF entries below the last at or below the draw
            # times the total, as ``rounds._sample`` counts them
            j = [bisect_right(cdf, u * cdf[-1], 0, top)
                 for cdf, u in zip(cdfs, us[c * G:c * G + G])]
            bids = [j[r] for r in rows]
            picks += j
            code = sum(map(mul, bids, powers))
            xs = []
            for r, b in zip(rows, bids):
                w, total = weights[r], totals[r]
                x = eta * (unit[first[r] + code] / (keep * (w[b] / total) + floor))
                w[b] *= exp(x)
                xs.append(x)
                totals[r] = total = pairwise_sum(w)
                cdfs[r] = list(accumulate([keep * (y / total) + floor for y in w]))
            headroom -= max(xs) + LOG_STEP_SLACK
            if headroom < 0.0:
                self.state.weights[:] = weights
                renormalize(self.state.weights)
                headroom = ceiling_headroom(self.state.weights)
                self._load()
                weights, totals, cdfs = self.weights, self.totals, self.cdfs
        return picks, headroom
