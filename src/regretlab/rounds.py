"""The round loop of one seed, which ``simulator.run_repeated_game`` runs.
Only it imports this module.

The loop works through the rounds in chunks of DRAW_CHUNK. The types are
drawn before play, so a chunk first works out everything play cannot
change (each round's learner rows and Hedge step sizes). Hedge then plays
the rounds in verified blocks: only the selected agents' bids couple the
rounds, and a CDF a few updates stale nearly always gives the same bid, so
a block plays many rounds from guessed bids in a few numpy calls and keeps
those the guesses got right; the bids it resampled after a wrong guess are
the next block's guesses. A bandit update divides by the probability its
bid was sampled with, so bandit plays a round at a time, in plain Python
(``scalar_step``): each row keeps its weights, their total and its CDF,
rebuilt only when the row's weights change, and the utilities are laid out
by whole bid profile (``scalar_step.profile_table``), so a round computes
one profile code for all its updates. A round updates a handful of short
rows, where each numpy call would cost more than the arithmetic it does.
"""

from __future__ import annotations

import numpy as np

from . import mechanisms as mech
from .learners import (LOG_STEP_SLACK, LearnerState, anytime_eta, ceiling_headroom,
                       count_selections, renormalize)
from .mechanisms import FEEDBACK_FULL
from .pcg64 import Stream
from .simulator import draw_types

# Rounds per draw chunk: the loop draws the uniforms and precomputes what play
# cannot change once per chunk.
DRAW_CHUNK = 1024

# Bounds of a seed's verified Hedge blocks. A block tries twice as many rounds
# as the last one if that kept them all, else the more of the rounds it kept
# and the rounds after them, whose samples it carries over as guesses; but no
# fewer than HEDGE_BLOCK[0] and no more than HEDGE_BLOCK[1] rounds or
# HEDGE_BLOCK[2] weights (rounds x rows x bids) in one array.
HEDGE_BLOCK = (8, 256, 1 << 16)


def _play_rounds(config):
    """The round loop of one seed, ``config.seed``.

    Returns the type and commitment index arrays, learner rows in flat
    agent order, which ``simulator.play_trace`` turns into a trace. The
    loop's working set (stacked tables, learner weights, chunk buffers) is
    freed on return.

    A round samples every row and updates the selected rows: Hedge
    multiplies exp(eta * unit utility) into the row, bandit exp(eta * unit
    utility / p) into the chosen weight. Both skip the weight-ceiling check
    while the log steps since the last check provably cannot take a weight
    past the ceiling, which leaves every weight as a check in every round
    would. Hedge plays the rounds in verified blocks (``_hedge_blocks``),
    bandit a round at a time in ``scalar_step.ScalarStep``.
    """
    m = config.mechanism
    n = m.n
    T = config.horizon
    H = m.scale
    A = len(m.grid)
    agents = config.agents()
    G = len(agents)
    offsets = np.array(config.agent_offsets())
    gen = Stream(config.seed)
    v_idx = draw_types(config)
    full = config.feedback == FEEDBACK_FULL
    state = LearnerState(np.ones((G, A)), gamma=0.0 if full else config.gamma)
    strategy = np.empty((T, G), dtype=np.int16)
    chunk = min(DRAW_CHUNK, T)
    rows_at = np.empty((chunk, n), dtype=np.int64)
    if full:
        # Hedge reads only the unit utilities (u + H) / 2H; row g * n_opp +
        # opp holds agent g's utility vector against opponent profile opp
        n_opp = A ** (n - 1)
        unit = np.empty((G * n_opp, A))
        for g, (pop, _ti, val) in enumerate(agents):
            unit[g * n_opp:(g + 1) * n_opp] = mech.utility_table(m, pop, val).T
        unit += H
        unit /= 2.0 * H
        # opp_place[j, i]: weight of seat j's bid in seat i's opponent index
        opp_place = np.array([mech.opponent_places([A] * n, i) for i in range(n)]).T
        # the first utility cell of each learner row's agent
        first_cell = np.arange(G) * n_opp
        # ln(weight) grows by at most eta * top_unit per update
        top_unit = max(float(unit.max()), 0.0)
        etas = np.empty((chunk, n, 1))
        carried = (ceiling_headroom(state.weights), HEDGE_BLOCK[0])
    else:
        from .scalar_step import ScalarStep, profile_table

        eta = config.eta if config.eta is not None else config.gamma / A
        headroom = ceiling_headroom(state.weights)
        step = ScalarStep(state, profile_table(config), eta)

    for a in range(0, T, DRAW_CHUNK):
        R = min(DRAW_CHUNK, T - a)
        draws = gen.random(R * G).reshape(R, G)
        rows = rows_at[:R]
        np.add(offsets, v_idx[a:a + R], out=rows)
        if full:
            counts = count_selections(state.t_sel, rows)
            etas[:R, :, 0] = anytime_eta(A, counts) if config.eta is None else config.eta
            steps = etas[:R, :, 0].max(axis=1) * top_unit + LOG_STEP_SLACK
            carried = _hedge_blocks(
                state.weights, draws, rows, etas[:R], steps, unit, first_cell,
                opp_place, *carried, strategy[a:a + R],
            )
        else:
            picks, headroom = step.rounds(draws, rows, headroom)
            strategy[a:a + R] = np.reshape(picks, (R, G))

    return v_idx, strategy


def _sample(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling along the last axis: the count of CDF entries at
    or below the draw times the total, where leaving out the last entry caps
    the index at A - 1."""
    return (cdf[..., :-1] <= draws[..., None] * cdf[..., -1:]).sum(axis=-1)


def _hedge_blocks(w, draws, rows, etas, steps, unit, first_cell, opp_place,
                  headroom, size, strategy) -> tuple[float, int]:
    """Play one seed's Hedge rounds of a draw chunk in verified blocks.

    ``w`` is the seed's (G, A) weight rows, updated in place; ``draws[c]``,
    ``rows[c]`` and ``etas[c]`` are round c's uniforms, updated rows and step
    sizes, and ``steps[c]`` its log-step bound. Returns the ceiling headroom
    and next block length, which the seed carries into its next chunk.

    A block guesses its selected bids from the CDFs at its start, multiplies
    every round's factors in at once (1.0 in the rows a round leaves alone,
    so each product is exact) and samples every round from the weights that
    chain gives. It commits the rounds before the first whose selected bids
    differ from the guess, always at least round 0, whose guess used exact
    CDFs. Each float operation is one a round at a time would make, so the
    result is that of playing the rounds one by one. The next block takes
    the samples of the rounds from the wrong guess on as its first guesses:
    the first of them came from verified weights, so it is exact. A block
    also ends at the round whose step may take a weight past the ceiling,
    where the rows are renormalized.
    """
    lo, hi, cells_cap = HEDGE_BLOCK
    G, A = w.shape
    hi = min(hi, max(1, cells_cap // (G * A)))
    R = len(draws)
    at = np.arange(R + 1)[:, None]
    cells_at = first_cell[rows]
    c = 0
    carry = ()  # verified samples of the rounds from c on, the first exact
    while c < R:
        L = min(size, hi, R - c)
        # the headroom after each round, as headroom -= steps[c] leaves it;
        # the steps are positive, so it only falls
        left = np.subtract.accumulate(np.concatenate(([headroom], steps[c:c + L])))
        ceiling = left[L] < 0.0
        if ceiling:
            L = int((left < 0.0).argmax())
        u, r = draws[c:c + L], rows[c:c + L]
        # round 0's commitments and the other rounds' guessed bids: the
        # carried samples, then rows sampled from the CDFs at the block's start
        start = carry[:L]
        if len(start) < L:
            fresh = _sample((w / w.sum(axis=1, keepdims=True)).cumsum(axis=1), u[len(start):])
            start = np.concatenate((start, fresh)) if len(start) else fresh
        guess = start[at[:L], r]
        chain = np.ones((L + 1, G, A))
        chain[0] = w
        cells = cells_at[c:c + L] + guess @ opp_place
        chain[at[1:L + 1], r] = np.exp(etas[c:c + L] * unit[cells])
        np.multiply.accumulate(chain, axis=0, out=chain)
        strategy[c] = start[0]
        k, carry = L, ()
        if L > 1:
            later = chain[1:L]
            j = _sample((later / later.sum(axis=2, keepdims=True)).cumsum(axis=2), u[1:])
            wrong = np.flatnonzero(j[at[:L - 1], r[1:]] != guess[1:])
            if len(wrong):
                k = 1 + int(wrong[0]) // len(opp_place)
            strategy[c + 1:c + k] = j[:k - 1]
            carry = j[k - 1:]
        w[:] = chain[k]
        if k == L and ceiling:
            renormalize(w)
            headroom = ceiling_headroom(w)
        else:
            headroom = float(left[k])
        size = min(max(max(k, L - k) if k < L else 2 * size, lo), hi)
        c += k
    return headroom, size
