"""Repeated play of a grid auction by populations of learning agents.

Each player seat of the mechanism is filled by one population holding one
learning agent per valuation type. Every round proceeds in three steps:

1. every agent in every population commits an action sampled from its
   current mixed strategy (the full commitment table is recorded, not just
   the realized match);
2. each population independently selects one agent uniformly at random;
3. the selected agents play the auction and experience their realized
   utility, while unselected agents earn zero and do not update.

Selected agents receive either the full counterfactual utility vector
(``full`` feedback, Hedge update) or only the realized utility (``bandit``
feedback, importance-weighted update). A trace
holds only what play decided: the types, the commitments and the realized
bids, plus the welfare they give. ``rebuild_ledgers`` recounts the regret
ledgers from the type and realized-bid columns, at many horizons in one
sweep, for a simulated and a loaded trace alike; they always hold the exact
counterfactual vector, whatever feedback the learner saw.

Each seed is one independent run of the repeated game, played to its end
before the next seed starts. Its randomness is the PCG64 stream numpy's
``Generator(PCG64(seed))`` draws, which ``pcg64`` reproduces without
loading numpy's random package. Draw order is fixed: one uniform per agent
per round in round-major order, then one type-index column per population.
Runs with equal configs are therefore reproducible bit for bit.

The round loop lives in ``rounds``, which ``run_repeated_game`` imports
when it runs, and ``trace.csv`` and ``strategies.json`` are read back
through ``readers``, which only ``load_trace`` imports: ``simulate`` and
``analyze`` each compile only the half they run. The files are assembled as
byte matrices in blocks of WRITE_CHUNK rounds.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence

import numpy as np

from . import mechanisms as mech
from .errors import ContractViolationError, InputError
from .learners import MAX_LOG_STEP, RegretLedger
from .mechanisms import FEEDBACK_BANDIT, FEEDBACK_FULL, Population
from .records import record


@record(frozen=True)
class SimConfig:
    mechanism: mech.Mechanism
    populations: tuple[Population, ...]
    horizon: int
    seed: int
    feedback: str = FEEDBACK_FULL
    eta: float | None = None  # None: the anytime schedule, or gamma / |A| for bandit
    gamma: float = 0.05

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise InputError(f"horizon must be >= 1, got {self.horizon}")
        if self.feedback not in mech.FEEDBACK_MODES:
            raise InputError(f"unknown feedback mode {self.feedback!r}")
        pops = mech.check_populations(self.mechanism, self.populations)
        object.__setattr__(self, "populations", pops)
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError(f"gamma must lie in [0, 1], got {self.gamma}")
        bids = len(self.mechanism.grid)
        if self.eta is not None:
            # an update multiplies a weight of up to the ceiling by exp(step);
            # unit utilities lie in [0, 1], bandit probabilities in [gamma/|A|, 1]
            step = self.eta
            if self.feedback == FEEDBACK_BANDIT and self.eta > 0.0:
                step = self.eta * bids / self.gamma if self.gamma > 0.0 else math.inf
            if not 0.0 <= step <= MAX_LOG_STEP:
                raise InputError(
                    f"eta {self.eta} ({self.feedback} feedback, gamma {self.gamma}) takes "
                    f"log steps up to {step:.6g}; weights stay finite up to {MAX_LOG_STEP:.6g}"
                )
        largest = max(bids, max(len(p) for p in pops))
        if largest > mech.INDEX_LIMIT:
            raise InputError(
                f"a bid grid or population has {largest} entries; the simulator "
                f"indexes at most {mech.INDEX_LIMIT}"
            )
        mech.check_table_cap(self.mechanism)
        check_index_memory(self, 1)

    def agents(self) -> list[tuple[int, int, float]]:
        """Flat agent order, ``mechanisms.flat_agents``: (population, type
        index, type value), the order of the learner rows and of the exact
        agent game's players."""
        return mech.flat_agents(self.populations)

    def agent_offsets(self) -> list[int]:
        offs, acc = [], 0
        for p in self.populations:
            offs.append(acc)
            acc += len(p)
        return offs


def check_index_memory(config: SimConfig, n_seeds: int) -> None:
    """Raise InputError unless the type, commitment and realized-bid indices
    of ``n_seeds`` seeds, int16 each and all held at once, fit in physical
    memory."""
    need = 2 * n_seeds * config.horizon * (2 * config.mechanism.n + len(config.agents()))
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise InputError(
            f"horizon {config.horizon} needs {need / 2**30:.3g} GiB of index "
            f"arrays for {n_seeds} seed(s), more than the {memory / 2**30:.3g} "
            "GiB of physical memory"
        )


@record
class Trace:
    """Complete record of one run.

    ``strategy[t, g]`` is the action index agent ``g`` (flat order) committed
    to in round ``t``; ``v_idx[t, i]`` the type selected in population ``i``;
    ``realized_idx[t, i]`` the bid index actually played for seat ``i``,
    which always equals the selected agent's committed action.
    """

    config: SimConfig
    v_idx: np.ndarray
    strategy: np.ndarray | None
    realized_idx: np.ndarray
    sw: np.ndarray
    opt: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.sw)


def check_commitments(config: SimConfig, strategy: np.ndarray, v_idx: np.ndarray,
                      realized_idx: np.ndarray) -> None:
    """Raise InputError unless each row's selected agents committed to the realized bids."""
    rows = np.arange(len(strategy))
    for i, off in enumerate(config.agent_offsets()):
        if not np.array_equal(strategy[rows, off + v_idx[:, i]], realized_idx[:, i]):
            raise InputError(
                f"seat {i}: realized actions diverge from committed strategies"
            )


def welfare_columns(
    config: SimConfig, v_idx: np.ndarray, realized_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-round realized welfare ``sw`` and optimal welfare ``opt``.

    ``v_idx`` and ``realized_idx`` are the (rounds, seats) type and bid
    indices of a run. ``sw`` adds the seats' utilities in seat order, then the
    revenue, which are the float operations of replaying the mechanism once
    per round, so the columns are bit-identical to that replay.
    """
    m = config.mechanism
    sw = np.zeros(len(v_idx))
    for i, pop in enumerate(config.populations):
        opp = mech.opponent_index(realized_idx.T, m.sizes, i)
        tables = np.stack([mech.utility_table(m, i, v) for v in pop.values])
        sw += tables[v_idx[:, i], realized_idx[:, i], opp]
    sw += mech.revenue_table(m)[np.ravel_multi_index(realized_idx.T, m.sizes)]
    value_lists = [p.values for p in config.populations]
    opt_by_profile = np.array(
        [mech.optimal_welfare(v, m) for v in mech.value_profiles(value_lists)]
    )
    opt = opt_by_profile[np.ravel_multi_index(v_idx.T, [len(v) for v in value_lists])]
    return sw, opt


def run_repeated_game(config: SimConfig) -> Trace:
    """Simulate ``config.horizon`` rounds of ``config.seed`` and return the
    full trace. The loop's working set is freed before the welfare columns
    are built."""
    from .rounds import _play_rounds

    v_idx, strategy, realized = _play_rounds(config)
    sw, opt = welfare_columns(config, v_idx, realized)
    return Trace(config=config, v_idx=v_idx, strategy=strategy, realized_idx=realized,
                 sw=sw, opt=opt)


# --- persistence -------------------------------------------------------------


def _csv_header(n: int) -> list[str]:
    return (
        ["t"]
        + [f"v_idx_{i + 1}" for i in range(n)]
        + [f"action_{i + 1}" for i in range(n)]
        + ["sw", "opt"]
    )


# Rounds per step of write_trace_csv and strategies_json_text, and at most
# per step of readers.compact_table. A trace.csv chunk renders its distinct
# keys as Python strings; at 4,096 rounds the n = 4 bandit's ~4,000 distinct
# keys per chunk raised simulate's peak RSS by 0.15 MB.
WRITE_CHUNK = 1024


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The decimal digits of nonnegative integers as a (len, width) byte
    matrix, right-aligned after NUL bytes, which the writers drop. The
    quotients by powers of ten come from float division, exact below 2**53,
    so a run loads none of numpy's integer-division loops."""
    power = np.array([10.0**k for k in range(width - 1, -1, -1)])
    q = (values[:, None] / power).astype(np.int64)
    lead = q[:, :-1] == 0
    q[:, 1:] -= 10 * q[:, :-1]
    q += 48
    q[:, :-1][lead] = 0
    return q.astype(np.uint8)


def write_trace_csv(trace: Trace, path) -> None:
    """Write the per-round table as CSV (1-based round numbers).

    A row after its round number depends only on the round's (type profile,
    bid profile) key. The rows are assembled WRITE_CHUNK rounds at a time
    as a byte matrix, the round numbers' digits beside the texts of the
    rounds' keys; each key's text is joined once per chunk from the texts
    of its cells, and each grid bid is formatted once per run.
    """
    cfg = trace.config
    n = cfg.mechanism.n
    row, key, _ = mech.profile_index(
        [*trace.v_idx.T, *trace.realized_idx.T],
        [len(p) for p in cfg.populations] + list(cfg.mechanism.sizes),
    )
    for name in ("sw", "opt"):
        col = getattr(trace, name)
        bad = np.flatnonzero(col != col[row][key])
        if len(bad):
            t, other = bad[0], row[key[bad[0]]]
            raise ContractViolationError(
                f"round {t + 1} stores {name}={float(col[t])!r}, but round "
                f"{other + 1} with the same types and bids stores {float(col[other])!r}"
            )
    bid_texts = [repr(b) for b in cfg.mechanism.grid]
    slot = np.empty(len(row), dtype=np.intp)
    width = len(str(trace.horizon))
    with open(path, "wb") as fh:
        fh.write((",".join(_csv_header(n)) + "\n").encode())
        for a in range(0, trace.horizon, WRITE_CHUNK):
            keys = key[a:a + WRITE_CHUNK]
            distinct = np.flatnonzero(np.bincount(keys, minlength=len(row)))
            slot[distinct] = np.arange(len(distinct))
            at = row[distinct]
            cols = [map(str, col) for col in trace.v_idx[at].T.tolist()]
            cols += [map(bid_texts.__getitem__, col)
                     for col in trace.realized_idx[at].T.tolist()]
            cols += [map(repr, trace.sw[at].tolist()), map(repr, trace.opt[at].tolist())]
            # each text leaves room for the round number's digits; the cell
            # lists and the texts are freed as soon as they are used
            pad = " " * width
            texts = [f"{pad},{s}\n" for s in map(",".join, zip(*cols))]
            del cols
            texts = np.array(texts, dtype=bytes).view(np.uint8).reshape(len(distinct), -1)
            # rows are assembled 64 KiB at a time: freeing a buffer past
            # glibc's mmap threshold (128 KiB) raises it, and the arrays
            # allocated after that stay resident
            step = max(1, (1 << 16) // texts.shape[1])
            for s in range(0, len(keys), step):
                lines = texts[slot[keys[s:s + step]]]
                lines[:, :width] = _digits(np.arange(a + s + 1, a + s + len(lines) + 1), width)
                fh.write(lines.tobytes().replace(b"\0", b""))


def strategies_json_text(trace: Trace, every: int = 1) -> str:
    """Commitment tables (all agents, every ``every``-th round) plus run metadata."""
    if every < 1:
        raise InputError(f"every must be >= 1, got {every}")
    if trace.strategy is None:
        raise InputError("this trace carries no commitment table")
    cfg = trace.config
    doc = {
        "meta": {
            "mechanism": cfg.mechanism.to_descriptor(),
            "populations": [list(p.values) for p in cfg.populations],
            "horizon": cfg.horizon,
            "seed": cfg.seed,
            "feedback": cfg.feedback,
            "gamma": cfg.gamma,
            "eta": cfg.eta,
        },
        "every": every,
        "rounds": 0,
    }
    # "rounds" sorts last, so the table replaces the placeholder at the end.
    # A chunk of rows is a byte matrix: each row a copy of one row's
    # separators, each agent's slot filled from the digits of its bid index
    head = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    kept = trace.strategy[::every]
    bids = len(cfg.mechanism.grid)
    width = len(str(bids - 1))
    digits = _digits(np.arange(bids), width)
    line = np.zeros(kept.shape[1] * (width + 1) + 2, dtype=np.uint8)
    line[[0, -2, -1]] = list(b"[],")
    line[width + 1:-2:width + 1] = ord(",")
    slots = np.flatnonzero(line == 0)
    parts = [head[:-2], "["]
    for a in range(0, len(kept), WRITE_CHUNK):
        block = kept[a:a + WRITE_CHUNK]
        rows = np.tile(line, (len(block), 1))
        rows[:, slots] = digits[block].reshape(len(block), -1)
        parts.append(rows.tobytes().replace(b"\0", b"").decode())
    parts[-1] = parts[-1][:-1] + "]}"
    return "".join(parts)


def load_trace(csv_path, strategies_path) -> Trace:
    """Rebuild a trace from its CSV table and strategies sidecar, checked
    against its own types and bids (``readers.load_trace``)."""
    from .readers import load_trace

    return load_trace(csv_path, strategies_path)


def rebuild_ledgers(trace: Trace, horizons: Sequence[int]) -> list[list[RegretLedger]]:
    """Per-agent ledgers, in flat agent order, of the first T rounds of a
    trace, for each T in ``horizons`` (the whole trace: ``[trace.horizon]``).
    Each agent's selected rounds, opponents and utilities are gathered once;
    horizon T sums those of the first T rounds, in round order. This is the
    one place regret sums are kept."""
    cfg = trace.config
    m = cfg.mechanism
    out = [[] for _ in horizons]
    for pop, ti, val in cfg.agents():
        table = mech.utility_table(m, pop, val)
        sel = np.flatnonzero(trace.v_idx[:, pop] == ti)
        bids = trace.realized_idx[sel].T
        opp = mech.opponent_index(bids, m.sizes, pop)
        got = table[bids[pop], opp]
        for ledgers, T in zip(out, horizons):
            k = int(np.searchsorted(sel, T))
            counts = np.bincount(opp[:k], minlength=table.shape[1]).astype(np.float64)
            ledgers.append(RegretLedger(
                counterfactual=table @ counts,
                realized=float(got[:k].sum()),
                selected_rounds=k,
                unselected_rounds=T - k,
            ))
    return out
