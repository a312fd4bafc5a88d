"""Reading back the two files ``simulate`` writes per seed.

Only ``simulator.load_trace`` imports this module, so the commands that
write the files but never read them do not compile it: each line a command
compiles adds to its peak RSS.
"""

from __future__ import annotations

import json
import re
from functools import partial
from pathlib import Path

import numpy as np

from . import mechanisms as mech
from .errors import ContractViolationError, InputError
from .simulator import (
    WRITE_CHUNK,
    SimConfig,
    Trace,
    _csv_header,
    check_commitments,
    welfare_columns,
)


def read_trace_csv(csv_path, config: SimConfig):
    """Parse a trace.csv into its (v_idx, realized_idx, sw, opt) columns, or
    raise InputError naming the malformed column and row."""
    n = config.mechanism.n
    T = config.horizon
    header = _csv_header(n)
    with open(csv_path) as fh:
        got = fh.readline().rstrip("\n").split(",")
        if got != header:
            raise InputError(f"{csv_path}: unexpected CSV header {got}")
        # np.loadtxt warns instead of raising on a table with no data rows,
        # only blank lines and '#' comments
        start = fh.tell()
        if not any(line.split("#", 1)[0].strip() for line in iter(fh.readline, "")):
            raise InputError(
                f"{csv_path}: table has no rows, expected {T} by {len(header)}"
            )
        fh.seek(start)
        try:
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:
            msg = str(e)
            # numpy counts data rows from 0 and columns from 1
            at = re.search(r"at row (\d+), column (\d+)", msg)
            if at and int(at[2]) <= len(header):
                msg = f"column {header[int(at[2]) - 1]}: row {int(at[1]) + 1} is not a number"
            raise InputError(f"{csv_path}: {msg}") from None
    if body.shape != (T, len(header)):
        raise InputError(
            f"{csv_path}: table is {body.shape[0]} rows by {body.shape[1]} "
            f"columns, expected {T} by {len(header)}"
        )

    def bad_cell(col: int, bad: np.ndarray, want: str) -> InputError:
        t = int(np.flatnonzero(bad)[0])
        return InputError(
            f"{csv_path}: column {header[col]}: row {t + 1} holds "
            f"{float(body[t, col])!r}, expected {want}"
        )

    bad = body[:, 0] != np.arange(1, T + 1)
    if bad.any():
        raise bad_cell(0, bad, "the round number")
    grid = np.asarray(config.mechanism.grid)
    v_idx = np.empty((T, n), dtype=np.int16)
    realized = np.empty((T, n), dtype=np.int16)
    for i, pop in enumerate(config.populations):
        col = body[:, 1 + i]
        bad = (col != np.floor(col)) | (col < 0) | (col >= len(pop))
        if bad.any():
            raise bad_cell(1 + i, bad, f"an integer type index below {len(pop)}")
        v_idx[:, i] = col
        col = body[:, 1 + n + i]
        j = np.searchsorted(grid, col - mech.GRID_TOL)
        # the distance to the grid point, in place: the table is the
        # command's largest array, and each column temporary adds to its peak
        hit = grid[np.minimum(j, len(grid) - 1)]
        hit -= col
        bad = (j == len(grid)) | ~(np.abs(hit, out=hit) <= mech.GRID_TOL)
        if bad.any():
            raise bad_cell(1 + n + i, bad, "a bid on the grid")
        realized[:, i] = j
    return v_idx, realized, body[:, 1 + 2 * n].copy(), body[:, 2 + 2 * n].copy()


# A sidecar as tables of key -> (parser, default). META's keys are SimConfig's
# fields; the commitment table is checked by load_trace.
META = {
    "mechanism": (mech.Mechanism.from_descriptor, mech.REQUIRED),
    "populations": (mech.read_populations, mech.REQUIRED),
    "horizon": (partial(mech.read_integer, minimum=1), mech.REQUIRED),
    "seed": (partial(mech.read_integer, minimum=0), mech.REQUIRED),
    "feedback": (partial(mech.read_string, choices=mech.FEEDBACK_MODES), mech.REQUIRED),
    "gamma": (partial(mech.read_number, minimum=0.0, maximum=1), mech.REQUIRED),
    "eta": (mech.nullable(partial(mech.read_number, minimum=0.0)), mech.REQUIRED),
}
SIDECAR = {
    "meta": (partial(mech.read_object, META), mech.REQUIRED),
    "every": (partial(mech.read_integer, minimum=1), mech.REQUIRED),
    "rounds": (lambda obj, path: obj, mech.REQUIRED),
}


def sidecar_doc(path, text=None) -> tuple[dict, SimConfig]:
    """A sidecar's JSON document (``text``, else the file's) read against
    SIDECAR, and the config its meta entry gives, or InputError naming the
    file."""
    try:
        doc = json.loads(Path(path).read_text() if text is None else text)
        doc = mech.read_object(SIDECAR, doc)
        return doc, SimConfig(**doc["meta"])
    except ValueError as e:
        # InputError, and the JSONDecodeError of a document that does not parse
        raise InputError(f"{path}: malformed sidecar: {e}") from e


def compact_table(table: bytes, rows: int, agents: int) -> np.ndarray | None:
    """A commitment table as ``strategies_json_text`` writes it, followed by
    the document's closing brace (``[[3,10],[0,7]]}``), read from its bytes
    at most WRITE_CHUNK rows at a time; None for any other text.

    The non-digit bytes must be the separators of a (rows, agents) table and
    the digit runs between them numbers from 0 to 32767 without leading
    zeros, so the int16 array is the one json.loads and np.asarray give.
    """
    if not (table.startswith(b"[") and table.endswith(b"]}")):
        return None
    text = np.frombuffer(table, dtype=np.uint8)
    out = np.empty((rows, agents), dtype=np.int16)
    # a row's separators: "[", a comma after each number but the last, "]"
    # after it, then the comma before the next row (or the table's "]");
    # a number comes before each comma and "]" inside a row
    line = b"[" + b"," * (agents - 1) + b"],"
    pattern = np.frombuffer(line * WRITE_CHUNK, dtype=np.uint8)
    numbered = np.tile([False] + [True] * agents + [False], WRITE_CHUNK)
    window = WRITE_CHUNK * (2 * agents + 2)  # a row has at least as many bytes
    done, at, end = 0, 1, len(table) - 1
    while at < end:
        stop = end if end - at <= window else table.rfind(b"],[", at, at + window) + 2
        if stop <= at:
            return None
        chunk = text[at:stop]  # whole rows, each followed by "," or "]"
        d = chunk - 48  # digits 0-9, every other byte above 9
        cut = np.flatnonzero(d > 9)
        n = len(cut)
        r = n // len(line)
        if (r == 0 or n % len(line) or done + r > rows
                or not np.array_equal(chunk[cut[:-1]], pattern[:n - 1])):
            return None
        gap = np.diff(cut, prepend=-1) - 1  # digits before each separator
        nums, ends = gap[numbered[:n]], cut[numbered[:n]]
        if (not np.array_equal(gap > 0, numbered[:n]) or nums.max() > 5
                or ((nums > 1) & (d[ends - nums] == 0)).any()):
            return None
        value = d[ends - 1].astype(np.int32)
        for i in range(1, int(nums.max())):
            value += d[ends - 1 - i] * np.where(nums > i, 10**i, 0)
        if value.max() > 32767:
            return None
        out[done:done + r] = value.reshape(r, agents)
        done, at = done + r, stop
    return out if done == rows else None


def load_trace(csv_path, strategies_path) -> Trace:
    """Rebuild a trace from its CSV table and strategies sidecar.

    The sidecar supplies the config. The commitment table is only
    reconstructed when the sidecar recorded every round. A sidecar as
    ``strategies_json_text`` writes it is read as its JSON head and the
    table's bytes (``compact_table``); any other text goes through
    json.loads whole, which gives the same values and errors.

    A malformed table or sidecar raises InputError naming the file. The
    stored welfare columns must equal ``welfare_columns`` recomputed from the
    types and bids, and every sidecar row must agree with the realized bids
    of its round; otherwise ContractViolationError names what disagrees.
    """
    head, _, table = Path(strategies_path).read_bytes().rpartition(b',"rounds":')
    try:
        # the head with the placeholder the writer dumped before the table
        doc, config = sidecar_doc(strategies_path, head.decode() + ',"rounds":0}')
        kept = range(0, config.horizon, doc["every"])
        committed = compact_table(table, len(kept), len(config.agents()))
    except ValueError:
        committed = None
    del head, table
    if committed is None:
        doc, config = sidecar_doc(strategies_path)
    try:
        every = doc["every"]
        kept = range(0, config.horizon, every)
        if committed is None:
            # the parsed rows are freed before the CSV is parsed
            committed = np.asarray(doc.pop("rounds"), dtype=np.int16)
        if committed.shape != (len(kept), len(config.agents())):
            raise ValueError(f"shape {committed.shape}")
        if committed.size and not (
            committed.min() >= 0 and committed.max() < len(config.mechanism.grid)
        ):
            raise ValueError("a bid index lies off the grid")
    except (TypeError, ValueError, OverflowError) as e:
        raise InputError(f"{strategies_path}: malformed commitment table: {e}") from e
    v_idx, realized, sw, opt = read_trace_csv(csv_path, config)
    try:
        check_commitments(config, committed, v_idx[kept], realized[kept])
    except InputError as e:
        raise ContractViolationError(f"{strategies_path}: {e}") from e
    want_sw, want_opt = welfare_columns(config, v_idx, realized)
    bad = np.flatnonzero((sw != want_sw) | (opt != want_opt))
    if len(bad):
        raise ContractViolationError(
            f"{csv_path}: round {bad[0] + 1} stores sw={float(sw[bad[0]])!r}, "
            f"opt={float(opt[bad[0]])!r}, but its types and bids give "
            f"sw={float(want_sw[bad[0]])!r}, opt={float(want_opt[bad[0]])!r}"
        )
    return Trace(
        config=config,
        v_idx=v_idx,
        strategy=committed if every == 1 else None,
        realized_idx=realized,
        sw=sw,
        opt=opt,
    )
