"""Reading back the two files ``simulate`` writes per seed: the sidecar is
parsed, and trace.csv is checked against the table that the sidecar's seed
and commitments render, never parsed.

Only ``simulator.load_trace`` imports this module, so the commands that
write the files but never read them do not compile it: each line a command
compiles adds to its peak RSS.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path

import numpy as np

from . import mechanisms as mech
from .errors import InputError
from .simulator import (
    WRITE_CHUNK,
    SimConfig,
    Trace,
    _csv_header,
    draw_types,
    play_trace,
    trace_csv_chunks,
)


# A sidecar as tables of key -> (parser, default). META's keys are SimConfig's
# fields, which strategies_json_text writes from the config record; the
# commitment table is checked by load_trace.
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
    # every round's commitments are recorded, as the writer does
    "every": (partial(mech.read_integer, minimum=1, maximum=1), mech.REQUIRED),
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


def _cell(text: bytes, at: int) -> str:
    """The CSV cell of ``text`` that starts at byte ``at``."""
    return text[at:].partition(b"\n")[0].partition(b",")[0].decode(errors="replace")


def check_rendering(csv_path, trace: Trace) -> None:
    """Raise InputError unless the file at ``csv_path`` holds, byte for
    byte, the table ``trace_csv_chunks`` renders from ``trace``. The message
    names the round and the column of the first byte that differs, from the
    newlines and commas of the text the two share before it."""
    header = _csv_header(trace.config.mechanism.n)
    lines = 0  # newlines before the chunk; every chunk starts a line
    with open(csv_path, "rb") as fh:
        for want in trace_csv_chunks(trace):
            got = fh.read(len(want))
            if got != want:
                k = len(os.path.commonprefix([want, got]))
                start = want.rfind(b"\n", 0, k) + 1
                at = max(want.rfind(b",", start, k) + 1, start)
                row = lines + want.count(b"\n", 0, k)
                found = "the file ends" if k == len(got) else f"holds {_cell(got, at)!r}"
                raise InputError(
                    f"{csv_path}: {f'round {row}' if row else 'header'}, column "
                    f"{header[want.count(b',', start, k)]}: {found}, expected {_cell(want, at)!r}"
                )
            lines += want.count(b"\n")
        if fh.read(1):
            raise InputError(f"{csv_path}: round {trace.horizon + 1}, column t: the "
                             f"file goes on after round {trace.horizon}")


def load_trace(csv_path, strategies_path) -> Trace:
    """Rebuild a trace from its strategies sidecar and check its CSV table.

    The sidecar supplies the config and the commitment table. A sidecar as
    ``strategies_json_text`` writes it is read as its JSON head and the
    table's bytes (``compact_table``); any other text goes through
    json.loads whole, which gives the same values and errors. The types are
    the seed's draws (``draw_types``), and the trace is built from them and
    the table by ``play_trace``, as ``simulate`` builds it. The trace.csv
    must be the text it renders (``check_rendering``).

    A malformed sidecar, or a table the play does not render, raises
    InputError naming the file.
    """
    head, _, table = Path(strategies_path).read_bytes().rpartition(b',"rounds":')
    try:
        # the head with the placeholder the writer dumped before the table
        doc, config = sidecar_doc(strategies_path, head.decode() + ',"rounds":0}')
        committed = compact_table(table, config.horizon, len(config.agents()))
    except ValueError:
        committed = None
    del head, table
    if committed is None:
        doc, config = sidecar_doc(strategies_path)
    try:
        if committed is None:
            committed = np.asarray(doc.pop("rounds"), dtype=np.int16)
        if committed.shape != (config.horizon, len(config.agents())):
            raise ValueError(f"shape {committed.shape}")
        if not (committed.min() >= 0 and committed.max() < len(config.mechanism.grid)):
            raise ValueError("a bid index lies off the grid")
    except (TypeError, ValueError, OverflowError) as e:
        raise InputError(f"{strategies_path}: malformed commitment table: {e}") from e
    trace = play_trace(config, draw_types(config), committed)
    check_rendering(csv_path, trace)
    return trace
