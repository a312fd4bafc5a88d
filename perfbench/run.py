"""regretlab benchmark: end-to-end CLI timings and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; the package is imported from ``src/``.

Load model: one client in a closed loop. Each CLI command runs alone, with
``--workers 1``, in its own interpreter, so table caches start cold as they
do for users. A run repeats the workload's command list (after a few set-up
measurements) until ``--seconds`` is used up, at least three times, and
reports medians over those interleaved repeats. Times are taken relative to
``reference.py``, a fixed program timed between every two measurements,
because raw seconds on a shared host swing too much to gate on: command
time is reported in reference units, and set-up time in seconds of the host
the benchmark was defined on (reference units times the reference's time
there). Raw seconds stay in the details line.

``--trace 0`` times the commands from outside (``python3 -m regretlab.cli``)
and prints the end-to-end metrics named in BENCHMARK.json. ``--trace 1``
runs each command in process under ``probe.py``, once untraced and once with
timing wrappers rebound onto the library, and prints the per-layer metrics
plus the tracing overhead.

Every command's outputs are checked. A command fails when it exits non-zero,
is killed at the deadline, or its outputs fail a check; ``correct`` is false
only when a command that exited 0 produced wrong or irreproducible output.
A command killed at the deadline is not started again in the same run; each
later repeat counts it as failed. Its fixed deadline is left out of the
command time, which covers the commands that ran to their end.

The last line of standard output is the result object; the line before it
holds the details: environment, per-repeat samples and per-command figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import hist_median_us

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_REPEATS = 3
MIN_TRACE_PASSES = 1
MIN_SMOKE_REPEATS = 2
MAX_REPEATS = 50
# Median wall time of reference.py on the 2-CPU host the benchmark was
# defined on (1,840 samples over 80 runs); it converts set-up time in
# reference units back to seconds.
REFERENCE_NOMINAL_S = 0.27


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# --- children ----------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    rc: int
    killed: bool
    stdout: bytes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], log: Path, deadline_s: float) -> Child:
    """Run one process to completion or to the deadline; wall time and peak
    RSS come from the parent's clock and ``os.wait4``."""
    killed = threading.Event()
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(deadline_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    return Child(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        rc=proc.returncode,
        killed=killed.is_set(),
        stdout=log.with_suffix(".out").read_bytes(),
    )


# --- output checks -------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reports(out: Path) -> dict[str, bytes]:
    """Every file ``analyze`` must rewrite byte for byte."""
    files = [out / "report.json"]
    for d in sorted(out.glob("seed_*")):
        files += [d / "report.json", d / "checkpoints.csv"]
    return {str(p.relative_to(out)): p.read_bytes() for p in files if p.is_file()}


def _within_bound(out: Path, n_seeds: int) -> str | None:
    agg = json.loads((out / "report.json").read_text())
    if agg["n_seeds"] != n_seeds or len(agg["per_seed"]) != n_seeds:
        return f"report covers {agg['n_seeds']} seeds, expected {n_seeds}"
    if not agg["all_within_bound"] or not all(r["within_bound"] for r in agg["per_seed"]):
        return "a seed is not within_bound"
    return None


def check_outputs(op: workloads.Op, stdout: bytes, n_seeds: int,
                  snapshots: dict) -> tuple[str | None, dict[str, str]]:
    """Check one command that exited 0. Returns (problem or None, artifact
    SHA-256 by name)."""
    hashes = {"stdout": _sha(stdout)}
    try:
        if op.command == "simulate":
            reports = _reports(op.out)
            snapshots[op.out] = reports
            for p in sorted(op.out.rglob("*")):
                if p.is_file():
                    hashes[str(p.relative_to(op.out))] = _sha(p.read_bytes())
            return _within_bound(op.out, n_seeds), hashes
        if op.command == "analyze":
            reports = _reports(op.out)
            hashes.update({k: _sha(v) for k, v in reports.items()})
            before = snapshots.get(op.out)
            if before is None:
                return "no simulate output to compare with", hashes
            if reports != before:
                diff = sorted(k for k in set(before) | set(reports)
                              if before.get(k) != reports.get(k))
                return f"analyze did not reproduce {diff}", hashes
            return _within_bound(op.out, n_seeds), hashes
        if op.command == "exact":
            for name in ("agent_game.json", "lp_solution.json", "exact_report.json"):
                hashes[name] = _sha((op.out / name).read_bytes())
            rep = json.loads((op.out / "exact_report.json").read_text())
            table = rep["table"]
            obj = table["lp_welfare"]
            if abs(obj - op.expected_objective) > workloads.LP_OBJECTIVE_TOL:
                return f"LP objective {obj!r}, expected {op.expected_objective!r}", hashes
            if not (table["holds"] and obj >= table["floor"] - 1e-6):
                return f"LP objective {obj!r} below the floor {table['floor']!r}", hashes
            if not (rep["base_holds"] and rep["lift_holds"]):
                return "certificate does not hold", hashes
        return None, hashes
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {e!r}", hashes


# --- one run -------------------------------------------------------------------


@dataclass
class Sample:
    """One execution of one op."""

    op: str
    status: str  # ok | failed | wrong | deadline
    wall_s: float
    rss_mb: float
    detail: str = ""
    ref_s: float = 0.0  # reference time around it, in the end-to-end run


@dataclass
class Ledger:
    """Attempts, failures and artifact hashes across the repeats of a run."""

    wl: workloads.Workload
    samples: list[list[Sample]] = field(default_factory=list)
    hashes: dict[str, dict[str, str]] = field(default_factory=dict)
    timed_out: dict[str, float] = field(default_factory=dict)  # op -> rss
    snapshots: dict = field(default_factory=dict)

    def n_seeds(self, op: workloads.Op) -> int:
        return len(json.loads(op.config.read_text()).get("seeds", []))

    def record(self, op: workloads.Op, child: Child) -> Sample:
        if child.killed:
            self.timed_out[op.name] = child.rss_mb
            return Sample(op.name, "deadline", self.wl.deadline_s, child.rss_mb,
                          "killed at the deadline")
        if child.rc != 0:
            return Sample(op.name, "failed", child.wall_s, child.rss_mb,
                          f"exit {child.rc}")
        problem, hashes = check_outputs(op, child.stdout, self.n_seeds(op), self.snapshots)
        seen = self.hashes.setdefault(op.name, hashes)
        if problem is None and seen != hashes:
            problem = "artifacts differ from an earlier repeat: " + ", ".join(
                sorted(k for k in set(seen) | set(hashes) if seen.get(k) != hashes.get(k)))
        if problem is not None:
            return Sample(op.name, "wrong", child.wall_s, child.rss_mb, problem)
        return Sample(op.name, "ok", child.wall_s, child.rss_mb)

    def skipped(self, op: workloads.Op) -> Sample:
        return Sample(op.name, "deadline", self.wl.deadline_s, self.timed_out[op.name],
                      "not restarted after reaching the deadline")

    def all_samples(self) -> list[Sample]:
        return [s for rep in self.samples for s in rep]

    def counts(self) -> tuple[bool, int, int]:
        flat = self.all_samples()
        failed = sum(s.status != "ok" for s in flat)
        return all(s.status != "wrong" for s in flat), len(flat), failed


def _prepare(op: workloads.Op) -> None:
    # A command starts without the files it must write, so stale files cannot
    # pass its checks; analyze is compared with the copies of simulate's
    # reports that check_outputs kept.
    if op.out is None:
        return
    if op.command in ("simulate", "exact"):
        shutil.rmtree(op.out, ignore_errors=True)
    elif op.command == "analyze":
        for name in _reports(op.out):
            (op.out / name).unlink()


def _repeat_until(seconds: float, min_repeats: int, body) -> None:
    start = time.perf_counter()
    for n in range(1, MAX_REPEATS + 1):
        t = time.perf_counter()
        body()
        last = time.perf_counter() - t
        if n >= min_repeats and time.perf_counter() - start + last > seconds:
            return


def _probe_argv(result: Path, trace: bool, mode: str, args: list[str],
                warm: bool = False) -> list[str]:
    argv = [sys.executable, str(HERE / "probe.py"), "--result", str(result)]
    if trace:
        argv.append("--trace")
    if warm:
        argv.append("--warm")
    return argv + [mode] + args


def _setup_sample(wl: workloads.Workload, trace: bool, tag: str) -> dict:
    result = WORK / wl.name / "logs" / f"setup-{tag}.json"
    argv = _probe_argv(result, trace, "setup", [str(p) for p in wl.setup_configs],
                       warm=wl.warm_setup)
    child = run_child(argv, result.with_suffix(""), wl.deadline_s)
    if child.rc != 0 or child.killed:
        err = result.with_suffix(".err").read_text()[-2000:]
        raise BenchError(f"set-up failed (exit {child.rc}): {err}")
    doc = json.loads(result.read_text())
    doc["setup_s"] = doc["import_s"] + doc["load_config_s"] + doc["warm_s"]
    return doc


def measure(wl: workloads.Workload, seconds: float, min_repeats: int) -> dict:
    """End-to-end run: set-up plus every command from outside, repeated.

    The reference program runs between every two measurements, and each
    measurement is divided by the mean of the two reference times around it:
    the speed of a shared host swings by up to half within seconds, so only a
    reference taken right next to a measurement cancels it.
    """
    ledger = Ledger(wl)
    setups: list[float] = []
    setups_ref: list[float] = []
    refs: list[float] = []
    logs = WORK / wl.name / "logs"

    def reference() -> float:
        child = run_child([sys.executable, str(HERE / "reference.py")],
                          logs / f"ref-{len(refs)}", wl.deadline_s)
        if child.rc != 0:
            raise BenchError(f"reference work failed (exit {child.rc})")
        refs.append(child.wall_s)
        return child.wall_s

    def one_repeat() -> None:
        rep = len(ledger.samples)
        before = reference()
        raw = [_setup_sample(wl, False, f"{rep}-{k}")["setup_s"]
               for k in range(wl.setup_samples)]
        after = reference()
        setups.extend(raw)
        setups_ref.extend(s / statistics.mean((before, after)) for s in raw)
        samples = []
        for op in wl.ops:
            if op.name in ledger.timed_out:
                samples.append(ledger.skipped(op))
                continue
            _prepare(op)
            argv = [sys.executable, "-m", "regretlab.cli", *op.argv()]
            child = run_child(argv, logs / f"{op.name.replace(':', '-')}-{rep}", wl.deadline_s)
            sample = ledger.record(op, child)
            before, after = after, reference()
            sample.ref_s = statistics.mean((before, after))
            samples.append(sample)
        ledger.samples.append(samples)

    _repeat_until(seconds, min_repeats, one_repeat)
    correct, attempted, failed = ledger.counts()

    # Each command's median over the repeats, in reference units, summed over
    # the workload's commands. A command killed at the deadline took a fixed
    # time, not host-speed work, so it is left out; it still counts against
    # verified_op_share.
    per_op: dict[str, list[float]] = defaultdict(list)
    for s in ledger.all_samples():
        if s.status != "deadline":
            per_op[s.op].append(s.wall_s / s.ref_s)
    per_repeat_rss = [max(s.rss_mb for s in rep) for rep in ledger.samples]
    metrics = {
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(setups_ref),
        "commands_ref": sum(statistics.median(v) for v in per_op.values()),
        "peak_rss_mb": statistics.median(per_repeat_rss),
        "verified_op_share": (attempted - failed) / attempted,
    }
    details = {
        "repeats": len(ledger.samples),
        "samples": {
            "setup_s": setups,
            "setup_ref": setups_ref,
            "reference_s": refs,
            "commands_ref": per_op,
            "peak_rss_mb": per_repeat_rss,
            "ops": [[s.__dict__ for s in rep] for rep in ledger.samples],
        },
        "commands": _command_figures(wl, ledger, attempted, failed),
        "failures": sorted({f"{s.op}: {s.detail}" for s in ledger.all_samples()
                            if s.status != "ok"}),
        "artifact_sha256": ledger.hashes,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details}


def _command_figures(wl: workloads.Workload, ledger: Ledger, attempted: int,
                     failed: int) -> dict:
    """Per-command figures in seconds, for the commands the workload runs; a
    command killed at the deadline counts at the deadline."""
    per_cmd: dict[str, list[float]] = defaultdict(list)
    by_name = {op.name: op for op in wl.ops}
    for rep in ledger.samples:
        totals: dict[str, float] = defaultdict(float)
        for s in rep:
            totals[by_name[s.op].command] += s.wall_s
        for cmd, t in totals.items():
            per_cmd[cmd].append(t)
    rounds: dict[str, int] = defaultdict(int)
    for op in wl.ops:
        rounds[op.command] += op.rounds
    out = {"failed_op_share": {"value": failed / attempted, "unit": "ratio"}}
    for cmd in ("simulate", "analyze"):
        if per_cmd.get(cmd):
            out[f"{cmd}_rounds_per_s"] = {
                "value": rounds[cmd] / statistics.median(per_cmd[cmd]), "unit": "seed-rounds/s"}
    for cmd in ("certify", "exact"):
        if per_cmd.get(cmd):
            out[f"{cmd}_s"] = {"value": statistics.median(per_cmd[cmd]), "unit": "s"}
    return out


# --- traced run ------------------------------------------------------------------


def trace_run(wl: workloads.Workload, seconds: float, min_passes: int) -> dict:
    """Per-layer run: each command in process, untraced then traced."""
    ledger = Ledger(wl)
    logs = WORK / wl.name / "logs"
    passes: list[dict] = []

    def one_pass() -> None:
        n = len(ledger.samples)
        setup = _setup_sample(wl, True, f"trace-{n}")
        samples, plain, traced = [], {}, {}
        for op in wl.ops:
            for trace in (False, True):
                if op.name in ledger.timed_out:
                    samples.append(ledger.skipped(op))
                    continue
                _prepare(op)
                tag = f"{op.name.replace(':', '-')}-{'t' if trace else 'u'}{n}"
                result = logs / f"{tag}.json"
                child = run_child(_probe_argv(result, trace, "cli", op.argv()),
                                  logs / tag, wl.deadline_s)
                sample = ledger.record(op, child)
                samples.append(sample)
                if not child.killed and result.is_file():
                    (traced if trace else plain)[op.name] = json.loads(result.read_text())
        ledger.samples.append(samples)
        passes.append(_layer_metrics(wl, setup, plain, traced))

    _repeat_until(seconds, min_passes, one_pass)
    correct, attempted, failed = ledger.counts()
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics,
            "details": {"passes": len(passes), "samples": passes,
                        "artifact_sha256": ledger.hashes}}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _layer_metrics(wl: workloads.Workload, setup: dict, plain: dict, traced: dict) -> dict:
    spans = [s for op, doc in traced.items() for s in _tag_spans(op, doc)]
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    child_s: dict = defaultdict(float)
    for s in spans:
        child_s[s["parent_key"]] += _dur(s)

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name.get(name, []))

    # Set-up phase: horizon-1 runs minus the table spans inside them.
    setup_tables = sum(_dur(s) for s in setup.get("spans", [])
                       if s["name"] in ("mechanisms.utility_table", "mechanisms.revenue_table"))
    m = {
        "cli.import_s": setup["import_s"],
        "cli.load_config_s": setup["load_config_s"],
        "mechanisms.welfare_setup_s": max(0.0, setup["warm_s"] - setup_tables),
    }

    # cli: command wall time minus the library spans directly under it.
    m["cli.overhead_s"] = sum(_dur(s) - child_s[s["key"]] for s in by_name.get("cli.main", []))

    m["mechanisms.utility_table_s"] = total("mechanisms.utility_table")
    m["mechanisms.revenue_table_s"] = total("mechanisms.revenue_table")
    m["mechanisms.table_entries"] = sum(
        s.get("entries", 0) for s in spans
        if s["name"] == "simulator._welfare_tables" or s.get("built"))

    counted: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "hist": {}})
    for doc in traced.values():
        for name, c in doc.get("counted", {}).items():
            acc = counted[name]
            acc["calls"] += c["calls"]
            acc["busy_s"] += c["busy_s"]
            for b, k in c["hist"].items():
                acc["hist"][int(b)] = acc["hist"].get(int(b), 0) + k
    for name in ("learners.hedge_update", "learners.bandit_update",
                 "learners.probabilities", "learners.record_selected"):
        c = counted[name]
        m[f"{name}_calls"] = c["calls"]
        m[f"{name}_us"] = hist_median_us(c["hist"])
    learners_busy = sum(c["busy_s"] for c in counted.values())
    m["learners.busy_s"] = learners_busy

    # simulator: the round loop is run_repeated_game minus its table spans.
    rounds = sum(s.get("rounds", 0) for s in by_name.get("simulator.run_repeated_game", []))
    loop = sum(_dur(s) - child_s[s["key"]] for s in by_name.get("simulator.run_repeated_game", []))
    m["simulator.loop_us_per_round"] = 1e6 * loop / rounds if rounds else 0.0
    m["simulator.loop_self_us_per_round"] = (
        1e6 * (loop - learners_busy) / rounds if rounds else 0.0)
    m["simulator.trace_csv_s"] = total("simulator.trace_csv_text")
    m["simulator.strategies_json_s"] = total("simulator.strategies_json_text")
    m["simulator.bytes_written_mb"] = sum(
        s.get("bytes", 0) for s in spans
        if s["name"] in ("simulator.trace_csv_text", "simulator.strategies_json_text")) / 1e6
    m["simulator.load_trace_s"] = total("simulator.load_trace")

    m["analysis.report_s"] = total("analysis.analysis_report")
    m["analysis.epsilon_s"] = total("analysis.bayes_cce_epsilon")
    m["analysis.epsilon_calls"] = len(by_name.get("analysis.bayes_cce_epsilon", []))
    m["analysis.joint_s"] = total("analysis.empirical_joint")

    m["smoothness.check_s"] = total("smoothness.check_deviation_smoothness")
    m["smoothness.best_pure_s"] = total("smoothness.best_pure_deviation")
    m["smoothness.log_certificate_s"] = total("smoothness.log_deviation_certificate")

    lps = [s for s in by_name.get("exact.worst_cce_welfare", []) if "pivots" in s]
    pivots = sum(s["pivots"] for s in lps)
    m["exact.build_s"] = total("exact.build_agent_game")
    m["exact.lift_s"] = total("exact.lift_smoothness_check")
    m["exact.lp_s"] = total("exact.worst_cce_welfare")
    m["exact.lp_pivots"] = pivots
    m["exact.lp_us_per_pivot"] = 1e6 * sum(_dur(s) for s in lps) / pivots if pivots else 0.0
    m["exact.lp_solved"] = len(lps)
    m["exact.lp_attempted"] = sum(op.command == "exact" for op in wl.ops)

    both = [k for k in traced if k in plain]
    base = sum(plain[k]["main_s"] for k in both)
    m["trace_overhead_frac"] = (
        sum(traced[k]["main_s"] for k in both) / base - 1.0 if base else 0.0)
    return m


def _tag_spans(op: str, doc: dict) -> list[dict]:
    """Label one process's spans with its op, which also makes keys unique."""
    return [dict(s, op=op, key=(op, i),
                 parent_key=None if s["parent"] is None else (op, s["parent"]))
            for i, s in enumerate(doc.get("spans", []))]


# --- entry point -------------------------------------------------------------------


def _environment(wl: workloads.Workload) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "regretlab").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "config_sha256": wl.config_sha256,
        "sim_seeds": wl.sim_seeds,
        "deadline_s": wl.deadline_s,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="derives the simulation seeds; 0 gives 2, 4, 7, 10, 11")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons and a two-instance LP corpus, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "regretlab" / "cli.py").is_file():
        print(f"error: no regretlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
    declared = declared_metrics(bool(args.trace))
    try:
        if args.trace:
            result = trace_run(wl, args.seconds, MIN_TRACE_PASSES)
        else:
            minimum = MIN_SMOKE_REPEATS if args.smoke else MIN_REPEATS
            result = measure(wl, args.seconds, minimum)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if set(result["metrics"]) != set(declared):
        print(f"error: metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 1

    details = {"workload": wl.name, "seed": wl.seed, "smoke": args.smoke,
               "trace": args.trace, "environment": _environment(wl), **result["details"]}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
