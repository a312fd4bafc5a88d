"""Timing wrappers rebound onto regretlab module attributes.

Nothing under ``src/`` is edited: each public function the benchmark traces
is replaced, on the module or class it is looked up from at call time, by a
wrapper that records either a span (coarse calls) or a count, busy time and
a fixed-bucket histogram (per-round calls, of which a run makes ~10^6).
"""

from __future__ import annotations

import functools
import time

# (module, attribute) pairs timed as spans. A pair missing from the package
# is skipped, so the benchmark keeps running when a function is removed.
SPAN_TARGETS = (
    ("mechanisms", "utility_table"),
    ("mechanisms", "revenue_table"),
    ("simulator", "_welfare_tables"),
    ("simulator", "run_repeated_game"),
    ("simulator", "trace_csv_text"),
    ("simulator", "strategies_json_text"),
    ("simulator", "load_trace"),
    ("analysis", "analysis_report"),
    ("analysis", "bayes_cce_epsilon"),
    ("analysis", "empirical_joint"),
    ("smoothness", "check_deviation_smoothness"),
    ("smoothness", "best_pure_deviation"),
    ("smoothness", "log_deviation_certificate"),
    ("exact", "build_agent_game"),
    ("exact", "lift_smoothness_check"),
    ("exact", "worst_cce_welfare"),
)

# Per-round calls: (name, owner module, owner attribute or None, method).
# ``simulator`` imports the learner updates by name, so they are rebound
# there; the two methods are rebound on their classes.
COUNTED_TARGETS = (
    ("learners.hedge_update", "simulator", None, "hedge_update"),
    ("learners.bandit_update", "simulator", None, "bandit_update"),
    ("learners.probabilities", "learners", "LearnerState", "probabilities"),
    ("learners.record_selected", "learners", "RegretLedger", "record_selected"),
)

BUCKET_NS = 100  # histogram resolution: 0.1 us
N_BUCKETS = 5000  # last bucket collects calls of 500 us and more


class Tracer:
    """In-memory spans and per-call counters for one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counted: dict[str, list] = {}

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, extra=None):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
            idx = len(self.spans)
            self.spans.append(rec)
            self._stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if cache_info:
                rec["built"] = cache_info().misses > misses
            if extra is not None:
                rec.update(extra(fn, args, kwargs, result))
            return result

        return wrapper

    def run_span(self, name: str, fn, *args, **kwargs):
        return self.span(name, fn)(*args, **kwargs)

    # -- per-round counters --------------------------------------------------

    def counter(self, name: str, fn):
        stats = self.counted.setdefault(name, [0, 0, [0] * N_BUCKETS])
        hist = stats[2]
        clock = time.perf_counter_ns
        last = N_BUCKETS - 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            d = clock() - t0
            stats[0] += 1
            stats[1] += d
            hist[min(d // BUCKET_NS, last)] += 1
            return result

        return wrapper

    def counted_summary(self) -> dict:
        out = {}
        for name, (calls, busy_ns, hist) in self.counted.items():
            out[name] = {"calls": calls, "busy_s": busy_ns / 1e9,
                         "hist": {i: c for i, c in enumerate(hist) if c}}
        return out


def hist_median_us(hist: dict) -> float:
    """Median call time from a sparse {bucket: count} histogram."""
    calls = sum(hist.values())
    if calls == 0:
        return 0.0
    acc = 0
    for bucket in sorted(hist):
        acc += hist[bucket]
        if 2 * acc >= calls:
            return (bucket + 0.5) * BUCKET_NS / 1000.0
    raise AssertionError("unreachable")


def _table_extra(fn, args, kwargs, result):
    return {"entries": int(result.size)}


def _welfare_extra(fn, args, kwargs, result):
    if result is None:
        return {"entries": 0}
    return {"entries": int(result[0].size + result[1].size)}


def _run_extra(fn, args, kwargs, result):
    return {"rounds": int(result.horizon)}


def _text_extra(fn, args, kwargs, result):
    return {"bytes": len(result)}  # both formats are ASCII


def _lp_extra(fn, args, kwargs, result):
    return {"pivots": int(result.iterations)}


EXTRAS = {
    "mechanisms.utility_table": _table_extra,
    "mechanisms.revenue_table": _table_extra,
    "simulator._welfare_tables": _welfare_extra,
    "simulator.run_repeated_game": _run_extra,
    "simulator.trace_csv_text": _text_extra,
    "simulator.strategies_json_text": _text_extra,
    "exact.worst_cce_welfare": _lp_extra,
}


def install(tracer: Tracer, package) -> None:
    """Rebind every traced attribute of ``package`` to a wrapper."""
    import importlib

    for mod_name, attr in SPAN_TARGETS:
        mod = importlib.import_module(f"{package.__name__}.{mod_name}")
        fn = getattr(mod, attr, None)
        if fn is None:
            continue
        name = f"{mod_name}.{attr}"
        wrapper = tracer.span(name, fn, EXTRAS.get(name))
        if hasattr(fn, "cache_clear"):
            # clear_table_caches() calls utility_table.cache_clear().
            wrapper.cache_clear = fn.cache_clear
            wrapper.cache_info = fn.cache_info
        setattr(mod, attr, wrapper)

    for name, mod_name, owner_name, attr in COUNTED_TARGETS:
        mod = importlib.import_module(f"{package.__name__}.{mod_name}")
        owner = getattr(mod, owner_name) if owner_name else mod
        fn = getattr(owner, attr, None)
        if fn is None:
            continue
        setattr(owner, attr, tracer.counter(name, fn))
