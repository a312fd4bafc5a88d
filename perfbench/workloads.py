"""Workload definitions for the regretlab benchmark.

Each workload is a list of CLI operations on configs written into a work
directory. Simulation seeds come from the benchmark seed, so a claim can be
re-checked on seeds nobody tuned against; the LP corpus is fixed because its
objectives are pinned.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("headline", "long-horizon", "multiunit-bandit", "exact-lp")

# --seed 0 reproduces the seed list the paper figures use.
DEFAULT_SIM_SEEDS = (2, 4, 7, 10, 11)
SEED_STRIDE = 1000

# Fixed per-command deadline: more than twice the slowest passing command
# (simulate on multiunit-bandit, ~3.5 s with interpreter start) and far
# below the ~205 s the fp-h07a LP takes to hit its pivot cap.
DEADLINE_S = 8.0
SMOKE_DEADLINE_S = 4.0

# Horizons are sized so that a repeat takes a few seconds on a 2-CPU host,
# letting one run take several interleaved repeats, while the round loop
# stays a large share of each simulation workload.
HORIZON = {"headline": 3_000, "long-horizon": 40_000, "multiunit-bandit": 12_000}
SMOKE_HORIZON = {"headline": 100, "long-horizon": 400, "multiunit-bandit": 50}

# Worst-CCE welfare of each LP instance, solved independently with HiGHS
# (scipy.optimize.linprog) and agreeing with the in-house simplex to 1e-13
# where that one converges. fp-h07a has no in-house solution yet: its phase 1
# stalls under Bland's rule, so the op fails at the deadline.
LP_CORPUS = {
    # name: (kind, H, types, expected objective)
    "fp-h06": ("first-price", 0.6, (0.3, 0.6), 0.472745292369),
    "ap-h06": ("all-pay", 0.6, (0.3, 0.6), 21 / 40),
    "ap-h07": ("all-pay", 0.7, (0.35, 0.7), 171 / 280),
    "fp-h07b": ("first-price", 0.7, (0.4, 0.7), 0.554959950709),
    "fp-h07a": ("first-price", 0.7, (0.35, 0.7), 0.550811117277),
}
SMOKE_LP_CORPUS = ("ap-h06", "fp-h07a")
LP_OBJECTIVE_TOL = 1e-9
LP_LAMBDA = 0.4


@dataclass
class Op:
    """One CLI command and what its outputs must satisfy."""

    name: str
    command: str  # simulate | analyze | certify | exact
    config: Path
    out: Path | None = None
    rounds: int = 0  # seed-rounds, for simulate and analyze
    expected_objective: float | None = None

    def argv(self) -> list[str]:
        args = [self.command, "--config", str(self.config)]
        if self.out is not None:
            args += ["--out", str(self.out)]
        if self.command == "simulate":
            args += ["--workers", "1"]
        return args


@dataclass
class Workload:
    name: str
    seed: int
    sim_seeds: list[int]
    ops: list[Op] = field(default_factory=list)
    setup_configs: list[Path] = field(default_factory=list)
    warm_setup: bool = True  # horizon-1 run per mechanism during set-up
    setup_samples: int = 3  # set-up measurements per repeat
    config_sha256: dict[str, str] = field(default_factory=dict)
    deadline_s: float = DEADLINE_S


def sim_seeds(seed: int) -> list[int]:
    return [s + SEED_STRIDE * seed for s in DEFAULT_SIM_SEEDS]


def _mechanism(kind: str, H: float, n: int = 2, k: int = 1) -> dict:
    return {"kind": kind, "n": n, "k": k, "grid_step": 0.1, "H": H,
            "tie_break": "lowest-index"}


def _first_price(horizon: int, seeds: list[int]) -> dict:
    # The log rule certifies 0.5335 on this grid, so lambda 0.5 holds; the
    # default 1 - 1/e does not.
    return {"mechanism": _mechanism("first-price", 1.0),
            "populations": [[0.5, 1.0], [0.5, 1.0]], "horizon": horizon,
            "seeds": seeds, "feedback": "full", "deviation": "log",
            "smoothness": {"lambda": 0.5, "mu": 1.0}}


def _all_pay(horizon: int, seeds: list[int]) -> dict:
    return {"mechanism": _mechanism("all-pay", 1.0),
            "populations": [[0.5, 1.0], [0.5, 1.0]], "horizon": horizon,
            "seeds": seeds, "feedback": "full", "deviation": "uniform"}


def _multiunit(horizon: int, seeds: list[int]) -> dict:
    return {"mechanism": _mechanism("multi-unit-first-price", 1.0, n=4, k=2),
            "populations": [[0.5, 1.0]] * 4, "horizon": horizon,
            "seeds": seeds, "feedback": "bandit", "gamma": 0.05,
            "deviation": "half", "smoothness": {"lambda": 0.35, "mu": 1.0}}


def _lp_instance(name: str) -> dict:
    kind, H, types, _ = LP_CORPUS[name]
    return {"mechanism": _mechanism(kind, H), "populations": [list(types)] * 2,
            "deviation": "log" if kind == "first-price" else "uniform",
            "smoothness": {"lambda": LP_LAMBDA, "mu": 1.0}}


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Write the workload's configs under ``work`` and list its operations."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    seeds = sim_seeds(seed)
    wl = Workload(name=name, seed=seed, sim_seeds=seeds,
                  deadline_s=SMOKE_DEADLINE_S if smoke else DEADLINE_S)
    horizon = (SMOKE_HORIZON if smoke else HORIZON).get(name)
    configs: dict[str, dict] = {}
    if name == "headline":
        configs["fp"] = _first_price(horizon, seeds)
        configs["ap"] = _all_pay(horizon, seeds)
    elif name == "long-horizon":
        configs["fp"] = _first_price(horizon, seeds[:1])
    elif name == "multiunit-bandit":
        # One long seed rather than several short ones keeps the bandit loop
        # large next to the cold tables every command builds; set-up builds
        # them too, so it is sampled once per repeat.
        configs["mu"] = _multiunit(horizon, seeds[:1])
        wl.setup_samples = 1
    else:
        corpus = SMOKE_LP_CORPUS if smoke else tuple(LP_CORPUS)
        for lp in corpus:
            configs[lp] = _lp_instance(lp)
        wl.warm_setup = False

    work.mkdir(parents=True, exist_ok=True)
    for key, doc in configs.items():
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        path = work / f"{key}.json"
        path.write_text(text)
        wl.setup_configs.append(path)
        wl.config_sha256[key] = hashlib.sha256(text.encode()).hexdigest()
        if name == "exact-lp":
            wl.ops.append(Op(f"certify:{key}", "certify", path))
            wl.ops.append(Op(f"exact:{key}", "exact", path, out=work / f"out_{key}",
                             expected_objective=LP_CORPUS[key][3]))
            continue
        out = work / f"out_{key}"
        rounds = doc["horizon"] * len(doc["seeds"])
        wl.ops.append(Op(f"simulate:{key}", "simulate", path, out=out, rounds=rounds))
        wl.ops.append(Op(f"analyze:{key}", "analyze", path, out=out, rounds=rounds))
        if name != "long-horizon":
            wl.ops.append(Op(f"certify:{key}", "certify", path))
    return wl
