"""Command-line experiment harness.

Subcommands:

* ``simulate``: run the repeated game for every configured seed, writing
  per-seed trace.csv, strategies.json, report.json, checkpoints.csv and an
  aggregate report.json. The seeds run as one batch, or as ``--workers``
  contiguous batches in parallel processes.
* ``certify``: evaluate a named deviation rule's certificate exhaustively
  and report the best level reachable with pure deviations, when that
  search fits its cap (it is informational and never sets the exit code).
* ``exact``: build the agent normal form, check the lifted certificate, and
  bound worst-case equilibrium welfare by LP.
* ``analyze``: recompute analysis reports from stored trace files.

One JSON document describes one experiment. The schema is checked before any
work starts and unknown keys are rejected with the offending path. All
randomness flows from the configured seeds; output naming is deterministic
and independent of worker completion order.

Exit codes: 0 success / property holds, 1 property fails or solver failure,
2 usage or config error, a malformed trace file, an input or output path
that cannot be read or written, or a result that is undefined on the
configured inputs (such as a ratio of zero welfares).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import mechanisms as mech, smoothness
from .errors import (
    CapExceededError,
    ConfigError,
    ContractViolationError,
    InputError,
    SolverError,
    UndefinedResultError,
)

# Each command imports only the modules it runs: certify never loads the
# simulator, the learners, the analysis or the LP.
if TYPE_CHECKING:
    from . import simulator

DEFAULT_SMOOTHNESS = {
    mech.KIND_FIRST_PRICE: (smoothness.LOG_RULE_LIMIT, 1.0),
    mech.KIND_ALL_PAY: (0.5, 1.0),
    mech.KIND_MULTI_UNIT: (smoothness.LOG_RULE_LIMIT, 1.0),
}
DEFAULT_DEVIATION = {
    mech.KIND_FIRST_PRICE: "log",
    mech.KIND_ALL_PAY: "uniform",
    mech.KIND_MULTI_UNIT: "half",
}


@dataclass(frozen=True)
class AnalysisSettings:
    zeta: float = 0.01
    delta: float = 0.05
    rho: float = 0.05
    tolerance: float = 0.05
    checkpoints: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: mech.Mechanism
    populations: tuple[tuple[float, ...], ...]
    horizon: int | None
    seeds: tuple[int, ...]
    feedback: str
    eta: float | None
    gamma: float
    deviation: str | None
    params: smoothness.SmoothnessParams
    settings: AnalysisSettings
    out_dir: str | None
    strategies_every: int


def _check_keys(obj: dict, spec: dict[str, bool], path: str) -> None:
    unknown = sorted(set(obj) - set(spec))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = sorted(k for k, required in spec.items() if required and k not in obj)
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")


def _number(obj, path: str, minimum=None, maximum=None, positive=False) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ConfigError(f"{path}: expected a number, got {type(obj).__name__}")
    # NaN fails the comparison too; an integer literal can exceed the float range
    if not abs(obj) <= sys.float_info.max:
        raise ConfigError(f"{path}: must be a finite number, got {obj}")
    x = float(obj)
    if minimum is not None and x < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {x}")
    if positive and x <= 0.0:
        raise ConfigError(f"{path}: must be > 0, got {x}")
    if maximum is not None and x > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {x}")
    return x


def _integer(obj, path: str, minimum=None) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ConfigError(f"{path}: expected an integer, got {type(obj).__name__}")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {obj}")
    return obj


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate one experiment file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read the config file: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(
        doc,
        {
            "mechanism": True,
            "populations": True,
            "horizon": False,
            "seeds": False,
            "feedback": False,
            "eta": False,
            "gamma": False,
            "deviation": False,
            "smoothness": False,
            "analysis": False,
            "out_dir": False,
            "strategies_every": False,
        },
        str(path),
    )
    try:
        mechanism = mech.Mechanism.from_descriptor(doc["mechanism"])
    except (InputError, TypeError, KeyError) as e:
        raise ConfigError(f"{path}: mechanism: {e}") from e

    pops_doc = doc["populations"]
    if not isinstance(pops_doc, list) or not pops_doc:
        raise ConfigError(f"{path}: populations: expected a non-empty list")
    if len(pops_doc) != mechanism.n:
        raise ConfigError(
            f"{path}: populations: {len(pops_doc)} entries for "
            f"{mechanism.n} player seats"
        )
    populations = []
    for i, vals in enumerate(pops_doc):
        if not isinstance(vals, list) or not vals:
            raise ConfigError(
                f"{path}: populations[{i}]: expected a non-empty list of values"
            )
        populations.append(
            tuple(_number(v, f"{path}: populations[{i}][{j}]", minimum=0.0)
                  for j, v in enumerate(vals))
        )

    horizon = None
    if "horizon" in doc:
        horizon = _integer(doc["horizon"], f"{path}: horizon", minimum=1)
    seeds = ()
    if "seeds" in doc:
        if not isinstance(doc["seeds"], list):
            raise ConfigError(f"{path}: seeds: expected a list of integers")
        seeds = tuple(
            _integer(s, f"{path}: seeds[{j}]", minimum=0)
            for j, s in enumerate(doc["seeds"])
        )
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"{path}: seeds: duplicates are not allowed")

    feedback = doc.get("feedback", mech.FEEDBACK_FULL)
    if feedback not in (mech.FEEDBACK_FULL, mech.FEEDBACK_BANDIT):
        raise ConfigError(f"{path}: feedback: unknown mode {feedback!r}")
    eta = None
    if doc.get("eta") is not None:
        eta = _number(doc["eta"], f"{path}: eta", minimum=0.0)
    gamma = _number(doc.get("gamma", 0.05), f"{path}: gamma", minimum=0.0, maximum=1)

    deviation = doc.get("deviation")
    if deviation is not None and not isinstance(deviation, str):
        raise ConfigError(f"{path}: deviation: expected a rule name string")

    lam, mu = DEFAULT_SMOOTHNESS[mechanism.kind]
    if "smoothness" in doc:
        sm = doc["smoothness"]
        if not isinstance(sm, dict):
            raise ConfigError(f"{path}: smoothness: expected an object")
        _check_keys(sm, {"lambda": True, "mu": True}, f"{path}: smoothness")
        lam = _number(sm["lambda"], f"{path}: smoothness.lambda")
        mu = _number(sm["mu"], f"{path}: smoothness.mu", minimum=0.0)
    try:
        params = smoothness.SmoothnessParams(lam=lam, mu=mu)
    except InputError as e:
        raise ConfigError(f"{path}: smoothness: {e}") from e

    settings = AnalysisSettings()
    if "analysis" in doc:
        an = doc["analysis"]
        if not isinstance(an, dict):
            raise ConfigError(f"{path}: analysis: expected an object")
        _check_keys(
            an,
            {"zeta": False, "delta": False, "rho": False, "tolerance": False,
             "checkpoints": False},
            f"{path}: analysis",
        )
        checkpoints = None
        if an.get("checkpoints") is not None:
            if not isinstance(an["checkpoints"], list) or not an["checkpoints"]:
                raise ConfigError(
                    f"{path}: analysis.checkpoints: expected a non-empty list"
                )
            checkpoints = tuple(
                _integer(c, f"{path}: analysis.checkpoints[{j}]", minimum=1)
                for j, c in enumerate(an["checkpoints"])
            )
        # the ranges the report needs: t_star takes delta > 0 and rho in
        # (0, 1], the independence gap zeta in [0, 1]
        settings = AnalysisSettings(
            zeta=_number(an.get("zeta", settings.zeta), f"{path}: analysis.zeta",
                         minimum=0.0, maximum=1),
            delta=_number(an.get("delta", settings.delta), f"{path}: analysis.delta",
                          positive=True),
            rho=_number(an.get("rho", settings.rho), f"{path}: analysis.rho",
                        positive=True, maximum=1),
            tolerance=_number(an.get("tolerance", settings.tolerance),
                              f"{path}: analysis.tolerance", minimum=0.0),
            checkpoints=checkpoints,
        )

    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"{path}: out_dir: expected a string")
    every = _integer(doc.get("strategies_every", 1), f"{path}: strategies_every",
                     minimum=1)

    return ExperimentConfig(
        mechanism=mechanism,
        populations=tuple(populations),
        horizon=horizon,
        seeds=seeds,
        feedback=feedback,
        eta=eta,
        gamma=gamma,
        deviation=deviation,
        params=params,
        settings=settings,
        out_dir=out_dir,
        strategies_every=every,
    )


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _sim_config(cfg: ExperimentConfig, seed: int) -> simulator.SimConfig:
    from . import simulator

    return simulator.SimConfig(
        mechanism=cfg.mechanism,
        populations=tuple(mech.Population(p) for p in cfg.populations),
        horizon=cfg.horizon,
        seed=seed,
        feedback=cfg.feedback,
        eta=cfg.eta,
        gamma=cfg.gamma,
    )


def _write_report(cfg: ExperimentConfig, trace: simulator.Trace, d: Path) -> dict:
    """Analyze one seed's trace, write its report.json and checkpoints.csv
    into ``d``, and return the seed's summary."""
    from . import analysis

    report = analysis.analysis_report(trace, cfg.params, **asdict(cfg.settings))
    (d / "report.json").write_text(_json_text(report))
    (d / "checkpoints.csv").write_text(
        analysis.checkpoints_csv_text(report["checkpoints"])
    )
    return {
        "seed": report["seed"],
        "ratio": report["ratio"],
        "epsilon": report["epsilon"],
        "independence_gap": report["independence_gap"],
        "finite_time_slack": report["finite_time_slack"],
        "within_bound": report["within_bound"],
    }


def _run_batch(job) -> list[dict]:
    """Worker for a batch of seeds: simulate them together, then persist and
    analyze each seed. Top level so process pools can pickle it."""
    from . import simulator

    cfg, seeds, out_root = job
    summaries = []
    for trace in simulator.run_seed_batch(_sim_config(cfg, seeds[0]), seeds):
        d = Path(out_root) / f"seed_{trace.config.seed}"
        d.mkdir(parents=True, exist_ok=True)
        simulator.write_trace_csv(trace, d / "trace.csv")
        simulator.write_strategies_json(
            trace, d / "strategies.json", every=cfg.strategies_every
        )
        if cfg.strategies_every > 1:
            # analyze sees no commitment table in a thinned sidecar; the report
            # must not depend on more than the files hold
            trace = replace(trace, strategy=None)
        summaries.append(_write_report(cfg, trace, d))
    return summaries


def _aggregate(cfg: ExperimentConfig, summaries: list[dict]) -> dict:
    summaries = sorted(summaries, key=lambda r: r["seed"])
    finite = [r["ratio"] for r in summaries if math.isfinite(r["ratio"])]
    return {
        "bound": cfg.params.poa_bound,
        "lambda": cfg.params.lam,
        "mu": cfg.params.mu,
        "n_seeds": len(summaries),
        "per_seed": summaries,
        "mean_ratio": sum(finite) / len(finite) if finite else math.inf,
        "max_ratio": max(r["ratio"] for r in summaries),
        "all_within_bound": all(r["within_bound"] for r in summaries),
    }


def cmd_simulate(cfg: ExperimentConfig, out_dir: str | None, workers: int) -> int:
    out = out_dir or cfg.out_dir
    if out is None:
        raise ConfigError("simulate needs an output directory (config out_dir or --out)")
    if not cfg.seeds:
        raise ConfigError("simulate needs a non-empty seeds list")
    if cfg.horizon is None:
        raise ConfigError("simulate needs a horizon")
    last = max(cfg.settings.checkpoints or (1,))
    if last > cfg.horizon:
        raise ConfigError(
            f"analysis.checkpoints: {last} lies beyond the horizon {cfg.horizon}"
        )
    # an invalid run exits before writing anything; the seeds' index arrays
    # are all held at once, in one batch or across the workers' batches
    from . import simulator

    simulator.check_index_memory(_sim_config(cfg, cfg.seeds[0]), len(cfg.seeds))
    Path(out).mkdir(parents=True, exist_ok=True)
    # k contiguous seed batches whose sizes differ by at most one
    n, k = len(cfg.seeds), min(workers, len(cfg.seeds))
    cuts = [(n * b + k - 1) // k for b in range(k + 1)]
    jobs = [(cfg, cfg.seeds[a:b], out) for a, b in zip(cuts, cuts[1:])]
    if k > 1:
        from concurrent.futures import ProcessPoolExecutor  # only workers need it

        with ProcessPoolExecutor(max_workers=k) as pool:
            summaries = [r for batch in pool.map(_run_batch, jobs) for r in batch]
    else:
        summaries = _run_batch(jobs[0])
    agg = _aggregate(cfg, summaries)
    Path(out, "report.json").write_text(_json_text(agg))
    for r in agg["per_seed"]:
        print(
            f"seed {r['seed']}: ratio {r['ratio']:.4f} (bound {agg['bound']:.4f}), "
            f"epsilon {r['epsilon']:.5f}, slack {r['finite_time_slack']:.4f}"
        )
    print(f"mean ratio {agg['mean_ratio']:.4f} over {agg['n_seeds']} seeds -> {out}")
    return 0


def _base_check(cfg: ExperimentConfig, rule_name: str, lam: float | None,
                mu: float | None):
    """The config's (lambda, mu) with the --lambda/--mu overrides applied, the
    named rule, the value space, and the rule's exhaustive check on it."""
    params = cfg.params
    if lam is not None:
        params = replace(params, lam=lam)
    if mu is not None:
        params = replace(params, mu=mu)
    rule = smoothness.named_deviation(rule_name, cfg.mechanism)
    value_space = mech.value_profiles(cfg.populations)
    report = smoothness.check_deviation_smoothness(
        cfg.mechanism, rule, params, value_space
    )
    return params, rule, value_space, report


def cmd_certify(cfg: ExperimentConfig, lam: float | None, mu: float | None) -> int:
    if cfg.deviation is None:
        raise ConfigError("certify needs a deviation rule name in the config")
    params, rule, value_space, report = _base_check(cfg, cfg.deviation, lam, mu)
    print(f"rule {rule.name!r}: {report}")
    try:
        best, _ = smoothness.best_pure_deviation(cfg.mechanism, params.mu, value_space)
    except (CapExceededError, UndefinedResultError) as e:
        print(f"best pure-deviation level skipped: {e}")
    else:
        print(f"best pure-deviation level at mu={params.mu:.6g}: {best:.6g}")
    if cfg.mechanism.kind == mech.KIND_FIRST_PRICE and rule.name == "log":
        if report.level is None:
            print("log rule certificate skipped: every profile in value_space "
                  "has zero optimal welfare")
        else:
            print(
                f"log rule certifies lam={report.level:.6g} "
                f"(continuum limit {smoothness.LOG_RULE_LIMIT:.6g}, degradation "
                f"{max(0.0, smoothness.LOG_RULE_LIMIT - report.level):.6g})"
            )
    return 0 if report.holds else 1


def cmd_exact(cfg: ExperimentConfig, lam: float | None, mu: float | None,
              out_dir: str | None) -> int:
    if out_dir is not None:  # an unusable --out exits before any work
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    from . import exact

    name = cfg.deviation or DEFAULT_DEVIATION[cfg.mechanism.kind]
    params, rule, _, base = _base_check(cfg, name, lam, mu)
    game = exact.build_agent_game(cfg.mechanism, cfg.populations)
    lift = exact.lift_smoothness_check(game, rule, params)
    solution = exact.worst_cce_welfare(game)
    table = exact.bound_comparison(game, solution, params)
    print(f"base rule {rule.name!r}: {base}")
    print(f"lifted check: {'holds' if lift.holds else 'FAILS'} "
          f"(worst slack {lift.worst_slack:.3e})")
    print(
        f"agents {game.n_agents}, profiles {table['sigma']}, "
        f"constraints {table['n_constraints']}, pivots {table['lp_iterations']}"
    )
    print(
        f"worst equilibrium welfare {table['lp_welfare']:.6f}, dual bound "
        f"{table['lp_dual_bound']:.6f} (gap {table['lp_dual_gap']:.1e}) vs floor "
        f"{table['floor']:.6f} (lam/max(1,mu) * E[Opt], E[Opt]={table['e_opt']:.6f})"
        f" -> {'holds' if table['holds'] else 'FAILS'}"
    )
    if out_dir is not None:
        d = Path(out_dir)
        exact.write_agent_game_json(game, d / "agent_game.json")
        exact.write_solution_json(solution, d / "lp_solution.json")
        (d / "exact_report.json").write_text(_json_text({
            "base_holds": base.holds,
            "base_worst_slack": base.worst_slack,
            "lift_holds": lift.holds,
            "lift_worst_slack": lift.worst_slack,
            "table": table,
        }))
    return 0 if (base.holds and lift.holds and table["holds"]) else 1


def _check_describes(cfg: ExperimentConfig, trace: simulator.Trace, sidecar: Path) -> None:
    """Raise ConfigError unless the trace was run with the config's mechanism,
    populations and horizon (when it gives one): the report takes lambda and
    mu from the config."""
    run = trace.config
    for name, ours, theirs in (
        ("mechanism", cfg.mechanism.to_descriptor(), run.mechanism.to_descriptor()),
        ("populations", cfg.populations, tuple(p.values for p in run.populations)),
        ("horizon", cfg.horizon or trace.horizon, trace.horizon),
    ):
        if ours != theirs:
            raise ConfigError(f"{sidecar}: {name}: the config gives {ours}, "
                              f"the trace was run with {theirs}")


def cmd_analyze(cfg: ExperimentConfig, out_dir: str | None) -> int:
    from . import simulator

    out = out_dir or cfg.out_dir
    if out is None:
        raise ConfigError("analyze needs the directory holding the seed runs")
    root = Path(out)
    seeds = {}
    for p in root.glob("seed_*"):
        if p.is_dir():
            try:
                seeds[p] = int(p.name.split("_", 1)[1])
            except ValueError:
                raise ConfigError(f"{p}: not a seed run directory (seed_<integer>)") from None
    seed_dirs = sorted(seeds, key=seeds.get)
    if not seed_dirs:
        raise ConfigError(f"no seed_* directories under {root}")
    summaries = []
    for d in seed_dirs:
        trace = simulator.load_trace(d / "trace.csv", d / "strategies.json")
        _check_describes(cfg, trace, d / "strategies.json")
        summary = _write_report(cfg, trace, d)
        summaries.append(summary)
        print(f"{d.name}: ratio {summary['ratio']:.4f}, epsilon {summary['epsilon']:.5f}")
    agg = _aggregate(cfg, summaries)
    (root / "report.json").write_text(_json_text(agg))
    print(f"mean ratio {agg['mean_ratio']:.4f} over {agg['n_seeds']} seeds -> {root}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretlab",
        description="Repeated-auction learning experiments and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=False, lam_mu=False):
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", default=None, help="output directory override")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="processes running contiguous seed batches (default 1)")
        if lam_mu:
            p.add_argument("--lambda", dest="lam", type=float, default=None,
                           help="override the certificate lambda")
            p.add_argument("--mu", type=float, default=None,
                           help="override the certificate mu")

    common(sub.add_parser("simulate", help="run seeds and write traces"),
           workers=True)
    common(sub.add_parser("certify", help="check a deviation certificate"),
           lam_mu=True)
    common(sub.add_parser("exact", help="agent-game enumeration and LP bound"),
           lam_mu=True)
    common(sub.add_parser("analyze", help="recompute reports from stored traces"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            if args.workers < 1:
                raise ConfigError("--workers must be >= 1")
            return cmd_simulate(cfg, args.out, args.workers)
        if args.command == "certify":
            return cmd_certify(cfg, args.lam, args.mu)
        if args.command == "exact":
            return cmd_exact(cfg, args.lam, args.mu, args.out)
        return cmd_analyze(cfg, args.out)
    except (ConfigError, CapExceededError, InputError, UndefinedResultError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SolverError, ContractViolationError) as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
