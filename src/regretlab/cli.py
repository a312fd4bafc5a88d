"""Command-line experiment harness.

Subcommands:

* ``simulate``: run the repeated game for every configured seed, writing
  per-seed trace.csv, strategies.json, report.json, checkpoints.csv and an
  aggregate report.json. The seeds run one after another, or as
  ``--workers`` contiguous batches in parallel processes.
* ``certify``: evaluate a deviation rule's certificate exhaustively (the
  config's rule, or the mechanism kind's default when it names none)
  and report the best level reachable with pure deviations, when that
  search fits its cap (it is informational and never sets the exit code).
* ``exact``: build the agent normal form, check the lifted certificate, and
  bound worst-case equilibrium welfare by LP.
* ``analyze``: recompute analysis reports from stored trace files; no file
  is written until every seed directory has been read, checked and analyzed.

One JSON document describes one experiment. The schema is checked before any
work starts and unknown keys are rejected with the offending path. All
randomness flows from the configured seeds; output naming is deterministic
and independent of worker completion order.

The command line is read like the config: each command's flags are a key
table for ``mechanisms.read_object``, so argv costs no import beyond what
every command loads (``argparse`` loaded ``gettext`` and ``locale``).

Exit codes: 0 success / property holds, 1 property fails or solver failure,
2 usage or config error, a malformed trace file, an input or output path
that cannot be read or written, or a result that is undefined on the
configured inputs (such as a ratio of zero welfares).
"""

from __future__ import annotations

import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import mechanisms as mech
from .errors import (
    CapExceededError,
    ConfigError,
    ContractViolationError,
    InputError,
    SolverError,
    UndefinedResultError,
)
from .records import asdict, record, replace

# Each command imports only the modules it runs: certify never loads the
# simulator, the learners, the analysis or the LP, and only certify and exact
# load smoothness.
if TYPE_CHECKING:
    from . import simulator

DEFAULT_SMOOTHNESS = {
    mech.KIND_FIRST_PRICE: (mech.LOG_RULE_LIMIT, 1.0),
    mech.KIND_ALL_PAY: (0.5, 1.0),
    mech.KIND_MULTI_UNIT: (mech.LOG_RULE_LIMIT, 1.0),
}
DEFAULT_DEVIATION = {
    mech.KIND_FIRST_PRICE: "log",
    mech.KIND_ALL_PAY: "uniform",
    mech.KIND_MULTI_UNIT: "half",
}


@record(frozen=True)
class AnalysisSettings:
    zeta: float
    delta: float
    rho: float
    tolerance: float
    checkpoints: tuple[int, ...] | None


@record(frozen=True)
class ExperimentConfig:
    mechanism: mech.Mechanism
    populations: tuple[tuple[float, ...], ...]
    horizon: int | None
    seeds: tuple[int, ...]
    feedback: str
    eta: float | None
    gamma: float
    deviation: str | None
    params: mech.SmoothnessParams
    settings: AnalysisSettings
    out_dir: str | None
    strategies_every: int


# The config's objects as tables of key -> (parser, default). The analysis
# ranges are those the report needs: t_star takes delta > 0 whose cube is
# finite and rho in (0, 1], the independence gap zeta in [0, 1].
ANALYSIS = {
    "zeta": (partial(mech.read_number, minimum=0.0, maximum=1), 0.01),
    "delta": (partial(mech.read_number, positive=True, maximum=mech.CUBE_MAX), 0.05),
    "rho": (partial(mech.read_number, positive=True, maximum=1), 0.05),
    "tolerance": (partial(mech.read_number, minimum=0.0), 0.05),
    "checkpoints": (mech.nullable(partial(mech.read_list, nonempty=True,
                                          item=partial(mech.read_integer, minimum=1))), None),
}
SMOOTHNESS = {
    "lambda": (mech.read_number, mech.REQUIRED),
    "mu": (partial(mech.read_number, minimum=0.0), mech.REQUIRED),
}
CONFIG = {
    "mechanism": (mech.Mechanism.from_descriptor, mech.REQUIRED),
    "populations": (mech.read_populations, mech.REQUIRED),
    "horizon": (partial(mech.read_integer, minimum=1), None),
    "seeds": (partial(mech.read_list, item=partial(mech.read_integer, minimum=0)), ()),
    "feedback": (partial(mech.read_string, choices=mech.FEEDBACK_MODES), mech.FEEDBACK_FULL),
    "eta": (mech.nullable(partial(mech.read_number, minimum=0.0)), None),
    "gamma": (partial(mech.read_number, minimum=0.0, maximum=1), 0.05),
    "deviation": (mech.nullable(mech.read_string), None),
    "smoothness": (partial(mech.read_object, SMOOTHNESS), None),
    "analysis": (partial(mech.read_object, ANALYSIS), mech.read_object(ANALYSIS, {})),
    "out_dir": (mech.nullable(mech.read_string), None),
    "strategies_every": (partial(mech.read_integer, minimum=1), 1),
}


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
    # the tables, then the checks across keys: distinct seeds, the one
    # population check every command makes (a seat per population, distinct
    # types, each in [0, H]), and the kind's (lambda, mu) when none is given
    try:
        f = mech.read_object(CONFIG, doc)
        if len(set(f["seeds"])) != len(f["seeds"]):
            raise InputError("seeds: duplicates are not allowed")
        pops = mech.check_populations(f["mechanism"], f["populations"])
        sm = f.pop("smoothness")
        lam, mu = DEFAULT_SMOOTHNESS[f["mechanism"].kind] if sm is None else (sm["lambda"], sm["mu"])
        params = mech.SmoothnessParams(lam=lam, mu=mu)
    except InputError as e:
        raise ConfigError(f"{path}: {e}") from e
    f.update(populations=tuple(p.values for p in pops), params=params,
             settings=AnalysisSettings(**f.pop("analysis")))
    return ExperimentConfig(**f)


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _sim_config(cfg: ExperimentConfig, seed: int) -> simulator.SimConfig:
    from . import simulator

    return simulator.SimConfig(mechanism=cfg.mechanism, populations=cfg.populations,
                               horizon=cfg.horizon, seed=seed, feedback=cfg.feedback,
                               eta=cfg.eta, gamma=cfg.gamma)


def _seed_report(cfg: ExperimentConfig, trace: simulator.Trace) -> tuple[dict, dict]:
    """Analyze one seed's trace: the seed's summary, and the texts of its
    report.json and checkpoints.csv by file name."""
    from . import analysis

    report = analysis.analysis_report(trace, cfg.params, **asdict(cfg.settings))
    summary = ("seed", "ratio", "epsilon", "independence_gap", "finite_time_slack",
               "within_bound")
    return {k: report[k] for k in summary}, {
        "report.json": _json_text(report),
        "checkpoints.csv": analysis.checkpoints_csv_text(report["checkpoints"]),
    }


def _run_batch(job) -> list[dict]:
    """Worker for a batch of seeds: simulate, persist and analyze one seed
    after another, each an independent run of the repeated game from its own
    generator, holding one seed's trace at a time. Top level so process
    pools can pickle it."""
    from . import simulator

    cfg, seeds, out_root = job
    summaries = []
    for seed in seeds:
        trace = simulator.run_repeated_game(_sim_config(cfg, seed))
        d = Path(out_root) / f"seed_{seed}"
        d.mkdir(parents=True, exist_ok=True)
        simulator.write_trace_csv(trace, d / "trace.csv")
        (d / "strategies.json").write_text(
            simulator.strategies_json_text(trace, cfg.strategies_every)
        )
        if cfg.strategies_every > 1:
            # analyze sees no commitment table in a thinned sidecar; the report
            # must not depend on more than the files hold
            trace = replace(trace, strategy=None)
        summary, files = _seed_report(cfg, trace)
        for name, text in files.items():
            (d / name).write_text(text)
        summaries.append(summary)
        del trace  # freed before the next seed is played
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
    # an invalid run exits before writing anything; each worker holds one
    # seed's index arrays at a time
    from . import rounds, simulator

    n, k = len(cfg.seeds), min(workers, len(cfg.seeds))
    simulator.check_index_memory(_sim_config(cfg, cfg.seeds[0]), k)
    if all(0.0 in p for p in cfg.populations):
        # a seed that draws the 0 type for every seat in every round (every
        # seed, when every type is 0) has zero welfare and zero optimum; only
        # configs with a 0 type in every population draw their types twice
        zeros = [p.index(0.0) for p in cfg.populations]
        for seed in cfg.seeds:
            if (rounds.draw_types(_sim_config(cfg, seed)) == zeros).all():
                raise UndefinedResultError(
                    f"seed {seed} draws only 0 types, so its welfare ratio is undefined"
                )
    Path(out).mkdir(parents=True, exist_ok=True)
    # k contiguous seed batches whose sizes differ by at most one
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


def _base_check(cfg: ExperimentConfig, lam: float | None, mu: float | None):
    """The config's (lambda, mu) with the --lambda/--mu overrides applied, the
    config's rule (the kind's default when it names none), the value space,
    and the rule's exhaustive check on it."""
    from . import smoothness

    params = cfg.params
    if lam is not None:
        params = replace(params, lam=lam)
    if mu is not None:
        params = replace(params, mu=mu)
    name = cfg.deviation or DEFAULT_DEVIATION[cfg.mechanism.kind]
    rule = smoothness.named_deviation(name, cfg.mechanism)
    value_space = mech.value_profiles(cfg.populations)
    report = smoothness.check_deviation_smoothness(
        cfg.mechanism, rule, params, value_space
    )
    return params, rule, value_space, report


def cmd_certify(cfg: ExperimentConfig, lam: float | None, mu: float | None) -> int:
    from . import smoothness

    params, rule, value_space, report = _base_check(cfg, lam, mu)
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
                f"(continuum limit {mech.LOG_RULE_LIMIT:.6g}, degradation "
                f"{max(0.0, mech.LOG_RULE_LIMIT - report.level):.6g})"
            )
    return 0 if report.holds else 1


def cmd_exact(cfg: ExperimentConfig, lam: float | None, mu: float | None,
              out_dir: str | None) -> int:
    if out_dir is not None:  # an unusable --out exits before any work
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    from . import exact

    params, rule, _, base = _base_check(cfg, lam, mu)
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
    """Raise ConfigError unless the sidecar's directory is seed_<its seed> and
    the trace ran the config's mechanism, populations and horizon (when it
    gives one): the report takes lambda and mu from the config."""
    run = trace.config
    if sidecar.parent.name != f"seed_{run.seed}":
        raise ConfigError(f"{sidecar.parent}: holds seed {run.seed}; name it seed_{run.seed}")
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
    # every seed is read, checked and analyzed before any file is written, so
    # a refused run leaves the directory as it was; only the texts are held
    analyzed = []
    for d in seed_dirs:
        trace = simulator.load_trace(d / "trace.csv", d / "strategies.json")
        _check_describes(cfg, trace, d / "strategies.json")
        analyzed.append((d, *_seed_report(cfg, trace)))
        del trace  # freed before the next seed is read
    for d, summary, files in analyzed:
        for name, text in files.items():
            (d / name).write_text(text)
        print(f"{d.name}: ratio {summary['ratio']:.4f}, epsilon {summary['epsilon']:.5f}")
    agg = _aggregate(cfg, [summary for _, summary, _ in analyzed])
    (root / "report.json").write_text(_json_text(agg))
    print(f"mean ratio {agg['mean_ratio']:.4f} over {agg['n_seeds']} seeds -> {root}")
    return 0


USAGE = """\
usage: regretlab simulate --config FILE [--out DIR] [--workers N]
       regretlab analyze  --config FILE [--out DIR]
       regretlab certify  --config FILE [--out DIR] [--lambda X] [--mu X]
       regretlab exact    --config FILE [--out DIR] [--lambda X] [--mu X]
A flag is --flag VALUE or --flag=VALUE; the last one given counts.
"""


def _flag(convert, parse):
    """A flag's parser: ``convert`` (int or float) reads its text, ``parse`` checks it."""
    def read(text, path):
        try:
            value = convert(text)
        except ValueError:
            raise InputError(f"{path}: expected {convert.__name__}, got {text!r}") from None
        return parse(value, path)
    return read


# each command's flags as a key table of mech.read_object
FLAGS = {"--config": (mech.read_string, mech.REQUIRED), "--out": (mech.read_string, None)}
LAMBDA_MU = {"--lambda": (_flag(float, SMOOTHNESS["lambda"][0]), None),
             "--mu": (_flag(float, SMOOTHNESS["mu"][0]), None)}
COMMANDS = {
    "simulate": {**FLAGS, "--workers": (_flag(int, partial(mech.read_integer, minimum=1)), 1)},
    "analyze": FLAGS,
    "certify": {**FLAGS, **LAMBDA_MU},
    "exact": {**FLAGS, **LAMBDA_MU},
}


def read_argv(argv: list) -> tuple[str, dict]:
    """The command and its flags by name; a usage error raises ConfigError."""
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "none"
        raise ConfigError(f"expected a command, one of {list(COMMANDS)}; got {got}")
    command, flags, rest = argv[0], {}, argv[:0:-1]  # a stack, the first flag on top
    while rest:
        flag, eq, text = rest.pop().partition("=")
        if not flag.startswith("--"):
            raise ConfigError(f"{command}: unexpected argument {flag + eq + text!r}")
        if not eq:
            if not rest or rest[-1].startswith("--"):
                raise ConfigError(f"{command}: {flag} needs a value")
            text = rest.pop()
        flags[flag] = text
    try:
        return command, mech.read_object(COMMANDS[command], flags)
    except InputError as e:
        raise ConfigError(f"{command}: {e}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        command, flags = read_argv(argv)
        cfg = load_config(flags["--config"])
        if command == "simulate":
            return cmd_simulate(cfg, flags["--out"], flags["--workers"])
        if command == "certify":
            return cmd_certify(cfg, flags["--lambda"], flags["--mu"])
        if command == "exact":
            return cmd_exact(cfg, flags["--lambda"], flags["--mu"], flags["--out"])
        return cmd_analyze(cfg, flags["--out"])
    except (ConfigError, CapExceededError, InputError, UndefinedResultError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SolverError, ContractViolationError) as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
