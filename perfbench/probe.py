"""Child process of the benchmark: one set-up or one CLI command, in process.

    python3 perfbench/probe.py --result FILE [--trace] setup CONFIG...
    python3 perfbench/probe.py --result FILE [--trace] cli SUBCOMMAND ARGS...

``setup`` times a fresh interpreter's ``import regretlab.cli``, then
``load_config`` of every config, then (with ``--warm``) a horizon-1
``run_repeated_game`` per config with cold table caches. ``cli`` runs
``regretlab.cli.main`` on the given arguments and exits with its code.
With ``--trace`` the library's public functions are rebound to timing
wrappers first (see ``tracer.py``). Timings, spans and counters go to FILE
as JSON. ``regretlab`` must be importable, e.g. with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracer import Tracer, install


def _setup(cli, configs: list[str], warm: bool) -> dict:
    from regretlab import simulator

    t0 = time.perf_counter()
    cfgs = [cli.load_config(path) for path in configs]
    t1 = time.perf_counter()
    if warm:
        for cfg in cfgs:
            sim = simulator.SimConfig(
                mechanism=cfg.mechanism,
                populations=tuple(simulator.Population(p) for p in cfg.populations),
                horizon=1,
                seed=cfg.seeds[0],
                feedback=cfg.feedback,
                eta=cfg.eta,
                gamma=cfg.gamma,
            )
            simulator.run_repeated_game(sim)
    t2 = time.perf_counter()
    return {"load_config_s": t1 - t0, "warm_s": t2 - t1}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("mode", choices=("setup", "cli"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    t0 = time.perf_counter()
    import regretlab
    import regretlab.cli as cli

    out = {"import_s": time.perf_counter() - t0}
    tracer = None
    if opts.trace:
        tracer = Tracer()
        install(tracer, regretlab)

    rc = 0
    if opts.mode == "setup":
        out.update(_setup(cli, opts.args, opts.warm))
    else:
        t1 = time.perf_counter()
        if tracer is not None:
            rc = tracer.run_span("cli.main", cli.main, opts.args)
        else:
            rc = cli.main(opts.args)
        out["main_s"] = time.perf_counter() - t1
    out["rc"] = rc
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counted"] = tracer.counted_summary()
    with open(opts.result, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
