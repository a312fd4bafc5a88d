"""Shared fixtures.

The acceptance gate reruns the two headline experiments (first-price and
all-pay, five seeds each at T = 200000, each experiment's seeds played one
after another).
Those runs are built once per session and shared by every acceptance
criterion; unit tests use their own tiny horizons and never touch these.
"""

import tempfile
import time
from pathlib import Path

import pytest

from regretlab import mechanisms as mech
from regretlab import simulator as sim

ACCEPT_SEEDS = (2, 4, 7, 10, 11)
ACCEPT_HORIZON = 200_000
ACCEPT_VALUES = (0.5, 1.0)


def acceptance_config(kind, seed, horizon=ACCEPT_HORIZON):
    m = mech.Mechanism(
        kind=kind,
        n=2,
        grid=mech.uniform_grid(0.1),
    )
    return sim.SimConfig(
        mechanism=m,
        populations=(sim.Population(ACCEPT_VALUES), sim.Population(ACCEPT_VALUES)),
        horizon=horizon,
        seed=seed,
    )


def written_csv(trace):
    """The text ``write_trace_csv`` writes for ``trace``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        sim.write_trace_csv(trace, path)
        return path.read_text()


def _run_all(kind):
    # the five seeds are played one after another; each seed is charged
    # the whole batch's wall time
    t0 = time.perf_counter()
    traces = [sim.run_repeated_game(acceptance_config(kind, seed)) for seed in ACCEPT_SEEDS]
    wall = time.perf_counter() - t0
    return {trace.config.seed: (trace, wall) for trace in traces}


@pytest.fixture(scope="session")
def first_price_runs():
    """seed -> (trace, wall seconds) for the headline first-price experiment."""
    return _run_all(mech.KIND_FIRST_PRICE)


@pytest.fixture(scope="session")
def all_pay_runs():
    return _run_all(mech.KIND_ALL_PAY)
