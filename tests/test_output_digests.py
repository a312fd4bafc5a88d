"""Byte identity of every file ``simulate`` writes and ``analyze`` rewrites,
and of everything ``exact`` writes.

``output_digests.json`` holds, for each fixture, the config, the stdout of
the commands it runs (output path replaced by ``<out>``) and the SHA-256 of
every file under the output directory. A simulation fixture pins
``simulate`` and ``analyze``; an ``exact-*`` fixture pins ``exact`` alone.
A change to any of them is an output change and is recorded in CHANGES.md
with its reason.
"""

import hashlib
import json
from pathlib import Path

import pytest

from regretlab import cli

PINNED = json.loads((Path(__file__).parent / "output_digests.json").read_text())
SIMULATED = sorted(name for name in PINNED if "simulate_stdout" in PINNED[name])
SOLVED = sorted(name for name in PINNED if "exact_stdout" in PINNED[name])


def digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run(capsys, command, config, out):
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return capsys.readouterr().out.replace(str(out), "<out>")


def test_every_fixture_pins_a_command():
    assert sorted(SIMULATED + SOLVED) == sorted(PINNED)


@pytest.mark.parametrize("name", SIMULATED)
def test_simulate_and_analyze_write_the_pinned_bytes(name, tmp_path, capsys):
    # the fixtures cover both Hedge block ends (the ceiling, with a fixed
    # eta of 5, and guesses gone stale), one and five seeds, all-pay, the
    # n = 4 multi-unit bandit, bandit batches of five first-price seeds and
    # of three multi-unit seeds whose fixed eta of 2 at gamma 0.05 divides
    # rows at 158 ceiling checks (both pinned while a batched bandit step
    # played them), and a sidecar thinned to every third round of a horizon
    # that is no multiple of 3
    pinned = PINNED[name]
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(pinned["config"]))
    out = tmp_path / "out"
    assert run(capsys, "simulate", config, out) == pinned["simulate_stdout"]
    assert digests(out) == pinned["sha256"]
    assert run(capsys, "analyze", config, out) == pinned["analyze_stdout"]
    assert digests(out) == pinned["sha256"]


@pytest.mark.parametrize("name", SOLVED)
def test_exact_writes_the_pinned_bytes(name, tmp_path, capsys):
    # the five LP corpus instances at lambda 0.4, mu 1 (grid 0.1, two
    # populations of two types) and both headline games
    pinned = PINNED[name]
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(pinned["config"]))
    out = tmp_path / "out"
    assert run(capsys, "exact", config, out) == pinned["exact_stdout"]
    assert digests(out) == pinned["sha256"]
