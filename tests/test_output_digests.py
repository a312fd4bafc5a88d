"""Byte identity of every file ``simulate`` writes and ``analyze`` rewrites.

``output_digests.json`` holds, for each fixture, the config, the stdout of
both commands (output path replaced by ``<out>``) and the SHA-256 of every
file under the output directory. A change to any of them is an output change
and is recorded in CHANGES.md with its reason.
"""

import hashlib
import json
from pathlib import Path

import pytest

from regretlab import cli

PINNED = json.loads((Path(__file__).parent / "output_digests.json").read_text())


def digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run(capsys, command, config, out):
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return capsys.readouterr().out.replace(str(out), "<out>")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulate_and_analyze_write_the_pinned_bytes(name, tmp_path, capsys):
    # the fixtures cover both Hedge block ends (the ceiling, with a fixed
    # eta of 5, and guesses gone stale), one and five seeds, all-pay, the
    # n = 4 multi-unit bandit's scalar step, and a sidecar thinned to every
    # third round of a horizon that is no multiple of 3
    pinned = PINNED[name]
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(pinned["config"]))
    out = tmp_path / "out"
    assert run(capsys, "simulate", config, out) == pinned["simulate_stdout"]
    assert digests(out) == pinned["sha256"]
    assert run(capsys, "analyze", config, out) == pinned["analyze_stdout"]
    assert digests(out) == pinned["sha256"]
