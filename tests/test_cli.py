"""Config loading and the four subcommands, end to end in temp directories."""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from regretlab import ConfigError
from regretlab import cli, exact
from regretlab import mechanisms as mech
from regretlab import simulator as sim
from regretlab import smoothness as smooth
from regretlab.records import replace


def base_doc(**overrides):
    doc = {
        "mechanism": {
            "kind": "first-price",
            "n": 2,
            "k": 1,
            "grid_step": 0.25,
            "H": 1.0,
            "tie_break": "lowest-index",
        },
        "populations": [[0.5, 1.0], [0.5, 1.0]],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, name="exp.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_doc(**overrides)))
    return str(path)


# --- config parsing -------------------------------------------------------------


def test_load_config_full(tmp_path):
    path = write_config(
        tmp_path,
        horizon=500,
        seeds=[3, 1],
        feedback="bandit",
        eta=0.2,
        gamma=0.1,
        deviation="half",
        smoothness={"lambda": 0.5, "mu": 1.0},
        analysis={"zeta": 0.02, "delta": 0.1, "rho": 0.05, "tolerance": 0.01,
                  "checkpoints": [16, 64, 500]},
        out_dir="runs",
    )
    cfg = cli.load_config(path)
    assert cfg.mechanism.kind == mech.KIND_FIRST_PRICE
    assert cfg.mechanism.n == 2
    assert cfg.populations == ((0.5, 1.0), (0.5, 1.0))
    assert cfg.horizon == 500
    assert cfg.seeds == (3, 1)
    assert cfg.feedback == "bandit"
    assert cfg.eta == 0.2
    assert cfg.gamma == 0.1
    assert cfg.deviation == "half"
    assert (cfg.params.lam, cfg.params.mu) == (0.5, 1.0)
    assert cfg.settings.zeta == 0.02
    assert cfg.settings.checkpoints == (16, 64, 500)
    assert cfg.out_dir == "runs"


def test_load_config_defaults(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    assert cfg.horizon is None
    assert cfg.seeds == ()
    assert cfg.feedback == "full"
    assert cfg.eta is None and cfg.gamma == 0.05
    assert cfg.deviation is None
    assert cfg.params.lam == pytest.approx(1.0 - 1.0 / math.e)
    assert cfg.params.mu == 1.0
    assert cfg.settings.zeta == 0.01 and cfg.settings.checkpoints is None
    assert cfg.out_dir is None


def test_all_pay_default_smoothness(tmp_path):
    doc = base_doc()
    doc["mechanism"]["kind"] = "all-pay"
    path = tmp_path / "ap.json"
    path.write_text(json.dumps(doc))
    cfg = cli.load_config(str(path))
    assert (cfg.params.lam, cfg.params.mu) == (0.5, 1.0)


def test_unknown_keys_name_their_path(tmp_path):
    with pytest.raises(ConfigError, match="horizonn"):
        cli.load_config(write_config(tmp_path, horizonn=5))
    # every round's commitments are written; the thinning key is gone
    with pytest.raises(ConfigError, match="strategies_every"):
        cli.load_config(write_config(tmp_path, strategies_every=1))
    with pytest.raises(ConfigError, match=r"smoothness.*bogus"):
        cli.load_config(
            write_config(tmp_path, smoothness={"lambda": 1.0, "mu": 0.0, "bogus": 1})
        )
    with pytest.raises(ConfigError, match=r"analysis.*extra"):
        cli.load_config(write_config(tmp_path, analysis={"zeta": 0.01, "extra": 2}))
    with pytest.raises(ConfigError, match=r"missing.*mu"):
        cli.load_config(write_config(tmp_path, smoothness={"lambda": 1.0}))


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "mechanism": \n}')
    with pytest.raises(ConfigError, match="line"):
        cli.load_config(str(path))


def test_config_value_validation(tmp_path):
    cases = [
        dict(horizon=0),
        dict(seeds=[1, 1]),
        dict(seeds="1,2"),
        dict(seeds=[-1]),
        dict(gamma=1.5),
        dict(feedback="oracle"),
        dict(eta=-0.1),
        dict(populations=[[0.5, 1.0]]),
        dict(populations=[[0.5, -1.0], [0.5, 1.0]]),
        dict(populations=[]),
        dict(smoothness={"lambda": 0.0, "mu": 1.0}),
        dict(smoothness={"lambda": math.nan, "mu": 1.0}),
        dict(smoothness={"lambda": 0.5, "mu": math.inf}),
        dict(smoothness={"lambda": 10**400, "mu": 1.0}),
        dict(gamma=math.nan),
        dict(populations=[[0.5, math.inf], [0.5, 1.0]]),
        dict(analysis={"checkpoints": []}),
    ]
    for i, kw in enumerate(cases):
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path, name=f"bad{i}.json", **kw))
    bad_mechanisms = [
        [],
        {**base_doc()["mechanism"], "n": "x"},
        {**base_doc()["mechanism"], "n": 2.5},
        {**base_doc()["mechanism"], "n": True},
        {**base_doc()["mechanism"], "k": 1.0},
        {**base_doc()["mechanism"], "grid_step": "abc"},
        {**base_doc()["mechanism"], "grid_step": math.inf},
        {**base_doc()["mechanism"], "H": math.nan},
        {**base_doc()["mechanism"], "H": 10**400},
    ]
    for i, m in enumerate(bad_mechanisms):
        path = tmp_path / f"badmech{i}.json"
        path.write_text(json.dumps(base_doc(mechanism=m)))
        with pytest.raises(ConfigError, match="mechanism"):
            cli.load_config(str(path))
    doc = base_doc()
    doc["mechanism"]["kind"] = "second-price"
    path = tmp_path / "badmech.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="mechanism"):
        cli.load_config(str(path))
    doc = base_doc()
    doc["mechanism"]["tie_break"] = "random"
    path = tmp_path / "badtie.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="tie_break"):
        cli.load_config(str(path))


# --- simulate + analyze -----------------------------------------------------------


def simulate_config(tmp_path, out, **overrides):
    return write_config(
        tmp_path,
        name="sim.json",
        horizon=400,
        seeds=[1, 2],
        out_dir=str(out),
        **overrides,
    )


def test_simulate_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "runs"
    code = cli.main(["simulate", "--config", simulate_config(tmp_path, out)])
    assert code == 0
    for seed in (1, 2):
        d = out / f"seed_{seed}"
        for fname in ("trace.csv", "strategies.json", "report.json", "checkpoints.csv"):
            assert (d / fname).exists(), f"{d / fname} missing"
        report = json.loads((d / "report.json").read_text())
        assert report["seed"] == seed and report["horizon"] == 400
        assert report["checkpoints"][-1]["horizon"] == 400
    agg = json.loads((out / "report.json").read_text())
    assert agg["n_seeds"] == 2
    assert [r["seed"] for r in agg["per_seed"]] == [1, 2]
    assert math.isfinite(agg["mean_ratio"])
    assert agg["bound"] == pytest.approx(1.0 / (1.0 - 1.0 / math.e))
    stdout = capsys.readouterr().out
    assert "mean ratio" in stdout
    assert "seed 1:" in stdout


def test_analyze_reproduces_simulate_reports(tmp_path, capsys):
    out = tmp_path / "runs"
    cfg = simulate_config(tmp_path, out)
    assert cli.main(["simulate", "--config", cfg]) == 0
    before = {
        p: (out / p).read_text()
        for p in ("report.json", "seed_1/report.json", "seed_2/checkpoints.csv")
    }
    assert cli.main(["analyze", "--config", cfg]) == 0
    for p, text in before.items():
        assert (out / p).read_text() == text, f"{p} changed on re-analysis"
    # a seed_* directory without an integer seed is named, not a traceback
    (out / "seed_abc").mkdir()
    capsys.readouterr()
    assert cli.main(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / "seed_abc") in err


def test_a_step_of_one_third_is_written_back_and_reanalyzed(tmp_path, capsys):
    # 1/3 is no 12-decimal number; every seed directory is written whole,
    # and analyze on a copy rewrites its reports byte for byte
    out = tmp_path / "runs"
    third = {**base_doc()["mechanism"], "grid_step": 1 / 3}
    cfg = simulate_config(tmp_path, out, mechanism=third)
    assert cli.main(["simulate", "--config", cfg]) == 0
    written = {"trace.csv", "strategies.json", "report.json", "checkpoints.csv"}
    for seed in (1, 2):
        assert {p.name for p in (out / f"seed_{seed}").iterdir()} == written
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    for p in [copy / "report.json", *copy.glob("seed_*/report.json"),
              *copy.glob("seed_*/checkpoints.csv")]:
        p.unlink()
    assert cli.main(["analyze", "--config", cfg, "--out", str(copy)]) == 0
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(copy) for p in copy.rglob("*") if p.is_file())
    for p in files:
        assert (copy / p).read_bytes() == (out / p).read_bytes(), p
    # exact writes an agent_game.json whose mechanism loads as the config's
    game = tmp_path / "exact"
    assert cli.main(["exact", "--config", cfg, "--out", str(game)]) in (0, 1)
    doc = json.loads((game / "agent_game.json").read_text())
    assert mech.Mechanism.from_descriptor(doc["mechanism"]) == cli.load_config(cfg).mechanism
    assert doc["mechanism"]["grid_step"] == 1 / 3


def test_a_step_no_descriptor_writes_back_exits_two_before_any_file(tmp_path, capsys):
    # 0.1000000000004 builds bids up to 4e-12 off the tenths, which neither
    # that step nor H / 10 rebuilds, so no sidecar could name the grid
    out = tmp_path / "runs"
    step = {**base_doc()["mechanism"], "grid_step": 0.1000000000004}
    cfg = simulate_config(tmp_path, out, mechanism=step)
    for command in (["simulate"], ["exact", "--out", str(tmp_path / "exact")]):
        assert cli.main([*command, "--config", cfg]) == 2, command
        out_text, err = capsys.readouterr()
        assert out_text == "" and "mechanism: no grid step rebuilds" in err, command
    assert not out.exists() and not (tmp_path / "exact").exists()


def test_every_command_refuses_duplicate_types(tmp_path, capsys):
    out = tmp_path / "runs"
    path = write_config(tmp_path, populations=[[0.5, 0.5], [0.5, 1.0]], horizon=10,
                        seeds=[1], deviation="log", out_dir=str(out))
    for command in ("certify", "exact", "simulate", "analyze"):
        assert cli.main([command, "--config", path]) == 2, command
        err = capsys.readouterr().err
        assert "population types must be distinct" in err, command
    assert not out.exists()


def test_analyze_rejects_a_tampered_welfare_cell(tmp_path, capsys):
    out = tmp_path / "runs"
    cfg = simulate_config(tmp_path, out)
    assert cli.main(["simulate", "--config", cfg]) == 0
    trace = out / "seed_2" / "trace.csv"
    lines = trace.read_text().split("\n")
    # overwrite sw with opt in the first round where they differ
    t = next(t for t in range(1, len(lines) - 1)
             if lines[t].split(",")[-2] != lines[t].split(",")[-1])
    row = lines[t].split(",")
    row[-2] = row[-1]
    lines[t] = ",".join(row)
    trace.write_text("\n".join(lines))
    capsys.readouterr()
    assert cli.main(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"trace.csv: round {t}, column sw: holds '{row[-1]}', expected " in err
    assert "np.float64" not in err  # the values print as plain floats


def test_analyze_refuses_types_the_seed_did_not_draw(tmp_path, capsys):
    # every type set to the high one, with each round's bids gathered from
    # the sidecar for those types and the welfare recomputed: a trace that
    # agrees with itself and with the commitment table, which the seed
    # never played
    out = tmp_path / "runs"
    cfg = simulate_config(tmp_path, out)
    assert cli.main(["simulate", "--config", cfg]) == 0
    d = out / "seed_2"
    trace = sim.load_trace(d / "trace.csv", d / "strategies.json")
    forged = np.ones_like(trace.v_idx)
    realized = np.take_along_axis(
        trace.strategy, forged + np.array(trace.config.agent_offsets()), axis=1
    )
    sw, opt = sim.welfare_columns(trace.config, forged, realized)
    sim.write_trace_csv(replace(trace, v_idx=forged, realized_idx=realized, sw=sw, opt=opt),
                        d / "trace.csv")
    t, seat = np.argwhere(trace.v_idx != forged)[0]
    before = snapshot(out)
    capsys.readouterr()
    assert cli.main(["analyze", "--config", cfg]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err == (f"error: {d / 'trace.csv'}: round {t + 1}, column v_idx_{seat + 1}: "
                   "holds '1', expected '0'\n")
    assert snapshot(out) == before


def replace_cell(lines, t, column, text):
    """``lines`` of trace.csv with the cell of row ``t`` under ``column`` replaced."""
    cells = lines[t].split(",")
    cells[lines[0].split(",").index(column)] = text
    return lines[:t] + [",".join(cells)] + lines[t + 1:]


def widen_a_bid(lines):
    """``lines`` of trace.csv with the first action_1 cell "0.5" written "0.50"."""
    t = next(t for t in range(1, len(lines)) if lines[t].split(",")[3] == "0.5")
    return replace_cell(lines, t, "action_1", "0.50")


@pytest.mark.parametrize(
    "message, edit",
    [
        # round 3 duplicates round 2
        ("round 3, column t: holds '2', expected '3'",
         lambda lines: lines[:3] + lines[2:3] + lines[4:]),
        ("round 3, column v_idx_1:", lambda lines: replace_cell(lines, 3, "v_idx_1", "0.5")),
        ("round 3, column v_idx_1:", lambda lines: replace_cell(lines, 3, "v_idx_1", "2")),
        ("round 3, column action_1: holds '0.3', expected ",
         lambda lines: replace_cell(lines, 3, "action_1", "0.3")),
        ("round 3, column sw: holds 'abc', expected ",
         lambda lines: replace_cell(lines, 3, "sw", "abc")),
        ("round 1, column t: the file ends, expected '1'", lambda lines: lines[:1] + [""]),
        ("round 1, column t: holds '', expected '1'",
         lambda lines: lines[:1] + ["", " ", ""]),
        ("column action_1: holds '0.50', expected '0.5'", widen_a_bid),
        ("header, column action_2: holds 'bid_2', expected 'action_2'",
         lambda lines: [lines[0].replace("action_2", "bid_2")] + lines[1:]),
        ("round 41, column t: the file goes on after round 40", lambda lines: lines + [""]),
    ],
    ids=["duplicate-round", "fractional-type", "type-out-of-range", "off-grid-bid",
         "non-numeric", "header-only", "blank-lines", "trailing-zero", "renamed-column",
         "trailing-newline"],
)
def test_analyze_rejects_a_malformed_trace(tmp_path, capsys, message, edit):
    out = tmp_path / "runs"
    cfg = write_config(tmp_path, name="sim.json", horizon=40, seeds=[1],
                       out_dir=str(out))
    assert cli.main(["simulate", "--config", cfg]) == 0
    trace = out / "seed_1" / "trace.csv"
    trace.write_text("\n".join(edit(trace.read_text().split("\n"))))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    # one error line: no traceback, and no warning numpy would print
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert [str(w.message) for w in caught] == []


def drop_meta_entry(doc, key):
    del doc["meta"][key]
    return doc


def set_meta_entry(doc, key, value):
    doc["meta"][key] = value
    return doc


def bid_off_the_grid(doc):
    # every agent's first commitment, so an unselected agent's too; rows are
    # ranked by their bid indices, which must lie on the 5-bid grid
    doc["rounds"][0] = [5] * len(doc["rounds"][0])
    return doc


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps(drop_meta_entry(json.loads(text), "horizon")),
        lambda text: json.dumps(set_meta_entry(json.loads(text), "mechanism", "x")),
        lambda text: json.dumps(set_meta_entry(json.loads(text), "seed", "abc")),
        lambda text: json.dumps(bid_off_the_grid(json.loads(text))),
        # a sidecar thinned to every third round cannot give every round's bids
        lambda text: text.replace('{"every":1,', '{"every":3,', 1),
    ],
    ids=["truncated", "no-horizon", "mechanism-not-an-object", "non-numeric-seed",
         "bid-off-the-grid", "thinned"],
)
def test_analyze_rejects_a_malformed_sidecar(tmp_path, capsys, edit):
    out = tmp_path / "runs"
    cfg = write_config(tmp_path, name="sim.json", horizon=40, seeds=[1],
                       out_dir=str(out))
    assert cli.main(["simulate", "--config", cfg]) == 0
    sidecar = out / "seed_1" / "strategies.json"
    sidecar.write_text(edit(sidecar.read_text()))
    capsys.readouterr()
    assert cli.main(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(sidecar) in err
    if sidecar.read_text().startswith('{"every":3,'):
        assert err.endswith("malformed sidecar: every: must be <= 1, got 3\n")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("horizon", 40.0, "meta.horizon: expected an integer, got float"),
        ("seed", "1", "meta.seed: expected an integer, got str"),
        ("gamma", "0.05", "meta.gamma: expected a number, got str"),
        ("populations", [[0.5, True], [0.5, 1.0]],
         "meta.populations[0][1]: expected a number, got bool"),
        ("colour", "blue", "meta: unknown keys ['colour']"),
    ],
    ids=["float-horizon", "string-seed", "string-gamma", "boolean-type", "unknown-key"],
)
def test_analyze_reads_the_sidecar_meta_as_strictly_as_a_config(tmp_path, capsys, key,
                                                                 value, message):
    # each edit leaves a sidecar written as simulate writes it, and a value
    # that int() or float() would take; analyze refuses it and writes nothing
    out = tmp_path / "runs"
    cfg = write_config(tmp_path, name="sim.json", horizon=40, seeds=[1],
                       out_dir=str(out))
    assert cli.main(["simulate", "--config", cfg]) == 0
    sidecar = out / "seed_1" / "strategies.json"
    doc = set_meta_entry(json.loads(sidecar.read_text()), key, value)
    sidecar.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert cli.main(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {sidecar}: malformed sidecar: {message}\n"
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_a_compact_sidecar_with_a_bid_off_the_grid_exits_two(tmp_path, capsys):
    # written as simulate writes it, the table is read from its bytes; the
    # grid check after the read gives the same message as for any other text
    out = tmp_path / "runs"
    cfg = write_config(tmp_path, name="sim.json", horizon=40, seeds=[1],
                       out_dir=str(out))
    assert cli.main(["simulate", "--config", cfg]) == 0
    sidecar = out / "seed_1" / "strategies.json"
    doc = bid_off_the_grid(json.loads(sidecar.read_text()))
    sidecar.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    capsys.readouterr()
    assert cli.main(["analyze", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: {sidecar}: malformed commitment table: a bid index lies off the grid\n"
    )


def multi_unit_of_four(doc):
    # another experiment's config, whose lambda 0.35 would bound a first-price run
    doc["mechanism"].update(kind="multi-unit-first-price", n=4, k=2)
    doc.update(populations=[[0.5, 1.0]] * 4, smoothness={"lambda": 0.35, "mu": 1.0})


def test_analyze_refuses_a_seed_directory_named_after_another_seed(tmp_path, capsys):
    # int("1_0") is 10, so a copy of seed_10 named seed_1_0 read as a second
    # seed 10; a copy of seed_3 named seed_7 read as a second seed 3
    out = tmp_path / "runs"
    cfg = write_config(tmp_path, name="sim.json", horizon=50, seeds=[3, 10],
                       out_dir=str(out), deviation="half",
                       smoothness={"lambda": 0.5, "mu": 1.0},
                       mechanism={**base_doc()["mechanism"], "grid_step": 0.5})
    assert cli.main(["simulate", "--config", cfg]) == 0
    for source, copy in (("seed_10", "seed_1_0"), ("seed_3", "seed_7")):
        shutil.copytree(out / source, out / copy)
        capsys.readouterr()
        assert cli.main(["analyze", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out / copy) in err
        shutil.rmtree(out / copy)
    assert cli.main(["analyze", "--config", cfg]) == 0
    assert json.loads((out / "report.json").read_text())["n_seeds"] == 2


@pytest.mark.parametrize("field, edit", [
    ("mechanism", multi_unit_of_four),
    ("populations", lambda doc: doc.update(populations=[[0.5, 1.0], [0.25, 1.0]])),
    ("horizon", lambda doc: doc.update(horizon=401)),
])
def test_analyze_rejects_a_config_that_does_not_describe_the_traces(
        tmp_path, capsys, field, edit):
    out = tmp_path / "runs"
    assert cli.main(["simulate", "--config", simulate_config(tmp_path, out)]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    doc = base_doc(horizon=400, out_dir=str(out))
    edit(doc)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["analyze", "--config", str(other)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"seed_1/strategies.json: {field}:" in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # a config without a horizon describes a run of any length
    doc = base_doc(out_dir=str(out))
    other.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--config", str(other)]) == 0
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def snapshot(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("spoil", ["misnamed-copy", "malformed-later-trace"])
def test_a_refused_analyze_leaves_every_file_as_it_was(tmp_path, capsys, spoil):
    # seed 3 is analyzed before the run is refused at seed 10; under another
    # lambda its report says another bound, so a write before the refusal shows
    out = tmp_path / "runs"
    doc = base_doc(horizon=200, seeds=[3, 10], out_dir=str(out), deviation="half",
                   smoothness={"lambda": 0.5, "mu": 1.0})
    doc["mechanism"]["grid_step"] = 0.1
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    if spoil == "misnamed-copy":  # seed_1_0 reads as seed 10 and holds seed 3
        shutil.copytree(out / "seed_3", out / "seed_1_0")
    else:
        trace = out / "seed_10" / "trace.csv"
        trace.write_text("\n".join(replace_cell(trace.read_text().split("\n"), 3, "sw", "abc")))
    before = snapshot(out)
    doc["smoothness"]["lambda"] = 0.4
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["analyze", "--config", str(cfg)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error:") and err.count("\n") == 1
    assert snapshot(out) == before


def test_a_vanishing_delta_reports_an_infinite_sufficient_horizon(tmp_path, capsys):
    # delta**3 underflows to 0 below delta ~1.35e-108
    out = tmp_path / "runs"
    cfg = simulate_config(tmp_path, out, analysis={"delta": 1e-120})
    assert cli.main(["simulate", "--config", cfg]) == 0
    for seed in (1, 2):
        report = json.loads((out / f"seed_{seed}" / "report.json").read_text())
        assert report["delta"] == 1e-120 and report["t_star"] == math.inf


def test_parallel_workers_match_serial(tmp_path):
    # five seeds over two workers run as batches of three and two; every file
    # must equal the one-batch run byte for byte
    outs = {w: tmp_path / f"w{w}" for w in (1, 2)}
    for w, out in outs.items():
        cfg = write_config(tmp_path, name=f"w{w}.json", horizon=300,
                           seeds=[5, 1, 9, 3, 7], out_dir=str(out))
        assert cli.main(["simulate", "--config", cfg, "--workers", str(w)]) == 0
    files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert len(files) == 1 + 5 * 4
    assert files == sorted(p.relative_to(outs[2]) for p in outs[2].rglob("*") if p.is_file())
    for f in files:
        assert (outs[1] / f).read_bytes() == (outs[2] / f).read_bytes(), f


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only simulate --workers k > 1 needs multiprocessing; every other command
    # should not pay for importing it
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = "import sys, regretlab.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


BASE_MODULES = {"cli", "errors", "mechanisms", "records"}
RUN_MODULES = BASE_MODULES | {"analysis", "learners", "simulator"}


# only certify and exact load smoothness, and only simulate the round loop;
# analyze draws the types again from the seed's stream
@pytest.mark.parametrize("command, feedback, loaded", [
    ("certify", "full", BASE_MODULES | {"smoothness"}),
    ("exact", "full", BASE_MODULES | {"smoothness", "exact"}),
    ("simulate", "full", RUN_MODULES | {"pcg64", "rounds"}),
    ("simulate", "bandit", RUN_MODULES | {"pcg64", "rounds", "scalar_step"}),
    ("analyze", "full", RUN_MODULES | {"readers", "pcg64"}),
])
def test_each_command_imports_only_what_it_runs(tmp_path, command, feedback, loaded):
    doc = base_doc(deviation="half", smoothness={"lambda": 0.5, "mu": 1.0},
                   horizon=50, seeds=[1], feedback=feedback)
    doc["mechanism"]["grid_step"] = 0.5
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "analyze":
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = (
        "import sys, numpy\n"
        "bare = 'numpy.random' in sys.modules\n"
        "import regretlab.cli\n"
        f"argv = [{command!r}, '--config', {str(cfg)!r}]\n"
        f"argv += [] if argv[0] == 'certify' else ['--out', {str(out)!r}]\n"
        "assert regretlab.cli.main(argv) == 0\n"
        "print(any(m in sys.modules for m in "
        "('dataclasses', 'logging', 'argparse', 'gettext', 'locale')))\n"
        "print(bare or 'numpy.random' not in sys.modules)\n"
        "print(' '.join(m for m in sys.modules if m.startswith('regretlab.')))"
    )
    lines = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True).stdout.splitlines()
    # dataclasses would generate each record's methods with exec at import;
    # logging, imported only to warn, adds 0.5 MB to a command's peak RSS;
    # argv is read without argparse, which loads gettext and locale
    assert lines[-3] == "False"
    # numpy 2 loads its random package on first use, and no command uses it;
    # numpy 1 loads it with numpy itself
    assert lines[-2] == "True"
    assert set(lines[-1].split()) == {f"regretlab.{m}" for m in loaded}


# argv -> exit code: usage errors exit 2 with one error line, help exits 0
ARGV = {
    "no-command": ([], 2),
    "unknown-command": (["bogus", "--config", "{cfg}"], 2),
    "unknown-flag": (["simulate", "--config", "{cfg}", "--bogus", "1"], 2),
    "abbreviated-flag": (["simulate", "--conf", "{cfg}"], 2),
    "flag-of-another-command": (["certify", "--config", "{cfg}", "--workers", "2"], 2),
    "certify-out": (["certify", "--config", "{cfg}", "--out", "{out}"], 2),
    "single-dash-flag": (["simulate", "-c", "{cfg}"], 2),
    "stray-argument": (["simulate", "--config", "{cfg}", "extra"], 2),
    "missing-value": (["simulate", "--config"], 2),
    "flag-for-a-value": (["simulate", "--config", "--out", "{out}"], 2),
    "missing-config": (["simulate", "--out", "{out}"], 2),
    "workers-not-an-integer": (["simulate", "--config", "{cfg}", "--workers", "1.5"], 2),
    "workers-zero": (["simulate", "--config", "{cfg}", "--workers=0"], 2),
    "lambda-not-a-number": (["certify", "--config", "{cfg}", "--lambda", "abc"], 2),
    "lambda-infinite": (["exact", "--config", "{cfg}", "--lambda", "inf"], 2),
    "mu-negative": (["certify", "--config", "{cfg}", "--mu", "-1"], 2),
    "help": (["-h"], 0),
    "command-help": (["simulate", "--config", "{cfg}", "--help"], 0),
    "equals-forms-and-last-wins": (["certify", "--config=absent.json", "--config={cfg}",
                                    "--lambda=0.95", "--lambda", ".5"], 0),
}


@pytest.mark.parametrize("argv, code", ARGV.values(), ids=ARGV.keys())
def test_the_command_line(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, horizon=10, seeds=[1], out_dir=str(out),
                       deviation="half", smoothness={"lambda": 0.9, "mu": 1.0})
    assert cli.main([a.format(cfg=cfg, out=out) for a in argv]) == code
    stdout, err = capsys.readouterr()
    if code == 2:
        assert stdout == "" and err.startswith("error:") and err.count("\n") == 1
    elif argv[-1] in ("-h", "--help"):
        assert stdout == cli.USAGE and stdout.startswith("usage: regretlab") and err == ""
    else:
        assert stdout.startswith("rule 'half': (lam=0.5, mu=1) holds") and err == ""
    assert not out.exists()  # no command wrote anything


def test_simulate_usage_errors(tmp_path, capsys):
    # no out_dir anywhere
    cfg = write_config(tmp_path, name="noout.json", horizon=10, seeds=[1])
    assert cli.main(["simulate", "--config", cfg]) == 2
    # no seeds
    cfg = write_config(
        tmp_path, name="noseeds.json", horizon=10, out_dir=str(tmp_path / "x")
    )
    assert cli.main(["simulate", "--config", cfg]) == 2
    # no horizon
    cfg = write_config(
        tmp_path, name="nohor.json", seeds=[1], out_dir=str(tmp_path / "y")
    )
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    # a config path that is a directory, or a file that is not UTF-8
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'{"out_dir": "caf\xe9"}')
    for path in (tmp_path, binary):
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and "Traceback" not in err
    # analysis settings the report would reject exit before anything is written
    for i, analysis in enumerate(({"delta": 0}, {"rho": 0}, {"rho": 1.5},
                                  {"zeta": 1.5}, {"checkpoints": [10, 11]})):
        out = tmp_path / f"an{i}"
        cfg = write_config(tmp_path, name=f"an{i}.json", horizon=10, seeds=[1, 2],
                           out_dir=str(out), analysis=analysis)
        capsys.readouterr()
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
    # a grid too wide for the int16 index arrays
    doc = base_doc(horizon=10, seeds=[1], out_dir=str(tmp_path / "z"),
                   populations=[[1.0]])
    doc["mechanism"].update(n=1, grid_step=2e-5)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    # zero-value populations: the welfare ratio is undefined, which the type
    # draws show before any seed is played, so nothing is written
    doc = base_doc(horizon=10, seeds=[1, 2], out_dir=str(tmp_path / "w"),
                   populations=[[0.0], [0.0]])
    doc["mechanism"]["grid_step"] = 0.5
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert ("seed 1 draws only 0 types, so its welfare ratio is undefined"
            in capsys.readouterr().err)
    assert not (tmp_path / "w").exists()
    # with a 0 type in every population, seed 1 of this config draws only
    # 0 types in its one round; the seed is named before anything is written
    doc = base_doc(horizon=1, seeds=[1, 2, 3, 4, 5, 6], out_dir=str(tmp_path / "z1"),
                   populations=[[0.0, 0.5], [0.0, 0.5]])
    doc["mechanism"]["grid_step"] = 0.1
    path = tmp_path / "zero_draws.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert ("seed 1 draws only 0 types, so its welfare ratio is undefined"
            in capsys.readouterr().err)
    assert not (tmp_path / "z1").exists()


def simulate_into_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    cfg = write_config(tmp_path, horizon=10, seeds=[1])
    return ["simulate", "--config", cfg, "--out", str(tmp_path / "taken")]


def exact_into_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    doc = base_doc(deviation="half", smoothness={"lambda": 0.5, "mu": 1.0})
    doc["mechanism"]["grid_step"] = 0.5
    cfg = tmp_path / "exact.json"
    cfg.write_text(json.dumps(doc))
    return ["exact", "--config", str(cfg), "--out", str(tmp_path / "taken")]


def simulate_under_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    cfg = write_config(tmp_path, horizon=10, seeds=[1])
    return ["simulate", "--config", cfg, "--out", str(tmp_path / "taken" / "sub")]


def analyze_a_directory_sidecar(tmp_path):
    (tmp_path / "runs" / "seed_1" / "strategies.json").mkdir(parents=True)
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "runs"))
    return ["analyze", "--config", cfg]


@pytest.mark.parametrize(
    "argv",
    [simulate_into_a_file, exact_into_a_file, simulate_under_a_file,
     analyze_a_directory_sidecar],
    ids=["simulate-out-is-a-file", "exact-out-is-a-file", "out-under-a-file",
         "sidecar-is-a-directory"],
)
def test_unusable_file_paths_exit_two(tmp_path, monkeypatch, capsys, argv):
    # a path is checked before any work: nothing is printed, and exact builds
    # no agent game
    def unreachable(*args):
        raise AssertionError("the agent game was built before the path check")

    monkeypatch.setattr(exact, "build_agent_game", unreachable)
    assert cli.main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_oversized_grid_and_horizon_exit_two_before_allocating(tmp_path, capsys):
    # a 1e9-point grid is refused from its step alone, before any point is built
    doc = base_doc(horizon=10, seeds=[1], out_dir=str(tmp_path / "g"))
    doc["mechanism"]["grid_step"] = 1e-9
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "32768 bids" in capsys.readouterr().err
    # a horizon whose index arrays outgrow physical memory is refused by size
    # alone: the run allocates next to nothing before it exits
    path = write_config(tmp_path, name="long.json", horizon=10**12, seeds=[1],
                        out_dir=str(tmp_path / "h"))
    tracemalloc.start()
    try:
        assert cli.main(["simulate", "--config", path]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: horizon 1000000000000 needs") and "physical memory" in err


@pytest.mark.parametrize("n", [4, 5])
def test_grids_over_the_table_cap_exit_two_before_allocating(tmp_path, capsys, n):
    # 32,768 bids per seat: 2^60 joint profiles on 4 seats, and on 5 seats
    # 2^75, which an int64 count wraps to 0. Every command refuses the table
    # before any of it exists; what is traced is the config's bid grids.
    out = tmp_path / "runs"
    doc = base_doc(horizon=10, seeds=[1], deviation="log", out_dir=str(out))
    doc["mechanism"].update(n=n, grid_step=1 / 32767)
    doc["populations"] = [[0.5, 1.0]] * n
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for command in ("certify", "simulate", "exact"):
        tracemalloc.start()
        try:
            assert cli.main([command, "--config", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24, command
        err = capsys.readouterr().err
        assert "over the cap" in err and "Traceback" not in err, command
    assert not out.exists()


def test_index_arrays_of_one_seed_per_worker_must_fit_in_memory(tmp_path, capsys,
                                                                monkeypatch):
    # each worker holds one seed's index arrays at a time, 2 * T * (2n +
    # agents) bytes: 16,000 here. Memory for three seeds runs five seeds on
    # one worker, but not on five, which exit 2 before the output directory
    # is made (and before a process starts).
    real = os.sysconf
    sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 3 * 16_000}
    monkeypatch.setattr(os, "sysconf", lambda name: sizes.get(name) or real(name))
    out = tmp_path / "runs"
    path = write_config(tmp_path, horizon=1000, seeds=[1, 2, 3, 4, 5], out_dir=str(out))
    assert cli.main(["simulate", "--config", path, "--workers", "5"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: horizon 1000 needs") and "for 5 seed(s)" in err
    assert cli.main(["simulate", "--config", path]) == 0
    assert all((out / f"seed_{s}" / "trace.csv").exists() for s in range(1, 6))


def test_a_seed_batch_holds_one_seed_at_a_time(tmp_path):
    # eight types per population make the index arrays, which grow with the
    # horizon and the agents, outweigh the loop's fixed working set; a worker
    # that drops each seed's trace before playing the next peaks as a lone
    # seed does, where one holding every seed's arrays at once peaks at over
    # three times that
    types = [0.125 * k for k in range(1, 9)]
    cfg = cli.load_config(write_config(tmp_path, horizon=20_000, populations=[types, types]))
    # the tables are cached outside the traced runs
    cli._run_batch((replace(cfg, horizon=10), [1], tmp_path / "warm"))

    def peak(seeds):
        tracemalloc.start()
        try:
            cli._run_batch((cfg, seeds, tmp_path / f"out{len(seeds)}"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak([3, 5, 8, 13, 21]) < 2 * peak([3])


@pytest.mark.parametrize("key, edit", [
    ("analysis.delta", lambda doc: doc.update(analysis={"delta": 1e200})),
    ("mechanism.H", lambda doc: doc["mechanism"].update(H=2.0**400, grid_step=2.0**396)),
])
def test_a_value_whose_cube_overflows_exits_two_before_any_file(tmp_path, capsys, key,
                                                                edit):
    # the sufficient horizon cubes delta and H; every command refuses a value
    # whose cube is past the float range as the config is read
    doc = base_doc(horizon=50, seeds=[1], deviation="log", out_dir=str(tmp_path / "runs"))
    edit(doc)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    for command in (["simulate"], ["analyze"], ["certify"],
                    ["exact", "--out", str(tmp_path / "exact")]):
        assert cli.main([*command, "--config", str(path)]) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and f"{key}: must be <= {mech.CUBE_MAX}" in err, command
    assert list(tmp_path.iterdir()) == [path]


def test_the_cube_limit_is_the_largest_float_whose_cube_is_finite(tmp_path):
    assert math.isfinite(mech.CUBE_MAX**3)
    with pytest.raises(OverflowError):
        math.nextafter(mech.CUBE_MAX, math.inf) ** 3
    mechanism = {**base_doc()["mechanism"], "H": mech.CUBE_MAX, "grid_step": mech.CUBE_MAX / 4}
    cfg = cli.load_config(write_config(tmp_path, mechanism=mechanism,
                                       analysis={"delta": mech.CUBE_MAX}))
    assert cfg.mechanism.scale == cfg.settings.delta == mech.CUBE_MAX


def written_at_each_blas_thread_count(tmp_path, command, doc):
    """The files ``command`` writes for config ``doc`` under one BLAS thread
    and under two, each run in a fresh interpreter, by path under --out."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.abspath(os.path.join(os.path.dirname(cli.__file__), os.pardir))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "regretlab.cli", command, "--config",
                        str(cfg), "--out", str(out)], env=env, capture_output=True,
                       check=True)
        written.append({f.relative_to(out).as_posix(): f.read_bytes()
                        for f in sorted(out.rglob("*")) if f.is_file()})
    return written


def test_exact_writes_the_same_bytes_whatever_the_blas_thread_count(tmp_path):
    # the headline game's LP sums over 14,641 joint profiles, long enough
    # that a threaded BLAS splits its products and rounds them differently
    doc = base_doc(deviation="log", smoothness={"lambda": 0.5, "mu": 1.0})
    doc["mechanism"]["grid_step"] = 0.1
    one, two = written_at_each_blas_thread_count(tmp_path, "exact", doc)
    assert len(one) == 3
    assert one == two


def test_simulate_writes_the_same_bytes_whatever_the_blas_thread_count(tmp_path):
    # three seats of 101 bids: each agent's utility table has 10,201 opponent
    # profiles, long enough that a threaded BLAS would split the ledger's
    # counterfactual products and round them differently
    doc = base_doc(populations=[[0.5, 1.0]] * 3, horizon=200, seeds=[1], deviation="half",
                   smoothness={"lambda": 0.1, "mu": 1.0})
    doc["mechanism"].update(n=3, grid_step=0.01)
    one, two = written_at_each_blas_thread_count(tmp_path, "simulate", doc)
    assert "seed_1/report.json" in one and "seed_1/checkpoints.csv" in one
    assert one == two


def test_step_sizes_that_can_overflow_a_weight_exit_two(tmp_path, capsys):
    # on 11 bids, a bandit step of 5 at gamma 0.05 can multiply a weight by
    # exp(1100), and a full-feedback step of 1000 by exp(1000)
    for name, kw in (("bandit", dict(feedback="bandit", eta=5, gamma=0.05)),
                     ("full", dict(feedback="full", eta=1000))):
        doc = base_doc(horizon=50, seeds=[1], out_dir=str(tmp_path / name), **kw)
        doc["mechanism"]["grid_step"] = 0.1
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eta") and "finite" in err
        assert not (tmp_path / name).exists()
    # a sidecar whose step was raised after the run is caught the same way
    cfg = write_config(tmp_path, horizon=50, seeds=[1], eta=1.0, out_dir=str(tmp_path / "ok"))
    assert cli.main(["simulate", "--config", cfg]) == 0
    sidecar = tmp_path / "ok" / "seed_1" / "strategies.json"
    doc = json.loads(sidecar.read_text())
    doc["meta"]["eta"] = 1000.0
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["analyze", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed sidecar" in err and "finite" in err


# --- certify ------------------------------------------------------------------------


def test_certify_half_rule_passes_and_overreach_fails(tmp_path, capsys):
    cfg = write_config(
        tmp_path, deviation="half", smoothness={"lambda": 0.5, "mu": 1.0}
    )
    assert cli.main(["certify", "--config", cfg]) == 0
    assert "rule 'half'" in capsys.readouterr().out
    assert cli.main(["certify", "--config", cfg, "--lambda", "0.95", "--mu", "0"]) == 1
    # a non-finite parameter is an input error, never a certificate that holds
    for flags in (["--lambda", "nan"], ["--mu", "inf"]):
        capsys.readouterr()
        assert cli.main(["certify", "--config", cfg, *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "holds" not in out


def test_certify_all_pay_uniform_rule(tmp_path):
    doc = base_doc(deviation="uniform")
    doc["mechanism"]["kind"] = "all-pay"
    path = tmp_path / "ap.json"
    path.write_text(json.dumps(doc))
    # default all-pay parameters (1/2, 1)
    assert cli.main(["certify", "--config", str(path)]) == 0


def test_certify_log_rule_at_its_certified_level(tmp_path, capsys):
    cfg_path = write_config(tmp_path, deviation="log")
    cfg = cli.load_config(cfg_path)
    cert = smooth.check_deviation_smoothness(
        cfg.mechanism, smooth.named_deviation("log", cfg.mechanism), cfg.params,
        mech.value_profiles(cfg.populations),
    )
    assert (
        cli.main(
            ["certify", "--config", cfg_path,
             "--lambda", repr(cert.level - 1e-9)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "log rule certifies" in out
    # the grid penalty keeps the certified level below the continuum limit
    assert cert.level < smooth.LOG_RULE_LIMIT


def test_certify_skips_an_oversize_pure_search(tmp_path, capsys):
    # 21^3 joint profiles put the informational best-pure search over its
    # cap; the verdict still comes from the certificate check alone
    doc = base_doc(deviation="half", smoothness={"lambda": 0.5, "mu": 1.0},
                   populations=[[1.0], [0.5], [1.0]])
    doc["mechanism"].update(n=3, grid_step=0.05)
    path = tmp_path / "n3.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["certify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "holds" in out
    assert "best pure-deviation level skipped" in out and "9261^2" in out


def test_certify_skips_undefined_levels_on_zero_values(tmp_path, capsys):
    # with every value 0 the best-pure level and the log-rule certificate
    # are undefined; the certificate check itself still decides the exit code
    doc = base_doc(deviation="log", populations=[[0.0], [0.0]])
    doc["mechanism"]["grid_step"] = 0.5
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["certify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "best pure-deviation level skipped" in out
    assert "log rule certificate skipped" in out


def test_certify_checks_the_readme_config_under_the_default_rule(tmp_path, capsys):
    # the README config names no deviation rule: certify, like exact, takes
    # the kind's default; on the 0.1 grid the log rule certifies 0.5335, below
    # the default lambda 1 - 1/e, so the check runs and fails, and --lambda
    # 0.5 holds
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    assert "deviation" not in doc and doc["mechanism"]["kind"] == mech.KIND_FIRST_PRICE
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["certify", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"rule {cli.DEFAULT_DEVIATION[mech.KIND_FIRST_PRICE]!r}: (lam=0.632121")
    assert "FAILS" in out and "log rule certifies lam=0.533484" in out
    assert cli.main(["certify", "--config", str(path), "--lambda", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("rule 'log': (lam=0.5, mu=1) holds")


# --- exact --------------------------------------------------------------------------


def test_exact_writes_artifacts_and_passes(tmp_path, capsys):
    doc = base_doc(deviation="half", smoothness={"lambda": 0.5, "mu": 1.0})
    doc["mechanism"]["grid_step"] = 0.5
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "exact_out"
    assert cli.main(["exact", "--config", str(path), "--out", str(out)]) == 0
    game_doc = json.loads((out / "agent_game.json").read_text())
    assert game_doc["sizes"] == [3, 3, 3, 3]  # grid {0, 0.5, 1} per agent
    sol_doc = json.loads((out / "lp_solution.json").read_text())
    assert sum(sol_doc["distribution"]) == pytest.approx(1.0, abs=1e-9)
    report = json.loads((out / "exact_report.json").read_text())
    assert report["base_holds"] and report["lift_holds"] and report["table"]["holds"]
    assert report["table"]["lp_welfare"] == pytest.approx(0.75, abs=1e-9)
    table = report["table"]
    assert abs(table["lp_dual_gap"]) <= 1e-9
    assert table["lp_dual_bound"] == pytest.approx(0.75, abs=1e-9)
    assert sol_doc["dual_bound"] == table["lp_dual_bound"]
    assert sol_doc["dual_gap"] == table["lp_dual_gap"]
    assert len(sol_doc["duals"]) == len(sol_doc["constraints"])
    assert min(sol_doc["duals"]) >= 0.0
    stdout = capsys.readouterr().out
    assert "worst equilibrium welfare" in stdout and "dual bound" in stdout


def test_exact_singular_basis_exits_one_without_traceback(tmp_path, monkeypatch, capsys):
    doc = base_doc(deviation="half", smoothness={"lambda": 0.5, "mu": 1.0})
    doc["mechanism"]["grid_step"] = 0.5
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(doc))

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    assert cli.main(["exact", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("failure: singular basis") and "Traceback" not in err


def test_exact_rejects_oversize_instances(tmp_path):
    doc = base_doc(deviation="half")
    doc["mechanism"]["grid_step"] = 0.01
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["exact", "--config", str(path)]) == 2


def test_exact_overreaching_params_exit_one(tmp_path):
    doc = base_doc(deviation="half", smoothness={"lambda": 0.99, "mu": 0.0})
    doc["mechanism"]["grid_step"] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["exact", "--config", str(path)]) == 1
