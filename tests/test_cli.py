import json
import os

import pytest

from gmtepi.cli import main


def run(args):
    return main(args)


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk.json"
    assert run(["generate", "--kind", "flat_disk", "--params", '{"N": 32}', "--chain", str(path)]) == 0
    return str(path)


def test_generate_and_analyze(disk_file, tmp_path):
    out = str(tmp_path / "rpt")
    assert run(["analyze", "--chain", disk_file, "--out", out]) == 0
    table = open(os.path.join(out, "analyze.csv")).read()
    assert "mass" in table
    summary = json.load(open(os.path.join(out, "analyze.json")))
    assert summary["command"] == "analyze"
    assert summary["summary"]["is_cone"]


def test_excess_and_moments(disk_file, tmp_path):
    out = str(tmp_path / "rpt")
    # the inscribed polygon covers only the inradius disk: pass a radius
    cfg = tmp_path / "exc.json"
    cfg.write_text(json.dumps({"radius": 0.95}))
    assert run(["excess", "--chain", disk_file, "--config", str(cfg), "--out", out]) == 0
    assert run(["moments", "--chain", disk_file, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "moments.json")))
    assert summary["summary"]["identity_gap"] <= 1e-9


def test_epi_command(tmp_path):
    cone = tmp_path / "cone.json"
    assert run([
        "generate", "--kind", "cone_harmonic",
        "--params", '{"k": 2, "amplitude": 0.05, "N": 64}', "--chain", str(cone),
    ]) == 0
    out = str(tmp_path / "rpt")
    assert run(["epi", "--chain", str(cone), "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "epi.json")))
    assert summary["summary"]["ratio_zone"] <= summary["summary"]["lambda_theory"]


def test_epi_command_cone_in_r4(tmp_path):
    cone = tmp_path / "cone4.json"
    assert run([
        "generate", "--kind", "cone_harmonic",
        "--params", '{"k": 2, "amplitude": 0.04, "N": 32, "n": 4}', "--chain", str(cone),
    ]) == 0
    out = str(tmp_path / "rpt")
    assert run(["epi", "--chain", str(cone), "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "epi.json")))
    assert summary["summary"]["ratio_zone"] <= summary["summary"]["lambda_theory"]


def test_scan_and_probe(disk_file, tmp_path):
    out = str(tmp_path / "rpt")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": [[0.0, 0.0, 0.0]], "r0": 0.3, "depth": 2}))
    assert run(["scan", "--chain", disk_file, "--config", str(cfg), "--out", out]) == 0
    header = open(os.path.join(out, "scan.csv")).readline().strip().split(",")
    assert header == ["point", "scale", "radius", "beta2", "beta_inf", "beta_inf_centered",
                      "hausdorff", "density", "eta", "frame", "ambiguous"]
    summary = json.load(open(os.path.join(out, "scan.json")))
    assert summary["summary"]["certificates"]["0"]["ok"]
    assert run(["probe", "--chain", disk_file, "--out", out]) == 0


def test_gate_exit_code(tmp_path):
    # a vertical sheet cannot be decomposed over any near-horizontal plane:
    # the excess command reports the gate failure via exit code 2
    chain = tmp_path / "sheet.json"
    assert run(["generate", "--kind", "two_sheet_cantor",
                "--params", '{"levels": 1, "samples_per_gap": 4}', "--chain", str(chain)]) == 0
    out = str(tmp_path / "rpt")
    code = run(["excess", "--chain", str(chain), "--out", out])
    assert code in (0, 2)  # two coincident sheets: constancy may gate


@pytest.mark.parametrize("vertex,coeff,reason", [
    ([3e7, 0.0], 1, "snap grid"),
    ([float("nan"), 0.0], 1, "finite"),
    ([1.0, 0.0], 1.5, "integers"),
])
def test_bad_chain_file_exits_with_one_line_reason(tmp_path, capsys, vertex, coeff, reason):
    path = tmp_path / "bad.json"
    data = {"version": 1, "ambient": 2, "dim": 1, "group": {"tag": "integers"},
            "simplices": [{"vertices": [[0.0, 0.0], vertex], "coeff": coeff}]}
    path.write_text(json.dumps(data))
    assert run(["analyze", "--chain", str(path), "--out", str(tmp_path / "rpt")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and reason in err


def test_scan_of_an_empty_chain_exits_with_one_line_reason(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": 1, "ambient": 3, "dim": 2, "group": {"tag": "integers"},
                                "simplices": []}))
    assert run(["scan", "--chain", str(path), "--out", str(tmp_path / "rpt")]) == 1
    assert capsys.readouterr().err == "error: empty chain\n"


def test_reports_byte_identical(tmp_path, disk_file):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert run(["moments", "--chain", disk_file, "--out", out, "--seed", "3"]) == 0
    for name in ("moments.csv", "moments.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2


def test_epi_reports_byte_identical(tmp_path):
    cone = tmp_path / "cone.json"
    assert run([
        "generate", "--kind", "cone_harmonic",
        "--params", '{"k": 2, "amplitude": 0.05, "N": 48}', "--chain", str(cone),
    ]) == 0
    out1, out2 = str(tmp_path / "e1"), str(tmp_path / "e2")
    for out in (out1, out2):
        assert run(["epi", "--chain", str(cone), "--out", out]) == 0
    for name in ("epi.csv", "epi.json"):
        assert open(os.path.join(out1, name), "rb").read() == open(os.path.join(out2, name), "rb").read()


def test_verify_quick(tmp_path):
    out = str(tmp_path / "rpt")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quick": True}))
    assert run(["verify", "--config", str(cfg), "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "verify.json")))
    assert summary["summary"]["passed"] == summary["summary"]["total"]
