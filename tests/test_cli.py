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
    # keys that name no pipeline knob, such as the removed polish and
    # refine_h, are ignored
    cfg = tmp_path / "epi.json"
    cfg.write_text(json.dumps({"harmonic_cutoff": 16, "refine_h": 0.01, "polish": True}))
    assert run(["epi", "--chain", str(cone), "--config", str(cfg), "--out", out]) == 0
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
    # a key that names no probe option, such as the removed refine_h, is ignored
    cfg.write_text(json.dumps({"refine_h": 0.01}))
    assert run(["probe", "--chain", disk_file, "--config", str(cfg), "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "probe.json")))["summary"]
    assert set(summary) == {"verdict", "worst_ratio"}
    assert abs(summary["worst_ratio"] - 1.0) <= 1e-12


def test_probe_of_a_three_chain_exits_with_one_line_reason(tmp_path, capsys):
    path = tmp_path / "tet.json"
    tet = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    path.write_text(json.dumps({"version": 1, "ambient": 3, "dim": 3, "group": {"tag": "integers"},
                                "simplices": [{"vertices": tet, "coeff": 1}]}))
    assert run(["probe", "--chain", str(path), "--out", str(tmp_path / "rpt")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "m in (1, 2)" in err


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


@pytest.mark.parametrize("damage,field", [
    (lambda d: {k: v for k, v in d.items() if k != "group"}, "chain file has no 'group' field"),
    (lambda d: {**d, "simplices": [{"vertices": s["vertices"]} for s in d["simplices"]]}, "simplex 0 of the chain file has no 'coeff'"),
    (lambda d: [d], "not an array"),
])
def test_a_chain_file_without_a_field_exits_naming_it(tmp_path, capsys, damage, field):
    path = tmp_path / "bad.json"
    data = {"version": 1, "ambient": 2, "dim": 1, "group": {"tag": "integers"},
            "simplices": [{"vertices": [[0.0, 0.0], [1.0, 0.0]], "coeff": 1}]}
    path.write_text(json.dumps(damage(data)))
    assert run(["scan", "--chain", str(path), "--out", str(tmp_path / "rpt")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and field in err


@pytest.mark.parametrize("command,config,reason", [
    ("epi", [{"harmonic_cutoff": 16}], "the top level is an array, not an object"),
    ("analyze", "radius", "the top level is a string, not an object"),
    ("epi", {"harmonic_cutoff": "16"}, "'harmonic_cutoff' must be an integer, not a string"),
    ("epi", {"strict_flatness": 1}, "'strict_flatness' must be a boolean, not an integer"),
    ("epi", {"tail_tol": None}, "'tail_tol' must be a number, not null"),
    ("probe", {"radius": "0.5"}, "'radius' must be a number, not a string"),
    ("moments", {"radius": [1.0]}, "'radius' must be a number, not an array"),
    ("scan", {"depth": 2.0}, "'depth' must be an integer, not a number"),
    ("scan", {"r0": -0.1}, "'r0' must be a finite number > 0, not -0.1"),
    ("scan", {"max_points": 0}, "'max_points' must be at least 1, not 0"),
    ("scan", {"depth": -1}, "'depth' must be at least 0, not -1"),
    ("probe", {"radius": 0}, "'radius' must be a finite number > 0, not 0"),
    ("moments", {"x": [0.0, 0.0]}, "'x' must be an array of finite numbers of shape (3,)"),
    ("scan", {"points": [[0.1, 0.0, "0"]]}, "'points' must be an array of finite numbers of shape (k, 3)"),
    ("excess", {"plane": [[1.0, 0.0, 0.0]]}, "'plane' must be an array of finite numbers of shape (2, 3)"),
    ("epi", {"eps_max": float("nan")}, "'eps_max' must be a finite number > 0, not nan"),
    ("epi", {"tail_tol": 1.5}, "'tail_tol' must be a finite number in (0, 1), not 1.5"),
    ("epi", {"rho_max": 0.9}, "'rho_max' must be a finite number in (0, 1/2], not 0.9"),
    ("epi", {"rho_max": -1}, "'rho_max' must be a finite number in (0, 1/2], not -1"),
    ("epi", {"harmonic_cutoff": -3}, "'harmonic_cutoff' must be an integer at least 1, not -3"),
    ("probe", {"gauge_c": float("nan")}, "'gauge_c' must be a finite number > 0, not nan"),
])
def test_a_malformed_config_file_exits_naming_the_file_and_key(disk_file, tmp_path, capsys, command, config, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--chain", disk_file, "--config", str(cfg), "--out", str(tmp_path / "rpt")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config file {cfg}: {reason}\n"


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


def test_verify_quick_flag(tmp_path):
    out = str(tmp_path / "rpt")
    assert run(["verify", "--quick", "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "verify.json")))
    assert summary["summary"]["passed"] == summary["summary"]["total"]
    assert summary["config"]["quick"] is True


@pytest.mark.parametrize("args", [[], ["verify", "--bogus"], ["scan", "--seed", "x"], ["generate", "--kind", "none"]])
def test_usage_errors_exit_with_one_not_the_gate_code(args, capsys):
    # exit code 2 is kept for failed gates
    with pytest.raises(SystemExit) as exit_:
        run(args)
    assert exit_.value.code == 1
    assert "usage: gmt-epi" in capsys.readouterr().err


def test_epi_of_an_empty_chain_exits_with_one_line_reason(tmp_path, capsys):
    # an empty chain is bad input (exit 1), not a failed stage gate (exit 2)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": 1, "ambient": 3, "dim": 2, "group": {"tag": "integers"},
                                "simplices": []}))
    assert run(["epi", "--chain", str(path), "--out", str(tmp_path / "rpt")]) == 1
    assert capsys.readouterr().err == "error: empty chain\n"


def test_excess_over_a_reversed_base_line(tmp_path):
    # a kinked line over the base line [-1, 0]: the frame is aligned to
    # the chain, so both orientations report the same excess
    path = tmp_path / "kinked.json"
    path.write_text(json.dumps({"version": 1, "ambient": 2, "dim": 1, "group": {"tag": "integers"},
                                "simplices": [
                                    {"vertices": [[0.0, 0.0], [2.05, 0.1025]], "coeff": 1},
                                    {"vertices": [[-2.05, 0.0615], [0.0, 0.0]], "coeff": 1}]}))
    values = []
    for plane in ([[1.0, 0.0]], [[-1.0, 0.0]]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plane": plane}))
        out = str(tmp_path / "rpt")
        assert run(["excess", "--chain", str(path), "--config", str(cfg), "--out", out]) == 0
        values.append(json.load(open(os.path.join(out, "excess.json")))["summary"]["cylindrical_excess"])
    assert values[0] == values[1] > 0
