"""Fast checks of the benchmark's own parts: its inputs, tracer and gates."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def test_closed_form_inputs_match_the_generators():
    from gmtepi.generators import cone_harmonic, flat_disk, two_sheet_cantor
    from gmtepi.mono import lambda_epi

    for k, amp, _tol in inputs.EPI_CONES:
        chain, _ = cone_harmonic(k, amp, inputs.EPI_RAYS, span=inputs.EPI_SPAN)
        assert np.array_equal(inputs.cone_triangles(k, amp), chain.vertex_array())
    disk, _ = flat_disk(inputs.DISK_N, n=inputs.DISK_AMBIENT)
    assert np.array_equal(inputs.disk_triangles(), disk.vertex_array())
    cantor, meta = two_sheet_cantor(inputs.CANTOR_LEVELS, inputs.CANTOR_SAMPLES, inputs.CANTOR_AMPLITUDE)
    assert np.array_equal(inputs.cantor_segments(inputs.cantor_gaps()), cantor.vertex_array())
    assert [g["coef"] for g in inputs.cantor_gaps()] == [g["coef"] for g in meta["gaps"]]
    assert inputs.LAMBDA_EPI == lambda_epi(2)


def test_inputs_are_seeded_rigid_motions(tmp_path):
    from gmtepi.chainfile import load_chain

    a = inputs.make_inputs("scan_disk", 3, str(tmp_path / "a"))
    b = inputs.make_inputs("scan_disk", 3, str(tmp_path / "b"))
    c = inputs.make_inputs("scan_disk", 4, str(tmp_path / "c"))
    assert [op["point"] for op in a["ops"]] == [op["point"] for op in b["ops"]]
    assert [op["point"] for op in a["ops"]] != [op["point"] for op in c["ops"]]
    moved = load_chain(a["chains"][0])[0].vertex_array()
    flat = inputs.disk_triangles()
    for va in (moved, flat):
        assert va.shape == (inputs.DISK_N, 3, inputs.DISK_AMBIENT)
    dist = lambda v: np.linalg.norm(v[:, 1] - v[:, 2], axis=1)  # noqa: E731
    assert np.allclose(dist(moved), dist(flat), rtol=0, atol=1e-14)
    cantor = inputs.make_inputs("scan_cantor", 3, str(tmp_path / "d"))
    assert len(load_chain(cantor["chains"][0])[0]) == 702
    assert len(cantor["ops"][0]["gap_points"]) == 35
    assert len(cantor["ops"][0]["branch_points"]) == 24


def test_tracer_catches_imported_names_and_restores_them():
    import gmtepi
    from gmtepi import chains, mono
    from gmtepi.generators import flat_disk

    disk, _ = flat_disk(8)
    before = (chains.ball_mass, mono.chain_ball_mass, chains.PolyChain.__init__,
              vars(mono.DensityProfile)["from_chain"], gmtepi.boundary)
    tr = tracer.Tracer()
    with tr:
        assert mono.chain_ball_mass is not before[1]
        lo = len(tr)
        gmtepi.DensityProfile.from_chain(disk, np.zeros(3), [0.25, 0.5])
        disk.with_terms(disk.terms)
        table = tr.summary([(lo, len(tr))])
    after = (chains.ball_mass, mono.chain_ball_mass, chains.PolyChain.__init__,
             vars(mono.DensityProfile)["from_chain"], gmtepi.boundary)
    assert all(x is y for x, y in zip(before, after))
    assert table["mono.DensityProfile.from_chain"]["calls"] == 1
    assert table["chains.ball_mass"]["calls"] == 2  # called through mono's alias
    assert table["chains.PolyChain.__init__"]["outcome"] == len(disk)
    row = table["mono.DensityProfile.from_chain"]
    assert 0 < row["self_s"] < row["s"]
    assert not tr.absent


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    import gmtepi  # noqa: F401

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("chains", "no_such_function", None),))
    with tracer.Tracer() as tr:
        pass
    assert tr.absent == ["chains.no_such_function"]


def test_checks_reject_wrong_outputs():
    op = {"ratio_limit": 0.8, "tolerance": 0.1}
    spec = {"lambda": inputs.LAMBDA_EPI}
    good = SimpleNamespace(degenerate=False, ratio_zone=0.79, ratio_full=0.98)
    assert worker.check_epi_cone(good, op, spec) == []
    assert worker.check_epi_cone(SimpleNamespace(degenerate=False, ratio_zone=0.79, ratio_full=1.0), op, spec)
    assert worker.check_epi_cone(SimpleNamespace(degenerate=False, ratio_zone=0.6, ratio_full=0.98), op, spec)
    spec = {"run_problems": [], "min_gap_rate": 0.95}
    assert worker.check_scan_cantor(([True] * 35, [False] * 24), {}, spec) == []
    assert worker.check_scan_cantor(([True] * 33 + [False] * 2, [False] * 24), {}, spec)
    assert worker.check_scan_cantor(([True] * 35, [True] + [False] * 23), {}, spec)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "epi_cone", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{"), json.loads(line)
