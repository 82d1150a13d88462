"""Work counters of one comparison run, one graph certificate and scans:
each per-row bookkeeping step runs once, so these counts are pinned as
upper bounds (a count that grows is repeated work, not a wrong answer)."""

import math

import numpy as np

from gmtepi import chains, epi, layers, scan
from gmtepi.generators import cone_harmonic, flat_disk

# build_comparison(cone_harmonic(2, 0.05, 256)): an S of 11,264 terms
S_TERMS = 11_264
# one Gram determinant per row: S's 11,264, P's inner pieces, the mollified
# cone, and P's boundary and its projection (256 each)
GRAM_ROWS = 12_288
WELD_ROWS = 33_536  # vertex rows: P's boundary once, and s_parts - P_inside once for the defect gate
SOLVED_ROWS = 256  # affine maps: only P's layers over V are read
CLEARANCE_CALLS = 1
# rows clipped to a zone or cylinder: 256 in each of the two P calls and,
# in S's zone call, the 512 flagged rows that the zone ring crosses
CLIPPED_ROWS = 1_024


def test_one_comparison_does_each_bookkeeping_step_once(monkeypatch):
    P = cone_harmonic(2, 0.05, 256)[0]
    count = dict(gram=0, weld=0, solve=0, clearance=0, clipped=0)

    def counted(key, real, rows):
        def call(*args, **kwargs):
            count[key] += rows(*args)
            return real(*args, **kwargs)

        return call

    gram = counted("gram", chains._gram_dets, lambda v: len(v))
    monkeypatch.setattr(chains, "_gram_dets", gram)
    monkeypatch.setattr(epi, "_gram_dets", gram)
    monkeypatch.setattr(chains, "_vertex_ids", counted("weld", chains._vertex_ids, lambda v: v.shape[0] * v.shape[1]))
    # the affine maps of the layers are the pipeline's only linear solve
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve, lambda a, b: len(a)))
    monkeypatch.setattr(layers, "boundary_clearance", counted("clearance", layers.boundary_clearance, lambda *a: 1))
    monkeypatch.setattr(epi, "_clip_to_cylinder", counted("clipped", epi._clip_to_cylinder, lambda rows, *a: len(rows)))
    S, rep = epi.build_comparison(P)
    assert len(S) == S_TERMS and rep.boundary_defect == 0.0
    assert count["gram"] <= GRAM_ROWS, count
    assert count["weld"] <= WELD_ROWS, count
    assert count["solve"] <= SOLVED_ROWS, count
    assert count["clearance"] <= CLEARANCE_CALLS, count
    assert count["clipped"] <= CLIPPED_ROWS, count


def test_one_graph_certificate_samples_nothing_and_welds_once(monkeypatch):
    # a scan_disk point: flat_disk(256) in R^5 at radius 1/4, three scales from 1/2
    chain = flat_disk(256, n=5)[0]
    x = np.array([0.25 * math.cos(0.3), 0.25 * math.sin(0.3), 0.0, 0.0, 0.0])
    rep = scan.multiscale_scan(chain, [x], r0=0.5, depth=2)
    count = dict(lstsq=0, sample=0, weld=0, boundary=0)

    def counted(key, real):
        def call(*args, **kwargs):
            count[key] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(scan, "support_sample", counted("sample", scan.support_sample))
    monkeypatch.setattr(chains, "_vertex_ids", counted("weld", chains._vertex_ids))
    monkeypatch.setattr(layers, "boundary", counted("boundary", layers.boundary))
    cert = scan.extract_graph(rep, chain, 0)
    assert cert.ok and cert.lipschitz <= 1e-12
    assert count == dict(lstsq=0, sample=0, weld=1, boundary=1)


def test_a_covered_disk_scan_measures_no_grid_point(monkeypatch):
    # scan_disk's cells: every plane disk is covered by the one sheet, so
    # the plane-to-support half sends no grid point to the distance pass
    chain = flat_disk(256, n=5)[0]
    x = np.array([0.25 * math.cos(0.3), 0.25 * math.sin(0.3), 0.0, 0.0, 0.0])
    count = dict(grid_points=0)
    real = scan._grid_distances

    def grid_distances(chain, cull, xs, rs, planes):
        count["grid_points"] += sum(len(scan._plane_grid(r, p.m, 24)) for r, p in zip(rs.tolist(), planes))
        return real(chain, cull, xs, rs, planes)

    monkeypatch.setattr(scan, "_grid_distances", grid_distances)
    rep = scan.multiscale_scan(chain, [x], r0=0.5, depth=2)
    assert all(c.covered for c in rep.cells.values())
    assert count == dict(grid_points=0)


def test_two_scans_of_one_chain_weld_its_unit_boundary_once(monkeypatch):
    chain = flat_disk(256, n=5)[0]
    count = dict(weld=0)
    real = chains._vertex_ids

    def weld(verts):
        count["weld"] += 1
        return real(verts)

    monkeypatch.setattr(chains, "_vertex_ids", weld)
    for x in (np.array([0.25, 0.0, 0.0, 0.0, 0.0]), np.array([0.0, -0.25, 0.0, 0.0, 0.0])):
        scan.multiscale_scan(chain, [x], r0=0.5, depth=2)
    assert count == dict(weld=1)
