"""Work counters of one comparison run, graph certificates, scans and an
almost-minimality probe:
each per-row bookkeeping step runs once, so these counts are pinned as
upper bounds (a count that grows is repeated work, not a wrong answer).
A chain's triangle frames are factored once and reused bit for bit."""

import math

import numpy as np

import pytest

from gmtepi import chains, epi, layers, quadrature, scan
from gmtepi.chains import PolyChain, Simplex, ball_mass, pushforward_linear
from gmtepi.generators import cantor_bump_profile, cone_harmonic, flat_disk, tilted_cone, two_sheet_cantor
from gmtepi.groups import NormedCoefficient, integers
from gmtepi.mono import DensityProfile, Gauge, almost_minimal_probe

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


def test_one_graph_certificate_samples_nothing_and_welds_nothing(monkeypatch):
    # a scan_disk point: flat_disk(256) in R^5 at radius 1/4, three scales
    # from 1/2; the box count reads the unit boundary that the scan welded
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
    assert count == dict(lstsq=0, sample=0, weld=0, boundary=0)


def _cantor_gap_points(count):
    # criterion 9's gap points on the upper sheet, the nodes a tenth of
    # each gap's width past its centre
    chain, meta = two_sheet_cantor(3, 48, 0.12)
    f = cantor_bump_profile(meta)
    ts = []
    for g in meta["gaps"][:count]:
        nodes = np.linspace(g["center"] - g["half_width"], g["center"] + g["half_width"], 50)[1:-1]
        ts.append(nodes[np.argmin(np.abs(nodes - g["center"] - 0.22 * g["half_width"]))])
    return chain, [np.array([t, float(f(np.array([t]))[0])]) for t in ts]


@pytest.mark.parametrize("m", [1, 2])
def test_a_graph_certificate_builds_no_chain(monkeypatch, m):
    if m == 1:
        chain, (x,) = _cantor_gap_points(1)
        rep = scan.multiscale_scan(chain, [x], r0=0.3 * x[1], depth=4)
    else:
        chain = flat_disk(256, n=5)[0]
        rep = scan.multiscale_scan(chain, [np.array([0.25, 0.1, 0.0, 0.0, 0.0])], r0=0.5, depth=2)
    count = dict(chains=0)
    real = PolyChain._fill

    def fill(self, *args, **kwargs):
        count["chains"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PolyChain, "_fill", fill)
    assert scan.extract_graph(rep, chain, 0).ok
    assert count == dict(chains=0)


def test_a_scan_searches_the_fiber_once_per_round(monkeypatch):
    # nine cells of three points, each with a frame: one search, whose
    # triangle rounds (m = 2) cut every cell's triangles in one pass each
    count = dict(search=0, cuts=0)
    real_search, real_cut = scan._frame_search, scan._cut_triangles

    def search(*args):
        count["search"] += 1
        return real_search(*args)

    def cut(*args):
        count["cuts"] += 1
        return real_cut(*args)

    monkeypatch.setattr(scan, "_frame_search", search)
    monkeypatch.setattr(scan, "_cut_triangles", cut)
    chain = flat_disk(256, n=5)[0]
    points = [np.array([0.25 * math.cos(a), 0.25 * math.sin(a), 0.0, 0.0, 0.0]) for a in (0.3, 1.9, 4.0)]
    rep = scan.multiscale_scan(chain, points, r0=0.5, depth=2)
    assert len(rep.cells) == 9 and all(c.frame_found for c in rep.cells.values())
    assert count == dict(search=1, cuts=2)
    chain, points = _cantor_gap_points(5)
    count.update(search=0, cuts=0)
    rep = scan.multiscale_scan(chain, points, r0=0.002, depth=4)
    assert sum(c.frame_found for c in rep.cells.values()) > 5
    assert count == dict(search=1, cuts=0)


@pytest.mark.parametrize("m", [1, 2])
def test_a_scan_makes_one_sup_pass_per_stack_run(monkeypatch, m):
    # every cell's beta_inf, centred beta_inf and cover rows go through one
    # sup pass per run of at most _STACK_ROWS near rows: one kernel call for
    # segments, and for triangles one per width (ball and cylinder rows)
    count = dict(runs=0, passes=0, kernel=0)
    real_runs, real_pass, real_kernel = scan._runs, scan._sup_pass, chains._region_sups

    def runs(*args):
        out = real_runs(*args)
        count["runs"] = len(out)  # the sup loop's runs come last
        return out

    def sup_pass(*args):
        count["passes"] += 1
        return real_pass(*args)

    def kernel(*args):
        count["kernel"] += 1
        return real_kernel(*args)

    monkeypatch.setattr(scan, "_runs", runs)
    monkeypatch.setattr(scan, "_sup_pass", sup_pass)
    monkeypatch.setattr(chains, "_region_sups", kernel)
    if m == 1:
        chain, points = _cantor_gap_points(7)
        scan.multiscale_scan(chain, points, r0=0.02, depth=4)
    else:
        chain = flat_disk(256, n=5)[0]
        scan.multiscale_scan(chain, [np.array([0.25, 0.1, 0.0, 0.0, 0.0])], r0=0.5, depth=2)
    assert count["runs"] > 1
    assert count == dict(runs=count["runs"], passes=count["runs"], kernel=m * count["runs"])


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


def test_a_disk_scan_factors_each_triangle_once_and_solves_no_eigenproblem(monkeypatch):
    # one scan_disk operation: the scan, its graph certificate and the
    # 48-radius density profile; then a second profile of the same chain
    chain = flat_disk(256, n=5)[0]
    x = np.array([0.25 * math.cos(0.3), 0.25 * math.sin(0.3), 0.0, 0.0, 0.0])
    radii = np.geomspace(0.02, 0.6, 48)
    count = dict(eigvals=0, frames=0)
    real_eigvals, real_frames = np.linalg.eigvals, quadrature._triangle_frames

    def eigvals(a):
        count["eigvals"] += 1
        return real_eigvals(a)

    def frames(v):
        count["frames"] += len(v)
        return real_frames(v)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(quadrature, "_triangle_frames", frames)
    monkeypatch.setattr(chains, "_triangle_frames", frames)
    rep = scan.multiscale_scan(chain, [x], r0=0.5, depth=2)
    assert scan.extract_graph(rep, chain, 0).ok
    DensityProfile.from_chain(chain, x, radii)
    assert count["eigvals"] == 0
    assert count["frames"] <= len(chain), count
    once = count["frames"]
    DensityProfile.from_chain(chain, x, radii)
    assert count == dict(eigvals=0, frames=once)


def _turned_cone():
    # a cone in R^5 under a seeded isometry, so no triangle edge lies on an axis
    Q = np.linalg.qr(np.random.default_rng(5).normal(size=(5, 5)))[0][:, :3]
    return pushforward_linear(cone_harmonic(2, 0.05, 64)[0], Q, np.full(5, 0.1))


@pytest.mark.parametrize("build", [lambda: flat_disk(256, n=5)[0], _turned_cone])
def test_cached_frames_give_the_one_simplex_floats(build):
    chain = build()
    va = chain.vertex_array()
    rng = np.random.default_rng(3)
    for r in (0.07, 0.3, 0.9):
        x = va[int(rng.integers(len(va))), 0] + 0.1 * r * rng.normal(size=chain.n)
        near = chain.near_ball(x, r)
        single = np.array([quadrature.simplex_ball_mass(v, x, r) for v in va[near]])
        assert np.array_equal(quadrature.batch_ball_masses(va[near], x, r), single)
        assert ball_mass(chain, x, r) == float(chain.coeff_norms()[near] @ single)
        # one cell per row: each cell's moments are its one simplex's
        cells = quadrature.cell_ball_moments(va[near], np.repeat(x[None], len(near), axis=0), np.full(len(near), r),
                                             np.ones(len(near)), np.arange(len(near)), len(near), chain.frames(near))
        for v, got in zip(va[near], cells):
            want = quadrature.simplex_ball_moments(v, x, r)
            assert all(np.array_equal(getattr(got, f), getattr(want, f)) for f in ("s0", "s1", "s2", "t2", "u3", "t4"))


def _tetra_surface(x):
    # the boundary of a small tetrahedron at x: a 2-cycle in the ball
    v = x + np.array([[0.0, 0.0, 0.2], [0.2, 0.0, 0.0], [0.0, 0.2, 0.0], [-0.1, -0.1, 0.0]])
    g = integers()
    faces = [(v[[1, 2, 3]], 1), (v[[0, 2, 3]], -1), (v[[0, 1, 3]], 1), (v[[0, 1, 2]], -1)]
    return PolyChain(3, 2, g, [(Simplex(f), NormedCoefficient(g, c)) for f, c in faces])


@pytest.mark.parametrize("competitors", [0, 1])
def test_a_probe_makes_one_ball_pass_per_mass_and_refines_nothing(monkeypatch, competitors):
    # one projection of T's triangles, which M(T|B) and the slice arcs
    # share, and one per competitor T + S; one segment clip of the
    # boundary; no chain beyond T + S
    chain = flat_disk(256)[0]
    x = np.zeros(3)
    comps = [_tetra_surface(x)] * competitors
    count = dict(planes=0, windows=0, rows=0)
    real_planes, real_windows, real_fill = quadrature._triangle_planes, chains._segment_windows, PolyChain._fill

    def planes(*args, **kwargs):
        count["planes"] += 1
        return real_planes(*args, **kwargs)

    def windows(*args, **kwargs):
        count["windows"] += 1
        return real_windows(*args, **kwargs)

    def fill(self, n, m, group, verts, *args, **kwargs):
        count["rows"] = max(count["rows"], len(verts))
        return real_fill(self, n, m, group, verts, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_triangle_planes", planes)
    monkeypatch.setattr(chains, "_triangle_planes", planes)
    monkeypatch.setattr(chains, "_segment_windows", windows)
    monkeypatch.setattr(PolyChain, "_fill", fill)
    rep = almost_minimal_probe(chain, x, 0.6, comps, Gauge.power(0.1, 1.0))
    assert len(rep.ratios) == competitors + 1
    assert count["planes"] <= 1 + competitors, count
    assert count["windows"] <= 1, count
    assert count["rows"] <= len(chain) + 4 * competitors, count


_PROFILE_CHAINS = [lambda: flat_disk(256, n=5)[0], lambda: cone_harmonic(2, 0.05, 64)[0],
                   lambda: tilted_cone(0.1, 128)[0]]


@pytest.mark.parametrize("build", _PROFILE_CHAINS)
def test_a_density_profile_projects_the_chain_once_per_point(monkeypatch, build):
    chain = build()
    x = chain.vertex_array()[7, 1] * 0.6
    radii = np.geomspace(0.02, 0.6, 48)
    count = dict(planes=0, rows=0)
    real = quadrature._triangle_planes

    def planes(v, *args, **kwargs):
        count["planes"] += 1
        count["rows"] += len(v)
        return real(v, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_triangle_planes", planes)
    monkeypatch.setattr(chains, "_triangle_planes", planes)
    first = DensityProfile.from_chain(chain, x, radii)
    assert count == dict(planes=1, rows=len(chain))
    DensityProfile.from_chain(chain, x + 0.01, radii)
    assert count == dict(planes=2, rows=2 * len(chain))
    again = DensityProfile.from_chain(chain, x, radii)
    assert count["planes"] == 3
    assert np.array_equal(again.values, first.values)


@pytest.mark.parametrize("build", _PROFILE_CHAINS)
def test_the_cached_projection_gives_the_freshly_culled_floats(build):
    chain = build()
    va = chain.vertex_array()
    x0 = va[3, 1] * 0.5
    for x in (x0, x0 + np.linspace(0.01, 0.05, chain.n), x0):
        for r in (0.03, 0.2, 0.7):
            near = chain.near_ball(x, r)
            fresh = quadrature.batch_ball_masses(va[near], x, r)
            assert ball_mass(chain, x, r) == float(chain.coeff_norms()[near] @ fresh)
