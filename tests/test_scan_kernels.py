"""The scanner's batched kernels against their references, bit for bit:
the pruned point-to-support distances against the unpruned pass, the
support sample against the per-simplex loop, the graph window against
the whole-ball sample, and the sorted fiber check against the per-bin
loop."""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi.chains import PolyChain, _dist_to_simplices, _pair_dists
from gmtepi.generators import cantor_graph, cone_harmonic, flat_disk, tilted_cone, two_sheet_cantor
from gmtepi.groups import integers
from gmtepi.planes import OrientedPlane
from gmtepi.scan import (
    _dist_to_support,
    _fiber_split,
    _graph_window,
    _support_nodes,
    extract_graph,
    multiscale_scan,
    support_sample,
)


def _chain(verts):
    verts = np.asarray(verts, dtype=float)
    return PolyChain(verts.shape[2], verts.shape[1] - 1, integers(),
                     verts=verts, payload=np.ones((len(verts), 1), dtype=np.int64))


def _assert_unpruned(chain, points):
    want = np.min(_pair_dists(chain.vertex_array(), points), axis=1)
    got = _dist_to_support(chain, points)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pruned_distances_match_the_unpruned_pass_on_random_chains(m, n):
    rng = np.random.default_rng(100 * m + n)
    verts = rng.normal(size=(60, m + 1, n)) + rng.normal(size=(60, 1, n)) * 2.0
    chain = _chain(verts)
    near = verts.reshape(-1, n)[rng.integers(0, 60 * (m + 1), 150)] + rng.normal(size=(150, n)) * 0.3
    wide = rng.uniform(-4.0, 4.0, size=(150, n))
    _assert_unpruned(chain, np.vstack([near, wide]))


def test_pruned_distances_at_the_fan_centre_where_all_wedges_tie():
    chain = flat_disk(64)[0]
    rng = np.random.default_rng(1)
    points = np.vstack([np.zeros((1, 3)), rng.normal(size=(80, 3)) * 1e-3, rng.normal(size=(80, 3)) * 0.4])
    _assert_unpruned(chain, points)


def test_pruned_distances_far_from_the_chain():
    chain = two_sheet_cantor(3, 48, 0.12)[0]
    rng = np.random.default_rng(2)
    # chunks with d >> rho, spread over every side
    far = rng.normal(size=(200, 2))
    far = 50.0 * far / np.linalg.norm(far, axis=1, keepdims=True) + rng.normal(size=(200, 2)) * 0.2
    _assert_unpruned(chain, far)


def test_pruned_distances_with_duplicate_simplices():
    base = flat_disk(16)[0].vertex_array()
    chain = _chain(np.concatenate([base, base, base[::-1]]))
    assert len(chain) == 3 * len(base)
    rng = np.random.default_rng(3)
    _assert_unpruned(chain, rng.normal(size=(120, 3)) * 0.6)


def test_pruned_distances_for_chunks_that_straddle_two_sheets():
    chain, meta = two_sheet_cantor(3, 48, 0.12)
    gap = max(meta["gaps"], key=lambda g: g["half_width"])
    a, b = gap["center"], gap["half_width"]
    # a vertical column through both sheets and the space between them,
    # so that one median-split chunk holds points nearer to either sheet
    t = a + np.linspace(-0.5, 0.5, 9) * b
    h = np.linspace(-1.0, 2.0, 40) * gap["bump_height"]
    points = np.stack(np.meshgrid(t, h), axis=-1).reshape(-1, 2)
    _assert_unpruned(chain, points)


def _fan(rng, n, rays, m):
    """The m-faces from one apex of a triangle fan in a random 2-plane of
    R^n: triangles (m = 2), its spokes (m = 1) or the fan's vertices, the
    apex once per ray (m = 0)."""
    frame = np.linalg.qr(rng.normal(size=(n, 2)))[0].T
    apex = rng.normal(size=n)
    ang = np.linspace(0.0, 2 * np.pi, rays + 1)
    rim = apex + np.stack([np.cos(ang), np.sin(ang)], axis=1) @ frame
    tris = np.stack([np.broadcast_to(apex, (rays, n)), rim[:-1], rim[1:]], axis=1)
    return tris[:, : m + 1], apex, rim[:-1]


def _assert_seeded_pass_exact(va, points):
    want = np.min(_pair_dists(va, points), axis=1)
    got = _dist_to_simplices(va, points)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_seeded_distance_pass_matches_the_unpruned_pass(m, n):
    rng = np.random.default_rng(1000 * m + n)
    # scattered simplices, queried near their vertices, on their edges and
    # far off, in chunks of mixed extent
    va = rng.normal(size=(70, m + 1, n)) + rng.normal(size=(70, 1, n)) * 2.0
    verts = va.reshape(-1, n)
    lam = rng.uniform(size=(120, 1))
    pick = rng.integers(0, len(va), 120)
    on_edges = lam * va[pick, 0] + (1 - lam) * va[pick, -1]
    near = verts[rng.integers(0, len(verts), 150)] + rng.normal(size=(150, n)) * rng.choice([1e-6, 1e-2, 0.3], (150, 1))
    wide = rng.uniform(-5.0, 5.0, size=(100, n))
    _assert_seeded_pass_exact(va, np.vstack([on_edges, near, wide]))
    # a fan with a shared apex, where every face ties at the apex and two
    # faces tie on each shared edge
    fan, apex, rim = _fan(rng, n, 48, m)
    t = rng.uniform(size=(96, 1))
    spokes = apex + t * (rim[rng.integers(0, len(rim), 96)] - apex)
    close = apex + rng.normal(size=(150, n)) * rng.choice([1e-9, 1e-4, 0.1, 1.0], (150, 1))
    points = np.vstack([np.broadcast_to(apex, (40, n)), spokes, close, rim])
    _assert_seeded_pass_exact(fan, points)
    # duplicate points (chunks of zero radius) and a single point
    _assert_seeded_pass_exact(fan, np.repeat(points[::7], 9, axis=0))
    _assert_seeded_pass_exact(fan, np.broadcast_to(apex, (70, n)))
    _assert_seeded_pass_exact(fan, points[3:4])
    _assert_seeded_pass_exact(va, wide[:1])


def test_distance_pass_with_no_points_or_no_simplices():
    va = flat_disk(16)[0].vertex_array()
    assert _dist_to_simplices(va, np.zeros((0, 3))).shape == (0,)
    assert _dist_to_simplices(va[:, :1], np.zeros((0, 3))).shape == (0,)
    assert _dist_to_simplices(va[:0], np.zeros((0, 3))).shape == (0,)
    assert np.all(_dist_to_simplices(va[:0], np.ones((4, 3))) == np.inf)


def _thin_triangle():
    # a 1:1000 sliver next to a regular triangle: the area cap on the
    # barycentric grid decides its node count
    return _chain([
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-3, 0.0]],
        [[0.0, 0.0, 0.0], [0.5, 1e-3, 0.0], [0.0, 1.0, 0.1]],
    ])


SAMPLE_CHAINS = {
    "flat_disk": lambda: flat_disk(64)[0],
    "cone_harmonic": lambda: cone_harmonic(2, 0.05, 64)[0],
    "two_sheet_cantor": lambda: two_sheet_cantor(3, 48, 0.12)[0],
    "thin_triangle": _thin_triangle,
}


@pytest.mark.parametrize("name", list(SAMPLE_CHAINS))
def test_support_sample_matches_the_per_simplex_loop(name):
    chain = SAMPLE_CHAINS[name]()
    va = chain.vertex_array()
    rng = np.random.default_rng(len(name))
    checked = 0
    for _ in range(3):
        x = va[int(rng.integers(len(va)))].mean(axis=0) + rng.normal(size=chain.n) * 0.02
        for r in (0.4, 0.1, 0.02):
            for spacing in (r / 48, r / 128):
                got = support_sample(chain, x, r, spacing)
                want = oracle.support_sample(chain, x, r, spacing)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x, r, spacing)
                checked += len(got)
    assert checked > 0


def test_support_sample_of_an_empty_window():
    chain = flat_disk(16)[0]
    assert support_sample(chain, np.array([5.0, 0.0, 0.0]), 0.5, 0.01).shape == (0, 3)


def _assert_window_matches_the_whole_ball(chain, x, r, W):
    got, want = _graph_window(chain, x, r, W), oracle.graph_window(chain, x, r, W)
    assert (got is None) == (want is None)
    if got is not None:
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (x, r)
    return 0 if got is None else len(got[0])


def _scan_plane(chain, x, r, rng):
    """The scan's top plane at (x, r); a random one where it has none."""
    plane = multiscale_scan(chain, [x], r0=r, depth=0).cell(0, 0).plane
    return plane if plane is not None else OrientedPlane.from_span(rng.normal(size=(chain.m, chain.n)))


WINDOW_CHAINS = {
    "flat_disk_r5": lambda: flat_disk(256, n=5)[0],
    "cone_harmonic": lambda: cone_harmonic(2, 0.05, 64)[0],
    "tilted_cone": lambda: tilted_cone(0.1, 16)[0],
    "two_sheet_cantor": lambda: two_sheet_cantor(3, 48, 0.12)[0],
}


@pytest.mark.parametrize("name", list(WINDOW_CHAINS))
def test_graph_window_matches_the_whole_ball_sample(name):
    chain = WINDOW_CHAINS[name]()
    va = chain.vertex_array()
    rng = np.random.default_rng(len(name) + 10)
    kept = 0
    for i in range(4):
        x = va[int(rng.integers(len(va)))].mean(axis=0) + rng.normal(size=chain.n) * 0.02
        r = (0.3, 0.1, 0.04, 0.3)[i]
        plane = _scan_plane(chain, x, r, rng)
        kept += _assert_window_matches_the_whole_ball(chain, x, r, plane)
        # a plane turned off the support: slabs that cut the rows obliquely
        turned = OrientedPlane.from_span(plane.frame + 0.3 * rng.normal(size=plane.frame.shape))
        kept += _assert_window_matches_the_whole_ball(chain, x, r, turned)
    assert kept > 0


def test_graph_window_of_a_few_nodes_and_of_an_empty_box():
    # the box |p_1 - x_1| <= r/2 reaches eps past the rim of the disk at
    # (1, 0, 0), so it holds a handful of nodes of the large ball sample;
    # at eps < 0 it holds none, and the window is empty but not None
    chain = flat_disk(16)[0]
    W = OrientedPlane.coordinate(3, (0, 1))
    r = 0.2
    sizes = [
        _assert_window_matches_the_whole_ball(chain, np.array([1.0 + r / 2 - eps, 0.0, 0.0]), r, W)
        for eps in (2e-3, 1e-3, -1e-3, -1e-2)
    ]
    assert 2 < sizes[0] < 20 and sizes[2:] == [0, 0]
    assert _graph_window(chain, np.array([5.0, 0.0, 0.0]), r, W) is None


def test_graph_window_builds_only_the_nodes_over_its_box():
    chain = flat_disk(256, n=5)[0]
    x = np.array([0.3, 0.1, 0.0, 0.0, 0.0])
    r = 0.3
    W = OrientedPlane.coordinate(5, (0, 1))
    whole = support_sample(chain, x, r, r / 128)
    boxed = _support_nodes(chain, x, r, r / 128, box=W.frame)
    window = _graph_window(chain, x, r, W)
    # the box holds 1 / pi of the ball's disk; the slab margins add a few rows
    assert len(window[0]) <= len(boxed) < 0.7 * len(whole)


def _fiber_inputs(chain, x, r, fiber_grid=64):
    """Base bins and heights of a window over the first coordinate axis,
    as ``extract_graph`` forms them."""
    sup = support_sample(chain, x, r, r / 128) - x
    keep = np.abs(sup[:, 0]) <= r / 2
    bins = np.clip(((sup[keep, 0] + r / 2) / r * fiber_grid).astype(int), 0, fiber_grid - 1)
    return bins, sup[keep, 1], 4 * r / fiber_grid


def _two_sheet_window():
    """Two-sheet chain and a ball at the middle of its widest gap, three
    sheet separations wide."""
    sheets, meta = two_sheet_cantor(3, 48, 0.12)
    gap = max(meta["gaps"], key=lambda g: g["half_width"])
    sep = gap["bump_height"]
    return sheets, np.array([gap["center"], 0.5 * sep]), 3 * sep


def test_fiber_check_matches_the_per_bin_loop():
    sheets, x, r = _two_sheet_window()
    bins, hh, gap_tol = _fiber_inputs(sheets, x, r)
    assert oracle.fiber_split(bins, hh, gap_tol)
    assert _fiber_split(bins, hh, gap_tol)
    graph = cantor_graph(4, 56, 0.02)[0]
    bins, hh, gap_tol = _fiber_inputs(graph, np.array([0.25, 0.0]), 0.2)
    assert not oracle.fiber_split(bins, hh, gap_tol)
    assert not _fiber_split(bins, hh, gap_tol)
    rng = np.random.default_rng(4)
    for _ in range(200):
        size = int(rng.integers(1, 60))
        bins = rng.integers(0, 8, size)
        hh = rng.normal(size=size)
        gap_tol = float(rng.uniform(0.0, 1.5))
        assert _fiber_split(bins, hh, gap_tol) == oracle.fiber_split(bins, hh, gap_tol)


def test_graph_certificate_verdicts_on_two_sheets_and_a_graph():
    sheets, x, r = _two_sheet_window()
    rep = multiscale_scan(sheets, [x], r0=r, depth=0)
    cert = extract_graph(rep, sheets, 0, dini_budget=math.inf)
    assert not cert.ok and cert.reason == "fiber meets the support in two clusters"
    graph = cantor_graph(4, 56, 0.02)[0]
    rep = multiscale_scan(graph, [np.array([0.25, 0.0])], r0=0.22, depth=3)
    assert extract_graph(rep, graph, 0).ok
