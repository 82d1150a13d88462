"""The scanner's batched kernels against their references: the pruned
point-to-support distances against the unpruned pass, bit for bit, and
the exact graph certificate against the sampled window it replaced."""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi.chains import PolyChain, _dist_to_simplices, _pair_dists
from gmtepi.generators import cantor_graph, cone_harmonic, flat_disk, tilted_cone, two_sheet_cantor
from gmtepi.groups import integers
from gmtepi.planes import OrientedPlane
from gmtepi.layers import disk_sheets
from gmtepi.scan import extract_graph, multiscale_scan, support_sample


def _chain(verts):
    verts = np.asarray(verts, dtype=float)
    return PolyChain(verts.shape[2], verts.shape[1] - 1, integers(),
                     verts=verts, payload=np.ones((len(verts), 1), dtype=np.int64))


def _assert_unpruned(chain, points):
    want = np.min(_pair_dists(chain.vertex_array(), points), axis=1)
    got = _dist_to_simplices(chain.vertex_array(), points)
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


def test_support_sample_of_an_empty_window():
    chain = flat_disk(16)[0]
    assert support_sample(chain, np.array([5.0, 0.0, 0.0]), 0.5, 0.01).shape == (0, 3)


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


def _exact_certificate(chain, x, r, W):
    """``extract_graph``'s verdict after its Dini gate, and the exact
    Lipschitz constant."""
    try:
        sheets, lips = disk_sheets(chain, x, W, r)
    except ValueError as err:
        return str(err), 0.0
    return ("ok" if abs(sheets - 1.0) <= 1e-9 and lips <= 1.0 + 1e-9 else f"{sheets:.6g} sheets"), lips


@pytest.mark.parametrize("name", list(WINDOW_CHAINS))
def test_exact_certificate_against_the_sampled_window(name):
    # the exact test certifies no window that the sample refused, and its
    # Lipschitz constant bounds the sampled difference quotients (1e-13
    # absolute: on a flat sheet both read rounding noise)
    chain = WINDOW_CHAINS[name]()
    va = chain.vertex_array()
    rng = np.random.default_rng(len(name) + 10)
    certified = 0
    for i in range(4):
        x = va[int(rng.integers(len(va)))].mean(axis=0) + rng.normal(size=chain.n) * 0.02
        r = (0.3, 0.1, 0.04, 0.3)[i]
        plane = _scan_plane(chain, x, r, rng)
        # a plane turned off the support: windows that cut the terms obliquely
        turned = OrientedPlane.from_span(plane.frame + 0.3 * rng.normal(size=plane.frame.shape))
        for W in (plane, turned):
            exact, lips = _exact_certificate(chain, x, r, W)
            sampled, sampled_lips = oracle.sampled_certificate(chain, x, r, W)
            if exact == "ok":
                assert sampled == "ok", (x, r)
                assert lips >= sampled_lips * (1.0 - 1e-12) - 1e-13, (x, r)
                certified += 1
    # every window of the Cantor chain holds both sheets, which the sample
    # merges where they are closer than r/16
    assert certified > 0 or name == "two_sheet_cantor"


def _two_sheet_window():
    """Two-sheet chain and a ball at the middle of its widest gap, three
    sheet separations wide."""
    sheets, meta = two_sheet_cantor(3, 48, 0.12)
    gap = max(meta["gaps"], key=lambda g: g["half_width"])
    sep = gap["bump_height"]
    return sheets, np.array([gap["center"], 0.5 * sep]), 3 * sep


def test_sheets_far_apart_are_refused_by_both_tests():
    # three sheet separations wide, so the sheets are r/3 apart, beyond the
    # sample's r/16 fiber tolerance: the two tests agree
    sheets, x, r = _two_sheet_window()
    W = _scan_plane(sheets, x, r, np.random.default_rng(0))
    assert oracle.sampled_certificate(sheets, x, r, W)[0] == "fiber meets the support in two clusters"
    assert _exact_certificate(sheets, x, r, W)[0] != "ok"


def test_graph_certificate_verdicts_on_two_sheets_and_a_graph():
    sheets, x, r = _two_sheet_window()
    rep = multiscale_scan(sheets, [x], r0=r, depth=0)
    cert = extract_graph(rep, sheets, 0, dini_budget=math.inf)
    assert not cert.ok and cert.reason == "2 sheets over the disk"
    graph = cantor_graph(4, 56, 0.02)[0]
    rep = multiscale_scan(graph, [np.array([0.25, 0.0])], r0=0.22, depth=3)
    assert extract_graph(rep, graph, 0).ok
