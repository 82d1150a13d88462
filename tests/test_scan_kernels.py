"""The scanner's batched kernels against their references, bit for bit:
the pruned point-to-support distances against the unpruned pass, the
support sample against the per-simplex loop, and the sorted fiber check
against the per-bin loop."""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi.chains import PolyChain, _pair_dists
from gmtepi.generators import cantor_graph, cone_harmonic, flat_disk, two_sheet_cantor
from gmtepi.groups import integers
from gmtepi.scan import (
    _dist_to_support,
    _fiber_split,
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
