"""The one-pass cylinder clip and its searched edge lists against the
chunked clip and the dense edge masks kept in ``scalar_oracle``."""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi import epi
from gmtepi.chains import PolyChain, Simplex, pushforward_linear
from gmtepi.generators import cone_harmonic, tilted_cone
from gmtepi.groups import NormedCoefficient, integers
from gmtepi.layers import (
    _angular_windows,
    _arcs_meet,
    _clip_to_cylinder,
    _inward_normals,
    _meeting_arcs,
    _polygon_arcs,
)

TAU = 2 * math.pi


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _pieces_by_row(cut) -> list:
    """``(row, vertex bytes)`` of every outside piece, stably sorted by the
    row it comes from: the order in which the comparison keeps them."""
    pieces = [(int(r), _bits(p[:c])) for polys, counts, rows in cut for p, c, r in zip(polys, counts, rows)]
    return sorted(pieces, key=lambda piece: piece[0])


def _assert_same_clip(args, outside: bool = True) -> int:
    """The one-pass clip of ``args`` equals the chunked clip bit for bit:
    inside polygons and counts, and outside pieces in order.  Returns the
    number of outside pieces."""
    (polys, counts), cut = _clip_to_cylinder(*args, outside=outside)
    (want_polys, want_counts), want_cut = oracle.chunked_clip_to_cylinder(*args, outside=outside)
    assert counts.tolist() == want_counts.tolist()
    for p, q, c in zip(polys, want_polys, counts):
        assert _bits(p[:c]) == _bits(q[:c])
    for _polys, _counts, rows in cut:
        assert np.all(np.diff(rows) > 0)
    assert _pieces_by_row(cut) == _pieces_by_row(want_cut)
    return len(_pieces_by_row(cut))


def _rotated(P: PolyChain, seed: int) -> PolyChain:
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(P.n, P.n)))
    return pushforward_linear(P, q * np.sign(np.diag(r)))


def _kinked_line() -> PolyChain:
    one = NormedCoefficient(integers(), 1)
    return PolyChain(2, 1, integers(), [
        (Simplex(np.array([[0.0, 0.0], [2.05, 2.05 * 0.05]])), one),
        (Simplex(np.array([[-2.05, 2.05 * 0.03], [0.0, 0.0]])), one),
    ])


COMPARISONS = {
    # the benchmark's four cones: criterion 4's three and k = 3, rotated
    "bench k=2 a=0.08": lambda: _rotated(cone_harmonic(2, 0.08, 256)[0], 1),
    "bench k=2 a=0.04": lambda: _rotated(cone_harmonic(2, 0.04, 256)[0], 2),
    "bench k=2 a=0.02": lambda: _rotated(cone_harmonic(2, 0.02, 256)[0], 3),
    "bench k=3 a=0.04": lambda: _rotated(cone_harmonic(3, 0.04, 256)[0], 4),
    "harmonic k=3 a=0.05": lambda: cone_harmonic(3, 0.05, 256)[0],
    "tilted cone": lambda: tilted_cone(0.1, 128)[0],
    "m = 1 kinked line": _kinked_line,
}


@pytest.mark.parametrize("name", list(COMPARISONS))
def test_every_clip_of_a_comparison_matches_the_chunked_clip(name, monkeypatch):
    # the clips of the split of P and of both zone excesses
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs.get("outside", False)))
        return _clip_to_cylinder(*args, **kwargs)

    monkeypatch.setattr(epi, "_clip_to_cylinder", recorded)
    epi.build_comparison(COMPARISONS[name]())
    assert len(calls) == (1 if name.startswith("m = 1") else 3)
    assert sum(_assert_same_clip(args, outside) for args, outside in calls) > 0


def _convex_polygon(rng, k: int) -> np.ndarray:
    """A convex k-gon about the origin: a regular one turned and scaled, or
    sorted random directions on a circle, with no gap of pi or more."""
    if rng.random() < 0.4:
        ang = rng.uniform(0, TAU) + TAU * np.arange(k) / k
    else:
        while True:
            ang = np.sort(rng.uniform(0, TAU, size=k))
            if np.max(np.diff(np.append(ang, ang[0] + TAU))) < 0.9 * math.pi:
                break
    return rng.uniform(0.3, 1.2) * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _triangles(rng, count: int, n: int = 3) -> np.ndarray:
    """Triangles (count, 3, n) over the plane of the first two coordinates:
    scattered ones, apex triangles with a vertex at the origin, triangles
    around the origin, and thin ones along a ray."""
    dom = rng.uniform(-1.5, 1.5, size=(count, 3, 2))
    kind = rng.integers(0, 4, size=count)
    dom[kind == 1, 0] = 0.0
    dom[kind == 2] = rng.uniform(0.2, 1.5) * np.array([[1.0, 0.0], [-0.5, 0.9], [-0.5, -0.9]])
    a = rng.uniform(0, TAU, size=count)
    ray = np.stack([np.cos(a), np.sin(a)], axis=1)[:, None] * rng.uniform(0.1, 1.5, size=(count, 3, 1))
    dom[kind == 3] = (ray + 1e-3 * rng.normal(size=ray.shape))[kind == 3]
    out = np.zeros((count, 3, n))
    out[..., :2] = dom
    out[..., 2:] = 0.1 * rng.normal(size=(count, 3, n - 2))
    return out


@pytest.mark.parametrize("k", [3, 4, 5, 7, 16, 64, 255, 256, 512])
def test_one_clip_pass_matches_the_chunked_clip_on_random_zones(k):
    # the chunked clip takes chunks of 8192 // k rows: several chunks at
    # every k, and fewer rows at large k, where wide windows meet most edges
    rng = np.random.default_rng(k)
    for n in (2, 3, 5) if k < 200 else (3,):
        rows = _triangles(rng, 120 if k < 200 else 40, n)
        dom = rows[..., :2]
        poly = _convex_polygon(rng, k)
        normals = _inward_normals(poly, np.zeros(2))
        frame = np.eye(n)[:2]
        # the facets as the comparison's zone excess and its split give them
        _assert_same_clip((dom, dom, poly, poly, normals), outside=False)
        unit = normals / np.linalg.norm(normals, axis=1)[:, None]
        assert _assert_same_clip((rows, dom, poly, poly @ frame, unit @ frame)) > 0


def test_one_clip_pass_matches_the_chunked_clip_on_intervals():
    rng = np.random.default_rng(5)
    ends = np.array([[-0.75], [0.6]])
    for n in (2, 4):
        rows = rng.uniform(-1.5, 1.5, size=(200, 2, n))
        rows[::3, 0] = 0.0  # segments from the origin, as a cone has them
        frame = np.eye(n)[:1]
        normals = np.sign(ends.mean(axis=0) - ends) @ frame
        assert _assert_same_clip((rows, rows[..., :1], ends, ends @ frame, normals)) > 0
    # no rows at all
    (polys, counts), cut = _clip_to_cylinder(rows[:0], rows[:0, :, :1], ends, ends @ frame, normals, outside=True)
    assert polys.shape[0] == 0 and len(counts) == 0 and all(len(r) == 0 for _, _, r in cut)


def _dense(starts, lengths, lo, hi):
    return np.nonzero(_arcs_meet(starts, lengths, lo[:, None], hi[:, None]))


def _assert_same_lists(starts, lengths, lo, hi):
    rows, cols = _meeting_arcs(starts, lengths, lo, hi)
    want_rows, want_cols = _dense(starts, lengths, lo, hi)
    assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()
    return len(rows)


def _slack_windows(rng, starts, lengths, count: int):
    """Windows that end or begin within a few 1e-9 rad of an arc's ends,
    on both sides of the predicate's slack, some across 0 / 2 pi."""
    e = rng.integers(0, len(starts), size=count)
    d = rng.choice([-2e-9, -1.1e-9, -0.9e-9, -1e-10, 0.0, 1e-10, 0.9e-9, 1.1e-9, 2e-9], size=count)
    w = rng.choice([0.0, 1e-10, 1e-3, 0.5], size=count)
    side = rng.random(count) < 0.5
    lo = np.where(side, starts[e] + lengths[e] + d, starts[e] + d - w)
    return lo, lo + w


def test_searched_edge_lists_equal_the_dense_mask_on_random_polygons():
    rng = np.random.default_rng(2016)
    hits = 0
    for trial in range(300):
        k = int(rng.choice([3, 4, 5, 8, 17, 64, 256]))
        poly = _convex_polygon(rng, k)
        if trial % 5 == 0:
            # a vertex 1e-10 rad past its predecessor: an arc under the slack
            j = int(rng.integers(0, k))
            a = math.atan2(poly[j, 1], poly[j, 0]) + 1e-10
            poly = np.insert(poly, j + 1, np.linalg.norm(poly[j]) * np.array([math.cos(a), math.sin(a)]), axis=0)
        starts, lengths = _polygon_arcs(poly)
        # the windows of scattered, apex, around-origin and thin triangles
        lo, hi = _angular_windows(_triangles(rng, 40)[..., :2])
        hits += _assert_same_lists(starts, lengths, lo, hi)
        hits += _assert_same_lists(starts, lengths, *_slack_windows(rng, starts, lengths, 40))
    assert hits > 10_000


def test_searched_edge_lists_equal_the_dense_mask_on_layer_windows():
    # the mollifier's use: arcs are layer windows, some long or full
    # circles, and the intervals are angles -+ a reach, wrapping anywhere
    rng = np.random.default_rng(7)
    for trial in range(100):
        L = int(rng.integers(1, 80))
        lo_w, hi_w = _angular_windows(_triangles(rng, L)[..., :2])
        lengths = hi_w - lo_w
        _assert_same_lists(lo_w, lengths, np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))  # the m = 1 sides
        a = rng.uniform(-TAU, 2 * TAU, size=64)
        reach = math.asin(rng.uniform(1e-3, 0.45)) + 1e-6
        _assert_same_lists(lo_w, lengths, a - reach, a + reach)
        _assert_same_lists(lo_w, lengths, *_slack_windows(rng, lo_w, lengths, 30))
    # full-circle windows only, and no arcs at all
    assert _assert_same_lists(np.zeros(3), np.full(3, TAU), np.array([0.3, 5.0]), np.array([0.4, 5.1])) == 6
    assert _assert_same_lists(np.zeros(0), np.zeros(0), np.array([0.3]), np.array([0.4])) == 0


def test_mollified_graph_takes_the_searched_lists(monkeypatch):
    # the same values as with the dense mask, on a cone and an m = 1 line
    for P in (cone_harmonic(3, 0.04, 64)[0], _kinked_line()):
        V = epi.align_base_to_chain(epi.select_plane(epi.quad_form(P, np.zeros(P.n), 1.0), P.m)[0], P)
        avg = epi.averaged_graph(epi.decompose_layers(P, V))
        angles = epi._layer_ray_angles(avg.decomp) if P.m == 2 else None
        got = epi.mollified_graph(avg, 0.05, angles=angles).values
        monkeypatch.setattr(epi, "_meeting_arcs", _dense)
        want = epi.mollified_graph(avg, 0.05, angles=angles).values
        monkeypatch.undo()
        assert _bits(got) == _bits(want)
