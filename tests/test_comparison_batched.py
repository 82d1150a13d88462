"""The stalk coefficient, the exact angular windows and the batched
averaged graph against the loop code kept in ``scalar_oracle``."""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi.chains import PolyChain, Simplex, pushforward_linear
from gmtepi.epi import (
    _decompose,
    _excess_over_polygon,
    _layer_ray_angles,
    _split_by_polygon_cylinder,
    averaged_graph,
    build_comparison,
)
from gmtepi.generators import cone_harmonic, tilted_cone
from gmtepi.groups import NormedCoefficient, group_norm, integers
from gmtepi.layers import (
    ConstancyError,
    _angular_windows,
    _arcs_meet,
    _polygon_arcs,
    align_base_to_chain,
    decompose_layers,
)
from gmtepi.moments import quad_form, select_plane
from gmtepi.planes import OrientedPlane

from conftest import make_graph_disk, minor_volumes

G = integers()
V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
LINE = OrientedPlane(np.array([[1.0, 0.0]]))


def kinked_line() -> PolyChain:
    one = NormedCoefficient(G, 1)
    return PolyChain(2, 1, G, [
        (Simplex(np.array([[0.0, 0.0], [2.05, 2.05 * 0.05]])), one),
        (Simplex(np.array([[-2.05, 2.05 * 0.03], [0.0, 0.0]])), one),
    ])


def tilted_base() -> OrientedPlane:
    c, s = math.cos(0.1), math.sin(0.1)
    return OrientedPlane(np.array([[c, 0.0, s], [0.0, 1.0, 0.0]]))


CHAINS = {
    "harmonic k=2": lambda: (cone_harmonic(2, 0.08, 64)[0], V),
    "harmonic k=3": lambda: (cone_harmonic(3, 0.04, 64)[0], V),
    "tilted cone": lambda: (tilted_cone(0.1, 64)[0], tilted_base()),
    "two-layer stack": lambda: (
        make_graph_disk(24, lambda p: 0.0, R=1.3) + make_graph_disk(24, lambda p: 0.4, R=1.3),
        V,
    ),
    "m = 1 chain": lambda: (kinked_line(), LINE),
}


def _probe_nodes(domains: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Loop-oracle query points: a polar grid of the disk (an even grid of
    the interval for m = 1) and the domain barycentres inside it."""
    if domains.shape[2] == 1:
        grid = np.linspace(-radius, radius, 41)[:, None]
    else:
        grid = np.array([
            radius * (k - 0.5) / 6.5 * np.array([math.cos(a), math.sin(a)])
            for k in range(1, 7)
            for a in 2 * math.pi * (np.arange(6 * k) + 0.5) / (6 * k)
        ])
    nodes = np.vstack([grid, domains.mean(axis=1)])
    return nodes[np.linalg.norm(nodes, axis=1) <= radius]


@pytest.mark.parametrize("name", list(CHAINS))
def test_constancy_masks_match_the_loop(name):
    # g0 read off one probe point equals the stalk sum the loop finds,
    # the same at every node, on a polar grid and the domain barycentres
    chain, base = CHAINS[name]()
    decomp = decompose_layers(chain, base, check_constancy=False)
    g0 = decompose_layers(chain, base).g0
    assert g0 == oracle.constancy_g0(decomp, _probe_nodes(decomp.domains))
    assert not g0.is_zero


def test_hole_and_constancy_errors_match_the_loop():
    # a disk too small for the unit disk (a hole) and a patch on top of a
    # sheet (a stalk sum of 2 over the patch, 1 elsewhere): the projected
    # boundary enters the disk, and the loop finds the hole or the jump
    hole = make_graph_disk(16, lambda p: 0.0, R=0.4)
    patch = make_graph_disk(32, lambda p: 0.0, R=1.3) + make_graph_disk(8, lambda p: 0.2, R=0.3)
    # the inradius of each disk's polygon is where its boundary comes closest
    cases = ((hole, "hole", 0.4 * math.cos(math.pi / 16)), (patch, "differs", 0.3 * math.cos(math.pi / 8)))
    for chain, word, near in cases:
        decomp = decompose_layers(chain, V, check_constancy=False)
        with pytest.raises(ConstancyError, match="^projected boundary comes within ") as info:
            decompose_layers(chain, V)
        assert f"within {near:.6g} of the origin, inside the disk of radius 1" in str(info.value)
        with pytest.raises(ConstancyError, match=word):
            oracle.constancy_g0(decomp, _probe_nodes(decomp.domains))


def test_angular_windows():
    a, b = 1.0, 1.1
    apex = np.array([[0.0, 0.0], [math.cos(a), math.sin(a)], [2 * math.cos(b), 2 * math.sin(b)]])
    around = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]])
    away = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    lo, hi = _angular_windows(np.stack([apex, around, away]))
    np.testing.assert_allclose(lo, [a, 0.0, math.atan2(1.0, 2.0)], rtol=0, atol=1e-15)
    np.testing.assert_allclose(hi, [b, 2 * math.pi, math.atan2(2.0, 1.0)], rtol=0, atol=1e-15)
    # the apex's atan2(0, 0) = 0 stretched the old window down to angle 0
    assert oracle.angular_window(np.arctan2(apex[:, 1], apex[:, 0])) == pytest.approx((0.0, b))
    # an apex off the origin by rounding carries no direction either
    nudged = apex.copy()
    nudged[0] = [1e-17, -1e-17]
    assert tuple(x[0] for x in _angular_windows(nudged[None])) == pytest.approx((a, b), abs=1e-15)
    # on a 16-gon the apex wedge meets the arc of edge 2 only, a window of
    # two whole arcs touches their neighbours, and the full window meets all
    ang = 2 * math.pi * np.arange(16) / 16
    poly_ang, arcs = _polygon_arcs(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    assert np.flatnonzero(_arcs_meet(poly_ang, arcs, lo[0], hi[0])).tolist() == [2]
    assert np.flatnonzero(_arcs_meet(poly_ang, arcs, 2 * math.pi / 16, 3 * 2 * math.pi / 16)).tolist() == [0, 1, 2, 3]
    assert _arcs_meet(poly_ang, arcs, lo[1], hi[1]).all()
    # broadcast over a stack of windows, row by row
    stacked = _arcs_meet(poly_ang, arcs, lo[:, None], hi[:, None])
    assert [np.flatnonzero(r).tolist() for r in stacked] == [
        np.flatnonzero(_arcs_meet(poly_ang, arcs, a, b)).tolist() for a, b in zip(lo, hi)
    ]


def _pieces_mass(pieces) -> float:
    return sum(group_norm(c) * float(minor_volumes(v[None])[0]) for v, c in pieces)


def _as_pieces(P: PolyChain, side) -> list:
    """``(vertices, coefficient)`` pairs of one side of the split."""
    verts, src = side
    return [(v, P.coefficient(j)) for v, j in zip(verts, src)]


def _polygons(P: PolyChain, base: OrientedPlane):
    rays = _layer_ray_angles(decompose_layers(P, base))
    skew = 2 * math.pi * (np.arange(40) + 0.3) / 40
    return [
        0.75 * np.stack([np.cos(rays), np.sin(rays)], axis=1),
        0.6 * np.stack([np.cos(skew), np.sin(skew)], axis=1),
    ]


def _random_graphs():
    """Two-layer graph chains over turned fans with random heights, each
    with a random convex polygon about the origin."""
    rng = np.random.default_rng(11)
    for _ in range(3):
        a, b = rng.normal(scale=0.2, size=(2, 3))
        turn = rng.uniform(0.0, 1.0)
        rot = np.array([[math.cos(turn), -math.sin(turn), 0.0], [math.sin(turn), math.cos(turn), 0.0], [0, 0, 1]])
        top = make_graph_disk(int(rng.integers(8, 20)), lambda p: a[0] * p[0] + a[1] * p[1] ** 2 + a[2], R=1.3)
        low = make_graph_disk(int(rng.integers(8, 20)), lambda p: b[0] * p[0] * p[1] + b[2], R=1.2)
        # jittered corners on a circle: arcs below the oracle's 0.6 rad margin
        ang = 2 * math.pi * (np.arange(24) + rng.uniform(-0.3, 0.3, 24)) / 24
        poly = rng.uniform(0.4, 1.0) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        yield top + pushforward_linear(low, rot, np.zeros(3)), V, poly


def _split_inputs():
    P = cone_harmonic(2, 0.05, 48)[0]
    P4, V4 = cone_harmonic(2, 0.04, 32, n=4)[0], OrientedPlane(np.eye(4)[:2])
    yield from ((P, V, poly) for poly in _polygons(P, V))
    yield from ((P4, V4, poly) for poly in _polygons(P4, V4))
    yield kinked_line(), LINE, np.array([[-0.75], [0.75]])
    yield from _random_graphs()


def test_split_by_polygon_cylinder_partitions_mass():
    for P, base, poly in _split_inputs():
        whole = _pieces_mass([(s.vertices, c) for s, c in P.terms])
        inside, outside = (_as_pieces(P, side) for side in _split_by_polygon_cylinder(P, base, poly))
        assert _pieces_mass(inside) + _pieces_mass(outside) == pytest.approx(whole, rel=1e-14)
        old_inside, old_outside = oracle.split_by_polygon_cylinder(P, base, poly)
        assert _pieces_mass(inside) == pytest.approx(_pieces_mass(old_inside), rel=1e-14)
        # the oracle clips by every edge within 0.6 rad of a term, the
        # windows by the edges whose arcs meet it; an interval's two ends
        # cut every term
        if base.m == 2:
            assert len(outside) < len(old_outside)
        else:
            assert len(outside) == len(old_outside)


def test_split_pieces_project_positively():
    # the polygon's corners sit on the cone's rays, where two clip edges
    # emit one crossing twice: the pieces keep no sliver between the copies
    P = cone_harmonic(2, 0.04, 32, n=4)[0]
    base = align_base_to_chain(select_plane(quad_form(P, np.zeros(4), 1.0), 2)[0], P)
    rays = _layer_ray_angles(decompose_layers(P, base))
    poly = 0.75 * np.stack([np.cos(rays), np.sin(rays)], axis=1)
    for verts, _src in _split_by_polygon_cylinder(P, base, poly):
        dom = verts @ base.frame.T
        e = dom[:, 1:] - dom[:, :1]
        assert np.all((e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]) * base.orientation > 0)


@pytest.fixture(scope="module")
def cone48():
    P = cone_harmonic(2, 0.05, 48)[0]
    return P, build_comparison(P)[0]


def test_excess_over_polygon_matches_the_margin_window(cone48):
    P, S = cone48
    g0 = NormedCoefficient(G, 1)
    ang = 2 * math.pi * np.arange(48) / 48
    zone = 0.25 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    for chain in (P, S):
        for poly in [zone] + _polygons(P, V):
            got = _excess_over_polygon(_decompose(chain, V, g0), poly)
            assert got == pytest.approx(oracle.excess_over_polygon(chain, V, g0, poly), rel=0, abs=1e-14)


@pytest.mark.parametrize("n", [3, 4])
def test_excess_over_polygon_matches_the_full_clip(n):
    # n = 4 is codimension two: domains and Jacobians come from the layer
    # decomposition, and the zone excess runs the same windowed loop
    P = cone_harmonic(2, 0.05, 48, n=n)[0]
    base = OrientedPlane(np.eye(n)[:2])
    ang = 2 * math.pi * np.arange(48) / 48
    zone = 0.25 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    decomp = decompose_layers(P, base)
    got = _excess_over_polygon(decomp, zone)
    assert got == pytest.approx(oracle.cylindrical_excess_polygon(decomp, zone), rel=0, abs=1e-14)


@pytest.mark.parametrize("tri", [
    # covers the zone
    [[3.0, 0.0, 0.0], [-1.5, 2.7, 0.0], [-1.5, -2.7, 0.0]],
    # its edge x = 0.1 crosses the zone
    [[0.1, -3.0, 0.0], [5.0, 0.0, 0.0], [0.1, 3.0, 0.0]],
])
def test_excess_over_polygon_counts_domains_with_every_vertex_beyond_the_zone(tri):
    g0 = NormedCoefficient(G, 1)
    T = PolyChain(3, 2, G, [(Simplex(np.array(tri)), g0)])
    ang = 2 * math.pi * np.arange(16) / 16
    zone = 0.25 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    decomp = _decompose(T, OrientedPlane(np.eye(3)[:2]), g0)
    got = _excess_over_polygon(decomp, zone)
    assert got == pytest.approx(oracle.cylindrical_excess_polygon(decomp, zone), rel=0, abs=1e-14)
    assert got > -0.19


def test_comparison_surface_term_count(cone48):
    # each term is cut only by the polygon edges whose arcs meet its
    # angular window (a 0.6 rad margin window gave 2,552 terms)
    assert len(cone48[1].terms) == 2112


@pytest.mark.parametrize("name", list(CHAINS))
def test_averaged_graph_eval_many_matches_per_point(name):
    chain, base = CHAINS[name]()
    base = align_base_to_chain(base, chain)
    avg = averaged_graph(decompose_layers(chain, base))
    rng = np.random.default_rng(4)
    m = chain.m
    xs = rng.uniform(-0.7, 0.7, size=(200, m))
    # points on shared domain edges, where two layers are averaged
    xs = np.vstack([xs, 0.5 * avg.decomp.domains[:, 1]])
    got = avg.eval_many(xs)
    want = np.array([oracle.averaged_eval(avg, x) for x in xs])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    with pytest.raises(ConstancyError):
        avg.eval_many(np.full((1, m), 5.0))
