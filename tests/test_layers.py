import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmtepi.chains import PolyChain, Simplex, boundary, mass, pushforward_linear
from gmtepi.generators import (
    cantor_graph,
    cantor_group_chain,
    cone_harmonic,
    flat_disk,
    stacked_disks,
    tilted_cone,
    two_sheet_cantor,
)
from gmtepi.groups import NormedCoefficient, cantor, group_norm, integers
from gmtepi.layers import (
    _overlaps,
    _spectral_norms,
    ConstancyError,
    GeneralPositionError,
    align_base_to_chain,
    boundary_clearance,
    cylindrical_excess,
    decompose_layers,
    height_sup,
    multiplicity_stats,
    size_excess,
)
from gmtepi.planes import OrientedPlane

import scalar_oracle as oracle
from conftest import make_graph_disk, two_height_graph

G = integers()
V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
LINE = OrientedPlane(np.array([[1.0, 0.0]]))


def test_single_tilted_layer_recovered():
    L = 0.2
    T = make_graph_disk(32, lambda p: L * p[0], R=1.3)
    d = decompose_layers(T, V)
    assert d.g0.value == 1
    assert_allclose(d.A, np.broadcast_to([[L, 0.0]], d.A.shape), atol=1e-12)
    assert_allclose(d.b, np.zeros(d.b.shape), atol=1e-12)


def test_two_stacked_disks_sum_coefficient():
    T = make_graph_disk(24, lambda p: 0.0, R=1.3) + make_graph_disk(24, lambda p: 0.4, R=1.3)
    d = decompose_layers(T, V)
    assert d.g0.value == 2
    assert len(d.domains) == 48


def test_rebuild_round_trip():
    # graph vertices reconstructed from the recovered affine maps
    T = make_graph_disk(16, lambda p: 0.1 * p[0] - 0.05 * p[1] + 0.02, R=1.3)
    d = decompose_layers(T, V)
    for (simplex, _), domain, A, b in zip(T.terms, d.domains, d.A, d.b):
        for vert, dom in zip(simplex.vertices, domain):
            rebuilt = V.embed(dom) + (A @ dom + b) @ d.perp
            assert np.linalg.norm(rebuilt - vert) <= 1e-10


def test_general_position_errors():
    vertical = PolyChain(
        3, 2, G, [(Simplex(np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1.0]])), NormedCoefficient(G, 1))]
    )
    with pytest.raises(GeneralPositionError):
        decompose_layers(vertical, V)
    flipped = make_graph_disk(8, lambda p: 0.0)
    rev = PolyChain(3, 2, G, [(Simplex(s.vertices[::-1]), c) for s, c in flipped.terms])
    with pytest.raises(GeneralPositionError):
        decompose_layers(rev, V)


def test_hole_raises_constancy_error():
    T = make_graph_disk(16, lambda p: 0.0, R=0.4)  # covers only a small disk
    with pytest.raises(ConstancyError):
        decompose_layers(T, V, radius=1.0)


@pytest.mark.parametrize("gap", range(0, 256, 16))
def test_a_missing_wedge_raises_constancy_error(gap):
    # the two rays of the removed wedge are boundary through the origin
    P = cone_harmonic(2, 0.04, 256)[0]
    keep = np.arange(len(P)) != gap
    with pytest.raises(ConstancyError, match="within 0 of the origin"):
        decompose_layers(P.with_arrays(P.verts[keep], P.payload[keep]), V)
    assert decompose_layers(P, V).g0.value == 1


def test_a_missing_segment_of_a_kinked_line_raises_constancy_error():
    one = NormedCoefficient(G, 1)
    right = (Simplex(np.array([[0.0, 0.0], [2.05, 2.05 * 0.05]])), one)
    left = (Simplex(np.array([[-2.05, 2.05 * 0.03], [0.0, 0.0]])), one)
    line = OrientedPlane(np.array([[1.0, 0.0]]))
    assert boundary_clearance(PolyChain(2, 1, G, [right, left]), line) == 2.05
    assert decompose_layers(PolyChain(2, 1, G, [right, left]), line).g0.value == 1
    for half in (right, left):
        with pytest.raises(ConstancyError, match="within 0 of the origin"):
            decompose_layers(PolyChain(2, 1, G, [half]), line)


def test_boundary_clearance_is_exact_on_segments():
    # the far edges of an N-ray fan come within its inradius 2.05 cos(pi/N),
    # between the vertices
    for N in (6, 8, 12):
        P = cone_harmonic(2, 0.0, N)[0]
        assert boundary_clearance(P, V) == pytest.approx(2.05 * math.cos(math.pi / N), rel=1e-14)


def test_boundary_clearance_drops_faces_that_cancel_in_projection():
    # a disk whose lower half is lifted by 0.3: the two diameters and the
    # two apexes are boundary in R^3, but their projections cancel
    disk = make_graph_disk(16, lambda p: 0.0, R=1.3)
    verts = disk.verts.copy()
    verts[8:, :, 2] += 0.3
    step = disk.with_arrays(verts, disk.payload)
    assert boundary_clearance(step, V) == pytest.approx(1.3 * math.cos(math.pi / 16), rel=1e-14)
    assert decompose_layers(step, V).g0.value == 1
    # a closed surface has no boundary at all
    tet = PolyChain(3, 3, G, verts=np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]], dtype=float),
                    payload=np.ones((1, 1), dtype=np.int64))
    assert boundary_clearance(boundary(tet), V) == math.inf


def test_excess_flat_disk_zero():
    d = decompose_layers(make_graph_disk(64, lambda p: 0.0, R=1.3), V)
    assert_allclose(cylindrical_excess(d, radius=1.0), 0.0, atol=1e-12)


def test_excess_tilted_graph_value():
    eps = 0.1
    d = decompose_layers(make_graph_disk(64, lambda p: eps * p[0], R=1.3), V)
    expect = (math.sqrt(1 + eps * eps) - 1) * math.pi
    assert_allclose(cylindrical_excess(d, radius=1.0), expect, rtol=1e-12)


def test_excess_nonnegative_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a, b, c = rng.normal(size=3) * 0.2
        d = decompose_layers(make_graph_disk(32, lambda p: a * p[0] + b * p[1] + c, R=1.3), V)
        assert cylindrical_excess(d, radius=1.0) >= -1e-12


def test_excess_additive_over_halfplane_cuts():
    d = decompose_layers(make_graph_disk(32, lambda p: 0.15 * p[0], R=1.5), V)
    square = np.array([[-0.7, -0.7], [0.7, -0.7], [0.7, 0.7], [-0.7, 0.7]])
    left = np.array([[-0.7, -0.7], [0.1, -0.7], [0.1, 0.7], [-0.7, 0.7]])
    right = np.array([[0.1, -0.7], [0.7, -0.7], [0.7, 0.7], [0.1, 0.7]])
    whole = oracle.cylindrical_excess_polygon(d, square)
    halves = oracle.cylindrical_excess_polygon(d, left) + oracle.cylindrical_excess_polygon(d, right)
    assert_allclose(halves, whole, rtol=1e-12)
    assert whole >= 0


def test_cantor_cancellation_gates_excess():
    spec = cantor(3)
    g = NormedCoefficient(spec, (1, 0, 0))

    def graph(fn):
        ang = 2 * np.pi * np.arange(17) / 16
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1) * 1.3
        terms = []
        for i in range(16):
            base2 = np.array([[0.0, 0.0], pts[i], pts[i + 1]])
            v = np.zeros((3, 3))
            v[:, :2] = base2
            v[:, 2] = fn
            terms.append((Simplex(v), g))
        return terms

    T = PolyChain(3, 2, spec, graph(0.0) + graph(0.3))
    d = decompose_layers(T, V)
    assert d.g0.is_zero  # g + g = 0 in the Cantor group
    with pytest.raises(ConstancyError):
        cylindrical_excess(d, radius=1.0)


def test_multiplicity_single_layer_zeros():
    d = decompose_layers(make_graph_disk(32, lambda p: 0.0, R=1.3), V)
    rep = multiplicity_stats(d, eps_mass=0.1)
    assert rep.e2_measure == 0.0
    assert rep.int_count == 0.0
    assert rep.int_coeff_norm == 0.0
    assert rep.hypotheses_ok
    assert rep.size_excess <= rep.bound_size + 1e-12


def test_multiplicity_two_layer_patch():
    # a second flat patch of known projected area a: the overlap integrals
    # equal 2a and coefficient-norm 2a exactly
    base = make_graph_disk(32, lambda p: 0.0, R=1.3)
    patch = make_graph_disk(8, lambda p: 0.2, R=0.3)
    T = base + patch
    # a partial extra patch breaks the constancy of the projection by
    # construction; the overlap statistics are still well defined
    d = decompose_layers(T, V, check_constancy=False)
    d.g0 = NormedCoefficient(G, 1)
    d.g0_norm = 1.0
    a = 8 / 2 * math.sin(2 * math.pi / 8) * 0.3**2
    rep = multiplicity_stats(d, eps_mass=10.0)
    assert_allclose(rep.e2_measure, a, rtol=1e-12)
    assert_allclose(rep.int_count, 2 * a, rtol=1e-12)
    assert_allclose(rep.int_coeff_norm, 2 * a, rtol=1e-12)
    # the stated density hypothesis fails here (||g_i|| = 1 < (3/4)||g0||
    # would need g0 = 1, but the overlap makes the stalk sum 2 on the patch)
    assert not rep.hypotheses_ok or rep.int_count <= rep.bound_count


def test_multiplicity_three_coincident_fans():
    # three sheets over the whole disk: every pair and every triple covers
    # it, so the truncation residual is the full triple term pi
    T = sum((make_graph_disk(16, lambda p, h=h: h, R=1.3) for h in (0.2, 0.4)),
            make_graph_disk(16, lambda p: 0.0, R=1.3))
    d = decompose_layers(T, V)
    assert d.g0.value == 3
    rep = multiplicity_stats(d, eps_mass=10.0)
    assert rep.e2_measure == pytest.approx(math.pi, rel=1e-12)
    assert rep.int_count == pytest.approx(3 * math.pi, rel=1e-12)
    assert rep.int_coeff_norm == pytest.approx(3 * math.pi, rel=1e-12)
    assert rep.truncation_residual == pytest.approx(math.pi, rel=1e-12)


def test_multiplicity_two_lines():
    # m = 1: two segments over [-1.3, 1.3] overlap on the whole interval
    one = NormedCoefficient(G, 1)
    T = PolyChain(2, 1, G, [(Simplex(np.array([[-1.3, h], [1.3, h]])), one) for h in (0.0, 0.2)])
    d = decompose_layers(T, LINE)
    assert d.g0.value == 2
    rep = multiplicity_stats(d, eps_mass=10.0)
    assert (rep.e2_measure, rep.int_count, rep.int_coeff_norm, rep.truncation_residual) == (2.0, 4.0, 4.0, 0.0)


def test_a_single_sheet_cone_counts_no_apex_sliver():
    # opposite wedges of the 256-ray cone meet only at the apex, where the
    # clip's tolerance keeps degenerate pieces of area 4e-33 to 2e-31;
    # each lay in every other wedge and started 1,121 triples
    d = decompose_layers(cone_harmonic(2, 0.05, 256)[0], V)
    _pairs, pair_area, _triples, triple_area = _overlaps(d.domains, np.zeros(2), 1.0)
    assert np.sum(pair_area) == 0.0 and len(triple_area) == 0
    rep = multiplicity_stats(d, eps_mass=0.1)
    assert (rep.e2_measure, rep.int_count, rep.truncation_residual) == (0.0, 0.0, 0.0)


GENERATOR_FAMILIES = {
    "flat_disk(64)": (lambda: flat_disk(64)[0], 0.0, 0.9),
    "tilted_cone(0.1, 64)": (lambda: tilted_cone(0.1, 64)[0], 0.0, 1.0),
    "cone_harmonic(2, 0.05, 256)": (lambda: cone_harmonic(2, 0.05, 256)[0], 0.0, 1.0),
    "cone_harmonic(3, 0.02, 64)": (lambda: cone_harmonic(3, 0.02, 64)[0], 0.0, 1.0),
    "stacked_disks()": (lambda: stacked_disks()[0], 0.0, 0.9),
    "stacked_disks, three sheets": (lambda: stacked_disks((0.0, 0.3, 0.6), (1, 1, 1))[0], 0.0, 0.9),
    "cantor_graph(4, 56, 0.02)": (lambda: cantor_graph(4, 56, 0.02)[0], 0.5, 0.4),
    "two_sheet_cantor(3, 48, 0.12)": (lambda: two_sheet_cantor(3, 48, 0.12)[0], 0.5, 0.4),
    "cantor_group_chain(3)": (lambda: cantor_group_chain(3)[0], 0.5, 0.4),
}


@pytest.mark.parametrize("name", list(GENERATOR_FAMILIES))
def test_the_truncation_residual_never_exceeds_the_pair_total(name):
    build, c, radius = GENERATOR_FAMILIES[name]
    chain = build()
    base = OrientedPlane(np.eye(chain.n)[: chain.m])
    d = decompose_layers(chain, base, check_constancy=False)
    _pairs, pair_area, _triples, triple_area = _overlaps(d.domains, np.full(chain.m, c), radius)
    assert np.all(pair_area >= 0.0) and np.all(triple_area >= 0.0)
    assert np.sum(triple_area) <= np.sum(pair_area)


def test_height_sup_examples():
    flat = decompose_layers(make_graph_disk(32, lambda p: 0.0, R=1.3), V)
    assert height_sup(make_graph_disk(32, lambda p: 0.0, R=1.3), V, 1.0) <= 1e-12
    eps = 0.07
    g = make_graph_disk(64, lambda p: eps * p[0], R=1.3)
    h = height_sup(g, V, radius=1.0)
    assert eps - 1e-9 <= h <= eps * 1.01
    # the cylinder is over an m-plane: an m-chain of another m is rejected
    with pytest.raises(ValueError, match="shape mismatch"):
        height_sup(boundary(g), V)


def test_height_sup_harmonic_cone():
    from gmtepi.generators import (
    cantor_graph,
    cantor_group_chain,
    cone_harmonic,
    flat_disk,
    stacked_disks,
    tilted_cone,
    two_sheet_cantor,
)

    P, _ = cone_harmonic(2, 0.1, 64)
    h = height_sup(P, V, radius=1.0)
    assert 0.095 <= h <= 0.105



def kinked_line() -> PolyChain:
    one = NormedCoefficient(G, 1)
    return PolyChain(2, 1, G, [
        (Simplex(np.array([[0.0, 0.0], [2.05, 2.05 * 0.05]])), one),
        (Simplex(np.array([[-2.05, 2.05 * 0.03], [0.0, 0.0]])), one),
    ])


def _embedded_cone(n: int, seed: int):
    """A harmonic cone under a random isometry R^3 -> R^n, with the image
    of the coordinate plane."""
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0][:, :3]
    P = pushforward_linear(cone_harmonic(2, 0.06, 48)[0], Q, np.zeros(n))
    return P, OrientedPlane.from_span(V.frame @ Q.T)


DECOMPOSITIONS = {
    "harmonic cone": lambda: (cone_harmonic(3, 0.05, 64)[0], V),
    "cone in R^4": lambda: (cone_harmonic(2, 0.04, 32, n=4)[0], OrientedPlane(np.eye(4)[:2])),
    "cone in R^5": lambda: _embedded_cone(5, 7),
    "two heights in R^4": lambda: (two_height_graph(), OrientedPlane(np.eye(4)[:2])),
    "two-layer stack": lambda: (
        make_graph_disk(24, lambda p: 0.1 * p[0], R=1.3) + make_graph_disk(24, lambda p: 0.4, R=1.3),
        V,
    ),
    "kinked line": lambda: (kinked_line(), LINE),
}


@pytest.mark.parametrize("name", list(DECOMPOSITIONS))
def test_decompose_layers_matches_the_per_term_loop(name):
    chain, base = DECOMPOSITIONS[name]()
    base = align_base_to_chain(base, chain)
    d = decompose_layers(chain, base)
    for t, (dom, A, b) in enumerate(oracle.decompose_terms(chain, base)):
        assert np.array_equal(d.domains[t], dom) and np.array_equal(d.A[t], A)
        assert np.array_equal(d.b[t], b)
        m = chain.m
        assert d.jac[t] == pytest.approx(math.sqrt(np.linalg.det(np.eye(m) + A.T @ A)), rel=1e-14)
        assert d.weights[t] == group_norm(chain.coefficient(t))
    assert cylindrical_excess(d) == pytest.approx(oracle.cylindrical_excess_loop(d), rel=1e-12, abs=1e-14)


def test_cylindrical_excess_clips_a_triangle_whose_vertices_all_miss_the_disk():
    # the edge y = 1/2 crosses the unit disk, no vertex lies inside: the
    # covered part is the circular segment above the chord
    slope = 0.1
    tri = np.array([[-2.0, 0.5, 0.0], [2.0, 0.5, 0.0], [0.0, 3.0, 0.0]])
    tri[:, 2] = slope * tri[:, 0]
    d = decompose_layers(PolyChain(3, 2, G, [(Simplex(tri), NormedCoefficient(G, 1))]), V,
                         check_constancy=False)
    d.g0, d.g0_norm = NormedCoefficient(G, 1), 1.0
    segment = math.acos(0.5) - 0.5 * math.sqrt(0.75)
    want = math.sqrt(1 + slope**2) * segment - math.pi
    assert cylindrical_excess(d) == pytest.approx(want, rel=1e-13)
    assert cylindrical_excess(d) == pytest.approx(oracle.cylindrical_excess_loop(d), rel=1e-13)


def test_align_base_to_chain_either_orientation():
    # a line and its reverse give the same frame after alignment, so the
    # decomposition and its excess agree; before, m = 1 skipped the check
    chain = kinked_line()
    ref = cylindrical_excess(decompose_layers(chain, align_base_to_chain(LINE, chain)))
    flipped = OrientedPlane(np.array([[-1.0, 0.0]]))
    with pytest.raises(GeneralPositionError):
        decompose_layers(chain, flipped)
    aligned = align_base_to_chain(flipped, chain)
    assert np.array_equal(aligned.frame, LINE.frame)
    assert cylindrical_excess(decompose_layers(chain, aligned)) == ref > 0
    # m = 2: a swapped frame row is flipped back
    P = make_graph_disk(16, lambda p: 0.1 * p[0], R=1.3)
    swapped = OrientedPlane(V.frame[::-1])
    assert np.linalg.det(align_base_to_chain(swapped, P).frame[:, :2]) > 0


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_spectral_norms_match_the_svd(m):
    rng = np.random.default_rng(11 + m)
    A = rng.normal(size=(200, 4, m)) * rng.uniform(1e-3, 10.0, size=(200, 1, 1))
    A[0] = 0.0
    A[1, :, -1] = A[1, :, 0]  # rank one
    want = np.linalg.norm(A, ord=2, axis=(1, 2))
    # both routes round: a few ulps apart, and no cancellation in the closed form
    assert np.all(np.abs(_spectral_norms(A) - want) <= 8 * np.finfo(float).eps * want)
