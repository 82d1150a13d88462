import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmtepi.chains import PolyChain, Simplex, mass
from gmtepi.groups import NormedCoefficient, cantor, integers
from gmtepi.layers import (
    ConstancyError,
    GeneralPositionError,
    cylindrical_excess,
    decompose_layers,
    height_sup,
    multiplicity_stats,
    size_excess,
)
from gmtepi.planes import OrientedPlane

import scalar_oracle as oracle
from conftest import make_graph_disk

G = integers()
V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_single_tilted_layer_recovered():
    L = 0.2
    T = make_graph_disk(32, lambda p: L * p[0], R=1.3)
    d = decompose_layers(T, V)
    assert d.g0.value == 1
    for ly in d.layers:
        assert_allclose(ly.A, [[L, 0.0]], atol=1e-12)
        assert_allclose(ly.b, [0.0], atol=1e-12)


def test_two_stacked_disks_sum_coefficient():
    T = make_graph_disk(24, lambda p: 0.0, R=1.3) + make_graph_disk(24, lambda p: 0.4, R=1.3)
    d = decompose_layers(T, V)
    assert d.g0.value == 2
    assert len(d.layers) == 48


def test_rebuild_round_trip():
    # graph vertices reconstructed from the recovered affine maps
    T = make_graph_disk(16, lambda p: 0.1 * p[0] - 0.05 * p[1] + 0.02, R=1.3)
    d = decompose_layers(T, V)
    for (simplex, _), ly in zip(T.terms, d.layers):
        for vert, dom in zip(simplex.vertices, ly.domain):
            rebuilt = V.embed(dom) + ly.height(dom) @ d.perp
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


def test_height_sup_examples():
    flat = decompose_layers(make_graph_disk(32, lambda p: 0.0, R=1.3), V)
    assert height_sup(make_graph_disk(32, lambda p: 0.0, R=1.3), V, 1.0) <= 1e-12
    eps = 0.07
    g = make_graph_disk(64, lambda p: eps * p[0], R=1.3)
    h = height_sup(g, V, radius=1.0)
    assert eps - 1e-9 <= h <= eps * 1.01


def test_height_sup_harmonic_cone():
    from gmtepi.generators import cone_harmonic

    P, _ = cone_harmonic(2, 0.1, 64)
    h = height_sup(P, V, radius=1.0)
    assert 0.095 <= h <= 0.105
