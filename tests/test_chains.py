import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import scalar_oracle as oracle

from gmtepi.chains import (
    HalfSpaceRegion,
    PolyChain,
    Simplex,
    ball_cone_bound,
    ball_mass,
    boundary,
    cone,
    cone_mass_formula,
    homogeneous_extend,
    is_cone,
    mass,
    pushforward_linear,
    restrict,
    size,
    slice_mass_profile,
)
from gmtepi.groups import NormedCoefficient, cantor, integers, unit_discrete
from gmtepi.moments import chain_ball_moments

from conftest import make_flat_disk, minor_volumes, random_chain

G = integers()
ONE = NormedCoefficient(G, 1)
TRI = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
TRI2 = Simplex(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def ngon_loop(N, group=G, coeff=None):
    coeff = coeff or NormedCoefficient(group, 1)
    ang = 2 * np.pi * np.arange(N + 1) / N
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return PolyChain(2, 1, group, [(Simplex(pts[i : i + 2]), coeff) for i in range(N)])


def test_triangle_boundary_closed_loop():
    T = PolyChain(2, 2, G, [(TRI, ONE)])
    B = boundary(T)
    assert len(B) == 3
    assert mass(boundary(B)) == 0.0


def test_glued_triangles_cancel_shared_edge():
    T = PolyChain(2, 2, G, [(TRI, ONE), (TRI2, ONE)])
    B = boundary(T)
    assert len(B) == 4
    assert_allclose(mass(B), 4.0)


def test_opposite_coefficients_leave_doubled_shared_edge():
    T = PolyChain(2, 2, G, [(TRI, ONE), (TRI2, NormedCoefficient(G, -1))])
    coeffs = sorted(abs(g.value) for _, g in boundary(T).terms)
    assert coeffs == [1, 1, 1, 1, 2]


def test_cantor_self_inverse_cancels_shared_edge():
    spec = cantor(3)
    g = NormedCoefficient(spec, (1, 0, 0))
    tri = Simplex(TRI.vertices)
    tri2 = Simplex(TRI2.vertices)
    B = boundary(PolyChain(2, 2, spec, [(tri, g), (tri2, g)]))
    # g + g = 0 on the shared edge: only the outer quadrilateral remains
    assert len(B) == 4


def test_mass_and_size():
    T = PolyChain(2, 2, G, [(TRI, NormedCoefficient(G, 3))])
    assert_allclose(mass(T), 1.5)
    assert_allclose(size(T), 0.5)
    empty = PolyChain(2, 2, G, [])
    assert mass(empty) == 0.0 and size(empty) == 0.0


def test_cantor_square_mass_and_size():
    spec = cantor(3)
    g = NormedCoefficient(spec, (1, 0, 0))  # norm 1/3
    sq = PolyChain(2, 2, spec, [(Simplex(TRI.vertices), g), (Simplex(TRI2.vertices), g)])
    assert_allclose(mass(sq), 1.0 / 3.0)
    assert_allclose(size(sq), 1.0)


def test_pushforward_identity_and_projection():
    T = PolyChain(3, 2, G, [(Simplex(np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0.0]])), ONE)])
    same = pushforward_linear(T, np.eye(3))
    assert_allclose(mass(same), mass(T))
    tilt = PolyChain(
        3, 2, G, [(Simplex(np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0.0]])), ONE)]
    )
    proj = pushforward_linear(tilt, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    assert_allclose(mass(proj) / mass(tilt), 1 / math.sqrt(2), rtol=1e-12)


def test_pushforward_drops_rank_deficient_images():
    seg = PolyChain(2, 1, G, [(Simplex(np.array([[0.0, 0.0], [0.0, 1.0]])), ONE)])
    dropped = pushforward_linear(seg, np.array([[1.0, 0.0]]))
    assert dropped.is_zero


def test_projection_never_increases_mass():
    rng = np.random.default_rng(5)
    for _ in range(30):
        T = random_chain(rng, m=2, n=4, terms=5)
        plane = np.linalg.qr(rng.normal(size=(4, 3)))[0][:, :3].T  # orthogonal projection rows
        proj = pushforward_linear(T, plane)
        assert mass(proj) <= mass(T) + 1e-12


def test_restrict_halfspace_exact():
    sq = PolyChain(2, 2, G, [(TRI, ONE), (TRI2, ONE)])
    res = restrict(sq, HalfSpaceRegion(np.array([1.0, 0.0]), 0.0))
    assert_allclose(mass(res), 1.0)
    half = restrict(sq, HalfSpaceRegion(np.array([1.0, 0.0]), 0.5))
    assert_allclose(mass(half), 0.5, atol=1e-14)


def test_restrict_ball_disk():
    # the oracle's bisection against the exact ball mass
    D = make_flat_disk(64, n=2)
    kept, err = oracle.restrict_ball(D, np.zeros(2), 0.5, refine_h=1e-2)
    assert abs(mass(kept) - math.pi / 4) <= 3e-2
    assert abs(mass(kept) - ball_mass(D, np.zeros(2), 0.5)) <= err
    # containing ball leaves the chain unchanged
    whole, _err = oracle.restrict_ball(D, np.zeros(2), 2.0, refine_h=1e-2)
    assert_allclose(mass(whole), mass(D))
    assert len(whole) == len(D)


def test_restrict_additive_halfspace_partition():
    D = make_flat_disk(32, n=2)
    left = restrict(D, HalfSpaceRegion(np.array([1.0, 0.0]), 0.2))
    right = restrict(D, HalfSpaceRegion(np.array([-1.0, 0.0]), -0.2))
    assert_allclose(mass(left) + mass(right), mass(D), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_restrict_halfspace_matches_the_recursive_clip(m, n, seed):
    # the stacked clip and fan split against the per-simplex recursive
    # clipper, on random m-chains in R^n; volumes by minors, as the Gram
    # determinant at vertex 0 of a thin piece is off by far more than 1e-14
    n = max(n, m)
    rng = np.random.default_rng(seed)
    T = random_chain(rng, m=m, n=n, terms=8)
    normal = rng.normal(size=n)
    normal /= np.linalg.norm(normal)
    offset = float(rng.normal(scale=0.5))
    sides = [restrict(T, HalfSpaceRegion(s * normal, s * offset)) for s in (1.0, -1.0)]
    measure = [float(side.coeff_norms() @ minor_volumes(side.verts)) for side in sides]
    whole = float(T.coeff_norms() @ minor_volumes(T.verts))
    assert sum(measure) == pytest.approx(whole, rel=1e-13)
    for got, s in zip(measure, (1.0, -1.0)):
        want = sum(
            float(w) * float(minor_volumes(piece[None])[0])
            for v, w in zip(T.verts, T.coeff_norms())
            for piece in oracle._clip_simplex_halfspace(v, s * normal, s * offset)
        )
        assert got == pytest.approx(want, rel=0, abs=1e-14 * whole)


def test_restrict_halfspace_rejects_m3():
    T = random_chain(np.random.default_rng(0), m=3, n=4, terms=2)
    with pytest.raises(NotImplementedError):
        restrict(T, HalfSpaceRegion(np.array([1.0, 0.0, 0.0, 0.0]), 0.0))


def test_restrict_disjoint_balls_additive():
    D = make_flat_disk(32, n=2)
    c1, c2 = np.array([0.5, 0.0]), np.array([-0.5, 0.0])
    h = 5e-3
    k1, e1 = oracle.restrict_ball(D, c1, 0.2, h)
    k2, e2 = oracle.restrict_ball(D, c2, 0.2, h)
    exact = ball_mass(D, c1, 0.2) + ball_mass(D, c2, 0.2)
    assert abs(mass(k1) + mass(k2) - exact) <= e1 + e2


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_ball_mass_matches_the_bisection(m, n, seed):
    # the second route: the oracle's bisection brackets the exact mass
    # within the mass of its pieces that straddle the sphere
    rng = np.random.default_rng(seed)
    T = random_chain(rng, m=m, n=n, terms=3)
    c = T.verts[0].mean(axis=0) + rng.normal(size=n) * 0.3  # near the first term
    r = float(rng.uniform(0.2, 1.5))
    kept, err = oracle.restrict_ball(T, c, r, refine_h=0.1)
    assert abs(ball_mass(T, c, r) - mass(kept)) <= err + 1e-9


@pytest.mark.parametrize("radius", [-0.5, 0.0, float("nan")])
def test_ball_integrals_reject_a_radius_that_is_not_positive(radius):
    # a negative radius once read the mass of the ball of radius |r|
    D = make_flat_disk(16)
    for call in (ball_mass, chain_ball_moments, ball_cone_bound):
        with pytest.raises(ValueError, match="radius must be positive"):
            call(D, np.zeros(3), radius)


@pytest.mark.parametrize("m", [0, 3])
def test_ball_integrals_reject_other_dimensions_whatever_the_ball(m):
    T = random_chain(np.random.default_rng(1), m=m, n=4, terms=2)
    for center in (np.zeros(4), np.full(4, 100.0)):  # near the chain and far from it
        with pytest.raises(NotImplementedError, match="m in"):
            ball_mass(T, center, 0.5)
        with pytest.raises(NotImplementedError, match="m in"):
            chain_ball_moments(T, center, 0.5)


def test_cone_over_segment():
    seg = PolyChain(2, 1, G, [(Simplex(np.array([[1.0, 0.0], [0.0, 1.0]])), ONE)])
    c = cone(np.zeros(2), seg)
    assert_allclose(mass(c), 0.5)
    assert_allclose(cone_mass_formula(np.zeros(2), seg), 0.5)


def test_cone_over_ngon_loop():
    for N in (8, 32):
        loop = ngon_loop(N)
        c = cone(np.zeros(2), loop)
        expect = N * math.sin(math.pi / N) * math.cos(math.pi / N)
        assert_allclose(mass(c), expect, rtol=1e-12)
        # polyhedral cone mass stays below half the perimeter
        assert mass(c) <= 0.5 * mass(loop) + 1e-12
        # boundary of the cone over a cycle is the cycle
        assert mass(boundary(c) - loop) == 0.0


def test_cone_of_zero_chain():
    assert cone(np.zeros(2), PolyChain(2, 1, G, [])).is_zero


def test_homogeneity_and_cone_queries():
    D = make_flat_disk(32)
    assert_allclose(mass(homogeneous_extend(D, 2.0)), 4 * mass(D), rtol=1e-12)
    assert is_cone(D)
    moved = pushforward_linear(D, np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert not is_cone(moved)


def test_boundary_squared_vanishes_on_random_chains():
    rng = np.random.default_rng(17)
    groups = [integers(), unit_discrete(), cantor(3)]
    for i in range(500):
        spec = groups[i % 3]
        m = int(rng.integers(2, 4))
        n = int(rng.integers(m, m + 3))
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            v = rng.normal(size=(m + 1, n))
            if spec.tag == "cantor":
                g = NormedCoefficient(spec, tuple(rng.integers(0, 2, 3)))
            else:
                g = NormedCoefficient(spec, int(rng.integers(-3, 4)))
            if g.is_zero:
                continue
            terms.append((Simplex(v), g))
        T = PolyChain(n, m, spec, terms)
        assert mass(boundary(boundary(T))) == 0.0


def test_slice_profile_square():
    sq = PolyChain(2, 2, G, [(TRI, ONE), (TRI2, ONE)])
    prof = slice_mass_profile(sq, (np.array([1.0, 0.0]), 0.0), np.linspace(0.05, 0.95, 10))
    for _, val in prof:
        assert_allclose(val, 1.0, atol=1e-12)
    ts = np.linspace(0.001, 0.999, 200)
    vals = [v for _, v in slice_mass_profile(sq, (np.array([1.0, 0.0]), 0.0), ts)]
    integral = np.trapezoid(vals, ts)
    assert integral <= 1.0 * mass(sq) + 1e-2  # Lip(f) = 1


def test_slice_profile_disk_chords():
    # levels offset from polygon vertices: exact alignment is a general
    # position failure of the query, not of the chain
    D = make_flat_disk(64, n=2)
    ts = np.linspace(-0.9, 0.9, 19) + 0.013
    prof = slice_mass_profile(D, (np.array([1.0, 0.0]), 0.0), ts)
    for t, val in prof:
        assert abs(val - 2 * math.sqrt(1 - t * t)) <= 2e-2


def test_slice_profile_degenerate_functional():
    seg = PolyChain(2, 1, G, [(Simplex(np.array([[0.0, 0.3], [1.0, 0.3]])), ONE)])
    with pytest.raises(ValueError):
        slice_mass_profile(seg, (np.array([0.0, 1.0]), 0.0), [0.3])


def test_ball_region_validation():
    with pytest.raises(ValueError):
        HalfSpaceRegion(np.array([2.0, 0.0]), 0.0)
