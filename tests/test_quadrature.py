import math
from fractions import Fraction

import numpy as np
from numpy.testing import assert_allclose

import scalar_oracle as oracle

from gmtepi.chains import PolyChain, Simplex
from gmtepi.groups import NormedCoefficient, integers
from gmtepi.quadrature import (
    _disk_clip,
    disk_polygon_area,
    integrate_over_simplex,
    simplex_ball_mass,
    simplex_ball_moments,
    simplex_volume,
    trig_monomial_integral,
)


def bary_monomial_exact(exponents):
    """``int over the standard simplex of prod lambda_i^{a_i}`` exactly."""
    m = len(exponents) - 1
    num = Fraction(math.factorial(m))
    for a in exponents:
        num *= math.factorial(a)
    return num / math.factorial(sum(exponents) + m)


def test_rules_exact_on_barycentric_monomials():
    rng = np.random.default_rng(3)
    for m in (1, 2):
        verts = rng.normal(size=(m + 1, m))
        vol = simplex_volume(verts)
        for _ in range(20):
            exps = rng.integers(0, 3, m + 1)
            if exps.sum() > 5:
                continue

            def f(pts):
                # barycentric coordinates of pts in this simplex
                T = np.column_stack([verts[i + 1] - verts[0] for i in range(m)])
                lam = np.linalg.solve(T, (pts - verts[0]).T).T
                lam0 = 1 - lam.sum(axis=1)
                out = lam0 ** exps[0]
                for i in range(m):
                    out = out * lam[:, i] ** exps[i + 1]
                return out

            got = integrate_over_simplex(f, verts)
            # bary_monomial_exact is normalized to a unit-volume simplex
            want = float(bary_monomial_exact(list(exps))) * vol
            assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_trig_integral_against_quadrature():
    rng = np.random.default_rng(4)
    grid = np.linspace(0, 1, 20001)
    for _ in range(25):
        a, b = rng.integers(0, 5, 2)
        phi0 = rng.uniform(-3, 3)
        dphi = rng.uniform(-2, 2)
        ts = phi0 + dphi * grid
        vals = np.cos(ts) ** a * np.sin(ts) ** b
        want = np.trapezoid(vals, ts)
        got = trig_monomial_integral(int(a), int(b), phi0, dphi)
        assert_allclose(got, want, atol=5e-9)


def test_disk_polygon_area_special_cases():
    big = np.array([[-9.0, -9.0], [9.0, -9.0], [9.0, 9.0], [-9.0, 9.0]])
    assert_allclose(disk_polygon_area(big, np.zeros(2), 1.0), math.pi, rtol=1e-14)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert_allclose(disk_polygon_area(tri, np.zeros(2), 5.0), 0.5, rtol=1e-14)
    # clockwise orientation flips the sign
    assert_allclose(disk_polygon_area(tri[::-1], np.zeros(2), 5.0), -0.5, rtol=1e-14)


def test_disk_monomials_on_full_disk():
    big = np.array([[-9.0, -9.0], [9.0, -9.0], [9.0, 9.0], [-9.0, 9.0]])
    M = _disk_clip(big[None], np.array([1.0]), moments=True)[0]
    assert_allclose(M[0, 0], math.pi, rtol=1e-13)
    assert_allclose(M[2, 0], math.pi / 4, rtol=1e-13)
    assert_allclose(M[4, 0], math.pi / 8, rtol=1e-13)
    assert_allclose(M[2, 2], math.pi / 24, rtol=1e-13)
    assert abs(M[1, 0]) < 1e-14 and abs(M[3, 0]) < 1e-13


def test_disk_moments_are_exactly_mirror_symmetric():
    # y -> -y reverses the orientation and multiplies x^a y^b by (-1)^b;
    # every step of the moment clip commutes with it exactly
    rng = np.random.default_rng(11)
    poly = rng.normal(size=(4000, 3, 2)) * 0.8
    rho = 0.2 + rng.random(4000)
    M = _disk_clip(poly, rho, moments=True)
    mirrored = _disk_clip(poly * np.array([1.0, -1.0]), rho, moments=True)
    sign = -((-1.0) ** np.arange(5))
    assert np.array_equal(mirrored, sign * M)


def test_disk_polygon_area_monte_carlo():
    rng = np.random.default_rng(7)
    for _ in range(8):
        tri = rng.normal(size=(3, 2)) * 1.3
        c = rng.normal(size=2) * 0.4
        R = 0.4 + rng.random()
        exact = disk_polygon_area(tri, c, R)
        N = 200_000
        b1, b2 = rng.random(N), rng.random(N)
        flip = b1 + b2 > 1
        b1[flip], b2[flip] = 1 - b1[flip], 1 - b2[flip]
        P = tri[0] + np.outer(b1, tri[1] - tri[0]) + np.outer(b2, tri[2] - tri[0])
        frac = np.mean(np.linalg.norm(P - c, axis=1) <= R)
        e1 = tri[1] - tri[0]
        e2 = tri[2] - tri[0]
        signed_area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
        assert abs(exact - signed_area * frac) <= 6e-3 * max(abs(signed_area), 0.1)


def test_ball_moments_dual_route():
    """Closed-form moments against the independent bisect-and-quadrature route."""
    rng = np.random.default_rng(9)
    G = integers()
    one = NormedCoefficient(G, 1)
    for _ in range(6):
        verts = rng.normal(size=(3, 3)) * 1.2
        c = rng.normal(size=3) * 0.4
        R = 0.6 + 0.5 * rng.random()
        bm = simplex_ball_moments(verts, c, R)
        chain = PolyChain(3, 2, G, [(Simplex(verts), one)])
        kept, err = oracle.restrict_ball(chain, c, R, refine_h=2e-2)
        s0 = t2 = 0.0
        s1 = np.zeros(3)
        for simplex, _ in kept.terms:
            s0 += simplex.volume
            s1 += integrate_over_simplex(lambda p: p[:, 0] - c[0], simplex.vertices) * np.array([1.0, 0, 0])
            s1 += integrate_over_simplex(lambda p: p[:, 1] - c[1], simplex.vertices) * np.array([0, 1.0, 0])
            s1 += integrate_over_simplex(lambda p: p[:, 2] - c[2], simplex.vertices) * np.array([0, 0, 1.0])
            t2 += integrate_over_simplex(
                lambda p: np.einsum("ij,ij->i", p - c, p - c), simplex.vertices
            )
        tol = 3 * err + 1e-9
        assert abs(bm.s0 - s0) <= tol
        assert np.linalg.norm(bm.s1 - s1) <= 2 * tol
        assert abs(bm.t2 - t2) <= 2 * tol


def test_segment_ball_mass_chord():
    seg = np.array([[-2.0, 0.3], [2.0, 0.3]])
    got = simplex_ball_mass(seg, np.zeros(2), 0.5)
    assert_allclose(got, 2 * math.sqrt(0.25 - 0.09), rtol=1e-12)
