import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scalar_oracle as oracle

from gmtepi.chains import PolyChain, Simplex, ball_mass, mass
from gmtepi.generators import cone_harmonic, flat_disk, two_sheet_cantor
from gmtepi.groups import NormedCoefficient, integers
from gmtepi.mono import (
    DensityProfile,
    Gauge,
    almost_minimal_probe,
    almost_monotone_check,
    alpha0_exponent,
    alpha_m,
    decay_bound,
    gauge_integral,
    lambda_epi,
    ratio_floor,
    spherical_excess,
)

G = integers()


def test_lambda_and_alpha0_formulas():
    assert_allclose(lambda_epi(1), 47 / 48)
    assert_allclose(lambda_epi(2), 319 / 320)
    assert_allclose(alpha0_exponent(2), 1.5655589285789731e-3, rtol=1e-9)


def test_gauge_integral_power_law():
    Xi = gauge_integral(Gauge.power(1.0, 0.5), m=2)
    assert Xi.kind == "power"
    assert_allclose(Xi(0.25), 4.0 * 0.5, rtol=1e-12)  # 4 sqrt(r)
    Xi2 = gauge_integral(Gauge.power(0.3, 1.0), m=2)
    assert_allclose(Xi2(0.1), 2 * 0.3 * 0.1, rtol=1e-12)  # m c r


def test_gauge_ratio_floor_exact():
    xi = Gauge.power(1.0, 1.0)
    Xi = gauge_integral(xi, m=2)
    assert_allclose(ratio_floor(xi, 2), 2 / 3)
    r = 0.37
    assert_allclose(Xi(r) / (Xi(r) + xi(r)), 2 / 3, rtol=1e-12)


def test_tabulated_gauge_divergence_rejected():
    rs = np.geomspace(1e-4, 1.0, 32)
    with pytest.raises(ValueError):
        gauge_integral(Gauge.table(rs, np.full(32, 0.3)), m=2)


def test_spherical_excess_flat_and_cone():
    D, _ = flat_disk(128)
    prof = DensityProfile.from_chain(D, np.zeros(3), np.linspace(0.05, 0.95, 24))
    exc = spherical_excess(prof, 0.95)
    assert max(exc) <= 1e-12  # ratio is exactly constant inside the polygon
    P, _ = cone_harmonic(2, 0.08, 64)
    profc = DensityProfile.from_chain(P, np.zeros(3), np.linspace(0.05, 0.95, 24))
    excc = spherical_excess(profc, 0.95)
    assert max(excc) <= 1e-10  # cones have constant density ratio


def test_spherical_excess_drop_from_hole():
    # true annulus (strip triangulation): the density ratio at an on-chain
    # center drops once radii pass beyond the local sheet into the hole
    N = 64
    ang = 2 * np.pi * np.arange(N + 1) / N
    outer_pts = 1.2 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    inner_pts = 0.45 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    terms = []
    for i in range(N):
        a0, a1 = inner_pts[i], inner_pts[i + 1]
        b0, b1 = outer_pts[i], outer_pts[i + 1]
        for tri in (np.array([a0, b0, b1]), np.array([a0, b1, a1])):
            v = np.zeros((3, 3))
            v[:, :2] = tri
            terms.append((Simplex(v), NormedCoefficient(G, 1)))
    annulus = PolyChain(3, 2, G, terms)
    prof = DensityProfile.from_chain(annulus, np.array([0.8, 0.0, 0.0]), np.linspace(0.02, 1.0, 50))
    exc_star, _, exc_m = spherical_excess(prof, 1.0)
    assert exc_star > 0.05  # ratio drops at radii reaching into the hole
    assert exc_m >= exc_star


def test_almost_monotone_checks():
    D, _ = flat_disk(128)
    prof = DensityProfile.from_chain(D, np.zeros(3), np.linspace(0.05, 0.95, 24))
    rep = almost_monotone_check(prof, Gauge.table(np.array([1e-6, 1.0]), np.array([0.0, 0.0])))
    assert rep.ok
    # a 1% dip at mid-radius passes iff the gauge growth between the
    # neighboring grid radii absorbs it
    radii = np.linspace(0.1, 1.0, 8)
    dip = np.ones(8)
    dip[4] *= 0.99
    prof_dip = DensityProfile(np.zeros(3), radii, dip, 2)
    rep_dip = almost_monotone_check(prof_dip, gauge_integral(Gauge.power(0.1, 0.5), 2))
    assert rep_dip.ok
    rep_dip_tight = almost_monotone_check(
        prof_dip, gauge_integral(Gauge.power(0.001, 0.5), 2)
    )
    assert not rep_dip_tight.ok
    radii = np.linspace(0.1, 1.0, 30)
    falling = DensityProfile(np.zeros(3), radii, 1.0 - 0.2 * radii, 2)
    rep_bad = almost_monotone_check(falling, Gauge.table(np.array([1e-6, 1.0]), np.array([0.0, 0.0])))
    assert not rep_bad.ok
    assert rep_bad.worst_violation > 0.1


def _decay_family(beta, theta=1.0, m=2, c=0.1, n=200):
    lam = lambda_epi(m)
    xi = Gauge.power(c, beta)
    eta_star = 1.0 / math.sqrt(lam) - 1.0
    r0 = (0.8 * eta_star / c) ** (1.0 / beta)
    radii = np.geomspace(r0 / 100.0, r0, n)
    f = theta * alpha_m(m) * radii**m * (1.0 + radii**beta)
    return radii, f, theta * alpha_m(m), xi, lam


def test_decay_bound_family_passes():
    for beta in (0.25, 0.5, 1.0):
        radii, f, theta, xi, lam = _decay_family(beta)
        rep = decay_bound(radii, f, theta, xi, lam, m=2)
        assert all(rep.hypotheses.values()), rep.hypotheses
        assert float(np.min(rep.slack)) > 0
        assert rep.ok


def test_decay_bound_exact_cone_case():
    # f = theta r^m satisfies the inequality with margin; conclusion holds
    lam = lambda_epi(2)
    xi = Gauge.power(0.05, 1.0)
    radii = np.geomspace(1e-4, 1e-2, 100)
    theta = math.pi
    f = theta * radii**2
    rep = decay_bound(radii, f, theta, xi, lam, m=2)
    assert all(rep.hypotheses.values())
    assert float(np.min(rep.slack)) > 0


def test_decay_bound_gate_on_bad_family():
    lam = lambda_epi(2)
    xi = Gauge.power(0.05, 1.0)
    radii = np.geomspace(1e-4, 1e-2, 60)
    f = math.pi * radii**1.0  # grows like r^{m/2}: differential inequality fails
    rep = decay_bound(radii, f, math.pi, xi, lam, m=2)
    assert not rep.hypotheses["diff_ineq"]
    assert rep.failing_radius is not None


def test_decay_slack_monotone_in_beta():
    mins = []
    for beta in (0.25, 0.5, 1.0):
        lam = lambda_epi(2)
        xi = Gauge.power(0.1, 0.25)  # fixed gauge exponent alpha = 0.25
        r0 = (0.8 * (1 / math.sqrt(lam) - 1) / 0.1) ** 4
        radii = np.geomspace(r0 / 50, r0, 120)
        f = math.pi * radii**2 * (1.0 + radii**beta)
        rep = decay_bound(radii, f, math.pi, xi, lam, m=2)
        # normalized slack at the smallest radius grows with beta
        mins.append(rep.slack[0] / rep.rhs[0])
    assert mins[0] < mins[1] < mins[2]


def test_probe_flat_disk_not_refuted():
    D, _ = flat_disk(128)
    rep = almost_minimal_probe(D, np.zeros(3), 0.6, [], Gauge.power(0.1, 1.0))
    assert rep.verdict == "not refuted"
    assert abs(rep.worst_ratio - 1.0) <= 1e-12


def _tent_and_flat():
    """The 64-gon fan of radius 1.2 with its centre raised to height 0.4,
    and the flat fan over the same rim."""
    ang = 2 * np.pi * np.arange(65) / 64
    pts = 1.2 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tent_terms, flat_terms = [], []
    for i in range(64):
        v = np.zeros((3, 3))
        v[0] = [0.0, 0.0, 0.4]
        v[1, :2] = pts[i]
        v[2, :2] = pts[i + 1]
        tent_terms.append((Simplex(v), NormedCoefficient(G, 1)))
        w = v.copy()
        w[0, 2] = 0.0
        flat_terms.append((Simplex(w), NormedCoefficient(G, 1)))
    return PolyChain(3, 2, G, tent_terms), PolyChain(3, 2, G, flat_terms)


def test_probe_detects_tent_with_flat_competitor():
    # a raised-center disk pays extra mass against its flat replacement
    tent, flat = _tent_and_flat()
    competitor = flat - tent  # a cycle: both fill the same rim loop
    rep = almost_minimal_probe(tent, np.zeros(3), 1.4, [competitor], Gauge.power(0.01, 1.0))
    assert rep.verdict == "refuted"
    assert rep.worst_ratio > 1.03
    # the ball holds the whole tent, so the cone from the origin over its
    # rim is the flat fan again
    assert rep.ratios == pytest.approx([mass(tent) / mass(flat)] * 2, rel=1e-12)


@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.8, 0.0, 0.0]], ids=["centre", "lens"])
def test_probe_reads_one_on_a_flat_disk(x):
    # T in the ball is a convex plane region that holds x, which is the
    # cone from x over its boundary: arcs of the sphere and, off centre,
    # rim chords
    D = flat_disk(256)[0]
    rep = almost_minimal_probe(D, np.array(x), 0.6, [], Gauge.power(0.1, 1.0))
    assert rep.verdict == "not refuted"
    assert rep.ratios == pytest.approx([1.0], rel=0, abs=1e-12)


@pytest.mark.parametrize("r", [0.5, 0.9])
def test_probe_reads_one_at_a_cone_apex(r):
    # a cone in a ball about its apex is the cone over its slice
    T = cone_harmonic(2, 0.05, 256)[0]
    rep = almost_minimal_probe(T, np.zeros(3), r, [], Gauge.power(0.1, 1.0))
    assert rep.verdict == "not refuted"
    assert rep.ratios == pytest.approx([1.0], rel=0, abs=1e-12)


def _polyline(points):
    pts = np.asarray(points, dtype=float)
    return PolyChain(2, 1, G, [(Simplex(pts[i : i + 2]), NormedCoefficient(G, 1)) for i in range(len(pts) - 1)])


@pytest.mark.parametrize("points", [
    [[-1.0, 0.0], [0.2, 0.0]],
    [[-1.0, 0.0], [-0.5, 0.0], [0.2, 0.0]],  # a vertex on the sphere
    [[-1.0, 0.0], [-0.3, 0.0], [0.1, 0.0], [0.2, 0.0]],
    [[0.9, 0.7], [0.0, 0.0], [-0.8, 0.4]],  # a cone at x
], ids=["segment", "vertex-on-sphere", "three-pieces", "corner"])
def test_probe_reads_one_on_a_one_chain_star_shaped_from_x(points):
    # T in B(0, 0.5) is the cone from 0 over its crossings with the sphere
    # and its ends in the ball, each point counted once
    rep = almost_minimal_probe(_polyline(points), np.zeros(2), 0.5, [], Gauge.power(0.1, 1.0))
    assert rep.ratios == pytest.approx([1.0], rel=0, abs=1e-12)


def test_probe_refutes_the_tent_off_its_apex():
    # the ball about a point on a tent face holds the apex and no rim: the
    # cone over the slice arcs beats the tent
    tent, _flat = _tent_and_flat()
    x, r = np.array([0.3, 0.0, 0.3]), 0.5
    rep = almost_minimal_probe(tent, x, r, [], Gauge.power(0.01, 1.0))
    assert rep.verdict == "refuted"
    assert rep.ratios == pytest.approx([1.0220658640401992], rel=1e-12)
    # the same ratio from arc lengths sampled at 2^14 angles per circle
    arcs = oracle.sampled_arc_lengths(tent.verts, x, r, 2**14)
    assert rep.ratios[0] == pytest.approx(ball_mass(tent, x, r) / (0.5 * r * arcs.sum()), rel=1e-3)


def test_probe_rejects_a_competitor_beyond_the_ball():
    D = flat_disk(64)[0]
    x, r = np.array([0.1, 0.0, 0.0]), 0.5
    xi = Gauge.power(0.1, 1.0)
    tip = np.array([0.0, 0.0, 1.0])

    def tetra(scale):
        # the boundary of a tetrahedron: a 2-cycle with a vertex x + scale r tip
        v = np.array([x + scale * r * tip, x + [0.2, 0.0, 0.0], x + [0.0, 0.2, 0.0], x + [-0.1, -0.1, 0.0]])
        faces = [(v[[1, 2, 3]], 1), (v[[0, 2, 3]], -1), (v[[0, 1, 3]], 1), (v[[0, 1, 2]], -1)]
        return PolyChain(3, 2, G, [(Simplex(f), NormedCoefficient(G, c)) for f, c in faces])

    assert len(almost_minimal_probe(D, x, r, [tetra(1.0)], xi).ratios) == 2
    with pytest.raises(ValueError, match="leaves the ball"):
        almost_minimal_probe(D, x, r, [tetra(1.0 + 1e-6)], xi)


def test_probe_two_sheet_generator_with_metadata_gauge():
    T, meta = two_sheet_cantor(2, 24, 0.1)
    # coarse curvature bound of the bumps gives a linear modulus with a
    # generous constant; the cone competitor must not refute it
    xi = Gauge.power(5.0, 1.0)
    g1 = [g for g in meta["gaps"] if g["level"] == 1][0]
    x = np.array([g1["center"], 0.0])
    rep = almost_minimal_probe(T, x, 0.05, [], xi)
    assert rep.verdict == "not refuted"


def test_density_ratio_cauchy_on_smooth_point():
    T, meta = two_sheet_cantor(2, 24, 0.1)
    g1 = [g for g in meta["gaps"] if g["level"] == 1][0]
    x = np.array([g1["center"], float(g1["coef"] * math.exp(-1.0))])
    radii = np.geomspace(2e-4, 2e-3, 20)
    prof = DensityProfile.from_chain(T, x, radii)
    tail = prof.values[:10]
    assert np.max(tail) - np.min(tail) <= 5e-3


def test_gauge_integral_tabulated_matches_power():
    rs = np.geomspace(1e-5, 1.0, 400)
    xi_tab = Gauge.table(rs, 0.5 * np.sqrt(rs))
    Xi_tab = gauge_integral(xi_tab, m=2)
    Xi_pow = gauge_integral(Gauge.power(0.5, 0.5), m=2)
    for r in (0.01, 0.1, 0.9):
        assert abs(Xi_tab(r) - Xi_pow(r)) <= 0.01 * Xi_pow(r)


@pytest.mark.parametrize("center,radii,reason", [
    ([math.nan, 0.0, 0.0], [0.1, 0.2], "centre must be finite"),
    ([0.0, 0.0], [0.1, 0.2], r"centre must have shape \(3,\)"),
    ([0.0, 0.0, 0.0], [0.1, math.inf], "radii must be a list of finite"),
    ([0.0, 0.0, 0.0], [], "radii must be a list of finite"),
    ([0.0, 0.0, 0.0], [[0.1, 0.2]], "radii must be a list of finite"),
])
def test_a_profile_refuses_bad_input(center, radii, reason):
    # a NaN centre used to give a profile of zeros
    with pytest.raises(ValueError, match=reason):
        DensityProfile.from_chain(flat_disk(16)[0], center, radii)


@pytest.mark.parametrize("x,r,reason", [
    ([math.nan, 0.0, 0.0], 0.5, "centre must be finite"),
    ([0.0, 0.0, 0.0, 0.0], 0.5, r"centre must have shape \(3,\)"),
    ([0.0, 0.0, 0.0], -0.5, "radius must be finite and positive"),
    ([0.0, 0.0, 0.0], math.inf, "radius must be finite and positive"),
])
def test_a_probe_refuses_bad_input(x, r, reason):
    # at a NaN centre the probe used to answer "not refuted"
    with pytest.raises(ValueError, match=reason):
        almost_minimal_probe(flat_disk(16)[0], x, r, [], Gauge.power(0.1, 1.0))
