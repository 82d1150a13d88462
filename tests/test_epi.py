import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from gmtepi.chains import PolyChain, Simplex, boundary, mass
from gmtepi.epi import (
    EpiConfig,
    StageError,
    annulus_interpolate,
    averaged_graph,
    build_comparison,
    circle_gradient_energy_ratio,
    mollified_graph,
    mollified_unit_curve,
    trace_and_split,
)
from gmtepi.generators import cone_harmonic, flat_disk, tilted_cone
from gmtepi.groups import NormedCoefficient, cantor, integers
from gmtepi.layers import decompose_layers
from gmtepi.mono import lambda_epi
from gmtepi.planes import OrientedPlane, align_in_plane_orientation

from conftest import make_graph_disk

G = integers()
V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_lambda_formula_not_hardcoded():
    assert_allclose(lambda_epi(1), (2 * 1 + 1 - 4.0**-2) / (2 * 1 + 1))
    assert_allclose(lambda_epi(1), 47 / 48)
    assert_allclose(lambda_epi(2), 319 / 320)


def test_averaged_graph_single_layer():
    d = decompose_layers(make_graph_disk(32, lambda p: 0.1 * p[0], R=1.3), V)
    avg = averaged_graph(d)
    x = np.array([0.3, -0.2])
    assert_allclose(avg.eval(x), [0.1 * 0.3], atol=1e-13)


def test_averaged_graph_symmetric_layers_cancel():
    a = 0.25
    T = make_graph_disk(24, lambda p: a, R=1.3) + make_graph_disk(24, lambda p: -a, R=1.3)
    d = decompose_layers(T, V)
    avg = averaged_graph(d)
    assert_allclose(avg.eval(np.array([0.2, 0.1])), [0.0], atol=1e-14)


def test_averaged_graph_cantor_weights():
    # layers +a with norm 1/3 and -a with norm 1/9: weighted mean a/2
    spec = cantor(3)
    g13 = NormedCoefficient(spec, (1, 0, 0))
    g19 = NormedCoefficient(spec, (0, 1, 0))
    a = 0.2

    def disk(height, coeff):
        ang = 2 * np.pi * np.arange(25) / 24
        pts = 1.3 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        terms = []
        for i in range(24):
            v = np.zeros((3, 3))
            v[0, 2] = height
            v[1, :2], v[1, 2] = pts[i], height
            v[2, :2], v[2, 2] = pts[i + 1], height
            terms.append((Simplex(v), coeff))
        return terms

    T = PolyChain(3, 2, spec, disk(a, g13) + disk(-a, g19))
    d = decompose_layers(T, V)
    avg = averaged_graph(d)
    want = a * (1 / 3 - 1 / 9) / (1 / 3 + 1 / 9)
    assert_allclose(avg.eval(np.array([0.1, 0.2])), [want], atol=1e-13)


def test_mollify_exact_on_affine():
    d = decompose_layers(make_graph_disk(32, lambda p: 0.07 * p[0] - 0.03 * p[1], R=1.4), V)
    v = mollified_graph(averaged_graph(d), rho=0.1)
    # exact at the sampled angles; between them the angular interpolation
    # adds its own O(dtheta^2) term
    a0 = v.angles[7]
    assert_allclose(v.eval_unit(a0), [0.07 * math.cos(a0) - 0.03 * math.sin(a0)], atol=1e-12)
    x = np.array([0.6, 0.2])
    assert_allclose(v.eval(x), [0.07 * 0.6 - 0.03 * 0.2], atol=2e-5)
    # constants are also reproduced exactly at unit radius
    d2 = decompose_layers(make_graph_disk(32, lambda p: 0.05, R=1.4), V)
    v2 = mollified_graph(averaged_graph(d2), rho=0.1)
    assert_allclose(v2.eval_unit(0.3), [0.05], atol=1e-12)


def test_mollify_smooths_harmonic_cone_quadratically():
    P, _ = cone_harmonic(2, 0.05, 256)
    sups = []
    for rho in (0.1, 0.2):
        curve, decomp, v = mollified_unit_curve(P, V, rho=rho)
        ang = v.angles
        vals = np.array([v.eval_unit(a)[0] for a in ang])
        exact = 0.05 * np.cos(2 * ang)
        sups.append(float(np.max(np.abs(vals - exact))))
    assert sups[0] <= 0.05 * 0.1**2 * 4  # O(rho^2) smoothing error
    assert sups[1] / sups[0] > 2.0  # roughly quadratic growth in rho


def test_mollify_height_gate():
    d = decompose_layers(make_graph_disk(32, lambda p: 0.5 * p[0], R=1.4), V)
    with pytest.raises(StageError):
        mollified_graph(averaged_graph(d), rho=0.05)


def test_annulus_blend_endpoints():
    P, _ = cone_harmonic(2, 0.05, 64)
    curve, decomp, v = mollified_unit_curve(P, V)
    blend = annulus_interpolate(decomp, v)
    dom_dir = decomp.domains[0, 1] / np.linalg.norm(decomp.domains[0, 1])
    x_in = 0.5 * dom_dir
    x_out = 0.75 * dom_dir
    assert_allclose(blend.z(0, x_in), v.eval(x_in), atol=1e-12)
    assert_allclose(blend.z(0, x_out), decomp.A[0] @ x_out + decomp.b[0], atol=1e-12)


def test_annulus_blend_mass_slack():
    P, _ = cone_harmonic(2, 0.05, 128)
    curve, decomp, v = mollified_unit_curve(P, V)
    blend = annulus_interpolate(decomp, v, divisions=10)
    eps = 0.05**2 * (1 + 4) / 4 * math.pi  # measured-scale excess bound
    rho = 0.05
    slack = blend.mass_blend - blend.mass_original
    # blending may only add the documented sqrt(rho)-order sliver of excess
    assert slack <= 2.0 * math.sqrt(rho) * eps + 1e-6
    # and the per-construction identity: blends equal the layers at 3/4
    assert blend.mass_blend > 0


def test_trace_zero_map():
    d = decompose_layers(make_graph_disk(64, lambda p: 0.0, R=1.4), V)
    v = mollified_graph(averaged_graph(d), rho=0.1)
    from gmtepi.epi import _unit_curve

    curve = _unit_curve(d, v)
    tr = trace_and_split(curve, V, cutoff=8)
    assert np.max(np.abs(tr.samples)) <= 1e-12
    assert tr.w1_sup <= 1e-12
    assert tr.cone_energy() <= 1e-20


def test_trace_pure_mode_coefficients():
    P, _ = cone_harmonic(2, 0.04, 256)
    curve, decomp, v = mollified_unit_curve(P, V, rho=0.05)
    tr = trace_and_split(curve, V, cutoff=8)
    # the k = 2 cosine coefficient carries the amplitude; k = 1 is empty
    assert_allclose(tr.coeff_cos[2, 0], 0.04, rtol=5e-3)
    assert tr.w1_sup <= 1e-6
    # L2 mass of the mode: pi a^2
    assert_allclose(tr.mode_l2_sq(2), math.pi * 0.04**2, rtol=1e-2)


def test_plane_selection_kills_linear_mode():
    from gmtepi.epi import _cone_chain
    from gmtepi.moments import quad_form, select_plane

    P, _ = tilted_cone(0.1, 256)
    curve, decomp, v = mollified_unit_curve(P, V)
    tr_base = trace_and_split(curve, V, cutoff=8)
    Tv = _cone_chain(curve, decomp.g0, 3, span=1.6)
    W, _ = select_plane(quad_form(Tv, np.zeros(3), 1.0), 2)
    W = align_in_plane_orientation(W, V)
    tr_spec = trace_and_split(curve, W, cutoff=8)
    assert tr_base.w1_sup == pytest.approx(0.1, rel=1e-3)
    assert tr_spec.w1_sup <= 0.05 * tr_base.w1_sup


def test_degree2_energy_formulas():
    # single mode cos(k theta) of L2 mass pi a^2: cone (pi a^2/2)(1+k^2),
    # degree-2 extension (pi a^2/4)(4+k^2); at k = 2 the ratio is 4/5
    N = 256
    m = 2
    for k in (2, 3, 4):
        a = 0.03
        curve = np.zeros((N, 3))
        ang = 2 * math.pi * np.arange(N) / N
        curve[:, 0] = np.cos(ang)
        curve[:, 1] = np.sin(ang)
        curve[:, 2] = a * np.cos(k * ang)
        tr = trace_and_split(curve, V, cutoff=8)
        assert_allclose(tr.cone_energy(), math.pi * a * a / 2 * (1 + k * k), rtol=1e-6)
        assert_allclose(tr.h_energy(), math.pi * a * a / 4 * (4 + k * k), rtol=1e-6)
        ratio = tr.h_energy() / tr.cone_energy()
        per_mode = (4 + k * k) * m / ((m + 2) * (1 + k * (m + k - 2)))
        assert_allclose(ratio, per_mode, rtol=1e-6)
        assert ratio <= 4 / 5 + 1e-12
    # constant trace: zero extension energy
    flatc = np.zeros((N, 3))
    flatc[:, 0] = np.cos(ang)
    flatc[:, 1] = np.sin(ang)
    flatc[:, 2] = 0.02
    trc = trace_and_split(flatc, V, cutoff=8)
    assert trc.h_energy() <= 1e-18


def test_degree2_mixed_modes_below_best():
    N = 256
    ang = 2 * math.pi * np.arange(N) / N
    curve = np.zeros((N, 3))
    curve[:, 0] = np.cos(ang)
    curve[:, 1] = np.sin(ang)
    curve[:, 2] = 0.02 * np.cos(2 * ang) + 0.015 * np.cos(3 * ang)
    tr = trace_and_split(curve, V, cutoff=8)
    assert tr.h_energy() / tr.cone_energy() <= 4 / 5 + 1e-12


def test_m1_trace_even_odd_split():
    plane = OrientedPlane(np.array([[1.0, 0.0]]))
    curve = np.array([[1.0, 0.3], [-1.0, 0.1]])
    tr = trace_and_split(curve, plane, cutoff=4)
    assert_allclose(tr.w0, [0.2], atol=1e-14)
    assert_allclose(tr.w1_sup, 0.1, rtol=1e-12)
    assert_allclose(tr.cone_energy(), 0.3**2 + 0.1**2, rtol=1e-12)
    assert_allclose(tr.h_energy(), (4.0 / 3.0) * 2 * 0.1**2, rtol=1e-12)


def test_build_comparison_flat_disk_degenerate():
    # extend the flat fan beyond the doubled cylinder so the boundary gate holds
    disk = make_graph_disk(64, lambda p: 0.0, R=2.05)
    # the strict gate passes too: eps is at most rho^(6m) = 0
    for strict in (False, True):
        _s, rep = build_comparison(disk, EpiConfig(strict_flatness=strict))
        assert rep.degenerate and rep.strict_flatness == strict
        assert rep.ratio_zone is None and rep.ratio_full is None


def test_strict_flatness_refuses_a_cone_above_rho_to_the_6m():
    # eps ~ 9.8e-3 against rho^12 = 0.05^12 ~ 2.4e-16
    with pytest.raises(StageError, match="strict flatness") as info:
        build_comparison(cone_harmonic(2, 0.05, 64)[0], EpiConfig(strict_flatness=True))
    assert info.value.stage == "assumptions"
    assert info.value.measured == pytest.approx(9.766e-3, rel=1e-3)
    assert info.value.bound == pytest.approx(0.05**12, rel=1e-12)


def test_build_comparison_harmonic_cone_small():
    P, meta = cone_harmonic(2, 0.05, 128)
    S, rep = build_comparison(P)
    assert rep.ratio_zone <= rep.lambda_theory
    assert rep.ratio_full <= rep.lambda_theory
    assert abs(rep.ratio_zone - 0.8) <= 0.05
    assert abs(rep.exc_P - meta["excess_small_amplitude"]) <= 0.05 * meta["excess_small_amplitude"]
    assert rep.boundary_defect <= 1e-3 * mass(P)
    assert rep.energy_ratio == pytest.approx(0.8, abs=1e-3)
    # S is a genuine chain with comparable mass inside the cylinder
    assert not S.is_zero


def test_build_comparison_amplitude_doubling_fixes_ratio():
    r1 = build_comparison(cone_harmonic(2, 0.02, 128)[0])[1]
    r2 = build_comparison(cone_harmonic(2, 0.04, 128)[0])[1]
    assert abs(r2.exc_P / r1.exc_P - 4.0) <= 0.1  # quadratic excess scaling
    assert abs(r1.ratio_zone - r2.ratio_zone) <= 0.02


def test_build_comparison_cone_in_r4_matches_r3():
    # the same cone with a zero fourth coordinate: codimension two, so the
    # zone excess goes through the layer decomposition, not the graph path
    P3 = cone_harmonic(2, 0.04, 64)[0]
    P4 = cone_harmonic(2, 0.04, 64, n=4)[0]
    r3 = build_comparison(P3)[1]
    r4 = build_comparison(P4)[1]
    for name in ("ratio_zone", "ratio_full", "exc_P_zone", "exc_S_zone"):
        assert getattr(r4, name) == pytest.approx(getattr(r3, name), rel=1e-9)


def test_build_comparison_stable_under_mollifier_nudge(monkeypatch):
    # harmonic cones are isotropic in the plane, so the top eigenvalues of
    # the mollified cone's form agree to rounding; W's in-plane frame (and
    # the trace grid laid out in it) must not follow that rounding
    import dataclasses

    from gmtepi import epi

    P = cone_harmonic(3, 0.04, 64)[0]
    ref = build_comparison(P)[1]
    plain = epi.mollified_graph

    def nudged(*args, **kwargs):
        v = plain(*args, **kwargs)
        v.values = v.values * (1.0 + 1e-15)
        return v

    monkeypatch.setattr(epi, "mollified_graph", nudged)
    rep = build_comparison(P)[1]
    for f in dataclasses.fields(rep):
        want = getattr(ref, f.name)
        if f.name in ("w1_sup", "plane_drift") or not isinstance(want, float):
            continue  # those two are rounding noise around zero
        assert getattr(rep, f.name) == pytest.approx(want, rel=1e-12, abs=0), f.name


def test_build_comparison_stage_gates():
    moved = make_graph_disk(16, lambda p: 0.0, R=2.05)
    from gmtepi.chains import pushforward_linear

    off = pushforward_linear(moved, np.eye(3), np.array([0.6, 0.0, 0.0]))
    with pytest.raises(StageError):
        build_comparison(off)


@pytest.mark.parametrize("N", [6, 8, 12])
def test_boundary_gate_measures_the_segments(N):
    # every boundary vertex sits at 2.05, but the far edges between them
    # come within 2.05 cos(pi/N) < 2 of the axis; the 64-ray cone of
    # test_build_comparison_cone_in_r4_matches_r3 clears the gate
    with pytest.raises(StageError, match=r"boundary clearance 1\.\d+ <= bound 2") as info:
        build_comparison(cone_harmonic(2, 0.04, N)[0])
    assert info.value.stage == "assumptions"


def test_dist_to_v_and_derivative_bounds():
    # the mollified graph stays within c rho^2 eps of the layers in L2 and
    # its gradient stays below c eps^(1/3)
    eps0 = 0.05
    P, meta = cone_harmonic(2, eps0, 128)
    curve, decomp, v = mollified_unit_curve(P, V)
    eps = meta["excess_small_amplitude"] / math.pi  # normalized excess scale
    rho = v.rho
    avg = averaged_graph(decomp)
    rng = np.random.default_rng(3)
    total = 0.0
    count = 0
    grads = []
    for _ in range(200):
        x = rng.normal(size=2)
        x = x / np.linalg.norm(x) * rng.uniform(0.2, 1.0)
        dv = v.eval(x) - avg.eval(x)
        total += float(dv @ dv)
        count += 1
        h = 1e-5
        gx = (v.eval(x + [h, 0]) - v.eval(x - [h, 0])) / (2 * h)
        gy = (v.eval(x + [0, h]) - v.eval(x - [0, h])) / (2 * h)
        grads.append(math.hypot(float(gx[0]), float(gy[0])))
    mean_sq = total / count * math.pi  # crude disk integral
    c_measured = mean_sq / (rho * rho * eps)
    assert c_measured <= 50.0  # the L2 closeness constant stays small
    assert max(grads) <= 10.0 * eps ** (1 / 3)


def test_homogeneous_average_inequality():
    # triple-integral averaging of a 0-homogeneous integrand is controlled
    # by rho times its disk integral
    rng = np.random.default_rng(5)
    rho = 0.2
    m = 2

    def f(pts):
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        return 1.0 + 0.5 * np.cos(2 * ang)

    N = 40_000
    x = rng.normal(size=(N, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= np.sqrt(rng.random((N, 1)))  # uniform in the unit disk
    offs = rng.normal(size=(N, 2))
    offs /= np.linalg.norm(offs, axis=1, keepdims=True)
    radii = np.linalg.norm(x, axis=1, keepdims=True)
    xp = x + offs * np.sqrt(rng.random((N, 1))) * rho * radii
    ts = rng.random((N, 1))
    z = x + ts * (xp - x)
    seg_len = np.linalg.norm(xp - x, axis=1)
    # E over x uniform-disk of [ rho^-m |x|^-m * (ball avg) * segment length ]
    vals = f(z) * seg_len * math.pi * (rho * radii[:, 0]) ** m / (rho**m * radii[:, 0] ** m)
    lhs = math.pi * float(np.mean(vals))
    disk_integral = math.pi * 1.0  # mean of f over the disk is 1
    c = lhs / (rho * disk_integral)
    assert c <= 2 ** (m + 1) * math.pi  # the stated constant for m = 2


def test_distance_estimate_along_paths():
    # |y(x1) - y(x2)| <= path integral of the layer gradient norms
    P, _ = cone_harmonic(2, 0.06, 64)
    d = decompose_layers(P, V)
    avg = averaged_graph(d)
    rng = np.random.default_rng(9)
    for _ in range(40):
        x1 = rng.normal(size=2)
        x1 = x1 / np.linalg.norm(x1) * rng.uniform(0.3, 0.95)
        x2 = rng.normal(size=2)
        x2 = x2 / np.linalg.norm(x2) * rng.uniform(0.3, 0.95)
        y1, y2 = avg.eval(x1), avg.eval(x2)
        ts = np.linspace(0, 1, 200)
        seg = np.linalg.norm(x2 - x1)
        acc = 0.0
        for t0, t1 in zip(ts[:-1], ts[1:]):
            mid = x1 + 0.5 * (t0 + t1) * (x2 - x1)
            mask = avg._masks(mid[None])[0]
            norms = [np.linalg.norm(avg._A[i]) for i in np.nonzero(mask)[0]]
            acc += max(norms) * seg * (t1 - t0) if norms else 0.0
        assert np.linalg.norm(y1 - y2) <= acc + 1e-9


def test_circle_energy_identity():
    th = 2 * np.pi * np.arange(512) / 512
    for k in (1, 2, 3, 4):
        assert abs(circle_gradient_energy_ratio(np.cos(k * th)) - k * k) <= 1e-6


def test_build_comparison_m1_kinked_line():
    # a kinked pair of rays: the two-point split removes the odd mode via
    # plane selection and the even mode via the centered extension, so the
    # replacement zone becomes exactly flat
    one = NormedCoefficient(G, 1)
    terms = [
        (Simplex(np.array([[0.0, 0.0], [2.05, 2.05 * 0.05]])), one),
        (Simplex(np.array([[-2.05, 2.05 * 0.03], [0.0, 0.0]])), one),
    ]
    P = PolyChain(2, 1, G, terms)
    S, rep = build_comparison(P)
    assert rep.m == 1
    assert rep.lambda_theory == pytest.approx(47 / 48)
    assert not rep.degenerate
    assert rep.w1_sup <= 1e-12            # the spectral line removes the tilt
    assert rep.ratio_zone <= 1e-9         # flat replacement in the zone
    assert rep.ratio_full <= rep.lambda_theory
    assert rep.boundary_defect <= 1e-3 * mass(P)


def test_build_comparison_m1_straight_line_degenerate():
    one = NormedCoefficient(G, 1)
    tilt = 0.08
    terms = [
        (Simplex(np.array([[0.0, 0.0], [2.05, 2.05 * tilt]])), one),
        (Simplex(np.array([[-2.05, -2.05 * tilt], [0.0, 0.0]])), one),
    ]
    P = PolyChain(2, 1, G, terms)
    _s, rep = build_comparison(P)
    assert rep.degenerate  # a straight line has no excess over its own plane


def test_build_comparison_rejects_an_empty_chain():
    with pytest.raises(ValueError, match="^empty chain$"):
        build_comparison(PolyChain(3, 2, G, []))


def _m1_kinked() -> PolyChain:
    one = NormedCoefficient(G, 1)
    return PolyChain(2, 1, G, [
        (Simplex(np.array([[0.0, 0.0], [2.05, 2.05 * 0.05]])), one),
        (Simplex(np.array([[-2.05, 2.05 * 0.03], [0.0, 0.0]])), one),
    ])


def _m1_straight() -> PolyChain:
    one = NormedCoefficient(G, 1)
    return PolyChain(2, 1, G, [
        (Simplex(np.array([[0.0, 0.0], [2.05, 2.05 * 0.08]])), one),
        (Simplex(np.array([[-2.05, -2.05 * 0.08], [0.0, 0.0]])), one),
    ])


@pytest.mark.parametrize("m", [1, 2])
def test_mollified_eval_many_matches_the_scalar_code(m):
    import scalar_oracle as oracle

    if m == 1:
        P, base = _m1_kinked(), OrientedPlane(np.array([[1.0, 0.0]]))
        xs = np.array([[-0.7], [-0.0], [0.0], [0.3], [1.2]])
    else:
        P, base = cone_harmonic(3, 0.05, 64)[0], V
        xs = np.random.default_rng(11).uniform(-1.0, 1.0, size=(300, 2))
    _curve, _decomp, v = mollified_unit_curve(P, base)
    if m == 2:
        # the sample rays themselves, at two radii, and the apex
        rays = np.stack([np.cos(v.angles), np.sin(v.angles)], axis=1)
        xs = np.vstack([xs, 0.5 * rays, 0.75 * rays, np.zeros((1, 2))])
    want = np.array([oracle.mollified_eval(v, x) for x in xs])
    assert np.array_equal(v.eval_many(xs), want)
    assert all(np.array_equal(v.eval(x), w) for x, w in zip(xs, want))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([3, 5]),
       chain=st.sampled_from([_m1_kinked, _m1_straight]))
def test_m1_comparison_is_invariant_under_isometric_embedding(seed, n, chain):
    # the m = 1 pipeline in codimension n - 1 against the plane: every
    # report float agrees, the rounding-noise fields absolutely
    import dataclasses

    from gmtepi.chains import pushforward_linear

    P2 = chain()
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0][:, :2]
    ref = build_comparison(P2)[1]
    rep = build_comparison(pushforward_linear(P2, Q, np.zeros(n)))[1]
    noise = ("w1_sup", "plane_drift", "ratio_zone", "exc_S_zone", "h_energy", "energy_ratio")
    for f in dataclasses.fields(ref):
        want, got = getattr(ref, f.name), getattr(rep, f.name)
        if f.name in noise and isinstance(want, float):
            assert abs(got - want) <= 1e-12, f.name
        elif isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), f.name
        else:
            assert got == want, f.name
