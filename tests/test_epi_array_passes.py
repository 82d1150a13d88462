"""The closed-form boundary trace, the windowed mollifier means, the stacked
half-plane clipper and the tie rule of the strip zip against the loop code
kept in ``scalar_oracle``, and the measured/bound fields of the gates."""

import dataclasses
import math

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi.chains import _clip_polygons, pushforward_linear
from gmtepi.epi import (
    EpiConfig,
    StageError,
    _directions,
    _layer_ray_angles,
    _lift,
    _trace_cone_over,
    _zip_strip,
    averaged_graph,
    build_comparison,
    mollified_graph,
    mollified_unit_curve,
    trace_and_split,
)
from gmtepi.generators import cone_harmonic, tilted_cone
from gmtepi.groups import NormedCoefficient, integers
from gmtepi.layers import (
    ConstancyError,
    align_base_to_chain,
    decompose_layers,
    height_sup,
    multiplicity_stats,
)
from gmtepi.moments import quad_form, select_plane
from gmtepi.planes import OrientedPlane

from conftest import make_graph_disk

G = integers()
V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

# the (k, amplitude) pairs of the epi_cone benchmark's 256-ray cones
BENCH_CONES = [(2, 0.08), (2, 0.04), (2, 0.02), (3, 0.04)]


def _base_plane(n: int) -> OrientedPlane:
    return OrientedPlane(np.eye(n)[:2])


# -- closed-form trace --------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("N", [48, 64, 256])
@pytest.mark.parametrize("n", [3, 4])
def test_closed_form_trace_matches_the_bisection(k, N, n):
    curve, _decomp, _v = mollified_unit_curve(cone_harmonic(k, 0.05, N, n=n)[0], _base_plane(n))
    plane = _base_plane(n)
    perp = plane.perp_frame()
    for samples in (N, 4 * N + 3):
        got = _trace_cone_over(curve, plane, perp, samples)
        want = oracle.trace_cone_over(curve, plane, perp, samples)
        assert np.max(np.abs(got - want)) <= 1e-15


def test_clockwise_curve_takes_the_handedness_flip():
    # reversed, the curve winds clockwise in V's frame: it is traced over
    # the plane with the other handedness, and that plane is recorded, so
    # every sample lifts to the point the forward trace lifts at the
    # mirrored index
    turn = np.array([[math.cos(0.3), -math.sin(0.3), 0.0], [math.sin(0.3), math.cos(0.3), 0.0], [0, 0, 1]])
    P = pushforward_linear(cone_harmonic(3, 0.05, 64)[0], turn, np.zeros(3))
    curve, _decomp, _v = mollified_unit_curve(P, V)
    forward = trace_and_split(curve, V, n_samples=64)
    reverse = trace_and_split(curve[::-1].copy(), V, n_samples=64)
    assert np.array_equal(reverse.plane.frame, V.frame * np.array([[1.0], [-1.0]]))

    def lifted(trace):
        return _lift(_directions(trace.angles, 2), trace.plane.frame) + _lift(trace.samples, trace.perp)

    mirror = -np.arange(64) % 64
    assert np.max(np.abs(lifted(reverse) - lifted(forward)[mirror])) <= 1e-15


def test_non_monotone_curve_raises_at_the_trace():
    curve, _decomp, _v = mollified_unit_curve(cone_harmonic(2, 0.05, 48)[0], V)
    zigzag = curve.copy()
    zigzag[[10, 11]] = zigzag[[11, 10]]
    perp = V.perp_frame()
    for trace in (_trace_cone_over, oracle.trace_cone_over):
        with pytest.raises(StageError, match="non-monotonically") as info:
            trace(zigzag, V, perp, 48)
        assert info.value.stage == "trace"


# -- windowed mollifier means --------------------------------------------------


@pytest.mark.parametrize("k, amp", BENCH_CONES)
def test_windowed_mollifier_is_the_all_layer_mean(k, amp):
    Q = np.linalg.qr(np.random.default_rng(17 * k + int(100 * amp)).normal(size=(3, 3)))[0]
    P = pushforward_linear(cone_harmonic(k, amp, 256)[0], Q, np.zeros(3))
    base = align_base_to_chain(select_plane(quad_form(P, np.zeros(3), 1.0), 2)[0], P)
    decomp = decompose_layers(P, base)
    rho = min(max(height_sup(P, base, radius=1.0), 1e-3), 0.45)
    angles = _layer_ray_angles(decomp)
    avg = averaged_graph(decomp)
    got = mollified_graph(avg, rho, angles=angles).values
    assert np.array_equal(got, oracle.mollified_values(avg, rho, angles))


def test_windowed_mollifier_still_finds_a_hole():
    P = cone_harmonic(2, 0.04, 64)[0]
    keep = np.arange(len(P)) != 5
    decomp = decompose_layers(P.with_arrays(P.verts[keep], P.payload[keep]), V, check_constancy=False)
    decomp.g0, decomp.g0_norm = NormedCoefficient(G, 1), 1.0
    avg = averaged_graph(decomp)
    angles = 2 * math.pi * np.arange(64) / 64
    with pytest.raises(ConstancyError, match="no layer covers base point"):
        oracle.mollified_values(avg, 0.05, angles)
    with pytest.raises(ConstancyError, match="no layer covers base point") as info:
        mollified_graph(avg, 0.05, angles=angles)
    # the uncovered node lies in the removed wedge, between rays 5 and 6
    x, y = (float(t) for t in str(info.value).split("[")[1].split("]")[0].split())
    assert 2 * math.pi * 5 / 64 < math.atan2(y, x) < 2 * math.pi * 6 / 64


# -- stacked half-plane clipper ----------------------------------------------------


def _convex_polygon(rng, count: int) -> np.ndarray:
    ang = np.sort(rng.uniform(0.0, 2 * math.pi, count))
    return rng.normal(size=2) + rng.uniform(0.5, 2.0) * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_stacked_clip_matches_the_one_polygon_step():
    rng = np.random.default_rng(3)
    polys, counts, anchors, normals = [], [], [], []
    for i in range(300):
        poly = _convex_polygon(rng, int(rng.integers(3, 8)))
        if i % 3 == 0:
            # the line through an edge: vertices on it take the tolerance path
            anchor = poly[0]
            t = poly[1] - poly[0]
            normal = np.array([-t[1], t[0]]) * rng.choice([-1.0, 1.0])
        else:
            anchor, normal = rng.normal(size=2), rng.normal(size=2)
        polys.append(poly)
        counts.append(len(poly))
        anchors.append(anchor)
        normals.append(normal)
    padded = np.zeros((len(polys), 7, 2))
    for i, p in enumerate(polys):
        padded[i, : len(p)] = p
    out, new_counts = _clip_polygons(padded, np.array(counts), np.array(anchors), np.array(normals))
    for i, p in enumerate(polys):
        want = oracle.clip_halfplane(list(p), anchors[i], normals[i])
        assert new_counts[i] == len(want)
        assert np.array_equal(out[i, : new_counts[i]], np.array(want).reshape(-1, 2))


def _turn(chain, angle: float):
    rot = np.array([[math.cos(angle), -math.sin(angle), 0.0], [math.sin(angle), math.cos(angle), 0.0], [0, 0, 1]])
    return pushforward_linear(chain, rot, np.zeros(3))


def _two_fans():
    # fans of 12 and 10 wedges overlap in partial wedges: clips cross edges
    return make_graph_disk(12, lambda p: 0.0, R=1.3) + _turn(make_graph_disk(10, lambda p: 0.3, R=0.9), 0.2)


def _three_fans():
    # a 12-fan and two 9-fans turned by 0.2 and 0.5 rad: partial triple overlaps
    return (make_graph_disk(12, lambda p: 0.0, R=1.3) + _turn(make_graph_disk(9, lambda p: 0.2, R=1.3), 0.2)
            + _turn(make_graph_disk(9, lambda p: 0.4, R=1.3), 0.5))


@pytest.mark.parametrize("build", [
    _two_fans,
    lambda: make_graph_disk(32, lambda p: 0.0, R=1.3) + make_graph_disk(8, lambda p: 0.2, R=0.3),
    lambda: make_graph_disk(24, lambda p: 0.0, R=1.3) + make_graph_disk(24, lambda p: 0.4, R=1.3),
    _three_fans,
])
def test_multiplicity_stats_unchanged_by_the_stacked_clip(build):
    # the stacked pair and triple passes give the floats of the loop that
    # clips one pair, then one triple, at a time
    decomp = decompose_layers(build(), V, check_constancy=False)
    decomp.g0, decomp.g0_norm = NormedCoefficient(G, 1), 1.0
    got = dataclasses.asdict(multiplicity_stats(decomp, eps_mass=10.0))
    want = oracle.multiplicity_loop(decomp, np.zeros(2), 1.0)
    assert {key: got[key] for key in want} == want
    assert got["e2_measure"] > 0.0


# -- strip zip tie rule ------------------------------------------------------------


def _ring(angles: np.ndarray, radius: float) -> np.ndarray:
    return np.stack([radius * np.cos(angles), radius * np.sin(angles), 0.01 * np.sin(3 * angles)], axis=1)


def test_zip_strip_ignores_last_bit_jitter():
    ang = 2 * math.pi * np.arange(64) / 64
    inner, outer = _ring(ang, 0.25), _ring(ang, 0.5)
    ref = _zip_strip(inner, ang, outer, ang)
    assert len(ref) == 128
    rng = np.random.default_rng(5)
    for trial in range(40):
        ulps = rng.integers(-4, 5, size=len(ang))
        jittered = ang + ulps * np.spacing(np.maximum(ang, 2 * math.pi))
        if trial % 2:
            jittered[0] = -4 * np.spacing(2 * math.pi)  # below 0: wraps to the end
        assert np.array_equal(_zip_strip(inner, jittered, outer, ang), ref)
    # a genuine half-step offset is no tie and zips the other way round
    assert not np.array_equal(_zip_strip(inner, ang + 1e-6, outer, ang), ref)


def test_zip_strip_merge_matches_the_loop_off_ties():
    # ring angles never within 1e-9 rad of each other: the merge is the
    # step-by-step zip, counts of the two rings may differ
    rng = np.random.default_rng(8)
    for n_in, n_out in [(64, 64), (48, 64), (64, 40)]:
        ia = np.sort(rng.uniform(0.0, 2 * math.pi, n_in))
        oa = np.sort(rng.uniform(0.0, 2 * math.pi, n_out))
        inner, outer = _ring(ia, 0.25), _ring(oa, 0.5)
        got = _zip_strip(inner, ia, outer, oa)
        assert np.array_equal(got, oracle.zip_strip(inner, ia, outer, oa))


# -- cone height sup -------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: cone_harmonic(2, 0.08, 256)[0],
    lambda: cone_harmonic(3, 0.05, 64)[0],
    lambda: tilted_cone(0.1, 128)[0],
    lambda: pushforward_linear(cone_harmonic(2, 0.04, 48)[0],
                               np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))[0], np.zeros(3)),
])
def test_cone_height_sup_matches_the_loop(build):
    P = build()
    base = align_base_to_chain(select_plane(quad_form(P, np.zeros(3), 1.0), 2)[0], P)
    assert height_sup(P, base, radius=0.7) == pytest.approx(oracle.cone_height_sup(P, base, 0.7), rel=1e-14)


# -- measured values and bounds on gate failures ----------------------------------


def test_tail_gate_carries_the_tail_share_and_its_bound():
    cfg = EpiConfig(harmonic_cutoff=2)
    with pytest.raises(StageError, match="harmonic cutoff too small") as info:
        build_comparison(cone_harmonic(3, 0.05, 64)[0], cfg)
    err = info.value
    assert err.stage == "trace"
    assert err.bound == cfg.tail_tol
    assert err.measured > err.bound
    assert f"tail share {err.measured:.3g}" in str(err)


def test_assumption_gates_carry_measured_and_bound():
    with pytest.raises(StageError) as info:
        build_comparison(cone_harmonic(2, 0.04, 8)[0])
    assert (info.value.stage, info.value.bound) == ("assumptions", 2.0)
    assert info.value.measured == pytest.approx(2.05 * math.cos(math.pi / 8), rel=1e-12)
    P = cone_harmonic(2, 0.08, 64)[0]
    rep = build_comparison(P)[1]
    with pytest.raises(StageError, match="height") as info:
        build_comparison(P, EpiConfig(rho_max=rep.rho / 2))
    assert (info.value.measured, info.value.bound) == (rep.rho, rep.rho / 2)
    with pytest.raises(StageError, match="excess") as info:
        build_comparison(P, EpiConfig(eps_max=rep.eps / 2))
    assert (info.value.measured, info.value.bound) == (rep.eps, rep.eps / 2)
