import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmtepi.chains import PolyChain, Simplex, mass
from gmtepi.generators import flat_disk
from gmtepi.groups import NormedCoefficient, integers
from gmtepi.mono import Gauge
from gmtepi.moments import (
    AmbiguousPlaneError,
    beta_numbers,
    chain_ball_moments,
    first_moment_bound_check,
    moments_all,
    quad_form,
    quadform_pinch_check,
    select_plane,
    trace_bound_check,
)
from gmtepi.planes import OrientedPlane, plane_distance

from conftest import make_graph_disk, random_chain

G = integers()
ONE = NormedCoefficient(G, 1)
V12 = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_flat_disk_form_eigenvalues_and_trace():
    D, _ = flat_disk(512)
    form = quad_form(D, np.zeros(3), 1.0)
    w, _ = form.eigensystem()
    assert_allclose(w[:2], [1.0, 1.0], atol=5e-3)
    assert abs(w[2]) <= 5e-3
    assert abs(form.trace - 2.0) <= 5e-3
    plane, _ = select_plane(form, 2)
    assert plane_distance(plane, V12) <= 1e-2


def test_diamond_second_moment():
    # |x| + |y| <= 1 split into four triangles: int x^2 = 1/3 exactly
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    terms = [
        (Simplex(np.array([[0.0, 0.0], pts[i], pts[(i + 1) % 4]])), ONE) for i in range(4)
    ]
    T = PolyChain(2, 2, G, terms)
    form = quad_form(T, np.zeros(2), 1.0)
    assert_allclose(form(np.array([1.0, 0.0])), (4 / math.pi) / 3, rtol=1e-12)


def test_select_plane_diagonal_exact():
    from gmtepi.moments import SymForm

    form = SymForm(np.diag([1.0, 1.0, 0.0]), 2, np.zeros(3), 1.0)
    plane, w = select_plane(form, 2)
    assert plane_distance(plane, V12) == 0.0
    assert_allclose(w, [1.0, 1.0, 0.0])


def test_select_plane_ambiguous_gap():
    from gmtepi.moments import SymForm

    form = SymForm(np.diag([1.0, 0.5, 0.5 - 1e-12]), 2, np.zeros(3), 1.0)
    with pytest.raises(AmbiguousPlaneError):
        select_plane(form, 2)


def test_tilted_graph_plane_beats_base():
    L = 0.2
    T = make_graph_disk(256, lambda p: L * p[0], R=1.0)
    plane, _ = select_plane(quad_form(T, np.zeros(3), 1.0), 2)
    tilted = OrientedPlane.from_span(
        np.array([[1.0, 0.0, L], [0.0, 1.0, 0.0]])
    )
    assert plane_distance(plane, tilted) < 0.02
    assert plane_distance(plane, tilted) < plane_distance(plane, V12)


def test_moment_identity_random_chains():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        T = random_chain(rng, m=2, n=3, terms=6)
        x = rng.normal(size=3) * 0.4
        r = 0.5 + rng.random()
        rec = moments_all(T, x, r)
        worst = max(worst, rec.identity_gap)
    assert worst <= 1e-9


def test_symmetric_disk_first_moments_vanish():
    D, _ = flat_disk(512)
    rec = moments_all(D, np.array([0.1, 0.0, 0.0]), 1.0)
    assert np.linalg.norm(rec.b) <= 1e-12
    assert abs(rec.P[1]) <= 1e-12 and abs(rec.P[3]) <= 1e-12


def test_p4_is_fourth_power_times_mass():
    D, meta = flat_disk(512)
    x = np.array([0.1, 0.0, 0.0])
    rec = moments_all(D, x, 1.0)
    assert_allclose(rec.P[4], 1e-4 * meta["area"], rtol=1e-12)


def test_vhat_equals_v_at_origin():
    rng = np.random.default_rng(29)
    T = random_chain(rng, m=2, n=3, terms=5)
    rec = moments_all(T, np.zeros(3), 0.8)
    assert_allclose(rec.V, rec.V_hat, rtol=1e-12)


def test_cavalieri_weight_identity():
    # int (1 - |y|^2) over the 512-gon approximates 2 alpha(2)/(2+2) = pi/2
    D, _ = flat_disk(512)
    bm = chain_ball_moments(D, np.zeros(3), 1.0)
    assert abs((bm.s0 - bm.t2) - math.pi / 2) <= 2e-3


def test_form_psd_and_weyl_stability():
    rng = np.random.default_rng(31)
    T = random_chain(rng, m=2, n=3, terms=8)
    form = quad_form(T, np.zeros(3), 1.0)
    w, _ = form.eigensystem()
    assert np.all(w >= -1e-12)
    bump = random_chain(rng, m=2, n=3, terms=1, scale=0.5)
    form2 = quad_form(T + bump, np.zeros(3), 1.0)
    w2, _ = form2.eigensystem()
    delta = np.linalg.norm(form2.matrix - form.matrix, 2)
    assert np.max(np.abs(w2 - w)) <= delta + 1e-12


def test_select_plane_scale_equivariant():
    from gmtepi.chains import homogeneous_extend

    T = make_graph_disk(64, lambda p: 0.1 * p[0] + 0.05 * p[1], R=1.2)
    p1, _ = select_plane(quad_form(T, np.zeros(3), 1.0), 2)
    p2, _ = select_plane(quad_form(homogeneous_extend(T, 3.0), np.zeros(3), 3.0), 2)
    assert plane_distance(p1, p2) <= 1e-11


def test_beta_numbers_examples():
    flat = make_graph_disk(64, lambda p: 0.0, R=1.0)
    br = beta_numbers(flat, np.zeros(3), 1.0, V12)
    assert br.beta2 <= 1e-12 and br.beta_inf <= 1e-12
    eps = 0.05
    g = make_graph_disk(128, lambda p: eps * p[0], R=1.0)
    br = beta_numbers(g, np.zeros(3), 1.0, V12)
    assert_allclose(br.beta_inf, eps, rtol=1e-2)
    assert_allclose(br.beta2**2, eps * eps * math.pi / 4, rtol=2e-2)
    tilted = OrientedPlane.from_span(np.array([[1.0, 0.0, eps], [0.0, 1.0, 0.0]]))
    br_fit = beta_numbers(g, np.zeros(3), 1.0, tilted)
    assert br_fit.beta2 < br.beta2 and br_fit.beta_inf < br.beta_inf


def test_trace_bound_check():
    D, _ = flat_disk(512)
    rep = trace_bound_check(D, 1.0, eps=5e-3)
    assert rep.ok and rep.hypothesis_ok
    # scaled density 1.05: hypothesis needs eps >= 0.05, slack reported
    scaled = PolyChain(3, 2, D.group, [(s, NormedCoefficient(G, 1)) for s, _ in D.terms])
    rep2 = trace_bound_check(scaled, 1.0, eps=1e-4)
    assert not rep2.hypothesis_ok or rep2.worst_ratio_dev <= 1e-4
    # the bound formula itself: (m+4) eps and the polygon trace converges to m
    D2, _ = flat_disk(64)
    t64 = quad_form(D2, np.zeros(3), 1.0).trace
    t512 = quad_form(D, np.zeros(3), 1.0).trace
    assert abs(t512 - 2) < abs(t64 - 2)


def test_first_moment_bound_symmetric_and_shifted():
    D, _ = flat_disk(256)
    xi = Gauge.power(0.5, 0.5)
    rep = first_moment_bound_check(D, 0.2, xi)
    assert rep.b_norm <= 1e-10
    assert rep.b_norm <= rep.bound
    # trivial normalization bound for any profile with excess at most one
    assert rep.trivial_bound <= 2 * 0.2 * 2 + 1e-12

    delta = 0.01
    shifted = make_graph_disk(256, lambda p: 0.0, R=1.2)
    shifted = PolyChain(
        3, 2, G, [(Simplex(s.vertices + np.array([delta, 0, 0])), c) for s, c in shifted.terms]
    )
    rep2 = first_moment_bound_check(shifted, 0.2, xi)
    assert rep2.b_norm > 0
    assert rep2.b_norm <= rep2.bound


def test_quadform_pinch_gate_and_pass():
    D, _ = flat_disk(512)
    xi = Gauge.power(0.5, 0.5)
    r = 0.04
    eta = max(r**0.125, xi(2 * math.sqrt(r)) ** 0.25)
    x = np.array([r * eta, 0.0, 0.0])
    rep = quadform_pinch_check(D, x, r, xi)
    assert rep.hypotheses_ok
    assert rep.lhs <= rep.bound
    # a point orthogonal to the disk has zero density: hypothesis gate
    bad = quadform_pinch_check(D, np.array([0.0, 0.0, r * eta]), r, xi)
    assert not bad.hypotheses_ok


def test_quadform_pinch_perturbed_disk():
    xi = Gauge.power(0.5, 0.5)
    T = make_graph_disk(256, lambda p: 0.05 * (p[0] ** 2 - p[1] ** 2), R=1.2)
    r = 0.04
    eta = max(r**0.125, xi(2 * math.sqrt(r)) ** 0.25)
    x0 = r * eta
    # place the query on the support: lift to the graph height
    x = np.array([x0, 0.0, 0.05 * x0 * x0])
    rep = quadform_pinch_check(T, x, r, xi)
    assert rep.slack > 0


def test_quad_form_rejects_an_empty_chain():
    with pytest.raises(ValueError, match="empty chain"):
        quad_form(PolyChain(3, 2, integers(), []), np.zeros(3), 1.0)
