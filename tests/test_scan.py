import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmtepi.chains import PolyChain, pushforward_linear
from gmtepi.generators import (
    cantor_bump_profile,
    cantor_graph,
    cone_harmonic,
    flat_disk,
    two_sheet_cantor,
)
from gmtepi.groups import integers
from gmtepi.mono import alpha0_exponent, lambda_epi
from gmtepi.planes import OrientedPlane, plane_distance
from gmtepi.scan import (
    extract_graph,
    find_frame,
    multiscale_scan,
    support_sample,
    theoretical_exponent,
)

G = integers()
V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_find_frame_flat_disk_exact():
    D, _ = flat_disk(64)
    fr = find_frame(D, np.zeros(3), 0.5, V, rho=1 / (25 * math.sqrt(2)), scale=0.9)
    assert fr.orthogonality_defect <= 1e-12
    assert fr.support_distance <= 1e-9
    # the found directions stay in the disk plane
    assert np.max(np.abs(fr.directions[:, 2])) <= 1e-12


def test_find_frame_wavy_cone():
    P, _ = cone_harmonic(2, 0.02, 128)
    fr = find_frame(P, np.zeros(3), 0.5, V, rho=1 / (25 * math.sqrt(2)), scale=0.95)
    assert fr.orthogonality_defect <= 0.05
    assert fr.support_distance <= 1e-8  # fiber points are found exactly


def test_find_frame_rho_gate():
    D, _ = flat_disk(32)
    with pytest.raises(ValueError):
        find_frame(D, np.zeros(3), 0.5, V, rho=0.2, scale=0.9)  # 0.2 > 1/(25 sqrt 2)


def test_scan_flat_disk_constant_plane():
    D, _ = flat_disk(128)
    rep = multiscale_scan(D, [np.zeros(3)], r0=0.4, depth=3)
    planes = []
    for k in range(4):
        c = rep.cell(0, k)
        assert c.beta_inf <= 1e-9
        assert abs(c.density_ratio - 1.0) <= 1e-9
        assert c.frame_found
        planes.append(c.plane)
    for a, b in zip(planes[:-1], planes[1:]):
        assert plane_distance(a, b) <= 1e-9
    cert = extract_graph(rep, D, 0)
    assert cert.ok
    assert cert.eta_hat <= 1e-4
    assert cert.lipschitz <= 1e-6


def test_scan_coherence_bound_recorded():
    P, _ = cone_harmonic(2, 0.03, 128)
    rep = multiscale_scan(P, [np.array([0.5, 0.0, 0.0])], r0=0.2, depth=2)
    c = rep.cell(0, 1)
    assert c.coherence_bound is not None
    assert c.coherence_measured <= c.coherence_bound + 1e-9


def test_scan_beta_inf_vs_hausdorff():
    P, _ = cone_harmonic(2, 0.05, 128)
    x = np.array([0.6, 0.0, 0.05 * 0.6])  # on the cone ray at angle 0
    rep = multiscale_scan(P, [x], r0=0.15, depth=2)
    for k in range(3):
        c = rep.cell(0, k)
        sampling = c.radius / 48  # support sample spacing of the scan
        assert c.beta_inf <= c.hausdorff / c.radius + sampling / c.radius


def test_scan_rigid_motion_equivariance():
    T, meta = two_sheet_cantor(2, 24, 0.1)
    g1 = [g for g in meta["gaps"] if g["level"] == 1][0]
    f = cantor_bump_profile(meta)
    x = np.array([g1["center"], float(f(np.array([g1["center"]]))[0])])
    r0 = 0.3 * x[1]
    rep1 = multiscale_scan(T, [x], r0=r0, depth=2)
    phi = 0.7
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    shift = np.array([0.3, -0.2])
    T2 = pushforward_linear(T, R, shift)
    rep2 = multiscale_scan(T2, [R @ x + shift], r0=r0, depth=2)
    for k in range(3):
        p1 = rep1.cell(0, k).plane
        p2 = rep2.cell(0, k).plane
        moved = OrientedPlane.from_span(p1.frame @ R.T)
        assert plane_distance(moved, p2) <= 1e-9
        assert abs(rep1.cell(0, k).beta_inf - rep2.cell(0, k).beta_inf) <= 1e-9


def test_two_sheet_beta_jump_at_separation_scale():
    T, meta = two_sheet_cantor(2, 32, 0.1)
    f = cantor_bump_profile(meta)
    g1 = [g for g in meta["gaps"] if g["level"] == 1][0]
    x = np.array([g1["center"], 0.0])  # on the lower sheet at the gap center
    sep = float(f(np.array([g1["center"]]))[0])
    wide = multiscale_scan(T, [x], r0=2.0 * sep, depth=0).cell(0, 0)
    narrow = multiscale_scan(T, [x], r0=0.3 * sep, depth=0).cell(0, 0)
    assert wide.beta_inf > 10 * narrow.beta_inf  # the jump at the separation scale


def test_branch_failure_set_shrinks_with_depth():
    T, meta = two_sheet_cantor(2, 32, 0.1)
    f = cantor_bump_profile(meta)
    g1 = [g for g in meta["gaps"] if g["level"] == 1][0]
    a, b = g1["center"], g1["half_width"]
    # a gap-interior point near (but off) the branch set certifies once the
    # scales drop below its sheet separation; the branch endpoint never does
    t_in = a - 0.6 * b
    node_grid = np.linspace(a - b, a + b, 34)[1:-1]
    t_in = node_grid[np.argmin(np.abs(node_grid - t_in))]
    h = float(f(np.array([t_in]))[0])
    rep_in = multiscale_scan(T, [np.array([t_in, h])], r0=0.3 * h, depth=4)
    assert extract_graph(rep_in, T, 0).ok
    rep_branch = multiscale_scan(T, [np.array([a - b - 1e-4, 0.0])], r0=0.05, depth=4)
    assert not extract_graph(rep_branch, T, 0).ok


def test_cantor_graph_certificate_and_exponent():
    G2, meta = cantor_graph(4, 56, 0.02)
    rep = multiscale_scan(G2, [np.array([0.25, 0.0])], r0=0.22, depth=7)
    cert = extract_graph(rep, G2, 0)
    assert cert.ok
    assert cert.fitted_exponent is not None
    assert 0.35 <= cert.fitted_exponent <= 0.65
    assert cert.lipschitz <= 1.0


def test_theoretical_exponent_values():
    lam2 = lambda_epi(2)
    b2 = theoretical_exponent(2, 1.0)
    assert_allclose(b2, alpha0_exponent(2) / 32, rtol=1e-12)
    assert abs(b2 - 4.89e-5) <= 2e-6
    lam1 = lambda_epi(1)
    a01 = alpha0_exponent(1)
    assert abs(a01 - 5.29e-3) <= 2e-4
    assert_allclose(theoretical_exponent(1, 1.0), a01 / 24, rtol=1e-12)
    # below the ceiling the user's exponent wins
    assert_allclose(theoretical_exponent(2, 1e-5), 1e-5 / 32, rtol=1e-12)
    with pytest.raises(ValueError):
        theoretical_exponent(2, 0.0)


def test_support_sample_hits_window():
    D, _ = flat_disk(64)
    pts = support_sample(D, np.array([0.2, 0.1, 0.0]), 0.2, spacing=0.02)
    assert len(pts) > 50
    assert np.max(np.linalg.norm(pts - np.array([0.2, 0.1, 0.0]), axis=1)) <= 0.2 + 1e-12


def test_scan_cells_carry_the_sup_floor():
    chain = cone_harmonic(2, 0.05, 16)[0]
    x = chain.vertex_array()[2].mean(axis=0)
    cell3 = multiscale_scan(chain, [x], r0=0.3, depth=0).cell(0, 0)
    assert cell3.sup_floor == 0.0  # codimension one: the sup is exact
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(5, 5)))[0][:, :3]
    shift = rng.normal(size=5)
    cell5 = multiscale_scan(pushforward_linear(chain, q, shift), [q @ x + shift], r0=0.3, depth=0).cell(0, 0)
    assert 0.0 < cell5.sup_floor <= (math.pi / 64) ** 2
    assert cell5.beta_inf + cell5.sup_floor >= cell3.beta_inf


def test_scan_rejects_an_empty_chain():
    empty = PolyChain(3, 2, integers(), [])
    with pytest.raises(ValueError, match="empty chain"):
        multiscale_scan(empty, [np.zeros(3)], r0=0.5, depth=1)
