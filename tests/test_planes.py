import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmtepi.planes import (
    OrientedPlane,
    fit_plane,
    hausdorff_unit_ball_distance,
    plane_coherence_same_center,
    plane_distance,
    plane_membership_eps,
)


def line(phi):
    return OrientedPlane(np.array([[math.cos(phi), math.sin(phi)]]))


def disk_samples(fn, n=3, spacing=0.01):
    rows = [np.zeros((1, 2))]
    for k in range(1, int(1 / spacing) + 1):
        rad = k * spacing
        cnt = max(8, int(2 * math.pi * k))
        ang = 2 * math.pi * np.arange(cnt) / cnt
        rows.append(rad * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    c2 = np.vstack(rows)
    out = np.zeros((len(c2), n))
    out[:, :2] = c2
    out[:, 2] = fn(c2)
    return out


def test_plane_distance_rotated_line():
    phi = 0.37
    assert_allclose(plane_distance(line(0.0), line(phi)), abs(math.sin(phi)), rtol=1e-12)


def test_plane_distance_identical_and_orthogonal():
    assert plane_distance(line(0.1), line(0.1)) == 0.0
    assert_allclose(plane_distance(line(0.0), line(math.pi / 2)), 1.0, rtol=1e-12)


def test_operator_norm_matches_unit_ball_hausdorff():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = OrientedPlane.from_span(rng.normal(size=(2, 4)))
        b = OrientedPlane.from_span(rng.normal(size=(2, 4)))
        d1 = plane_distance(a, b)
        d2 = hausdorff_unit_ball_distance(a, b, samples=600)
        assert abs(d1 - d2) <= 3e-2 * max(d1, 1e-3)


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(6)
    for _ in range(60):
        a, b, c = (OrientedPlane.from_span(rng.normal(size=(2, 4))) for _ in range(3))
        ab, bc, ac = plane_distance(a, b), plane_distance(b, c), plane_distance(a, c)
        assert ab >= 0 and plane_distance(a, a) == 0
        assert_allclose(ab, plane_distance(b, a))
        assert ac <= ab + bc + 1e-9


def test_perp_composition_bound():
    rng = np.random.default_rng(8)
    for _ in range(60):
        a = OrientedPlane.from_span(rng.normal(size=(2, 4)))
        b = OrientedPlane.from_span(rng.normal(size=(2, 4)))
        comp = np.linalg.norm((np.eye(4) - b.projector()) @ a.projector(), 2)
        assert comp <= plane_distance(a, b) + 1e-12


def test_coherence_fixed_plane():
    pts = disk_samples(lambda c2: np.zeros(len(c2)))
    V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    rep = plane_coherence_same_center(pts, np.zeros(3), 0.3, 0.9, eps=0.05, plane_r=V, plane_R=V)
    assert rep.measured == 0.0
    assert rep.ok


def test_coherence_cone_fit_half_scale():
    # graph of eps |x|: fitted planes at r = R/2 stay within the 4 eps bound
    eps0 = 0.08
    pts = disk_samples(lambda c2: eps0 * np.linalg.norm(c2, axis=1))
    rep = plane_coherence_same_center(pts, np.zeros(3), 0.45, 0.9, eps=2.0 * eps0)
    assert rep.bound == pytest.approx(2.0 * eps0 * 4.0)
    assert rep.measured <= rep.bound
    assert rep.ok


def test_coherence_bound_formula():
    # eps = 0.1 and R/r = 3 give the bound 0.5
    pts = disk_samples(lambda c2: np.zeros(len(c2)))
    V = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    rep = plane_coherence_same_center(pts, np.zeros(3), 0.3, 0.9, eps=0.1, plane_r=V, plane_R=V)
    assert_allclose(rep.bound, 0.5)


def test_coherence_rejects_inadmissible_plane():
    pts = disk_samples(lambda c2: np.zeros(len(c2)))
    W = OrientedPlane(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))  # vertical plane
    with pytest.raises(ValueError):
        plane_coherence_same_center(pts, np.zeros(3), 0.3, 0.9, eps=0.05, plane_r=W, plane_R=W)


def test_two_centers_same_scale_bound():
    # the different-centers coherence bound 6 eps nu on a fitted pair
    pts = disk_samples(lambda c2: 0.02 * c2[:, 0] ** 2)
    R = 0.5
    nu = 4.0
    lam = 0.5
    x1 = np.array([0.1, 0.0, 0.02 * 0.01])
    x2 = np.array([-0.1, 0.0, 0.02 * 0.01])
    assert np.linalg.norm(x1 - x2) <= (1 - lam) * R
    planes = []
    epss = []
    for x in (x1, x2):
        keep = np.linalg.norm(pts - x, axis=1) <= R
        pl = fit_plane(pts[keep], m=2, through=x)
        planes.append(pl)
        epss.append(plane_membership_eps(pts, x, R, pl))
    eps = max(epss)
    assert 1 - lam + eps + 1 / nu <= 1  # lemma hypothesis
    assert plane_distance(planes[0], planes[1]) <= 6 * eps * nu


def test_perp_frame_of_a_plane_next_to_a_coordinate_plane():
    # the spectral plane of this cone differs from the horizontal plane by
    # one frame entry of about 4.4e-19: its normal keeps that entry and
    # the exact height sup 0.05 keeps all but its last bits
    from gmtepi.generators import cone_harmonic
    from gmtepi.layers import height_sup
    from gmtepi.moments import quad_form, select_plane

    P = cone_harmonic(2, 0.05, 64)[0]
    V, _ = select_plane(quad_form(P, np.zeros(3), 1.0), 2)
    normal = V.perp_frame()
    assert normal.shape == (1, 3)
    assert normal[0, 0] == 0.0 and normal[0, 2] == 1.0
    assert abs(normal[0, 1]) < 1e-18
    assert_allclose(V.frame @ normal.T, 0.0, rtol=0, atol=1e-18)
    assert height_sup(P, V) == pytest.approx(0.05, rel=1e-15)


@pytest.mark.parametrize("n, m", [(3, 2), (5, 2), (12, 2), (2, 1), (4, 1)])
def test_perp_frame_completes_a_random_frame(n, m):
    frame = OrientedPlane.from_span(np.random.default_rng(n + m).normal(size=(m, n)))
    perp = frame.perp_frame()
    full = np.vstack([frame.frame, perp])
    assert_allclose(full @ full.T, np.eye(n), rtol=0, atol=1e-14)


def test_a_frame_off_orthonormal_by_more_than_1e_12_is_rejected():
    # the tolerance is absolute: a relative one let rows of norm 1 + 4e-6 in
    with pytest.raises(ValueError, match="orthonormal"):
        OrientedPlane(np.array([[1.0 + 1e-9, 0.0, 0.0]]))
    OrientedPlane(np.array([[1.0 + 1e-13, 0.0, 0.0]]))
