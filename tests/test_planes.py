import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmtepi.generators import _cone_over_heights, cantor_graph, cone_harmonic, flat_disk, two_sheet_cantor
from gmtepi.planes import OrientedPlane, hausdorff_unit_ball_distance, plane_distance
from gmtepi.scan import multiscale_scan


def line(phi):
    return OrientedPlane(np.array([[math.cos(phi), math.sin(phi)]]))


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


def test_coherence_cone_fit_half_scale():
    # graph of eps0 |x|: the planes of the scan at r = R/2 about the apex
    # stay within the 4 eps bound, eps the larger eta of the two cells
    eps0 = 0.08
    P = _cone_over_heights(64, np.full(64, eps0), 2.05, 3)
    rep = multiscale_scan(P, [np.zeros(3)], r0=0.9, depth=1)
    top, half = rep.cell(0, 0), rep.cell(0, 1)
    assert half.radius == pytest.approx(top.radius / 2)
    eps = max(top.eta, half.eta)
    assert eps <= 2.0 * eps0
    assert half.coherence_bound == pytest.approx(eps * 4.0)
    assert half.coherence_measured == plane_distance(top.plane, half.plane)
    assert half.coherence_measured <= half.coherence_bound


def test_coherence_bound_formula():
    # the harmonic cone of amplitude 0.05 has eta 0.05 at its apex, and
    # R/r = 2 gives the bound 0.05 (2 + 2) = 0.2
    P, _ = cone_harmonic(2, 0.05, 64)
    rep = multiscale_scan(P, [np.zeros(3)], r0=0.9, depth=1)
    assert_allclose(rep.cell(0, 1).coherence_bound, 0.2, rtol=1e-12)


def _on_fan(P, j, w, s):
    """The point s ((1 - w) p + w q) of the fan triangle (0, p, q) of term j."""
    return s * ((1 - w) * P.verts[j, 1] + w * P.verts[j, 2])


def _on_gap_sheet(P, meta, k):
    """The midpoint of the k-th bump-sheet segment over the level-1 gap."""
    gap = [g for g in meta["gaps"] if g["level"] == 1][0]
    mid = P.verts.mean(axis=1)
    on = np.flatnonzero((np.abs(mid[:, 0] - gap["center"]) < 0.3 * gap["half_width"]) & (mid[:, 1] > 1e-6))
    return mid[on[k]]


def test_two_centers_same_scale_bound():
    # the different-centres coherence bound 6 eps nu on chains: two support
    # points scanned at one scale R, eps the larger eta of their cells
    cone, _ = cone_harmonic(2, 0.05, 64)
    disk, _ = flat_disk(64, n=5)
    graph, gmeta = cantor_graph(3, 48, 0.12)
    sheets, smeta = two_sheet_cantor(3, 48, 0.12)
    cases = [
        (cone, _on_fan(cone, 3, 0.4, 0.3), _on_fan(cone, 4, 0.2, 0.3), 0.2),
        (cone, _on_fan(cone, 10, 0.5, 0.5), _on_fan(cone, 11, 0.5, 0.45), 0.3),
        (disk, _on_fan(disk, 5, 0.3, 0.4), _on_fan(disk, 7, 0.6, 0.3), 0.3),
        (graph, _on_gap_sheet(graph, gmeta, 0), _on_gap_sheet(graph, gmeta, 2), 0.05),
        (sheets, _on_gap_sheet(sheets, smeta, 0), _on_gap_sheet(sheets, smeta, 1), 0.05),
    ]
    for P, x1, x2, R in cases:
        rep = multiscale_scan(P, [x1, x2], r0=R, depth=0)
        a, b = rep.cell(0, 0), rep.cell(1, 0)
        eps = max(a.eta, b.eta)
        lam = 1.0 - np.linalg.norm(x1 - x2) / R  # the largest lambda with |x1 - x2| <= (1 - lambda) R
        assert eps < lam
        nu = 1.0 / (lam - eps)  # the smallest nu of the lemma's hypothesis
        assert 1 - lam + eps + 1 / nu <= 1 + 1e-12
        assert plane_distance(a.plane, b.plane) <= 6 * eps * nu + 1e-12


def test_perp_frame_of_a_plane_next_to_a_coordinate_plane():
    # the spectral plane of this cone differs from the horizontal plane by
    # one frame entry of about 4.4e-19: its normal keeps that entry and
    # the exact height sup 0.05 keeps all but its last bits
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
