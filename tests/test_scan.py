import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmtepi.chains import PolyChain, merge_terms, pushforward_linear
from gmtepi.generators import (
    cantor_bump_profile,
    cantor_graph,
    cone_harmonic,
    flat_disk,
    two_sheet_cantor,
)
from gmtepi.groups import integers
from gmtepi.moments import beta_numbers
from gmtepi.mono import alpha0_exponent, lambda_epi
from gmtepi.planes import OrientedPlane, _plane_grid, plane_distance
from gmtepi.scan import (
    _dist_to_support,
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


def test_find_frame_gate_reads_the_exact_beta_inf():
    # the exact beta_inf at scale 0.95 is 0.019996, just below the
    # amplitude 0.02; a support sample at scale/64 reads 0.019421, so
    # rho = 0.0198 tells the two apart
    P, _ = cone_harmonic(2, 0.02, 128)
    assert beta_numbers(P, np.zeros(3), 0.95, V).beta_inf == pytest.approx(0.019996, abs=1e-6)
    with pytest.raises(ValueError, match="not below rho"):
        find_frame(P, np.zeros(3), 0.5, V, rho=0.0198, scale=0.95)


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
    # the same-centre bound eps (2 + R/r) with eps the larger eta of the pair
    top = rep.cell(0, 0)
    assert c.coherence_bound == max(top.eta, c.eta) * (2.0 + top.radius / c.radius)
    assert c.coherence_measured == plane_distance(top.plane, c.plane)


def test_scan_beta_inf_vs_hausdorff():
    P, _ = cone_harmonic(2, 0.05, 128)
    x = np.array([0.6, 0.0, 0.05 * 0.6])  # on the cone ray at angle 0
    rep = multiscale_scan(P, [x], r0=0.15, depth=2)
    for k in range(3):
        c = rep.cell(0, k)
        # the support-to-plane half of the Hausdorff distance is beta_inf r
        assert c.beta_inf <= c.hausdorff / c.radius


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


def test_scan_cells_read_one_beta_inf_in_r3_and_r5():
    # the sup is exact in every codimension, so an isometric embedding
    # moves beta_inf by rounding only
    chain = cone_harmonic(2, 0.05, 16)[0]
    x = chain.vertex_array()[2].mean(axis=0)
    cell3 = multiscale_scan(chain, [x], r0=0.3, depth=0).cell(0, 0)
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(5, 5)))[0][:, :3]
    shift = rng.normal(size=5)
    cell5 = multiscale_scan(pushforward_linear(chain, q, shift), [q @ x + shift], r0=0.3, depth=0).cell(0, 0)
    assert cell3.beta_inf > 0.0
    assert abs(cell5.beta_inf - cell3.beta_inf) <= 1e-12  # the sups within 1e-12 r


def test_scan_rejects_an_empty_chain():
    empty = PolyChain(3, 2, integers(), [])
    with pytest.raises(ValueError, match="empty chain"):
        multiscale_scan(empty, [np.zeros(3)], r0=0.5, depth=1)


def test_extract_graph_refuses_an_empty_window():
    # the top window, the disk of radius r sqrt(2)/2 about x = (1.16, 0, 0),
    # ends past the rim of the chain, so no support lies over it: with no
    # Dini gate the fiber and Lipschitz checks would pass on nothing
    D, _ = flat_disk(16)
    rep = multiscale_scan(D, [np.array([1.16, 0.0, 0.0])], r0=0.2, depth=2)
    cert = extract_graph(rep, D, 0, dini_budget=math.inf)
    assert not cert.ok and cert.reason == "empty support window"
    assert extract_graph(rep, D, 0).reason.startswith("Dini sum")


def _branch_points():
    """Criterion 9's branch-set points of two_sheet_cantor(3, 48, 0.12):
    0.3, 0.5 and 0.7 of the way along each kept interval of level 3."""
    intervals = [(0.0, 1.0)]
    for _ in range(3):
        intervals = [iv for a, b in intervals for iv in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return [np.array([a + (b - a) * frac, 0.0]) for a, b in intervals for frac in (0.3, 0.5, 0.7)]


def test_branch_points_are_refused_without_a_dini_gate():
    # the sheets part within each window by 0.0013 r to 0.0054 r, far below
    # the r/16 that a sampled fiber test could tell apart
    # the disk counts the merged carrier, which has a boundary where the
    # two sheets part, so every branch point is refused for it
    T, _ = two_sheet_cantor(3, 48, 0.12)
    reasons = set()
    for x in _branch_points():
        rep = multiscale_scan(T, [x], r0=0.08, depth=3)
        cert = extract_graph(rep, T, 0, dini_budget=math.inf)
        assert not cert.ok, x
        reasons.add(cert.reason)
    assert reasons == {"projected boundary meets the disk: it is partly covered"}


def test_a_sheet_stored_twice_counts_once():
    # two_sheet_cantor stores 8 of its 702 segments twice, among them the
    # one through this point, the only segment over its window; the stored
    # chain and its merged form are one current with one certificate
    T, _ = two_sheet_cantor(3, 48, 0.12)
    x = np.array([0.018, 0.0])
    certs = []
    for chain in (T, merge_terms(T)):
        rep = multiscale_scan(chain, [x], r0=0.004, depth=1)
        certs.append(extract_graph(rep, chain, 0, dini_budget=math.inf))
    assert len(merge_terms(T)) == 694
    assert [(c.ok, c.reason, c.lipschitz) for c in certs] == [(True, "ok", certs[1].lipschitz)] * 2


@pytest.mark.parametrize("x1", [0.9, 1.0, 1.098])
def test_extract_graph_refuses_a_partly_covered_box(x1):
    # the top window, the disk of radius 0.1 sqrt(2) about x, crosses the
    # rim of the chain, which reaches x_1 = 1 on the axis
    D, _ = flat_disk(16)
    rep = multiscale_scan(D, [np.array([x1, 0.0, 0.0])], r0=0.2, depth=2)
    cert = extract_graph(rep, D, 0, dini_budget=math.inf)
    assert not cert.ok and cert.reason == "projected boundary meets the disk: it is partly covered"
    inside = multiscale_scan(D, [np.array([x1 - 0.3, 0.0, 0.0])], r0=0.2, depth=2)
    assert extract_graph(inside, D, 0, dini_budget=math.inf).ok


def test_extract_graph_refuses_a_vertical_triangle():
    D, _ = flat_disk(16)
    x = np.array([0.1, 0.05, 0.0])
    rep = multiscale_scan(D, [x], r0=0.2, depth=2)  # the disk's own plane
    wall = D.with_arrays(np.array([[[0.1, 0.0, 0.0], [0.15, 0.0, 0.0], [0.1, 0.0, 0.05]]]), np.ones((1, 1), dtype=np.int64))
    cert = extract_graph(rep, D + wall, 0, dini_budget=math.inf)
    assert not cert.ok and cert.reason == "projected simplex is degenerate"
    assert extract_graph(rep, D, 0, dini_budget=math.inf).ok


def _patched_hole():
    # flat_disk(16) without wedge 0 and with a second copy of wedge 8: the
    # signed measure over a disk about the centre is still the disk's, but
    # the points over wedge 0 have no support above them
    D, _ = flat_disk(16)
    va = D.vertex_array()
    return D.with_arrays(np.concatenate([va[1:], va[8:9]]), np.ones((16, 1), dtype=np.int64))


def _lifted_copy(z, reverse=False):
    D, _ = flat_disk(16)
    va = D.vertex_array()
    copy = va[:, [0, 2, 1]] if reverse else va
    return D.with_arrays(np.concatenate([va, copy + np.array([0.0, 0.0, z])]), np.ones((32, 1), dtype=np.int64))


@pytest.mark.parametrize(
    "chain, height",
    [
        (flat_disk(16)[0], 0.0),
        (_lifted_copy(0.24), 0.24),  # both sheets in the cut: two sheets over the disk
        (_lifted_copy(0.36), 0.0),  # the second sheet is near, but above the cut
        (_lifted_copy(0.24, reverse=True), None),  # the sheets' signed measures cancel
        (_patched_hole(), None),  # the hole's edges cross the disk
    ],
    ids=["flat", "two sheets", "one sheet and one above the cut", "opposite sheets", "patched hole"],
)
def test_a_covered_cell_bounds_the_plane_half_from_above(chain, height):
    r = 0.3
    cell = multiscale_scan(chain, [np.zeros(3)], r0=r, depth=0).cell(0, 0)
    assert cell.covered == (height is not None)
    grid = float(np.max(_dist_to_support(chain, cell.plane.embed(_plane_grid(r, 2, 24)))))
    if cell.covered:
        # the top sheet's height over the disk, which is also beta_inf r
        assert abs(cell.hausdorff - height) <= 1e-12 * r
        assert cell.hausdorff >= grid - 1e-12 * r
    else:
        assert cell.hausdorff == max(cell.beta_inf * r, grid)


def test_a_patched_hole_reads_its_gap():
    # points over the hole lie about 0.06 from the support; a signed
    # measure test alone would call the disk covered at the sheet height
    cell = multiscale_scan(_patched_hole(), [np.zeros(3)], r0=0.3, depth=0).cell(0, 0)
    assert not cell.covered and cell.hausdorff > 0.05


def test_flat_cells_read_beta2_zero():
    # beta_2's perp contraction on a flat disk moved into R^5 is rounding
    # noise, a fraction of an ulp of t2 = ∫|y - x|^2, and reads 0; on the
    # 0.05 cone it is far above that bound and keeps its square root
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.normal(size=(5, 5)))[0][:, :3]
    disk = pushforward_linear(flat_disk(256)[0], q, rng.normal(size=5))
    x = q @ np.array([0.25 * math.cos(0.3), 0.25 * math.sin(0.3), 0.0]) + disk.vertex_array()[0, 0]
    rep = multiscale_scan(disk, [x], r0=0.5, depth=2)
    assert [c.beta2 for c in rep.point_cells(0)] == [0.0, 0.0, 0.0]
    cone = cone_harmonic(2, 0.05, 64)[0]
    cell = multiscale_scan(cone, [np.array([0.5, 0.1, 0.0])], r0=0.3, depth=0).cell(0, 0)
    assert cell.beta2 > 1e-3


@pytest.mark.parametrize("points,r0,depth,reason", [
    ([[0.1, 0.0, 0.0]], -0.1, 2, "r0 must be finite and positive"),
    ([[0.1, 0.0, 0.0]], math.nan, 2, "r0 must be finite and positive"),
    ([[0.1, 0.0, 0.0]], math.inf, 2, "r0 must be finite and positive"),
    ([[0.1, 0.0, 0.0]], 0.1, -1, "depth must be a nonnegative integer"),
    ([[0.1, 0.0, 0.0]], 0.1, 2.0, "depth must be a nonnegative integer"),
    ([[math.nan, 0.0, 0.0]], 0.1, 2, "scan points must be finite"),
    ([[0.1, 0.0]], 0.1, 2, r"scan points must have shape \(1, 3\)"),
])
def test_a_scan_refuses_bad_input(points, r0, depth, reason):
    # at r0 = -0.1 the scan used to return cells of radius -0.1 and density 1
    with pytest.raises(ValueError, match=reason):
        multiscale_scan(flat_disk(16)[0], points, r0=r0, depth=depth)
