"""Stacking the cells of a scan changes no number.

``multiscale_scan`` culls the chain once per point and runs every stage
over all (point, scale) cells of a call together.  Each cell must be the
cell a scan of that one point at that one scale reports, bit for bit; only
the cross-scale coherence fields depend on the neighbouring scales.
"""

import dataclasses

import numpy as np
import pytest

from gmtepi.chains import pushforward_linear
from gmtepi.generators import cantor_bump_profile, cone_harmonic, flat_disk, two_sheet_cantor
from gmtepi.planes import OrientedPlane
from gmtepi.scan import ScanCell, _dist_to_support, find_frame, multiscale_scan

CROSS_SCALE = {"point_index", "scale_index", "coherence_bound", "coherence_measured"}


def _bits(value):
    if isinstance(value, OrientedPlane):
        return value.frame.tobytes(), value.orientation
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def assert_same_cell(got: ScanCell, want: ScanCell, skip=CROSS_SCALE):
    for f in dataclasses.fields(ScanCell):
        if f.name not in skip:
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


def _disk_r5():
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(5, 5)))[0][:, :3]
    chain = pushforward_linear(flat_disk(16)[0], q, rng.normal(size=5))
    va = chain.vertex_array()
    return chain, [va[3, 0] + 0.3 * (va[3, 1] - va[3, 0]) + 0.2 * (va[3, 2] - va[3, 0]), va[0, 0]], 0.4, 3


def _cone():
    chain = cone_harmonic(2, 0.05, 16)[0]
    va = chain.vertex_array()
    return chain, [va[5, 0] + 0.5 * (va[5, 1] - va[5, 0]) + 0.25 * (va[5, 2] - va[5, 0]), va[0, 0]], 0.3, 3


def _cantor_gap():
    chain, meta = two_sheet_cantor(3, 48, 0.12)
    f = cantor_bump_profile(meta)
    points = []
    for g in meta["gaps"][:3]:
        t = g["center"] - 0.4 * g["half_width"]
        points.append(np.array([t, float(f(np.array([t]))[0])]))
    return chain, points, 0.3 * float(np.min([p[1] for p in points])), 4


def _cantor_branch():
    chain, meta = two_sheet_cantor(3, 48, 0.12)
    g = meta["gaps"][1]
    points = [np.array([g["center"] - g["half_width"], 0.0]), np.array([0.5 * (g["center"] - g["half_width"]), 0.0])]
    return chain, points, 0.08, 3


FAMILIES = {
    "flat_disk_r5": _disk_r5,
    "cone_harmonic": _cone,
    "cantor_gap": _cantor_gap,
    "cantor_branch": _cantor_branch,
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_each_cell_is_the_one_scale_scan(name):
    chain, points, r0, depth = FAMILIES[name]()
    for x in points:
        rep = multiscale_scan(chain, [x], r0=r0, depth=depth)
        for k in range(depth + 1):
            alone = multiscale_scan(chain, [x], r0=r0 * 2.0**-k, depth=0).cell(0, 0)
            assert_same_cell(rep.cell(0, k), alone)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_multi_point_scan_is_its_one_point_scans(name):
    chain, points, r0, depth = FAMILIES[name]()
    rep = multiscale_scan(chain, points, r0=r0, depth=depth)
    for pi, x in enumerate(points):
        alone = multiscale_scan(chain, [x], r0=r0, depth=depth)
        for k in range(depth + 1):
            assert_same_cell(rep.cell(pi, k), alone.cell(0, k), skip={"point_index"})


def test_frame_reason_names_the_failed_step():
    # at a gap centre on the flat sheet, the balls wider than the sheet
    # separation see both sheets and fail the flatness gate
    chain, meta = two_sheet_cantor(3, 48, 0.12)
    g = meta["gaps"][0]
    sep = float(cantor_bump_profile(meta)(np.array([g["center"]]))[0])
    rep = multiscale_scan(chain, [np.array([g["center"], 0.0])], r0=2 * sep, depth=3)
    cells = rep.point_cells(0)
    assert [c.frame_found for c in cells] == [False, False, True, True]
    for c in cells:
        assert (c.frame_reason == "") == c.frame_found
    assert cells[0].frame_reason.startswith("beta_inf 0.5 ") and "not below rho" in cells[0].frame_reason
    far = multiscale_scan(flat_disk(16)[0], [np.array([5.0, 5.0, 5.0])], r0=0.1, depth=0).cell(0, 0)
    assert far.ambiguous_plane and far.frame_reason.startswith("eigen-gap ")


def test_public_find_frame_still_measures_the_support_distance():
    chain, points, _r0, _depth = _cone()
    x = points[0]
    cell = multiscale_scan(chain, [x], r0=0.2, depth=0).cell(0, 0)
    assert cell.frame_found
    fr = find_frame(chain, x, 0.18, cell.plane, rho=1 / (25 * 2**0.5), scale=0.2, beta_inf=cell.beta_inf)
    assert fr.support_distance == float(np.max(_dist_to_support(chain, x + 0.18 * fr.directions)))
    assert fr.support_distance <= 1e-9
