"""The scan's stacked frame search and the certificate's chain-free box
count give, bit for bit, what the per-cell search and the carrier-and-weld
count of ``scalar_oracle`` give: on the four families of
``test_scan_stacking`` and on criterion 9's 24 branch points."""

import dataclasses
import math

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi.generators import two_sheet_cantor
from gmtepi.scan import GraphCertificate, find_frame, multiscale_scan, extract_graph
from test_scan import _branch_points
from test_scan_stacking import FAMILIES, _bits


def _criterion_9_branch():
    return two_sheet_cantor(3, 48, 0.12)[0], _branch_points(), 0.08, 3


CASES = {**FAMILIES, "criterion_9_branch": _criterion_9_branch}


def _scans(name):
    chain, points, r0, depth = CASES[name]()
    for x in points:
        x = np.asarray(x, dtype=float)
        yield chain, x, multiscale_scan(chain, [x], r0=r0, depth=depth)


@pytest.mark.parametrize("name", sorted(CASES))
def test_frame_flags_and_reasons_are_the_per_cell_search(name):
    cells = 0
    for chain, x, rep in _scans(name):
        for cell in rep.point_cells(0):
            if cell.plane is None:
                continue
            reason = oracle.cell_frame_reason(chain, x, cell)
            assert (cell.frame_found, cell.frame_reason) == (reason == "", reason)
            cells += 1
    assert cells


@pytest.mark.parametrize("name", sorted(CASES))
def test_find_frame_directions_are_the_per_cell_search(name):
    searched = 0
    for chain, x, rep in _scans(name):
        for cell in rep.point_cells(0):
            rho = 1.0 / (25 * math.sqrt(chain.m))
            if cell.plane is None or not cell.beta_inf < rho:
                continue
            s, near = 0.9 * cell.radius, chain.verts[chain.near_ball(x, cell.radius)]
            try:
                want = oracle.frame_directions(near, x, s, cell.plane)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)):
                    find_frame(chain, x, s, cell.plane, rho, scale=cell.radius, beta_inf=cell.beta_inf)
                continue
            got = find_frame(chain, x, s, cell.plane, rho, scale=cell.radius, beta_inf=cell.beta_inf)
            assert got.directions.tobytes() == want.tobytes()
            searched += 1
    assert searched


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificates_are_the_carrier_and_weld_count(name):
    for chain, _x, rep in _scans(name):
        for budget in (1.0 / 120.0, math.inf):
            got = extract_graph(rep, chain, 0, dini_budget=budget)
            want = oracle.graph_certificate(rep, chain, 0, dini_budget=budget)
            for f in dataclasses.fields(GraphCertificate):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(a, np.ndarray):
                    assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), f.name
                else:
                    assert _bits(a) == _bits(b), f.name
