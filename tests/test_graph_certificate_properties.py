"""The exact graph certificate under isometric embeddings R^k -> R^n,
n <= 8, under turns in the plane of the chain, and under turns of the
top plane's frame within the plane."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtepi.chains import pushforward_linear
from gmtepi.generators import cantor_graph, cone_harmonic, flat_disk
from gmtepi.layers import disk_sheets
from gmtepi.planes import OrientedPlane
from gmtepi.scan import extract_graph, multiscale_scan

# (chain, r0): scan cells at depth 2
FAMILIES = (
    (cone_harmonic(2, 0.05, 64)[0], 0.25),
    (flat_disk(64)[0], 0.25),
    (cantor_graph(4, 56, 0.02)[0], 0.02),
)

where = st.tuples(
    st.sampled_from(range(len(FAMILIES))),
    st.integers(0, 55),  # the term the point lies on
    st.floats(0.05, 0.25),  # its barycentric weights, so |x| <= 1/2 on a fan
    st.floats(0.05, 0.25),
)


def _point(chain, t, u, v):
    s = chain.vertex_array()[t % len(chain)]
    return s[0] + u * (s[1] - s[0]) + (v * (s[2] - s[0]) if chain.m == 2 else 0.0)


def _certificate(chain, x, r0):
    # no Dini gate: eta's plane-to-support half is sampled on a grid in the
    # selected frame and moves with it; the disk test is under scrutiny here
    rep = multiscale_scan(chain, [x], r0=r0, depth=2)
    return extract_graph(rep, chain, 0, dini_budget=math.inf).reason, rep.cell(0, 0).plane


def _turn(n, angle):
    """The turn of R^n by ``angle`` in the plane of its first two axes,
    which holds the chains' own planes."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.eye(n)
    rot[:2, :2] = [[c, -s], [s, c]]
    return rot


def _sheets(chain, x, W, r):
    """``disk_sheets``, or the message of its refusal."""
    try:
        return disk_sheets(chain, x, W, r)
    except ValueError as err:
        return str(err)


@settings(max_examples=30, deadline=None)
@given(where, st.integers(0, 2**32 - 1), st.integers(3, 8), st.floats(0.0, 2 * math.pi))
def test_graph_certificate_is_invariant_under_isometries(where, seed, n, angle):
    k, t, u, v = where
    chain, r0 = FAMILIES[k]
    x = _point(chain, t, u, v)
    rot = _turn(chain.n, angle)
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0][:, : chain.n]
    shift = np.random.default_rng(seed + 1).normal(size=n)
    reason, W = _certificate(chain, x, r0)
    base = _sheets(chain, x, W, r0)
    for M, b in ((rot, np.zeros(chain.n)), (q @ rot, shift)):
        moved = pushforward_linear(chain, M, b)
        assert _certificate(moved, M @ x + b, r0)[0] == reason
        # the sheets over W's image: the scan's own plane of the moved chain
        # turns by rounding (up to 2e-13 rad on Cantor cells), which moves a
        # slope by as much
        got = _sheets(moved, M @ x + b, OrientedPlane(W.frame @ M.T), r0)
        if isinstance(base, str):
            assert got == base
            continue
        assert abs(got[0] - base[0]) <= 1e-12 * base[0]
        # the moved vertices carry rounding of 1e-16 of their size, which a
        # slope divides by the shortest edge (2e-4 on the Cantor graph)
        va = chain.vertex_array()
        shortest = np.min(np.linalg.norm(np.roll(va, 1, axis=1) - va, axis=2))
        slack = 1e-15 * (1.0 + np.max(np.abs(moved.verts))) / shortest
        assert abs(got[1] - base[1]) <= 1e-12 * max(got[1], base[1]) + slack


def _turned(chain, x, angle):
    """The verdict, reason and Lipschitz constant of the certificate at x
    with no Dini gate, the top cell's plane turned by ``angle`` within
    itself."""
    rep = multiscale_scan(chain, [x], r0=0.2, depth=2)
    top = rep.point_cells(0)[0]
    c, s = math.cos(angle), math.sin(angle)
    top.plane = OrientedPlane(np.array([[c, s], [-s, c]]) @ top.plane.frame)
    cert = extract_graph(rep, chain, 0, dini_budget=math.inf)
    return cert.ok, cert.reason, cert.lipschitz


@pytest.mark.parametrize("family", ["flat_disk", "cone_harmonic"])
def test_graph_certificate_does_not_depend_on_the_top_plane_frame(family):
    # the window is a round disk about x in the top plane, so no frame of
    # the plane enters; a square window laid out in the frame certified the
    # rim point as selected and refused it turned by pi/8 or pi/4
    chain = flat_disk(64)[0] if family == "flat_disk" else cone_harmonic(2, 0.05, 64)[0]
    va = chain.vertex_array()
    rng = np.random.default_rng(len(family))
    cases = [(np.array([0.88 * math.cos(math.pi / 64), 0.0, 0.0]), [0.0, math.pi / 8, math.pi / 4])] * (family == "flat_disk")
    for t in rng.integers(len(va), size=8).tolist():
        cases.append((rng.dirichlet(np.ones(3)) @ va[t], [0.0, *rng.uniform(0.0, 2 * math.pi, size=2)]))
    for x, angles in cases:
        (ok, reason, lips), *turned = [_turned(chain, x, a) for a in angles]
        for got in turned:
            assert got[:2] == (ok, reason), (x, angles)
            assert abs(got[2] - lips) <= 1e-12 * max(got[2], lips), (x, angles)
