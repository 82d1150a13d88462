"""The exact height sups over cylinders (``height_sup``) and balls
(``beta_inf``) against the 2^16-sample oracle, and their invariance under
turns of the chain in its base plane; the stacked sup kernel and its
closed-form quartic roots against the companion-eigenvalue kernel."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_oracle as oracle
from conftest import make_graph_disk, two_height_graph
from gmtepi import chains
from gmtepi.chains import _arc_roots, _region_sups, pushforward_linear
from gmtepi.generators import cone_harmonic, flat_disk
from gmtepi.layers import height_sup
from gmtepi.moments import beta_numbers
from gmtepi.planes import OrientedPlane

H3 = OrientedPlane(np.eye(3)[:2])


def _embedded(chain, n, seed):
    """``chain`` in R^3 under a random isometry into R^n, with the image of
    the horizontal plane."""
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0][:, :3]
    return pushforward_linear(chain, Q, np.zeros(n)), OrientedPlane.from_span(H3.frame @ Q.T)


def _tilted_disk():
    # a tilt, an offset and a saddle: not a cone, so the max of each
    # triangle's height can lie inside its arc
    return make_graph_disk(48, lambda p: 0.05 + 0.1 * p[0] + 0.08 * p[0] * p[1] - 0.06 * p[1] ** 2, R=1.3)


FAMILIES = {
    "cone in R^3": lambda: (cone_harmonic(2, 0.05, 64)[0], H3),
    "cone in R^5": lambda: _embedded(cone_harmonic(2, 0.05, 64)[0], 5, 7),
    "two heights in R^4": lambda: (two_height_graph(), OrientedPlane(np.eye(4)[:2])),
    "tilted graph disk": lambda: (_tilted_disk(), H3),
    "tilted graph disk in R^5": lambda: _embedded(_tilted_disk(), 5, 3),
    "flat disk in R^5": lambda: _embedded(flat_disk(64)[0], 5, 11),
}
CODIM_2 = [name for name in FAMILIES if "R^4" in name or "R^5" in name]


def _balls(chain, seed):
    """Ball centres on and off the support, with radii and whether the
    centre lies on the support."""
    rng = np.random.default_rng(seed)
    va = chain.vertex_array()
    out = []
    for r in (0.25, 0.6):
        t = va[int(rng.integers(len(va)))]
        on = t[0] + 0.3 * (t[1] - t[0]) + 0.2 * (t[2] - t[0])
        out += [(on, r, True), (on + 0.1 * r * rng.normal(size=chain.n), r, False)]
    return out


@pytest.mark.parametrize("name", list(FAMILIES))
def test_height_sup_matches_the_sampled_oracle_from_above(name):
    chain, base = FAMILIES[name]()
    got = height_sup(chain, base)
    want, gap = oracle.sampled_height_sup(chain, base, 1.0)
    assert math.isfinite(got)
    assert want - 1e-15 <= got <= want + gap + 1e-15
    if name.startswith("flat"):
        assert got <= 1e-15


@pytest.mark.parametrize("name", list(FAMILIES))
def test_beta_inf_matches_the_sampled_oracle_from_above(name):
    chain, base = FAMILIES[name]()
    for x, r, on in _balls(chain, 5):
        got = beta_numbers(chain, x, r, base).beta_inf * r
        want, gap = oracle.sampled_ball_sup(chain, x, r, base)
        assert math.isfinite(got)
        assert want - 1e-15 * r <= got <= want + gap + 1e-15 * r
        if name.startswith("flat") and on:
            assert got <= 1e-15 * r


def _turned(chain, base, angle):
    """``chain`` turned by ``angle`` in the plane ``base``, which it keeps."""
    f0, f1 = base.frame
    turn = (
        np.eye(base.n)
        + (math.cos(angle) - 1.0) * (np.outer(f0, f0) + np.outer(f1, f1))
        + math.sin(angle) * (np.outer(f1, f0) - np.outer(f0, f1))
    )
    return pushforward_linear(chain, turn)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(CODIM_2), st.floats(-math.pi, math.pi))
@example("cone in R^5", 0.0123)
@example("cone in R^5", 0.3)
@example("cone in R^5", 1.0)
def test_height_sup_is_invariant_under_turns_in_the_base_plane(name, angle):
    chain, base = FAMILIES[name]()
    ref = height_sup(chain, base)
    assert abs(height_sup(_turned(chain, base, angle), base) - ref) <= 1e-12 * max(ref, 1e-3)


def test_the_embedded_cone_reads_its_amplitude():
    # the cylinder boundary meets the cone's rays at height 0.05 cos(2 theta)
    for angle in (0.0, 0.0123, 0.3, 1.0):
        chain, base = FAMILIES["cone in R^5"]()
        assert height_sup(_turned(chain, base, angle), base) == pytest.approx(0.05, rel=1e-12)


def _double_root_quartic(phi, beta):
    """``(lead, c3, roots)`` of a quartic of the kernel's form with roots
    ``u, u, v, w`` on the unit circle: its z^2 coefficient ``u^2 + 2u(v +
    w) + vw`` is 0 for ``u = e^{i phi}``, ``v = u e^{i beta}`` and ``w =
    -u (1 + 2 e^{i beta}) / (2 + e^{i beta})``."""
    u, e = np.exp(1j * phi), np.exp(1j * beta)
    roots = np.array([u, u, u * e, -u * (1 + 2 * e) / (2 + e)])
    lead = np.exp(-0.5j * np.sum(np.angle(roots)))
    return lead, -lead * np.sum(roots), roots


# (lead, c3) of self-inversive quartics lead z^4 + c3 z^3 + conj(c3) z +
# conj(lead), and the root distance each case is held to
SWITCH = 1e-8 * abs(0.6 - 0.8j)
QUARTICS = {
    "double root at e^{0.3i}": _double_root_quartic(0.3, 1.1)[:2] + (1e-7,),
    "double root at 1": _double_root_quartic(0.0, 2.0)[:2] + (1e-7,),
    "double root at e^{2i}": _double_root_quartic(2.0, -2.5)[:2] + (1e-7,),
    "roots at +-1 and +-i": (1j, 0j, 1e-12),
    "c3 = 0": (0.3 + 0.4j, 0j, 1e-12),
    "|lead| just above the switch": ((1 + 1e-3) * SWITCH * np.exp(0.7j), 0.6 - 0.8j, 1e-12),
    "|lead| just below the switch": ((1 - 1e-3) * SWITCH * np.exp(0.7j), 0.6 - 0.8j, 1e-12),
}


@pytest.mark.parametrize("name", list(QUARTICS))
def test_arc_roots_match_the_companion_eigenvalues(name):
    lead, c3, tol = QUARTICS[name]
    lead, c3 = np.array([lead], dtype=complex), np.array([c3], dtype=complex)
    got = _arc_roots(lead, c3)[0]
    want = list(oracle.companion_roots(lead, c3)[0])
    size = abs(lead[0]) * (1 + np.abs(got) ** 4) + abs(c3[0]) * (np.abs(got) ** 3 + np.abs(got))
    value = lead * got**4 + c3 * got**3 + np.conj(c3) * got + np.conj(lead)
    assert np.all(np.abs(value) <= 1e-14 * size)
    for z in got:
        k = int(np.argmin([abs(z - w) for w in want]))
        assert abs(z - want.pop(k)) <= tol * max(1.0, abs(z))


def test_arc_roots_find_the_double_roots():
    for phi, beta in ((0.3, 1.1), (0.0, 2.0), (2.0, -2.5)):
        lead, c3, roots = _double_root_quartic(phi, beta)
        got = np.sort_complex(_arc_roots(np.array([lead]), np.array([c3]))[0])
        assert np.max(np.abs(got - np.sort_complex(roots))) <= 1e-7


def _quartic_row(lead, c3):
    """A triangle over the base coordinates whose arc is the whole unit
    circle (its edges at vertex 0 are 9 e1 and 9 e2, so the kernel's QR
    frame is the identity), with heights ``h = b + P q`` in R^3 whose
    quartic is ``lead z^4 + c3 z^3 + ...``: ``P^T P`` has ``S01 = Re lead``
    and ``(S00 - S11) / 2 = Im lead``, and ``P^T b = (Im c3, Re c3)``."""
    s = abs(lead) + 1.0
    S = np.array([[s + lead.imag, lead.real], [lead.real, s - lead.imag]])
    P = np.linalg.cholesky(S).T
    b = np.append(np.linalg.solve(P.T, [c3.imag, c3.real]), 0.25)
    q = np.array([[-3.0, -3.0], [6.0, -3.0], [-3.0, 6.0]])
    return q, b + np.pad(q @ P.T, ((0, 0), (0, 1))), P, b


def test_degenerate_arcs_read_finite_values():
    # on the unit disk over the triangle (0, 0), (2, 0), (0, 2): zero and
    # constant heights, the degree-1 case h = q + (1/2, 1/2) with its max
    # inside the arc, |h| = |q| constant on the arc, and a zero-area triangle
    q = np.array([[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]] * 5)
    q[4] = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    h = np.zeros((5, 3, 2))
    h[1] = 0.5
    h[2] = q[2] + 0.5
    h[3] = q[3]
    h[4, :, 1] = 1.0
    got = _region_sups(q, h, np.ones(5))
    assert np.all(np.isfinite(got))
    assert got[0] == 0.0 and got[1] == pytest.approx(0.5 * math.sqrt(2), rel=1e-15)
    assert got[2] == pytest.approx(math.sqrt(1.5 + math.sqrt(2)), rel=1e-15)
    assert got[3] == pytest.approx(1.0, rel=1e-15) and got[4] == 1.0

    # the quartic cases: the kernel reads the max of |h| over the circle,
    # as the eigenvalue kernel does
    t = 2 * math.pi * np.arange(1 << 14) / (1 << 14)
    for name, (lead, c3, _tol) in QUARTICS.items():
        q, h, P, b = _quartic_row(complex(lead), complex(c3))
        got = _region_sups(q[None], h[None], np.ones(1))[0]
        with mock.patch.object(chains, "_arc_sups", oracle.arc_sups):
            want = _region_sups(q[None], h[None], np.ones(1))[0]
        sampled = np.max(np.linalg.norm(b[:2, None] + P @ np.stack([np.cos(t), np.sin(t)]), axis=0) ** 2 + b[2] ** 2)
        assert math.isfinite(got), name
        assert abs(got - want) <= 1e-12 * np.max(np.linalg.norm(h, axis=1)), name
        assert math.sqrt(sampled) - 1e-15 <= got <= math.sqrt(sampled) + np.linalg.norm(P, 2) * math.pi / len(t), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]), st.sampled_from([1, 2, 3]))
def test_region_sups_match_the_eigenvalue_kernel_row_by_row(seed, d, c):
    # 256 rows of random triangles, region radii and heights: an offset
    # plus a slope from 1e-9 to 3 of it, so the quartic's leading
    # coefficient runs from below the 1e-8 switch to the size of the next
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(256, 3, d))
    h = rng.normal(size=(256, 1, c)) + 10.0 ** rng.uniform(-9, 0.5, size=(256, 1, 1)) * rng.normal(size=(256, 3, c))
    r = rng.uniform(0.2, 2.0, size=256)
    got = _region_sups(q, h, r)
    with mock.patch.object(chains, "_arc_sups", oracle.arc_sups):
        want = _region_sups(q, h, r)
    assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.linalg.norm(h, axis=2), axis=1))
