"""The exact height sups over cylinders (``height_sup``) and balls
(``beta_inf``) against the 2^16-sample oracle, and their invariance under
turns of the chain in its base plane."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_oracle as oracle
from conftest import make_graph_disk, two_height_graph
from gmtepi.chains import _region_sups, pushforward_linear
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
