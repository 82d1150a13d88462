"""Whole scan cells under scaling and under an isometric embedding R^3 -> R^5."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from gmtepi.chains import pushforward_linear
from gmtepi.generators import cone_harmonic, flat_disk, tilted_cone
from gmtepi.scan import multiscale_scan

FAMILIES = (flat_disk(16)[0], tilted_cone(0.1, 16)[0], cone_harmonic(2, 0.05, 16)[0])
TOL = 1e-10

cells = st.tuples(
    st.sampled_from(range(len(FAMILIES))),
    st.integers(0, 15),  # triangle of the fan
    st.floats(0.05, 0.5),  # barycentric weights of the point on it
    st.floats(0.05, 0.45),
    st.floats(0.05, 0.4),  # r0
)


def _cell(chain, x, r0):
    return multiscale_scan(chain, [x], r0=r0, depth=0).cell(0, 0)


def _point(chain, t, u, v):
    tri = chain.vertex_array()[t]
    return tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0])


def _measured(cell):
    # beta_2 is the square root of an exact quadratic quantity; near a flat
    # sheet it is the root of rounding noise, so compare its square
    return {
        "density_ratio": cell.density_ratio,
        "beta2_sq": cell.beta2**2,
        "beta_inf": cell.beta_inf,
        "beta_inf_centered": cell.beta_inf_centered,
        "eta": cell.eta,
    }


@settings(max_examples=8, deadline=None)
@given(cells, st.floats(0.25, 4.0))
def test_scan_cell_is_scale_invariant(where, s):
    k, t, u, v, r0 = where
    chain = FAMILIES[k]
    x = _point(chain, t, u, v)
    base = _measured(_cell(chain, x, r0))
    scaled = _measured(_cell(pushforward_linear(chain, s * np.eye(3)), s * x, s * r0))
    for name, value in base.items():
        assert abs(scaled[name] - value) <= TOL, name


@settings(max_examples=8, deadline=None)
@given(cells, st.integers(0, 2**32 - 1))
# a ball centred in a triangle's plane
@example(where=(0, 0, 0.5, 0.25, 0.10814850949285873), seed=0)
def test_scan_cell_survives_an_isometric_embedding(where, seed):
    k, t, u, v, r0 = where
    chain = FAMILIES[k]
    x = _point(chain, t, u, v)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(5, 5)))[0][:, :3]
    shift = rng.normal(size=5)
    chain5 = pushforward_linear(chain, q, shift)
    x5 = q @ x + shift
    cell3, cell5 = _cell(chain, x, r0), _cell(chain5, x5, r0)
    base, moved = _measured(cell3), _measured(cell5)
    for name in ("density_ratio", "beta2_sq"):
        assert abs(moved[name] - base[name]) <= TOL, name
    # both beta_inf values are exact sups in both codimensions
    for name in ("beta_inf", "beta_inf_centered"):
        assert abs(moved[name] - base[name]) <= TOL, name
    # eta is compared on covered cells, whose plane-to-support half is the
    # sheet height over the disk, which no frame enters; an uncovered cell
    # samples it on a polar grid laid out in the selected frame, which a
    # general isometry turns
    assert cell3.covered == cell5.covered
    if cell3.covered:
        assert abs(moved["eta"] - base["eta"]) <= TOL, "eta"
