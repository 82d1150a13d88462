"""The slice profile, the boundary-defect matcher and the stalk sum, which
run on a chain's arrays, against the term-by-term loops kept in
``scalar_oracle``: the same floats and the same coefficients, bit for bit."""

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi.chains import PolyChain, mass, slice_mass_profile
from gmtepi.epi import _residual_defect_mass
from gmtepi.generators import cone_harmonic, flat_disk, stacked_disks, two_sheet_cantor
from gmtepi.groups import cantor, integers
from gmtepi.layers import _stalk_coefficient, decompose_layers
from gmtepi.planes import OrientedPlane


def _near_duplicates(rng, group, k: int) -> PolyChain:
    """Random faces with k vertices in R^3, each followed by copies in the
    same or the reversed vertex order, moved by 1e-13 to 1e-8."""
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        face = rng.normal(size=(k, 3))
        rows.append(face)
        for _ in range(int(rng.integers(0, 4))):
            copy = face + 10.0 ** rng.uniform(-13, -8) * rng.normal(size=(k, 3))
            rows.append(copy[::-1] if rng.random() < 0.5 else copy)
    order = rng.permutation(len(rows))
    verts = np.array(rows)[order]
    if group.tag == "cantor":
        payload = rng.integers(0, 2, size=(len(verts), group.depth))
        payload[~payload.any(axis=1), 0] = 1
    else:
        payload = rng.choice([-2, -1, 1, 2], size=(len(verts), 1))
    return PolyChain(3, k - 1, group, verts=verts, payload=payload)


@pytest.mark.parametrize("group", [integers(), cantor(3)], ids=["integers", "cantor"])
@pytest.mark.parametrize("k", [2, 3])
def test_defect_matcher_is_the_greedy_loop(group, k):
    rng = np.random.default_rng(29 + k)
    cancelled = 0
    for _ in range(30):
        chain = _near_duplicates(rng, group, k)
        got = _residual_defect_mass(chain)
        assert got.hex() == oracle.residual_defect_mass(chain).hex()
        cancelled += got < mass(chain)
    assert cancelled >= 10  # the pairing does cancel faces the snap grid kept apart
    empty = PolyChain(3, k - 1, group)
    assert _residual_defect_mass(empty) == oracle.residual_defect_mass(empty) == 0.0


@pytest.mark.parametrize("name,chain", [
    ("disk_r5", flat_disk(64, n=5)[0]),
    ("cone", cone_harmonic(2, 0.05, 64)[0]),
    ("two_sheet_cantor", two_sheet_cantor(3, 48, 0.12)[0]),
    ("stacked", stacked_disks()[0]),
])
def test_slice_profile_is_the_per_simplex_loop(name, chain):
    rng = np.random.default_rng(7)
    tol = 1e-12
    for _ in range(3):
        a = rng.normal(size=chain.n)
        a /= np.linalg.norm(a)
        heights = (chain.verts @ a + 0.25).ravel()
        # levels through vertices, and within tol of them on either side
        at = rng.choice(heights, 12)
        levels = np.concatenate([np.linspace(heights.min() - 0.1, heights.max() + 0.1, 21),
                                 at, at + 0.5 * tol, at - 0.5 * tol, at + 2 * tol])
        got = slice_mass_profile(chain, (a, 0.25), levels, tol)
        want = oracle.slice_mass_profile(chain, (a, 0.25), levels, tol)
        assert [(t.hex(), v.hex()) for t, v in got] == [(t.hex(), v.hex()) for t, v in want]
        assert any(v > 0 for _, v in got)


def test_slice_profile_raises_where_the_loop_does():
    # the lower sheet lies in the level set {y = 0}
    chain = two_sheet_cantor(3, 48, 0.12)[0]
    for route in (slice_mass_profile, oracle.slice_mass_profile):
        with pytest.raises(ValueError, match="constant on a simplex"):
            route(chain, (np.array([0.0, 1.0]), 0.0), [0.5, 0.0])


@pytest.mark.parametrize("group,coeffs", [
    (integers(), [[3], [-3], [2], [-1]]),
    (integers(), [[1], [-1]]),
    (cantor(3), [[1, 0, 1], [1, 1, 0], [0, 1, 1]]),
], ids=["integers", "integers_zero", "cantor_zero"])
def test_stalk_sum_of_cancelling_layers_is_the_loop_sum(group, coeffs):
    disk = flat_disk(32)[0].verts
    verts = np.concatenate([disk + [0.0, 0.0, 0.1 * i] for i in range(len(coeffs))])
    payload = np.repeat(np.array(coeffs), len(disk), axis=0)
    chain = PolyChain(3, 2, group, verts=verts, payload=payload)
    decomp = decompose_layers(chain, OrientedPlane.from_span(np.eye(3)[:2]), radius=0.5)
    got = _stalk_coefficient(decomp, 0.5)
    assert got == oracle.stalk_coefficient(decomp, 0.5) == decomp.g0
    want = np.sum(coeffs, axis=0) % 2 if group.tag == "cantor" else np.sum(coeffs, axis=0)
    assert np.array_equal(np.atleast_1d(got.value), want)
