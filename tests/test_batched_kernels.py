"""The batched ball integrals, sup scan and support distances against the
per-simplex, per-point reference code in ``scalar_oracle``."""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from gmtepi.chains import _dist_to_simplices, _sup_pass, ball_mass, pushforward_linear
from gmtepi.generators import cone_harmonic, flat_disk, two_sheet_cantor
from gmtepi.layers import _unit_faces, disk_cover
from gmtepi.moments import chain_ball_moments
from gmtepi.mono import DensityProfile, alpha_m
from gmtepi.planes import _plane_grid
from gmtepi.quadrature import (
    _disk_clip,
    batch_ball_moments,
    batch_ball_slices,
    cell_ball_moments,
    disk_polygon_area,
    simplex_ball_mass,
    simplex_ball_moments,
    trig_monomial_integral,
)
from gmtepi.scan import multiscale_scan

REL = 1e-12
# The Green's-theorem split sums signed pieces of size ~ r^m, so both
# routes carry an absolute rounding floor of a few 1e-17 r^m even where
# the clipped measure s0 is zero; the comparison allows 1e-15 r^m on top.
FLOOR = 1e-15

FIELDS = (("s0", 0), ("s1", 1), ("s2", 2), ("t2", 2), ("u3", 3), ("t4", 4))


def _ball_cases(rng, v):
    """Balls that miss the simplex, contain it, cut it, are tangent to an
    edge's line at an interior point, and pass through a vertex."""
    m, n = v.shape[0] - 1, v.shape[1]
    centroid = v.mean(axis=0)
    diam = max(np.linalg.norm(v[i] - v[j]) for i in range(m + 1) for j in range(i))
    away = rng.normal(size=n)
    away /= np.linalg.norm(away)
    yield centroid + 3 * diam * away, 0.5 * diam  # miss
    yield centroid, 2 * diam  # contain
    yield centroid + 0.3 * diam * away, 0.6 * diam  # cut
    # tangent to the line of edge v0 v1 at its midpoint, from a direction
    # orthogonal to that edge
    e = v[1] - v[0]
    off = away - (away @ e) / (e @ e) * e
    off /= np.linalg.norm(off)
    r = 0.4 * diam
    yield 0.5 * (v[0] + v[1]) + r * off, r
    c = centroid + 0.2 * diam * away
    yield c, float(np.linalg.norm(c - v[-1]))  # through a vertex


def _random_simplices(rng, count):
    for _ in range(count):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(max(2, m), 7))
        yield rng.normal(size=(m + 1, n)) * rng.uniform(0.2, 3.0)


def _close(got, want, scale, floor=0.0):
    """Agreement within ``REL`` relative to ``scale`` plus the rounding
    floor ``FLOOR * floor``."""
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) <= REL * scale + FLOOR * floor


def test_simplex_ball_moments_and_masses_match_the_oracle():
    rng = np.random.default_rng(31)
    for v in _random_simplices(rng, 120):
        m = v.shape[0] - 1
        for c, r in _ball_cases(rng, v):
            got = simplex_ball_moments(v, c, r)
            want = oracle.simplex_ball_moments(v, c, r)
            for name, k in FIELDS:
                got_f, want_f = getattr(got, name), getattr(want, name)
                assert _close(got_f, want_f, want.s0 * r**k, r ** (m + k)), (name, v, c, r)
            mass = simplex_ball_mass(v, c, r)
            assert _close(mass, oracle.simplex_ball_mass(v, c, r), want.s0, r**m)


def test_sphere_slices_match_the_sampled_arcs_and_the_crossings():
    rng = np.random.default_rng(34)
    samples = 2**12
    for v in _random_simplices(rng, 120):
        m = v.shape[0] - 1
        for case, (c, r) in enumerate(_ball_cases(rng, v)):
            got = float(batch_ball_slices(v[None], c, r)[0])
            if m == 2:
                # at most three arcs, each end within one sample step
                want = float(oracle.sampled_arc_lengths(v[None], c, r, samples)[0])
                assert abs(got - want) <= 6 * (2 * math.pi / samples) * r, (v, c, r)
            elif case == 3:
                # a tangent segment meets the ball in a point or, by
                # rounding, in a sliver with two ends on the sphere
                assert got in (0.0, 2.0)
            else:
                assert got == oracle.segment_sphere_crossings(v, c, r), (v, c, r)


def test_disk_clip_primitives_match_the_oracle():
    rng = np.random.default_rng(32)
    for _ in range(200):
        k = int(rng.integers(3, 7))
        poly = rng.normal(size=(k, 2))
        c = rng.normal(size=2) * 0.5
        r = rng.uniform(0.05, 2.5)
        if rng.random() < 0.3:
            poly[0] = c  # a vertex at the centre, as in every fan
        area = oracle.disk_polygon_area(poly, c, r)
        assert _close(disk_polygon_area(poly, c, r), area, abs(area), r * r)
        # monomials of degree <= 4 about the centre, which reach r
        M = _disk_clip((poly - c)[None], np.array([r]), moments=True)[0]
        want = oracle.disk_polygon_monomials(poly - c, np.zeros(2), r)
        reach = max(r, 1.0) ** 4
        assert _close(M, want, abs(want[0, 0]) * reach, r * r * reach)
    for _ in range(200):
        a, b = (int(t) for t in rng.integers(0, 5, 2))
        phi0, dphi = rng.uniform(-4, 4), rng.uniform(-2 * math.pi, 2 * math.pi)
        want = oracle.trig_monomial_integral(a, b, phi0, dphi)
        assert abs(trig_monomial_integral(a, b, phi0, dphi) - want) <= 1e-14


def test_trig_monomials_reject_degrees_beyond_the_table():
    with pytest.raises(ValueError):
        trig_monomial_integral(5, 4, 0.0, 1.0)


def _families():
    disk = flat_disk(64)[0]
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.normal(size=(5, 5)))[0][:, :3]  # isometric embedding R^3 -> R^5
    disk5 = pushforward_linear(disk, q, rng.normal(size=5) * 0.1)
    return [disk5, two_sheet_cantor(3, 48, 0.12)[0], cone_harmonic(2, 0.05, 64)[0]]


@pytest.mark.parametrize("index", [0, 1, 2], ids=["flat_disk_r5", "two_sheet_cantor", "cone_harmonic"])
def test_chain_moments_and_profiles_match_the_oracle(index):
    chain = _families()[index]
    rng = np.random.default_rng(33 + index)
    va = chain.vertex_array()
    for _ in range(4):
        t = int(rng.integers(len(va)))
        x = va[t].mean(axis=0)
        r = float(rng.uniform(0.05, 0.6))
        got = chain_ball_moments(chain, x, r)
        want = oracle.chain_ball_moments(chain, x, r)
        for name, k in FIELDS:
            got_f, want_f = getattr(got, name), getattr(want, name)
            assert _close(got_f, want_f, want.s0 * r**k, len(va) * r ** (chain.m + k)), name
        want_mass = oracle.chain_ball_mass(chain, x, r)
        assert _close(ball_mass(chain, x, r), want_mass, want_mass, len(va) * r**chain.m)
        radii = np.geomspace(1e-3, r, 24)
        profile = DensityProfile.from_chain(chain, x, radii)
        am = alpha_m(chain.m)
        for rho, value in zip(radii, profile.values):
            want = oracle.chain_ball_mass(chain, x, rho) / (am * rho**chain.m)
            assert _close(value, want, abs(want), len(va))


@pytest.mark.parametrize("index", [0, 1, 2], ids=["flat_disk_r5", "two_sheet_cantor", "cone_harmonic"])
def test_each_ball_of_a_stack_is_its_one_ball_call(index):
    # five balls, the second without rows and the fourth missed by its
    # rows: each ball's sums are the one-ball call's floats, zero if empty
    chain = _families()[index]
    va, w = chain.vertex_array(), chain.coeff_norms()
    rng = np.random.default_rng(50 + index)
    centers = va[rng.integers(len(va), size=5)].mean(axis=1)
    centers[3] += 10.0
    radii = rng.uniform(0.1, 0.5, size=5)
    rows = [chain.near_ball(c, r) if i != 1 else np.zeros(0, dtype=np.int64) for i, (c, r) in enumerate(zip(centers, radii))]
    rows[3] = np.arange(4)
    stack = np.concatenate(rows)
    cells = np.repeat(np.arange(5), [len(r) for r in rows])
    got = cell_ball_moments(va[stack], centers, radii, w[stack], cells, 5, chain.frames(stack))
    for i, near in enumerate(rows):
        want = batch_ball_moments(va[near], centers[i], radii[i], w[near], chain.frames(near))
        for name, _k in FIELDS:
            assert np.array_equal(getattr(got[i], name), getattr(want, name)), (i, name)
    for name, _k in FIELDS:
        assert not np.any(getattr(got[1], name)) and not np.any(getattr(got[3], name))


@pytest.mark.parametrize("index", [0, 1, 2], ids=["flat_disk_r5", "two_sheet_cantor", "cone_harmonic"])
def test_sup_and_hausdorff_match_the_oracle_on_scan_cells(index):
    chain = _families()[index]
    va = chain.vertex_array()
    rng = np.random.default_rng(40 + index)
    points = [va[int(rng.integers(len(va)))].mean(axis=0) for _ in range(2)]
    rep = multiscale_scan(chain, points, r0=0.3, depth=1)
    checked = 0
    for (pi, k), cell in rep.cells.items():
        if cell.plane is None:
            continue
        x, r = rep.points[pi], cell.radius
        # the 64-point circle scan is a lower bound within its floor, exact
        # in codimension one
        want_sup, floor = oracle.sup_perp_in_ball(chain, x, r, cell.plane)
        assert want_sup - REL * r <= cell.beta_inf * r <= want_sup + floor + REL * r
        want_sup, floor = oracle.centred_sup_in_ball(chain, x, r)
        assert want_sup - REL * r <= cell.beta_inf_centered * r <= want_sup + floor + REL * r
        # the support half of the Hausdorff distance is the exact sup; the
        # plane half is the sheet height over a covered disk, which bounds
        # the grid's distances from above, and else the largest distance
        # from the plane ball's polar grid
        grid_oracle = oracle.plane_ball_to_support(chain, x, r, cell.plane, grid=24)
        if cell.covered:
            rows = np.arange(len(va))
            covered, top, *_ = _sup_pass(disk_cover(
                chain, rows, np.zeros_like(rows), x[None], np.array([r]), np.array([r]), cell.plane.frame[None],
                cell.plane.perp_frame()[None], _unit_faces(chain)[0],
            ))[0]
            assert covered[0] and cell.hausdorff == max(cell.beta_inf * r, top[0])
            assert top[0] >= grid_oracle - REL * r
        else:
            ball_grid = x + cell.plane.embed(_plane_grid(r, chain.m, 24))
            grid_half = float(np.max(_dist_to_simplices(chain.vertex_array(), ball_grid)))
            assert cell.hausdorff == max(cell.beta_inf * r, grid_half)
            assert abs(grid_half - grid_oracle) <= REL * r
        grid = x + rng.normal(size=(50, chain.n)) * r
        want = [oracle.dist_to_support(chain, p) for p in grid]
        assert np.max(np.abs(_dist_to_simplices(chain.vertex_array(), grid) - want)) <= REL * r
        checked += 1
    assert checked == len(rep.cells)
