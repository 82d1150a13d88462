"""Layer decomposition of a chain over a base plane, and cylindrical excess.

A chain in general position with respect to a base plane ``V`` is a
finite stack of affine graphs: every simplex projects injectively and
orientation-preservingly onto ``V`` and is therefore the graph of an
affine map from its projected domain into ``V^perp``.  This module
recovers those maps, checks that the projected boundary misses the disk,
so that by the constancy theorem the stalk sum of coefficients is a
constant ``g0`` there, and measures the cylindrical excess

    Exc(T, V, B) = M(T over the cylinder of B) - ||g0|| vol(B),

exactly: each term is a constant Jacobian times an exact polygon-disk
intersection area.  Multiplicity statistics on the overlap set ``E2``
are computed from pairwise domain intersections with an inclusion-
exclusion truncation at triples (the truncation residual is reported),
every pair and every triple clipped in stacked array passes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import (PolyChain, _accumulate, _clip_polygons, _dist_to_simplices, _dists, _payload_coefficient,
                     _region_sups, _sup_pass, _welded_classes, boundary, merge_terms)
from .groups import NormedCoefficient, group_norm, integers, zero
from .planes import OrientedPlane
from .quadrature import _disk_clip, _norms, _rowdot, disk_polygon_areas

__all__ = [
    "GeneralPositionError",
    "align_base_to_chain",
    "ConstancyError",
    "boundary_clearance",
    "LayerDecomposition",
    "decompose_layers",
    "cylindrical_excess",
    "size_excess",
    "MultiplicityReport",
    "multiplicity_stats",
    "height_sup",
    "disk_sheets",
]


class GeneralPositionError(ValueError):
    """A simplex fails to project injectively and orientation-preservingly."""


def align_base_to_chain(base: OrientedPlane, chain: PolyChain) -> OrientedPlane:
    """Flip one frame row if the chain projects orientation-reversingly.

    Plane selection from a quadratic form fixes no in-plane handedness, so
    graph decompositions align the base to the chain first.  The sign is
    the first non-degenerate term's projected edge determinant, in every
    dimension m."""
    return _aligned(base, chain.verts)


def _aligned(base: OrientedPlane, verts: np.ndarray) -> OrientedPlane:
    """:func:`align_base_to_chain` for the simplices ``verts``."""
    dom = verts @ base.frame.T
    det = np.linalg.det(dom[:, 1:] - dom[:, :1])
    firm = np.flatnonzero(np.abs(det) >= 1e-14)
    if len(firm) and det[firm[0]] * base.orientation < 0:
        f = base.frame.copy()
        f[-1] = -f[-1]
        return OrientedPlane(f, base.orientation)
    return base


class ConstancyError(ValueError):
    """The stalk coefficient sum is not known to be constant on the disk."""


@dataclass
class LayerDecomposition:
    """Stack of affine graph layers ``y(x) = A[t] x + b[t]`` over a base
    plane, one per term ``t`` of ``chain``, held as stacked arrays.  The
    affine maps are solved on first access."""

    base: OrientedPlane
    perp: np.ndarray  # (n-m, n) orthonormal complement frame
    chain: PolyChain
    domains: np.ndarray  # (T, m+1, m) projected simplices, base coordinates
    heights: np.ndarray  # (T, m+1, n-m) vertex heights over the domains
    jac: np.ndarray  # (T,) area factors sqrt(det(I + A^T A))
    weights: np.ndarray  # (T,) coefficient norms
    g0: NormedCoefficient
    g0_norm: float
    clearance: float | None = None  # the boundary clearance, when the constancy check measured it

    @property
    def m(self) -> int:
        return self.base.m

    @functools.cached_property
    def _affine(self) -> tuple[np.ndarray, np.ndarray]:
        return _affine_maps(self.domains, self.heights)

    A = property(lambda self: self._affine[0], doc="(T, n-m, m) linear parts")
    b = property(lambda self: self._affine[1], doc="(T, n-m) offsets")


# probe points for the stalk sum, in units of the disk radius: radius 1/2
# at angles 1 + 2.4 j rad, so none lies on an axis or on the rays of a
# regular fan; m = 1 uses the first coordinate
_PROBES = 0.5 * np.stack([np.cos(1.0 + 2.4 * np.arange(8)), np.sin(1.0 + 2.4 * np.arange(8))], axis=1)

#: A probe point this close to a domain edge is skipped.
EDGE_TOL = 1e-9

#: Rows times columns of one stacked temporary: larger inputs go in chunks.
_CHUNK = 1 << 13

#: An overlap piece below this share of the ball's volume is rounding of
#: the clip and area passes (about 45 ulps of r^2) and counts as empty.
_SLIVER = 1e-14


def _affine_maps(domains: np.ndarray, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The linear parts (T, n-m, m) and offsets (T, n-m) of the affine maps
    that take each simplex's base coordinates ``domains`` (T, m+1, m) to its
    ``heights`` (T, m+1, n-m), solved from the m+1 vertex correspondences."""
    m = domains.shape[2]
    X = np.concatenate([domains, np.ones(domains.shape[:2] + (1,))], axis=2)
    sol = np.linalg.solve(X, heights)  # (T, m+1, n-m)
    return np.swapaxes(sol[:, :m], 1, 2), sol[:, m]


def boundary_clearance(chain: PolyChain, base: OrientedPlane) -> float:
    """Distance from the origin to the projected boundary ``pi_# bd chain``
    of an m-chain, m in {1, 2}.

    The faces of ``boundary(chain)`` (already merged on the snap grid) are
    projected into base coordinates and merged again, so faces whose
    projections cancel drop out.  The distance to what is left is exact
    (:func:`gmtepi.chains._dist_to_simplices`: segments for m = 2, points
    for m = 1), and ``inf`` when no boundary is left."""
    bd = boundary(chain)
    m = chain.m
    faces = merge_terms(PolyChain(m, m - 1, chain.group, verts=bd.verts @ base.frame.T, payload=bd.payload))
    return float(_dist_to_simplices(faces.verts, np.zeros(m))[0])


def _stalk_coefficient(decomp: LayerDecomposition, radius: float) -> NormedCoefficient:
    """Sum of the coefficients of the domains covering the first probe
    point of the disk that lies off every domain edge, one group sum over
    their payload rows."""
    dom = decomp.domains
    m = decomp.m
    for x in radius * _PROBES[:, :m]:
        if m == 1:
            ends = dom[:, :, 0]
            if np.min(np.abs(ends - x[0])) <= EDGE_TOL:
                continue
            hits = np.flatnonzero((ends.min(axis=1) < x[0]) & (x[0] < ends.max(axis=1)))
        else:
            e = np.roll(dom, -1, axis=1) - dom  # edge i runs from vertex i to vertex i + 1
            rel = x - dom
            t = np.clip(np.sum(rel * e, axis=2) / np.sum(e * e, axis=2), 0.0, 1.0)
            if np.min(np.linalg.norm(rel - t[..., None] * e, axis=2)) <= EDGE_TOL:
                continue
            cross = e[..., 0] * rel[..., 1] - e[..., 1] * rel[..., 0]
            hits = np.flatnonzero(np.all(cross > 0, axis=1) | np.all(cross < 0, axis=1))
        group, ones = decomp.chain.group, np.ones(len(hits), dtype=np.int64)
        acc = _accumulate(group, decomp.chain.payload[hits], ones, np.zeros_like(ones), 1)
        return _payload_coefficient(group, acc[0])
    raise ConstancyError(f"every probe point lies within {EDGE_TOL} of a domain edge")


def decompose_layers(
    chain: PolyChain,
    base: OrientedPlane,
    radius: float = 1.0,
    check_constancy: bool = True,
) -> LayerDecomposition:
    """Express a general-position chain as a stack of affine graphs over
    ``base`` and determine the constant stalk coefficient ``g0``.

    Every term is decomposed in the same stacked array passes.  Raises
    :class:`GeneralPositionError` if some simplex projects degenerately or
    orientation-reversingly.  By the constancy theorem the projection is
    ``g0`` times the disk of the given radius when the projected boundary
    misses the disk, so :class:`ConstancyError` is raised when
    :func:`boundary_clearance` is at most ``radius``; otherwise ``g0`` is
    the stalk sum at one probe point of the disk.
    """
    if base.n != chain.n or base.m != chain.m:
        raise ValueError("base plane shape mismatch")
    perp = base.perp_frame()
    decomp = LayerDecomposition(
        base, perp, chain, *_layer_stack(chain.verts, chain.volumes(), base, perp), chain.coeff_norms(),
        zero(chain.group), 0.0,
    )
    if check_constancy and len(chain):
        clearance = decomp.clearance = boundary_clearance(chain, base)
        if clearance <= radius:
            raise ConstancyError(
                f"projected boundary comes within {clearance:.6g} of the origin, "
                f"inside the disk of radius {radius:.6g}"
            )
        decomp.g0 = _stalk_coefficient(decomp, radius)
        decomp.g0_norm = group_norm(decomp.g0)
    return decomp


def _layer_stack(
    verts: np.ndarray, volumes: np.ndarray, base: OrientedPlane, perp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base coordinates (T, m+1, m), heights (T, m+1, n-m) and area
    factors (T,) of the layers of :func:`decompose_layers` over the
    simplices ``verts`` of m-volumes ``volumes``, with the complement frame
    ``perp`` (rows) of ``base`` given, without the constancy check."""
    m = base.m
    dom = verts @ base.frame.T  # (T, m+1, m)
    edges = dom[:, 1:] - dom[:, :1]  # (T, m, m), one edge per row
    if m == 1:
        det = edges[:, 0, 0]
    else:
        e1, e2 = edges[:, 0], edges[:, 1]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    degenerate = np.abs(det) / math.factorial(m) < 1e-14 * np.maximum(volumes, 1e-30)
    bad = np.flatnonzero(degenerate | (det * base.orientation <= 0))
    if len(bad):
        if degenerate[bad[0]]:
            raise GeneralPositionError("projected simplex is degenerate")
        raise GeneralPositionError("projection is orientation reversing")
    # the Jacobian factor from the gradient G of each affine height, taken
    # by the adjugate of the edge matrix: det(I + G^T G) is Cauchy-Binet's
    # sum of the squared m x m minors of [I; G]
    heights = verts @ perp.T  # (T, m+1, n-m)
    rise = heights[:, 1:] - heights[:, :1]
    if m == 1:
        grad = rise[:, 0] / det[:, None]
        jac_sq = 1.0 + np.sum(grad * grad, axis=1)
    else:
        h1, h2 = rise[:, 0], rise[:, 1]
        gx = (h1 * e2[:, 1:] - h2 * e1[:, 1:]) / det[:, None]
        gy = (-h1 * e2[:, :1] + h2 * e1[:, :1]) / det[:, None]
        minors = gx[:, :, None] * gy[:, None, :] - gx[:, None, :] * gy[:, :, None]
        wedge = 0.5 * np.sum(minors * minors, axis=(1, 2))
        jac_sq = 1.0 + np.sum(gx * gx, axis=1) + np.sum(gy * gy, axis=1) + wedge
    return dom, heights, np.sqrt(jac_sq)


def _covered_mass(
    decomp: LayerDecomposition, center: np.ndarray | None, radius: float, weights: np.ndarray
) -> float:
    """``sum_i weights_i jac_i vol(D_i ∩ B)`` over the base ball ``B``.

    For m = 2 a triangle with every vertex inside the disk contributes its
    cross-product area and any other is clipped exactly by
    :func:`disk_polygon_areas`; for m = 1 the domains are intervals.  The
    terms are summed in one ``np.sum``."""
    dom = decomp.domains if center is None else decomp.domains - center
    if decomp.m == 1:
        size = np.maximum(
            np.minimum(dom.max(axis=(1, 2)), radius) - np.maximum(dom.min(axis=(1, 2)), -radius), 0.0
        )
    else:
        size = 0.5 * np.abs(
            (dom[:, 1, 0] - dom[:, 0, 0]) * (dom[:, 2, 1] - dom[:, 0, 1])
            - (dom[:, 1, 1] - dom[:, 0, 1]) * (dom[:, 2, 0] - dom[:, 0, 0])
        )
        cut = np.max(np.linalg.norm(dom, axis=2), axis=1) > radius
        size[cut] = np.abs(disk_polygon_areas(dom[cut], np.zeros(2), radius))
    hit = size > 0.0
    return float(np.sum(weights[hit] * decomp.jac[hit] * size[hit]))


def _ball_volume(m: int, radius: float) -> float:
    if m == 1:
        return 2.0 * radius
    return math.pi * radius * radius


def cylindrical_excess(
    decomp: LayerDecomposition,
    center: np.ndarray | None = None,
    radius: float = 1.0,
) -> float:
    """Exact mass excess of the stack over the cylinder of a base ball.

    ``sum_i ||g_i|| sqrt(1 + (J y^i)^2) vol(D_i ∩ B) - ||g0|| vol(B)``;
    nonnegative and additive over disjoint base regions.  Requires a
    nonzero stalk coefficient (``g0 = 0`` after cancellation leaves the
    excess meaningless and is rejected).
    """
    if decomp.g0.is_zero:
        raise ConstancyError("stalk coefficient g0 is zero; excess undefined")
    mass = _covered_mass(decomp, center, radius, decomp.weights)
    return mass - decomp.g0_norm * _ball_volume(decomp.m, radius)


def size_excess(
    decomp: LayerDecomposition,
    center: np.ndarray | None = None,
    radius: float = 1.0,
) -> float:
    """Excess of the carrier's Hausdorff volume over the base ball volume."""
    ones = np.ones(len(decomp.domains))
    return _covered_mass(decomp, center, radius, ones) - _ball_volume(decomp.m, radius)


@dataclass
class MultiplicityReport:
    """Overlap statistics on the multi-layer set ``E2`` in the base ball.

    ``bounds_asserted`` is only set when the stated hypotheses hold; the
    truncation residual bounds the inclusion-exclusion error from
    overlaps of order four and higher.
    """

    e2_measure: float
    int_count: float
    int_coeff_norm: float
    mass_excess: float
    size_excess: float
    eps_mass: float
    truncation_residual: float
    density_hypothesis: bool
    hypotheses_ok: bool
    bound_count: float = 0.0
    bound_coeff: float = 0.0
    bound_size: float = 0.0
    notes: list[str] = field(default_factory=list)


def _inward_normals(polys: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Normals (..., k, 2) of the edges from vertex i to i + 1 of convex
    polygons (..., k, 2), each turned towards the point ``inside`` (..., 2)
    of its polygon."""
    t = np.roll(polys, -1, axis=-2) - polys
    nrm = np.stack([-t[..., 1], t[..., 0]], axis=-1)
    nrm[_rowdot(inside[..., None, :] - polys, nrm) < 0] *= -1.0
    return nrm


def _polygon_arcs(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start angles in [0, 2 pi) and counterclockwise angular lengths of
    the arcs that a polygon's edges subtend at the origin."""
    ang = np.mod(np.arctan2(poly[:, 1], poly[:, 0]), 2 * math.pi)
    return ang, np.mod(np.roll(ang, -1) - ang, 2 * math.pi)


def _angular_windows(dom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angular intervals ``[lo, hi]`` holding the directions of every point
    of each projected triangle ``dom`` (T, 3, 2).

    Vertices within ``1e-12 max|dom|`` of the origin have no direction and
    are dropped (the points near them deviate from the window by about
    1e-12 rad at the radii where a polygon edge can cut).  A triangle
    whose projection contains the origin gets the full circle."""
    x, y = dom[..., 0], dom[..., 1]
    r = np.sqrt(x * x + y * y)
    keep = r > 1e-12 * r.max(axis=1, keepdims=True)
    cross = x * np.roll(y, -1, axis=1) - y * np.roll(x, -1, axis=1)
    full = ~keep.any(axis=1) | (
        keep.all(axis=1) & (np.all(cross >= 0, axis=1) | np.all(cross <= 0, axis=1))
    )
    rows = np.arange(len(dom))
    ang = np.mod(np.arctan2(y, x), 2 * math.pi)
    # a dropped vertex repeats the farthest vertex's angle: a zero gap
    ang = np.where(keep, ang, ang[rows, np.argmax(r, axis=1)][:, None])
    a = np.sort(ang, axis=1)
    gaps = np.diff(np.concatenate([a, a[:, :1] + 2 * math.pi], axis=1), axis=1)
    j = np.argmax(gaps, axis=1)
    lo = a[rows, (j + 1) % 3]
    hi = lo + (2 * math.pi - gaps[rows, j])
    return np.where(full, 0.0, lo), np.where(full, 2 * math.pi, hi)


def _arcs_meet(poly_ang: np.ndarray, arcs: np.ndarray, lo, hi) -> np.ndarray:
    """Whether each arc (start ``poly_ang``, counterclockwise length
    ``arcs``) meets the angular interval ``[lo, hi]``, with 1e-9 rad of
    slack; broadcasts over the arcs and the intervals.

    For a convex polygon star-shaped about the origin, a point lies inside
    exactly when it lies in the half-plane of the edge whose arc holds its
    direction; clipping a domain by the edges whose arcs meet its angular
    window alone is therefore exact."""
    slack = 1e-9
    starts_in = np.mod(poly_ang - lo, 2 * math.pi) <= (hi - lo) + slack
    covers_lo = np.mod(lo - poly_ang, 2 * math.pi) <= arcs + slack
    return starts_in | covers_lo


def _meeting_arcs(starts: np.ndarray, lengths: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(rows, cols)`` of interval ``[lo[i], hi[i]]`` and arc
    (``starts``, ``lengths``) that meet by :func:`_arcs_meet`, by row and
    then in arc order: the nonzero entries of the dense ``(R, arcs)`` mask.

    The predicate runs on candidates only: the arcs whose start a sorted
    search finds in ``[lo - longest - pad, hi + pad]`` cyclically, with
    ``longest`` the longest arc (a full circle takes them all) and ``pad``
    above the predicate's slack plus the rounding of its angles."""
    tau, pad, R = 2 * math.pi, 1e-8, len(lo)
    order = np.argsort(np.mod(starts, tau), kind="stable")
    ring = np.mod(starts[order], tau)
    ring = np.concatenate([ring, ring + tau])
    a = lo - lengths.max(initial=0.0) - pad
    width, a = hi + pad - a, np.mod(a, tau)
    # a range this wide holds every start; a narrower one holds each at most once
    whole = width >= tau - pad
    i0 = np.where(whole, 0, np.searchsorted(ring, a))
    n = np.where(whole, len(starts), np.searchsorted(ring, a + width, side="right") - i0)
    rows = np.repeat(np.arange(R), n)
    cols = order[(i0[rows] + np.arange(len(rows)) - np.repeat(np.cumsum(n) - n, n)) % max(len(starts), 1)]
    hit = _arcs_meet(starts[cols], lengths[cols], lo[rows], hi[rows])
    return np.divmod(np.sort(rows[hit] * len(starts) + cols[hit]), max(len(starts), 1))


def _padded_columns(rows: np.ndarray, cols: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries ``cols`` of each of ``count`` rows, given by row in
    order, left-aligned: ``(idx, valid)`` (count, C), the padding being
    column 0 with ``valid`` False."""
    at = np.arange(len(rows)) - np.searchsorted(rows, rows)
    idx = np.zeros((count, int(at.max(initial=-1)) + 1), dtype=np.int64)
    valid = np.zeros(idx.shape, dtype=bool)
    idx[rows, at] = cols
    valid[rows, at] = True
    return idx, valid


def _cylinder_facets(base: OrientedPlane, poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ambient anchors and unit inward normals (k, n) of the facets of the
    cylinder over ``poly`` (k, m) in ``base``: the polygon's edges for
    m = 2, the interval's ends for m = 1."""
    if base.m == 1:
        nrm = np.sign(poly.mean(axis=0) - poly)
    else:
        nrm = _inward_normals(poly, poly.mean(axis=0))
        nrm = nrm / np.sqrt(_rowdot(nrm, nrm))[:, None]
    return base.embed(poly), base.embed(nrm)


def _clip_to_cylinder(rows: np.ndarray, dom: np.ndarray, poly: np.ndarray, anchors: np.ndarray,
                      normals: np.ndarray, outside: bool = False):
    """Clip m-simplices ``rows`` (T, m+1, D) with base coordinates ``dom``
    to the cylinder over a convex region about the origin with corners
    ``poly`` (k, m), a polygon or an interval; facet e keeps ``(p -
    anchors[e]) . normals[e] >= 0``.  For m = 2 a row meets only the edges
    whose arcs meet its angular window (:func:`_meeting_arcs`), in edge
    order.  Each column of these edge lists is one :func:`_clip_polygons`
    step over all rows, and the stack widens only when its largest polygon
    grows; a polygon left with at most m vertices is not clipped on.
    Returns the inside ``(polys, counts)`` and, if ``outside``, the
    ``(polys, counts, rows)`` cut off per column, rows ascending."""
    T, m, k = len(rows), rows.shape[1] - 1, len(poly)
    if m == 2:
        row, edge = _meeting_arcs(*_polygon_arcs(poly), *_angular_windows(dom))
    else:
        row, edge = np.repeat(np.arange(T), k), np.tile(np.arange(k), T)
    # column j holds the j-th edge of every row's list, rows ascending
    j = np.arange(len(row)) - np.searchsorted(row, row)
    polys, counts, cut = np.array(rows), np.full(T, m + 1), []
    for col in np.split(np.argsort(j, kind="stable"), np.cumsum(np.bincount(j))[:-1]):
        live = counts[row[col]] > m
        act, e = row[col][live], edge[col][live]
        part = polys[act, : counts[act].max(initial=1)]
        if outside:
            cut.append((*_clip_polygons(part, counts[act], anchors[e], -normals[e]), act))
        clipped, counts[act] = _clip_polygons(part, counts[act], anchors[e], normals[e])
        # the stack is as wide as its largest polygon, not one column per edge
        if clipped.shape[1] > polys.shape[1]:
            polys = np.pad(polys, ((0, 0), (0, clipped.shape[1] - polys.shape[1]), (0, 0)))
        polys[act, : clipped.shape[1]] = clipped
    return (polys, counts), cut


def _clipped_areas(polys: np.ndarray, counts: np.ndarray, clippers: np.ndarray, center: np.ndarray,
                   radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Areas (R,) inside the disk of convex polygons, the first ``counts``
    rows of ``polys`` (R, V, 2), clipped by the triangles ``clippers``
    (R, 3, 2), one stacked :func:`_clip_polygons` step per edge.

    A row left with fewer than three vertices after a step is dropped and
    reads 0, and so does an area below :data:`_SLIVER` of the disk's.  Also
    returns the indices, polygons and counts of the rows that are left."""
    normals = _inward_normals(clippers, clippers.mean(axis=1))
    rows = np.arange(len(polys))
    for e in range(clippers.shape[1]):
        polys, counts = _clip_polygons(polys, counts, clippers[rows, e], normals[rows, e])
        live = counts >= 3
        rows, polys, counts = rows[live], polys[live], counts[live]
    areas = np.zeros(len(clippers))
    # one call per vertex count: padded rows would regroup numpy's sums
    for v in np.unique(counts).tolist():
        at = counts == v
        areas[rows[at]] = np.abs(disk_polygon_areas(polys[at, :v], center, radius))
    areas[areas <= _SLIVER * _ball_volume(2, radius)] = 0.0
    return areas, rows, polys, counts


def _overlaps(dom: np.ndarray, center: np.ndarray, radius: float):
    """Areas inside the base ball of the pairwise domain intersections
    ``D_i ∩ D_j``, i < j, in (i, j) order, and for m = 2 of the triple
    intersections ``D_i ∩ D_j ∩ D_l``, l > j, of the pairs of positive
    area, in (i, j, l) order; a piece below :data:`_SLIVER` of the ball's
    volume reads 0 and starts no triples.  Returns ``(pairs (P, 2), pair
    areas (P,), triples (Q, 3), triple areas (Q,))``; the pairs go in
    chunks of ``_CHUNK // 3`` rows, and so do the triples of each chunk."""
    k = len(dom)
    I, J = np.triu_indices(k, 1)
    pairs = np.stack([I, J], axis=1)
    if dom.shape[2] == 1:
        lo, hi = dom[:, :, 0].min(axis=1), dom[:, :, 0].max(axis=1)
        c = float(center[0])
        area = np.minimum(np.minimum(hi[I], hi[J]), c + radius) - np.maximum(np.maximum(lo[I], lo[J]), c - radius)
        area = np.where(area > _SLIVER * _ball_volume(1, radius), area, 0.0)
        return pairs, area, np.zeros((0, 3), dtype=np.int64), np.zeros(0)
    step = _CHUNK // 3
    pair_area, triples, triple_area = [np.zeros(0)], [np.zeros((0, 3), dtype=np.int64)], [np.zeros(0)]
    for s in range(0, len(I), step):
        i, j = I[s : s + step], J[s : s + step]
        area, rows, polys, counts = _clipped_areas(dom[i], np.full(len(i), 3), dom[j], center, radius)
        pair_area.append(area)
        pos = area[rows] > 0
        rows, polys, counts = rows[pos], polys[pos], counts[pos]
        # each positive pair meets every later layer l = j + 1, ..., k - 1
        n = k - 1 - j[rows]
        owner = np.repeat(np.arange(len(rows)), n)
        third = j[rows][owner] + 1 + np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n)
        for t in range(0, len(owner), step):
            o, l3 = owner[t : t + step], third[t : t + step]
            triples.append(np.stack([i[rows][o], j[rows][o], l3], axis=1))
            triple_area.append(_clipped_areas(polys[o], counts[o], dom[l3], center, radius)[0])
    return pairs, np.concatenate(pair_area), np.concatenate(triples), np.concatenate(triple_area)


def multiplicity_stats(
    decomp: LayerDecomposition,
    eps_mass: float,
    center: np.ndarray | None = None,
    radius: float = 1.0,
) -> MultiplicityReport:
    """Estimate the overlap region and its integrals, and check the
    multiplicity bounds ``2 eps`` / ``3 ||g0|| eps`` / ``5 eps``.

    The hypotheses (mass excess at most ``||g0|| eps_mass``, all layer
    coefficients at least three quarters of ``||g0||``) are verified; on
    failure the report carries the measurements but no asserted bounds.
    """
    m = decomp.m
    c = np.zeros(m) if center is None else np.asarray(center, dtype=float)
    mu = cylindrical_excess(decomp, c, radius)
    sig = size_excess(decomp, c, radius)
    k = len(decomp.domains)
    pairs, pair_area, triples, triple_area = _overlaps(decomp.domains, c, radius)
    # each positive area is added in the order (i, j) or (i, j, l)
    hit = pair_area > 0
    pair_total = sum(pair_area[hit].tolist(), 0.0)
    pair_per = np.zeros(k)
    np.add.at(pair_per, pairs[hit].ravel(), np.repeat(pair_area[hit], 2))
    hit = triple_area > 0
    triple_total = sum(triple_area[hit].tolist(), 0.0)
    triple_per = np.zeros(k)
    np.add.at(triple_per, triples[hit].ravel(), np.repeat(triple_area[hit], 3))
    e2 = max(0.0, pair_total - 2.0 * triple_total)
    int_count = max(0.0, 2.0 * pair_total - 3.0 * triple_total)
    int_coeff = sum((decomp.weights * np.maximum(pair_per - triple_per, 0.0)).tolist())
    g0n = decomp.g0_norm
    density_ok = bool(np.all(decomp.weights >= 0.75 * g0n - 1e-12))
    mass_ok = mu <= g0n * eps_mass + 1e-12
    report = MultiplicityReport(
        e2_measure=e2,
        int_count=int_count,
        int_coeff_norm=int_coeff,
        mass_excess=mu,
        size_excess=sig,
        eps_mass=eps_mass,
        truncation_residual=triple_total,
        density_hypothesis=density_ok,
        hypotheses_ok=density_ok and mass_ok,
    )
    if not mass_ok:
        report.notes.append("mass excess exceeds ||g0|| eps_mass; bounds not asserted")
    if not density_ok:
        report.notes.append("layer coefficient below (3/4)||g0||; bounds not asserted")
    if report.hypotheses_ok:
        # size excess <= 5 eps; count bound from the measured size excess;
        # coefficient bound from max{mass excess, ||g0|| size excess}
        report.bound_size = 5.0 * eps_mass
        eps_size = max(sig, 0.0)
        report.bound_count = 2.0 * eps_size
        report.bound_coeff = 3.0 * max(mu, g0n * eps_size)
    return report


def _spectral_norms(A: np.ndarray) -> np.ndarray:
    """``||A_i||_2`` of a stack (T, c, m), m <= 2, in closed form: the
    column's length for m = 1, and for m = 2 the root of the larger
    eigenvalue of the Gram matrix ``[[a, b], [b, d]] = A_i^T A_i``."""
    if A.shape[2] == 1:
        return np.sqrt(np.sum(A[:, :, 0] ** 2, axis=1))
    a, b, d = (np.sum(A[:, :, i] * A[:, :, j], axis=1) for i, j in ((0, 0), (0, 1), (1, 1)))
    return np.sqrt(0.5 * (a + d) + np.hypot(0.5 * (a - d), b))


def _unit_faces(chain: PolyChain) -> tuple[tuple, tuple]:
    """The boundaries of the chain's two unit-coefficient carriers, from one
    weld of its rows and kept in its cache: the vertices (F, m, n) and
    diameters (F,) of the faces of the stored carrier, every term with
    coefficient 1; and the rows of the merged carrier, one term per
    coincidence class whose coefficients do not sum to zero (None where no
    two terms coincide and it is the stored one), with its faces.

    The graph certificate counts sheets on the merged carrier, so that its
    verdict depends on the current and not on how it is stored.  The cover
    test reads the stored one: at a branch point, where two stored copies
    of one sheet part, its carrier has no boundary, and the merged one
    does."""
    if "unit_faces" not in chain._cache:
        ids, first, acc = _welded_classes(chain)
        unit = PolyChain(chain.n, chain.m, integers(), verts=chain.verts, payload=np.ones((len(chain), 1), dtype=np.int64))

        def faces(rows) -> tuple[np.ndarray, np.ndarray]:
            f = boundary(unit._from_rows(unit.verts[rows], unit.payload[rows], unit._cache["gram"][rows], ids[rows])).verts
            return f, np.max(np.linalg.norm(f - f[:, :1], axis=2), axis=1)

        stored = faces(slice(None))
        rows = first[np.any(acc != 0, axis=1)]
        chain._cache["unit_faces"] = stored, (None, *stored) if len(rows) == len(chain) else (rows, *faces(rows))
    return chain._cache["unit_faces"]


def _frame_coords(v: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Coordinates (R, k, d) of points ``v`` (R, k, n) in the row frames
    ``frames`` (R, d, n), one dot product per entry, so each row's floats
    do not depend on the rows stacked with it."""
    return _rowdot(v[:, :, None, :], frames[:, None])


def disk_cover(
    chain: PolyChain, rows: np.ndarray, cells: np.ndarray, xs: np.ndarray, rs: np.ndarray, cuts: np.ndarray,
    frames: np.ndarray, perps: np.ndarray, faces: tuple[np.ndarray, np.ndarray],
):
    """The :func:`gmtepi.chains._sup_pass` request for how the support lies
    over each plane disk ``D_c`` of radius ``rs[c]`` about ``xs[c]`` in the
    plane of ``frames[c]`` (m, n), inside the height cut ``|h| <=
    cuts[c]``, ``h`` the part in the complement spanned by ``perps[c]``.
    Only the norm of ``h`` enters, and the disk is round, so no frame does.

    ``rows`` are the terms near each disk (row t near disk ``cells[t]``,
    nondecreasing), every term within ``hypot(rs[c], cuts[c])`` of
    ``xs[c]`` among them; ``faces`` are the vertices (F, m, n) and
    diameters (F,) of the boundary of the unit-coefficient carrier they are
    counted on (:func:`_unit_faces`).  A row is *in* when its largest
    ``|h|`` over the disk (:func:`gmtepi.chains._region_sups`) is at most
    the cut, and *across* when it is not and its least ``|h|`` is.  A disk
    is *walled* when a face has a projection meeting the open disk and a
    least ``|h|`` at most the cut, and *covered* when no row is across, it
    is not walled and the signed projected measure of the in rows is a
    nonzero multiple k of ``|D|``.  Then by the constancy theorem their
    projection is k times the disk, and each point of it has a support
    point straight above it, at most H, the largest ``|h|`` of the in rows,
    away.  Every row's floats are its own, so a disk's answer does not
    depend on the disks stacked with it.  The answer is ``(covered (C,), H
    (C,), k (C,), across (rows,), walled (C,), in (rows,))``.
    """
    C, m = len(xs), chain.m
    basis = np.concatenate([frames, perps], axis=1)
    qh = _frame_coords(chain.verts[rows] - xs[cells][:, None, :], basis[cells])
    q, h, r, cut = qh[..., :m], qh[..., m:], rs[cells], cuts[cells]

    def finish(sup: np.ndarray) -> tuple[np.ndarray, ...]:
        inn = sup <= cut
        across = np.zeros(len(inn), dtype=bool)
        if not inn.all():
            out = ~inn
            across[out] = _dists(h[out], np.zeros(h.shape[2])) <= cut[out]
        top = np.zeros(C)
        np.maximum.at(top, cells[inn], sup[inn])
        if m == 1:
            ends = q[inn, :, 0].clip(-r[inn, None], r[inn, None])
            size = ends[:, 1] - ends[:, 0]
        else:
            size = _disk_clip(q[inn], r[inn], moments=False)
        k = np.bincount(cells[inn], weights=size, minlength=C) / (2.0 * rs if m == 1 else math.pi * rs * rs)
        # the boundary faces that can reach the cut cylinder
        walled = np.zeros(C, dtype=bool)
        verts, diam = faces
        reach = _norms(verts[None] - xs[:, None, None]).min(axis=2) - diam
        fc, f = np.nonzero(reach <= np.hypot(rs, cuts)[:, None] * (1.0 + 1e-9))
        if len(fc):
            fqh = _frame_coords(verts[f] - xs[fc][:, None, :], basis[fc])
            inside = _dists(fqh[..., :m], np.zeros(m)) < rs[fc] * (1.0 + 1e-12)
            low = _dists(fqh[..., m:], np.zeros(h.shape[2]))
            walled[fc[inside & (low <= cuts[fc])]] = True
        sheets = np.rint(k)
        covered = (sheets != 0) & (np.abs(k - sheets) <= 1e-9) & ~walled
        covered[cells[across]] = False
        return covered, top, k, across, walled, inn

    return q, h, r, finish


def disk_sheets(chain: PolyChain, x: np.ndarray, base: OrientedPlane, r: float) -> tuple[float, float]:
    """The number of sheets of the support over the disk of radius ``r
    sqrt(m) / 2`` of ``base`` about ``x`` (it circumscribes the box
    ``|.|_inf <= r/2``), cut at height ``|h| <= r``, and their exact
    Lipschitz constant, from one :func:`disk_cover` request on the chain's
    merged carrier (:func:`_unit_faces`), so a sheet stored twice counts
    once.  The terms across the cut and the in terms that meet the closed
    disk are checked first: a degenerate or reversed one raises
    :class:`GeneralPositionError` (:func:`_layer_stack`).  Then a term
    across raises ``ValueError`` and a walled disk :class:`ConstancyError`.
    So every in term projects positively, and the sheet count is ``|k|``.
    Returns it and ``max_i ||A_i||_2`` over the in terms that meet the
    disk; (0, 0) when no term is checked.  No chain is built.
    """
    m = base.m
    near = chain.near_ball(x, r * math.sqrt(1.0 + 0.25 * m))
    rows, *faces = _unit_faces(chain)[1]
    if rows is not None:
        near = np.intersect1d(near, rows, assume_unique=True)
    perp = base.perp_frame()
    request = disk_cover(chain, near, np.zeros(len(near), dtype=np.int64), x[None], np.array([0.5 * math.sqrt(m) * r]),
                         np.array([r]), base.frame[None], perp[None], faces)
    _, _, k, across, walled, inn = _sup_pass(request)[0]
    hit = across | inn & (_dists(request[0], np.zeros(m)) <= request[2])
    if not hit.any():
        return 0.0, 0.0
    # aligning the base flips a frame row, which keeps its complement
    verts = chain.verts[near[hit]]
    A = _affine_maps(*_layer_stack(verts, chain.volumes()[near[hit]], _aligned(base, verts), perp)[:2])[0]
    if across.any():
        raise ValueError("the support crosses the height cut |h| = r over the disk")
    if walled[0]:
        raise ConstancyError("projected boundary meets the disk: it is partly covered")
    return abs(float(k[0])), float(_spectral_norms(A).max())


def height_sup(chain: PolyChain, base: OrientedPlane, radius: float = 1.0) -> float:
    """Sup of ``|pi_{V^perp}(x)|`` over the support inside the cylinder
    over the base ball of the given radius.

    Exact for every m <= 2 chain in every codimension: the max of the
    convex height over each simplex cut by the cylinder, from the base
    coordinates and heights of its vertices
    (:func:`gmtepi.chains._region_sups`).
    """
    if base.n != chain.n or base.m != chain.m:
        raise ValueError("base plane shape mismatch")
    v = chain.verts
    sups = _region_sups(v @ base.frame.T, v @ base.perp_frame().T, np.full(len(v), float(radius)))
    return float(np.max(sups, initial=0.0))
