"""Multiscale regularity scanner.

Per point and dyadic scale the scanner fits the spectral best plane of
the second-moment form, measures the flatness numbers and the Hausdorff
distance to the plane, tracks the density ratio, finds orthonormal
frames inside the support, and keeps the plane-coherence Dini
bookkeeping from which a differentiable-graph certificate (with a fitted
Hölder exponent for the tangent drift) can be extracted.

The scan never asserts existential regularity conclusions; it reports the
measured quantities those conclusions consume, cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import PolyChain, _dist_to_simplices
from .layers import box_sheets, disk_cover
from .mono import alpha_m, alpha0_exponent, lambda_epi
from .moments import (
    AmbiguousPlaneError, _cell_betas, _centred_betas, _perp_frames, _plane_from_eigensystem, beta_numbers,
)
from .planes import OrientedPlane, _plane_distances, _plane_grid
from .quadrature import _rowdot, cell_ball_moments

__all__ = [
    "Frame",
    "find_frame",
    "ScanCell",
    "ScanReport",
    "multiscale_scan",
    "GraphCertificate",
    "extract_graph",
    "theoretical_exponent",
    "support_sample",
]


@dataclass
class Frame:
    """Orthonormal directions whose scaled endpoints lie on the support."""

    directions: np.ndarray  # (m, n)
    scale: float
    anchor: np.ndarray
    orthogonality_defect: float
    support_distance: float


#: Most near simplices that one stacked moment or sup pass of a scan takes
#: (a cell's own always go together).  Their temporaries grow with it, and
#: once freed, a temporary far above a one-cell pass's makes the allocator
#: keep later large arrays on its heap, which raised the scan_disk peak RSS.
_STACK_ROWS = 256


def _dist_to_support(chain: PolyChain, points: np.ndarray, terms: np.ndarray | None = None) -> np.ndarray:
    """Exact distances from points (P, n) to the support, for m in (1, 2),
    by the pruned pass :func:`gmtepi.chains._dist_to_simplices`.

    ``terms`` restricts the pass to those term indices; it must hold the
    nearest simplex of every point.  The scan passes the terms within
    ``2 r + d(x, spt)`` of its point x, plus a rounding slack, for query
    points q in ``B(x, r)``: the nearest simplex t* of q has
    ``d(x, t*) <= |q - x| + d(q, spt) <= |q - x| + |q - x| + d(x, spt)``.
    Each point-simplex distance is computed on its own, so the minimum
    over any set that holds t* is the same float.
    """
    return _dist_to_simplices(chain.vertex_array() if terms is None else chain.vertex_array()[terms], points)


def _support_points_on_fiber(
    simplices: np.ndarray, x: np.ndarray, direction: np.ndarray, constraints: np.ndarray, s: float
) -> np.ndarray:
    """Support points ``p`` with ``|p - x| = s``, the in-plane projection
    along ``direction`` positive, and zero components along ``constraints``.

    ``simplices`` is a (T, m+1, n) vertex stack: segments with no
    constraint, or triangles with one, which cut each triangle to the
    segment between its first two crossings (edges (0, 1), (0, 2), vertex
    0, edge (1, 2), vertex 1, vertex 2).  Each segment meets the sphere at
    its two roots in turn; the points come simplex by simplex, shape (K, n).
    """
    v = simplices - x
    if len(constraints):
        (c,) = constraints
        a, b = _cut_triangles(v, v @ c)
    else:
        a, b = v[:, 0], v[:, 1]
    dd = b - a
    aa = _rowdot(dd, dd)
    bb = 2.0 * _rowdot(a, dd)
    cc = _rowdot(a, a) - s * s
    disc = bb * bb - 4 * aa * cc
    ok = (aa >= 1e-30) & (disc >= 0)
    a, dd, aa, bb, sq = a[ok], dd[ok], aa[ok], bb[ok], np.sqrt(disc[ok])
    t = np.stack([(-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa)], axis=1)
    p = a[:, None] + t[..., None] * dd[:, None]
    on = (t >= -1e-12) & (t <= 1 + 1e-12)
    p = p[on]
    p = p[_rowdot(p, np.broadcast_to(direction, p.shape)) > 1e-12]
    return p + x


def _cut_triangles(v: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the segments where triangles ``v`` (T, 3, n) with signed
    heights ``d`` (T, 3) over a hyperplane cross it; triangles that do not
    cross it in two points are dropped."""
    neg, pos = d < -1e-13, d > 1e-13
    cands, valid = [], []
    for i, j in ((0, 1), (0, 2), (0, None), (1, 2), (1, None), (2, None)):
        if j is None:
            cands.append(v[:, i])
            valid.append(np.abs(d[:, i]) <= 1e-13)
            continue
        cross = (neg[:, i] & pos[:, j]) | (neg[:, j] & pos[:, i])
        t = d[:, i] / np.where(cross, d[:, i] - d[:, j], 1.0)
        cands.append(v[:, i] + t[:, None] * (v[:, j] - v[:, i]))
        valid.append(cross)
    cands, valid = np.stack(cands, axis=1), np.stack(valid, axis=1)
    rank = np.cumsum(valid, axis=1)
    two = np.flatnonzero(rank[:, -1] >= 2)
    first = np.argmax(valid[two], axis=1)
    second = np.argmax(valid[two] & (rank[two] == 2), axis=1)
    return cands[two, first], cands[two, second]


def _frame_gate(beta_inf: float, rho: float) -> None:
    """The flatness condition of :func:`find_frame`; raises ``ValueError``."""
    if beta_inf >= rho:
        raise ValueError(f"beta_inf {beta_inf:.3g} at the working scale is not below rho {rho:.3g}")


def _frame_directions(near: np.ndarray, x: np.ndarray, s: float, plane: OrientedPlane) -> np.ndarray:
    """The directions (m, n) of :func:`find_frame` from the simplices
    ``near`` that meet its ball; raises ``ValueError`` on an empty fiber."""
    m = plane.m
    found: list[np.ndarray] = []
    basis = [plane.frame[i].copy() for i in range(m)]  # current V_k spanning set
    for k in range(m):
        w_dir = basis[0]
        constraints = np.array(basis[1:] + found) if (len(basis) > 1 or found) else np.zeros((0, plane.n))
        cands = _support_points_on_fiber(near, x, w_dir, constraints, s)
        if not len(cands):
            raise ValueError("no support point on the fiber; projection not surjective")
        rels = (cands - x) / s
        best = rels[np.argmax(_rowdot(rels, np.broadcast_to(w_dir, rels.shape)))]
        found.append(best)
        # drop the used direction, re-orthogonalize the rest against found
        basis = basis[1:]
        new_basis = []
        for b in basis:
            r = b.copy()
            for f in found:
                r -= (r @ f) * f
            for nb in new_basis:
                r -= (r @ nb) * nb
            ln = np.linalg.norm(r)
            if ln > 1e-9:
                new_basis.append(r / ln)
        basis = new_basis
    return np.array(found)


def find_frame(
    chain: PolyChain,
    x,
    s: float,
    plane: OrientedPlane,
    rho: float,
    scale: float = 1.0,
    beta_inf: float | None = None,
) -> Frame:
    """Build an orthonormal family with ``x + s e_i`` on the support.

    Follows the radial-projection construction: pick a target direction in
    the current reference plane, invert the radial projection along the
    support (the nearest fiber point at distance ``s``), replace one plane
    direction by the found one, orthogonalize, repeat m times.  Requires
    ``beta_inf`` at the working scale below ``rho <= 1/(25 sqrt(m))``;
    without one, the exact ``beta_numbers(chain, x, scale, plane)`` value.
    """
    m = plane.m
    x = np.asarray(x, dtype=float)
    if not 0 < rho <= 1.0 / (25.0 * math.sqrt(m)):
        raise ValueError(f"need rho <= 1/(25 sqrt(m)) = {1.0 / (25 * math.sqrt(m)):.4g}")
    rho_p = m**0.25 * math.sqrt(rho)
    if not 2 * rho_p * scale < s <= scale:
        raise ValueError(f"need s in (2 rho' scale, scale] = ({2 * rho_p * scale:.3g}, {scale:.3g}]")
    near = chain.verts[chain.near_ball(x, scale)]
    if beta_inf is None:
        beta_inf = beta_numbers(chain, x, scale, plane).beta_inf
    _frame_gate(beta_inf, rho)
    dirs = _frame_directions(near, x, s, plane)
    gram = dirs @ dirs.T
    defect = float(np.max(np.abs(gram - np.eye(m))))
    sup_d = float(np.max(_dist_to_support(chain, x + s * dirs)))
    return Frame(dirs, s, x, defect, sup_d)


def support_sample(chain: PolyChain, x, r: float, spacing: float) -> np.ndarray:
    """Deterministic point sample of ``spt(T) ∩ B(x, r)`` at ~``spacing``.

    Segments get evenly spaced nodes over their window around the ball;
    triangles get a barycentric grid over a box around the ball window
    (half-widths from the altitudes, centred at the barycentric least
    squares foot of ``x``), its node count capped by the window's area at
    the target spacing so that thin triangles do not oversample.  Nodes
    come simplex by simplex in term order, grid rows in order.
    """
    x = np.asarray(x, dtype=float)
    pts = [np.zeros((0, chain.n))]
    diams, volumes = chain.diameters(), chain.volumes()
    for idx in chain.near_ball(x, r):
        v, diam = chain.verts[idx], diams[idx]
        if chain.m == 1:
            d = v[1] - v[0]
            den = max(float(d @ d), 1e-300)
            t0 = float((x - v[0]) @ d) / den
            half = (r + spacing) / math.sqrt(den)
            lo, hi = max(0.0, t0 - half), min(1.0, t0 + half)
            if hi <= lo:
                continue
            k = max(2, int(math.ceil((hi - lo) * diam / spacing)) + 1)
            ts = lo + (hi - lo) * np.linspace(0.0, 1.0, k)
            p = v[0][None, :] + ts[:, None] * d[None, :]
        else:
            e1, e2 = v[1] - v[0], v[2] - v[0]
            area2 = max(2.0 * float(volumes[idx]), 1e-30)
            try:
                lam = np.linalg.lstsq(np.stack([e1, e2], axis=1), x - v[0], rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            pad = r + 2 * spacing
            wa, wb = pad * np.linalg.norm(e2) / area2, pad * np.linalg.norm(e1) / area2
            a_lo, a_hi = max(0.0, lam[0] - wa), min(1.0, lam[0] + wa)
            b_lo, b_hi = max(0.0, lam[1] - wb), min(1.0, lam[1] + wb)
            if a_hi <= a_lo or b_hi <= b_lo:
                continue
            ka = max(2, int(math.ceil((a_hi - a_lo) * diam / spacing)) + 1)
            kb = max(2, int(math.ceil((b_hi - b_lo) * diam / spacing)) + 1)
            target = max(16.0, 4.0 * ((a_hi - a_lo) * (b_hi - b_lo) * area2) / (spacing * spacing))
            blow = math.sqrt(max(1.0, ka * kb / target))
            aa, bb = np.meshgrid(
                a_lo + (a_hi - a_lo) * np.linspace(0, 1, min(max(2, int(ka / blow)), 160)),
                b_lo + (b_hi - b_lo) * np.linspace(0, 1, min(max(2, int(kb / blow)), 160)),
            )
            keep = aa + bb <= 1.0 + 1e-12
            p = v[0][None, :] + aa[keep][:, None] * e1[None, :] + bb[keep][:, None] * e2[None, :]
        pts.append(p[np.linalg.norm(p - x, axis=1) <= r])
    return np.vstack(pts)


@dataclass
class ScanCell:
    """Measurements of one (point, scale) cell.

    ``hausdorff`` is ``max(beta_inf r, plane half)``.  On a ``covered``
    cell the support covers the plane disk inside the height cut ``|h| <=
    r`` (:func:`gmtepi.layers.disk_cover`), and the plane half is the
    exact height of the covering sheets over it, an upper bound of the
    distance from any point of the disk to the support; so there
    ``hausdorff`` and ``eta`` are upper bounds, and no frame enters them.
    On the other cells the plane half is the largest distance from a polar
    grid laid out in the plane's frame, a lower estimate.  ``beta2`` reads
    0 when its perp contraction is within its rounding bound
    (:data:`gmtepi.moments._BETA2_ROUNDING`).
    """

    point_index: int
    scale_index: int
    radius: float
    plane: OrientedPlane | None
    beta2: float
    beta_inf: float
    beta_inf_centered: float
    hausdorff: float
    density_ratio: float
    eta: float  # hausdorff / radius
    frame_found: bool
    ambiguous_plane: bool = False
    coherence_bound: float | None = None
    coherence_measured: float | None = None
    frame_reason: str = ""  # why no frame was found: the failed gate or search
    covered: bool = False  # the support covers the plane disk, so hausdorff is an upper bound


@dataclass
class ScanReport:
    """All cells of a multiscale scan plus per-point Dini bookkeeping."""

    points: np.ndarray
    r0: float
    depth: int
    cells: dict = field(default_factory=dict)

    def cell(self, point_index: int, scale_index: int) -> ScanCell:
        return self.cells[(point_index, scale_index)]

    def point_cells(self, point_index: int) -> list[ScanCell]:
        return [
            self.cells[(point_index, k)]
            for k in range(self.depth + 1)
            if (point_index, k) in self.cells
        ]

    def dini_sum(self, point_index: int) -> float:
        """``int eta(s)/s ds`` approximated over the dyadic scales."""
        cells = self.point_cells(point_index)
        return math.log(2.0) * float(sum(c.eta for c in cells))


def multiscale_scan(
    chain: PolyChain,
    points,
    r0: float,
    depth: int,
) -> ScanReport:
    """Scan each point over the dyadic scales ``r_k = 2^-k r0``.

    Records the spectral plane, both flatness numbers (anchored at the
    query point and at the local centroid), the two-sided Hausdorff
    distance, the density ratio, the frame-found flag with the reason when
    it is false, and cross-scale plane coherence against the two-scale
    bound with the measured eta.  Each cell takes its density, plane,
    ``beta_2`` and centred form from one exact moment pass over its ball,
    and both ``beta_inf`` values and the support-to-plane half of the
    Hausdorff distance from the exact sup kernel.  The plane-to-support half
    is the height of the sheets over the plane disk when the support covers
    it (:func:`gmtepi.layers.disk_cover`, which marks the cell ``covered``
    and makes ``eta`` an upper bound there, as the Dini gate of
    :func:`extract_graph` and ``coherence_bound`` need), and else the
    largest exact distance from a polar grid on the plane ball.  An empty
    chain raises ``ValueError``.

    All (point, scale) cells of a call go through each stage in stacked
    passes, and each point culls the chain once to the terms within
    ``2 r0 + d(x, spt)``, which hold every term any stage of its cells can
    reach; only the cells that are not covered send a grid to the distance
    pass.
    """
    if chain.is_zero:
        raise ValueError("empty chain")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    report = ScanReport(points, r0, depth)
    for cell in _scan_cells(chain, points, r0, depth):
        report.cells[(cell.point_index, cell.scale_index)] = cell

    # cross-scale coherence with the measured eta
    pairs = [(report.cell(pi, k), report.cell(pi, k + 1)) for pi in range(len(points)) for k in range(depth)]
    pairs = [(a, b) for a, b in pairs if a.plane is not None and b.plane is not None]
    measured = _plane_distances([a.plane for a, _ in pairs], [b.plane for _, b in pairs]).tolist()
    for (a, b), dist in zip(pairs, measured):
        b.coherence_bound = max(a.eta, b.eta) * (2.0 + a.radius / b.radius)
        b.coherence_measured = dist
    return report


def _scan_cells(chain: PolyChain, points: np.ndarray, r0: float, depth: int) -> list[ScanCell]:
    """The cells of every point, point by point and scale by scale.  Each
    stage runs over all of them in stacked passes, the moment and sup passes
    in runs of at most ``_STACK_ROWS`` near simplices."""
    m = chain.m
    va = chain.vertex_array()
    radii = [r0 * 2.0**-k for k in range(depth + 1)]
    # cells are point-major: cell c is point c // (depth + 1) at scale c % (depth + 1)
    cells = [(pi, k) for pi in range(len(points)) for k in range(depth + 1)]
    xs = np.repeat(points, depth + 1, axis=0)
    rs = np.array(radii * len(points))
    near, wide, cull = _cull(chain, points, radii)
    moments = []
    for part in _runs([len(t) for t in near], _STACK_ROWS):
        rows, owner = _stacked(near[part])
        weights = chain.coeff_norms()[rows]
        moments += cell_ball_moments(va[rows], xs[part], rs[part], weights, owner, len(xs[part]), chain.frames(rows))
    am = alpha_m(m)
    dens = [bm.s0 / (am * r**m) for bm, r in zip(moments, rs.tolist())]

    # the spectral plane of each cell: one eigh over all forms
    s2 = np.stack([bm.s2 for bm in moments])
    half_norm = np.array([(m + 2) / (am * r ** (m + 2)) * 0.5 for r in rs.tolist()])
    forms = half_norm[:, None, None] * (s2 + np.swapaxes(s2, 1, 2))
    w, vecs = np.linalg.eigh(0.5 * (forms + np.swapaxes(forms, 1, 2)))
    order = np.argsort(w, axis=1)[:, ::-1]
    planes, out = [], {}
    for c, (pi, k) in enumerate(cells):
        try:
            planes.append(_plane_from_eigensystem(w[c, order[c]], vecs[c][:, order[c]].T, m))
        except AmbiguousPlaneError as err:
            why = str(err)
            out[c] = ScanCell(pi, k, float(rs[c]), None, 0.0, 0.0, 0.0, 0.0, dens[c], 1.0, False, True, frame_reason=why)
    good = [c for c in range(len(cells)) if c not in out]
    if not good:
        return [out[c] for c in range(len(cells))]
    xs, rs, moments = xs[good], rs[good], [moments[c] for c in good]
    near, wide = [near[c] for c in good], [wide[c] for c in good]
    frames, perps = np.stack([p.frame for p in planes]), _perp_frames(planes)
    betas, centred = [], []
    for part in _runs([len(t) for t in near], _STACK_ROWS):
        rows, owner = _stacked(near[part])
        betas += _cell_betas(va[rows], owner, xs[part], rs[part], moments[part], planes[part], perps[part], m)
        centred += _centred_betas(va[rows], owner, xs[part], rs[part], moments[part], m)
    # the plane-to-support half: the sheet height over a covered disk, else
    # the largest distance from the polar grid
    covered, half = np.zeros(len(good), dtype=bool), np.zeros(len(good))
    for part in _runs([len(t) for t in wide], _STACK_ROWS):
        rows, owner = _stacked(wide[part])
        covered[part], half[part] = disk_cover(chain, rows, owner, xs[part], rs[part], frames[part], perps[part])
    grid = np.flatnonzero(~covered)
    if len(grid):
        half[grid] = _grid_distances(chain, cull, xs[grid], rs[grid], [planes[g] for g in grid])
    for g, c in enumerate(good):
        r, br, x = float(rs[g]), betas[g], xs[g]
        # the plane ball's point nearest a support point y in B(x, r) is
        # x + pi(y - x), so the support-to-plane half is the sup beta_inf r;
        # a cell of zero mass counts as maximally far
        dh = max(br.beta_inf * r, float(half[g])) if moments[g].s0 > 0 else r
        # find_frame at s = 0.9 r: its scale conditions hold for every
        # rho <= 1/(25 sqrt(m)), so only the gate and the fiber search can fail
        reason = ""
        rho_gate = min(br.beta_inf * 1.5 + 1e-6, 1.0 / (25 * math.sqrt(m)))
        try:
            _frame_gate(br.beta_inf, rho_gate)
            _frame_directions(va[near[g]], x, 0.9 * r, planes[g])
        except ValueError as err:
            reason = str(err)
        binf_c = br.beta_inf if centred[g] is None else centred[g]
        out[c] = ScanCell(
            *cells[c], r, planes[g], br.beta2, br.beta_inf, binf_c, dh, dens[c], dh / r, not reason,
            frame_reason=reason, covered=bool(covered[g]),
        )
    return [out[c] for c in range(len(cells))]


def _cull(
    chain: PolyChain, points: np.ndarray, radii: list[float]
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """``chain.near_ball(x, r)`` for every point x and radius r, point by
    point; the same at ``sqrt(2) r`` (with 1e-9 relative slack), which
    holds every term that meets the cylinder of :func:`disk_cover`; and the
    terms within ``2 max(radii) + d(x, spt)`` of some point, which hold the
    nearest simplex of every query point in any of the balls (see
    :func:`_dist_to_support`)."""
    va = chain.vertex_array()
    diam = chain.diameters()
    d0 = _dist_to_support(chain, points)
    slack = 1e-9 * max(float(np.max(np.abs(va))), float(np.max(np.abs(points))))
    near, wide, keep = [], [], np.zeros(len(va), dtype=bool)
    for x, d in zip(points, d0):
        # near_ball's bound on d(x, t), from one pass for all radii
        reach = np.min(np.linalg.norm(va - x, axis=2), axis=1) - diam
        near += [np.flatnonzero(reach <= r) for r in radii]
        wide += [np.flatnonzero(reach <= math.sqrt(2.0) * r * (1.0 + 1e-9)) for r in radii]
        keep |= reach <= 2 * max(radii) + d + slack
    return near, wide, np.flatnonzero(keep)


def _runs(sizes: list, limit: float) -> list[slice]:
    """Runs of consecutive cells whose sizes add up to at most ``limit``;
    a cell larger than that runs alone."""
    ends = np.cumsum([0.0, *sizes])
    runs, lo = [], 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + limit, side="right")) - 1)
        runs.append(slice(lo, hi))
        lo = hi
    return runs


def _stacked(near: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The cells' term indices end to end, and the cell of each."""
    return np.concatenate(near), np.repeat(np.arange(len(near)), [len(t) for t in near])


def _grid_distances(
    chain: PolyChain, cull: np.ndarray, xs: np.ndarray, rs: np.ndarray, planes: list[OrientedPlane]
) -> list[float]:
    """The largest distance from each cell's plane-ball grid
    (:func:`gmtepi.planes._plane_grid` at 24 rings) to the support, in one
    distance pass over all the grids."""
    grids = [x + plane.embed(_plane_grid(r, plane.m, 24)) for x, r, plane in zip(xs, rs.tolist(), planes)]
    starts = np.cumsum([0] + [len(g) for g in grids[:-1]])
    return np.maximum.reduceat(_dist_to_support(chain, np.vstack(grids), cull), starts).tolist()


@dataclass
class GraphCertificate:
    """Outcome of the graph-extraction gate at one point.

    ``ok`` certifies a single-valued Lipschitz graph over the top plane
    with the Dini budget met; the drift table and the fitted Hölder
    exponent quantify the tangent-plane modulus.
    """

    ok: bool
    reason: str
    eta_hat: float
    dini_budget: float
    lipschitz: float
    drift_scales: np.ndarray
    drifts: np.ndarray
    fitted_exponent: float | None


def extract_graph(
    report: ScanReport,
    chain: PolyChain,
    point_index: int,
    dini_budget: float = 1.0 / 120.0,
    drift_floor: float = 1e-9,
) -> GraphCertificate:
    """Certify the support as a single graph near a scanned point.

    Gates: per-scale plane fits define a gauge ``eta`` whose Dini sum must
    stay within the budget, ``eta(s)/s`` must be nonincreasing on the
    scale grid, and over the box ``|.|_inf <= r/2`` of the top plane, cut
    at height r, the support must be exactly one sheet
    (:func:`gmtepi.layers.box_sheets`) of Lipschitz constant at most 1.
    That constant is exact; it and the tangent-drift table with its fitted
    exponent come with the certificate.
    """
    cells = [c for c in report.point_cells(point_index) if c.plane is not None]
    if not cells:
        return GraphCertificate(False, "no usable scales", 0.0, dini_budget, 0.0, np.array([]), np.array([]), None)
    etas = np.array([c.eta for c in cells])
    radii = np.array([c.radius for c in cells])
    drifts = _plane_distances([c.plane for c in cells[:-1]], [c.plane for c in cells[1:]])
    dscales = np.array([c.radius for c in cells[:-1]])
    # modulus fit: drift of each scale's plane to the finest plane (the
    # available stand-in for the limit tangent), which accumulates the
    # per-scale table and is far less noisy than consecutive drifts
    exponent = None
    if len(cells) >= 4:
        ref = cells[-1].plane
        to_limit = _plane_distances([c.plane for c in cells[:-2]], [ref] * (len(cells) - 2))
        sc = np.array([c.radius for c in cells[:-2]])
        good = to_limit > 10 * drift_floor
        if good.sum() >= 2:
            coef = np.polyfit(np.log(sc[good]), np.log(to_limit[good]), 1)
            exponent = float(coef[0])

    # dominate the measurements by the smallest gauge envelope that is
    # increasing with eta(s)/s nonincreasing, then budget that gauge
    env = etas.copy()
    for i in range(len(env) - 2, -1, -1):  # ascending radius pass
        env[i] = max(env[i], env[i + 1])
    for i in range(1, len(env)):  # ratio pass toward small radii
        env[i] = max(env[i], env[i - 1] * radii[i] / radii[i - 1])
    eta_hat = math.log(2.0) * float(np.sum(env))
    if eta_hat > dini_budget:
        return GraphCertificate(False, f"Dini sum {eta_hat:.3g} exceeds budget", eta_hat, dini_budget, 0.0, dscales, drifts, exponent)

    top = cells[0]
    try:
        sheets, lips = box_sheets(chain, report.points[point_index], top.plane, top.radius)
    except ValueError as err:  # a degenerate term, one across the cut, or a boundary in the box
        return GraphCertificate(False, str(err), eta_hat, dini_budget, 0.0, dscales, drifts, exponent)
    reason = "ok"
    if sheets == 0.0:
        reason = "empty support window"
    elif abs(sheets - 1.0) > 1e-9:
        reason = f"{sheets:.6g} sheets over the box"
    elif lips > 1.0 + 1e-9:
        reason = f"Lipschitz bound {lips:.3g} exceeds 1"
    return GraphCertificate(reason == "ok", reason, eta_hat, dini_budget, lips, dscales, drifts, exponent)


def theoretical_exponent(m: int, alpha: float, lam: float | None = None) -> float:
    """``beta = min(alpha0, alpha) / (8 (m + 2))`` with
    ``alpha0 = m (1 - lam^{1/4}) / lam^{1/4}``."""
    if not 0 < alpha <= 1:
        raise ValueError("need 0 < alpha <= 1")
    if lam is None:
        lam = lambda_epi(m)
    a0 = alpha0_exponent(m, lam)
    return min(a0, alpha) / (8.0 * (m + 2))
