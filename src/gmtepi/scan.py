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

import bisect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .chains import PolyChain, _check_points, _check_radius, _cut_triangles, _dist_to_simplices, _sup_pass
from .layers import _unit_faces, disk_cover, disk_sheets
from .mono import alpha_m, alpha0_exponent, lambda_epi
from .moments import _cell_betas, _centred_betas, _gap_reason, _perp_frames, _signed_frames, beta_numbers
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
    ``3 r`` of its point x, plus a rounding slack, for query points q in
    ``B(x, r)`` where ``d(x, spt) <= r``: the nearest simplex t* of q has
    ``d(x, t*) <= |q - x| + d(q, spt) <= |q - x| + |q - x| + d(x, spt)``.
    Each point-simplex distance is computed on its own, so the minimum
    over any set that holds t* is the same float.
    """
    return _dist_to_simplices(chain.vertex_array() if terms is None else chain.vertex_array()[terms], points)


def _frame_search(
    va: np.ndarray, cells: np.ndarray, xs: np.ndarray, s: np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The radial-projection construction of :func:`find_frame` for every
    cell at once, one fiber pass per round: the directions (C, m, n) found
    about ``xs[c]`` at distance ``s[c]`` from the plane frames ``frames[c]``,
    and whether each cell found all m.  ``va`` are the simplices near the
    cells (row t near cell ``cells[t]``, nondecreasing).

    Round k targets a direction w: the fiber is the sphere ``|p - x| = s``,
    cut for m = 2 by the hyperplane through x normal to the second frame
    row, then to the first found direction (:func:`_cut_triangles`); its
    point of largest positive projection on w is found.  w is first the
    first frame row, then the second one orthogonalized against the found
    direction.  Every row's floats are its own, so a cell's directions are
    those a search of that cell alone finds.
    """
    C, m, n = frames.shape
    dirs, found = np.zeros((C, m, n)), np.ones(C, dtype=bool)
    v = va - xs[cells][:, None, :]
    target, normal = frames[:, 0], frames[:, -1]
    for k in range(m):
        live = found[cells]
        own = cells[live]
        if m == 1:
            a, b = v[live, 0], v[live, 1]
        else:
            a, b, two = _cut_triangles(v[live], np.matmul(v[live], normal[own][..., None])[..., 0], 1e-13)
            own = own[two]
        dd, so = b - a, s[own]
        aa = _rowdot(dd, dd)
        bb = 2.0 * _rowdot(a, dd)
        disc = bb * bb - 4 * aa * (_rowdot(a, a) - so * so)
        ok = (aa >= 1e-30) & (disc >= 0)
        a, dd, bb, sq, den, own = a[ok], dd[ok], bb[ok], np.sqrt(disc[ok]), 2 * aa[ok], own[ok]
        t = np.array([(-bb - sq) / den, (-bb + sq) / den]).T
        on = (t >= -1e-12) & (t <= 1 + 1e-12)
        p, own = (a[:, None] + t[..., None] * dd[:, None])[on], own.repeat(2)[on.ravel()]
        ahead = _rowdot(p, target[own]) > 1e-12
        p, own = p[ahead], own[ahead]
        # the offset of the support point x + p as rounded where it lies
        xo, to = xs[own], target[own]
        rels = (p + xo - xo) / s[own][:, None]
        # each cell's first point of largest projection
        order = np.lexsort((-_rowdot(rels, to), own))
        lead = np.ones(len(order), dtype=bool)
        lead[1:] = own[order][1:] != own[order][:-1]
        has = np.zeros(C, dtype=bool)
        has[own] = True
        found &= has
        dirs[own[order[lead]], k] = rels[order[lead]]
        if k + 1 < m:
            f = dirs[:, k]
            rest = frames[:, 1] - _rowdot(frames[:, 1], f)[:, None] * f
            target, normal = rest / np.sqrt(_rowdot(rest, rest))[:, None], f
    return dirs, found


def _gate_reason(beta_inf: float, rho: float) -> str:
    return f"beta_inf {beta_inf:.3g} at the working scale is not below rho {rho:.3g}"


#: Why a frame search fails.
_NO_FIBER_POINT = "no support point on the fiber; projection not surjective"


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
    if beta_inf >= rho:
        raise ValueError(_gate_reason(beta_inf, rho))
    one = np.zeros(len(near), dtype=np.int64)
    dirs, found = _frame_search(near, one, x[None], np.array([s], dtype=float), plane.frame[None])
    if not found[0]:
        raise ValueError(_NO_FIBER_POINT)
    dirs = dirs[0]
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
    chain, points that are not finite or not of width n, an ``r0`` that is
    not finite and positive and a ``depth`` that is not a nonnegative
    integer raise ``ValueError``.

    All (point, scale) cells of a call go through each stage in stacked
    passes.  Each point culls the chain once, in one threshold pass for
    the balls and the cover test's wider windows of all its scales.  The
    moment pass, and one sup pass that answers the two ``beta_inf`` values
    and the cover test together, run over runs of cells of at most
    ``_STACK_ROWS`` near terms; the frame search makes one pass per round
    over every cell that passes its flatness gate; only the cells that are
    not covered send a grid to the distance pass, over the terms within
    ``3 r`` of their points.
    """
    if chain.is_zero:
        raise ValueError("empty chain")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_points(points, (len(points), chain.n), "scan points")
    _check_radius(r0, "r0")
    if not isinstance(depth, numbers.Integral) or depth < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {depth!r}")
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
    stage runs over all of them in stacked passes: the moment pass and the
    one sup pass of its three requests in runs of at most ``_STACK_ROWS``
    near simplices, and the frame search in one pass per round."""
    m = chain.m
    va = chain.vertex_array()
    radii = [r0 * 2.0**-k for k in range(depth + 1)]
    # cells are point-major: cell c is point c // (depth + 1) at scale c % (depth + 1)
    cells = [(pi, k) for pi in range(len(points)) for k in range(depth + 1)]
    xs = points.repeat(depth + 1, axis=0)
    rs = np.array(radii * len(points))
    (rows, owner), (wide, wide_owner) = _cull(chain, points, radii)
    runs = _runs(np.bincount(owner, minlength=len(cells)), _STACK_ROWS)
    moments = []
    for part, span in runs:
        moments += cell_ball_moments(va[rows[span]], xs[part], rs[part], chain.coeff_norms()[rows[span]],
                                     owner[span] - part.start, part.stop - part.start, chain.frames(rows[span]))
    am = alpha_m(m)
    dens = [bm.s0 / (am * r**m) for bm, r in zip(moments, rs.tolist())]

    # the spectral plane of each cell: one eigh over all forms
    s2 = np.array([bm.s2 for bm in moments])
    half_norm = np.array([(m + 2) / (am * r ** (m + 2)) * 0.5 for r in rs.tolist()])
    forms = half_norm[:, None, None] * (s2 + s2.transpose(0, 2, 1))
    w, vecs = np.linalg.eigh(0.5 * (forms + forms.transpose(0, 2, 1)))
    if w.shape[1] <= m:
        raise ValueError("form has no complementary directions")
    # eigenvalues descending, eigenvectors as rows in that order
    order = (np.arange(len(w))[:, None], w.argsort(axis=1)[:, ::-1])
    frames, gaps = _signed_frames(w[order], vecs.transpose(0, 2, 1)[order], m)
    ambiguous = gaps <= 1e-10
    good = (~ambiguous).nonzero()[0]
    out = {
        c: ScanCell(*cells[c], float(rs[c]), None, 0.0, 0.0, 0.0, 0.0, dens[c], 1.0, False, True, frame_reason=_gap_reason(gaps[c]))
        for c in ambiguous.nonzero()[0].tolist()
    }
    if not len(good):
        return [out[c] for c in range(len(cells))]
    planes, frames, perps = OrientedPlane._stack(frames[good]), frames[good], _perp_frames(frames[good])
    # the cells' rows, renumbered to the good cells
    at = np.full(len(cells), -1)
    at[good] = np.arange(len(good))
    keep, wide_keep = at[owner] >= 0, at[wide_owner] >= 0
    rows, owner, wide, wide_owner = rows[keep], at[owner[keep]], wide[wide_keep], at[wide_owner[wide_keep]]
    xs, rs, moments = xs[good], rs[good], [moments[c] for c in good]
    wide_ends = np.searchsorted(wide_owner, np.arange(len(good) + 1))
    betas, centred, covered, half = [], [], np.zeros(len(good), dtype=bool), np.zeros(len(good))
    faces = _unit_faces(chain)[0]  # the stored carrier's
    for part, span in _runs(np.bincount(owner, minlength=len(good)), _STACK_ROWS):
        near, own = va[rows[span]], owner[span] - part.start
        spread = slice(wide_ends[part.start], wide_ends[part.stop])
        # the support-to-plane sups, the centred ones and the cover test's
        # in rows: one sup pass
        b, c, (covered[part], half[part], *_) = _sup_pass(
            _cell_betas(near, own, xs[part], rs[part], moments[part], planes[part], perps[part], m),
            _centred_betas(near, own, xs[part], rs[part], moments[part], m),
            disk_cover(chain, wide[spread], wide_owner[spread] - part.start, xs[part], rs[part], rs[part], frames[part],
                       perps[part], faces),
        )
        betas += b
        centred += c
    # the plane-to-support half: the sheet height over a covered disk, else
    # the largest distance from the polar grid
    grid = (~covered).nonzero()[0]
    if len(grid):
        half[grid] = _grid_distances(chain, xs[grid], rs[grid], [planes[g] for g in grid])
    # find_frame at s = 0.9 r: its scale conditions hold for every
    # rho <= 1/(25 sqrt(m)), so only the gate and the fiber search can fail
    binf = np.array([br.beta_inf for br in betas])
    rho = np.minimum(binf * 1.5 + 1e-6, 1.0 / (25 * math.sqrt(m)))
    search = ~(binf >= rho)
    found = np.zeros(len(good), dtype=bool)
    if search.any():
        at = search.cumsum() - 1
        hit = search[owner]
        found[search] = _frame_search(va[rows[hit]], at[owner[hit]], xs[search], 0.9 * rs[search], frames[search])[1]
    for g, c in enumerate(good.tolist()):
        r, br = float(rs[g]), betas[g]
        # the plane ball's point nearest a support point y in B(x, r) is
        # x + pi(y - x), so the support-to-plane half is the sup beta_inf r;
        # a cell of zero mass counts as maximally far
        dh = max(br.beta_inf * r, float(half[g])) if moments[g].s0 > 0 else r
        reason = "" if found[g] else _NO_FIBER_POINT if search[g] else _gate_reason(br.beta_inf, float(rho[g]))
        binf_c = br.beta_inf if centred[g] is None else centred[g]
        out[c] = ScanCell(
            *cells[c], r, planes[g], br.beta2, br.beta_inf, binf_c, dh, dens[c], dh / r, not reason,
            frame_reason=reason, covered=bool(covered[g]),
        )
    return [out[c] for c in range(len(cells))]


def _cull(
    chain: PolyChain, points: np.ndarray, radii: list[float]
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``chain.near_ball(x, r)`` for every point x and radius r, and the
    same at ``sqrt(2) r`` (with 1e-9 relative slack), which holds every
    term that meets the cylinder of :func:`gmtepi.layers.disk_cover`: each
    as the stacked term indices and the cell of each, cells numbered
    point-major (both ordered by cell), from one threshold pass per
    point."""
    bounds = np.array(radii + [math.sqrt(2.0) * r * (1.0 + 1e-9) for r in radii])[:, None]
    K = len(radii)
    parts = [np.nonzero(chain.reach(x) <= bounds) for x in points]
    k = np.concatenate([p[0] for p in parts])
    terms = np.concatenate([p[1] for p in parts])
    cell = np.repeat(K * np.arange(len(points)), [len(p[0]) for p in parts]) + k % K
    wide = k >= K
    return (terms[~wide], cell[~wide]), (terms[wide], cell[wide])


def _runs(sizes: np.ndarray, limit: float) -> list[tuple[slice, slice]]:
    """Runs of consecutive cells whose sizes add up to at most ``limit``
    (a cell larger than that runs alone), each with the slice of its rows
    in the stack of all cells' rows."""
    ends = np.cumsum(sizes).tolist()
    runs, lo, start = [], 0, 0
    while lo < len(ends):
        hi = max(lo + 1, bisect.bisect_right(ends, start + limit, lo))
        runs.append((slice(lo, hi), slice(start, ends[hi - 1])))
        lo, start = hi, ends[hi - 1]
    return runs


def _grid_distances(chain: PolyChain, xs: np.ndarray, rs: np.ndarray, planes: list[OrientedPlane]) -> list[float]:
    """The largest distance from each cell's plane-ball grid
    (:func:`gmtepi.planes._plane_grid` at 24 rings) to the support, in one
    distance pass over all the grids.  A cell that reaches the grid has a
    plane, so its ball has positive mass and ``d(x, spt) <= r``; the pass
    takes the terms within ``3 r`` of some cell's point x, plus a rounding
    slack, which hold the nearest simplex of each of its grid points (see
    :func:`_dist_to_support`)."""
    slack = 1e-9 * max(float(np.max(np.abs(chain.verts))), float(np.max(np.abs(xs))))
    keep = np.zeros(len(chain), dtype=bool)
    for x, r in zip(xs, rs.tolist()):
        keep |= chain.reach(x) <= 3 * r + slack
    grids = [x + plane.embed(_plane_grid(r, plane.m, 24)) for x, r, plane in zip(xs, rs.tolist(), planes)]
    starts = np.cumsum([0] + [len(g) for g in grids[:-1]])
    return np.maximum.reduceat(_dist_to_support(chain, np.vstack(grids), np.flatnonzero(keep)), starts).tolist()


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
    scale grid, and over the disk of radius ``r sqrt(m) / 2`` about the
    point in the top plane, cut at height r, the support must be exactly
    one sheet (:func:`gmtepi.layers.disk_sheets`, which builds no chain) of
    Lipschitz constant at most 1.  That constant is exact; it and the
    tangent-drift table with its fitted exponent come with the
    certificate.  All drifts take one stacked distance pass.
    """
    cells = [c for c in report.point_cells(point_index) if c.plane is not None]
    if not cells:
        return GraphCertificate(False, "no usable scales", 0.0, dini_budget, 0.0, np.array([]), np.array([]), None)
    etas = np.array([c.eta for c in cells])
    radii = np.array([c.radius for c in cells])
    # one distance pass for the consecutive drifts and for the drifts of
    # each scale's plane to the finest plane (the available stand-in for
    # the limit tangent), which accumulate the per-scale table and are far
    # less noisy than consecutive drifts: the modulus fit
    pairs = [(a.plane, b.plane) for a, b in zip(cells, cells[1:])]
    if len(cells) >= 4:
        pairs += [(c.plane, cells[-1].plane) for c in cells[:-2]]
    measured = _plane_distances([a for a, _ in pairs], [b for _, b in pairs])
    drifts, to_limit = measured[: len(cells) - 1], measured[len(cells) - 1 :]
    dscales = np.array([c.radius for c in cells[:-1]])
    exponent = None
    if len(cells) >= 4:
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
        sheets, lips = disk_sheets(chain, report.points[point_index], top.plane, top.radius)
    except ValueError as err:  # a degenerate term, one across the cut, or a boundary in the disk
        return GraphCertificate(False, str(err), eta_hat, dini_budget, 0.0, dscales, drifts, exponent)
    reason = "ok"
    if sheets == 0.0:
        reason = "empty support window"
    elif abs(sheets - 1.0) > 1e-9:
        reason = f"{sheets:.6g} sheets over the disk"
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
