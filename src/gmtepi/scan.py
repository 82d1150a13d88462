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

from .chains import PolyChain
from .mono import alpha_m, alpha0_exponent, lambda_epi
from .moments import (
    AmbiguousPlaneError,
    _beta_from_moments,
    _form_from_moments,
    chain_ball_moments,
    select_plane,
)
from .planes import OrientedPlane, plane_distance
from .quadrature import BallMoments

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


#: Largest (points x simplices x n) temporary of the batched distance pass.
_DIST_CHUNK = 1 << 14
#: Most query points in one spatial chunk of the pruned distance pass.
_PRUNE_POINTS = 32
#: Candidate nodes ``support_sample`` builds at once (plus one grid row's).
_SAMPLE_CHUNK = 1 << 14


def _point_chunks(points: np.ndarray) -> list[np.ndarray]:
    """Index sets of at most :data:`_PRUNE_POINTS` points each, made by
    recursive median splits on the widest axis."""
    chunks, todo = [], [np.arange(len(points))]
    while todo:
        idx = todo.pop()
        if len(idx) <= _PRUNE_POINTS:
            chunks.append(idx)
            continue
        coords = points[idx]
        axis = int(np.argmax(np.ptp(coords, axis=0)))
        half = len(idx) // 2
        order = np.argpartition(coords[:, axis], half)
        todo += [idx[order[half:]], idx[order[:half]]]
    return chunks


def _dist_to_support(chain: PolyChain, points: np.ndarray) -> np.ndarray:
    """Exact distances from points (P, n) to the support, for m in (1, 2).

    Each compact chunk of points (centre c, radius rho) measures only the
    simplices with d(c, t) <= min_t d(c, t) + 2 rho, plus a rounding
    slack; this is exact, since for q in the chunk a dropped t has
    d(q, t) >= d(c, t) - rho > d_min + rho >= d(q, t*), so the minimum
    over the kept simplices is the float the unpruned pass returns.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    va = chain.vertex_array()
    if len(va) == 0:
        return np.full(len(points), np.inf)
    chunks = _point_chunks(points)
    centres = np.array([0.5 * (points[i].min(axis=0) + points[i].max(axis=0)) for i in chunks])
    rho = np.array([np.max(np.linalg.norm(points[i] - c, axis=1)) for i, c in zip(chunks, centres)])
    # far above the rounding of a computed distance, which scales with the
    # coordinates
    slack = 1e-9 * max(float(np.max(np.abs(va))), float(np.max(np.abs(points))))
    out = np.empty(len(points))
    step = max(1, _DIST_CHUNK // va[:, 0].size)
    for lo in range(0, len(chunks), step):
        dc = _pair_dists(va, centres[lo : lo + step])
        for idx, row, rh in zip(chunks[lo : lo + step], dc, rho[lo : lo + step]):
            out[idx] = _min_dists(va[row <= row.min() + 2 * rh + slack], points[idx])
    return out


def _min_dists(va: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances from points to the union of the simplices ``va``, with the
    temporaries below :data:`_DIST_CHUNK` elements."""
    step = max(1, _DIST_CHUNK // va[:, 0].size)
    return np.concatenate(
        [np.min(_pair_dists(va, points[lo : lo + step]), axis=1) for lo in range(0, len(points), step)]
    )


def _segment_dists(q0: np.ndarray, q1: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances (P, T) from points p (P, 1, n) to the segments [q0, q1] (T, n)."""
    dd = q1 - q0
    den = np.maximum(np.einsum("ij,ij->i", dd, dd), 1e-300)
    u = np.clip(np.einsum("ptj,tj->pt", p - q0, dd) / den, 0.0, 1.0)
    return np.linalg.norm(q0 + u[..., None] * dd - p, axis=2)


def _pair_dists(va: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances (P, T) from points (P, n) to the simplices ``va`` (T, m+1, n)."""
    p = points[:, None, :]
    if va.shape[1] == 2:
        return _segment_dists(va[:, 0], va[:, 1], p)
    # point-triangle distance: the interior foot where the barycentric
    # solve lands inside, else the nearest of the three edges
    e1 = va[:, 1] - va[:, 0]
    e2 = va[:, 2] - va[:, 0]
    w = p - va[:, 0]
    a = np.einsum("ij,ij->i", e1, e1)
    b = np.einsum("ij,ij->i", e1, e2)
    c = np.einsum("ij,ij->i", e2, e2)
    d1 = np.einsum("ptj,tj->pt", w, e1)
    d2 = np.einsum("ptj,tj->pt", w, e2)
    det = np.maximum(a * c - b * b, 1e-300)
    sbar = (c * d1 - b * d2) / det
    tbar = (a * d2 - b * d1) / det
    inside = (sbar >= 0) & (tbar >= 0) & (sbar + tbar <= 1)
    foot = va[:, 0] + sbar[..., None] * e1 + tbar[..., None] * e2
    best = np.where(inside, np.linalg.norm(foot - p, axis=2), np.inf)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        best = np.minimum(best, _segment_dists(va[:, i], va[:, j], p))
    return best


def _support_points_on_fiber(
    simplices: np.ndarray, x: np.ndarray, direction: np.ndarray, constraints: np.ndarray, s: float
) -> list[np.ndarray]:
    """Support points ``p`` with ``|p - x| = s``, the in-plane projection
    along ``direction`` positive, and zero components along ``constraints``;
    ``simplices`` is a (T, m+1, n) vertex stack."""
    out = []
    for verts in simplices:
        v = verts - x
        pieces = [v]
        for c in constraints:
            nxt = []
            for piece in pieces:
                d = piece @ c
                if np.all(d > 1e-13) or np.all(d < -1e-13):
                    continue
                if piece.shape[0] == 2:
                    t = d[0] / (d[0] - d[1]) if abs(d[0] - d[1]) > 1e-30 else 0.0
                    nxt.append((piece[0] + t * (piece[1] - piece[0]))[None, :])
                else:
                    pts = []
                    for i in range(len(d)):
                        for j in range(i + 1, len(d)):
                            if (d[i] < -1e-13 < 1e-13 < d[j]) or (d[j] < -1e-13 < 1e-13 < d[i]):
                                t = d[i] / (d[i] - d[j])
                                pts.append(piece[i] + t * (piece[j] - piece[i]))
                        if abs(d[i]) <= 1e-13:
                            pts.append(piece[i])
                    if len(pts) >= 2:
                        nxt.append(np.array([pts[0], pts[1]]))
            pieces = nxt
        for piece in pieces:
            if piece.shape[0] == 1:
                p = piece[0]
                if abs(np.linalg.norm(p) - s) <= 1e-9 * max(s, 1.0) and p @ direction > 0:
                    out.append(p + x)
                continue
            a, b = piece[0], piece[1]
            dd = b - a
            aa = float(dd @ dd)
            if aa < 1e-30:
                continue
            bb = 2.0 * float(a @ dd)
            cc = float(a @ a) - s * s
            disc = bb * bb - 4 * aa * cc
            if disc < 0:
                continue
            for sgn in (-1.0, 1.0):
                t = (-bb + sgn * math.sqrt(disc)) / (2 * aa)
                if -1e-12 <= t <= 1 + 1e-12:
                    p = a + t * dd
                    if p @ direction > 1e-12:
                        out.append(p + x)
    return out


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
    ``beta_inf`` at the working scale below ``rho <= 1/(25 sqrt(m))``.
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
        sup = support_sample(chain, x, scale, spacing=scale / 64)
        beta_inf = float(np.max(plane.perp_norms(sup - x))) / scale if len(sup) else 0.0
    if beta_inf >= rho:
        raise ValueError(f"beta_inf {beta_inf:.3g} at the working scale is not below rho {rho:.3g}")
    found: list[np.ndarray] = []
    basis = [plane.frame[i].copy() for i in range(m)]  # current V_k spanning set
    for k in range(m):
        w_dir = basis[0]
        constraints = np.array(basis[1:] + found) if (len(basis) > 1 or found) else np.zeros((0, chain.n))
        cands = _support_points_on_fiber(near, x, w_dir, constraints, s)
        if not cands:
            raise ValueError("no support point on the fiber; projection not surjective")
        rels = [(p - x) / s for p in cands]
        best = max(rels, key=lambda r: float(r @ w_dir))
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
    dirs = np.array(found)
    gram = dirs @ dirs.T
    defect = float(np.max(np.abs(gram - np.eye(m))))
    sup_d = float(np.max(_dist_to_support(chain, x + s * dirs)))
    return Frame(dirs, s, x, defect, sup_d)


def support_sample(chain: PolyChain, x, r: float, spacing: float) -> np.ndarray:
    """Deterministic point sample of ``spt(T) ∩ B(x, r)`` at ~``spacing``.

    Segments get evenly spaced nodes over their window around the ball;
    triangles get a barycentric grid over a box around the ball window
    (half-widths from the altitudes), its node count capped by the
    window's area at the target spacing so that thin triangles do not
    oversample.  Nodes come simplex by simplex in term order, grid rows
    in order.  Only the nodes of each row near its chord through the ball
    are built and measured.
    """
    x = np.asarray(x, dtype=float)
    near = chain.near_ball(x, r)
    if not len(near):
        return np.zeros((0, chain.n))
    v = chain.verts[near]
    diam = chain.diameters()[near]
    v0 = v[:, 0]
    e1 = v[:, 1] - v0
    e1_sq = _rowdot(e1, e1)
    # the coordinate size that the rounding of a node and its distance
    # scales with
    scale = r + np.linalg.norm(v0, axis=1) + np.linalg.norm(x) + np.sqrt(e1_sq)
    if chain.m == 1:
        den = np.maximum(e1_sq, 1e-300)
        t0 = _rowdot(x - v0, e1) / den
        half = (r + spacing) / np.sqrt(den)
        a_lo, a_hi = np.maximum(0.0, t0 - half), np.minimum(1.0, t0 + half)
        ka = np.maximum(2, np.ceil((a_hi - a_lo) * diam / spacing).astype(np.int64) + 1)
        # one row per segment
        row = np.flatnonzero(a_hi > a_lo)
        base = v0[row] - x
    else:
        e2 = v[:, 2] - v0
        area2 = np.maximum(2.0 * chain.volumes()[near], 1e-30)
        # LAPACK's least-squares solve, one triangle at a time: its rounding
        # places the window, and with it every node
        lam = np.array([_window_centre(np.stack([a, b], axis=1), w) for a, b, w in zip(e1, e2, x - v0)])
        e2_len = np.sqrt(_rowdot(e2, e2))
        scale = scale + e2_len
        pad = r + 2 * spacing
        wa = pad * e2_len / area2
        wb = pad * np.sqrt(e1_sq) / area2
        a_lo, a_hi = np.maximum(0.0, lam[:, 0] - wa), np.minimum(1.0, lam[:, 0] + wa)
        b_lo, b_hi = np.maximum(0.0, lam[:, 1] - wb), np.minimum(1.0, lam[:, 1] + wb)
        ok = (a_hi > a_lo) & (b_hi > b_lo)
        ka = np.maximum(2, np.ceil((a_hi - a_lo) * diam / spacing).astype(np.int64) + 1)
        kb = np.maximum(2, np.ceil((b_hi - b_lo) * diam / spacing).astype(np.int64) + 1)
        # thin triangles oversample under skew barycentric axes: cap the
        # node count by the window's actual area at the target spacing
        window_area = (a_hi - a_lo) * (b_hi - b_lo) * area2
        target = np.maximum(16.0, 4.0 * window_area / (spacing * spacing))
        blow = np.sqrt(np.maximum(1.0, ka * kb / target))
        ka = np.minimum(np.maximum(2, (ka / blow).astype(np.int64)), 160)
        kb = np.where(ok, np.minimum(np.maximum(2, (kb / blow).astype(np.int64)), 160), 0)
        # one row per node of the b axis: meshgrid's row-major order
        row = np.repeat(np.arange(len(near)), kb)
        i = np.arange(len(row)) - np.repeat(np.cumsum(kb) - kb, kb)
        b_row = b_lo[row] + (b_hi - b_lo)[row] * _unit_nodes(i, kb[row])
        base = v0[row] - x + b_row[:, None] * e2[row]
    # the row's nodes a_j = a_lo + (a_hi - a_lo) j / (ka - 1) that can lie in
    # the ball: its chord, widened far beyond the rounding of the nodes
    ee = e1_sq[row]
    foot = -_rowdot(base, e1[row]) / ee
    chord2 = r * r - (_rowdot(base, base) - foot * foot * ee) + 1e-9 * scale[row] ** 2
    chord = np.sqrt(np.maximum(chord2, 0.0) / ee)
    hi_a = foot + chord
    if chain.m == 2:
        hi_a = np.minimum(hi_a, 1.0 + 1e-12 - b_row)
    span, steps = (a_hi - a_lo)[row], (ka - 1)[row]
    j_lo = np.clip(np.floor((foot - chord - a_lo[row]) / span * steps) - 1, 0, steps).astype(np.int64)
    j_hi = np.clip(np.ceil((hi_a - a_lo[row]) / span * steps) + 1, -1, steps).astype(np.int64)
    count = np.where(chord2 >= 0, np.maximum(j_hi - j_lo + 1, 0), 0)
    start = np.cumsum(count) - count
    pts = []
    for rows in np.split(np.arange(len(row)), np.flatnonzero(np.diff(start // _SAMPLE_CHUNK)) + 1):
        rows = rows[count[rows] > 0]
        if not len(rows):
            continue
        node_row = np.repeat(rows, count[rows])
        j = j_lo[node_row] + np.arange(len(node_row)) - np.repeat(start[rows] - start[rows[0]], count[rows])
        t = row[node_row]
        a = a_lo[t] + (a_hi - a_lo)[t] * _unit_nodes(j, ka[t])
        p = v0[t] + a[:, None] * e1[t]
        if chain.m == 2:
            b = b_row[node_row]
            keep = a + b <= 1.0 + 1e-12
            p = p[keep] + b[keep, None] * e2[t[keep]]
        pts.append(p[np.linalg.norm(p - x, axis=1) <= r])
    if not pts:
        return np.zeros((0, chain.n))
    return np.vstack(pts)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products that round as ``a[i] @ b[i]`` does."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _window_centre(e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of the ball centre's foot on a triangle's
    plane (least squares on its edge matrix), NaN where the solve fails."""
    try:
        return np.linalg.lstsq(e, w, rcond=None)[0]
    except np.linalg.LinAlgError:
        return np.full(2, np.nan)


def _unit_nodes(i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``np.linspace(0, 1, k)[i]`` elementwise: ``i * (1 / (k - 1))``, and 1
    at the last node."""
    return np.where(i == k - 1, 1.0, i * (1.0 / (k - 1)))


def _hausdorff_chain_plane(
    chain: PolyChain, sup: np.ndarray, x: np.ndarray, r: float, plane: OrientedPlane, grid: int = 24
) -> float:
    """Two-sided Hausdorff distance between the support window and the
    plane ball; support-to-plane from the sample, plane-to-support by
    exact point-to-chain distances on a deterministic grid."""
    if len(sup) == 0:
        return r
    rel = sup - x
    inplane = plane.project_coords(rel)
    norms = np.linalg.norm(inplane, axis=1, keepdims=True)
    clamped = inplane / np.maximum(norms / r, 1.0)
    d1 = float(np.max(np.linalg.norm(rel - plane.embed(clamped), axis=1)))
    if plane.m == 1:
        coords = np.linspace(-r, r, 2 * grid + 1)[:, None]
    else:
        rows = [np.zeros((1, 2))]
        for k in range(1, grid + 1):
            rad = r * k / grid
            cnt = max(6, int(round(2 * math.pi * k)))
            ang = 2 * math.pi * np.arange(cnt) / cnt
            rows.append(rad * np.stack([np.cos(ang), np.sin(ang)], axis=1))
        coords = np.vstack(rows)
    d2 = float(np.max(_dist_to_support(chain, x + plane.embed(coords))))
    return max(d1, d2)


@dataclass
class ScanCell:
    """Measurements of one (point, scale) cell."""

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
    sup_floor: float = 0.0  # beta_inf's sampling floor over r, 0 when exact


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


def _centered_form(bm: BallMoments, x: np.ndarray):
    """Centroid and centred second-moment form of the ball's measure."""
    if bm.s0 <= 0:
        return None, None
    centroid = x + bm.s1 / bm.s0
    cov = bm.s2 - np.outer(bm.s1, bm.s1) / bm.s0
    return centroid, 0.5 * (cov + cov.T)


def multiscale_scan(
    chain: PolyChain,
    points,
    r0: float,
    depth: int,
    refine_h: float = 1e-2,
    sample_spacing: float | None = None,
) -> ScanReport:
    """Scan each point over the dyadic scales ``r_k = 2^-k r0``.

    Records the spectral plane, both flatness numbers (anchored at the
    query point and at the local centroid), the two-sided Hausdorff
    distance, the density ratio, the frame-found flag, and cross-scale
    plane coherence against the two-scale bound with the measured eta.
    Each cell takes its density, plane, ``beta_2`` and centred form from
    one exact moment pass over its ball.  An empty chain raises
    ``ValueError``.
    """
    if chain.is_zero:
        raise ValueError("empty chain")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = chain.m
    am = alpha_m(m)
    report = ScanReport(points, r0, depth)

    def do_cell(pi: int, k: int) -> ScanCell:
        x = points[pi]
        r = r0 * 2.0**-k
        spacing = sample_spacing if sample_spacing is not None else r / 48
        sup = support_sample(chain, x, r, spacing)
        # mass-weighted moments give s0 = ||T||(B); density ratio from it
        bm = chain_ball_moments(chain, x, r)
        dens = bm.s0 / (am * r**m)
        try:
            plane, _ = select_plane(_form_from_moments(bm, m, x, r), m)
        except AmbiguousPlaneError:
            return ScanCell(pi, k, r, None, 0.0, 0.0, 0.0, 0.0, dens, 1.0, False, True)
        br = _beta_from_moments(chain, bm, x, r, plane)
        centroid, cov = _centered_form(bm, x)
        binf_c = br.beta_inf
        if centroid is not None:
            w, vecs = np.linalg.eigh(cov)
            order = np.argsort(w)[::-1]
            cplane = OrientedPlane.from_span(vecs[:, order[:m]].T)
            if len(sup):
                rel = sup - centroid
                binf_c = float(np.max(cplane.perp_norms(rel))) / r
        dh = _hausdorff_chain_plane(chain, sup, x, r, plane, grid=24)
        frame_ok = False
        try:
            rho_gate = min(br.beta_inf * 1.5 + 1e-6, 1.0 / (25 * math.sqrt(m)))
            if br.beta_inf < rho_gate:
                find_frame(chain, x, 0.9 * r, plane, rho_gate, scale=r, beta_inf=br.beta_inf)
                frame_ok = True
        except ValueError:
            frame_ok = False
        return ScanCell(
            pi, k, r, plane, br.beta2, br.beta_inf, binf_c, dh, dens, dh / r, frame_ok,
            sup_floor=br.sup_floor,
        )

    for pi in range(len(points)):
        for k in range(depth + 1):
            report.cells[(pi, k)] = do_cell(pi, k)

    # cross-scale coherence with the measured eta
    for pi in range(len(points)):
        for k in range(depth):
            a = report.cells.get((pi, k))
            b = report.cells.get((pi, k + 1))
            if a is None or b is None or a.plane is None or b.plane is None:
                continue
            eps = max(a.eta, b.eta)
            b.coherence_bound = eps * (2.0 + a.radius / b.radius)
            b.coherence_measured = plane_distance(a.plane, b.plane)
    return report


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
    fiber_grid: int = 64,
    fiber_tol: float = 1e-7,
    dini_budget: float = 1.0 / 120.0,
    drift_floor: float = 1e-9,
) -> GraphCertificate:
    """Certify the support as a single graph near a scanned point.

    Gates: per-scale plane fits define a gauge ``eta`` whose Dini sum must
    stay within the budget, ``eta(s)/s`` must be nonincreasing on the
    scale grid, and every fiber over the top plane must meet the support
    in at most one cluster (injectivity); the Lipschitz bound and the
    tangent-drift table with its fitted exponent come with the
    certificate.
    """
    cells = [c for c in report.point_cells(point_index) if c.plane is not None]
    if not cells:
        return GraphCertificate(False, "no usable scales", 0.0, dini_budget, 0.0, np.array([]), np.array([]), None)
    x = report.points[point_index]
    eta_hat = report.dini_sum(point_index)
    etas = np.array([c.eta for c in cells])
    radii = np.array([c.radius for c in cells])
    drifts = []
    dscales = []
    for a, b in zip(cells[:-1], cells[1:]):
        drifts.append(plane_distance(a.plane, b.plane))
        dscales.append(a.radius)
    drifts = np.array(drifts)
    dscales = np.array(dscales)
    # modulus fit: drift of each scale's plane to the finest plane (the
    # available stand-in for the limit tangent), which accumulates the
    # per-scale table and is far less noisy than consecutive drifts
    exponent = None
    if len(cells) >= 4:
        ref = cells[-1].plane
        to_limit = np.array([plane_distance(c.plane, ref) for c in cells[:-2]])
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
    W = top.plane
    r = top.radius
    window = _graph_window(chain, x, r, W)
    if window is None:
        return GraphCertificate(False, "empty support window", eta_hat, dini_budget, 0.0, dscales, drifts, exponent)
    bc, hh = window
    # fiber injectivity: bucket the base coordinates, look for split heights
    lim = r / 2
    if W.m == 1:
        bins = np.clip(((bc[:, 0] + lim) / (2 * lim) * fiber_grid).astype(int), 0, fiber_grid - 1)
    else:
        bx = np.clip(((bc[:, 0] + lim) / (2 * lim) * fiber_grid).astype(int), 0, fiber_grid - 1)
        by = np.clip(((bc[:, 1] + lim) / (2 * lim) * fiber_grid).astype(int), 0, fiber_grid - 1)
        bins = bx * fiber_grid + by
    fiber_width = 2 * lim / fiber_grid
    if _fiber_split(bins, hh, max(fiber_tol, 4 * fiber_width)):
        return GraphCertificate(
            False, "fiber meets the support in two clusters", eta_hat, dini_budget, 0.0, dscales, drifts, exponent
        )
    # Lipschitz bound of the graph from about 400 sampled points, over the
    # pairs farther apart than a fiber
    lips = 0.0
    if len(bc) >= 2:
        sel = np.arange(0, len(bc), max(1, len(bc) // 400))
        P2, H2 = bc[sel], hh[sel]
        dist = np.linalg.norm(P2[None, :, :] - P2[:, None, :], axis=2)
        far = dist > fiber_width
        if np.any(far):
            lips = float(np.max(np.abs(H2[None, :] - H2[:, None])[far] / dist[far]))
    if lips > 1.0 + 1e-9:
        return GraphCertificate(False, f"Lipschitz bound {lips:.3g} exceeds 1", eta_hat, dini_budget, lips, dscales, drifts, exponent)
    return GraphCertificate(True, "ok", eta_hat, dini_budget, lips, dscales, drifts, exponent)


def _graph_window(chain: PolyChain, x: np.ndarray, r: float, W: OrientedPlane):
    """Base coordinates over ``W`` and heights off it of the support sample
    points at spacing ``r/128`` whose base lies in the box ``|.|_inf <= r/2``;
    None for an empty sample.  The full sample dies on return."""
    rel = support_sample(chain, x, r, spacing=r / 128) - x
    if len(rel) == 0:
        return None
    base_coords = W.project_coords(rel)
    hcoords = rel @ W.perp_frame().T
    keep = np.max(np.abs(base_coords), axis=1) <= r / 2
    if hcoords.shape[1] == 1:
        return base_coords[keep], hcoords[keep, 0]
    return base_coords[keep], np.linalg.norm(hcoords[keep], axis=1)


def _fiber_split(bins: np.ndarray, heights: np.ndarray, gap: float) -> bool:
    """Whether some bin's sorted heights jump by more than ``gap``."""
    order = np.lexsort((heights, bins))
    same = bins[order][1:] == bins[order][:-1]
    return bool(np.any(np.diff(heights[order])[same] > gap))


def theoretical_exponent(m: int, alpha: float, lam: float | None = None) -> float:
    """``beta = min(alpha0, alpha) / (8 (m + 2))`` with
    ``alpha0 = m (1 - lam^{1/4}) / lam^{1/4}``."""
    if not 0 < alpha <= 1:
        raise ValueError("need 0 < alpha <= 1")
    if lam is None:
        lam = lambda_epi(m)
    a0 = alpha0_exponent(m, lam)
    return min(a0, alpha) / (8.0 * (m + 2))
