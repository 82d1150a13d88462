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


def _dist_to_support(chain: PolyChain, points: np.ndarray) -> np.ndarray:
    """Exact distances from points (P, n) to the support, for m in (1, 2).

    Points go through in chunks, so the temporaries stay below
    :data:`_DIST_CHUNK` elements however many points are asked for.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    va = chain.vertex_array()
    if len(va) == 0:
        return np.full(len(points), np.inf)
    step = max(1, _DIST_CHUNK // va[:, 0].size)
    return np.concatenate(
        [_dist_chunk(va, points[lo : lo + step]) for lo in range(0, len(points), step)]
    )


def _segment_dists(q0: np.ndarray, q1: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances (P, T) from points p (P, 1, n) to the segments [q0, q1] (T, n)."""
    dd = q1 - q0
    den = np.maximum(np.einsum("ij,ij->i", dd, dd), 1e-300)
    u = np.clip(np.einsum("ptj,tj->pt", p - q0, dd) / den, 0.0, 1.0)
    return np.linalg.norm(q0 + u[..., None] * dd - p, axis=2)


def _dist_chunk(va: np.ndarray, points: np.ndarray) -> np.ndarray:
    p = points[:, None, :]
    if va.shape[1] == 2:
        return np.min(_segment_dists(va[:, 0], va[:, 1], p), axis=1)
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
    return np.min(best, axis=1)


def _segment_window(v: np.ndarray, x: np.ndarray, r: float) -> tuple[float, float]:
    d = v[1] - v[0]
    den = max(float(d @ d), 1e-300)
    t0 = float((x - v[0]) @ d) / den
    half = r / math.sqrt(den)
    return max(0.0, t0 - half), min(1.0, t0 + half)




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
    """Deterministic point sample of ``spt(T) ∩ B(x, r)`` at ~``spacing``."""
    x = np.asarray(x, dtype=float)
    pts = []
    if chain.is_zero:
        return np.zeros((0, chain.n))
    diams = chain.diameters()
    volumes = chain.volumes()
    for idx in chain.near_ball(x, r):
        v = chain.verts[idx]
        diam = diams[idx]
        if chain.m == 1:
            lo, hi = _segment_window(v, x, r + spacing)
            if hi <= lo:
                continue
            k = max(2, int(math.ceil((hi - lo) * diam / spacing)) + 1)
            ts = lo + (hi - lo) * np.linspace(0.0, 1.0, k)
            p = v[0][None, :] + ts[:, None] * (v[1] - v[0])[None, :]
        else:
            # restrict the barycentric grid to a box around the ball window
            # (half-widths from the triangle altitudes), else big triangles
            # explode the node count
            e1, e2 = v[1] - v[0], v[2] - v[0]
            area2 = max(2.0 * float(volumes[idx]), 1e-30)
            try:
                lam = np.linalg.lstsq(np.stack([e1, e2], axis=1), x - v[0], rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            pad = r + 2 * spacing
            wa = pad * np.linalg.norm(e2) / area2
            wb = pad * np.linalg.norm(e1) / area2
            a_lo, a_hi = max(0.0, lam[0] - wa), min(1.0, lam[0] + wa)
            b_lo, b_hi = max(0.0, lam[1] - wb), min(1.0, lam[1] + wb)
            if a_hi <= a_lo or b_hi <= b_lo:
                continue
            ka = max(2, int(math.ceil((a_hi - a_lo) * diam / spacing)) + 1)
            kb = max(2, int(math.ceil((b_hi - b_lo) * diam / spacing)) + 1)
            # thin triangles oversample under skew barycentric axes: cap the
            # node count by the window's actual area at the target spacing
            window_area = (a_hi - a_lo) * (b_hi - b_lo) * area2
            target = max(16.0, 4.0 * window_area / (spacing * spacing))
            blow = math.sqrt(max(1.0, ka * kb / target))
            ka = max(2, int(ka / blow))
            kb = max(2, int(kb / blow))
            aa, bb = np.meshgrid(
                a_lo + (a_hi - a_lo) * np.linspace(0, 1, min(ka, 160)),
                b_lo + (b_hi - b_lo) * np.linspace(0, 1, min(kb, 160)),
            )
            keep = aa + bb <= 1.0 + 1e-12
            a, b = aa[keep], bb[keep]
            p = v[0][None, :] + a[:, None] * e1[None, :] + b[:, None] * e2[None, :]
        inside = np.linalg.norm(p - x, axis=1) <= r
        if np.any(inside):
            pts.append(p[inside])
    if not pts:
        return np.zeros((0, chain.n))
    return np.vstack(pts)




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
    one exact moment pass over its ball.
    """
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
            pi, k, r, plane, br.beta2, br.beta_inf, binf_c, dh, dens, dh / r, frame_ok
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
    sup = support_sample(chain, x, r, spacing=r / 128)
    if len(sup) == 0:
        return GraphCertificate(False, "empty support window", eta_hat, dini_budget, 0.0, dscales, drifts, exponent)
    rel = sup - x
    base_coords = W.project_coords(rel)
    perpf = W.perp_frame()
    hcoords = rel @ perpf.T
    # fiber injectivity: bucket the base coordinates, look for split heights
    lim = r / 2
    keep = np.max(np.abs(base_coords), axis=1) <= lim
    bc = base_coords[keep]
    if hcoords.shape[1] == 1:
        hh = hcoords[keep, 0]
    else:
        hh = np.linalg.norm(hcoords[keep], axis=1)
    if W.m == 1:
        bins = np.clip(((bc[:, 0] + lim) / (2 * lim) * fiber_grid).astype(int), 0, fiber_grid - 1)
    else:
        bx = np.clip(((bc[:, 0] + lim) / (2 * lim) * fiber_grid).astype(int), 0, fiber_grid - 1)
        by = np.clip(((bc[:, 1] + lim) / (2 * lim) * fiber_grid).astype(int), 0, fiber_grid - 1)
        bins = bx * fiber_grid + by
    fiber_width = 2 * lim / fiber_grid
    for bin_id in np.unique(bins):
        vals = np.sort(hh[bins == bin_id])
        if len(vals) < 2:
            continue
        gaps = np.diff(vals)
        if np.max(gaps) > max(fiber_tol, 4 * fiber_width):
            return GraphCertificate(
                False, "fiber meets the support in two clusters", eta_hat, dini_budget, 0.0, dscales, drifts, exponent
            )
    # Lipschitz bound of the graph from the sampled points
    lips = 0.0
    if len(bc) >= 2:
        step = max(1, len(bc) // 400)
        sel = np.arange(0, len(bc), step)
        P2 = bc[sel]
        H2 = hh[sel]
        for i in range(len(P2)):
            d = np.linalg.norm(P2 - P2[i], axis=1)
            ok = d > fiber_width
            if np.any(ok):
                lips = max(lips, float(np.max(np.abs(H2[ok] - H2[i]) / d[ok])))
    if lips > 1.0 + 1e-9:
        return GraphCertificate(False, f"Lipschitz bound {lips:.3g} exceeds 1", eta_hat, dini_budget, lips, dscales, drifts, exponent)
    return GraphCertificate(True, "ok", eta_hat, dini_budget, lips, dscales, drifts, exponent)


def theoretical_exponent(m: int, alpha: float, lam: float | None = None) -> float:
    """``beta = min(alpha0, alpha) / (8 (m + 2))`` with
    ``alpha0 = m (1 - lam^{1/4}) / lam^{1/4}``."""
    if not 0 < alpha <= 1:
        raise ValueError("need 0 < alpha <= 1")
    if lam is None:
        lam = lambda_epi(m)
    a0 = alpha0_exponent(m, lam)
    return min(a0, alpha) / (8.0 * (m + 2))
