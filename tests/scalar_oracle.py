"""Per-simplex, per-point reference implementations of the exact ball
integrals, the beta_inf sup scan, the point-to-support distance, the
support sample and the per-bin fiber check of the scanner, the
layer-constancy check, the polygon-cylinder clipping and the full-clip
zone excess of the comparison pipeline, the averaged graph, and the chain
construction filter, ``boundary``, ``merge_terms`` and ``size``.

These are the loop-based routines the batched kernels in
``gmtepi.chains``, ``gmtepi.quadrature``, ``gmtepi.moments``,
``gmtepi.scan``, ``gmtepi.layers`` and ``gmtepi.epi`` replaced.
They are kept here, with the arithmetic unchanged, as the oracle the
equivalence tests compare the batched code against.
"""

from __future__ import annotations

import math

import numpy as np

from gmtepi.chains import DEGENERATE_GRAM, SNAP, Simplex
from gmtepi.groups import group_add, group_neg
from gmtepi.quadrature import BallMoments

_GAUSS3_NODES = np.array(
    [0.5 - math.sqrt(3.0 / 5.0) / 2.0, 0.5, 0.5 + math.sqrt(3.0 / 5.0) / 2.0]
)
_GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

_SQRT15 = math.sqrt(15.0)
_A1 = (6.0 - _SQRT15) / 21.0
_A2 = (6.0 + _SQRT15) / 21.0
_W1 = (155.0 - _SQRT15) / 1200.0
_W2 = (155.0 + _SQRT15) / 1200.0
_TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_A1, _A1, 1 - 2 * _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [1 - 2 * _A1, _A1, _A1],
        [_A2, _A2, 1 - 2 * _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [1 - 2 * _A2, _A2, _A2],
    ]
)
_TRI_WEIGHTS = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


def trig_monomial_integral(a: int, b: int, phi0: float, dphi: float) -> float:
    """Exact ``int_{phi0}^{phi0+dphi} cos^a(t) sin^b(t) dt``."""
    coeffs: dict[int, complex] = {}
    pref = (0.5 ** (a + b)) * (1j ** (-b))
    for j in range(a + 1):
        cj = math.comb(a, j)
        for k in range(b + 1):
            ck = math.comb(b, k) * ((-1) ** (b - k))
            freq = 2 * j + 2 * k - a - b
            coeffs[freq] = coeffs.get(freq, 0.0) + pref * cj * ck
    total = 0.0 + 0.0j
    phi1 = phi0 + dphi
    for freq, c in coeffs.items():
        if freq == 0:
            total += c * dphi
        else:
            total += c * (np.exp(1j * freq * phi1) - np.exp(1j * freq * phi0)) / (1j * freq)
    return float(total.real)


def _edge_pieces(p: np.ndarray, q: np.ndarray, radius: float):
    d = q - p
    aa = float(d @ d)
    if aa <= 1e-30:
        return []
    bb = 2.0 * float(p @ d)
    cc = float(p @ p) - radius * radius
    disc = bb * bb - 4.0 * aa * cc
    if disc <= 0.0:
        return [(0.0, 1.0, cc <= 0.0)]
    sq = math.sqrt(disc)
    t1 = (-bb - sq) / (2.0 * aa)
    t2 = (-bb + sq) / (2.0 * aa)
    lo = max(0.0, min(1.0, t1))
    hi = max(0.0, min(1.0, t2))
    pieces = []
    if lo > 1e-15:
        pieces.append((0.0, lo, False))
    if hi - lo > 1e-15:
        pieces.append((lo, hi, True))
    if 1.0 - hi > 1e-15:
        pieces.append((hi, 1.0, False))
    if not pieces:
        pieces.append((0.0, 1.0, cc <= 0.0))
    return pieces


def disk_clip_pieces(poly: np.ndarray, center: np.ndarray, radius: float):
    """Signed chord triangles and sectors of ``poly ∩ disk``."""
    center = np.asarray(center, dtype=float)
    k = poly.shape[0]
    triangles = []
    sectors = []
    for i in range(k):
        p = poly[i] - center
        q = poly[(i + 1) % k] - center
        for ta, tb, inside in _edge_pieces(p, q, radius):
            xa = p + ta * (q - p)
            xb = p + tb * (q - p)
            if inside:
                if abs(xa[0] * xb[1] - xa[1] * xb[0]) > 1e-30:
                    triangles.append(np.array([center, center + xa, center + xb]))
            else:
                dot = float(xa @ xb)
                crs = float(xa[0] * xb[1] - xa[1] * xb[0])
                dphi = math.atan2(crs, dot)
                if abs(dphi) > 1e-15:
                    sectors.append((math.atan2(xa[1], xa[0]), dphi))
    return triangles, sectors


def _signed_area2(tri: np.ndarray) -> float:
    u = tri[1] - tri[0]
    v = tri[2] - tri[0]
    return 0.5 * (u[0] * v[1] - u[1] * v[0])


def disk_polygon_area(poly: np.ndarray, center: np.ndarray, radius: float) -> float:
    triangles, sectors = disk_clip_pieces(poly, center, radius)
    area = sum(_signed_area2(t) for t in triangles)
    area += sum(0.5 * radius * radius * dphi for _, dphi in sectors)
    return float(area)


def disk_polygon_monomials(poly, center, radius, degree: int = 4) -> np.ndarray:
    triangles, sectors = disk_clip_pieces(poly, center, radius)
    M = np.zeros((degree + 1, degree + 1))
    for tri in triangles:
        sa = _signed_area2(tri)
        if sa == 0.0:
            continue
        pts = _TRI_BARY @ tri
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                vals = pts[:, 0] ** a * pts[:, 1] ** b
                M[a, b] += sa * float(np.dot(_TRI_WEIGHTS, vals))
    if sectors:
        cx, cy = float(center[0]), float(center[1])
        ang = np.zeros((degree + 1, degree + 1))
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                ang[i, j] = sum(
                    trig_monomial_integral(i, j, phi0, dphi) for phi0, dphi in sectors
                )
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                acc = 0.0
                for i in range(a + 1):
                    ci = math.comb(a, i) * cx ** (a - i)
                    for j in range(b + 1):
                        cj = math.comb(b, j) * cy ** (b - j)
                        radial = radius ** (i + j + 2) / (i + j + 2)
                        acc += ci * cj * radial * ang[i, j]
                M[a, b] += acc
    return M


def _plane_frame(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edges = (vertices[1:] - vertices[0]).T
    q, r = np.linalg.qr(edges)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T, vertices[0]


def segment_ball_moments(vertices, center, radius) -> BallMoments:
    n = vertices.shape[1]
    p = vertices[0] - center
    d = vertices[1] - vertices[0]
    aa = float(d @ d)
    if aa <= 1e-30:
        return BallMoments.zero(n)
    bb = 2.0 * float(p @ d)
    cc = float(p @ p) - radius * radius
    disc = bb * bb - 4.0 * aa * cc
    if disc <= 0.0:
        if cc > 0.0:
            return BallMoments.zero(n)
        t1, t2_ = 0.0, 1.0
    else:
        sq = math.sqrt(disc)
        t1 = max(0.0, (-bb - sq) / (2.0 * aa))
        t2_ = min(1.0, (-bb + sq) / (2.0 * aa))
        if t2_ <= t1:
            return BallMoments.zero(n)
    length = math.sqrt(aa) * (t2_ - t1)
    ts = t1 + (t2_ - t1) * _GAUSS3_NODES
    pts = p[None, :] + ts[:, None] * d[None, :]
    w = _GAUSS3_WEIGHTS * length
    norms2 = np.einsum("ij,ij->i", pts, pts)
    return BallMoments(
        float(np.sum(w)),
        pts.T @ w,
        np.einsum("i,ij,ik->jk", w, pts, pts),
        float(np.dot(w, norms2)),
        pts.T @ (w * norms2),
        float(np.dot(w, norms2 * norms2)),
    )


def simplex_ball_moments(vertices, center, radius) -> BallMoments:
    m = vertices.shape[0] - 1
    n = vertices.shape[1]
    center = np.asarray(center, dtype=float)
    if m == 1:
        return segment_ball_moments(vertices, center, radius)
    frame, base = _plane_frame(vertices)
    rel = center - base
    a_in = frame @ rel
    h2 = float(rel @ rel - a_in @ a_in)
    if h2 < 0.0:
        h2 = 0.0
    r2 = radius * radius - h2
    if r2 <= 0.0:
        return BallMoments.zero(n)
    rho = math.sqrt(r2)
    poly = (vertices - base) @ frame.T
    M = disk_polygon_monomials(poly - a_in, np.zeros(2), rho, degree=4)
    if M[0, 0] < 0:
        M = -M
    hvec = -(rel - frame.T @ a_in)
    E = frame.T
    s0 = M[0, 0]
    m1 = np.array([M[1, 0], M[0, 1]])
    M2 = np.array([[M[2, 0], M[1, 1]], [M[1, 1], M[0, 2]]])
    tr2 = M[2, 0] + M[0, 2]
    m3 = np.array([M[3, 0] + M[1, 2], M[2, 1] + M[0, 3]])
    tr4 = M[4, 0] + 2.0 * M[2, 2] + M[0, 4]
    s1 = hvec * s0 + E @ m1
    s2 = (
        np.outer(hvec, hvec) * s0
        + np.outer(hvec, E @ m1)
        + np.outer(E @ m1, hvec)
        + E @ M2 @ E.T
    )
    t2 = h2 * s0 + tr2
    u3 = hvec * (h2 * s0 + tr2) + E @ (h2 * m1 + m3)
    t4 = h2 * h2 * s0 + 2.0 * h2 * tr2 + tr4
    return BallMoments(s0, s1, s2, t2, u3, t4)


def simplex_ball_mass(vertices, center, radius) -> float:
    m = vertices.shape[0] - 1
    center = np.asarray(center, dtype=float)
    if m == 1:
        return segment_ball_moments(vertices, center, radius).s0
    frame, base = _plane_frame(vertices)
    rel = center - base
    a_in = frame @ rel
    h2 = float(rel @ rel - a_in @ a_in)
    r2 = radius * radius - max(h2, 0.0)
    if r2 <= 0.0:
        return 0.0
    poly = (vertices - base) @ frame.T
    return abs(disk_polygon_area(poly - a_in, np.zeros(2), math.sqrt(r2)))


def chain_ball_moments(chain, center, radius) -> BallMoments:
    """Sum of per-simplex moments weighted by coefficient norms."""
    center = np.asarray(center, dtype=float)
    total = BallMoments.zero(chain.n)
    va = chain.vertex_array()
    if len(va) == 0:
        return total
    near = np.min(np.linalg.norm(va - center, axis=2), axis=1) - chain.diameters() <= radius
    for t in np.nonzero(near)[0]:
        bm = simplex_ball_moments(va[t], center, radius)
        w = chain.coeff_norms()[t]
        total.s0 += w * bm.s0
        total.s1 += w * bm.s1
        total.s2 += w * bm.s2
        total.t2 += w * bm.t2
        total.u3 += w * bm.u3
        total.t4 += w * bm.t4
    return total


def chain_ball_mass(chain, center, radius) -> float:
    va = chain.vertex_array()
    w = chain.coeff_norms()
    return sum(w[t] * simplex_ball_mass(va[t], center, radius) for t in range(len(va)))


def _inside_triangle(dom: np.ndarray, p: np.ndarray, tol: float = 1e-12) -> bool:
    T = np.column_stack([dom[1] - dom[0], dom[2] - dom[0]])
    det = float(np.linalg.det(T))
    if abs(det) < 1e-30:
        return False
    lam = np.linalg.solve(T, p - dom[0])
    return bool(lam[0] >= -tol and lam[1] >= -tol and 1 - lam.sum() >= -tol)


def sup_perp_in_ball(chain, x, r, plane) -> tuple[float, float]:
    """The beta_inf sup scan and its angular floor, simplex by simplex."""
    perp = plane.perp_frame()
    codim = perp.shape[0]
    best = 0.0
    floor = 0.0
    for simplex, _ in chain.terms:
        v = simplex.vertices
        d = np.linalg.norm(v - x, axis=1)
        m = simplex.m
        diameter = max(
            float(np.linalg.norm(v[i] - v[j])) for i in range(len(v)) for j in range(i + 1, len(v))
        )
        if np.min(d) - diameter > r:
            continue
        for i in range(len(v)):
            if d[i] <= r + 1e-12:
                best = max(best, float(np.linalg.norm(perp @ (v[i] - x))))
        for i in range(len(v)):
            for j in range(i + 1, len(v)):
                p, q = v[i] - x, v[j] - x
                dd = q - p
                aa = float(dd @ dd)
                if aa < 1e-30:
                    continue
                bb = 2.0 * float(p @ dd)
                cc = float(p @ p) - r * r
                disc = bb * bb - 4 * aa * cc
                if disc <= 0:
                    continue
                for sgn in (-1.0, 1.0):
                    t = (-bb + sgn * math.sqrt(disc)) / (2 * aa)
                    if -1e-12 <= t <= 1 + 1e-12:
                        best = max(best, float(np.linalg.norm(perp @ (p + t * dd))))
        if m == 2:
            edges = (v[1:] - v[0]).T
            q_, _ = np.linalg.qr(edges)
            E = q_.T
            rel = x - v[0]
            a_in = E @ rel
            h2 = float(rel @ rel - a_in @ a_in)
            r2 = r * r - max(h2, 0.0)
            if r2 <= 0:
                continue
            rho = math.sqrt(r2)
            foot2 = a_in
            dom = (v - v[0]) @ E.T
            if codim == 1:
                g = E @ perp[0]
                gn = float(np.linalg.norm(g))
                cands = [foot2 + rho * g / gn, foot2 - rho * g / gn] if gn > 1e-14 else []
                exact = True
            else:
                ang = 2 * math.pi * np.arange(64) / 64
                cands = [foot2 + rho * np.array([math.cos(a), math.sin(a)]) for a in ang]
                exact = False
            base_perp = perp @ (v[0] - x)
            for c2 in cands:
                if _inside_triangle(dom, c2):
                    y_rel = base_perp + (perp @ E.T) @ c2
                    best = max(best, float(np.linalg.norm(y_rel)))
            if not exact and rho > 0:
                floor = max(floor, rho * (math.pi / 64) ** 2)
    return best, floor


def dist_to_support(chain, p: np.ndarray) -> float:
    """Distance from one point to the support, one point at a time."""
    va = chain.vertex_array()
    if len(va) == 0:
        return float("inf")
    if chain.m == 1:
        a = va[:, 0]
        d = va[:, 1] - va[:, 0]
        den = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
        t = np.clip(np.einsum("ij,ij->i", p - a, d) / den, 0.0, 1.0)
        proj = a + t[:, None] * d
        return float(np.min(np.linalg.norm(proj - p, axis=1)))
    e1 = va[:, 1] - va[:, 0]
    e2 = va[:, 2] - va[:, 0]
    w = p[None, :] - va[:, 0]
    a = np.einsum("ij,ij->i", e1, e1)
    b = np.einsum("ij,ij->i", e1, e2)
    c = np.einsum("ij,ij->i", e2, e2)
    d1 = np.einsum("ij,ij->i", e1, w)
    d2 = np.einsum("ij,ij->i", e2, w)
    det = np.maximum(a * c - b * b, 1e-300)
    sbar = (c * d1 - b * d2) / det
    tbar = (a * d2 - b * d1) / det
    inside = (sbar >= 0) & (tbar >= 0) & (sbar + tbar <= 1)
    best = float("inf")
    if np.any(inside):
        foot = va[inside, 0] + sbar[inside, None] * e1[inside] + tbar[inside, None] * e2[inside]
        best = float(np.min(np.linalg.norm(foot - p, axis=1)))
    for q0, q1 in ((va[:, 0], va[:, 1]), (va[:, 0], va[:, 2]), (va[:, 1], va[:, 2])):
        dd = q1 - q0
        den = np.maximum(np.einsum("ij,ij->i", dd, dd), 1e-300)
        u = np.clip(np.einsum("ij,ij->i", p[None, :] - q0, dd) / den, 0.0, 1.0)
        proj = q0 + u[:, None] * dd
        best = min(best, float(np.min(np.linalg.norm(proj - p, axis=1))))
    return best


def support_sample(chain, x, r: float, spacing: float) -> np.ndarray:
    """The support sample, one simplex at a time."""
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
            d = v[1] - v[0]
            den = max(float(d @ d), 1e-300)
            t0 = float((x - v[0]) @ d) / den
            half = (r + spacing) / math.sqrt(den)
            lo, hi = max(0.0, t0 - half), min(1.0, t0 + half)
            if hi <= lo:
                continue
            k = max(2, int(math.ceil((hi - lo) * diam / spacing)) + 1)
            ts = lo + (hi - lo) * np.linspace(0.0, 1.0, k)
            p = v[0][None, :] + ts[:, None] * (v[1] - v[0])[None, :]
        else:
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


def fiber_split(bins: np.ndarray, heights: np.ndarray, gap: float) -> bool:
    """Whether some bin's sorted heights jump by more than ``gap``, one bin
    at a time."""
    for bin_id in np.unique(bins):
        vals = np.sort(heights[bins == bin_id])
        if len(vals) < 2:
            continue
        if np.max(np.diff(vals)) > gap:
            return True
    return False


def hausdorff_chain_plane(chain, sup, x, r, plane, grid: int = 24) -> float:
    """Two-sided Hausdorff distance, one grid point at a time."""
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
    d2 = 0.0
    for c in coords:
        d2 = max(d2, dist_to_support(chain, x + plane.embed(c)))
    return max(d1, d2)


# -- comparison-surface pipeline: the loop constancy check and the clipping
# against every polygon edge within a 0.6 rad margin of a term's window


def bary_inside(domain: np.ndarray, x: np.ndarray, tol: float) -> bool:
    m = domain.shape[1]
    if m == 1:
        lo, hi = sorted((float(domain[0, 0]), float(domain[1, 0])))
        return lo - tol <= float(x[0]) <= hi + tol
    T = np.column_stack([domain[1] - domain[0], domain[2] - domain[0]])
    try:
        lam = np.linalg.solve(T, np.asarray(x) - domain[0])
    except np.linalg.LinAlgError:
        return False
    l0 = 1.0 - lam.sum()
    return bool(lam[0] >= -tol and lam[1] >= -tol and l0 >= -tol)


def near_any_boundary(domains, x: np.ndarray, tol: float) -> bool:
    for d in domains:
        k = d.shape[0]
        if d.shape[1] == 1:
            if min(abs(float(x[0]) - float(d[0, 0])), abs(float(x[0]) - float(d[1, 0]))) < tol:
                return True
            continue
        for i in range(k):
            p, q = d[i], d[(i + 1) % k]
            e = q - p
            ln2 = float(e @ e)
            if ln2 < 1e-30:
                continue
            t = float(np.clip((x - p) @ e / ln2, 0.0, 1.0))
            if np.linalg.norm(x - (p + t * e)) < tol:
                return True
    return False


def constancy_g0(layers, nodes, group, boundary_tol: float = 1e-9):
    """The stalk sum ``g0`` by the node-by-node, layer-by-layer loop."""
    from gmtepi.groups import group_add, zero
    from gmtepi.layers import ConstancyError

    domains = [ly.domain for ly in layers]
    g0_seen = None
    for node in nodes:
        if near_any_boundary(domains, node, boundary_tol):
            continue
        acc = zero(group)
        hit = False
        for ly in layers:
            if bary_inside(ly.domain, node, 0.0):
                acc = group_add(acc, ly.coeff)
                hit = True
        if not hit:
            raise ConstancyError(f"no layer covers base point {node} (hole)")
        if g0_seen is None:
            g0_seen = acc
        elif acc != g0_seen:
            raise ConstancyError(f"stalk sum differs across base points: {g0_seen} vs {acc}")
    return zero(group) if g0_seen is None else g0_seen


def angular_window(ang: np.ndarray) -> tuple[float, float]:
    a = np.sort(np.mod(ang, 2 * math.pi))
    gaps = np.diff(np.concatenate([a, [a[0] + 2 * math.pi]]))
    j = int(np.argmax(gaps))
    lo = a[(j + 1) % len(a)]
    hi = lo + (2 * math.pi - gaps[j])
    return float(lo), float(hi)


def edges_in_window(poly_ang: np.ndarray, lo: float, hi: float, margin: float = 0.6):
    out = []
    for e in range(len(poly_ang)):
        rel = (poly_ang[e] - lo) % (2 * math.pi)
        if rel <= (hi - lo) + margin or rel >= 2 * math.pi - margin:
            out.append(e)
    return out


def clip_poly_halfplane(poly_pts, a: np.ndarray, b: np.ndarray):
    t = b - a
    nrm = np.array([-t[1], t[0]])
    if (0.0 - a[0]) * nrm[0] + (0.0 - a[1]) * nrm[1] < 0:
        nrm = -nrm
    out = []
    kk = len(poly_pts)
    for j in range(kk):
        p, q = poly_pts[j], poly_pts[(j + 1) % kk]
        dp = (p - a) @ nrm
        dq = (q - a) @ nrm
        if dp >= -1e-14:
            out.append(p)
            if dq < -1e-14:
                out.append(p + (q - p) * (dp / (dp - dq)))
        elif dq >= -1e-14:
            out.append(p + (q - p) * (dp / (dp - dq)))
    return out


def split_by_polygon_cylinder(chain, base, poly: np.ndarray):
    """(inside, outside) pieces of every term against the polygon cylinder."""
    from gmtepi.chains import _clip_simplex_halfspace

    k = len(poly)
    centroid = poly.mean(axis=0)
    normals, offsets = [], []
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        t = q - p
        nrm2 = np.array([-t[1], t[0]])
        if (centroid - p) @ nrm2 < 0:
            nrm2 = -nrm2
        nrm2 = nrm2 / np.linalg.norm(nrm2)
        normals.append(base.embed(nrm2))
        offsets.append(float(nrm2 @ p))
    poly_ang = np.mod(np.arctan2(poly[:, 1], poly[:, 0]), 2 * math.pi)
    inside, outside = [], []
    for s_, c in chain.terms:
        dom = s_.vertices @ base.frame.T
        lo, hi = angular_window(np.arctan2(dom[:, 1], dom[:, 0]))
        stack = [s_.vertices]
        for e in edges_in_window(poly_ang, lo, hi):
            nxt = []
            for verts in stack:
                nxt.extend(_clip_simplex_halfspace(verts, normals[e], offsets[e]))
                for piece in _clip_simplex_halfspace(verts, -normals[e], -offsets[e]):
                    outside.append((piece, c))
            stack = nxt
        inside.extend((verts, c) for verts in stack)
    return inside, outside


def excess_over_polygon(chain, base, g0, poly: np.ndarray) -> float:
    """Excess over a convex polygon cylinder, one codim-1 term at a time."""
    from gmtepi.epi import _graph_stats
    from gmtepi.groups import group_norm
    from gmtepi.layers import align_base_to_chain

    base = align_base_to_chain(base, chain)
    dom, jac, w = _graph_stats(chain, base)
    k = len(poly)
    poly_ang = np.mod(np.arctan2(poly[:, 1], poly[:, 0]), 2 * math.pi)
    rad_out = float(np.max(np.linalg.norm(poly, axis=1)))
    rad_in = rad_out * math.cos(math.pi / k)
    rmin = np.min(np.linalg.norm(dom, axis=2), axis=1)
    rmax = np.max(np.linalg.norm(dom, axis=2), axis=1)
    areas = 0.5 * np.abs(
        (dom[:, 1, 0] - dom[:, 0, 0]) * (dom[:, 2, 1] - dom[:, 0, 1])
        - (dom[:, 1, 1] - dom[:, 0, 1]) * (dom[:, 2, 0] - dom[:, 0, 0])
    )
    total = 0.0
    for t in range(len(dom)):
        if rmin[t] >= rad_out - 1e-15:
            continue
        if rmax[t] <= rad_in + 1e-15:
            total += w[t] * jac[t] * areas[t]
            continue
        lo, hi = angular_window(np.arctan2(dom[t, :, 1], dom[t, :, 0]))
        clipped = [np.array(v, dtype=float) for v in dom[t]]
        for e in edges_in_window(poly_ang, lo, hi):
            clipped = clip_poly_halfplane(clipped, poly[e], poly[(e + 1) % k])
            if len(clipped) < 3:
                break
        if len(clipped) < 3:
            continue
        arr = np.array(clipped)
        area = 0.0
        for i in range(1, len(arr) - 1):
            ua, ub = arr[i] - arr[0], arr[i + 1] - arr[0]
            area += 0.5 * abs(float(ua[0] * ub[1] - ua[1] * ub[0]))
        total += w[t] * jac[t] * area
    poly_area = 0.0
    for i in range(1, k - 1):
        ua, ub = poly[i] - poly[0], poly[i + 1] - poly[0]
        poly_area += 0.5 * abs(float(ua[0] * ub[1] - ua[1] * ub[0]))
    return total - group_norm(g0) * poly_area


def cylindrical_excess_polygon(decomp, poly: np.ndarray) -> float:
    """Excess over the cylinder of a convex polygon region: every layer of
    a decomposition clipped against every polygon edge.  Additive over
    half-plane cuts; the reference for the windowed zone excess."""
    from gmtepi.groups import group_norm
    from gmtepi.layers import ConstancyError, _convex_clip

    if decomp.g0.is_zero:
        raise ConstancyError("stalk coefficient g0 is zero; excess undefined")
    total = 0.0
    for ly in decomp.layers:
        clipped = _convex_clip(ly.domain, poly)
        if clipped is None or len(clipped) < 3:
            continue
        arr = np.array(clipped)
        area = 0.0
        for i in range(1, len(arr) - 1):
            ua, ub = arr[i] - arr[0], arr[i + 1] - arr[0]
            area += 0.5 * abs(float(ua[0] * ub[1] - ua[1] * ub[0]))
        total += group_norm(ly.coeff) * math.sqrt(1.0 + ly.jacobian_sq()) * area
    poly_area = 0.0
    for i in range(1, len(poly) - 1):
        ua, ub = poly[i] - poly[0], poly[i + 1] - poly[0]
        poly_area += 0.5 * abs(float(ua[0] * ub[1] - ua[1] * ub[0]))
    return total - decomp.g0_norm * poly_area


def averaged_eval(avg, x: np.ndarray) -> np.ndarray:
    """The averaged graph at one base point, layer mask by layer mask."""
    x = np.asarray(x, dtype=float)
    if avg.decomp.m == 1:
        mask = (avg._lo - avg.tol <= x[0]) & (x[0] <= avg._hi + avg.tol)
    else:
        mask = np.all(avg._normals @ x - avg._offsets >= -avg.tol, axis=1)
    w = avg._w[mask]
    vals = avg._A[mask] @ x + avg._b[mask]
    return (w[:, None] * vals).sum(axis=0) / w.sum()


# -- chains: one term at a time ------------------------------------------------
# Terms are lists of (Simplex, NormedCoefficient) pairs.


def _is_degenerate(simplex) -> bool:
    e = simplex.vertices[1:] - simplex.vertices[0]
    return float(np.linalg.det(e @ e.T)) < DEGENERATE_GRAM


def chain_filter(terms) -> list:
    """``PolyChain`` construction: drop zero coefficients and degenerate
    simplices."""
    return [(s, c) for s, c in terms if not (c.is_zero or _is_degenerate(s))]


def _sorted_key_and_parity(vertices: np.ndarray) -> tuple[bytes, int]:
    """Canonical key for the unordered vertex set plus orientation parity."""
    snapped = np.round(vertices / SNAP).astype(np.int64)
    order = np.lexsort(snapped.T[::-1])
    inversions = 0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                inversions += 1
    return snapped[order].tobytes(), (-1) ** inversions


def merge_terms(terms) -> list:
    buckets: dict = {}
    for simplex, coeff in terms:
        key, parity = _sorted_key_and_parity(simplex.vertices)
        if key in buckets:
            ref, ref_parity, acc = buckets[key]
            signed = coeff if parity == ref_parity else group_neg(coeff)
            buckets[key] = (ref, ref_parity, group_add(acc, signed))
        else:
            buckets[key] = (simplex, parity, coeff)
    return chain_filter([(s, g) for s, _p, g in buckets.values() if not g.is_zero])


def _face_flipped(face: np.ndarray) -> np.ndarray:
    out = face.copy()
    if out.shape[0] >= 2:
        out[[0, 1]] = out[[1, 0]]
    return out


def boundary(terms) -> list:
    buckets: dict = {}
    for simplex, coeff in terms:
        v = simplex.vertices
        for j in range(v.shape[0]):
            face = np.delete(v, j, axis=0)
            signed = coeff if j % 2 == 0 else group_neg(coeff)
            key, parity = _sorted_key_and_parity(face)
            if parity < 0:
                signed = group_neg(signed)
            if key in buckets:
                ref, acc = buckets[key]
                buckets[key] = (ref, group_add(acc, signed))
            else:
                canon = face if parity > 0 else _face_flipped(face)
                buckets[key] = (Simplex(canon), signed)
    return chain_filter([(s, g) for s, g in buckets.values() if not g.is_zero])


def negate(terms) -> list:
    return [(s, group_neg(c)) for s, c in terms]


def size(terms) -> float:
    seen: dict = {}
    for simplex, _ in merge_terms(terms):
        key, _p = _sorted_key_and_parity(simplex.vertices)
        seen[key] = simplex.volume
    return float(sum(seen.values()))
