"""Per-simplex, per-point reference implementations of the whole-simplex
quadrature rule, the exact ball integrals, the beta_inf sup scan (also about the centroid), the
point-to-support distance, the plane-ball grid distance, the support
sample, the whole-ball graph window and the per-bin fiber check of the
scanner, the layer-constancy check, the recursive half-space clipper of
a simplex, the polygon-cylinder clipping, the chunked cylinder clip with its
dense edge masks and the full-clip zone excess of the comparison
pipeline, the one-polygon convex clipper, the ball restriction of a
chain by bisection, sampled slice arcs of triangles and crossing
counts of segments on a sphere,
the bisection boundary trace, the cone height sup, the 2^16-sample
height sups over balls and cylinders, the stacked arc sup kernel with
companion-matrix eigenvalues for its quartic roots, the strip zip, the pair and
triple overlap loop of the multiplicity statistics, the
averaged graph and its all-layer ball means, the chain construction
filter, ``boundary``, ``merge_terms`` and ``size``, and the array
``merge_terms`` and ``boundary`` that weld their rows on every call and
group them by one lexsort over every key column, and the slice profile,
the boundary-defect matcher, the stalk sum and the graph certificate's
disk sheet count one term at a time.

These are the loop-based routines the batched kernels in
``gmtepi.chains``, ``gmtepi.quadrature``, ``gmtepi.moments``,
``gmtepi.scan``, ``gmtepi.layers`` and ``gmtepi.epi`` replaced.
They are kept here, with the arithmetic unchanged, as the oracle the
equivalence tests compare the batched code against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gmtepi.chains import DEGENERATE_GRAM, SNAP, PolyChain, Simplex, _accumulate, _canonical, _vertex_ids
from gmtepi.groups import group_add, group_neg
from gmtepi.planes import OrientedPlane
from gmtepi.quadrature import BallMoments, _rowdot, simplex_volume

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


def integrate_over_simplex(f, vertices: np.ndarray) -> float:
    """Integrate ``f`` over a simplex, exactly for polynomials of degree <= 5.

    ``f`` maps an array of points (k, n) to an array of k values; the
    simplex has vertices (m+1, n), m in {1, 2}.
    """
    m = vertices.shape[0] - 1
    volume = simplex_volume(vertices)
    if volume == 0.0:
        return 0.0
    if m == 1:
        pts = np.outer(1.0 - _GAUSS3_NODES, vertices[0]) + np.outer(_GAUSS3_NODES, vertices[1])
        return float(volume * np.dot(_GAUSS3_WEIGHTS, f(pts)))
    if m == 2:
        pts = _TRI_BARY @ vertices
        return float(volume * np.dot(_TRI_WEIGHTS, f(pts)))
    raise NotImplementedError(f"no quadrature rule for m={m}")


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


def sampled_arc_lengths(verts: np.ndarray, center, radius: float, samples: int) -> np.ndarray:
    """Lengths of the arcs of ``triangle ∩ ∂B(center, radius)`` for each
    triangle of ``verts`` (T, 3, n), from ``samples`` equally spaced points
    of its plane's circle: ``2 pi rho`` times the share inside.  A convex
    triangle holds at most three arcs, so the error is below ``6 (2 pi /
    samples) rho``."""
    center = np.asarray(center, dtype=float)
    ang = 2 * math.pi * np.arange(samples) / samples
    out = np.zeros(len(verts))
    for t, v in enumerate(verts):
        frame, base = _plane_frame(v)
        foot = frame @ (center - base)
        rho2 = radius * radius - (float((center - base) @ (center - base)) - float(foot @ foot))
        if rho2 <= 0.0:
            continue
        rho = math.sqrt(rho2)
        pts = foot + rho * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        tri = (v - base) @ frame.T
        inside = np.ones(samples, dtype=bool)
        for i in range(3):
            a, b, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            edge = b - a
            side = lambda p: edge[0] * (p[..., 1] - a[1]) - edge[1] * (p[..., 0] - a[0])  # noqa: E731
            inside &= side(pts) * side(c) >= 0.0
        out[t] = 2 * math.pi * rho * float(np.mean(inside))
    return out


def segment_sphere_crossings(v: np.ndarray, center, radius: float) -> int:
    """Ends of the window of a segment in ``B(center, radius)`` that lie on
    the sphere: 0 when the window is shorter than 1e-12, and a root of
    ``|p + t d| = radius`` counts when it is within 1e-9 of [0, 1]."""
    p = v[0] - np.asarray(center, dtype=float)
    d = v[1] - v[0]
    a, b, c = float(d @ d), 2.0 * float(p @ d), float(p @ p) - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return 0
    lo, hi = (-b - math.sqrt(disc)) / (2.0 * a), (-b + math.sqrt(disc)) / (2.0 * a)
    if min(hi, 1.0) - max(lo, 0.0) <= 1e-12:
        return 0
    return int(lo >= -1e-9) + int(hi <= 1.0 + 1e-9)


def restrict_ball(chain, center, radius: float, refine_h: float = 1e-2):
    """The chain's pieces in ``B(center, radius)`` by recursive bisection,
    and a bound on their mass error: ``(chain, mass_error)``.

    A piece with every vertex in the ball (up to 1e-12) is kept whole, one
    that provably misses the ball is dropped, and the others are bisected
    at their longest edge down to diameter ``refine_h``; such a final piece
    is kept when its barycenter lies in the ball, and its mass enters
    ``mass_error``, which bounds the kept chain's mass against the exact
    ``||T||(B)``.
    """
    if refine_h <= 0:
        raise ValueError("refine_h must be positive")
    center = np.asarray(center, dtype=float)
    pieces: list[np.ndarray] = []
    src: list[int] = []
    error = 0.0

    def visit(v: np.ndarray, t: int, norm_g: float):
        nonlocal error
        dist = np.linalg.norm(v - center, axis=1)
        if np.all(dist <= radius + 1e-12):
            pieces.append(v)
            src.append(t)
            return
        diam = max(
            float(np.linalg.norm(v[i] - v[j]))
            for i in range(len(v))
            for j in range(i + 1, len(v))
        )
        if np.min(dist) > radius + diam:
            return
        if diam <= refine_h:
            vol = simplex_volume(v)
            error += norm_g * vol
            if np.linalg.norm(v.mean(axis=0) - center) <= radius:
                pieces.append(v)
                src.append(t)
            return
        # bisect the longest edge
        besti, bestj, bestlen = 0, 1, -1.0
        for i in range(len(v)):
            for j in range(i + 1, len(v)):
                ln = float(np.linalg.norm(v[i] - v[j]))
                if ln > bestlen:
                    besti, bestj, bestlen = i, j, ln
        mid = 0.5 * (v[besti] + v[bestj])
        child_a = v.copy()
        child_a[bestj] = mid
        child_b = v.copy()
        child_b[besti] = mid
        visit(child_a, t, norm_g)
        visit(child_b, t, norm_g)

    for t, (v, norm_g) in enumerate(zip(chain.verts, chain.coeff_norms())):
        visit(np.array(v), t, float(norm_g))
    verts = np.array(pieces).reshape(len(pieces), chain.m + 1, chain.n)
    return chain.with_arrays(verts, chain.payload[np.array(src, dtype=np.int64)]), error


def _inside_triangle(dom: np.ndarray, p: np.ndarray, tol: float = 1e-12) -> bool:
    T = np.column_stack([dom[1] - dom[0], dom[2] - dom[0]])
    det = float(np.linalg.det(T))
    if abs(det) < 1e-30:
        return False
    lam = np.linalg.solve(T, p - dom[0])
    return bool(lam[0] >= -tol and lam[1] >= -tol and 1 - lam.sum() >= -tol)


def sup_perp_in_ball(chain, x, r, plane, anchor=None) -> tuple[float, float]:
    """The beta_inf sup scan and its angular floor, simplex by simplex: the
    largest distance from the support in B(x, r) to the plane through
    ``anchor`` (default x)."""
    perp = plane.perp_frame()
    codim = perp.shape[0]
    anchor = x if anchor is None else anchor
    shift = perp @ (x - anchor)
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
                best = max(best, float(np.linalg.norm(perp @ (v[i] - anchor))))
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
                        best = max(best, float(np.linalg.norm(perp @ (p + t * dd) + shift)))
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
            base_perp = perp @ (v[0] - anchor)
            for c2 in cands:
                if _inside_triangle(dom, c2):
                    y_rel = base_perp + (perp @ E.T) @ c2
                    best = max(best, float(np.linalg.norm(y_rel)))
            if not exact and rho > 0:
                floor = max(floor, rho * (math.pi / 64) ** 2)
    return best, floor


def centred_sup_in_ball(chain, x, r) -> tuple[float, float]:
    """:func:`sup_perp_in_ball` anchored at the centroid of the measure in
    B(x, r), against the top-m plane of its centred second-moment form."""
    bm = chain_ball_moments(chain, x, r)
    centroid = x + bm.s1 / bm.s0
    cov = bm.s2 - np.outer(bm.s1, bm.s1) / bm.s0
    w, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    top = vecs[:, np.argsort(w)[::-1][: chain.m]].T
    return sup_perp_in_ball(chain, x, r, OrientedPlane.from_span(top), anchor=centroid)


#: Points of each cut circle in the sampled sups.
SUP_SAMPLES = 2**16
_SUP_ANGLES = 2 * math.pi * np.arange(SUP_SAMPLES) / SUP_SAMPLES
_SUP_CIRCLE = np.stack([np.cos(_SUP_ANGLES), np.sin(_SUP_ANGLES)], axis=1)


def _segment_sup(p: np.ndarray, hp: np.ndarray, q: np.ndarray, hq: np.ndarray, r: float) -> float | None:
    """Largest |height| at the roots of |p + t (q - p)| = r, t in [0, 1],
    of a segment with end heights hp, hq; None when there is no such root."""
    dd = q - p
    aa = float(dd @ dd)
    if aa < 1e-30:
        return None
    bb = 2.0 * float(p @ dd)
    disc = bb * bb - 4 * aa * (float(p @ p) - r * r)
    best = None
    if disc >= 0:
        for sgn in (-1.0, 1.0):
            t = (-bb + sgn * math.sqrt(disc)) / (2 * aa)
            if 0.0 <= t <= 1.0:
                best = max(best or 0.0, float(np.linalg.norm(hp + t * (hq - hp))))
    return best


def _ends_and_roots(q: np.ndarray, h: np.ndarray, r: float) -> tuple[float, bool]:
    """Largest |h| at the vertices with |q| <= r and at the edge roots of
    |q| = r of one simplex, and whether any edge has such a root: a
    triangle with none holds an arc of the circle only if the whole
    circle lies in it."""
    best, crossed = 0.0, False
    for i in range(len(q)):
        if np.linalg.norm(q[i]) <= r:
            best = max(best, float(np.linalg.norm(h[i])))
        for j in range(i + 1, len(q)):
            root = _segment_sup(q[i], h[i], q[j], h[j], r)
            if root is not None:
                best, crossed = max(best, root), True
    return best, crossed


def sampled_ball_sup(chain, x, r, plane) -> tuple[float, float]:
    """``sup |pi_{V^perp}(y - x)|`` over ``spt ∩ B(x, r)``, simplex by
    simplex, from the vertices inside, the edge-sphere roots and
    ``SUP_SAMPLES`` points of each circle where the sphere cuts a
    triangle's plane, and the Lipschitz gap of that sample: the height
    is 1-Lipschitz and every circle point lies within rho pi / SUP_SAMPLES
    of a sample, or of a root where the arc leaves its triangle."""
    perp = plane.perp_frame()
    best, gap = 0.0, 0.0
    for simplex, _ in chain.terms:
        v = simplex.vertices
        rel = v - x
        value, crossed = _ends_and_roots(rel, rel @ perp.T, r)
        best = max(best, value)
        if len(v) == 3:
            E = np.linalg.qr((v[1:] - v[0]).T)[0].T
            a_in = -E @ rel[0]
            rho2 = r * r - float(np.linalg.norm(rel[0] + E.T @ a_in) ** 2)
            T = np.column_stack([(v[1] - v[0]) @ E.T, (v[2] - v[0]) @ E.T])
            foot = np.linalg.solve(T, a_in)
            if rho2 < 0 or not (crossed or (min(foot) >= 0 and sum(foot) <= 1)):
                continue
            rho = math.sqrt(rho2)
            lam = np.linalg.solve(T, (a_in + rho * _SUP_CIRCLE).T)
            inside = (lam[0] >= 0) & (lam[1] >= 0) & (lam[0] + lam[1] <= 1)
            if np.any(inside):
                pts = rel[0] + lam[0, inside, None] * (v[1] - v[0]) + lam[1, inside, None] * (v[2] - v[0])
                best = max(best, float(np.max(np.linalg.norm(pts @ perp.T, axis=1))))
                gap = max(gap, rho * math.pi / SUP_SAMPLES)
    return best, gap


def arc_sups(q: np.ndarray, h: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """``gmtepi.chains._arc_sups`` with the quartic's roots taken as the
    eigenvalues of its stacked 4 x 4 companion matrices
    (``np.linalg.eigvals``) instead of the closed form."""
    out = np.zeros(len(q))
    D = np.stack([q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]], axis=-1)
    Q, R = np.linalg.qr(D)
    a = (np.swapaxes(Q, 1, 2) @ q[:, 0, :, None])[..., 0]
    w = q[:, 0] - (Q @ a[..., None])[..., 0]
    rho2 = r2 - _rowdot(w, w)
    r00, r01, r11 = R[:, 0, 0], R[:, 0, 1], R[:, 1, 1]
    firm = np.abs(r00 * r11) > 1e-14 * (r00 * r00 + r01 * r01 + r11 * r11)
    rows = np.flatnonzero(firm & (rho2 >= 0))
    if not len(rows):
        return out
    r00, r01, r11, a = r00[rows, None], r01[rows, None], r11[rows, None], a[rows]
    h0, H1, H2 = h[rows, 0], h[rows, 1] - h[rows, 0], h[rows, 2] - h[rows, 0]
    rho = np.sqrt(rho2[rows])[:, None]
    G0 = H1 / r00
    G1 = (H2 - G0 * r01) / r11
    b = h0 - G0 * a[:, :1] - G1 * a[:, 1:]
    P0, P1 = rho * G0, rho * G1
    g0, g1 = _rowdot(P0, b), _rowdot(P1, b)
    c4 = _rowdot(P0, P1) + 0.5j * (_rowdot(P0, P0) - _rowdot(P1, P1))
    c3 = g1 + 1j * g0
    quartic = np.abs(c4) > 1e-8 * np.abs(c3)
    lead, c3 = np.where(quartic, c4, 1.0), np.where(quartic, c3, 0.0)
    t0 = np.arctan2(g1, g0)[:, None]
    t = np.concatenate([t0, t0 + math.pi, np.angle(companion_roots(lead, c3))], axis=1)
    mu1 = (rho * np.sin(t) - a[:, 1:]) / r11
    mu0 = (rho * np.cos(t) - a[:, :1] - r01 * mu1) / r00
    inside = (mu0 >= 0) & (mu1 >= 0) & (mu0 + mu1 <= 1)
    hv = h0[:, None] + mu0[..., None] * H1[:, None] + mu1[..., None] * H2[:, None]
    out[rows] = np.max(np.where(inside, np.linalg.norm(hv, axis=2), 0.0), axis=1)
    return out


def companion_roots(lead: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """The roots (N, 4) of ``lead z^4 + c3 z^3 + conj(c3) z + conj(lead)``
    as the eigenvalues of the stacked companion matrices."""
    comp = np.zeros((len(lead), 4, 4), dtype=complex)
    comp[:, 0, 0] = -c3 / lead
    comp[:, 0, 2] = -np.conj(c3) / lead
    comp[:, 0, 3] = -np.conj(lead) / lead
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    return np.linalg.eigvals(comp)


def sampled_height_sup(chain, base, radius: float) -> tuple[float, float]:
    """``sup |pi_{V^perp}|`` over the support in the cylinder over the
    base ball, simplex by simplex, from the vertices inside, the edge-
    cylinder roots and the ``SUP_SAMPLES`` points of the base circle lifted
    into each triangle over them, and the Lipschitz gap of that sample:
    the height gradient's norm times radius pi / SUP_SAMPLES."""
    perp = base.perp_frame()
    best, gap = 0.0, 0.0
    for simplex, _ in chain.terms:
        v = simplex.vertices
        b, hh = v @ base.frame.T, v @ perp.T
        value, crossed = _ends_and_roots(b, hh, radius)
        best = max(best, value)
        if len(v) == 3:
            T = np.column_stack([b[1] - b[0], b[2] - b[0]])
            if abs(np.linalg.det(T)) < 1e-14:
                continue
            foot = np.linalg.solve(T, -b[0])
            if not (crossed or (min(foot) >= 0 and sum(foot) <= 1)):
                continue
            lam = np.linalg.solve(T, (radius * _SUP_CIRCLE - b[0]).T)
            inside = (lam[0] >= 0) & (lam[1] >= 0) & (lam[0] + lam[1] <= 1)
            if np.any(inside):
                H = np.column_stack([hh[1] - hh[0], hh[2] - hh[0]])
                h = hh[0] + (H @ lam[:, inside]).T
                best = max(best, float(np.max(np.linalg.norm(h, axis=1))))
                grad = np.linalg.norm(H @ np.linalg.inv(T), 2)
                gap = max(gap, grad * radius * math.pi / SUP_SAMPLES)
    return best, gap


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


def graph_window(chain, x, r: float, W):
    """The sampled window of the former graph certificate: every node of
    ``support_sample`` at spacing r/128, projected onto W, then the box
    ``|base|_inf <= r/2``; base coordinates and heights (their norm in
    codimension above one), or None for an empty sample."""
    from gmtepi.scan import support_sample

    rel = support_sample(chain, x, r, spacing=r / 128) - x
    if len(rel) == 0:
        return None
    base_coords = W.project_coords(rel)
    hcoords = rel @ W.perp_frame().T
    keep = np.max(np.abs(base_coords), axis=1) <= r / 2
    if hcoords.shape[1] == 1:
        return base_coords[keep], hcoords[keep, 0]
    return base_coords[keep], np.linalg.norm(hcoords[keep], axis=1)


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


def sampled_certificate(chain, x, r: float, W, fiber_grid: int = 64, fiber_tol: float = 1e-7):
    """The former sampled graph test of ``extract_graph`` after its Dini
    gate, on the window of :func:`graph_window`: ``(reason, lipschitz)``.

    Two heights in one of ``fiber_grid`` bins per axis count as two sheets
    only if they differ by more than ``max(fiber_tol, r/16)``, and the
    Lipschitz constant is the largest difference quotient over about 400
    nodes farther apart than a bin: a lower estimate."""
    window = graph_window(chain, x, r, W)
    if window is None or len(window[0]) == 0:
        return "empty support window", 0.0
    bc, hh = window
    lim = r / 2
    cell = np.clip(((bc + lim) / (2 * lim) * fiber_grid).astype(int), 0, fiber_grid - 1)
    bins = cell[:, 0] if W.m == 1 else cell[:, 0] * fiber_grid + cell[:, 1]
    fiber_width = 2 * lim / fiber_grid
    if fiber_split(bins, hh, max(fiber_tol, 4 * fiber_width)):
        return "fiber meets the support in two clusters", 0.0
    lips = 0.0
    if len(bc) >= 2:
        sel = np.arange(0, len(bc), max(1, len(bc) // 400))
        P2, H2 = bc[sel], hh[sel]
        dist = np.linalg.norm(P2[None, :, :] - P2[:, None, :], axis=2)
        far = dist > fiber_width
        if np.any(far):
            lips = float(np.max(np.abs(H2[None, :] - H2[:, None])[far] / dist[far]))
    if lips > 1.0 + 1e-9:
        return f"Lipschitz bound {lips:.3g} exceeds 1", lips
    return "ok", lips


def plane_ball_to_support(chain, x, r, plane, grid: int = 24) -> float:
    """The largest distance from the polar grid on the plane ball to the
    support, one grid point at a time."""
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
    return d2


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


@dataclass
class LayerRecord:
    """One affine graph layer ``y(x) = A x + b`` over a projected domain,
    term ``t`` of a decomposition taken apart."""

    domain: np.ndarray  # (m+1, m)
    A: np.ndarray  # (n-m, m)
    b: np.ndarray  # (n-m,)
    coeff: object

    def height(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x + self.b

    def jacobian_sq(self) -> float:
        """``(J y)^2 = det(I + A^T A) - 1`` of the constant differential."""
        m = self.A.shape[1]
        return float(np.linalg.det(np.eye(m) + self.A.T @ self.A) - 1.0)


def layer_records(decomp) -> list[LayerRecord]:
    """The layers of a decomposition, one record per term."""
    return [
        LayerRecord(decomp.domains[t], decomp.A[t], decomp.b[t], decomp.chain.coefficient(t))
        for t in range(len(decomp.domains))
    ]


def constancy_g0(decomp, nodes, boundary_tol: float = 1e-9):
    """The stalk sum ``g0`` by the node-by-node, layer-by-layer loop."""
    from gmtepi.groups import group_add, zero
    from gmtepi.layers import ConstancyError

    group = decomp.chain.group
    layers = layer_records(decomp)
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


def _clip_simplex_halfspace(
    vertices: np.ndarray, normal: np.ndarray, offset: float, tol: float = 1e-12
) -> list[np.ndarray]:
    """Exact decomposition of ``simplex ∩ {normal.x >= offset}`` into
    simplices, preserving orientation.

    Splits a crossing edge at the hyperplane and recurses; each split
    replaces one endpoint by an interior point of the edge, which scales
    the volume by a positive factor and therefore keeps orientation.
    """
    d = vertices @ normal - offset
    if np.all(d >= -tol):
        return [vertices]
    if np.all(d <= tol):
        return []
    k = len(d)
    for i in range(k):
        if d[i] >= -tol:
            continue
        for j in range(k):
            if d[j] <= tol:
                continue
            t = d[i] / (d[i] - d[j])
            p = vertices[i] + t * (vertices[j] - vertices[i])
            child_a = vertices.copy()
            child_a[j] = p
            child_b = vertices.copy()
            child_b[i] = p
            return _clip_simplex_halfspace(child_a, normal, offset, tol) + _clip_simplex_halfspace(
                child_b, normal, offset, tol
            )
    return []  # pragma: no cover


def split_by_polygon_cylinder(chain, base, poly: np.ndarray):
    """(inside, outside) pieces of every term against the cylinder over a
    polygon (m = 2) or an interval with ends ``poly`` (m = 1)."""
    k = len(poly)
    centroid = poly.mean(axis=0)
    normals, offsets = [], []
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        if base.m == 1:
            nrm2 = np.sign(centroid - p)
        else:
            t = q - p
            nrm2 = np.array([-t[1], t[0]])
            if (centroid - p) @ nrm2 < 0:
                nrm2 = -nrm2
            nrm2 = nrm2 / np.linalg.norm(nrm2)
        normals.append(base.embed(nrm2))
        offsets.append(float(nrm2 @ p))
    if base.m == 2:
        poly_ang = np.mod(np.arctan2(poly[:, 1], poly[:, 0]), 2 * math.pi)
    inside, outside = [], []
    for s_, c in chain.terms:
        edges = range(k)
        if base.m == 2:
            dom = s_.vertices @ base.frame.T
            lo, hi = angular_window(np.arctan2(dom[:, 1], dom[:, 0]))
            edges = edges_in_window(poly_ang, lo, hi)
        stack = [s_.vertices]
        for e in edges:
            nxt = []
            for verts in stack:
                nxt.extend(_clip_simplex_halfspace(verts, normals[e], offsets[e]))
                for piece in _clip_simplex_halfspace(verts, -normals[e], -offsets[e]):
                    outside.append((piece, c))
            stack = nxt
        inside.extend((verts, c) for verts in stack)
    return inside, outside


def padded_columns(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The true columns of each row of ``mask`` (R, L) in order,
    left-aligned: ``(idx, valid)`` (R, C), the padding being column 0 with
    ``valid`` False."""
    rows, cols = np.nonzero(mask)
    at = np.arange(len(rows)) - np.searchsorted(rows, rows)
    idx = np.zeros((len(mask), int(at.max(initial=-1)) + 1), dtype=np.int64)
    valid = np.zeros(idx.shape, dtype=bool)
    idx[rows, at] = cols
    valid[rows, at] = True
    return idx, valid


def chunked_clip_to_cylinder(rows: np.ndarray, dom: np.ndarray, poly: np.ndarray, anchors: np.ndarray,
                             normals: np.ndarray, outside: bool = False, chunk: int = 1 << 13):
    """The cylinder clip in chunks of ``chunk // k`` rows, each chunk with
    its dense (rows, edges) :func:`_arcs_meet` mask, one
    :func:`_clip_polygons` step per chunk and column, and the polygon
    stack widened by ``np.pad`` as the clips grow.  Returns the inside
    ``(polys, counts)`` and the outside ``(polys, counts, rows)`` per chunk
    and column, in that order."""
    from gmtepi.chains import _clip_polygons
    from gmtepi.layers import _angular_windows, _arcs_meet, _polygon_arcs

    T, m, k = len(rows), rows.shape[1] - 1, len(poly)
    if m == 2:
        poly_ang, arcs = _polygon_arcs(poly)
    step = max(1, chunk // k)
    inside, cut = [], []
    for c in range(0, max(T, 1), step):
        idx = np.arange(c, min(c + step, T))
        if m == 2:
            lo, hi = _angular_windows(dom[idx])
            edges, on = padded_columns(_arcs_meet(poly_ang, arcs, lo[:, None], hi[:, None]))
        else:
            edges, on = np.tile(np.arange(k), (len(idx), 1)), np.ones((len(idx), k), dtype=bool)
        polys, counts = rows[idx], np.full(len(idx), m + 1)
        for e, e_on in zip(edges.T, on.T):
            act = np.flatnonzero(e_on & (counts > m))
            if outside:
                cut.append((*_clip_polygons(polys[act], counts[act], anchors[e[act]], -normals[e[act]]), idx[act]))
            clipped, counts[act] = _clip_polygons(polys[act], counts[act], anchors[e[act]], normals[e[act]])
            polys = np.pad(polys, ((0, 0), (0, max(clipped.shape[1] - polys.shape[1], 0)), (0, 0)))
            polys[act, : clipped.shape[1]] = clipped
        inside.append((polys, counts))
    width = max(p.shape[1] for p, _ in inside)
    polys = np.concatenate([np.pad(p, ((0, 0), (0, width - p.shape[1]), (0, 0))) for p, _ in inside])
    return (polys, np.concatenate([n for _, n in inside])), cut


def graph_domains(chain, base):
    """Projected domains (T, 3, 2) and Jacobian factors (T,) of a graph
    chain over ``base``, one term at a time: the frame is flipped if the
    first non-degenerate term projects against the orientation, and each
    term's affine map comes from its own vertex solve."""
    frame = np.array(base.frame)
    perp = base.perp_frame()
    for verts in chain.verts:
        e = verts[1:] @ frame.T - verts[0] @ frame.T
        det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
        if abs(det) >= 1e-14:
            if det < 0:
                frame[-1] = -frame[-1]
            break
    doms, jacs = [], []
    for verts in chain.verts:
        dom = verts @ frame.T
        e = dom[1:] - dom[0]
        if e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0] <= 0:
            raise ValueError("a simplex projects degenerately or reversed")
        sol = np.linalg.solve(np.column_stack([dom, np.ones(3)]), verts @ perp.T)
        A = sol[:2].T
        doms.append(dom)
        jacs.append(math.sqrt(np.linalg.det(np.eye(2) + A.T @ A)))
    return np.array(doms), np.array(jacs)


def excess_over_polygon(chain, base, g0, poly: np.ndarray) -> float:
    """Excess over a convex polygon cylinder, one term at a time."""
    from gmtepi.groups import group_norm

    dom, jac = graph_domains(chain, base)
    w = chain.coeff_norms()
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
    from gmtepi.layers import ConstancyError

    if decomp.g0.is_zero:
        raise ConstancyError("stalk coefficient g0 is zero; excess undefined")
    total = 0.0
    for ly in layer_records(decomp):
        clipped = convex_clip(ly.domain, poly)
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


def clip_halfplane(poly: list, a: np.ndarray, normal: np.ndarray) -> list:
    """One Sutherland-Hodgman step: the part of a convex polygon where
    ``(p - a) . normal >= 0``, with a -1e-14 tolerance; ``normal`` points
    inward."""
    out = []
    for j in range(len(poly)):
        p, q = poly[j], poly[(j + 1) % len(poly)]
        dp = (p - a) @ normal
        dq = (q - a) @ normal
        if dp >= -1e-14:
            out.append(p)
            if dq < -1e-14:
                out.append(p + (q - p) * (dp / (dp - dq)))
        elif dq >= -1e-14:
            out.append(p + (q - p) * (dp / (dp - dq)))
    return out


def convex_clip(subject: np.ndarray, clipper: np.ndarray):
    """Sutherland-Hodgman clip of one convex polygon by another, one
    vertex list per step; None when fewer than three vertices remain."""
    poly = [np.array(p, dtype=float) for p in subject]
    k = clipper.shape[0]
    cc = clipper.mean(axis=0)
    for i in range(k):
        a, b = clipper[i], clipper[(i + 1) % k]
        e = b - a
        normal = np.array([-e[1], e[0]])
        if (cc - a) @ normal < 0:
            normal = -normal
        poly = clip_halfplane(poly, a, normal)
        if len(poly) < 3:
            return None
    return poly


def _overlap_area(d1: np.ndarray, d2: np.ndarray, center: np.ndarray, radius: float, m: int) -> float:
    from gmtepi.quadrature import disk_polygon_area

    if m == 1:
        lo1, hi1 = sorted((float(d1[0, 0]), float(d1[1, 0])))
        lo2, hi2 = sorted((float(d2[0, 0]), float(d2[1, 0])))
        c = float(center[0])
        return max(0.0, min(hi1, hi2, c + radius) - max(lo1, lo2, c - radius))
    poly = convex_clip(d1, d2)
    if poly is None:
        return 0.0
    return abs(disk_polygon_area(np.array(poly), center, radius))


def multiplicity_loop(decomp, center: np.ndarray, radius: float) -> dict:
    """The overlap fields of ``multiplicity_stats`` by the pair-by-pair and
    triple-by-triple loop: one clip per pair and per triple of domains.
    A piece below 1e-14 of the ball's volume counts as empty."""
    m = decomp.m
    layers = layer_records(decomp)
    k = len(layers)
    floor = 1e-14 * (2.0 * radius if m == 1 else math.pi * radius * radius)
    pair_total = 0.0
    pair_per = np.zeros(k)
    triple_total = 0.0
    triple_per = np.zeros(k)
    for i in range(k):
        for j in range(i + 1, k):
            a = _overlap_area(layers[i].domain, layers[j].domain, center, radius, m)
            if a <= floor:
                continue
            pair_total += a
            pair_per[i] += a
            pair_per[j] += a
            if m == 2:
                clipped = np.array(convex_clip(layers[i].domain, layers[j].domain))
                for l in range(j + 1, k):
                    t = _overlap_area(clipped, layers[l].domain, center, radius, m)
                    if t > floor:
                        triple_total += t
                        triple_per[i] += t
                        triple_per[j] += t
                        triple_per[l] += t
    return {
        "e2_measure": max(0.0, pair_total - 2.0 * triple_total),
        "int_count": max(0.0, 2.0 * pair_total - 3.0 * triple_total),
        "int_coeff_norm": sum((decomp.weights * np.maximum(pair_per - triple_per, 0.0)).tolist()),
        "truncation_residual": triple_total,
    }


def trace_cone_over(curve: np.ndarray, plane, perp: np.ndarray, n_samples: int, iters: int = 80):
    """Trace of the cone over a closed PL curve as a graph over ``plane``:
    for each target direction the crossing segment is bracketed by the
    angles of the projected curve and the fiber point is found by
    bisection; non-injective projections (non-monotone angles) abort."""
    from gmtepi.epi import StageError
    from gmtepi.planes import OrientedPlane

    proj = curve @ plane.frame.T  # (N, 2)
    nxt = np.roll(proj, -1, axis=0)
    signed = np.arctan2(
        proj[:, 0] * nxt[:, 1] - proj[:, 1] * nxt[:, 0],
        np.einsum("ij,ij->i", proj, nxt),
    )
    if np.all(signed < 0) and abs(signed.sum() + 2 * math.pi) < 1e-9:
        # uniformly negative winding: the frame handedness is flipped
        f = plane.frame.copy()
        f[-1] = -f[-1]
        return trace_cone_over(curve, OrientedPlane(f), perp, n_samples, iters)
    ang = np.mod(np.arctan2(proj[:, 1], proj[:, 0]), 2 * math.pi)
    d = np.mod(np.diff(np.concatenate([ang, ang[:1]])), 2 * math.pi)
    if np.any(d <= 0) or abs(d.sum() - 2 * math.pi) > 1e-9:
        raise StageError("trace", "projected curve winds non-monotonically; re-graphing not injective")
    N = len(curve)
    out = np.zeros((n_samples, perp.shape[0]))
    targets = 2 * math.pi * np.arange(n_samples) / n_samples
    start = ang[0]
    cum = np.concatenate([[0.0], np.cumsum(d)])  # unwrapped angle along curve

    def angle_at(j: int, t: float) -> float:
        p = proj[j] + t * (proj[(j + 1) % N] - proj[j])
        raw = math.atan2(p[1], p[0]) - start
        raw = raw % (2 * math.pi)
        # lift near the expected unwrapped value
        k = round((cum[j] + t * d[j] - raw) / (2 * math.pi))
        return raw + 2 * math.pi * k

    for s, target in enumerate(targets):
        rel = (target - start) % (2 * math.pi)
        j = int(np.searchsorted(cum, rel, side="right") - 1)
        j = min(max(j, 0), N - 1)
        lo, hi = 0.0, 1.0
        flo = cum[j] - rel
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            fmid = angle_at(j, mid) - rel
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        p = curve[j] + t * (curve[(j + 1) % N] - curve[j])
        scale = 1.0 / float(np.linalg.norm(plane.frame @ p))
        out[s] = perp @ (scale * p)
    return out


def cone_height_sup(chain, base, radius: float) -> float:
    """The exact codimension-one cone height sup, one simplex at a time:
    the height-to-base ratio along each far edge at its ends and at the
    root of its derivative."""
    perp = base.perp_frame()[0]
    best = 0.0
    for v in chain.verts:
        order = np.argsort(np.linalg.norm(v, axis=1))
        A, B = v[order[1]], v[order[2]]
        pA = base.project_coords(A)
        pB = base.project_coords(B)
        gA, gB = float(A @ perp), float(B @ perp)
        q0 = float(pA @ pA)
        q1 = 2.0 * float(pA @ (pB - pA))
        q2 = float((pB - pA) @ (pB - pA))
        g0, g1 = gA, gB - gA
        cands = [0.0, 1.0]
        den = g1 * q1 - 2.0 * g0 * q2
        if abs(den) > 1e-30:
            sc = (g0 * q1 - 2.0 * g1 * q0) / den
            if 0.0 < sc < 1.0:
                cands.append(sc)
        for sc in cands:
            g = g0 + g1 * sc
            q = q0 + q1 * sc + q2 * sc * sc
            if q > 1e-30:
                best = max(best, abs(g) / math.sqrt(q))
    return best * radius


def zip_strip(inner, inner_angles, outer, outer_angles):
    """Strip triangulation between two closed polylines, advancing by
    angle one step at a time (no tie rule)."""
    ia = np.mod(np.asarray(inner_angles, dtype=float), 2 * math.pi)
    oa = np.mod(np.asarray(outer_angles, dtype=float), 2 * math.pi)
    io = np.argsort(ia)
    oo = np.argsort(oa)
    inner = inner[io]
    outer = outer[oo]
    Ia = np.concatenate([ia[io], [ia[io][0] + 2 * math.pi]])
    Oa = np.concatenate([oa[oo], [oa[oo][0] + 2 * math.pi]])
    Ni, No = len(inner), len(outer)
    pts = np.concatenate([inner, outer])
    idx = []
    i = o = 0
    while i < Ni or o < No:
        if i < Ni and (o >= No or Ia[i + 1] <= Oa[o + 1]):
            idx.append((i % Ni, Ni + o % No, (i + 1) % Ni))
            i += 1
        else:
            idx.append((i % Ni, Ni + o % No, Ni + (o + 1) % No))
            o += 1
    return pts[np.array(idx)]


def mollified_values(avg, rho: float, angles: np.ndarray, count: int = 64) -> np.ndarray:
    """Ball means (m = 2) of the averaged graph at the unit points of
    ``angles``, one angle at a time, every node tested against every
    layer."""
    from gmtepi.quadrature import gauss_segment

    n_rad = max(2, int(round(math.sqrt(count / 8))) * 2)
    n_ang = max(4, count // n_rad)
    s_nodes, s_w = gauss_segment()
    rads = rho * np.sqrt(s_nodes)
    angs = 2 * math.pi * (np.arange(n_ang) + 0.5) / n_ang
    dirs = np.array([[math.cos(a), math.sin(a)] for a in angs])
    w = np.repeat(s_w, n_ang) / n_ang
    vals = []
    for a in np.asarray(angles, dtype=float):
        c = np.array([math.cos(a), math.sin(a)])
        vals.append(w @ avg.eval_many((c + rads[:, None, None] * dirs).reshape(-1, 2)))
    return np.array(vals)


def decompose_terms(chain, base):
    """``(domain, A, b)`` of every term from its own vertex solve: the loop
    that ``decompose_layers`` batches."""
    perp = base.perp_frame()
    m = chain.m
    out = []
    for verts in chain.verts:
        dom = base.project_coords(verts)
        sol = np.linalg.solve(np.column_stack([dom, np.ones(m + 1)]), verts @ perp.T)
        out.append((dom, sol[:m].T, sol[m]))
    return out


def cylindrical_excess_loop(decomp, radius: float = 1.0) -> float:
    """The excess over the centred ball, one layer at a time: exact
    disk-polygon areas (m = 2) or interval overlaps (m = 1)."""
    from gmtepi.groups import group_norm
    from gmtepi.quadrature import disk_polygon_area

    total = 0.0
    for ly in layer_records(decomp):
        if decomp.m == 1:
            lo, hi = sorted(float(x) for x in ly.domain[:, 0])
            area = max(0.0, min(hi, radius) - max(lo, -radius))
        else:
            area = abs(disk_polygon_area(ly.domain, np.zeros(2), radius))
        if area > 0.0:
            total += group_norm(ly.coeff) * math.sqrt(1.0 + ly.jacobian_sq()) * area
    ball = 2.0 * radius if decomp.m == 1 else math.pi * radius * radius
    return total - decomp.g0_norm * ball


def mollified_eval(v, x: np.ndarray) -> np.ndarray:
    """The mollified graph at one base point, by the scalar code that the
    batched evaluation replaced."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r < 1e-300:
        return np.zeros(v.values.shape[1])
    if v.base.m == 1:
        return r * (v.values[0] if x[0] < 0 else v.values[1])
    a = math.atan2(x[1], x[0]) % (2 * math.pi)
    idx = int(np.searchsorted(v.angles, a)) % len(v.angles)
    a0, a1 = v.angles[idx - 1], v.angles[idx]
    span = (a1 - a0) % (2 * math.pi)
    t = ((a - a0) % (2 * math.pi)) / span if span > 1e-15 else 0.0
    return r * ((1 - t) * v.values[idx - 1] + t * v.values[idx])


def averaged_eval(avg, x: np.ndarray) -> np.ndarray:
    """The averaged graph at one base point, layer mask by layer mask, each
    domain widened by 1e-12."""
    x = np.asarray(x, dtype=float)
    tol = 1e-12
    if avg.decomp.m == 1:
        mask = (avg._lo - tol <= x[0]) & (x[0] <= avg._hi + tol)
    else:
        mask = np.all(avg._normals @ x - avg._offsets >= -tol, axis=1)
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


def lexsort_classes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal key rows by one lexsort over every column: the class of
    each row, classes numbered by first occurrence, and the row where each
    class first occurs."""
    order = np.lexsort(keys.T[::-1])
    rows = keys[order]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    first = order[start]  # the sort is stable: the earliest row of each class
    by_first = np.argsort(first)
    relabel = np.empty_like(by_first)
    relabel[by_first] = np.arange(len(by_first))
    cls = np.empty(len(keys), dtype=np.int64)
    cls[order] = relabel[np.cumsum(start) - 1]
    return cls, first[by_first]


def welded_merge_terms(chain):
    """Array ``merge_terms`` that welds the chain's rows itself."""
    keys, parity = _canonical(_vertex_ids(chain.verts))
    cls, first = lexsort_classes(keys)
    sign = parity * parity[first][cls]
    acc = _accumulate(chain.group, chain.payload, sign, cls, len(first))
    return chain._from_rows(chain.verts[first], acc, chain._cache["gram"][first])


def welded_boundary(chain):
    """Array ``boundary`` that welds the chain's rows itself and builds a
    face chain over every class, the zero-sum ones included."""
    T, k, n = chain.verts.shape
    drop = np.array([[c for c in range(k) if c != j] for j in range(k)])  # (k, k-1)
    faces = chain.verts[:, drop].reshape(T * k, k - 1, n)
    keys, parity = _canonical(_vertex_ids(chain.verts)[:, drop].reshape(T * k, k - 1))
    sign = np.tile(1 - 2 * (np.arange(k) % 2), T) * parity
    cls, first = lexsort_classes(keys)
    acc = _accumulate(chain.group, np.repeat(chain.payload, k, axis=0), sign, cls, len(first))
    canon = faces[first]
    if k - 1 >= 2:
        flip = parity[first] < 0
        canon[flip] = canon[flip][:, [1, 0] + list(range(2, k - 1))]
    return PolyChain(n, chain.m - 1, chain.group, verts=canon, payload=acc)


# -- the per-cell frame search of the scan, as it ran before it became a
# stacked pass, and the term-by-term carrier-and-weld disk count of its
# graph certificate


def support_points_on_fiber(simplices, x, direction, constraints, s) -> np.ndarray:
    """Support points ``p`` with ``|p - x| = s``, the in-plane projection
    along ``direction`` positive, and zero components along ``constraints``
    (segments with none, triangles with one), simplex by simplex."""
    v = simplices - x
    if len(constraints):
        (c,) = constraints
        a, b = cut_triangles(v, v @ c)
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


def cut_triangles(v: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the segments where triangles ``v`` with signed heights ``d``
    cross a hyperplane; triangles that do not cross it in two points are
    dropped."""
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


def frame_directions(near: np.ndarray, x: np.ndarray, s: float, plane) -> np.ndarray:
    """The directions (m, n) of ``find_frame`` from the simplices ``near``
    of one cell, round by round; raises ``ValueError`` on an empty fiber."""
    m = plane.m
    found: list[np.ndarray] = []
    basis = [plane.frame[i].copy() for i in range(m)]
    for _ in range(m):
        w_dir = basis[0]
        constraints = np.array(basis[1:] + found) if (len(basis) > 1 or found) else np.zeros((0, plane.n))
        cands = support_points_on_fiber(near, x, w_dir, constraints, s)
        if not len(cands):
            raise ValueError("no support point on the fiber; projection not surjective")
        rels = (cands - x) / s
        found.append(rels[np.argmax(_rowdot(rels, np.broadcast_to(w_dir, rels.shape)))])
        new_basis = []
        for b in basis[1:]:
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


def cell_frame_reason(chain, x: np.ndarray, cell) -> str:
    """A scan cell's ``frame_reason`` from its own flatness gate and fiber
    search at s = 0.9 r: "" when a frame is found."""
    m = chain.m
    rho = min(cell.beta_inf * 1.5 + 1e-6, 1.0 / (25 * math.sqrt(m)))
    if cell.beta_inf >= rho:
        return f"beta_inf {cell.beta_inf:.3g} at the working scale is not below rho {rho:.3g}"
    try:
        frame_directions(chain.verts[chain.near_ball(x, cell.radius)], x, 0.9 * cell.radius, cell.plane)
    except ValueError as err:
        return str(err)
    return ""


def _dist_to_origin(v: np.ndarray) -> float:
    """Distance from the origin to the simplex with vertices ``v`` (k, d),
    k <= 3: the foot of the least-squares barycentric solve where it lands
    inside, else the nearest edge or vertex."""
    if len(v) == 1:
        return float(np.linalg.norm(v[0]))
    if len(v) == 2:
        d = v[1] - v[0]
        dd = float(d @ d)
        t = 0.0 if dd == 0.0 else min(max(-float(v[0] @ d) / dd, 0.0), 1.0)
        return float(np.linalg.norm(v[0] + t * d))
    E = np.column_stack([v[1] - v[0], v[2] - v[0]])
    G = E.T @ E
    best = min(_dist_to_origin(v[[i, j]]) for i, j in ((0, 1), (0, 2), (1, 2)))
    if abs(np.linalg.det(G)) > 1e-300:
        lam = np.linalg.solve(G, -E.T @ v[0])
        if lam[0] >= 0 and lam[1] >= 0 and lam.sum() <= 1:
            best = min(best, float(np.linalg.norm(v[0] + E @ lam)))
    return best


def _disk_height_sup(q: np.ndarray, h: np.ndarray, R: float) -> float:
    """Largest ``|h|`` over the points of one simplex whose base
    coordinates ``q`` lie in the disk ``|q| <= R``: the vertices inside,
    the edge roots of ``|q| = R`` and, for a triangle, the best of the
    ``SUP_SAMPLES`` circle points inside it, refined by a golden-section
    search over the neighbouring samples; 0 where the disk misses it."""
    best = _ends_and_roots(q, h, R)[0]
    if len(q) < 3:
        return best
    T = np.column_stack([q[1] - q[0], q[2] - q[0]])
    if abs(np.linalg.det(T)) < 1e-300:
        return best  # a flat projection meets the circle at edge roots only
    H = np.column_stack([h[1] - h[0], h[2] - h[0]])

    def heights(angles: np.ndarray) -> np.ndarray:
        lam = np.linalg.solve(T, (R * np.stack([np.cos(angles), np.sin(angles)], axis=1) - q[0]).T)
        inside = (lam[0] >= 0) & (lam[1] >= 0) & (lam[0] + lam[1] <= 1)
        return np.where(inside, np.linalg.norm(h[0] + (H @ lam).T, axis=1), -np.inf)

    v = heights(_SUP_ANGLES)
    i = int(np.argmax(v))
    if v[i] == -np.inf:
        return best
    lo, hi = _SUP_ANGLES[i] - 2 * math.pi / SUP_SAMPLES, _SUP_ANGLES[i] + 2 * math.pi / SUP_SAMPLES
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(60):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        fa, fb = heights(np.array([a, b]))
        lo, hi = (lo, b) if fa >= fb else (a, hi)
    return max(best, float(v[i]), float(heights(np.array([0.5 * (lo + hi)]))[0]))


def disk_sheets(chain, x: np.ndarray, base, r: float) -> tuple[float, float]:
    """The sheet count over the disk of radius ``r sqrt(m) / 2`` of ``base``
    about x cut at height r, and the Lipschitz constant, term by term over
    the merged chain (one term per coincidence class that does not sum to
    zero), welded on every call.  A term is in when its largest ``|h|``
    over the disk (:func:`_disk_height_sup`) is at most r, and across the
    cut when not and its least ``|h|`` is.  The in terms meeting the disk
    and the terms across are the carrier, a chain built on every call;
    its boundary faces must miss the open disk."""
    from gmtepi.chains import boundary
    from gmtepi.groups import integers
    from gmtepi.layers import ConstancyError, _affine_maps, _layer_stack, _spectral_norms, align_base_to_chain

    chain = welded_merge_terms(chain)
    m, n = base.m, base.n
    R = 0.5 * math.sqrt(m) * r
    near = chain.near_ball(x, r * math.sqrt(1.0 + 0.25 * m))
    perp = base.perp_frame()
    hit, across, sizes = [], False, []
    for t in near.tolist():
        rel = chain.verts[t] - x
        q, h = rel @ base.frame.T, rel @ perp.T
        if _disk_height_sup(q, h, R) <= r:
            if _dist_to_origin(q) <= R:
                hit.append(t)
                sizes.append(np.ptp(np.clip(q[:, 0], -R, R)) if m == 1 else abs(disk_polygon_area(q, np.zeros(2), R)))
        elif _dist_to_origin(h) <= r:
            hit.append(t)
            across = True
    if not hit:
        return 0.0, 0.0
    carrier = PolyChain(n, m, integers(), verts=chain.verts[hit], payload=np.ones((len(hit), 1), dtype=np.int64))
    A = _affine_maps(*_layer_stack(carrier.verts, carrier.volumes(), align_base_to_chain(base, carrier), perp)[:2])[0]
    if across:
        raise ValueError("the support crosses the height cut |h| = r over the disk")
    if any(_dist_to_origin(f) < R for f in (boundary(carrier).verts - x) @ base.frame.T):
        raise ConstancyError("projected boundary meets the disk: it is partly covered")
    return sum(sizes) / (2.0 * R if m == 1 else math.pi * R * R), float(np.max(_spectral_norms(A)))


def graph_certificate(report, chain, point_index: int, dini_budget: float = 1.0 / 120.0, drift_floor: float = 1e-9):
    """``extract_graph`` with every drift measured afresh and the sheets of
    :func:`disk_sheets`."""
    from gmtepi.planes import _plane_distances
    from gmtepi.scan import GraphCertificate

    cells = [c for c in report.point_cells(point_index) if c.plane is not None]
    if not cells:
        return GraphCertificate(False, "no usable scales", 0.0, dini_budget, 0.0, np.array([]), np.array([]), None)
    etas = np.array([c.eta for c in cells])
    radii = np.array([c.radius for c in cells])
    drifts = _plane_distances([c.plane for c in cells[:-1]], [c.plane for c in cells[1:]])
    dscales = np.array([c.radius for c in cells[:-1]])
    exponent = None
    if len(cells) >= 4:
        to_limit = _plane_distances([c.plane for c in cells[:-2]], [cells[-1].plane] * (len(cells) - 2))
        sc = np.array([c.radius for c in cells[:-2]])
        good = to_limit > 10 * drift_floor
        if good.sum() >= 2:
            exponent = float(np.polyfit(np.log(sc[good]), np.log(to_limit[good]), 1)[0])
    env = etas.copy()
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    for i in range(1, len(env)):
        env[i] = max(env[i], env[i - 1] * radii[i] / radii[i - 1])
    eta_hat = math.log(2.0) * float(np.sum(env))
    if eta_hat > dini_budget:
        return GraphCertificate(False, f"Dini sum {eta_hat:.3g} exceeds budget", eta_hat, dini_budget, 0.0, dscales, drifts, exponent)
    top = cells[0]
    try:
        sheets, lips = disk_sheets(chain, report.points[point_index], top.plane, top.radius)
    except ValueError as err:
        return GraphCertificate(False, str(err), eta_hat, dini_budget, 0.0, dscales, drifts, exponent)
    reason = "ok"
    if sheets == 0.0:
        reason = "empty support window"
    elif abs(sheets - 1.0) > 1e-9:
        reason = f"{sheets:.6g} sheets over the disk"
    elif lips > 1.0 + 1e-9:
        reason = f"Lipschitz bound {lips:.3g} exceeds 1"
    return GraphCertificate(reason == "ok", reason, eta_hat, dini_budget, lips, dscales, drifts, exponent)


# -- the slice profile, the boundary-defect matcher and the stalk sum, one
# term at a time


def slice_mass_profile(chain, functional, levels, tol: float = 1e-12) -> list[tuple[float, float]]:
    """``chains.slice_mass_profile``: every simplex of every level sliced on
    its own, and each slice segment the farthest pair of its crossings."""
    a, b = functional
    a = np.asarray(a, dtype=float)
    out = []
    for t in levels:
        total = 0.0
        for verts, w in zip(chain.verts, chain.coeff_norms()):
            d = verts @ a + b - t
            scale = max(1.0, float(np.max(np.abs(verts))))
            if np.all(np.abs(d) <= tol * scale):
                raise ValueError("functional is constant on a simplex at a queried level")
            if np.all(d >= -tol) or np.all(d <= tol):
                continue
            crossings = []
            k = len(d)
            for i in range(k):
                for j in range(i + 1, k):
                    if (d[i] < -tol and d[j] > tol) or (d[j] < -tol and d[i] > tol):
                        s = d[i] / (d[i] - d[j])
                        crossings.append(verts[i] + s * (verts[j] - verts[i]))
            for i in range(k):
                if abs(d[i]) <= tol:
                    crossings.append(np.array(verts[i]))
            w = float(w)
            if chain.m == 1:
                total += w * (1.0 if crossings else 0.0)
            elif chain.m == 2:
                if len(crossings) >= 2:
                    pts = np.array(crossings)
                    i0, i1 = _farthest_pair(pts)
                    total += w * float(np.linalg.norm(pts[i0] - pts[i1]))
            else:
                raise NotImplementedError("slice profiles support m <= 2")
        out.append((float(t), total))
    return out


def _farthest_pair(pts: np.ndarray) -> tuple[int, int]:
    best = (0, 0)
    bestd = -1.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(np.linalg.norm(pts[i] - pts[j]))
            if d > bestd:
                best, bestd = (i, j), d
    return best


def residual_defect_mass(chain, tol: float = 1e-9) -> float:
    """``epi._residual_defect_mass``: each unpaired face, in term order,
    absorbs the later unpaired faces within ``tol`` of it in the same or
    the reversed vertex order, by group addition of the coefficients."""
    from gmtepi.groups import group_norm

    items = [[s_.vertices.copy(), c, s_.volume] for s_, c in chain.terms]
    total = 0.0
    used = [False] * len(items)
    for i in range(len(items)):
        if used[i]:
            continue
        vi, ci, li = items[i]
        for j in range(i + 1, len(items)):
            if used[j]:
                continue
            vj, cj, lj = items[j]
            if abs(li - lj) > tol:
                continue
            if np.linalg.norm(vi - vj) <= tol:
                ci = group_add(ci, cj)
                used[j] = True
            elif np.linalg.norm(vi - vj[::-1]) <= tol:
                ci = group_add(ci, group_neg(cj))
                used[j] = True
        used[i] = True
        if not ci.is_zero:
            total += group_norm(ci) * li
    return total


def stalk_coefficient(decomp, radius: float):
    """``layers._stalk_coefficient``: the coefficients of the covering
    domains added one at a time."""
    from gmtepi.groups import zero
    from gmtepi.layers import _PROBES, EDGE_TOL, ConstancyError

    dom = decomp.domains
    m = decomp.m
    for x in radius * _PROBES[:, :m]:
        if m == 1:
            ends = dom[:, :, 0]
            if np.min(np.abs(ends - x[0])) <= EDGE_TOL:
                continue
            hits = np.flatnonzero((ends.min(axis=1) < x[0]) & (x[0] < ends.max(axis=1)))
        else:
            e = np.roll(dom, -1, axis=1) - dom
            rel = x - dom
            t = np.clip(np.sum(rel * e, axis=2) / np.sum(e * e, axis=2), 0.0, 1.0)
            if np.min(np.linalg.norm(rel - t[..., None] * e, axis=2)) <= EDGE_TOL:
                continue
            cross = e[..., 0] * rel[..., 1] - e[..., 1] * rel[..., 0]
            hits = np.flatnonzero(np.all(cross > 0, axis=1) | np.all(cross < 0, axis=1))
        acc = zero(decomp.chain.group)
        for j in hits:
            acc = group_add(acc, decomp.chain.coefficient(j))
        return acc
    raise ConstancyError(f"every probe point lies within {EDGE_TOL} of a domain edge")
