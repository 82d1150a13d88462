"""Exact integration of low-degree polynomials over simplices and disk clips.

Everything downstream (masses, excesses, second moments, the moment
polynomials of degree four) integrates polynomials over either

* a whole ``m``-simplex,
* a simplex intersected with a ball, for ``m <= 2``.

The first is handled by fixed symmetric quadrature rules exact to degree
five.  The second is reduced to the plane of the simplex, where the ball
cuts a disk: the intersection region is split per edge into signed chord
triangles plus signed circular sectors (a Green's-theorem decomposition,
so no explicit region assembly is needed), and monomials are integrated
exactly on both kinds of pieces.  No sampling noise enters anywhere.

The ball integrals run on stacks of simplices (and of polygons) in array
passes: one kernel, ``_edge_runs``, clips every edge of every polygon at
once for the areas, the moments and the arcs on the sphere, and sector
integrals come from a fixed table of Fourier coefficients.  The
per-simplex functions are one-element calls into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "gauss_segment",
    "gram_volumes",
    "simplex_volume",
    "trig_monomial_integral",
    "disk_polygon_area",
    "disk_polygon_areas",
    "BallMoments",
    "batch_ball_moments",
    "batch_ball_masses",
    "batch_ball_slices",
    "cell_ball_moments",
    "simplex_ball_moments",
    "simplex_ball_mass",
]

_SQRT15 = math.sqrt(15.0)

# 3-point Gauss-Legendre on [0,1]; exact for degree <= 5.
_GAUSS3_NODES = np.array(
    [0.5 - math.sqrt(3.0 / 5.0) / 2.0, 0.5, 0.5 + math.sqrt(3.0 / 5.0) / 2.0]
)
_GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# Radon 7-point rule on the triangle, barycentric coordinates; degree 5.
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


def gauss_segment() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 3-point Gauss rule on [0, 1]."""
    return _GAUSS3_NODES.copy(), _GAUSS3_WEIGHTS.copy()


def simplex_volume(vertices: np.ndarray) -> float:
    """Unsigned m-volume of a simplex in R^n via the Gram determinant."""
    edges = vertices[1:] - vertices[0]
    m = edges.shape[0]
    if m == 0:
        return 1.0
    return float(gram_volumes(np.linalg.det(edges @ edges.T), m))


def gram_volumes(gram, m: int):
    """Unsigned m-volumes ``sqrt(gram) / m!`` of simplices with the given
    Gram determinants of their edge vectors; 0 where ``gram <= 0``."""
    return np.sqrt(np.maximum(gram, 0.0)) / math.factorial(m)


# -- sector integrals ---------------------------------------------------------
#
# cos^a(t) sin^b(t) is a trigonometric polynomial of frequency at most a + b,
# so its integral over [phi0, phi0 + dphi] is a fixed linear combination of
# the features dphi, (sin f phi1 - sin f phi0) / f and (cos f phi0 - cos f phi1) / f.
# The coefficients are small dyadic rationals, tabulated once here; rows are
# ordered by total degree, so the rows with a + b <= 4 come first.

_TRIG_MAX = 8
_TRIG_PAIRS = [(a, d - a) for d in range(_TRIG_MAX + 1) for a in range(d, -1, -1)]
_TRIG_ROW = {ab: i for i, ab in enumerate(_TRIG_PAIRS)}


def _fourier_table() -> np.ndarray:
    # cos^a sin^b = 2^-(a+b) (i)^-b sum_{j,k} C(a,j)C(b,k)(-1)^(b-k) e^{i(2j+2k-a-b)t},
    # and Re(c e^{ift}) = Re(c) cos(|f| t) - sign(f) Im(c) sin(|f| t)
    table = np.zeros((len(_TRIG_PAIRS), 2 * _TRIG_MAX + 1))
    for row, (a, b) in enumerate(_TRIG_PAIRS):
        pref = (0.5 ** (a + b)) * (1j ** (-b))
        for j in range(a + 1):
            for k in range(b + 1):
                c = pref * math.comb(a, j) * math.comb(b, k) * ((-1) ** (b - k))
                f = 2 * j + 2 * k - a - b
                table[row, abs(f)] += c.real
                if f:
                    table[row, _TRIG_MAX + abs(f)] -= math.copysign(1.0, f) * c.imag
    return table


_TRIG_TABLE = _fourier_table()
# the moments use the degree <= 4 block: 15 (a, b) rows against
# frequencies 0..4; the rows up to degree 8 serve trig_monomial_integral
_DEG4 = 15
_TRIG4 = _TRIG_TABLE[:_DEG4][:, [0, 1, 2, 3, 4, 9, 10, 11, 12]]
_DEG4_A = np.array([a for a, _ in _TRIG_PAIRS[:_DEG4]])
_DEG4_B = np.array([b for _, b in _TRIG_PAIRS[:_DEG4]])
_DEG4_ORDER = _DEG4_A + _DEG4_B + 2.0
_LOW4 = np.add.outer(np.arange(5), np.arange(5)) <= 4


def _sector_features(phi0: np.ndarray, dphi: np.ndarray, fmax: int) -> np.ndarray:
    """The features of :data:`_TRIG_TABLE` up to frequency ``fmax``, shape (..., 2 fmax + 1).

    Differences of sines and cosines are taken in product form, which keeps
    their accuracy for short arcs.
    """
    f = np.arange(1, fmax + 1)
    half = np.sin((0.5 * dphi)[..., None] * f) * (2.0 / f)
    mid = (phi0 + 0.5 * dphi)[..., None] * f
    return np.concatenate([dphi[..., None], np.cos(mid) * half, np.sin(mid) * half], axis=-1)


def trig_monomial_integral(a: int, b: int, phi0: float, dphi: float) -> float:
    """Exact ``int_{phi0}^{phi0+dphi} cos^a(t) sin^b(t) dt`` for ``a + b <= 8``."""
    row = _TRIG_ROW.get((int(a), int(b)))
    if row is None:
        raise ValueError(f"trig monomials need 0 <= a, b and a + b <= {_TRIG_MAX}")
    feats = _sector_features(np.array([phi0], dtype=float), np.array([dphi], dtype=float), _TRIG_MAX)
    return float(feats[0] @ _TRIG_TABLE[row])


# -- disk clips ---------------------------------------------------------------


def _turn(angle: np.ndarray) -> np.ndarray:
    """An angle difference reduced to [-pi, pi]; exact when already there."""
    return angle - (2.0 * math.pi) * np.rint(angle / (2.0 * math.pi))


def _edge_runs(rel: np.ndarray, rho: np.ndarray):
    """Each directed edge ``p -> q`` of stacked polygons against its disk.

    ``rel`` is (B, k, 2): polygon vertices relative to each disk's centre;
    ``rho`` is (B,).  An edge splits at the clamped roots ``lo <= hi`` of
    ``|p + t d| = rho``: the chord from ``a = p + lo d`` to ``b = p + hi d``
    lies in the disk, and the runs ``p -> a`` and ``b -> q`` outside it
    sweep the angles ``dphi`` (B, k, 2) seen from the centre.  An edge the
    circle misses has ``lo = hi`` and sweeps one angle.  Returns ``a``,
    ``b``, twice the signed chord triangles ``a x b``, the angles of ``p``
    and ``b`` and ``dphi``.
    """
    d = np.concatenate([rel[:, 1:], rel[:, :1]], axis=1) - rel
    px, py, dx, dy = rel[:, :, 0], rel[:, :, 1], d[:, :, 0], d[:, :, 1]
    aa = dx * dx + dy * dy
    edge = aa > 1e-30  # a degenerate edge contributes nothing
    den = np.where(edge, aa, 1.0)
    mid = -(px * dx + py * dy) / den
    r2 = (rho * rho)[:, None]
    half = np.sqrt(np.maximum(mid * mid - (px * px + py * py - r2) / den, 0.0))
    lo = np.minimum(np.maximum(mid - half, 0.0), 1.0)
    hi = np.minimum(np.maximum(mid + half, 0.0), 1.0)
    ax, ay = px + lo * dx, py + lo * dy
    bx, by = px + hi * dx, py + hi * dy
    chord = np.where(edge, ax * by - ay * bx, 0.0)
    tp = np.arctan2(py, px)
    tb = np.arctan2(by, bx)
    tq = np.concatenate([tp[:, 1:], tp[:, :1]], axis=1)
    # a run exists when it is longer than 1e-15 of its edge (so its far
    # end lies outside the circle) and turns by more than 1e-15 rad; the
    # thresholds drop the rounding noise of collinear points and keep the
    # area of a degenerate polygon exactly zero
    dphi = np.stack([_turn(np.arctan2(ay, ax) - tp), _turn(tq - tb)], axis=-1)
    run = np.stack([lo > 1e-15, 1.0 - hi > 1e-15], axis=-1)
    dphi = np.where(run & edge[..., None] & (np.abs(dphi) > 1e-15), dphi, 0.0)
    return ax, ay, bx, by, chord, tp, tb, dphi


def _powers4(q: np.ndarray) -> np.ndarray:
    """``q^0 .. q^4`` (..., 5) as 1, q, q q, q^2 q and q^2 q^2.

    Products round alike for ``q`` and ``-q``, and cost a fraction of
    numpy's float ``power``, which takes a slower path for negative bases
    and rounds it differently in the last bit.
    """
    out = np.empty(q.shape + (5,))
    out[..., 0] = 1.0
    out[..., 1] = q
    np.multiply(q, q, out=out[..., 2])
    np.multiply(out[..., 2], q, out=out[..., 3])
    np.multiply(out[..., 2], out[..., 2], out=out[..., 4])
    return out


def _disk_clip(rel: np.ndarray, rho: np.ndarray, moments: bool) -> np.ndarray:
    """Signed integrals over ``polygon ∩ disk(0, rho)`` for stacked polygons.

    By Green's theorem each edge of :func:`_edge_runs` adds its signed
    chord triangle with the centre and the circular sectors of its runs.
    Returns the areas (B,), or with ``moments`` the monomial integrals
    (B, 5, 5), ``M[:, a, b] = ∫ x^a y^b`` for ``a + b <= 4`` and zero above.
    Positive for counter-clockwise polygons.
    """
    ax, ay, bx, by, chord, tp, tb, dphi = _edge_runs(rel, rho)
    if not moments:
        return 0.5 * (chord + (rho * rho)[:, None] * dphi.sum(axis=-1)).sum(axis=1)
    # chord triangles: degree-5 rule at b1 a + b2 b (vertex 0 is the centre)
    qx7 = ax[..., None] * _TRI_BARY[:, 1] + bx[..., None] * _TRI_BARY[:, 2]  # (B, k, 7)
    qy7 = ay[..., None] * _TRI_BARY[:, 1] + by[..., None] * _TRI_BARY[:, 2]
    wq = (0.5 * chord)[..., None] * _TRI_WEIGHTS
    flat = (rel.shape[0], rel.shape[1] * len(_TRI_WEIGHTS), 5)
    powx = (wq[..., None] * _powers4(qx7)).reshape(flat)
    powy = _powers4(qy7).reshape(flat)
    M = np.matmul(np.swapaxes(powx, 1, 2), powy) * _LOW4
    # sectors start at p and at b: summed frequency features against the
    # Fourier table
    feats = _sector_features(np.stack([tp, tb], axis=-1), dphi, 4)
    ang = feats.sum(axis=(1, 2)) @ _TRIG4.T  # (B, 15)
    M[:, _DEG4_A, _DEG4_B] += rho[:, None] ** _DEG4_ORDER / _DEG4_ORDER * ang
    return M


def disk_polygon_areas(polys: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Exact (signed) areas of stacked polygons (B, k, 2) ∩ one disk."""
    rel = np.asarray(polys, dtype=float) - np.asarray(center, dtype=float)
    return _disk_clip(rel, np.full(len(rel), float(radius)), moments=False)


def disk_polygon_area(poly: np.ndarray, center: np.ndarray, radius: float) -> float:
    """Exact (signed) area of polygon ∩ disk; positive for a CCW polygon."""
    return float(disk_polygon_areas(np.asarray(poly, dtype=float)[None], center, radius)[0])


# -- simplex-ball moments -----------------------------------------------------


@dataclass
class BallMoments:
    """Exact moments of Lebesgue measure on ``simplex ∩ B(x, r)``.

    All quantities are relative to the ball center ``x``: with
    ``y' = y - x``,

    * ``s0``   -- measure of the region,
    * ``s1``   -- ``∫ y'``,
    * ``s2``   -- ``∫ y' y'^T``,
    * ``t2``   -- ``∫ |y'|^2``,
    * ``u3``   -- ``∫ y' |y'|^2``,
    * ``t4``   -- ``∫ |y'|^4``.
    """

    s0: float
    s1: np.ndarray
    s2: np.ndarray
    t2: float
    u3: np.ndarray
    t4: float

    @staticmethod
    def zero(n: int) -> "BallMoments":
        return BallMoments(0.0, np.zeros(n), np.zeros((n, n)), 0.0, np.zeros(n), 0.0)


def _norms(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """``np.linalg.norm(a, axis=axis)``: the same floats, without its
    dispatch, which costs more than the arithmetic on a scan's few rows."""
    return np.sqrt((a * a).sum(axis=axis))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes, broadcast: the floats of ``x @ y`` on
    each pair of 1-D rows (an elementwise sum may round differently).

    The discriminant of a nearly tangent segment is ill-conditioned; this
    keeps it bit-identical to the per-simplex reference the tests use.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _check_m(vertices: np.ndarray) -> int:
    m = vertices.shape[1] - 1
    if m not in (1, 2):
        raise NotImplementedError(f"exact ball integrals need m in (1, 2), got m={m}")
    return m


def _segment_windows(v: np.ndarray, center: np.ndarray, radius: float):
    """Parameter windows ``[t1, t2]`` of stacked segments inside the ball,
    with the offsets ``p = v0 - center`` and directions ``d = v1 - v0``."""
    p = v[:, 0] - center
    d = v[:, 1] - v[:, 0]
    aa = _rowdot(d, d)
    bb = 2.0 * _rowdot(p, d)
    cc = _rowdot(p, p) - radius * radius
    disc = bb * bb - 4.0 * aa * cc
    cut = disc > 0.0
    sq = np.sqrt(np.where(cut, disc, 0.0))
    den = 2.0 * np.where(aa > 1e-30, aa, 1.0)
    t1 = np.where(cut, np.maximum(0.0, (-bb - sq) / den), 0.0)
    t2 = np.where(cut, np.minimum(1.0, (-bb + sq) / den), 1.0)
    hit = (aa > 1e-30) & np.where(cut, t2 > t1, cc <= 0.0)
    return p[hit], d[hit], t1[hit], t2[hit], np.sqrt(aa[hit]), hit


def _triangle_frames(v: np.ndarray) -> np.ndarray:
    """In-plane frames (T, 2, n) of stacked triangles: the Q of their edges
    at vertex 0 with ``diag(R) > 0``, each matrix factored on its own."""
    q, r = np.linalg.qr(np.swapaxes(v[:, 1:] - v[:, :1], 1, 2))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return np.swapaxes(q * signs[:, None, :], 1, 2)


def _triangle_planes(v: np.ndarray, center, frames: np.ndarray | None = None):
    """Each triangle's plane seen from ``center``, for every radius at once.

    ``center`` is one point (n,) or one per triangle (T, n).  Returns the
    in-plane vertices relative to the foot of the perpendicular from the
    centre (T, 3, 2), the squared distances from the centre to the planes
    (T,), the :func:`_triangle_frames` (T, 2, n) (those of ``frames`` if
    given) and the offsets foot - centre (T, n).  Each row is computed on
    its own, so any subset of the rows is the float a call on that subset
    gives.
    """
    frame = _triangle_frames(v) if frames is None else frames
    rel = center - v[:, 0]
    a_in = np.matmul(frame, rel[:, :, None])[:, :, 0]
    h2 = np.maximum(_rowdot(rel, rel) - _rowdot(a_in, a_in), 0.0)
    poly = np.matmul(v - v[:, :1], np.swapaxes(frame, 1, 2)) - a_in[:, None, :]
    return poly, h2, frame, -(rel - np.matmul(a_in[:, None, :], frame)[:, 0])


def _disk_cut(h2: np.ndarray, radius):
    """The planes at squared distances ``h2`` that the ball of ``radius``
    (a scalar or one per plane) meets, as a mask, and its disks' radii."""
    r2 = radius * radius - h2
    hit = r2 > 0.0
    return hit, np.sqrt(r2[hit])


def _disk_masses(poly: np.ndarray, h2: np.ndarray, radius: float) -> np.ndarray:
    """Exact areas of the triangles of :func:`_triangle_planes` in the ball."""
    out = np.zeros(len(poly))
    hit, rho = _disk_cut(h2, radius)
    out[hit] = np.abs(_disk_clip(poly[hit], rho, moments=False))
    return out


def _disk_slices(poly: np.ndarray, h2: np.ndarray, radius: float) -> np.ndarray:
    """Lengths of the arcs of the ball's circles inside the triangles of
    :func:`_triangle_planes`: each is the circle's part of the boundary of
    the clipped disk, whose angle sums the run angles of :func:`_edge_runs`."""
    out = np.zeros(len(poly))
    hit, rho = _disk_cut(h2, radius)
    out[hit] = rho * np.abs(_edge_runs(poly[hit], rho)[-1].sum(axis=(1, 2)))
    return out


def batch_ball_masses(vertices: np.ndarray, center, radius: float) -> np.ndarray:
    """Exact m-volumes of ``simplex ∩ B(center, radius)`` for stacked
    simplices ``(T, m+1, n)``, m in (1, 2)."""
    vertices = np.asarray(vertices, dtype=float)
    center = np.asarray(center, dtype=float)
    out = np.zeros(len(vertices))
    m = _check_m(vertices)
    if not len(vertices):
        return out
    if m == 1:
        _p, _d, t1, t2, length, hit = _segment_windows(vertices, center, radius)
        out[hit] = (_GAUSS3_WEIGHTS * (length * (t2 - t1))[:, None]).sum(axis=1)
        return out
    return _disk_masses(*_triangle_planes(vertices, center)[:2], radius)


def batch_ball_slices(vertices: np.ndarray, center, radius: float) -> np.ndarray:
    """(m-1)-measures of ``simplex ∩ ∂B(center, radius)`` for stacked
    simplices ``(T, m+1, n)``, m in (1, 2), that meet the ball in positive
    measure.

    A triangle's is the exact length of the arc of its plane's circle
    inside it (:func:`_disk_slices`).  A segment's
    is the number of ends of its window in the ball that lie on the sphere:
    an end inside the segment, or an endpoint within 1e-12 r^2 of the
    sphere in ``|y - x|^2``, so it is never too small.
    """
    vertices = np.asarray(vertices, dtype=float)
    center = np.asarray(center, dtype=float)
    out = np.zeros(len(vertices))
    m = _check_m(vertices)
    if not len(vertices):
        return out
    if m == 1:
        p, d, t1, t2, _length, hit = _segment_windows(vertices, center, radius)
        r2 = radius * radius
        q = p + d
        on0 = np.abs(_rowdot(p, p) - r2) <= 1e-12 * r2
        on1 = np.abs(_rowdot(q, q) - r2) <= 1e-12 * r2
        out[hit] = ((t1 > 0.0) | on0).astype(float) + ((t2 < 1.0) | on1)
        return out
    return _disk_slices(*_triangle_planes(vertices, center)[:2], radius)


def _moment_rows(vertices: np.ndarray, center, radius, frames=None):
    """Exact :class:`BallMoments` fields of each simplex of the stack
    ``(T, m+1, n)`` against its ball, m in (1, 2).

    ``center`` is one point (n,) or one per simplex (T, n), ``radius`` a
    scalar or one per simplex, ``frames`` None or the triangles'
    :func:`_triangle_frames`.  Returns the mask of the simplices that meet
    their ball and, for those rows, the per-simplex ``s0, s1, s2, t2, u3,
    t4``.  Every row is computed on its own, so a simplex's moments do not
    depend on which other simplices share the stack.
    """
    if _check_m(vertices) == 1:
        p, d, t1, t2, length, hit = _segment_windows(vertices, center, radius)
        ts = t1[:, None] + (t2 - t1)[:, None] * _GAUSS3_NODES  # (S, 3)
        pts = p[:, None, :] + ts[..., None] * d[:, None, :]  # (S, 3, n)
        w = _GAUSS3_WEIGHTS * (length * (t2 - t1))[:, None]
        norms2 = np.einsum("sqi,sqi->sq", pts, pts)
        s0 = w.sum(axis=1)
        s1 = np.einsum("sq,sqi->si", w, pts)
        s2 = np.einsum("sq,sqi,sqj->sij", w, pts, pts)
        t2_ = np.einsum("sq,sq->s", w, norms2)
        u3 = np.einsum("sq,sqi->si", w * norms2, pts)
        t4 = np.einsum("sq,sq->s", w, norms2 * norms2)
    else:
        poly, h2, frame, hvec = _triangle_planes(vertices, center, frames)
        hit, rho = _disk_cut(h2, radius)
        poly, h2, frame, hvec = poly[hit], h2[hit], frame[hit], hvec[hit]
        M = _disk_clip(poly, rho, moments=True)
        # unsigned moments: flip clockwise in-plane polygons
        M = M * np.where(M[:, 0, 0] < 0, -1.0, 1.0)[:, None, None]
        s0 = M[:, 0, 0]
        m1 = np.stack([M[:, 1, 0], M[:, 0, 1]], axis=1)
        M2 = np.stack([M[:, 2, 0], M[:, 1, 1], M[:, 1, 1], M[:, 0, 2]], axis=1).reshape(-1, 2, 2)
        tr2 = M[:, 2, 0] + M[:, 0, 2]
        m3 = np.stack([M[:, 3, 0] + M[:, 1, 2], M[:, 2, 1] + M[:, 0, 3]], axis=1)
        tr4 = M[:, 4, 0] + 2.0 * M[:, 2, 2] + M[:, 0, 4]
        em1 = np.einsum("tin,ti->tn", frame, m1)
        s1 = hvec * s0[:, None] + em1
        s2 = (
            hvec[:, :, None] * (hvec * s0[:, None])[:, None, :]
            + hvec[:, :, None] * em1[:, None, :]
            + em1[:, :, None] * hvec[:, None, :]
            + np.einsum("tin,tij,tjm->tnm", frame, M2, frame)
        )
        t2_ = h2 * s0 + tr2
        u3 = hvec * t2_[:, None] + np.einsum("tin,ti->tn", frame, h2[:, None] * m1 + m3)
        t4 = h2 * h2 * s0 + 2.0 * h2 * tr2 + tr4
    return hit, (s0, s1, s2, t2_, u3, t4)


def cell_ball_moments(
    vertices: np.ndarray, centers: np.ndarray, radii: np.ndarray, weights: np.ndarray, cells: np.ndarray, count: int,
    frames: np.ndarray | None = None,
) -> list[BallMoments]:
    """``sum_t weights[t]`` times the exact :class:`BallMoments` of simplex
    ``t`` of the stack ``(T, m+1, n)``, m in (1, 2), for each of ``count``
    balls in one array pass.

    Row ``t`` of the stack belongs to ball ``cells[t]`` (nondecreasing),
    whose centre and radius are ``centers[cells[t]]`` and
    ``radii[cells[t]]``.  All fields of all balls are summed in one
    ``bincount`` over the weighted rows, which adds each sum's terms in
    row order, so every entry is the float that the one-ball call returns.
    A triangle stack may bring its :func:`_triangle_frames` as ``frames``.
    """
    vertices = np.asarray(vertices, dtype=float)
    n = vertices.shape[2]
    _check_m(vertices)
    if not len(vertices):
        return [BallMoments.zero(n) for _ in range(count)]
    hit, rows = _moment_rows(vertices, centers[cells], radii[cells], frames)
    w, cells = np.asarray(weights, dtype=float)[hit], cells[hit]
    # the fields side by side, one column per entry; ball c's sums are
    # bins c K .. c K + K - 1
    widths = [1, n, n * n, 1, n, 1]
    ends = np.cumsum(widths).tolist()
    K = ends[-1]
    terms = np.concatenate([a.reshape(len(w), k) for a, k in zip(rows, widths)], axis=1) * w[:, None]
    sums = np.bincount((cells[:, None] * K + np.arange(K)).ravel(), terms.ravel(), count * K).reshape(count, K)
    s0, s1, s2, t2, u3, t4 = (sums[:, lo:hi] for lo, hi in zip([0] + ends, ends))
    return [BallMoments(*f) for f in zip(s0[:, 0].tolist(), s1, s2.reshape(count, n, n), t2[:, 0].tolist(), u3,
                                         t4[:, 0].tolist())]


def batch_ball_moments(
    vertices: np.ndarray, center, radius: float, weights: np.ndarray, frames: np.ndarray | None = None
) -> BallMoments:
    """:func:`cell_ball_moments` of the one ball ``B(center, radius)``."""
    vertices = np.asarray(vertices, dtype=float)
    centers, radii = np.asarray(center, dtype=float)[None], np.array([radius], dtype=float)
    return cell_ball_moments(vertices, centers, radii, weights, np.zeros(len(vertices), dtype=np.int64), 1, frames)[0]


def simplex_ball_moments(
    vertices: np.ndarray, center: np.ndarray, radius: float
) -> BallMoments:
    """Exact :class:`BallMoments` of an m-simplex (m <= 2) against a ball."""
    return batch_ball_moments(np.asarray(vertices, dtype=float)[None], center, radius, np.ones(1))


def simplex_ball_mass(vertices: np.ndarray, center: np.ndarray, radius: float) -> float:
    """Exact m-volume of ``simplex ∩ B(center, radius)`` for m <= 2."""
    return float(batch_ball_masses(np.asarray(vertices, dtype=float)[None], center, radius)[0])
