"""Comparison-surface pipeline for near-flat polyhedral cones.

From a 1-homogeneous cone ``P`` in general position over a base plane the
pipeline builds the competitor ``S`` in stages:

1. pick the base plane (spectral plane of the second-moment form plus a
   local excess-minimizing polish),
2. decompose into affine graph layers and average them by coefficient
   norm,
3. mollify the average by ball means (radius proportional to the height
   bound), keeping 1-homogeneity,
4. blend the layers into the mollified graph across the annulus
   ``1/2 <= |x| <= 3/4``,
5. re-select the plane ``W`` spectrally from the mollified cone, so the
   boundary trace loses its linear part (its in-plane frame is the
   projection of the base plane's),
6. trace the mollified cone over ``W``, split into circle harmonics,
7. extend the trace from the boundary by the degree-2 homogeneous map
   ``h(t x) = w0 + t^2 (w(x) - w0)``,
8. replace the cone inside the ``W``-cylinder of radius 1/4 by the graph
   of the rescaled extension and reuse the blended chain outside.

The emitted report carries the measured excess-reduction ratio on the
replacement zone (whose small-amplitude limit is the per-mode energy
factor ``2m/(2m+1)``), the assembled full-cylinder ratio, both compared
against the theoretical contraction ``lambda = (2m+1-4^{-m-1})/(2m+1)``,
plus Dirichlet energies, the linear-mode residual, plane drift, and the
boundary-preservation defect.  Pipelines abort with a stage-tagged error
when a stage's preconditions fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    PolyChain,
    Simplex,
    boundary,
    coeff_payload,
    is_cone,
    mass,
    merge_terms,
    simplex_volumes,
)
from .groups import NormedCoefficient, group_norm
from .layers import (
    ConstancyError,
    GeneralPositionError,
    LayerDecomposition,
    _clip_halfplane,
    align_base_to_chain as _align_to_chain,
    cylindrical_excess,
    decompose_layers,
    height_sup,
)
from .mono import lambda_epi
from .moments import quad_form, select_plane
from .planes import OrientedPlane, align_in_plane_orientation, plane_distance
from .quadrature import disk_polygon_areas, gauss_segment

__all__ = [
    "EpiConfig",
    "mollified_unit_curve",
    "AnnulusBlend",
    "annulus_interpolate",
    "StageError",
    "AveragedGraph",
    "averaged_graph",
    "MollifiedGraph",
    "mollified_graph",
    "BoundaryTrace",
    "trace_and_split",
    "Degree2Extension",
    "degree2_extension",
    "EpiReport",
    "build_comparison",
    "circle_gradient_energy_ratio",
]


class StageError(RuntimeError):
    """Pipeline failure carrying the stage where a precondition broke."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class EpiConfig:
    """Pipeline knobs; tolerances are pinned, not calibrated per run."""

    rho_max: float = 0.5  # admissible height bound (must stay below 1/2)
    eps_max: float = 0.5  # admissible excess bound
    strict_flatness: bool = False  # additionally require eps <= rho^(6m)
    harmonic_cutoff: int = 16
    tail_tol: float = 0.01  # max tail share of trace energy beyond cutoff
    moll_nodes: int = 64  # quadrature nodes of the mollifying ball mean
    radial_divisions: int = 12  # rings of the degree-2 graph
    blend_divisions: int = 8  # rings of the annulus blend
    refine_h: float = 1e-2
    polish: bool = True  # excess-minimizing plane polish
    polish_tol: float = 1e-12
    boundary_defect_tol: float = 1e-3  # relative to mass(P)


# -- averaged and mollified graphs -----------------------------------------


class AveragedGraph:
    """Coefficient-norm-weighted average of the layer maps.

    ``eval_many`` evaluates at base points (k, m) -> (k, n-m); querying a
    point no layer covers raises (a hole violates the constancy of the
    projection).
    """

    def __init__(self, decomp: LayerDecomposition, tol: float = 1e-12):
        if decomp.g0.is_zero:
            raise ConstancyError("g0 = 0: averaged graph undefined")
        self.decomp = decomp
        self.tol = tol
        m = decomp.m
        L = len(decomp.layers)
        self._A = np.stack([ly.A for ly in decomp.layers])  # (L, n-m, m)
        self._b = np.stack([ly.b for ly in decomp.layers])  # (L, n-m)
        self._w = np.array([group_norm(ly.coeff) for ly in decomp.layers])
        k = m + 1
        self._normals = np.zeros((L, k, m))
        self._offsets = np.zeros((L, k))
        for li, ly in enumerate(decomp.layers):
            d = ly.domain
            centroid = d.mean(axis=0)
            for e in range(k):
                p, q = d[e], d[(e + 1) % k]
                if m == 1:
                    nrm = np.array([1.0]) if centroid[0] > p[0] else np.array([-1.0])
                    self._normals[li, e] = nrm
                    self._offsets[li, e] = nrm @ p
                    break
                t = q - p
                nrm = np.array([-t[1], t[0]])
                if (centroid - p) @ nrm < 0:
                    nrm = -nrm
                ln = np.linalg.norm(nrm)
                self._normals[li, e] = nrm / ln
                self._offsets[li, e] = (nrm / ln) @ p
        if m == 1:
            self._lo = np.array([ly.domain[:, 0].min() for ly in decomp.layers])
            self._hi = np.array([ly.domain[:, 0].max() for ly in decomp.layers])

    def _masks(self, xs: np.ndarray) -> np.ndarray:
        """(k, L): the layers whose domains hold each point, within ``tol``."""
        if self.decomp.m == 1:
            x = xs[:, :1]
            return (self._lo - self.tol <= x) & (x <= self._hi + self.tol)
        x, y = xs[:, None, None, 0], xs[:, None, None, 1]
        ok = self._normals[..., 0] * x + self._normals[..., 1] * y - self._offsets >= -self.tol
        return ok[..., 0] & ok[..., 1] & ok[..., 2]

    def _mask(self, x: np.ndarray) -> np.ndarray:
        return self._masks(np.asarray(x, dtype=float)[None])[0]

    def eval(self, x: np.ndarray) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float)[None])[0]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        mask = self._masks(xs)
        holes = ~mask.any(axis=1)
        if holes.any():
            raise ConstancyError(f"no layer covers base point {xs[np.argmax(holes)]}")
        w = mask * self._w  # (k, L)
        heights = self._b + sum(self._A[..., i] * xs[:, None, None, i] for i in range(xs.shape[1]))
        return (w[..., None] * heights).sum(axis=1) / w.sum(axis=1)[:, None]


def averaged_graph(decomp: LayerDecomposition) -> AveragedGraph:
    """Pointwise norm-weighted average ``ybar`` of the layer maps."""
    return AveragedGraph(decomp)


class MollifiedGraph:
    """1-homogeneous mollification of the averaged graph.

    Values are ball means over ``B(x, rho |x|)``; by homogeneity they are
    sampled on the unit sphere of the base and extended linearly in the
    radius (piecewise-linearly in angle for m = 2).
    """

    def __init__(self, base: OrientedPlane, angles: np.ndarray, values: np.ndarray, rho: float):
        self.base = base
        self.angles = angles  # sorted in [0, 2pi) for m=2; [-1, 1] sides for m=1
        self.values = values  # (k, n-m)
        self.rho = rho

    def eval_unit(self, angle_or_side: float) -> np.ndarray:
        if self.base.m == 1:
            return self.values[0] if angle_or_side < 0 else self.values[1]
        a = angle_or_side % (2 * math.pi)
        idx = np.searchsorted(self.angles, a) % len(self.angles)
        a0 = self.angles[idx - 1]
        a1 = self.angles[idx]
        span = (a1 - a0) % (2 * math.pi)
        t = ((a - a0) % (2 * math.pi)) / span if span > 1e-15 else 0.0
        return (1 - t) * self.values[idx - 1] + t * self.values[idx]

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r < 1e-300:
            return np.zeros(self.values.shape[1])
        if self.base.m == 1:
            return r * self.eval_unit(float(np.sign(x[0])))
        return r * self.eval_unit(math.atan2(x[1], x[0]))

    def sup_unit(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1)))


def _disk_mean_nodes(center: np.ndarray, radius: float, count: int) -> np.ndarray:
    """Quadrature nodes of the normalized mean over a disk (m = 2)."""
    n_rad = max(2, int(round(math.sqrt(count / 8))) * 2)
    n_ang = max(4, count // n_rad)
    s_nodes, _ = gauss_segment()
    # substitute s = (r/R)^2 so uniform s-weights integrate the area measure
    rads = radius * np.sqrt(s_nodes)
    angs = 2 * math.pi * (np.arange(n_ang) + 0.5) / n_ang
    dirs = np.array([[math.cos(a), math.sin(a)] for a in angs])
    return (center + rads[:, None, None] * dirs).reshape(-1, 2)


def _disk_mean_weights(count: int) -> np.ndarray:
    n_rad = max(2, int(round(math.sqrt(count / 8))) * 2)
    n_ang = max(4, count // n_rad)
    _, w = gauss_segment()
    return np.repeat(w, n_ang) / n_ang


def mollified_graph(
    avg: AveragedGraph,
    rho: float,
    angles: np.ndarray | None = None,
    nodes: int = 64,
) -> MollifiedGraph:
    """Ball-mean mollification ``v`` of ``ybar`` at mollifying radius rho.

    Exact for affine inputs (the mean of an affine map over a centered
    ball is its center value); asserts the admissibility bound
    ``|v| <= 2 rho`` on the sampled sphere.
    """
    if not 0 < rho < 0.5:
        raise ValueError("mollifying radius must lie in (0, 1/2)")
    base = avg.decomp.base
    if base.m == 1:
        sides = np.array([-1.0, 1.0])
        s_nodes, s_w = gauss_segment()
        vals = []
        for s in sides:
            xs = (s + rho * (2 * s_nodes - 1.0))[:, None]
            vals.append((s_w / s_w.sum()) @ avg.eval_many(xs))
        out = MollifiedGraph(base, sides, np.array(vals), rho)
    else:
        if angles is None:
            angles = 2 * math.pi * np.arange(256) / 256
        w = _disk_mean_weights(nodes)
        vals = []
        for a in np.asarray(angles, dtype=float):
            c = np.array([math.cos(a), math.sin(a)])
            pts = _disk_mean_nodes(c, rho, nodes)
            vals.append(w @ avg.eval_many(pts))
        out = MollifiedGraph(base, np.asarray(angles, dtype=float), np.array(vals), rho)
    if out.sup_unit() > 2.0 * rho + 1e-12:
        raise StageError("mollify", f"|v| = {out.sup_unit():.3g} exceeds 2 rho = {2 * rho:.3g}")
    return out


# -- boundary trace and harmonic split --------------------------------------


@dataclass
class BoundaryTrace:
    """Sampled boundary map ``w`` on the unit sphere of ``W`` plus its
    harmonic split.

    For m = 2 the samples sit on a uniform angle grid and ``coeff_cos`` /
    ``coeff_sin`` hold the Fourier coefficients of each perpendicular
    component up to the cutoff; for m = 1 the two samples split into the
    even part ``w0`` and odd part ``w1``.  Energies are the closed forms
    of the degree-2 and cone extensions.
    """

    plane: OrientedPlane
    perp: np.ndarray
    angles: np.ndarray
    samples: np.ndarray  # (N, n-m)
    w0: np.ndarray
    coeff_cos: np.ndarray  # (K+1, n-m), row 0 unused
    coeff_sin: np.ndarray
    l2_total: float
    l2_centered: float
    grad_sq: float
    tail_share: float
    w1_sup: float

    def mode_l2_sq(self, k: int) -> float:
        if k == 0:
            w0n = float(np.linalg.norm(self.w0))
            if self.plane.m == 1:
                return 2.0 * w0n**2
            return 2 * math.pi * w0n**2
        if self.plane.m == 1:
            if k == 1:
                return float(2.0 * np.sum(((self.samples[1] - self.samples[0]) / 2.0) ** 2))
            return 0.0
        return math.pi * float(
            np.sum(self.coeff_cos[k] ** 2) + np.sum(self.coeff_sin[k] ** 2)
        )

    def cone_energy(self) -> float:
        m = self.plane.m
        return (self.l2_total + self.grad_sq) / m

    def h_energy(self) -> float:
        m = self.plane.m
        return (4.0 * self.l2_centered + self.grad_sq) / (m + 2)


def _trace_cone_over(
    curve: np.ndarray, plane: OrientedPlane, perp: np.ndarray, n_samples: int, iters: int = 80
) -> np.ndarray:
    """Trace of the cone over a closed PL curve as a graph over ``plane``.

    For each target direction the crossing segment is bracketed by the
    angles of the projected curve and the exact fiber point is found by
    bisection; non-injective projections (non-monotone angles) abort.
    """
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
        return _trace_cone_over(curve, OrientedPlane(f, plane.orientation), perp, n_samples, iters)
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
        base_lift = cum[j]
        k = round((base_lift + t * d[j] - raw) / (2 * math.pi))
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


def trace_and_split(
    curve: np.ndarray,
    plane: OrientedPlane,
    cutoff: int = 16,
    n_samples: int | None = None,
    tail_tol: float = 0.01,
) -> BoundaryTrace:
    """Trace the mollified cone over ``plane`` and split into harmonics.

    ``curve`` holds the cone's generating points at unit base radius (for
    m = 1 its two points).  Asserts that the tail energy beyond the
    cutoff stays below ``tail_tol`` of the total.
    """
    perp = plane.perp_frame()
    if plane.m == 1:
        proj = curve @ plane.frame.T  # (2, 1)
        if proj[0, 0] * proj[1, 0] >= 0:
            raise StageError("trace", "curve does not straddle the base line")
        order = np.argsort(proj[:, 0])
        pts = curve[order]
        samples = np.array(
            [perp @ (pts[0] / abs(proj[order[0], 0])), perp @ (pts[1] / abs(proj[order[1], 0]))]
        )
        w0 = samples.mean(axis=0)
        w1 = 0.5 * (samples[1] - samples[0])
        l2_total = float(np.sum(samples**2))
        l2_centered = float(np.sum((samples - w0) ** 2))
        return BoundaryTrace(
            plane,
            perp,
            np.array([-1.0, 1.0]),
            samples,
            w0,
            np.zeros((2, perp.shape[0])),
            np.zeros((2, perp.shape[0])),
            l2_total,
            l2_centered,
            0.0,
            0.0,
            float(np.linalg.norm(w1)),
        )
    if n_samples is None:
        n_samples = max(len(curve), 4 * cutoff)
    samples = _trace_cone_over(curve, plane, perp, n_samples)
    N = n_samples
    X = np.fft.rfft(samples, axis=0)
    w0 = np.real(X[0]) / N
    kmax = min(cutoff, X.shape[0] - 1)
    coeff_cos = np.zeros((cutoff + 1, perp.shape[0]))
    coeff_sin = np.zeros((cutoff + 1, perp.shape[0]))
    for k in range(1, kmax + 1):
        coeff_cos[k] = 2.0 * np.real(X[k]) / N
        coeff_sin[k] = -2.0 * np.imag(X[k]) / N
    l2_trapz = 2 * math.pi * float(np.mean(np.sum(samples**2, axis=1)))
    l2_centered = math.pi * float(np.sum(coeff_cos[1:] ** 2) + np.sum(coeff_sin[1:] ** 2))
    l2_total = 2 * math.pi * float(w0 @ w0) + l2_centered
    tail = max(0.0, l2_trapz - l2_total)
    ks = np.arange(cutoff + 1)[:, None]
    grad_sq = math.pi * float(np.sum(ks**2 * (coeff_cos**2 + coeff_sin**2)))
    if tail > tail_tol * l2_trapz + 1e-24:
        raise StageError(
            "trace", f"harmonic cutoff too small: tail share {tail / max(l2_trapz, 1e-300):.3g}"
        )
    w1_mat = np.stack([coeff_cos[1], coeff_sin[1]])  # (2, n-m)
    w1_sup = float(np.linalg.svd(w1_mat, compute_uv=False)[0])
    return BoundaryTrace(
        plane,
        perp,
        2 * math.pi * np.arange(N) / N,
        samples,
        w0,
        coeff_cos,
        coeff_sin,
        l2_total,
        l2_centered,
        grad_sq,
        tail / max(l2_trapz, 1e-300),
        w1_sup,
    )


@dataclass
class Degree2Extension:
    """The degree-2 homogeneous extension ``h(t x) = w0 + t^2 (w(x) - w0)``.

    Energies come from the closed forms in harmonic coordinates: each
    mode of frequency k carries spherical gradient energy
    ``k (m + k - 2)`` per unit of boundary L2 mass.
    """

    trace: BoundaryTrace
    h_energy: float
    cone_energy: float

    def eval(self, coords: np.ndarray) -> np.ndarray:
        """Evaluate at in-plane coordinates of the unit ball of W."""
        tr = self.trace
        x = np.asarray(coords, dtype=float)
        t = float(np.linalg.norm(x))
        if t < 1e-300:
            return tr.w0.copy()
        if tr.plane.m == 1:
            wb = tr.samples[1] if x[0] > 0 else tr.samples[0]
        else:
            a = math.atan2(x[1], x[0]) % (2 * math.pi)
            N = len(tr.samples)
            pos = a / (2 * math.pi) * N
            j = int(math.floor(pos)) % N
            frac = pos - math.floor(pos)
            wb = (1 - frac) * tr.samples[j] + frac * tr.samples[(j + 1) % N]
        return tr.w0 + t * t * (wb - tr.w0)


def degree2_extension(trace: BoundaryTrace) -> Degree2Extension:
    return Degree2Extension(trace, trace.h_energy(), trace.cone_energy())


def circle_gradient_energy_ratio(samples: np.ndarray) -> float:
    """``int |D_S w|^2 / int w^2`` on the circle from uniform samples.

    Spectral differentiation, exact for trigonometric polynomials below
    the Nyquist frequency; for a pure frequency-k mode the ratio is
    ``k^2 = k (m + k - 2)`` with m = 2.
    """
    w = np.asarray(samples, dtype=float)
    N = len(w)
    X = np.fft.rfft(w)
    ks = np.arange(len(X))
    deriv_sq = np.abs(1j * ks * X) ** 2
    val_sq = np.abs(X) ** 2
    # Parseval with rfft conventions: double the interior bins
    scale = np.ones(len(X))
    scale[1:] = 2.0
    if N % 2 == 0:
        scale[-1] = 1.0
    num = float(np.sum(scale * deriv_sq))
    den = float(np.sum(scale * val_sq))
    return num / den


def mollified_unit_curve(P: PolyChain, base: OrientedPlane, rho: float | None = None,
                         nodes: int = 64):
    """Decompose, average and mollify a cone over ``base``; return the
    generating curve of the mollified cone at unit base radius together
    with the decomposition and the mollified graph."""
    base = _align_to_chain(base, P)
    decomp = decompose_layers(P, base, radius=1.0)
    angles = _layer_ray_angles(decomp)
    avg = averaged_graph(decomp)
    if rho is None:
        rho = min(max(height_sup(P, base, radius=1.0), 1e-3), 0.45)
    v = mollified_graph(avg, rho, angles=angles, nodes=nodes)
    return _unit_curve(decomp, v), decomp, v


# -- assembly ----------------------------------------------------------------


@dataclass
class EpiReport:
    """Measurements of one comparison-surface run."""

    m: int
    g0_norm: float
    eps: float
    rho: float
    lambda_theory: float
    exc_P: float
    exc_S: float
    exc_P_zone: float
    exc_S_zone: float
    ratio_zone: float | None
    ratio_full: float | None
    cone_energy: float
    h_energy: float
    energy_ratio: float | None
    w1_sup: float
    plane_drift: float
    boundary_defect: float
    degenerate: bool
    strict_flatness: bool
    notes: list[str] = field(default_factory=list)


def _oriented(tris: np.ndarray, base: OrientedPlane) -> np.ndarray:
    """The triangles (T, 3, n), with the last two vertices swapped where a
    triangle projects onto ``base`` against its orientation."""
    dom = tris @ base.frame.T
    edges = np.stack([dom[:, 1] - dom[:, 0], dom[:, 2] - dom[:, 0]], axis=2)
    flip = np.linalg.det(edges) * base.orientation < 0
    out = tris.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _strip(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Triangulated strip between two closed polylines with equal counts,
    shape (2N, 3, n): two triangles per step, unoriented."""
    inner1 = np.roll(inner, -1, axis=0)
    outer1 = np.roll(outer, -1, axis=0)
    pairs = np.stack(
        [np.stack([inner, outer, outer1], axis=1), np.stack([inner, outer1, inner1], axis=1)],
        axis=1,
    )
    return pairs.reshape(-1, 3, inner.shape[1])


def _clip_to_wedge_annulus(
    layer_A: np.ndarray,
    layer_b: np.ndarray,
    ray_lo: np.ndarray,
    ray_hi: np.ndarray,
    v: MollifiedGraph,
    base: OrientedPlane,
    perp_embed,
    r_in: float,
    r_out: float,
    divisions: int,
) -> np.ndarray:
    """Blend triangles of one cone layer over its wedge, radii [r_in, r_out],
    shape (2 divisions, 3, n), unoriented."""
    radii = np.linspace(r_in, r_out, divisions + 1)
    rows = []
    for r in radii:
        row = []
        for u in (ray_lo, ray_hi):
            x = r * u
            y = layer_A @ x + layer_b
            vv = v.eval(x)
            # blend coefficients 4r-2 and 3-4r on the standard annulus
            wy = 4.0 * r - 2.0
            wv = 3.0 - 4.0 * r
            z = wy * y + wv * vv
            row.append(base.embed(x) + perp_embed(z))
        rows.append(row)
    rows = np.array(rows)  # (divisions + 1, 2, n)
    a0, a1, b0, b1 = rows[:-1, 0], rows[:-1, 1], rows[1:, 0], rows[1:, 1]
    pairs = np.stack([np.stack([a0, b0, b1], axis=1), np.stack([a0, b1, a1], axis=1)], axis=1)
    return pairs.reshape(-1, 3, rows.shape[2])


@dataclass
class AnnulusBlend:
    """The per-layer blend across the annulus and its triangulated chain.

    ``z(i, x) = (4|x| - 2) y^i(x) + (3 - 4|x|) v(x)`` equals the mollified
    graph at the inner radius and the original layer at the outer radius.
    ``mass_blend`` and ``mass_original`` compare the blended chain to the
    input over the same chord annulus (the blend may only exceed by the
    documented slack).
    """

    decomp: LayerDecomposition
    v: MollifiedGraph
    verts: np.ndarray  # (T, 3, n) oriented triangles
    payload: np.ndarray  # (T, width) coefficient payloads
    mass_blend: float
    mass_original: float

    def z(self, layer_index: int, x: np.ndarray) -> np.ndarray:
        ly = self.decomp.layers[layer_index]
        r = float(np.linalg.norm(x))
        return (4.0 * r - 2.0) * ly.height(np.asarray(x, dtype=float)) + (
            3.0 - 4.0 * r
        ) * self.v.eval(x)

    def chain(self, n: int, group) -> PolyChain:
        return PolyChain(n, 2, group, verts=self.verts, payload=self.payload)


def annulus_interpolate(
    decomp: LayerDecomposition,
    v: MollifiedGraph,
    divisions: int = 8,
    r_in: float = 0.5,
    r_out: float = 0.75,
) -> AnnulusBlend:
    """Blend every layer into the mollified graph across the annulus."""
    base = decomp.base
    perp = decomp.perp
    perp_embed = lambda y: y @ perp  # noqa: E731
    tris = []
    rows = []
    weights = []
    mass_orig = 0.0
    for ly in decomp.layers:
        d = ly.domain
        origin_idx = int(np.argmin(np.linalg.norm(d, axis=1)))
        others = [i for i in range(3) if i != origin_idx]
        a0 = math.atan2(d[others[0], 1], d[others[0], 0])
        a1 = math.atan2(d[others[1], 1], d[others[1], 0])
        u0 = np.array([math.cos(a0), math.sin(a0)])
        u1 = np.array([math.cos(a1), math.sin(a1)])
        tris.append(_clip_to_wedge_annulus(ly.A, ly.b, u0, u1, v, base, perp_embed, r_in, r_out, divisions))
        rows.append(coeff_payload(ly.coeff))
        w = group_norm(ly.coeff)
        weights.append(w)
        span = abs((a1 - a0 + math.pi) % (2 * math.pi) - math.pi)
        wedge = 0.5 * (r_out**2 - r_in**2) * math.sin(span)
        mass_orig += w * math.sqrt(1.0 + ly.jacobian_sq()) * wedge
    per_layer = 2 * divisions
    verts = _oriented(np.concatenate(tris), base)
    payload = np.repeat(np.array(rows), per_layer, axis=0)
    # summed term by term, in order
    mass_blend = sum((np.repeat(weights, per_layer) * simplex_volumes(verts)).tolist())
    return AnnulusBlend(decomp, v, verts, payload, mass_blend, mass_orig)


def build_comparison(P: PolyChain, cfg: EpiConfig | None = None, base: OrientedPlane | None = None):
    """Run the full pipeline on a polyhedral cone; returns ``(S, report)``.

    ``base`` overrides the plane selection stage (used by tests that need
    the trace over a prescribed plane).
    """
    cfg = cfg or EpiConfig()
    m = P.m
    if m not in (1, 2):
        raise StageError("select_plane", f"pipeline supports m in {{1, 2}}, got m={m}")
    if m == 1:
        return _build_comparison_m1(P, cfg, base)
    lam = lambda_epi(m)

    # -- stage: plane selection
    if not is_cone(P, tol=1e-9):
        raise StageError("assumptions", "input chain is not a cone through the origin")
    try:
        form = quad_form(P, np.zeros(P.n), 1.0)
        V0, _ = select_plane(form, m)
    except Exception as exc:  # noqa: BLE001
        raise StageError("select_plane", str(exc)) from exc
    V = _polish_plane(P, V0, cfg) if cfg.polish else V0
    V = _align_to_chain(V, P)

    # -- stage: assumptions
    try:
        decomp = decompose_layers(P, V, radius=1.0)
    except (GeneralPositionError, ConstancyError) as exc:
        raise StageError("assumptions", str(exc)) from exc
    if decomp.g0.is_zero:
        raise StageError("assumptions", "projected coefficient g0 vanishes")
    g0n = decomp.g0_norm
    bverts = boundary(P)
    if not bverts.is_zero:
        bv = bverts.vertex_array().reshape(-1, P.n)
        if float(np.min(np.linalg.norm(V.project_coords(bv), axis=1))) <= 2.0:
            raise StageError("assumptions", "boundary enters the doubled cylinder")
    rho_meas = height_sup(P, V, radius=1.0)
    exc_P = cylindrical_excess(decomp, radius=1.0)
    eps_meas = exc_P / g0n
    notes: list[str] = []
    if rho_meas >= cfg.rho_max:
        raise StageError("assumptions", f"height {rho_meas:.3g} >= bound {cfg.rho_max}")
    if eps_meas >= cfg.eps_max:
        raise StageError("assumptions", f"excess {eps_meas:.3g} >= bound {cfg.eps_max}")
    if cfg.strict_flatness and eps_meas > rho_meas ** (6 * m):
        raise StageError("assumptions", "strict flatness eps <= rho^(6m) violated")
    low_coeff = [ly for ly in decomp.layers if group_norm(ly.coeff) < 0.75 * g0n - 1e-12]
    if low_coeff:
        notes.append("a layer coefficient is below (3/4)||g0||; averaged bounds not asserted")

    degenerate = exc_P <= 1e-12 * max(g0n, 1.0)

    # -- stage: average + mollify
    avg = averaged_graph(decomp)
    rho_moll = min(max(rho_meas, 1e-3), 0.45)
    angles = _layer_ray_angles(decomp)
    n_ang = len(angles)
    v = mollified_graph(avg, rho_moll, angles=angles, nodes=cfg.moll_nodes)

    # -- stage: spectral plane off the mollified cone
    curve = _unit_curve(decomp, v)
    Tv = _cone_chain(curve, decomp.g0, P.n, span=1.6)
    try:
        W, _eigs = select_plane(quad_form(Tv, np.zeros(P.n), 1.0), m)
    except Exception as exc:  # noqa: BLE001
        raise StageError("spectral", str(exc)) from exc
    # the top eigenvalues of an isotropic form agree to rounding, so eigh
    # fixes no in-plane basis: pin W's frame to V's projection onto it
    W = OrientedPlane.from_span(V.frame @ W.projector())
    drift = plane_distance(W, V)

    # -- stage: trace + split
    trace = trace_and_split(
        curve, W, cutoff=cfg.harmonic_cutoff, n_samples=n_ang, tail_tol=cfg.tail_tol
    )

    # -- stage: assemble S
    S_chain, P_inside, s_parts = _assemble(P, decomp, v, trace, cfg)
    defect_chain = merge_terms(boundary(s_parts - P_inside))
    defect = _residual_defect_mass(defect_chain)
    mP = mass(P)
    if defect > cfg.boundary_defect_tol * mP:
        raise StageError("assemble", f"boundary defect {defect:.3g} exceeds {cfg.boundary_defect_tol} * mass(P)")

    # -- measurements
    zone_poly = 0.25 * np.stack(
        [np.cos(trace.angles), np.sin(trace.angles)], axis=1
    )
    try:
        exc_S = _excess_over(S_chain, V, decomp.g0, radius=1.0)
        exc_P_zone = _excess_over_polygon(P, W, decomp.g0, zone_poly)
        exc_S_zone = _excess_over_polygon(S_chain, W, decomp.g0, zone_poly)
    except GeneralPositionError as exc:
        raise StageError("measure", str(exc)) from exc
    ratio_zone = None if degenerate else exc_S_zone / exc_P_zone
    ratio_full = None if degenerate else exc_S / exc_P
    energy_ratio = None
    if trace.cone_energy() > 1e-14:
        energy_ratio = trace.h_energy() / trace.cone_energy()
    report = EpiReport(
        m=m,
        g0_norm=g0n,
        eps=eps_meas,
        rho=rho_meas,
        lambda_theory=lam,
        exc_P=exc_P,
        exc_S=exc_S,
        exc_P_zone=exc_P_zone,
        exc_S_zone=exc_S_zone,
        ratio_zone=ratio_zone,
        ratio_full=ratio_full,
        cone_energy=trace.cone_energy(),
        h_energy=trace.h_energy(),
        energy_ratio=energy_ratio,
        w1_sup=trace.w1_sup,
        plane_drift=drift,
        boundary_defect=defect,
        degenerate=degenerate,
        strict_flatness=cfg.strict_flatness,
        notes=notes,
    )
    return S_chain, report


# -- helpers -----------------------------------------------------------------


def _layer_ray_angles(decomp: LayerDecomposition) -> np.ndarray:
    # dedup by a rounded key but keep the raw atan2 floats: the assembly
    # recomputes the same atan2 from the same vertices, so raw values make
    # interface nodes bitwise reproducible
    angles: dict[float, float] = {}
    for ly in decomp.layers:
        d = ly.domain
        origin_idx = int(np.argmin(np.linalg.norm(d, axis=1)))
        for i in range(3):
            if i != origin_idx:
                raw = math.atan2(d[i, 1], d[i, 0]) % (2 * math.pi)
                angles.setdefault(round(raw, 12), raw)
    out = sorted(angles.values())
    # merge rays closer than 1e-9 (closing vertices of a fan may duplicate
    # the first ray at rounding distance), including the wraparound pair
    kept = [out[0]]
    for a in out[1:]:
        if a - kept[-1] > 1e-9:
            kept.append(a)
    if len(kept) > 1 and kept[0] + 2 * math.pi - kept[-1] <= 1e-9:
        kept.pop()
    return np.array(kept)


def _unit_curve(decomp: LayerDecomposition, v: MollifiedGraph) -> np.ndarray:
    """Points of the mollified graph at unit base radius, one per ray angle."""
    base = decomp.base
    perp = decomp.perp
    pts = []
    for a in v.angles:
        u = np.array([math.cos(a), math.sin(a)])
        pts.append(base.embed(u) + v.eval_unit(a) @ perp)
    return np.array(pts)


def _cone_chain(curve: np.ndarray, g0: NormedCoefficient, n: int, span: float) -> PolyChain:
    N = len(curve)
    vtx = np.zeros((N, 3, n))
    vtx[:, 1] = span * curve
    vtx[:, 2] = span * np.roll(curve, -1, axis=0)
    return PolyChain(n, 2, g0.spec, verts=vtx, payload=np.tile(coeff_payload(g0), (N, 1)))


def _split_by_polygon_cylinder(
    chain: PolyChain, base: OrientedPlane, poly: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Split terms into (inside, outside) pieces of the polygon cylinder;
    exact.  Each side is ``(verts (K, m+1, n), src (K,))``: the pieces and
    the index of the term each comes from."""
    from .chains import _clip_simplex_halfspace  # internal, orientation-safe

    k = len(poly)
    centroid = poly.mean(axis=0)
    normals = []
    offsets = []
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        t = q - p
        nrm2 = np.array([-t[1], t[0]])
        if (centroid - p) @ nrm2 < 0:
            nrm2 = -nrm2
        nrm2 = nrm2 / np.linalg.norm(nrm2)
        normals.append(base.embed(nrm2))
        offsets.append(float(nrm2 @ p))
    poly_ang, arcs = _polygon_arcs(poly)
    lo, hi = _angular_windows(chain.vertex_array() @ base.frame.T)
    inside, in_src = [], []
    outside, out_src = [], []
    for j, tri in enumerate(chain.verts):
        stack = [tri]
        for e in _edges_in_window(poly_ang, arcs, lo[j], hi[j]):
            nxt = []
            for verts in stack:
                nxt.extend(_clip_simplex_halfspace(verts, normals[e], offsets[e]))
                pieces = _clip_simplex_halfspace(verts, -normals[e], -offsets[e])
                outside.extend(pieces)
                out_src.extend([j] * len(pieces))
            stack = nxt
        inside.extend(stack)
        in_src.extend([j] * len(stack))
    shape = (-1,) + chain.verts.shape[1:]
    return (
        (np.array(inside).reshape(shape), np.array(in_src, dtype=np.int64)),
        (np.array(outside).reshape(shape), np.array(out_src, dtype=np.int64)),
    )


def _assemble(
    P: PolyChain,
    decomp: LayerDecomposition,
    v: MollifiedGraph,
    trace: BoundaryTrace,
    cfg: EpiConfig,
):
    """Assemble the comparison surface and the matching inner part of P."""
    base = decomp.base
    perp = decomp.perp
    W = trace.plane

    # inner interface: quarter-scaled traced points (exactly on the cone of v)
    Wperp = trace.perp
    curve_pts = []
    for l, a in enumerate(trace.angles):
        uW = W.embed(np.array([math.cos(a), math.sin(a)]))
        curve_pts.append(uW + trace.samples[l] @ Wperp)
    curve_pts = np.array(curve_pts)
    inner_poly = 0.25 * curve_pts

    # (a) degree-2 graph over the quarter polygon of W
    Q = cfg.radial_divisions
    rings = []
    for q in range(1, Q):
        t = 0.25 * q / Q
        ring = []
        for l, a in enumerate(trace.angles):
            x2 = t * np.array([math.cos(a), math.sin(a)])
            # h4(x) = w0/4 + 4 t^2 (w - w0) at |x|_W = t
            hval = trace.w0 / 4.0 + 4.0 * t * t * (trace.samples[l] - trace.w0)
            ring.append(W.embed(x2) + hval @ Wperp)
        rings.append(np.array(ring))
    # the outermost ring is the quarter-trace interface itself (h4 = w/4 at
    # t = 1/4), so the interface faces cancel bit for bit
    rings.append(inner_poly)
    center = W.embed(np.zeros(2)) + (trace.w0 / 4.0) @ Wperp
    first = rings[0]
    fan = np.stack([np.broadcast_to(center, first.shape), first, np.roll(first, -1, axis=0)], axis=1)
    strips = [_strip(rings[q], rings[q + 1]) for q in range(Q - 1)]
    h_tris = _oriented(np.concatenate([fan] + strips), base)

    # (b) ring between the quarter interface and the half circle of the blend;
    # pair the polylines by their angles in the common base frame, otherwise
    # the strip twists by the in-plane rotation between the W and V frames
    ray_angles = v.angles
    half_nodes = []
    for a in ray_angles:
        u = 0.5 * np.array([math.cos(a), math.sin(a)])
        half_nodes.append(base.embed(u) + v.eval(u) @ perp)
    half_nodes = np.array(half_nodes)
    inner_base = base.project_coords(inner_poly)
    inner_angles = np.mod(np.arctan2(inner_base[:, 1], inner_base[:, 0]), 2 * math.pi)
    ring_tris = _zip_strip(inner_poly, inner_angles, half_nodes, ray_angles, base)

    # (c) blended annulus per layer over its own wedge
    blend = annulus_interpolate(decomp, v, divisions=cfg.blend_divisions)

    # (d) P outside the 3/4 polygon cylinder
    poly34 = 0.75 * np.stack([np.cos(ray_angles), np.sin(ray_angles)], axis=1)
    (in_verts, in_src), (out_verts, out_src) = _split_by_polygon_cylinder(P, base, poly34)

    g0_rows = np.tile(coeff_payload(decomp.g0), (len(h_tris) + len(ring_tris), 1))
    parts_verts = np.concatenate([h_tris, ring_tris, blend.verts])
    parts_payload = np.concatenate([g0_rows, blend.payload])
    S_chain = P.with_arrays(
        np.concatenate([parts_verts, out_verts]), np.concatenate([parts_payload, P.payload[out_src]])
    )
    P_inside = P.with_arrays(in_verts, P.payload[in_src])
    s_parts = P.with_arrays(parts_verts, parts_payload)
    return S_chain, P_inside, s_parts


def _zip_strip(
    inner: np.ndarray,
    inner_angles: np.ndarray,
    outer: np.ndarray,
    outer_angles: np.ndarray,
    base: OrientedPlane,
) -> np.ndarray:
    """Strip triangulation between two closed polylines, advancing by angle."""
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
    return _oriented(pts[np.array(idx)], base)


def _graph_stats(chain: PolyChain, base: OrientedPlane):
    """Projected domains and Jacobians of a graph chain over ``base``.

    Returns (domains (T,3,2), jac_factor (T,) = sqrt(1+|grad|^2), weights),
    vectorized in codimension one and read off the generic layer
    decomposition in codimension >= 2.
    """
    tris = chain.vertex_array()  # (T, 3, n)
    dom = tris @ base.frame.T  # (T, 3, 2)
    e1 = dom[:, 1] - dom[:, 0]
    e2 = dom[:, 2] - dom[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(det * base.orientation <= 0):
        raise GeneralPositionError("a simplex projects degenerately or reversed")
    perp = base.perp_frame()
    if perp.shape[0] != 1:
        layers = decompose_layers(chain, base, check_constancy=False).layers
        jac = np.sqrt(1.0 + np.array([ly.jacobian_sq() for ly in layers]))
        return dom, jac, chain.coeff_norms()
    h = tris @ perp[0]  # (T, 3)
    h1 = h[:, 1] - h[:, 0]
    h2 = h[:, 2] - h[:, 0]
    # gradient of the affine height over the domain via the 2x2 inverse
    gx = (h1 * e2[:, 1] - h2 * e1[:, 1]) / det
    gy = (-h1 * e2[:, 0] + h2 * e1[:, 0]) / det
    jac = np.sqrt(1.0 + gx * gx + gy * gy)
    return dom, jac, chain.coeff_norms()


def _excess_over(chain: PolyChain, base: OrientedPlane, g0, radius: float) -> float:
    base = _align_to_chain(base, chain)
    dom, jac, w = _graph_stats(chain, base)
    rmin = np.min(np.linalg.norm(dom, axis=2), axis=1)
    rmax = np.max(np.linalg.norm(dom, axis=2), axis=1)
    areas = 0.5 * np.abs(
        (dom[:, 1, 0] - dom[:, 0, 0]) * (dom[:, 2, 1] - dom[:, 0, 1])
        - (dom[:, 1, 1] - dom[:, 0, 1]) * (dom[:, 2, 0] - dom[:, 0, 0])
    )
    # triangles the circle cuts, clipped in one batched pass
    cut = (rmin < radius) & (rmax > radius)
    areas[cut] = np.abs(disk_polygon_areas(dom[cut], np.zeros(2), radius))
    inside = rmin < radius
    total = float(np.sum(w[inside] * jac[inside] * areas[inside]))
    return total - group_norm(g0) * math.pi * radius * radius


def _excess_over_polygon(chain: PolyChain, base: OrientedPlane, g0, poly: np.ndarray) -> float:
    """Excess over the cylinder of a convex polygon region in base coords.

    Clips each projected domain only against the polygon edges whose arcs
    meet its angular window (see :func:`_edges_in_window`).
    """
    base = _align_to_chain(base, chain)
    dom, jac, w = _graph_stats(chain, base)
    k = len(poly)
    poly_ang, arcs = _polygon_arcs(poly)
    # inward edge normals, oriented towards the origin
    tangent = np.roll(poly, -1, axis=0) - poly
    inward = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    flip = (0.0 - poly[:, 0]) * inward[:, 0] + (0.0 - poly[:, 1]) * inward[:, 1] < 0
    inward[flip] = -inward[flip]
    rad_out = float(np.max(np.linalg.norm(poly, axis=1)))
    rad_in = rad_out * math.cos(math.pi / k)
    rmin = np.min(np.linalg.norm(dom, axis=2), axis=1)
    rmax = np.max(np.linalg.norm(dom, axis=2), axis=1)
    areas = 0.5 * np.abs(
        (dom[:, 1, 0] - dom[:, 0, 0]) * (dom[:, 2, 1] - dom[:, 0, 1])
        - (dom[:, 1, 1] - dom[:, 0, 1]) * (dom[:, 2, 0] - dom[:, 0, 0])
    )
    lo, hi = _angular_windows(dom)
    total = 0.0
    for t in range(len(dom)):
        if rmin[t] >= rad_out - 1e-15:
            continue
        if rmax[t] <= rad_in + 1e-15:
            total += w[t] * jac[t] * areas[t]
            continue
        clipped = [np.array(v, dtype=float) for v in dom[t]]
        for e in _edges_in_window(poly_ang, arcs, lo[t], hi[t]):
            clipped = _clip_halfplane(clipped, poly[e], inward[e])
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
    return float(total - group_norm(g0) * poly_area)


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


def _edges_in_window(poly_ang: np.ndarray, arcs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Indices of the polygon edges whose arcs meet ``[lo, hi]``, with
    1e-9 rad of slack.

    For a convex polygon star-shaped about the origin, a point lies inside
    exactly when it lies in the half-plane of the edge whose arc holds its
    direction; clipping by these edges alone is therefore exact."""
    slack = 1e-9
    starts_in = np.mod(poly_ang - lo, 2 * math.pi) <= (hi - lo) + slack
    covers_lo = np.mod(lo - poly_ang, 2 * math.pi) <= arcs + slack
    return np.flatnonzero(starts_in | covers_lo)


_UNIT_G0 = None  # set lazily: any fixed coefficient makes the polish cost differ by a constant


def _polish_plane(P: PolyChain, V0: OrientedPlane, cfg: EpiConfig) -> OrientedPlane:
    """Nelder-Mead polish of the base plane over the graph chart at V0,
    minimizing the cylindrical excess (a 2-approximate minimizer is all
    the comparison argument needs)."""
    global _UNIT_G0
    if _UNIT_G0 is None or _UNIT_G0.spec != P.group:
        from .groups import zero as _gzero

        _UNIT_G0 = _gzero(P.group)
    m, n = V0.m, V0.n
    perp0 = V0.perp_frame()
    dim = m * (n - m)

    def plane_of(theta: np.ndarray) -> OrientedPlane:
        M = theta.reshape(m, n - m)
        rows = V0.frame + M @ perp0
        return OrientedPlane.from_span(rows)

    def cost(theta: np.ndarray) -> float:
        try:
            pl = plane_of(theta)
            return _excess_over(P, pl, _UNIT_G0, 1.0)
        except (GeneralPositionError, ConstancyError, ValueError):
            return float("inf")

    # tiny hand-rolled Nelder-Mead
    x0 = np.zeros(dim)
    step = 0.05
    simplex = [x0] + [x0 + step * e for e in np.eye(dim)]
    vals = [cost(x) for x in simplex]
    for _ in range(120):
        order = np.argsort(vals)
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[-1] - vals[0] < cfg.polish_tol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = cost(xr)
        if fr < vals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = cost(xe)
            simplex[-1], vals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < vals[-2]:
            simplex[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = cost(xc)
            if fc < vals[-1]:
                simplex[-1], vals[-1] = xc, fc
            else:
                simplex = [simplex[0] + 0.5 * (s - simplex[0]) for s in simplex]
                vals = [cost(x) for x in simplex]
    best = simplex[int(np.argmin(vals))]
    return plane_of(best)


def _residual_defect_mass(chain: PolyChain, tol: float = 1e-9) -> float:
    """Mass of a boundary-defect chain after tolerance-based cancellation.

    Snap-grid face merging can miss pairs that differ by rounding right at
    a grid boundary; pair leftover segments within ``tol`` and cancel
    their coefficients before measuring."""
    from .groups import group_add, group_neg

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


# -- the m = 1 pipeline -------------------------------------------------------


def _interval_excess(chain: PolyChain, base: OrientedPlane, g0, half_width: float) -> float:
    """Exact excess of a segment stack over the base interval [-w, w]."""
    base = _align_to_chain_m1(base, chain)
    total = 0.0
    perp = base.perp_frame()
    for verts, w in zip(chain.verts, chain.coeff_norms()):
        dom = (verts @ base.frame.T)[:, 0]
        lo, hi = min(dom), max(dom)
        overlap = max(0.0, min(hi, half_width) - max(lo, -half_width))
        if overlap <= 0.0:
            continue
        span = hi - lo
        if span < 1e-30:
            raise GeneralPositionError("a segment projects degenerately")
        heights = verts @ perp.T
        slope = np.linalg.norm(heights[1] - heights[0]) / span
        total += float(w) * math.sqrt(1.0 + slope * slope) * overlap
    return total - group_norm(g0) * 2.0 * half_width


def _align_to_chain_m1(base: OrientedPlane, chain: PolyChain) -> OrientedPlane:
    for verts in chain.verts:
        dom = (verts @ base.frame.T)[:, 0]
        det = dom[1] - dom[0]
        if abs(det) < 1e-14:
            continue
        if det * base.orientation < 0:
            return OrientedPlane(-base.frame, base.orientation)
        return base
    return base


def _seg(a: np.ndarray, b: np.ndarray, base: OrientedPlane) -> np.ndarray:
    if (b - a) @ base.frame[0] * base.orientation < 0:
        return np.array([b, a])
    return np.array([a, b])


def _build_comparison_m1(P: PolyChain, cfg: EpiConfig, base: OrientedPlane | None):
    """Two-sided analogue of the assembly: the sphere of the base line is
    the point pair, harmonics reduce to the even/odd split, and every
    piece is a polyline."""
    m, n = 1, P.n
    lam = lambda_epi(m)
    if not is_cone(P, tol=1e-9):
        raise StageError("assumptions", "input chain is not a cone through the origin")
    if base is None:
        try:
            V0, _ = select_plane(quad_form(P, np.zeros(n), 1.0), 1)
        except Exception as exc:  # noqa: BLE001
            raise StageError("select_plane", str(exc)) from exc
    else:
        V0 = base
    V = _align_to_chain_m1(V0, P)
    try:
        decomp = decompose_layers(P, V, radius=1.0)
    except (GeneralPositionError, ConstancyError) as exc:
        raise StageError("assumptions", str(exc)) from exc
    if decomp.g0.is_zero:
        raise StageError("assumptions", "projected coefficient g0 vanishes")
    g0 = decomp.g0
    g0n = decomp.g0_norm
    bd = boundary(P)
    if not bd.is_zero:
        bv = bd.vertex_array().reshape(-1, n)
        if float(np.min(np.abs(bv @ V.frame[0]))) <= 2.0:
            raise StageError("assumptions", "boundary enters the doubled cylinder")
    rho_meas = height_sup(P, V, radius=1.0)
    exc_P = _interval_excess(P, V, g0, 1.0)
    eps_meas = exc_P / g0n
    notes: list[str] = []
    if rho_meas >= cfg.rho_max:
        raise StageError("assumptions", f"height {rho_meas:.3g} >= bound {cfg.rho_max}")
    if eps_meas >= cfg.eps_max:
        raise StageError("assumptions", f"excess {eps_meas:.3g} >= bound {cfg.eps_max}")
    if cfg.strict_flatness and eps_meas > rho_meas ** (6 * m):
        raise StageError("assumptions", "strict flatness eps <= rho^(6m) violated")
    degenerate = exc_P <= 1e-12 * max(g0n, 1.0)

    avg = averaged_graph(decomp)
    rho_moll = min(max(rho_meas, 1e-3), 0.45)
    v = mollified_graph(avg, rho_moll)
    perp = decomp.perp
    curve = np.array(
        [
            -V.frame[0] + v.eval_unit(-1.0) @ perp,
            V.frame[0] + v.eval_unit(1.0) @ perp,
        ]
    )
    Tv = PolyChain(
        n,
        1,
        P.group,
        [(Simplex(_seg(np.zeros(n), 1.6 * q, V)), g0) for q in curve],
    )
    try:
        W, _ = select_plane(quad_form(Tv, np.zeros(n), 1.0), 1)
    except Exception as exc:  # noqa: BLE001
        raise StageError("spectral", str(exc)) from exc
    W = _align_to_chain_m1(align_in_plane_orientation(W, V), P)
    drift = plane_distance(W, V)
    trace = trace_and_split(curve, W, cutoff=cfg.harmonic_cutoff)
    Wperp = trace.perp

    # traced unit points over W and the quarter-scale interface
    proj = curve @ W.frame.T
    pts_W = []
    for q, pr in zip(curve, proj[:, 0]):
        pts_W.append(q / abs(pr))
    pts_W = sorted(pts_W, key=lambda q: float(q @ W.frame[0]))
    inner = [0.25 * q for q in pts_W]

    segs: list[tuple[np.ndarray, object]] = []
    Q = max(cfg.radial_divisions, 2)
    # (a) degree-2 graph over [-1/4, 1/4] of W
    knots = np.linspace(-0.25, 0.25, 2 * Q + 1)
    def h4(t: float) -> np.ndarray:
        wb = trace.samples[1] if t > 0 else trace.samples[0]
        if t == 0.0:
            wb = trace.w0
        return trace.w0 / 4.0 + 4.0 * t * t * (wb - trace.w0)

    nodes_h = [W.embed(np.array([t])) + h4(float(t)) @ Wperp for t in knots]
    nodes_h[0] = inner[0]
    nodes_h[-1] = inner[1]
    for a, b in zip(nodes_h[:-1], nodes_h[1:]):
        segs.append((_seg(a, b, V), g0))
    # (b) ring pieces from the quarter interface to the half points of v
    half = [
        -0.5 * V.frame[0] + v.eval(np.array([-0.5])) @ perp,
        0.5 * V.frame[0] + v.eval(np.array([0.5])) @ perp,
    ]
    segs.append((_seg(half[0], inner[0], V), g0))
    segs.append((_seg(inner[1], half[1], V), g0))
    # (c) blended annulus per layer per side
    div = max(cfg.blend_divisions, 2)
    for ly in decomp.layers:
        lo, hi = sorted((float(ly.domain[0, 0]), float(ly.domain[1, 0])))
        side = 1.0 if hi > 0.75 else -1.0
        rr = np.linspace(0.5, 0.75, div + 1)
        pts = []
        for r in rr:
            x = np.array([side * r])
            z = (4.0 * r - 2.0) * ly.height(x) + (3.0 - 4.0 * r) * v.eval(x)
            pts.append(V.embed(x) + z @ perp)
        for a, b in zip(pts[:-1], pts[1:]):
            segs.append((_seg(a, b, V), ly.coeff))
    # (d) P outside the 3/4 interval
    inside_terms = []
    outside = []
    axis = V.frame[0]
    for simplex, c in P.terms:
        stack = [simplex.vertices]
        for sgn in (1.0, -1.0):
            nxt = []
            for verts in stack:
                for piece in _clip_one(verts, sgn * axis, -0.75):
                    nxt.append(piece)
                for piece in _clip_one(verts, -sgn * axis, 0.75):
                    outside.append((piece, c))
            stack = nxt
        for verts in stack:
            inside_terms.append((verts, c))
    # the two-sided clip above assigns {|x_V| <= 3/4} to inside; rebuild
    s_parts = PolyChain(n, 1, P.group, [(Simplex(t), c) for t, c in segs])
    S_chain = PolyChain(
        n, 1, P.group, [(Simplex(t), c) for t, c in segs] + [(Simplex(t), c) for t, c in outside]
    )
    P_inside = PolyChain(n, 1, P.group, [(Simplex(t), c) for t, c in inside_terms])
    defect = _residual_defect_mass(merge_terms(boundary(s_parts - P_inside)))
    mP = mass(P)
    if defect > cfg.boundary_defect_tol * mP:
        raise StageError("assemble", f"boundary defect {defect:.3g} exceeds {cfg.boundary_defect_tol} * mass(P)")

    exc_S = _interval_excess(S_chain, V, g0, 1.0)
    exc_P_zone = _interval_excess(P, W, g0, 0.25)
    exc_S_zone = _interval_excess(S_chain, W, g0, 0.25)
    ratio_zone = None if degenerate else exc_S_zone / exc_P_zone
    ratio_full = None if degenerate else exc_S / exc_P
    energy_ratio = None
    if trace.cone_energy() > 1e-14:
        energy_ratio = trace.h_energy() / trace.cone_energy()
    report = EpiReport(
        m=m,
        g0_norm=g0n,
        eps=eps_meas,
        rho=rho_meas,
        lambda_theory=lam,
        exc_P=exc_P,
        exc_S=exc_S,
        exc_P_zone=exc_P_zone,
        exc_S_zone=exc_S_zone,
        ratio_zone=ratio_zone,
        ratio_full=ratio_full,
        cone_energy=trace.cone_energy(),
        h_energy=trace.h_energy(),
        energy_ratio=energy_ratio,
        w1_sup=trace.w1_sup,
        plane_drift=drift,
        boundary_defect=defect,
        degenerate=degenerate,
        strict_flatness=cfg.strict_flatness,
        notes=notes,
    )
    return S_chain, report


def _clip_one(verts: np.ndarray, normal: np.ndarray, offset: float):
    from .chains import _clip_simplex_halfspace

    return _clip_simplex_halfspace(verts, normal, offset)
