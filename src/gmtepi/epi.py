"""Comparison-surface pipeline for near-flat polyhedral cones.

From a 1-homogeneous m-cone ``P`` (m = 1 or 2) in general position over a
base plane the pipeline builds the competitor ``S`` in the same stages in
both dimensions:

1. pick the base plane ``V`` spectrally, from the second-moment form,
2. decompose into affine graph layers and average them by coefficient
   norm,
3. mollify the average by ball means (radius proportional to the height
   bound), keeping 1-homogeneity,
4. blend the layers into the mollified graph across the annulus
   ``1/2 <= |x| <= 3/4``,
5. re-select the plane ``W`` spectrally from the mollified cone, so the
   boundary trace loses its linear part (its frame is the projection of
   the base plane's),
6. trace the mollified cone over ``W`` and split the trace into circle
   harmonics (m = 2) or its even and odd parts (m = 1),
7. extend the trace from the boundary by the degree-2 homogeneous map
   ``h(t x) = w0 + t^2 (w(x) - w0)``,
8. replace the cone inside the ``W``-cylinder of radius 1/4 by the graph
   of the rescaled extension and reuse the blended chain outside.

The unit sphere of the base is a closed polygon of ray directions for
m = 2 and the two sides ``-1, 1`` of the base line for m = 1.  Only the
ray directions, the assembly of the pieces and the zone region depend on
m.

The emitted report carries the measured excess-reduction ratio on the
replacement zone (whose small-amplitude limit is the per-mode energy
factor ``2m/(2m+1)``), the assembled full-cylinder ratio, both compared
against the theoretical contraction ``lambda = (2m+1-4^{-m-1})/(2m+1)``,
plus Dirichlet energies, the linear-mode residual, plane drift, and the
boundary-preservation defect.  Every excess comes from one layer
decomposition per (chain, plane) pair.  Pipelines abort with a
stage-tagged error when a stage's preconditions fail.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    PolyChain,
    _accumulate,
    _check_vertices,
    _dists,
    _fan_split,
    _gram_dets,
    _payload_norms,
    boundary,
    coeff_payload,
    is_cone,
    mass,
)
from .groups import NormedCoefficient, group_norm
from .layers import (
    _CHUNK,
    ConstancyError,
    GeneralPositionError,
    LayerDecomposition,
    _angular_windows,
    _clip_to_cylinder,
    _cylinder_facets,
    _inward_normals,
    _meeting_arcs,
    _padded_columns,
    _polygon_arcs,
    align_base_to_chain,
    cylindrical_excess,
    decompose_layers,
    height_sup,
)
from .mono import lambda_epi
from .moments import quad_form, select_plane
from .planes import OrientedPlane, plane_distance
from .quadrature import _rowdot, gauss_segment, gram_volumes

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
    "EpiReport",
    "build_comparison",
    "circle_gradient_energy_ratio",
]


class StageError(RuntimeError):
    """Pipeline failure carrying the stage where a precondition broke.

    A gate that compares a measured value to a bound also carries both as
    ``measured`` and ``bound`` (None for the other failures)."""

    def __init__(self, stage: str, message: str, measured: float | None = None,
                 bound: float | None = None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.measured = measured
        self.bound = bound


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
        domains = decomp.domains
        self._A = decomp.A  # (L, n-m, m)
        self._b = decomp.b  # (L, n-m)
        self._w = decomp.weights
        if decomp.m == 1:
            self._lo = domains[:, :, 0].min(axis=1)
            self._hi = domains[:, :, 0].max(axis=1)
            return
        # unit inward normals and offsets of the three edges of each domain
        nrm = _inward_normals(domains, domains.mean(axis=1))
        self._normals = nrm / np.sqrt(_rowdot(nrm, nrm))[..., None]  # (L, 3, 2)
        self._offsets = _rowdot(self._normals, domains)  # (L, 3)

    def _masks(self, xs: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        """(..., k, C): which of the layers ``idx`` (..., C) (default: all)
        hold each point of ``xs`` (..., k, m), within ``tol``."""
        if idx is None:
            idx = np.arange(len(self._w))
        if self.decomp.m == 1:
            x = xs[..., None, 0]
            lo, hi = self._lo[idx][..., None, :], self._hi[idx][..., None, :]
            return (lo - self.tol <= x) & (x <= hi + self.tol)
        nrm = self._normals[idx][..., None, :, :, :]
        x, y = xs[..., None, None, 0], xs[..., None, None, 1]
        ok = nrm[..., 0] * x + nrm[..., 1] * y - self._offsets[idx][..., None, :, :] >= -self.tol
        return ok[..., 0] & ok[..., 1] & ok[..., 2]

    def _means(self, xs: np.ndarray, idx: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Averaged values (G, k, n-m) at point groups ``xs`` (G, k, m), each
        group over its own layers ``idx`` (G, C) where ``valid`` (G, C)
        holds; a point no such layer covers raises."""
        mask = self._masks(xs, idx) & valid[:, None]
        holes = ~mask.any(axis=2)
        if holes.any():
            raise ConstancyError(f"no layer covers base point {xs[holes][0]}")
        w = mask * self._w[idx][:, None]  # (G, k, C)
        A = self._A[idx][:, None]
        heights = self._b[idx][:, None] + sum(A[..., i] * xs[:, :, None, None, i] for i in range(xs.shape[2]))
        return (w[..., None] * heights).sum(axis=2) / w.sum(axis=2)[..., None]

    def eval(self, x: np.ndarray) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float)[None])[0]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        every = np.arange(len(self._w))[None]
        return self._means(np.asarray(xs, dtype=float)[None], every, np.ones(every.shape, bool))[0]


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

    def unit_values(self, angles_or_sides: np.ndarray) -> np.ndarray:
        """Values (k, n-m) at unit base radius: linear in angle between the
        samples for m = 2, the sample of the side for m = 1."""
        a = np.asarray(angles_or_sides, dtype=float)
        if self.base.m == 1:
            return self.values[(a >= 0).astype(np.int64)]
        a = np.mod(a, 2 * math.pi)
        idx = np.searchsorted(self.angles, a) % len(self.angles)
        a0 = self.angles[idx - 1]
        span = np.mod(self.angles[idx] - a0, 2 * math.pi)
        wide = span > 1e-15
        t = np.where(wide, np.mod(a - a0, 2 * math.pi) / np.where(wide, span, 1.0), 0.0)
        return (1 - t)[:, None] * self.values[idx - 1] + t[:, None] * self.values[idx]

    def eval_unit(self, angle_or_side: float) -> np.ndarray:
        return self.unit_values(np.array([angle_or_side]))[0]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Values at base points (k, m) -> (k, n-m), by homogeneity."""
        xs = np.asarray(xs, dtype=float)
        # np.linalg.norm of each point, bit for bit (one dot product per row)
        r = np.sqrt((xs[:, None, :] @ xs[:, :, None])[:, 0, 0])
        if self.base.m == 1:
            unit = self.unit_values(xs[:, 0])
        else:
            # math.atan2 like the sample angles: numpy's vectorised arctan2
            # rounds differently
            unit = self.unit_values(np.array([math.atan2(y, x) for x, y in xs.tolist()]))
        return np.where(r[:, None] < 1e-300, 0.0, r[:, None] * unit)

    def eval(self, x: np.ndarray) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float)[None])[0]

    def sup_unit(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1)))


def _disk_mean_rule(radius: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Node offsets (P, 2) and weights (P,) of the normalized mean over a
    disk of the given radius (m = 2)."""
    n_rad = max(2, int(round(math.sqrt(count / 8))) * 2)
    n_ang = max(4, count // n_rad)
    s_nodes, s_w = gauss_segment()
    # substitute s = (r/R)^2 so uniform s-weights integrate the area measure
    rads = radius * np.sqrt(s_nodes)
    angs = 2 * math.pi * (np.arange(n_ang) + 0.5) / n_ang
    dirs = np.array([[math.cos(a), math.sin(a)] for a in angs])
    return (rads[:, None, None] * dirs).reshape(-1, 2), np.repeat(s_w, n_ang) / n_ang


def mollified_graph(
    avg: AveragedGraph,
    rho: float,
    angles: np.ndarray | None = None,
    nodes: int = 64,
) -> MollifiedGraph:
    """Ball-mean mollification ``v`` of ``ybar`` at mollifying radius rho.

    Exact for affine inputs (the mean of an affine map over a centered
    ball is its center value); asserts the admissibility bound
    ``|v| <= 2 rho`` on the sampled sphere.  For m = 2 the ball about the
    unit point at angle a only meets the layers whose angular windows meet
    ``a -+ asin(rho)``, so each mean runs over those alone.
    """
    if not 0 < rho < 0.5:
        raise ValueError("mollifying radius must lie in (0, 1/2)")
    base = avg.decomp.base
    L = len(avg._w)
    if base.m == 1:
        angles = np.array([-1.0, 1.0])  # the sides
        centers = angles[:, None]
        s_nodes, s_w = gauss_segment()
        offsets, w = (rho * (2 * s_nodes - 1.0))[:, None], s_w / s_w.sum()
        # every layer may hold a node: full-circle windows
        lo, hi, reach = np.zeros(L), np.full(L, 2 * math.pi), 0.0
    else:
        if angles is None:
            angles = 2 * math.pi * np.arange(256) / 256
        angles = np.asarray(angles, dtype=float)
        centers = np.array([[math.cos(a), math.sin(a)] for a in angles.tolist()])
        offsets, w = _disk_mean_rule(rho, nodes)
        lo, hi = _angular_windows(avg.decomp.domains)
        reach = math.asin(rho) + 1e-6  # beyond the windows' own 1e-9 rad of slack
    vals = np.zeros((len(angles), avg.decomp.perp.shape[0]))
    # chunks of angles bound the stacked means
    step = max(1, _CHUNK // L)
    for c in range(0, len(angles), step):
        a = angles[c : c + step]
        idx, valid = _padded_columns(*_meeting_arcs(lo, hi - lo, a - reach, a + reach), len(a))
        vals[c : c + step] = w @ avg._means(centers[c : c + step, None] + offsets, idx, valid)
    out = MollifiedGraph(base, angles, vals, rho)
    if out.sup_unit() > 2.0 * rho + 1e-12:
        raise StageError("mollify", f"|v| = {out.sup_unit():.3g} exceeds 2 rho = {2 * rho:.3g}",
                         out.sup_unit(), 2.0 * rho)
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
    curve: np.ndarray, plane: OrientedPlane, perp: np.ndarray, n_samples: int
) -> np.ndarray:
    """Trace of the cone over a closed PL curve as a graph over ``plane``,
    at ``n_samples`` uniform directions of the plane.

    The cone over the segment from curve point a to b is linear on its
    wedge, so over the unit direction u it passes through ``alpha a +
    beta b`` with ``[x_a x_b] (alpha, beta)^T = u`` (x the projections
    onto ``plane``).  The segment of each direction is bracketed by the
    unwrapped angles of the projected curve; a winding that is not
    counterclockwise and monotone (a non-injective projection) aborts.
    """
    proj = curve @ plane.frame.T  # (N, 2)
    ang = np.mod(np.arctan2(proj[:, 1], proj[:, 0]), 2 * math.pi)
    d = np.mod(np.diff(np.concatenate([ang, ang[:1]])), 2 * math.pi)
    if np.any(d <= 0) or abs(d.sum() - 2 * math.pi) > 1e-9:
        raise StageError("trace", "projected curve winds non-monotonically; re-graphing not injective")
    N = len(curve)
    targets = 2 * math.pi * np.arange(n_samples) / n_samples
    cum = np.concatenate([[0.0], np.cumsum(d)])  # unwrapped angle along curve
    rel = np.mod(targets - ang[0], 2 * math.pi)
    j = np.clip(np.searchsorted(cum, rel, side="right") - 1, 0, N - 1)
    xa, xb = proj[j], proj[(j + 1) % N]
    ux, uy = np.cos(targets), np.sin(targets)
    det = xa[:, 0] * xb[:, 1] - xa[:, 1] * xb[:, 0]
    alpha = (ux * xb[:, 1] - uy * xb[:, 0]) / det
    beta = (xa[:, 0] * uy - xa[:, 1] * ux) / det
    y = curve @ perp.T
    return alpha[:, None] * y[j] + beta[:, None] * y[(j + 1) % N]


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
    cutoff stays below ``tail_tol`` of the total.  An m = 2 curve winding
    clockwise in ``plane`` is traced over, and recorded with, the plane
    whose last frame row is negated.
    """
    if plane.m == 2:
        proj = curve @ plane.frame.T
        nxt = np.roll(proj, -1, axis=0)
        signed = np.arctan2(proj[:, 0] * nxt[:, 1] - proj[:, 1] * nxt[:, 0], np.einsum("ij,ij->i", proj, nxt))
        if np.all(signed < 0) and abs(signed.sum() + 2 * math.pi) < 1e-9:
            plane = OrientedPlane(plane.frame * np.array([[1.0], [-1.0]]), plane.orientation)
    perp = plane.perp_frame()
    if plane.m == 1:
        proj = curve @ plane.frame.T  # (2, 1)
        if proj[0, 0] * proj[1, 0] >= 0:
            raise StageError("trace", "curve does not straddle the base line")
        order = np.argsort(proj[:, 0])
        pts = curve[order]
        samples = np.array([perp @ (pts[i] / abs(proj[order[i], 0])) for i in (0, 1)])
        w0 = samples.mean(axis=0)
        w1 = 0.5 * (samples[1] - samples[0])
        l2_total = float(np.sum(samples**2))
        l2_centered = float(np.sum((samples - w0) ** 2))
        no_modes = np.zeros((2, perp.shape[0]))
        return BoundaryTrace(plane, perp, np.array([-1.0, 1.0]), samples, w0, no_modes, no_modes.copy(),
                             l2_total, l2_centered, 0.0, 0.0, float(np.linalg.norm(w1)))
    if n_samples is None:
        n_samples = max(len(curve), 4 * cutoff)
    samples = _trace_cone_over(curve, plane, perp, n_samples)
    N = n_samples
    X = np.fft.rfft(samples, axis=0)
    w0 = np.real(X[0]) / N
    kmax = min(cutoff, X.shape[0] - 1)
    coeff_cos = np.zeros((cutoff + 1, perp.shape[0]))
    coeff_sin = np.zeros((cutoff + 1, perp.shape[0]))
    coeff_cos[1 : kmax + 1] = 2.0 * np.real(X[1 : kmax + 1]) / N
    coeff_sin[1 : kmax + 1] = -2.0 * np.imag(X[1 : kmax + 1]) / N
    l2_trapz = 2 * math.pi * float(np.mean(np.sum(samples**2, axis=1)))
    l2_centered = math.pi * float(np.sum(coeff_cos[1:] ** 2) + np.sum(coeff_sin[1:] ** 2))
    l2_total = 2 * math.pi * float(w0 @ w0) + l2_centered
    tail = max(0.0, l2_trapz - l2_total)
    ks = np.arange(cutoff + 1)[:, None]
    grad_sq = math.pi * float(np.sum(ks**2 * (coeff_cos**2 + coeff_sin**2)))
    tail_share = tail / max(l2_trapz, 1e-300)
    if tail > tail_tol * l2_trapz + 1e-24:
        raise StageError("trace", f"harmonic cutoff too small: tail share {tail_share:.3g}",
                         tail_share, tail_tol)
    w1_mat = np.stack([coeff_cos[1], coeff_sin[1]])  # (2, n-m)
    w1_sup = float(np.linalg.svd(w1_mat, compute_uv=False)[0])
    return BoundaryTrace(plane, perp, 2 * math.pi * np.arange(N) / N, samples, w0, coeff_cos, coeff_sin,
                         l2_total, l2_centered, grad_sq, tail_share, w1_sup)


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
    base = align_base_to_chain(base, P)
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


def _oriented(simplices: np.ndarray, base: OrientedPlane) -> np.ndarray:
    """The simplices (T, m+1, n), with the last two vertices swapped where a
    simplex projects onto ``base`` against its orientation."""
    dom = simplices @ base.frame.T
    m = base.m
    flip = np.linalg.det(np.swapaxes(dom[:, 1:] - dom[:, :1], 1, 2)) * base.orientation < 0
    out = simplices.copy()
    out[flip] = out[flip][:, list(range(m - 1)) + [m, m - 1]]
    return out


def _faces(ring: np.ndarray, m: int) -> np.ndarray:
    """The faces (N, m, n) of a ring of N points on the unit sphere of the
    base: consecutive pairs of the closed polygon for m = 2, the points
    themselves for m = 1."""
    if m == 1:
        return ring[:, None]
    return np.stack([ring, np.roll(ring, -1, axis=0)], axis=1)


def _cone(apex: np.ndarray, ring: np.ndarray, m: int) -> np.ndarray:
    """The simplices (N, m+1, n) joining ``apex`` to each face of ``ring``."""
    faces = _faces(ring, m)
    return np.concatenate([np.broadcast_to(apex, faces[:, :1].shape), faces], axis=1)


def _prisms(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Staircase triangulation of the prisms between matching faces
    (..., m, n) of two rings: m simplices per face, in face order,
    unoriented, shape (K m, m+1, n)."""
    m, n = inner.shape[-2:]
    pieces = [np.concatenate([inner[..., : j + 1, :], outer[..., j:, :]], axis=-2) for j in range(m)]
    return np.stack(pieces, axis=-3).reshape(-1, m + 1, n)


def _strip(inner: np.ndarray, outer: np.ndarray, m: int) -> np.ndarray:
    """The simplices between two rings with equal counts, unoriented."""
    return _prisms(_faces(inner, m), _faces(outer, m))


#: The annulus ``_BLEND_IN <= |x| <= _BLEND_OUT`` of the blend; its
#: coefficients 4|x| - 2 and 3 - 4|x| run from 0 to 1 across exactly it.
_BLEND_IN, _BLEND_OUT = 0.5, 0.75


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
    verts: np.ndarray  # (T, m+1, n) oriented simplices
    payload: np.ndarray  # (T, width) coefficient payloads
    gram: np.ndarray  # (T,) Gram determinants of the simplices
    mass_blend: float
    mass_original: float

    def z(self, layer_index: int, x: np.ndarray) -> np.ndarray:
        d, r = self.decomp, float(np.linalg.norm(x))
        y = d.A[layer_index] @ np.asarray(x, dtype=float) + d.b[layer_index]
        return (4.0 * r - 2.0) * y + (3.0 - 4.0 * r) * self.v.eval(x)


def annulus_interpolate(
    decomp: LayerDecomposition,
    v: MollifiedGraph,
    divisions: int = 8,
) -> AnnulusBlend:
    """Blend every layer into the mollified graph across the annulus, over
    the wedge (m = 2) or the ray (m = 1) its domain spans from the apex."""
    base, perp, m = decomp.base, decomp.perp, decomp.m
    u = _directions(_layer_rays(decomp), m)  # (L, m, m): each layer's ray directions
    radii = np.linspace(_BLEND_IN, _BLEND_OUT, divisions + 1)[:, None, None]
    x = radii * u[:, None]  # (L, divisions + 1, m, m)
    y = (decomp.A[:, None, None] @ x[..., None])[..., 0] + decomp.b[:, None, None]
    vv = v.eval_many(x.reshape(-1, m)).reshape(y.shape)
    # blend coefficients 4r-2 and 3-4r on the standard annulus
    z = (4.0 * radii - 2.0) * y + (3.0 - 4.0 * radii) * vv
    rows = _lift(x, base.frame) + _lift(z, perp)  # (L, divisions + 1, m, n)
    verts = _oriented(_prisms(rows[:, :-1], rows[:, 1:]), base)
    per_layer = m * divisions
    payload = np.repeat(decomp.chain.payload, per_layer, axis=0)
    # summed term by term, in order
    gram = _gram_dets(verts)
    mass_blend = sum((np.repeat(decomp.weights, per_layer) * gram_volumes(gram, m)).tolist())
    # each layer's chord wedge between the radii has volume |det u| (out^m - in^m) / m!
    wedges = np.abs(np.linalg.det(u)) * (_BLEND_OUT**m - _BLEND_IN**m) / math.factorial(m)
    mass_orig = float(np.sum(decomp.weights * decomp.jac * wedges))
    return AnnulusBlend(decomp, v, verts, payload, gram, mass_blend, mass_orig)


def build_comparison(P: PolyChain, cfg: EpiConfig | None = None):
    """Run the full pipeline on a polyhedral m-cone, m in {1, 2}; returns
    ``(S, report)``.

    Both dimensions run the same stages, gates and measurements.  An empty
    chain raises ``ValueError``; a failed stage precondition raises
    :class:`StageError` tagged with its stage.
    """
    if P.is_zero:
        raise ValueError("empty chain")
    cfg = cfg or EpiConfig()
    m = P.m
    if m not in (1, 2):
        raise StageError("select_plane", f"pipeline supports m in {{1, 2}}, got m={m}")
    lam = lambda_epi(m)

    # -- stage: plane selection
    if not is_cone(P, tol=1e-9):
        raise StageError("assumptions", "input chain is not a cone through the origin")
    try:
        V, _ = select_plane(quad_form(P, np.zeros(P.n), 1.0), m)
    except Exception as exc:  # noqa: BLE001
        raise StageError("select_plane", str(exc)) from exc
    V = align_base_to_chain(V, P)

    # -- stage: assumptions
    try:
        decomp = decompose_layers(P, V, radius=1.0)
    except (GeneralPositionError, ConstancyError) as exc:
        raise StageError("assumptions", str(exc)) from exc
    if decomp.g0.is_zero:
        raise StageError("assumptions", "projected coefficient g0 vanishes")
    g0n = decomp.g0_norm
    clearance = decomp.clearance
    if clearance <= 2.0:
        raise StageError("assumptions", f"boundary clearance {clearance:.3g} <= bound 2 (doubled cylinder)",
                         clearance, 2.0)
    rho_meas = height_sup(P, V, radius=1.0)
    exc_P = cylindrical_excess(decomp, radius=1.0)
    eps_meas = exc_P / g0n
    notes: list[str] = []
    if rho_meas >= cfg.rho_max:
        raise StageError("assumptions", f"height {rho_meas:.3g} >= bound {cfg.rho_max}",
                         rho_meas, cfg.rho_max)
    if eps_meas >= cfg.eps_max:
        raise StageError("assumptions", f"excess {eps_meas:.3g} >= bound {cfg.eps_max}",
                         eps_meas, cfg.eps_max)
    if cfg.strict_flatness and eps_meas > rho_meas ** (6 * m):
        raise StageError("assumptions", "strict flatness eps <= rho^(6m) violated",
                         eps_meas, rho_meas ** (6 * m))
    if np.any(decomp.weights < 0.75 * g0n - 1e-12):
        notes.append("a layer coefficient is below (3/4)||g0||; averaged bounds not asserted")

    degenerate = exc_P <= 1e-12 * max(g0n, 1.0)

    # -- stage: average + mollify
    avg = averaged_graph(decomp)
    rho_moll = min(max(rho_meas, 1e-3), 0.45)
    angles = _layer_ray_angles(decomp)
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
        curve, W, cutoff=cfg.harmonic_cutoff, n_samples=len(angles), tail_tol=cfg.tail_tol
    )

    # -- stage: assemble S
    S_chain, P_inside, s_parts = _assemble(P, decomp, v, trace, cfg)
    # boundary gives one face per class: the defect needs no second merge
    defect = _residual_defect_mass(boundary(s_parts - P_inside))
    mP = mass(P)
    if defect > cfg.boundary_defect_tol * mP:
        raise StageError("assemble", f"boundary defect {defect:.3g} exceeds {cfg.boundary_defect_tol} * mass(P)",
                         defect, cfg.boundary_defect_tol * mP)

    # -- measurements: one layer decomposition per (chain, plane) pair
    W_P = align_base_to_chain(W, P)
    try:
        exc_S = cylindrical_excess(_decompose(S_chain, V, decomp.g0), radius=1.0)
        exc_P_zone = _zone_excess(_decompose(P, W_P, decomp.g0), trace)
        exc_S_zone = _zone_excess(_decompose(S_chain, W_P, decomp.g0), trace)
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


def _decompose(chain: PolyChain, plane: OrientedPlane, g0: NormedCoefficient) -> LayerDecomposition:
    """The layers of a chain whose stalk coefficient is known to be ``g0``:
    P over another plane, or S, which keeps P's boundary (the defect gate
    checks it)."""
    decomp = decompose_layers(chain, plane, check_constancy=False)
    return dataclasses.replace(decomp, g0=g0, g0_norm=group_norm(g0))


def _lift(coords: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """``coords @ frame`` row by row: the same floats as one point at a
    time (a batched product may sum in another order)."""
    return (coords[..., None, :] @ frame)[..., 0, :]


def _directions(angles_or_sides: np.ndarray, m: int) -> np.ndarray:
    """Unit vectors (..., m) of base directions: ``(cos a, sin a)`` for
    m = 2, the side itself for m = 1."""
    if m == 1:
        return angles_or_sides[..., None]
    return np.stack([np.cos(angles_or_sides), np.sin(angles_or_sides)], axis=-1)


def _layer_rays(decomp: LayerDecomposition) -> np.ndarray:
    """(L, m): the raw ``atan2`` angles (m = 2) or the sides (m = 1) of the
    domain vertices of each layer other than its apex, in vertex order."""
    d = decomp.domains
    apex = np.argmin(np.linalg.norm(d, axis=2), axis=1)
    far = d[np.arange(d.shape[1]) != apex[:, None]].reshape(len(d), decomp.m, decomp.m)
    if decomp.m == 1:
        return np.sign(far[..., 0])
    return np.array([[math.atan2(y, x) for x, y in ends] for ends in far.tolist()])


def _layer_ray_angles(decomp: LayerDecomposition) -> np.ndarray:
    """The distinct ray angles of the layers, sorted in [0, 2 pi), for
    m = 2; the sides ``-1, 1`` of the base line for m = 1."""
    if decomp.m == 1:
        return np.array([-1.0, 1.0])
    # dedup by a rounded key but keep the raw atan2 floats: the assembly
    # recomputes the same atan2 from the same vertices, so raw values make
    # interface nodes bitwise reproducible
    angles: dict[float, float] = {}
    for raw in np.mod(_layer_rays(decomp), 2 * math.pi).ravel().tolist():
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
    """Points of the mollified graph at unit base radius, one per ray angle
    (m = 2) or side (m = 1)."""
    return _lift(_directions(v.angles, decomp.m), decomp.base.frame) + _lift(v.values, decomp.perp)


def _cone_chain(curve: np.ndarray, g0: NormedCoefficient, n: int, span: float) -> PolyChain:
    """The cone from the origin over ``span`` times the unit curve, with
    coefficient ``g0``: over the two sides of a line (m = 1) when the curve
    has two points, else over a closed polygon (m = 2)."""
    m = 1 if len(curve) == 2 else 2
    verts = _cone(np.zeros(n), span * curve, m)
    return PolyChain(n, m, g0.spec, verts=verts, payload=np.tile(coeff_payload(g0), (len(verts), 1)))


def _split_by_polygon_cylinder(
    chain: PolyChain, base: OrientedPlane, poly: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Split terms into (inside, outside) pieces of the cylinder over a
    convex base region with vertices ``poly`` (k, m): a polygon for m = 2,
    the two ends of an interval for m = 1; exact.  Each side is
    ``(verts (K, m+1, n), src (K,))``: the pieces, in the order of the
    terms they come from, and the index of that term."""
    m = base.m
    dom = chain.verts @ base.frame.T
    (polys, counts), cut = _clip_to_cylinder(chain.verts, dom, poly, *_cylinder_facets(base, poly), outside=True)
    inside = _fan_split(polys, counts, np.arange(len(chain)), m)
    pieces = [_fan_split(*piece, m) for piece in cut]
    out_verts = np.concatenate([v for v, _ in pieces] + [np.zeros((0, m + 1, chain.n))])
    out_src = np.concatenate([j for _, j in pieces] + [np.zeros(0, dtype=np.int64)])
    order = np.argsort(out_src, kind="stable")
    return inside, (out_verts[order], out_src[order])


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
    Wperp = trace.perp
    m = base.m

    # inner interface: quarter-scaled traced points (exactly on the cone of v)
    uW = _directions(trace.angles, m)
    inner_poly = 0.25 * (_lift(uW, W.frame) + _lift(trace.samples, Wperp))

    # (a) degree-2 graph h4(x) = w0/4 + 4 |x|^2 (w - w0) over the quarter
    # ball of W, ring by ring; the outermost ring is the quarter-trace
    # interface itself (h4 = w/4 at |x| = 1/4), so the interface faces
    # cancel bit for bit
    Q = cfg.radial_divisions
    rings = [
        _lift(t * uW, W.frame) + _lift(trace.w0 / 4.0 + 4.0 * t * t * (trace.samples - trace.w0), Wperp)
        for t in 0.25 * np.arange(1, Q) / Q
    ] + [inner_poly]
    center = W.embed(np.zeros(m)) + (trace.w0 / 4.0) @ Wperp
    pieces = [_cone(center, rings[0], m)] + [_strip(a, b, m) for a, b in zip(rings[:-1], rings[1:])]

    # (b) ring between the quarter interface and the half sphere of v;
    # for m = 2 pair the polylines by their angles in the common base
    # frame, otherwise the strip twists by the in-plane rotation between
    # the W and V frames
    uV = _directions(v.angles, m)
    half_nodes = _lift(0.5 * uV, base.frame) + _lift(v.eval_many(0.5 * uV), perp)
    if m == 1:
        pieces.append(_strip(inner_poly, half_nodes, m))  # both ordered by side
    else:
        inner_base = base.project_coords(inner_poly)
        inner_angles = np.mod(np.arctan2(inner_base[:, 1], inner_base[:, 0]), 2 * math.pi)
        pieces.append(_zip_strip(inner_poly, inner_angles, half_nodes, v.angles))
    g0_parts = _oriented(np.concatenate(pieces), base)

    # (c) blended annulus per layer over its own wedge
    blend = annulus_interpolate(decomp, v, divisions=cfg.blend_divisions)

    # (d) P outside the 3/4 cylinder
    (in_verts, in_src), (out_verts, out_src) = _split_by_polygon_cylinder(P, base, 0.75 * uV)

    # one Gram pass per row: S and its leading rows s_parts share them
    g0_rows = np.tile(coeff_payload(decomp.g0), (len(g0_parts), 1))
    verts = np.concatenate([g0_parts, blend.verts, out_verts])
    payload = np.concatenate([g0_rows, blend.payload, P.payload[out_src]])
    gram = np.concatenate([_gram_dets(g0_parts), blend.gram, _gram_dets(out_verts)])
    _check_vertices(verts)
    S_chain = P._from_rows(verts, payload, gram)
    parts = len(g0_parts) + len(blend.verts)
    s_parts = P._from_rows(verts[:parts], payload[:parts], gram[:parts])
    P_inside = P.with_arrays(in_verts, P.payload[in_src])
    return S_chain, P_inside, s_parts


def _zip_strip(
    inner: np.ndarray,
    inner_angles: np.ndarray,
    outer: np.ndarray,
    outer_angles: np.ndarray,
) -> np.ndarray:
    """Strip triangulation between two closed polylines, advancing by
    angle; unoriented.

    An inner angle within 1e-9 rad (cyclically) of an outer one is a tie:
    it takes that outer angle, and the inner point of a ray goes before
    the outer one, so last-bit shifts of either ring leave the
    triangulation unchanged."""
    ia = np.mod(np.asarray(inner_angles, dtype=float), 2 * math.pi)
    oa = np.mod(np.asarray(outer_angles, dtype=float), 2 * math.pi)
    oo = np.argsort(oa)
    Ni, No = len(inner), len(outer)
    # the sorted outer angles, one more at each end across the wraparound
    around = np.arange(-1, No + 1)
    ring = oa[oo][around % No] + 2 * math.pi * (around // No)
    pos = np.searchsorted(ring, ia)
    near = np.where(ia - ring[pos - 1] <= ring[pos] - ia, pos - 1, pos)
    ia = np.where(np.abs(ia - ring[near]) <= 1e-9, oa[oo][(near - 1) % No], ia)
    io = np.argsort(ia, kind="stable")
    Ia = np.append(ia[io], ia[io][0] + 2 * math.pi)
    Oa = np.append(oa[oo], oa[oo][0] + 2 * math.pi)
    # merge the two rings by angle, inner first on equal angles: each step
    # advances one ring and emits the triangle over that ring's next edge
    inward = np.argsort(np.concatenate([Ia[1:], Oa[1:]]), kind="stable") < Ni
    i = np.cumsum(inward) - inward
    o = np.cumsum(~inward) - ~inward
    far = np.where(inward, (i + 1) % Ni, Ni + (o + 1) % No)
    idx = np.stack([i % Ni, Ni + o % No, far], axis=1)
    return np.concatenate([inner[io], outer[oo]])[idx]


def _zone_excess(decomp: LayerDecomposition, trace: BoundaryTrace) -> float:
    """Excess over the replacement zone of ``W``: the interval
    [-1/4, 1/4] for m = 1, the polygon of the trace directions at radius
    1/4 for m = 2."""
    if decomp.m == 1:
        return cylindrical_excess(decomp, radius=0.25)
    return _excess_over_polygon(decomp, 0.25 * _directions(trace.angles, 2))


def _fan_areas(polys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Areas of a stack of convex polygons (K, V, 2), polygon i being the
    first ``counts[i]`` rows: the fan triangles from vertex 0 summed in
    order (zero for fewer than three vertices)."""
    ua = polys[:, 1:-1] - polys[:, :1]
    ub = polys[:, 2:] - polys[:, :1]
    tri = 0.5 * np.abs(ua[..., 0] * ub[..., 1] - ua[..., 1] * ub[..., 0])
    tri[np.arange(2, polys.shape[1]) >= counts[:, None]] = 0.0
    return np.cumsum(tri, axis=1)[:, -1] if tri.shape[1] else np.zeros(len(polys))


def _excess_over_polygon(decomp: LayerDecomposition, poly: np.ndarray) -> float:
    """Excess over the cylinder of a convex polygon region in base coords.

    Domains that straddle the polygon's ring are clipped by
    :func:`_clip_to_cylinder`, each only against the polygon edges whose
    arcs meet its angular window.
    """
    dom, jac, w = decomp.domains, decomp.jac, decomp.weights
    k = len(poly)
    rad_out = float(np.max(np.linalg.norm(poly, axis=1)))
    rad_in = rad_out * math.cos(math.pi / k)
    rmin = np.min(np.linalg.norm(dom, axis=2), axis=1)
    rmax = np.max(np.linalg.norm(dom, axis=2), axis=1)
    area = _fan_areas(dom, np.full(len(dom), 3))
    # every vertex beyond the circumradius is not enough: an edge may still
    # cross the zone, so the flagged domains are measured exactly; one that
    # comes nearer still misses the zone when no vertex lies inside one
    # edge's line by more than rounding (a domain that touches the zone)
    nrm = _inward_normals(poly, np.zeros(2))
    flagged = rmin >= rad_out - 1e-15
    far = flagged.copy()
    far[flagged] = _dists(dom[flagged], np.zeros(2)) >= rad_out - 1e-15
    # only an edge whose arc meets a domain's angular window can cut it
    near = np.flatnonzero(flagged & ~far)
    row, e = _meeting_arcs(*_polygon_arcs(poly), *_angular_windows(dom[near]))
    inside = _rowdot(dom[near][row] - poly[e, None], nrm[e, None]) > 1e-15 * rad_out * np.sqrt(_rowdot(nrm, nrm))[e, None]
    far[near[row[~np.any(inside, axis=1)]]] = True
    area[far] = 0.0
    cut = np.flatnonzero(~far & (rmax > rad_in + 1e-15))
    polys, counts = _clip_to_cylinder(dom[cut], dom[cut], poly, poly, nrm)[0]
    area[cut] = _fan_areas(polys, counts)
    # summed term by term, in order
    total = sum((w * jac * area).tolist())
    return float(total - decomp.g0_norm * _fan_areas(poly[None], np.array([k]))[0])


def _residual_defect_mass(chain: PolyChain, tol: float = 1e-9) -> float:
    """Mass of a boundary-defect chain after tolerance-based cancellation.

    Snap-grid face merging can miss pairs that differ by rounding right at
    a grid boundary.  So each face not yet taken, in term order, takes the
    later faces not yet taken whose volume is within ``tol`` of its own and
    whose vertices are within ``tol`` of its own in the same order (added)
    or the reversed one (subtracted); each class is summed and measured
    once, and the masses are added in term order."""
    T, k, n = chain.verts.shape
    vol = chain.volumes()
    flat = chain.verts.reshape(T, k * n)
    i, j = np.nonzero(np.triu(np.abs(vol[:, None] - vol) <= tol, 1))

    def near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.sqrt(_rowdot(a - b, a - b)) <= tol

    same = near(flat[i], flat[j])
    flip = ~same & near(flat[i], chain.verts[j, ::-1].reshape(len(j), k * n))
    pair = same | flip
    owner, sign = np.arange(T), np.ones(T, dtype=np.int64)
    for a, b, s in zip(i[pair].tolist(), j[pair].tolist(), np.where(same, 1, -1)[pair].tolist()):
        if owner[a] == a and owner[b] == b:
            owner[b], sign[b] = a, s
    heads, cls = np.unique(owner, return_inverse=True)
    acc = _accumulate(chain.group, chain.payload, sign, cls, len(heads))
    return sum((_payload_norms(chain.group, acc) * vol[heads]).tolist(), 0.0)
