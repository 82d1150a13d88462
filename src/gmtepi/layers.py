"""Layer decomposition of a chain over a base plane, and cylindrical excess.

A chain in general position with respect to a base plane ``V`` is a
finite stack of affine graphs: every simplex projects injectively and
orientation-preservingly onto ``V`` and is therefore the graph of an
affine map from its projected domain into ``V^perp``.  This module
recovers those maps, checks that the stalk sum of coefficients is a
constant ``g0`` (the constancy property of the projection), and measures
the cylindrical excess

    Exc(T, V, B) = M(T over the cylinder of B) - ||g0|| vol(B),

exactly: each term is a constant Jacobian times an exact polygon-disk
intersection area.  Multiplicity statistics on the overlap set ``E2``
are computed from pairwise domain intersections with an inclusion-
exclusion truncation at triples (the truncation residual is reported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import PolyChain
from .groups import NormedCoefficient, group_add, group_norm, zero
from .planes import OrientedPlane
from .quadrature import disk_polygon_area, disk_polygon_areas

__all__ = [
    "GeneralPositionError",
    "align_base_to_chain",
    "ConstancyError",
    "Layer",
    "LayerDecomposition",
    "decompose_layers",
    "cylindrical_excess",
    "size_excess",
    "MultiplicityReport",
    "multiplicity_stats",
    "height_sup",
]


class GeneralPositionError(ValueError):
    """A simplex fails to project injectively and orientation-preservingly."""


def align_base_to_chain(base: OrientedPlane, chain: PolyChain) -> OrientedPlane:
    """Flip one frame row if the chain projects orientation-reversingly.

    Plane selection from a quadratic form fixes no in-plane handedness, so
    graph decompositions align the base to the chain first.  The sign is
    the first non-degenerate term's projected edge determinant, in every
    dimension m."""
    dom = chain.verts @ base.frame.T
    det = np.linalg.det(dom[:, 1:] - dom[:, :1])
    firm = np.flatnonzero(np.abs(det) >= 1e-14)
    if len(firm) and det[firm[0]] * base.orientation < 0:
        f = base.frame.copy()
        f[-1] = -f[-1]
        return OrientedPlane(f, base.orientation)
    return base


class ConstancyError(ValueError):
    """The stalk coefficient sum is inconsistent across base points."""


@dataclass
class Layer:
    """One affine graph layer: ``y(x) = A x + b`` over a projected domain."""

    domain: np.ndarray  # (m+1, m) projected simplex, base coordinates
    A: np.ndarray  # (n-m, m)
    b: np.ndarray  # (n-m,)
    coeff: NormedCoefficient

    def height(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x + self.b

    def jacobian_sq(self) -> float:
        """``(J y)^2 = det(I + A^T A) - 1`` of the constant differential."""
        m = self.A.shape[1]
        return float(np.linalg.det(np.eye(m) + self.A.T @ self.A) - 1.0)


@dataclass
class LayerDecomposition:
    """Stack of affine graph layers over a base plane, one per term of
    ``chain``, held as stacked arrays; ``layers`` lists them one by one."""

    base: OrientedPlane
    perp: np.ndarray  # (n-m, n) orthonormal complement frame
    chain: PolyChain
    domains: np.ndarray  # (T, m+1, m) projected simplices, base coordinates
    A: np.ndarray  # (T, n-m, m)
    b: np.ndarray  # (T, n-m)
    jac: np.ndarray  # (T,) area factors sqrt(det(I + A^T A))
    weights: np.ndarray  # (T,) coefficient norms
    g0: NormedCoefficient
    g0_norm: float

    @property
    def m(self) -> int:
        return self.base.m

    @cached_property
    def layers(self) -> list[Layer]:
        return [
            Layer(self.domains[t], self.A[t], self.b[t], self.chain.coefficient(t))
            for t in range(len(self.domains))
        ]


def _constancy_nodes(layers: list[Layer], m: int, radius: float) -> np.ndarray:
    """Deterministic query points, shape (N, m): a polar grid, domain
    barycenters, and points adjacent to pairwise edge crossings of the
    projected domains (the arrangement-cell samples for m <= 2)."""
    nodes: list[np.ndarray] = []
    if m == 1:
        for t in np.linspace(-radius, radius, 41):
            nodes.append(np.array([t]))
        cuts = sorted({float(v[0]) for ly in layers for v in ly.domain})
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b - a > 1e-12:
                nodes.append(np.array([0.5 * (a + b)]))
        return np.array([p for p in nodes if abs(p[0]) <= radius]).reshape(-1, 1)
    for k in range(1, 7):
        rad = radius * (k - 0.5) / 6.5
        count = 6 * k
        ang = 2 * math.pi * (np.arange(count) + 0.5) / count
        for a in ang:
            nodes.append(rad * np.array([math.cos(a), math.sin(a)]))
    nodes.append(np.zeros(2) + 1e-7)
    for ly in layers:
        nodes.append(ly.domain.mean(axis=0))
    p0 = np.array([ly.domain[i] for ly in layers for i in range(3)])
    p1 = np.array([ly.domain[(i + 1) % 3] for ly in layers for i in range(3)])
    # sample the cells around every pairwise edge crossing (vectorized Cramer)
    e = p1 - p0
    ne = len(p0)
    iu, ju = np.triu_indices(ne, k=1)
    d1, d2 = e[iu], -e[ju]
    rhs = p0[ju] - p0[iu]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    ok = np.abs(det) > 1e-14
    s = np.where(ok, (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / np.where(ok, det, 1.0), -1)
    t = np.where(ok, (d1[:, 0] * rhs[:, 1] - d1[:, 1] * rhs[:, 0]) / np.where(ok, det, 1.0), -1)
    hit = ok & (s >= -1e-9) & (s <= 1 + 1e-9) & (t >= -1e-9) & (t <= 1 + 1e-9)
    crossings = p0[iu[hit]] + s[hit, None] * e[iu[hit]]
    if len(crossings):
        # crossings repeat heavily (every ray pair of a cone meets at 0)
        # (sorted rows, as np.unique(axis=0) gives, without its slow row sort)
        snapped = np.round(crossings / 1e-9) * 1e-9
        snapped = snapped[np.lexsort((snapped[:, 1], snapped[:, 0]))]
        crossings = snapped[np.r_[True, np.any(snapped[1:] != snapped[:-1], axis=1)]]
        if len(crossings) > 400:
            step = len(crossings) // 400 + 1
            crossings = crossings[::step]
    offsets = 1e-6 * np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)], dtype=float)
    pts = np.vstack([np.array(nodes), (crossings[:, None, :] + offsets).reshape(-1, 2)])
    return pts[np.linalg.norm(pts, axis=1) <= radius]


def _constancy_masks(
    domains: np.ndarray, nodes: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(near, inside)``, each (N, L): whether a node lies within ``tol``
    of a domain's boundary, and whether the closed domain contains it.

    The containment test solves each node's barycentric 2x2 system with
    ``np.linalg.solve`` and applies no tolerance."""
    if domains.shape[2] == 1:
        x = nodes[:, :1]
        d0, d1 = domains[:, 0, 0], domains[:, 1, 0]
        near = np.minimum(np.abs(x - d0), np.abs(x - d1)) < tol
        inside = (np.minimum(d0, d1) <= x) & (x <= np.maximum(d0, d1))
        return near, inside
    p = domains  # (L, 3, 2); edge i runs from vertex i to vertex i + 1
    e = np.roll(p, -1, axis=1) - p
    ln2 = e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1]
    x = nodes[:, None, None, :]
    rel = x - p  # (N, L, 3, 2)
    along = (rel[..., 0] * e[..., 0] + rel[..., 1] * e[..., 1]) / np.where(ln2 < 1e-30, 1.0, ln2)
    t = np.clip(along, 0.0, 1.0)
    gap = x - (p + t[..., None] * e)
    dist = np.sqrt(gap[..., 0] * gap[..., 0] + gap[..., 1] * gap[..., 1])
    near = np.any((dist < tol) & (ln2 >= 1e-30), axis=2)
    T = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # (L, 2, 2)
    rhs = nodes[:, None, :] - p[:, 0]  # (N, L, 2)
    lam = np.linalg.solve(np.broadcast_to(T, rhs.shape + (2,)), rhs[..., None])[..., 0]
    l0 = 1.0 - lam.sum(axis=-1)
    inside = (lam[..., 0] >= 0.0) & (lam[..., 1] >= 0.0) & (l0 >= 0.0)
    return near, inside


def _stalk_sum(
    layers: list[Layer], m: int, radius: float, group, tol: float
) -> NormedCoefficient:
    """The stalk sum shared by every constancy node away from the domain
    boundaries; raises :class:`ConstancyError` at the first node, in node
    order, that no layer covers or whose sum differs."""
    domains = np.stack([ly.domain for ly in layers])
    nodes = _constancy_nodes(layers, m, radius)
    step = max(1, 2**16 // len(layers))  # node-layer pairs per batch
    g0_seen: NormedCoefficient | None = None
    for start in range(0, len(nodes), step):
        chunk = nodes[start : start + step]
        near, inside = _constancy_masks(domains, chunk, tol)
        for i in np.flatnonzero(~near.any(axis=1)):
            hits = np.flatnonzero(inside[i])
            if len(hits) == 0:
                raise ConstancyError(f"no layer covers base point {chunk[i]} (hole)")
            acc = zero(group)
            for j in hits:
                acc = group_add(acc, layers[j].coeff)
            if g0_seen is None:
                g0_seen = acc
            elif acc != g0_seen:
                raise ConstancyError(
                    f"stalk sum differs across base points: {g0_seen} vs {acc}"
                )
    return zero(group) if g0_seen is None else g0_seen


def decompose_layers(
    chain: PolyChain,
    base: OrientedPlane,
    radius: float = 1.0,
    check_constancy: bool = True,
    boundary_tol: float = 1e-9,
) -> LayerDecomposition:
    """Express a general-position chain as a stack of affine graphs over
    ``base`` and determine the constant stalk coefficient ``g0``.

    Every term is decomposed in the same stacked array passes.  Raises
    :class:`GeneralPositionError` if some simplex projects degenerately or
    orientation-reversingly, and :class:`ConstancyError` if the stalk sum
    differs between interior query points within the disk of the given
    radius.
    """
    if base.n != chain.n or base.m != chain.m:
        raise ValueError("base plane shape mismatch")
    m = chain.m
    perp = base.perp_frame()
    verts = chain.verts
    dom = verts @ base.frame.T  # (T, m+1, m)
    edges = dom[:, 1:] - dom[:, :1]  # (T, m, m), one edge per row
    if m == 1:
        det = edges[:, 0, 0]
    else:
        e1, e2 = edges[:, 0], edges[:, 1]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    degenerate = np.abs(det) / math.factorial(m) < 1e-14 * np.maximum(chain.volumes(), 1e-30)
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
    # affine solve from the m+1 vertex correspondences
    X = np.concatenate([dom, np.ones(dom.shape[:2] + (1,))], axis=2)
    sol = np.linalg.solve(X, heights)  # (T, m+1, n-m)
    decomp = LayerDecomposition(
        base, perp, chain, dom, np.swapaxes(sol[:, :m], 1, 2), sol[:, m], np.sqrt(jac_sq),
        chain.coeff_norms(), zero(chain.group), 0.0,
    )
    if check_constancy and len(chain):
        decomp.g0 = _stalk_sum(decomp.layers, m, radius, chain.group, boundary_tol)
        decomp.g0_norm = group_norm(decomp.g0)
    return decomp


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


def _pair_area(d1: np.ndarray, d2: np.ndarray, center: np.ndarray, radius: float, m: int) -> float:
    if m == 1:
        lo1, hi1 = sorted((float(d1[0, 0]), float(d1[1, 0])))
        lo2, hi2 = sorted((float(d2[0, 0]), float(d2[1, 0])))
        c = float(center[0])
        return max(0.0, min(hi1, hi2, c + radius) - max(lo1, lo2, c - radius))
    poly = _convex_clip(d1, d2)
    if poly is None or len(poly) < 3:
        return 0.0
    return abs(disk_polygon_area(np.array(poly), center, radius))


def _clip_halfplane(poly: list[np.ndarray], a: np.ndarray, normal: np.ndarray) -> list[np.ndarray]:
    """One Sutherland-Hodgman step: the part of a convex polygon where
    ``(p - a) . normal >= 0``, with a -1e-14 tolerance; ``normal`` points
    inward."""
    out: list[np.ndarray] = []
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


def _convex_clip(subject: np.ndarray, clipper: np.ndarray) -> list[np.ndarray] | None:
    """Sutherland-Hodgman clip of one convex polygon by another."""
    poly = [np.array(p, dtype=float) for p in subject]
    k = clipper.shape[0]
    cc = clipper.mean(axis=0)
    for i in range(k):
        a, b = clipper[i], clipper[(i + 1) % k]
        e = b - a
        normal = np.array([-e[1], e[0]])
        if (cc - a) @ normal < 0:
            normal = -normal
        poly = _clip_halfplane(poly, a, normal)
        if len(poly) < 3:
            return None
    return poly


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
    layers = decomp.layers
    k = len(layers)
    pair_total = 0.0
    pair_per = np.zeros(k)
    triple_total = 0.0
    triple_per = np.zeros(k)
    for i in range(k):
        for j in range(i + 1, k):
            a = _pair_area(layers[i].domain, layers[j].domain, c, radius, m)
            if a <= 0:
                continue
            pair_total += a
            pair_per[i] += a
            pair_per[j] += a
            if m == 2:
                for l in range(j + 1, k):
                    clipped = _convex_clip(layers[i].domain, layers[j].domain)
                    if clipped is None:
                        continue
                    t = _pair_area(np.array(clipped), layers[l].domain, c, radius, m)
                    if t > 0:
                        triple_total += t
                        triple_per[i] += t
                        triple_per[j] += t
                        triple_per[l] += t
    e2 = max(0.0, pair_total - 2.0 * triple_total)
    int_count = max(0.0, 2.0 * pair_total - 3.0 * triple_total)
    int_coeff = 0.0
    for i in range(k):
        w = group_norm(layers[i].coeff)
        int_coeff += w * max(0.0, pair_per[i] - triple_per[i])
    g0n = decomp.g0_norm
    density_ok = all(group_norm(ly.coeff) >= 0.75 * g0n - 1e-12 for ly in layers)
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


def height_sup(
    chain: PolyChain,
    base: OrientedPlane,
    radius: float = 1.0,
    facets: int = 128,
) -> float:
    """Sup of ``|pi_{V^perp}(x)|`` over the support inside the cylinder.

    For a cone through the origin with codimension one the sup is exact:
    the height-to-base ratio along each far edge is maximized in closed
    form and scaled to the cylinder radius.  Otherwise the cylinder is
    replaced by a circumscribed ``facets``-gon, clipped exactly, and the
    vertex scan bounds the sup from above (convexity puts the max at a
    vertex of each clipped simplex).
    """
    from .chains import HalfSpaceRegion, is_cone, restrict

    if base.n - base.m == 1 and base.m == 2 and is_cone(chain, tol=1e-12):
        return _cone_height_sup(chain, base, radius)

    if base.m == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        ang = 2 * math.pi * np.arange(facets) / facets
        dirs = [np.array([math.cos(a), math.sin(a)]) for a in ang]
    clipped = chain
    for d in dirs:
        normal = base.embed(d)
        normal = normal / np.linalg.norm(normal)
        clipped = restrict(clipped, HalfSpaceRegion(-normal, -radius)).chain
        if clipped.is_zero:
            return 0.0
    verts = clipped.vertex_array().reshape(-1, chain.n)
    return float(np.max(base.perp_norms(verts))) if len(verts) else 0.0


def _cone_height_sup(chain: PolyChain, base: OrientedPlane, radius: float) -> float:
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
