"""Polyhedral m-chains in R^n with normed-group coefficients.

A chain is a finite formal sum of oriented m-simplices with coefficients
from a normed abelian group (:mod:`gmtepi.groups`).  Orientation is the
order of the vertex list.  The module provides the boundary operator,
mass and size, affine push-forwards, restriction to half-spaces (exact)
and balls (bisection with an audited error bound), the cone construction,
scaling and simple support queries, plus hyperplane slicing.

Chains are immutable values; all operations return new chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .groups import GroupSpec, NormedCoefficient, group_add, group_neg, group_norm
from .quadrature import batch_ball_masses, simplex_volume

__all__ = [
    "Simplex",
    "PolyChain",
    "BallRegion",
    "HalfSpaceRegion",
    "RestrictResult",
    "boundary",
    "mass",
    "size",
    "pushforward_linear",
    "restrict",
    "cone",
    "cone_mass_formula",
    "homogeneous_extend",
    "is_cone",
    "slice_mass_profile",
    "ball_mass",
]

#: Simplices with squared Gram determinant below this are treated as
#: degenerate and dropped (push-forwards and clipping create them).
DEGENERATE_GRAM = 1e-20

#: Vertex snapping grid used when merging coincident faces.
SNAP = 1e-12


class Simplex:
    """An oriented m-simplex: an ordered tuple of m+1 points in R^n."""

    __slots__ = ("vertices", "_volume")

    def __init__(self, vertices: np.ndarray):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be a (m+1, n) array")
        v.flags.writeable = False
        self.vertices = v
        self._volume: float | None = None

    @property
    def m(self) -> int:
        return self.vertices.shape[0] - 1

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    @property
    def volume(self) -> float:
        if self._volume is None:
            self._volume = simplex_volume(self.vertices)
        return self._volume

    def gram_det(self) -> float:
        e = self.vertices[1:] - self.vertices[0]
        return float(np.linalg.det(e @ e.T))

    def is_degenerate(self) -> bool:
        return self.gram_det() < DEGENERATE_GRAM

    def barycenter(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Simplex(m={self.m}, n={self.n})"


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


class PolyChain:
    """Finite weighted sum of oriented m-simplices in R^n.

    ``terms`` is a sequence of ``(Simplex, NormedCoefficient)`` pairs.
    Construction drops zero coefficients and degenerate simplices, so the
    canonical form invariant holds by construction.
    """

    __slots__ = ("n", "m", "group", "terms", "_cache")

    def __init__(
        self,
        n: int,
        m: int,
        group: GroupSpec,
        terms: Iterable[tuple[Simplex, NormedCoefficient]] = (),
    ):
        kept = []
        for simplex, coeff in terms:
            if coeff.spec != group:
                raise ValueError("coefficient group mismatch")
            if simplex.m != m or simplex.n != n:
                raise ValueError("simplex dimension mismatch")
            if coeff.is_zero or simplex.is_degenerate():
                continue
            kept.append((simplex, coeff))
        self.n = n
        self.m = m
        self.group = group
        self.terms = tuple(kept)
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def vertex_array(self) -> np.ndarray:
        """Stacked vertices, shape (terms, m+1, n)."""
        if "va" not in self._cache:
            if self.terms:
                self._cache["va"] = np.stack([s.vertices for s, _ in self.terms])
            else:
                self._cache["va"] = np.zeros((0, self.m + 1, self.n))
        return self._cache["va"]

    def coeff_norms(self) -> np.ndarray:
        if "cn" not in self._cache:
            self._cache["cn"] = np.array([group_norm(g) for _, g in self.terms])
        return self._cache["cn"]

    def volumes(self) -> np.ndarray:
        if "vol" not in self._cache:
            self._cache["vol"] = np.array([s.volume for s, _ in self.terms])
        return self._cache["vol"]

    def diameters(self) -> np.ndarray:
        if "diam" not in self._cache:
            va = self.vertex_array()
            d = np.zeros(len(va))
            k = va.shape[1]
            for i in range(k):
                for j in range(i + 1, k):
                    d = np.maximum(d, np.linalg.norm(va[:, i] - va[:, j], axis=1))
            self._cache["diam"] = d
        return self._cache["diam"]

    def near_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of the terms whose simplex may meet ``B(center, radius)``:
        those with a vertex within ``radius`` plus the simplex diameter."""
        va = self.vertex_array()
        dist = np.min(np.linalg.norm(va - center, axis=2), axis=1)
        return np.nonzero(dist - self.diameters() <= radius)[0]

    def with_terms(self, terms) -> "PolyChain":
        return PolyChain(self.n, self.m, self.group, terms)

    def __add__(self, other: "PolyChain") -> "PolyChain":
        if (self.n, self.m, self.group) != (other.n, other.m, other.group):
            raise ValueError("chain shape mismatch")
        return merge_terms(self.with_terms(list(self.terms) + list(other.terms)))

    def __neg__(self) -> "PolyChain":
        return self.with_terms([(s, group_neg(g)) for s, g in self.terms])

    def __sub__(self, other: "PolyChain") -> "PolyChain":
        return self + (-other)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolyChain(n={self.n}, m={self.m}, terms={len(self.terms)})"


@dataclass(frozen=True)
class BallRegion:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class HalfSpaceRegion:
    """The region ``{x : normal . x >= offset}`` (unit normal)."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        nv = np.asarray(self.normal, dtype=float)
        ln = np.linalg.norm(nv)
        if not math.isclose(ln, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("normal must have unit length")
        object.__setattr__(self, "normal", nv)


def merge_terms(chain: PolyChain) -> PolyChain:
    """Merge terms whose simplices coincide as (snapped) point sets.

    The first-seen simplex of each coincidence class keeps its orientation
    and later coefficients are accumulated relative to it, so a chain of
    positively-projecting simplices stays positively projecting.
    """
    buckets: dict[bytes, tuple[Simplex, int, NormedCoefficient]] = {}
    for simplex, coeff in chain.terms:
        key, parity = _sorted_key_and_parity(simplex.vertices)
        if key in buckets:
            ref, ref_parity, acc = buckets[key]
            signed = coeff if parity == ref_parity else group_neg(coeff)
            buckets[key] = (ref, ref_parity, group_add(acc, signed))
        else:
            buckets[key] = (simplex, parity, coeff)
    return chain.with_terms([(s, g) for s, _p, g in buckets.values() if not g.is_zero])


def _flip(simplex: Simplex) -> Simplex:
    v = simplex.vertices.copy()
    v[[0, 1]] = v[[1, 0]]
    return Simplex(v)


def boundary(chain: PolyChain) -> PolyChain:
    """Alternating-sign face sum; coincident faces cancel by group addition.

    Satisfies ``boundary(boundary(T))`` having zero mass.
    """
    if chain.m < 1:
        raise ValueError("boundary needs m >= 1")
    buckets: dict[bytes, tuple[Simplex, NormedCoefficient]] = {}
    for simplex, coeff in chain.terms:
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
    terms = [(s, g) for s, g in buckets.values() if not g.is_zero]
    return PolyChain(chain.n, chain.m - 1, chain.group, terms)


def _face_flipped(face: np.ndarray) -> np.ndarray:
    out = face.copy()
    if out.shape[0] >= 2:
        out[[0, 1]] = out[[1, 0]]
    return out


def mass(chain: PolyChain) -> float:
    """``sum_i ||g_i|| vol(S_i)`` with exact simplex volumes."""
    if chain.is_zero:
        return 0.0
    return float(np.dot(chain.coeff_norms(), chain.volumes()))


def size(chain: PolyChain) -> float:
    """Hausdorff volume of the carrier: identical simplices counted once."""
    merged = merge_terms(chain)
    seen: dict[bytes, float] = {}
    for simplex, _ in merged.terms:
        key, _p = _sorted_key_and_parity(simplex.vertices)
        seen[key] = simplex.volume
    return float(sum(seen.values()))


def pushforward_linear(
    chain: PolyChain,
    matrix: np.ndarray,
    shift: np.ndarray | None = None,
) -> PolyChain:
    """Push forward by an affine map ``x -> matrix @ x + shift``.

    Degenerate image simplices (rank drop) are dropped.  For a 1-Lipschitz
    map such as an orthogonal projection the mass never increases.
    """
    matrix = np.asarray(matrix, dtype=float)
    k = matrix.shape[0]
    terms = []
    for simplex, coeff in chain.terms:
        v = simplex.vertices @ matrix.T
        if shift is not None:
            v = v + shift
        terms.append((Simplex(v), coeff))
    return PolyChain(k, chain.m, chain.group, terms)


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


@dataclass
class RestrictResult:
    """Restriction output: the clipped chain and a bound on the mass error.

    Half-space clipping is exact (``mass_error == 0``).  Ball clipping by
    bisection keeps sub-simplices whose barycenter lies in the ball, so the
    mass differs from the true ``||T||(B)`` by at most the total mass of
    sub-simplices straddling the sphere, which is what ``mass_error``
    reports (it scales like ``refine_h`` times a surface term).
    """

    chain: PolyChain
    mass_error: float


def restrict(
    chain: PolyChain,
    region: BallRegion | HalfSpaceRegion,
    refine_h: float = 1e-2,
) -> RestrictResult:
    """Restrict a chain to a region; see :class:`RestrictResult`."""
    if refine_h <= 0:
        raise ValueError("refine_h must be positive")
    if isinstance(region, HalfSpaceRegion):
        terms = []
        for simplex, coeff in chain.terms:
            for piece in _clip_simplex_halfspace(simplex.vertices, region.normal, region.offset):
                terms.append((Simplex(piece), coeff))
        return RestrictResult(chain.with_terms(terms), 0.0)
    if not isinstance(region, BallRegion):
        raise TypeError(f"unsupported region {type(region)!r}")

    center, radius = region.center, region.radius
    kept: list[tuple[Simplex, NormedCoefficient]] = []
    error = 0.0

    def visit(v: np.ndarray, coeff, norm_g: float):
        nonlocal error
        dist = np.linalg.norm(v - center, axis=1)
        if np.all(dist <= radius + 1e-12):
            kept.append((Simplex(v), coeff))
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
                kept.append((Simplex(v), coeff))
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
        visit(child_a, coeff, norm_g)
        visit(child_b, coeff, norm_g)

    for simplex, coeff in chain.terms:
        visit(np.array(simplex.vertices), coeff, group_norm(coeff))
    return RestrictResult(chain.with_terms(kept), error)


def ball_mass(chain: PolyChain, center: np.ndarray, radius: float) -> float:
    """Exact ``||T||(B(center, radius))`` for m <= 2 chains."""
    center = np.asarray(center, dtype=float)
    near = chain.near_ball(center, radius)
    masses = batch_ball_masses(chain.vertex_array()[near], center, radius)
    return float(chain.coeff_norms()[near] @ masses)


def cone(vertex: np.ndarray, chain: PolyChain) -> PolyChain:
    """Cone with apex ``vertex`` over an (m-1)-chain.

    Coefficients are preserved and the orientation is such that for a
    cycle ``T`` the cone's boundary is ``T`` again.  Faces whose affine
    hull contains the apex degenerate and are dropped.
    """
    vertex = np.asarray(vertex, dtype=float)
    terms = []
    for simplex, coeff in chain.terms:
        v = np.vstack([vertex[None, :], simplex.vertices])
        terms.append((Simplex(v), coeff))
    return PolyChain(chain.n, chain.m + 1, chain.group, terms)


def cone_mass_formula(vertex: np.ndarray, chain: PolyChain) -> float:
    """``sum_i ||g_i|| dist(vertex, aff F_i) vol(F_i) / m`` for the cone.

    Agrees with ``mass(cone(vertex, chain))`` to rounding; the two routes
    (Gram determinant versus distance times base volume) are independent.
    """
    vertex = np.asarray(vertex, dtype=float)
    m = chain.m + 1
    total = 0.0
    for simplex, coeff in chain.terms:
        v = simplex.vertices
        rel = vertex - v[0]
        if chain.m == 0:
            dist = float(np.linalg.norm(rel))
        else:
            edges = (v[1:] - v[0]).T  # (n, m-1)
            q, _ = np.linalg.qr(edges)
            dist = float(np.linalg.norm(rel - q @ (q.T @ rel)))
        total += group_norm(coeff) * dist * simplex.volume / m
    return total


def homogeneous_extend(chain: PolyChain, scale: float) -> PolyChain:
    """Scale all vertices about the origin by ``scale``.

    For an m-chain the mass scales exactly by ``scale**m``.
    """
    return chain.with_terms(
        [(Simplex(s.vertices * scale), g) for s, g in chain.terms]
    )


def is_cone(chain: PolyChain, tol: float = 1e-9) -> bool:
    """True if every simplex has a vertex within ``tol`` of the origin."""
    for simplex, _ in chain.terms:
        if float(np.min(np.linalg.norm(simplex.vertices, axis=1))) > tol:
            return False
    return True


def slice_mass_profile(
    chain: PolyChain,
    functional: tuple[np.ndarray, float] | Callable[[np.ndarray], np.ndarray],
    levels: Sequence[float],
    tol: float = 1e-12,
) -> list[tuple[float, float]]:
    """Mass of the hyperplane slices ``T ∩ {f = t}`` for each level ``t``.

    ``functional`` is an affine functional given as ``(a, b)`` meaning
    ``f(x) = a . x + b``.  Slicing each simplex by a level set is exact
    polyhedral intersection; coefficients are inherited, so the profile
    value is ``sum ||g_i|| vol_{m-1}(S_i ∩ {f = t})``.  A simplex lying in
    a queried level set raises (degenerate slicing direction).
    """
    if callable(functional):
        raise TypeError("pass the affine functional as a pair (a, b)")
    a, b = functional
    a = np.asarray(a, dtype=float)
    out = []
    for t in levels:
        total = 0.0
        for simplex, coeff in chain.terms:
            d = simplex.vertices @ a + b - t
            scale = max(1.0, float(np.max(np.abs(simplex.vertices))))
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
                        crossings.append(simplex.vertices[i] + s * (simplex.vertices[j] - simplex.vertices[i]))
            for i in range(k):
                if abs(d[i]) <= tol:
                    crossings.append(np.array(simplex.vertices[i]))
            w = group_norm(coeff)
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
