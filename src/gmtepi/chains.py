"""Polyhedral m-chains in R^n with normed-group coefficients.

A chain is a finite formal sum of oriented m-simplices with coefficients
from a normed abelian group (:mod:`gmtepi.groups`).  Orientation is the
order of the vertex list.  The module provides the boundary operator,
mass and size, affine push-forwards, restriction to half-spaces (exact,
one stacked Sutherland-Hodgman step, for m <= 2), the exact mass in a
ball and a bound on the cone over the boundary of the part in a ball
(m <= 2), the cone construction, scaling and simple support queries,
plus hyperplane slicing.  Two stacked kernels serve the
other modules: the exact sup of a height over simplices cut by a ball or
a cylinder, and the pruned exact point-to-simplex distance pass.

Chains are immutable values; all operations return new chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable, Iterable

import numpy as np

from .groups import GroupSpec, NormedCoefficient
from .quadrature import (_disk_masses, _disk_slices, _norms, _rowdot, _segment_windows, _triangle_frames,
                         _triangle_planes, batch_ball_masses, batch_ball_slices, gram_volumes, simplex_volume)

__all__ = [
    "Simplex",
    "PolyChain",
    "HalfSpaceRegion",
    "boundary",
    "mass",
    "size",
    "pushforward_linear",
    "restrict",
    "cone",
    "cone_mass_formula",
    "ball_cone_bound",
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

#: Coordinates must stay below this in absolute value: beyond it the
#: snapped integer keys would overflow int64 and distinct faces collide.
SNAP_LIMIT = 2.0**62 * SNAP


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

    @classmethod
    def _view(cls, vertices: np.ndarray, volume: float) -> "Simplex":
        """A simplex over a row of a chain's (read-only) vertex stack."""
        s = cls.__new__(cls)
        s.vertices = vertices
        s._volume = volume
        return s

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

    def __repr__(self) -> str:  # pragma: no cover
        return f"Simplex(m={self.m}, n={self.n})"


# -- payloads and keys ---------------------------------------------------------


def coeff_payload(coeff: NormedCoefficient) -> np.ndarray:
    """The payload row of one coefficient, shape (width,), int64."""
    return np.atleast_1d(np.array(coeff.value, dtype=np.int64))


def _payload_coefficient(group: GroupSpec, row: np.ndarray) -> NormedCoefficient:
    """The coefficient of one payload row, shape (width,)."""
    if group.tag == "cantor":
        return NormedCoefficient(group, tuple(row.tolist()))
    return NormedCoefficient(group, int(row[0]))


def _checked_payload(group: GroupSpec, payload, count: int) -> np.ndarray:
    """``payload`` as a (count, width) int64 array; non-integral values and
    Cantor bits outside {0, 1} raise ``ValueError``."""
    width = group.depth if group.tag == "cantor" else 1
    p = np.asarray(payload)
    if p.size == 0:
        p = p.reshape(0, width)
    if p.ndim == 1 and width == 1:
        p = p[:, None]
    if p.shape != (count, width):
        raise ValueError(f"payload shape {p.shape} does not match ({count}, {width})")
    if p.dtype.kind == "f":
        if not np.all(np.isfinite(p) & (p == np.trunc(p)) & (np.abs(p) < 2.0**63)):
            raise ValueError("group payloads must be integers")
    elif p.dtype.kind not in "iub":
        raise ValueError(f"group payloads must be integers, got dtype {p.dtype}")
    p = p.astype(np.int64)
    if group.tag == "cantor" and np.any((p != 0) & (p != 1)):
        raise ValueError("cantor payload bits must be 0 or 1")
    return p


def _check_vertices(verts: np.ndarray) -> None:
    """Reject vertices the snap grid cannot key: one pass over the stack."""
    if verts.size == 0:
        return
    top = float(np.max(np.abs(verts)))
    if not top < SNAP_LIMIT:
        if not np.all(np.isfinite(verts)):
            raise ValueError("chain vertices must be finite")
        raise ValueError(
            f"vertex coordinate {top:.3g} is beyond the snap grid's range {SNAP_LIMIT:.3g}"
        )


def _check_radius(r, what: str) -> None:
    """Reject a radius that is not a finite positive number."""
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"{what} must be finite and positive, got {r}")


def _check_points(points: np.ndarray, shape: tuple, what: str) -> None:
    """Reject points that are not of ``shape`` or not finite."""
    if points.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{what} must be finite")


def _gram_dets(verts: np.ndarray) -> np.ndarray:
    """Gram determinants of the edge vectors of a (T, m+1, n) stack (1 for
    m = 0); per term the same arithmetic as ``simplex_volume``."""
    if verts.shape[1] == 1:
        return np.ones(len(verts))
    e = verts[:, 1:] - verts[:, :1]
    return np.linalg.det(e @ e.transpose(0, 2, 1))


def _vertex_ids(verts: np.ndarray) -> np.ndarray:
    """(T, k) ids of the snapped vertex rows, numbered in lexicographic
    order of the rows, so comparing ids compares the snapped points."""
    T, k, n = verts.shape
    snapped = np.round(verts.reshape(-1, n) / SNAP).astype(np.int64)
    order = np.lexsort(snapped.T[::-1])
    rows = snapped[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids.reshape(T, k)


def _canonical(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted vertex ids of each simplex (its key as a point set) and the
    parity +-1 of the sorting permutation (ties keep their order)."""
    k = ids.shape[1]
    inversions = np.zeros(len(ids), dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            inversions += ids[:, i] > ids[:, j]
    return np.sort(ids, axis=1), 1 - 2 * (inversions % 2)


def _classes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal key rows: the class of each row, classes numbered by
    first occurrence, and the row where each class first occurs.

    Adjacent id columns are packed into one int64 ``a * top + b``, which
    sorts as the pair does, so the stable sort over the packed columns
    orders rows as a lexsort over all columns would."""
    top = int(keys.max(initial=-1)) + 1
    assert top * top < 2**63, "too many vertex ids to pack two into an int64"
    k = keys.shape[1]
    packed = np.concatenate([keys[:, 0 : k - 1 : 2] * top + keys[:, 1::2], keys[:, k - k % 2 :]], axis=1)
    order = np.lexsort(packed.T[::-1])
    rows = packed[order]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    first = order[start]  # the sort is stable: the earliest row of each class
    by_first = np.argsort(first)
    relabel = np.empty_like(by_first)
    relabel[by_first] = np.arange(len(by_first))
    cls = np.empty(len(keys), dtype=np.int64)
    cls[order] = relabel[np.cumsum(start) - 1]
    return cls, first[by_first]


def _accumulate(
    group: GroupSpec, payload: np.ndarray, sign: np.ndarray, cls: np.ndarray, count: int
) -> np.ndarray:
    """Group sums of ``sign * payload`` per class: integer addition, or XOR
    for the Cantor group, where every element is its own inverse."""
    acc = np.zeros((count, payload.shape[1]), dtype=np.int64)
    if group.tag == "cantor":
        np.bitwise_xor.at(acc, cls, payload)
    else:
        np.add.at(acc, cls, sign[:, None] * payload)
    return acc


def _payload_norms(group: GroupSpec, payload: np.ndarray) -> np.ndarray:
    """Float norms, equal to ``group_norm`` bit for bit."""
    if group.tag == "integers":
        return np.abs(payload[:, 0]).astype(float)
    if group.tag == "unit":
        return (payload[:, 0] != 0).astype(float)
    # Python-int true division is correctly rounded at every depth, as
    # float(Fraction) is
    denom = 3 ** payload.shape[1]
    return np.array([int("".join(map(str, row)), 3) / denom for row in payload.tolist()], dtype=float)


# -- chains --------------------------------------------------------------------


class ChainTerms(Sequence):
    """The terms of a chain as ``(Simplex, NormedCoefficient)`` pairs, built
    on access from the chain's arrays."""

    __slots__ = ("chain",)

    def __init__(self, chain: "PolyChain"):
        self.chain = chain

    def __len__(self) -> int:
        return len(self.chain.verts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        c = self.chain
        i = range(len(self))[i]
        return Simplex._view(c.verts[i], float(c.volumes()[i])), c.coefficient(i)


class PolyChain:
    """Finite weighted sum of oriented m-simplices in R^n.

    Stored as ``verts`` (T, m+1, n) float64 and ``payload`` (T, width)
    int64, one row per term (width is the depth for the Cantor group and 1
    otherwise).  Build from ``terms``, a sequence of ``(Simplex,
    NormedCoefficient)`` pairs, or from the arrays via the ``verts`` and
    ``payload`` keywords.  Construction drops zero coefficients and
    degenerate simplices, so the canonical form invariant holds by
    construction; it rejects non-finite vertices, coordinates beyond
    ``SNAP_LIMIT`` and non-integral payloads with ``ValueError``.
    ``terms`` is a lazy view of the same data.
    """

    __slots__ = ("n", "m", "group", "verts", "payload", "_cache")

    def __init__(
        self,
        n: int,
        m: int,
        group: GroupSpec,
        terms: Iterable[tuple[Simplex, NormedCoefficient]] = (),
        *,
        verts: np.ndarray | None = None,
        payload: np.ndarray | None = None,
    ):
        if verts is None:
            verts, payload = _term_arrays(n, m, group, terms)
        verts = np.asarray(verts, dtype=float)
        if verts.size == 0:
            verts = verts.reshape(0, m + 1, n)
        if verts.ndim != 3 or verts.shape[1:] != (m + 1, n):
            raise ValueError("simplex dimension mismatch")
        payload = _checked_payload(group, payload, len(verts))
        _check_vertices(verts)
        self._fill(n, m, group, verts, payload, _gram_dets(verts))

    def _fill(self, n: int, m: int, group: GroupSpec, verts: np.ndarray, payload: np.ndarray, gram: np.ndarray, ids=None):
        keep = (gram >= DEGENERATE_GRAM) & np.any(payload != 0, axis=1)
        self.n = n
        self.m = m
        self.group = group
        self.verts = verts[keep]
        self.payload = payload[keep]
        self.verts.flags.writeable = False
        self.payload.flags.writeable = False
        self._cache: dict = {"gram": gram[keep]}
        if ids is not None:
            self._cache["ids"] = ids[keep]

    def _from_rows(self, verts: np.ndarray, payload: np.ndarray, gram: np.ndarray, ids=None) -> "PolyChain":
        """A chain of the same shape and group over rows of built chains,
        with their Gram determinants ``gram``: ``_gram_dets`` computes each
        row on its own, so they are the floats it would give again.  Vertex
        ids ``ids`` from one weld of the rows are kept for ``boundary``."""
        chain = object.__new__(PolyChain)
        chain._fill(self.n, self.m, self.group, verts, payload, gram, ids)
        return chain

    @property
    def terms(self) -> ChainTerms:
        return ChainTerms(self)

    def __len__(self) -> int:
        return len(self.verts)

    @property
    def is_zero(self) -> bool:
        return len(self.verts) == 0

    def coefficient(self, i: int) -> NormedCoefficient:
        return _payload_coefficient(self.group, self.payload[i])

    def vertex_array(self) -> np.ndarray:
        """Stacked vertices, shape (terms, m+1, n)."""
        return self.verts

    def coeff_norms(self) -> np.ndarray:
        if "cn" not in self._cache:
            self._cache["cn"] = _payload_norms(self.group, self.payload)
        return self._cache["cn"]

    def volumes(self) -> np.ndarray:
        if "vol" not in self._cache:
            self._cache["vol"] = gram_volumes(self._cache["gram"], self.m)
        return self._cache["vol"]

    def diameters(self) -> np.ndarray:
        if "diam" not in self._cache:
            i, j = np.triu_indices(self.verts.shape[1], 1)
            edges = np.linalg.norm(self.verts[:, i] - self.verts[:, j], axis=2)
            self._cache["diam"] = np.max(edges, axis=1, initial=0.0)
        return self._cache["diam"]

    def frames(self, rows) -> np.ndarray | None:
        """In-plane frames of the triangles ``rows``, factored once per chain; None for m = 1."""
        if self.m == 2 and "frame" not in self._cache:
            self._cache["frame"] = _triangle_frames(self.verts)
        return self._cache["frame"][rows] if self.m == 2 else None

    def near_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of the terms whose simplex may meet ``B(center, radius)``:
        those with a vertex within ``radius`` plus the simplex diameter.  A
        radius that is not positive raises ``ValueError``."""
        if not radius > 0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        return np.nonzero(self.reach(center) <= radius)[0]

    def reach(self, center: np.ndarray) -> np.ndarray:
        """Each term's nearest vertex distance from ``center`` minus its
        diameter, a lower bound of its distance; the last centre's are
        kept, since a scan, its certificate and a profile ask about one
        point in turn."""
        center = np.asarray(center, dtype=float)
        key = center.tobytes()
        if self._cache.get("reach", (None,))[0] != key:
            dist = _norms(self.verts - center).min(axis=1)
            self._cache["reach"] = key, dist - self.diameters()
        return self._cache["reach"][1]

    def planes(self, center: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        """The triangles ``rows`` seen from ``center``: their in-plane
        vertices relative to the feet of the perpendiculars and the squared
        distances of their planes (:func:`~gmtepi.quadrature._triangle_planes`),
        for m = 2.  Every triangle is projected once per centre and the last
        centre's are kept, as for :meth:`reach`: a density profile asks
        about one point at many radii."""
        center = np.asarray(center, dtype=float)
        key = center.tobytes()
        if self._cache.get("planes", (None,))[0] != key:
            self._cache["planes"] = key, _triangle_planes(self.verts, center, self.frames(slice(None)))[:2]
        poly, h2 = self._cache["planes"][1]
        return poly[rows], h2[rows]

    def with_terms(self, terms) -> "PolyChain":
        return PolyChain(self.n, self.m, self.group, terms)

    def with_arrays(self, verts: np.ndarray, payload: np.ndarray) -> "PolyChain":
        """A chain of the same shape and group over new arrays."""
        return PolyChain(self.n, self.m, self.group, verts=verts, payload=payload)

    def __add__(self, other: "PolyChain") -> "PolyChain":
        if (self.n, self.m, self.group) != (other.n, other.m, other.group):
            raise ValueError("chain shape mismatch")
        rows = zip((self.verts, self.payload, self._cache["gram"]),
                   (other.verts, other.payload, other._cache["gram"]))
        return merge_terms(self._from_rows(*(np.concatenate(pair) for pair in rows)))

    def __neg__(self) -> "PolyChain":
        neg = self.payload if self.group.tag == "cantor" else -self.payload
        return self._from_rows(self.verts, neg, self._cache["gram"])

    def __sub__(self, other: "PolyChain") -> "PolyChain":
        return self + (-other)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolyChain(n={self.n}, m={self.m}, terms={len(self)})"


def _term_arrays(n: int, m: int, group: GroupSpec, terms) -> tuple[np.ndarray, np.ndarray]:
    """The vertex stack and payload of a sequence of term pairs."""
    if isinstance(terms, ChainTerms):
        c = terms.chain
        if c.group != group:
            raise ValueError("coefficient group mismatch")
        return c.verts, c.payload
    pairs = list(terms)
    if not pairs:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    simplices, coeffs = zip(*pairs)
    if any(c.spec != group for c in coeffs):
        raise ValueError("coefficient group mismatch")
    shapes = {s.vertices.shape for s in simplices}
    if shapes != {(m + 1, n)}:
        raise ValueError("simplex dimension mismatch")
    verts = np.stack([s.vertices for s in simplices])
    payload = np.array([c.value for c in coeffs], dtype=np.int64).reshape(len(coeffs), -1)
    return verts, payload


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
    and its place in the term order, and later coefficients are
    accumulated relative to it, so a chain of positively-projecting
    simplices stays positively projecting.  The result keeps the weld's
    vertex ids of its rows: they are numbered in the lexicographic order of
    the snapped points, so any subset of them compares as a fresh weld of
    that subset would.
    """
    ids, first, acc = _welded_classes(chain)
    return chain._from_rows(chain.verts[first], acc, chain._cache["gram"][first], ids[first])


def _welded_classes(chain: PolyChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex ids of the chain's rows from one weld, the first row of
    each coincidence class, and each class's group sum relative to the
    orientation of that row."""
    ids = _vertex_ids(chain.verts)
    keys, parity = _canonical(ids)
    cls, first = _classes(keys)
    return ids, first, _accumulate(chain.group, chain.payload, parity * parity[first][cls], cls, len(first))


def boundary(chain: PolyChain) -> PolyChain:
    """Alternating-sign face sum; coincident faces cancel by group addition.

    Each face class keeps its first-seen face, in first-seen order,
    reoriented (first two vertices swapped) to the sorted vertex order, and
    classes that sum to zero are dropped before their faces are gathered.
    A merged chain's vertex ids are reused, so the rows are welded once.
    Satisfies ``boundary(boundary(T))`` having zero mass.
    """
    if chain.m < 1:
        raise ValueError("boundary needs m >= 1")
    T, k, n = chain.verts.shape
    drop = np.array([[c for c in range(k) if c != j] for j in range(k)])  # (k, k-1)
    ids = chain._cache["ids"] if "ids" in chain._cache else _vertex_ids(chain.verts)
    keys, parity = _canonical(ids[:, drop].reshape(T * k, k - 1))
    sign = np.tile(1 - 2 * (np.arange(k) % 2), T) * parity
    cls, first = _classes(keys)
    acc = _accumulate(chain.group, np.repeat(chain.payload, k, axis=0), sign, cls, len(first))
    live = np.any(acc != 0, axis=1)
    first = first[live]
    canon = chain.verts[(first // k)[:, None], drop[first % k]]
    if k - 1 >= 2:
        flip = parity[first] < 0
        canon[flip] = canon[flip][:, [1, 0] + list(range(2, k - 1))]
    return PolyChain(n, chain.m - 1, chain.group, verts=canon, payload=acc[live])


def mass(chain: PolyChain) -> float:
    """``sum_i ||g_i|| vol(S_i)`` with exact simplex volumes."""
    if chain.is_zero:
        return 0.0
    return float(np.dot(chain.coeff_norms(), chain.volumes()))


def size(chain: PolyChain) -> float:
    """Hausdorff volume of the carrier: identical simplices counted once."""
    # summed in term order, one term per coincidence class
    return float(sum(merge_terms(chain).volumes().tolist()))


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
    v = chain.verts @ matrix.T
    if shift is not None:
        v = v + shift
    return PolyChain(matrix.shape[0], chain.m, chain.group, verts=v, payload=chain.payload)


def _clip_polygons(
    polys: np.ndarray, counts: np.ndarray, anchors: np.ndarray, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman step on a stack of convex polygons.

    Polygon i, planar in R^D (an m-simplex, m <= 2, has m + 1 vertices),
    is the first ``counts[i]`` rows of ``polys[i]`` (K, V, D); it keeps the
    part where ``(p - anchors[i]) . normals[i] >= 0``, with a -1e-14
    tolerance.  Returns the zero-padded stack and the new counts.  Each
    kept vertex is followed by the crossing on its outgoing edge, so the
    cyclic order, and with it the orientation, is kept."""
    col = np.arange(polys.shape[1])
    live = col < counts[:, None]
    nxt = np.where(col + 1 < counts[:, None], col + 1, 0)
    dp = _rowdot(polys - anchors[:, None], normals[:, None])
    dq = np.take_along_axis(dp, nxt, axis=1)
    keep = live & (dp >= -1e-14)
    cross = live & ((dp >= -1e-14) != (dq >= -1e-14))
    q = np.take_along_axis(polys, nxt[..., None], axis=1)
    hits = polys + (q - polys) * (dp / np.where(cross, dp - dq, 1.0))[..., None]
    emits = keep + cross.astype(np.int64)
    at = np.cumsum(emits, axis=1) - emits
    out = np.zeros((len(polys), max(int(emits.sum(axis=1).max(initial=0)), 1), polys.shape[2]))
    r, c = np.nonzero(keep)
    out[r, at[r, c]] = polys[r, c]
    r, c = np.nonzero(cross)
    out[r, at[r, c] + keep[r, c]] = hits[r, c]
    return out, emits.sum(axis=1)


#: Relative slack of the sup kernel's vertex and edge-root tests.
_SUP_TOL = 1e-12

#: The vertex pairs (i, j), i < j, of a simplex with k vertices.
_EDGES = {k: np.triu_indices(k, 1) for k in (1, 2, 3)}


def _region_sups(q: np.ndarray, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The largest ``|h|`` over the points of each simplex with ``|q| <= r``.

    Row t is an m-simplex, m <= 2, given by the affine region coordinates
    ``q[t]`` (m+1, d) and heights ``h[t]`` (m+1, c) of its vertices, and
    ``r[t]`` is the radius of its round region (a ball: ``q = v - x``; a
    cylinder: ``q`` the base coordinates).  ``|h|`` is convex, so the max
    lies at a vertex inside the region, at a root of ``|q|^2 = r^2`` on an
    edge, or on a triangle at a critical point of ``|h|^2`` on the ellipse
    ``|q| = r`` inside it (:func:`_arc_sups`).  A row the region misses
    reads 0."""
    T, k = q.shape[:2]
    if not T:
        return np.zeros(0)
    r2 = r * r
    qq = _rowdot(q, q)
    near = qq <= r2[:, None] * (1.0 + 2.0 * _SUP_TOL)
    best = np.where(near, _norms(h), 0.0).max(axis=1)
    i, j = _EDGES[k]
    p, dd = q[:, i], q[:, j] - q[:, i]
    aa = _rowdot(dd, dd)
    bb = 2.0 * _rowdot(p, dd)
    disc = bb * bb - 4.0 * aa * (qq[:, i] - r2[:, None])
    cut = (aa > 0) & (disc >= 0)
    sq = np.sqrt(np.where(cut, disc, 0.0))
    den = 2.0 * np.where(cut, aa, 1.0)
    t = np.array([(-bb - sq) / den, (-bb + sq) / den]).transpose(1, 2, 0)
    on = cut[..., None] & (t >= -_SUP_TOL) & (t <= 1.0 + _SUP_TOL)
    hv = h[:, i, None] + t.clip(0.0, 1.0)[..., None] * (h[:, j] - h[:, i])[:, :, None]
    best = np.maximum(best, np.where(on, _norms(hv), 0.0).max(axis=(1, 2)))
    if k == 3:
        arc = (~near.all(axis=1)).nonzero()[0]
        best[arc] = np.maximum(best[arc], _arc_sups(q[arc], h[arc], r2[arc]))
    return best


def _sup_pass(*requests) -> list:
    """Answer each request ``(q, h, r, finish)`` as ``finish(sups)`` with
    its own rows' :func:`_region_sups`, from one kernel call over the rows
    of all segment requests: region coordinates narrower than the widest
    (a cylinder's base beside a ball's ambient ones) are padded with zeros,
    and each sum of products then adds exact zeros to one product.
    Triangle rows go in one call per coordinate width, since the projection
    of a triangle's arc rounds by the width of its product.  So every
    answer is the one a pass of its request alone gives."""
    groups: dict[int, list[int]] = {}
    for i, (q, *_) in enumerate(requests):
        groups.setdefault(0 if q.shape[1] == 2 else q.shape[2], []).append(i)
    sups = [None] * len(requests)
    for group in groups.values():
        ends = np.cumsum([0] + [len(requests[i][2]) for i in group]).tolist()
        q = np.zeros((ends[-1], requests[group[0]][0].shape[1], max(requests[i][0].shape[2] for i in group)))
        for i, lo, hi in zip(group, ends, ends[1:]):
            q[lo:hi, :, : requests[i][0].shape[2]] = requests[i][0]
        out = _region_sups(q, np.concatenate([requests[i][1] for i in group]), np.concatenate([requests[i][2] for i in group]))
        for i, lo, hi in zip(group, ends, ends[1:]):
            sups[i] = out[lo:hi]
    return [request[3](sup) for request, sup in zip(requests, sups)]


def _arc_roots(lead: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """The roots (N, 4) of ``lead z^4 + c3 z^3 + conj(c3) z + conj(lead)``,
    ``lead != 0``, by Ferrari's form for ``z^4 + a z^3 + b z + c`` (or for
    ``|a| > 1e4``, where it cancels, by ``-a, +-sqrt(-b/a), -c/b``) and two Newton steps."""
    a, b, c = (c3 / lead)[:, None], (np.conj(c3) / lead)[:, None], (np.conj(lead) / lead)[:, None]
    # y^4 + p y^2 + q y + r at z = y - a/4, and by Cardano the largest root
    # m of its resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8
    p, q, r = -0.375 * a * a, 0.125 * a**3 + b, c - 0.25 * a * b - a**4 * (3.0 / 256.0)
    P, Q = -p * p / 12.0 - r, p * r / 3.0 - p**3 / 108.0 - 0.125 * q * q
    d = np.sqrt(0.25 * Q * Q + P**3 / 27.0)
    w = np.where(np.abs(d - 0.5 * Q) >= np.abs(d + 0.5 * Q), d - 0.5 * Q, -d - 0.5 * Q)
    C = np.cbrt(np.abs(w)) * np.exp(1j * (np.angle(w) + 2.0 * math.pi * np.arange(3)) / 3.0)
    m = C - np.divide(P, 3.0 * C, out=np.zeros_like(C), where=C != 0) - p / 3.0
    m = np.take_along_axis(m, np.argmax(np.abs(m), axis=1)[:, None], axis=1)
    # its quadratic factors y^2 + B y + p/2 + m - q/(2B), B = -+sqrt(2m)
    B = np.sqrt(2.0 * m) * np.array([-1.0, 1.0])
    K = 0.5 * p + m - np.divide(0.5 * q, B, out=np.zeros_like(B), where=B != 0)
    e = np.sqrt(B * B - 4.0 * K)
    y = -0.5 * (B + np.where((np.conj(B) * e).real >= 0, e, -e))
    z = np.concatenate([y, np.divide(K, y, out=np.zeros_like(y), where=y != 0)], axis=1) - 0.25 * a
    big = np.abs(a) > 1e4
    s, bb = np.sqrt(-b / np.where(big, a, 1.0)), np.where(big, b, 1.0)
    z = np.where(big, np.concatenate([-a, s, -s, -c / bb], axis=1), z)
    for _ in range(2):
        df = (4.0 * z + 3.0 * a) * z * z + b
        z = z - np.divide(((z + a) * z * z + b) * z + c, df, out=np.zeros_like(z), where=df != 0)
    return z


def _arc_sups(q: np.ndarray, h: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """The largest ``|h|`` over the arc of ``|q|^2 = r2`` inside each
    triangle of :func:`_region_sups`; 0 where the arc is empty or the
    q-edges ``D = [q1 - q0, q2 - q0]`` have rank below 2.

    With ``D = QR`` and ``a = Q^T q0``, the points ``z = a + R mu`` of the
    arc are ``rho (cos t, sin t)``, ``rho^2 = r2 - |q0 - Q a|^2``, and there
    ``h = b + P (cos t, sin t)`` with ``P = rho H R^-1``, ``H = [h1 - h0,
    h2 - h0]``.  So ``|h|^2`` is a trig polynomial of degree 2 in t, and
    ``2 z^2`` times its derivative, ``z = e^{it}``, is the quartic
    ``(B + iA) z^4 + (g1 + i g0) z^3 + (g1 - i g0) z + (B - iA)``, where
    ``g = P^T b``, ``S = P^T P``, ``A = (S00 - S11) / 2`` and ``B = S01``.
    The candidates are the angles of its roots (:func:`_arc_roots`) and
    the degree-1 critical points ``atan2(g1, g0)`` and that plus pi, which
    stand alone where the leading coefficient is below 1e-8 of the next
    (it then moves the roots by about that much; such a row's quartic is
    ``z^4 + 1``).  Each candidate is a point of the arc and counts only
    with barycentric coordinates ``>= 0``, so no root error can raise the
    sup, and at a critical point an angle error d moves ``|h|`` by O(d^2)
    only; a constant ``|h|`` takes any point."""
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
    roots = _arc_roots(np.where(quartic, c4, 1.0), np.where(quartic, c3, 0.0))
    t0 = np.arctan2(g1, g0)[:, None]
    t = np.concatenate([t0, t0 + math.pi, np.angle(roots)], axis=1)
    mu1 = (rho * np.sin(t) - a[:, 1:]) / r11
    mu0 = (rho * np.cos(t) - a[:, :1] - r01 * mu1) / r00
    inside = (mu0 >= 0) & (mu1 >= 0) & (mu0 + mu1 <= 1)
    hv = h0[:, None] + mu0[..., None] * H1[:, None] + mu1[..., None] * H2[:, None]
    out[rows] = np.max(np.where(inside, np.linalg.norm(hv, axis=2), 0.0), axis=1)
    return out


#: Most (point, simplex) pairs that one pass of the distance kernel measures.
_DIST_CHUNK = 1 << 14
#: Most query points in one spatial chunk of the pruned distance pass.
_PRUNE_POINTS = 32


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


def _dist_to_simplices(va: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact distances from points (P, n) to the union of the simplices
    ``va`` (T, m+1, n), m <= 2; a point cloud is a stack of 0-simplices.

    Each compact chunk of points (centre c, radius rho) keeps the
    simplices with d(c, t) <= min_t d(c, t) + 2 rho, plus a rounding
    slack.  A point q of the chunk is first measured against the seed s_c,
    the simplex nearest c, which gives u(q) = d(q, s_c) >= d(q), and then
    only against the kept t with d(c, t) - |q - c| <= u(q) + slack.  Its
    nearest simplex t* passes both rules, since d(c, t*) <= d(q) + |q - c|
    and d(q) <= d(c, s_c) + |q - c|.  Each point-simplex distance is
    computed on its own, so the minimum over the measured simplices is the
    float the unpruned pass returns.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(va) == 0:
        return np.full(len(points), np.inf)
    if len(points) <= 1:
        # a lone point is its chunk's centre, and the centre pass measures it
        return np.min(_pair_dists(va, points), axis=1, initial=np.inf)
    chunks = _point_chunks(points)
    centres = np.array([0.5 * (points[i].min(axis=0) + points[i].max(axis=0)) for i in chunks])
    order = np.concatenate(chunks)  # the points chunk by chunk
    sizes = np.array([len(i) for i in chunks])
    owner = np.repeat(np.arange(len(chunks)), sizes)
    off = np.linalg.norm(points[order] - centres[owner], axis=1)
    rho = np.maximum.reduceat(off, np.cumsum(sizes) - sizes)
    # far above the rounding of a computed distance, which scales with the
    # coordinates
    slack = 1e-9 * max(float(np.max(np.abs(va))), float(np.max(np.abs(points))))
    # the centre pass: each chunk's seed and its kept simplices (chunk by
    # chunk, in term order) with their distances to the centre
    seed = np.empty(len(chunks), dtype=np.int64)
    kept = []
    step = max(1, _DIST_CHUNK // len(va))
    for lo in range(0, len(chunks), step):
        dc = _pair_dists(va, centres[lo : lo + step])
        seed[lo : lo + step] = np.argmin(dc, axis=1)
        k, t = np.nonzero(dc <= np.min(dc, axis=1, keepdims=True) + 2 * rho[lo : lo + step, None] + slack)
        kept.append((k + lo, t, dc[k, t]))
    kc, kt, kd = (np.concatenate(a) for a in zip(*kept))
    nkept = np.bincount(kc, minlength=len(chunks))
    u = _flat_dists(va, points, order, seed[owner])
    out = np.empty(len(points))
    out[order] = u
    # each point against its chunk's kept simplices, in runs of whole
    # chunks of at most _DIST_CHUNK (point, simplex) tests
    cut = (np.flatnonzero(np.diff(np.cumsum(sizes * nkept) // _DIST_CHUNK)) + 1).tolist()
    first = np.r_[0, np.cumsum(sizes)]
    kfirst = np.r_[0, np.cumsum(nkept)]
    for lo, hi in zip([0, *cut], [*cut, len(chunks)]):
        q = np.arange(first[lo], first[hi])  # positions in ``order``
        per = nkept[owner[q]]
        qi = np.repeat(q, per)
        e = kfirst[owner[qi]] + np.arange(len(qi)) - np.repeat(np.cumsum(per) - per, per)
        # the seed is in u already
        meet = (kd[e] - off[qi] <= u[qi] + slack) & (kt[e] != seed[owner[qi]])
        qi, e = qi[meet], e[meet]
        if not len(qi):
            continue
        runs = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
        best = np.minimum.reduceat(_flat_dists(va, points, order[qi], kt[e]), runs)
        at = order[qi[runs]]
        out[at] = np.minimum(out[at], best)
    return out


def _flat_dists(va: np.ndarray, points: np.ndarray, pi: np.ndarray, ti: np.ndarray) -> np.ndarray:
    """Distances (K,) from ``points[pi]`` to the simplices ``va[ti]``, in
    passes of :data:`_DIST_CHUNK` pairs; the same floats as
    :func:`_pair_dists` gives for each pair."""
    parts = [slice(lo, lo + _DIST_CHUNK) for lo in range(0, len(pi), _DIST_CHUNK)]
    return np.concatenate([_dists(va[ti[s]], points[pi[s]]) for s in parts])


def _pair_dists(va: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances (P, T) from points (P, n) to the simplices ``va`` (T, m+1, n)."""
    return _dists(va, points[:, None, :])


def _segment_dists(q0: np.ndarray, q1: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances from points p (..., n) to the segments [q0, q1] (..., n)."""
    dd = q1 - q0
    den = np.maximum(np.einsum("...j,...j->...", dd, dd), 1e-300)
    u = (np.einsum("...j,...j->...", p - q0, dd) / den).clip(0.0, 1.0)
    return _norms(q0 + u[..., None] * dd - p)


def _dists(va: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances from points p (..., n) to the simplices ``va`` (..., m+1,
    n), broadcast against each other.  Each pair's float depends on that
    pair alone: a block (P, 1, n) against (T, m+1, n) and a flat stack of
    pairs give the same values."""
    v0 = va[..., 0, :]
    if va.shape[-2] == 1:
        return np.linalg.norm(p - v0, axis=-1)
    if va.shape[-2] == 2:
        return _segment_dists(v0, va[..., 1, :], p)
    # point-triangle distance: the interior foot where the barycentric
    # solve lands inside, else the nearest of the three edges; a flat
    # triangle's foot overflows, and is not used
    e1 = va[..., 1, :] - v0
    e2 = va[..., 2, :] - v0
    w = p - v0
    a = np.einsum("...j,...j->...", e1, e1)
    b = np.einsum("...j,...j->...", e1, e2)
    c = np.einsum("...j,...j->...", e2, e2)
    d1 = np.einsum("...j,...j->...", w, e1)
    d2 = np.einsum("...j,...j->...", w, e2)
    det = np.maximum(a * c - b * b, 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        sbar = (c * d1 - b * d2) / det
        tbar = (a * d2 - b * d1) / det
        inside = (sbar >= 0) & (tbar >= 0) & (sbar + tbar <= 1)
        foot = v0 + sbar[..., None] * e1 + tbar[..., None] * e2
        best = np.where(inside, np.linalg.norm(foot - p, axis=-1), np.inf)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        best = np.minimum(best, _segment_dists(va[..., i, :], va[..., j, :], p))
    return best


def _fan_split(polys: np.ndarray, counts: np.ndarray, src: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-simplices (K, m+1, D) of clipped m-polygons, m <= 2, in order,
    and the entry of ``src`` each comes from.

    Two clip edges through one point emit it twice, ulps apart, and the
    sliver between the copies can pass ``DEGENERATE_GRAM``, so a vertex
    within ``SNAP`` (each coordinate) of its predecessor goes, as does the
    last one that close to the first; the earlier copy, which neighbouring
    pieces share, stays.  A polygon then splits into the fan from its
    first vertex (m = 2) or keeps its first m + 1 vertices, in order."""
    V, D = polys.shape[1:]
    col = np.arange(V)
    near = np.all(np.abs(np.diff(polys, axis=1)) <= SNAP, axis=2)  # vertex i + 1 against vertex i
    near |= (col[1:] == counts[:, None] - 1) & np.all(np.abs(polys[:, 1:] - polys[:, :1]) <= SNAP, axis=2)
    keep = (col < counts[:, None]) & ~np.pad(near, ((0, 0), (1, 0)))
    packed = np.take_along_axis(polys, np.argsort(~keep, axis=1, kind="stable")[..., None], axis=1)
    counts = keep.sum(axis=1)
    if m == 2:
        r, j = np.nonzero(col[1:-1] < counts[:, None] - 1)
        verts = np.stack([packed[r, 0], packed[r, j + 1], packed[r, j + 2]], axis=1)
    else:
        r = np.flatnonzero(counts > m)
        verts = packed[r, : m + 1].reshape(len(r), m + 1, D)
    return verts, src[r]


def restrict(chain: PolyChain, region: HalfSpaceRegion) -> PolyChain:
    """Restrict a chain of dimension m <= 2 to a half-space, exactly: one
    stacked Sutherland-Hodgman step and a fan split of the kept pieces."""
    if not isinstance(region, HalfSpaceRegion):
        raise TypeError(f"unsupported region {type(region)!r}")
    if chain.m > 2:
        raise NotImplementedError("half-space restriction supports m <= 2")
    T, k, n = chain.verts.shape
    nrm = region.normal
    anchor = region.offset / float(nrm @ nrm) * nrm  # nrm . anchor = offset
    polys, counts = _clip_polygons(chain.verts, np.full(T, k), np.tile(anchor, (T, 1)), np.tile(nrm, (T, 1)))
    verts, kept = _fan_split(polys, counts, np.arange(T), chain.m)
    return chain.with_arrays(verts, chain.payload[kept])


def ball_mass(chain: PolyChain, center: np.ndarray, radius: float) -> float:
    """Exact ``||T||(B(center, radius))`` for chains with m in (1, 2); a
    triangle chain clips its cached :meth:`PolyChain.planes` at ``radius``."""
    center = np.asarray(center, dtype=float)
    near = chain.near_ball(center, radius)
    if chain.m == 2:
        masses = _disk_masses(*chain.planes(center, near), radius)
    else:
        masses = batch_ball_masses(chain.verts[near], center, radius)
    return float(chain.coeff_norms()[near] @ masses)


def cone(vertex: np.ndarray, chain: PolyChain) -> PolyChain:
    """Cone with apex ``vertex`` over an (m-1)-chain.

    Coefficients are preserved and the orientation is such that for a
    cycle ``T`` the cone's boundary is ``T`` again.  Faces whose affine
    hull contains the apex degenerate and are dropped.
    """
    vertex = np.asarray(vertex, dtype=float)
    apex = np.broadcast_to(vertex, (len(chain), 1, chain.n))
    v = np.concatenate([apex, chain.verts], axis=1)
    return PolyChain(chain.n, chain.m + 1, chain.group, verts=v, payload=chain.payload)


def cone_mass_formula(vertex: np.ndarray, chain: PolyChain) -> float:
    """``sum_i ||g_i|| dist(vertex, aff F_i) vol(F_i) / m`` for the cone.

    Agrees with ``mass(cone(vertex, chain))`` to rounding; the two routes
    (Gram determinant versus distance times base volume) are independent.
    The distances come from one stacked QR of the faces' edges.
    """
    if chain.is_zero:
        return 0.0
    rel = np.asarray(vertex, dtype=float) - chain.verts[:, 0]
    if chain.m:
        q = np.linalg.qr(np.swapaxes(chain.verts[:, 1:] - chain.verts[:, :1], 1, 2))[0]  # (T, n, m)
        rel = rel - (q @ (np.swapaxes(q, 1, 2) @ rel[..., None]))[..., 0]
    return float(chain.coeff_norms() @ (np.linalg.norm(rel, axis=1) * chain.volumes())) / (chain.m + 1)


def ball_cone_bound(chain: PolyChain, center: np.ndarray, radius: float) -> float:
    """An upper bound on the mass of the cone from ``center`` over
    ``∂(T⌞B)``, B = B(center, radius), for m <= 2 chains.

    ``∂(T⌞B)`` is the sphere slice of T plus ``(∂T)⌞B``.  The cone over a
    piece of the sphere has mass radius/m times the piece's, and the slice
    has mass at most ``sum_i ||g_i|| H^{m-1}(S_i ∩ ∂B)``
    (:func:`~gmtepi.quadrature.batch_ball_slices`).  The cone over
    ``(∂T)⌞B`` is :func:`cone_mass_formula` of the boundary faces clipped
    to the closed ball; the terms ``near_ball`` culls lie outside the ball,
    so the boundary of the near terms has the same part in it.  The mass
    of a sum is at most the sum of the masses.
    """
    center = np.asarray(center, dtype=float)
    near = chain.near_ball(center, radius)
    if chain.m == 2:
        arcs = _disk_slices(*chain.planes(center, near), radius)
    else:
        arcs = batch_ball_slices(chain.verts[near], center, radius)
    bound = radius / chain.m * float(chain.coeff_norms()[near] @ arcs)
    faces = boundary(chain._from_rows(chain.verts[near], chain.payload[near], chain._cache["gram"][near]))
    if chain.m == 1:
        rel = faces.verts[:, 0] - center
        inside = _rowdot(rel, rel) <= radius * radius
        clipped = faces.with_arrays(faces.verts[inside], faces.payload[inside])
    else:
        _p, d, t1, t2, _length, hit = _segment_windows(faces.verts, center, radius)
        v0 = faces.verts[hit, 0]
        ends = np.stack([v0 + t1[:, None] * d, v0 + t2[:, None] * d], axis=1)
        clipped = faces.with_arrays(ends, faces.payload[hit])
    return bound + cone_mass_formula(center, clipped)


def homogeneous_extend(chain: PolyChain, scale: float) -> PolyChain:
    """Scale all vertices about the origin by ``scale``.

    For an m-chain the mass scales exactly by ``scale**m``.
    """
    return chain.with_arrays(chain.verts * scale, chain.payload)


def is_cone(chain: PolyChain) -> bool:
    """True if every simplex has a vertex within 1e-9 of the origin."""
    return bool(np.all(np.min(np.linalg.norm(chain.verts, axis=2), axis=1) <= 1e-9))


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
    value is ``sum ||g_i|| vol_{m-1}(S_i ∩ {f = t})``, added in term order.
    A simplex lying in a queried level set raises (degenerate slicing
    direction).  Each level slices every simplex in one pass: a simplex is
    cut when it has vertices more than ``tol`` below and above the level,
    a cut segment meets it in one point, and a cut triangle in the segment
    between two points, each an edge crossing or a vertex within ``tol``
    (:func:`_cut_triangles`).
    """
    if callable(functional):
        raise TypeError("pass the affine functional as a pair (a, b)")
    a, b = functional
    v = chain.verts
    scale = np.maximum(1.0, np.max(np.abs(v), axis=(1, 2)))[:, None]
    out = []
    for t in levels:
        d = v @ np.asarray(a, dtype=float) + b - t
        if np.any(np.all(np.abs(d) <= tol * scale, axis=1)):
            raise ValueError("functional is constant on a simplex at a queried level")
        cut = np.flatnonzero(np.any(d < -tol, axis=1) & np.any(d > tol, axis=1))
        if len(cut) and chain.m > 2:
            raise NotImplementedError("slice profiles support m <= 2")
        size = np.ones(len(cut))
        if chain.m == 2:
            p, q, _ = _cut_triangles(v[cut], d[cut], tol)
            size = np.sqrt(_rowdot(p - q, p - q))
        out.append((float(t), sum((chain.coeff_norms()[cut] * size).tolist(), 0.0)))
    return out


def _cut_triangles(v: np.ndarray, d: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ends of the segments where triangles ``v`` (T, 3, n) with signed
    heights ``d`` (T, 3) over a hyperplane cross it, heights within ``tol``
    counting as on it, and the triangles that cross it in two points, which
    alone are kept."""
    neg, pos = d < -tol, d > tol
    cands, valid = [], []
    for i, j in ((0, 1), (0, 2), (0, None), (1, 2), (1, None), (2, None)):
        if j is None:
            cands.append(v[:, i])
            valid.append(np.abs(d[:, i]) <= tol)
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
    return cands[two, first], cands[two, second], two
