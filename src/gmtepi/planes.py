"""Oriented m-planes and the Grassmannian metric.

The distance between planes is the operator norm of the difference of
their orthogonal projectors, which coincides with the Hausdorff distance
of their unit balls.  The plane-coherence bounds are measured on chains:
:func:`gmtepi.scan.multiscale_scan` records the distance of the planes of
consecutive scales at one centre against ``eps (2 + R/r)``, and lays out
its plane-ball grid with :func:`_plane_grid`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "OrientedPlane",
    "plane_distance",
    "hausdorff_unit_ball_distance",
]


class OrientedPlane:
    """An m-plane through the origin: an orthonormal frame plus a sign."""

    __slots__ = ("frame", "orientation")

    def __init__(self, frame: np.ndarray, orientation: int = 1):
        f = np.array(frame, dtype=float)
        defect = np.abs(f @ f.T - np.eye(f.shape[0]))
        if not defect.max(initial=0.0) <= 1e-12:
            raise ValueError("frame rows must be orthonormal (within 1e-12)")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        f.flags.writeable = False
        self.frame = f
        self.orientation = orientation

    @classmethod
    def _stack(cls, frames: np.ndarray) -> list["OrientedPlane"]:
        """The planes of orientation +1 over a stack of frames (C, m, n),
        checked as the constructor checks each, in one pass."""
        f = np.array(frames, dtype=float)
        if not np.abs(f @ f.transpose(0, 2, 1) - np.eye(f.shape[1])).max(initial=0.0) <= 1e-12:
            raise ValueError("frame rows must be orthonormal (within 1e-12)")
        f.flags.writeable = False
        planes = [object.__new__(cls) for _ in f]
        for plane, frame in zip(planes, f):
            plane.frame, plane.orientation = frame, 1
        return planes

    @classmethod
    def from_span(cls, vectors: np.ndarray, orientation: int = 1) -> "OrientedPlane":
        """Orthonormalize a spanning set (rows) into a plane."""
        q, r = np.linalg.qr(np.asarray(vectors, dtype=float).T)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return cls((q * signs).T, orientation)

    @classmethod
    def coordinate(cls, n: int, dims: tuple[int, ...]) -> "OrientedPlane":
        f = np.zeros((len(dims), n))
        for row, d in enumerate(dims):
            f[row, d] = 1.0
        return cls(f)

    @property
    def m(self) -> int:
        return self.frame.shape[0]

    @property
    def n(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame.T @ self.frame

    def project_coords(self, points: np.ndarray) -> np.ndarray:
        """In-plane coordinates of ambient points, shape (..., m)."""
        return np.asarray(points) @ self.frame.T

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """Ambient points of in-plane coordinates, shape (..., n)."""
        return np.asarray(coords) @ self.frame

    def perp_frame(self) -> np.ndarray:
        """Orthonormal basis (rows) of the orthogonal complement: the
        right singular vectors of the frame beyond the first m, which
        span its null space to rounding."""
        return np.linalg.svd(self.frame)[2][self.m :]

    def __repr__(self) -> str:  # pragma: no cover
        return f"OrientedPlane(m={self.m}, n={self.n}, orient={self.orientation:+d})"


def align_in_plane_orientation(plane: OrientedPlane, reference: OrientedPlane) -> OrientedPlane:
    """Flip one frame row of ``plane`` if needed so that the projection
    onto ``reference`` is orientation preserving (positive determinant of
    the frame overlap).  Nearby planes are conventionally oriented this
    way."""
    overlap = plane.frame @ reference.frame.T
    if np.linalg.det(overlap) < 0:
        f = plane.frame.copy()
        f[-1] = -f[-1]
        return OrientedPlane(f, plane.orientation)
    return plane


def plane_distance(a: OrientedPlane, b: OrientedPlane) -> float:
    """Operator norm of the projector difference (largest singular value)."""
    return float(_plane_distances([a], [b])[0])


def _plane_distances(a: list[OrientedPlane], b: list[OrientedPlane]) -> np.ndarray:
    """:func:`plane_distance` of each pair ``(a[i], b[i])``, from one
    stacked SVD; every plane shares one (m, n)."""
    if not a:
        return np.zeros(0)
    fa, fb = np.array([p.frame for p in a]), np.array([q.frame for q in b])
    if fa.shape != fb.shape:
        raise ValueError("planes must share m and n")
    diffs = fa.transpose(0, 2, 1) @ fa - fb.transpose(0, 2, 1) @ fb
    return np.linalg.svd(diffs, compute_uv=False).max(axis=1)


def hausdorff_unit_ball_distance(
    a: OrientedPlane, b: OrientedPlane, samples: int = 256, seed: int = 0
) -> float:
    """Sampled Hausdorff distance of the two unit balls (validation oracle).

    Independent of :func:`plane_distance`; the two agree for planes.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for p, q in ((a, b), (b, a)):
        coords = rng.normal(size=(samples, p.m))
        coords /= np.maximum(np.linalg.norm(coords, axis=1, keepdims=True), 1e-12)
        pts = p.embed(coords)
        # distance to the other plane's unit ball: project, clamp radius
        inplane = q.project_coords(pts)
        norms = np.linalg.norm(inplane, axis=1, keepdims=True)
        clamped = inplane / np.maximum(norms, 1.0)
        best = max(best, float(np.max(np.linalg.norm(pts - q.embed(clamped), axis=1))))
    return best


def _plane_grid(r: float, m: int, grid: int) -> np.ndarray:
    """In-plane coordinates of the deterministic grid on the radius-r ball:
    2 grid + 1 points on a line, or the centre and ``grid`` rings."""
    if m == 1:
        return np.linspace(-r, r, 2 * grid + 1)[:, None]
    rows = [np.zeros((1, 2))]
    for k in range(1, grid + 1):
        rad = r * k / grid
        cnt = max(6, int(round(2 * math.pi * k)))
        ang = 2 * math.pi * np.arange(cnt) / cnt
        rows.append(rad * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    return np.vstack(rows)
