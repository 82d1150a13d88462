"""Deterministic chain generators with analytic ground truth.

Each generator documents its exact geometry (masses, heights, layer maps,
sheet separations) in a JSON-serializable metadata dict so tests can
compare measured quantities against independently derived values.  The
two Cantor-flavored families realize the classical counterexample
mechanisms: a branching pair of sheets meeting on a positive-measure set,
and a non-discrete coefficient group defeating constant densities.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .chains import PolyChain
from .groups import NormedCoefficient, cantor, group_norm, integers

__all__ = [
    "generate",
    "flat_disk",
    "tilted_cone",
    "cone_harmonic",
    "two_sheet_cantor",
    "cantor_graph",
    "cantor_group_chain",
    "stacked_disks",
    "cantor_bump_profile",
    "cantor_gaps",
]

KINDS = (
    "flat_disk",
    "tilted",
    "cone_harmonic",
    "two_sheet_cantor",
    "cantor_graph",
    "cantor_group",
    "stacked",
)


def generate(kind: str, params: dict, seed: int = 0) -> tuple[PolyChain, dict]:
    """Dispatch to a named generator; ``seed`` is echoed into metadata."""
    if kind == "flat_disk":
        chain, meta = flat_disk(**params)
    elif kind == "tilted":
        chain, meta = tilted_cone(**params)
    elif kind == "cone_harmonic":
        chain, meta = cone_harmonic(**params)
    elif kind == "two_sheet_cantor":
        chain, meta = two_sheet_cantor(**params)
    elif kind == "cantor_graph":
        chain, meta = cantor_graph(**params)
    elif kind == "cantor_group":
        chain, meta = cantor_group_chain(**params)
    elif kind == "stacked":
        chain, meta = stacked_disks(**params)
    else:
        raise ValueError(f"unknown generator kind {kind!r}; choose from {KINDS}")
    meta["kind"] = kind
    meta["params"] = params
    meta["seed"] = seed
    return chain, meta


def _mirrored_circle(N: int) -> np.ndarray:
    """N+1 closed-loop points on the unit circle, exactly centrally
    symmetric for even N (second half is the float negation of the first),
    so odd integrands cancel to rounding."""
    if N % 2 == 0:
        ang = math.pi * np.arange(N // 2) / (N // 2)
        half = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return np.vstack([half, -half, half[:1]])
    ang = 2 * math.pi * np.arange(N + 1) / N
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def flat_disk(N: int = 64, n: int = 3, coeff: int = 1) -> tuple[PolyChain, dict]:
    """Fan triangulation of the inscribed N-gon in the e1e2-plane."""
    if N < 3:
        raise ValueError("need N >= 3")
    pts = _mirrored_circle(N)
    v = np.zeros((N, 3, n))
    v[:, 1, :2] = pts[:-1]
    v[:, 2, :2] = pts[1:]
    chain = PolyChain(n, 2, integers(), verts=v, payload=np.full(N, coeff))
    area = (N / 2.0) * math.sin(2 * math.pi / N)
    meta = {
        "area": area,
        "mass": abs(coeff) * area,
        "centrally_symmetric": N % 2 == 0,
        "plane": [[1, 0] + [0] * (n - 2), [0, 1] + [0] * (n - 2)],
    }
    return chain, meta


def _cone_over_heights(
    N: int, heights: np.ndarray, span: float, n: int
) -> PolyChain:
    """Polyhedral cone with apex 0 over the closed curve
    ``theta_j -> (cos, sin, h_j)`` scaled out to projected radius span."""
    ang = 2 * math.pi * np.arange(N) / N
    pts = np.zeros((N, n))
    pts[:, 0] = np.cos(ang)
    pts[:, 1] = np.sin(ang)
    pts[:, 2] = heights
    pts *= span
    v = np.zeros((N, 3, n))
    v[:, 1] = pts
    v[:, 2] = np.roll(pts, -1, axis=0)
    return PolyChain(n, 2, integers(), verts=v, payload=np.ones(N, dtype=np.int64))


def tilted_cone(
    tilt: float = 0.1, N: int = 256, span: float = 2.05, n: int = 3
) -> tuple[PolyChain, dict]:
    """Cone over the tilted circle ``theta -> (cos, sin, tilt cos theta)``.

    The support lies exactly in the plane ``{z = tilt x}``; the height of
    the graph over the horizontal plane at unit projected radius is
    ``tilt cos theta`` (a pure first harmonic).
    """
    ang = 2 * math.pi * np.arange(N) / N
    chain = _cone_over_heights(N, tilt * np.cos(ang), span, n)
    meta = {
        "tilt": tilt,
        "span": span,
        "rays": N,
        "height_harmonic": {"k": 1, "amplitude": tilt},
        "support_plane_normal": list(
            np.array([-tilt, 0.0, 1.0] + [0.0] * (n - 3)) / math.hypot(tilt, 1.0)
        ),
    }
    return chain, meta


def cone_harmonic(
    k: int = 2, amplitude: float = 0.05, N: int = 256, span: float = 2.05, n: int = 3
) -> tuple[PolyChain, dict]:
    """Cone over ``theta -> (cos, sin, amplitude cos(k theta))``.

    The double limit (rays to infinity, amplitude to zero) has cylindrical
    excess ``(1 + k^2)/4 pi a^2`` over the horizontal plane and its
    degree-2 replacement carries ``(4 + k^2)/8 pi a^2``; their ratio is
    the per-mode energy factor ``2m/(2m+1)`` at ``k = 2``, ``m = 2``.
    """
    ang = 2 * math.pi * np.arange(N) / N
    chain = _cone_over_heights(N, amplitude * np.cos(k * ang), span, n)
    meta = {
        "k": k,
        "amplitude": amplitude,
        "rays": N,
        "span": span,
        "excess_small_amplitude": (1 + k * k) / 4.0 * math.pi * amplitude**2,
        "degree2_excess_small_amplitude": (4 + k * k) / 8.0 * math.pi * amplitude**2,
    }
    return chain, meta


# -- Cantor constructions ---------------------------------------------------


def cantor_gaps(levels: int) -> list[dict]:
    """Middle-third gaps of [0,1] down to the given level.

    Each gap carries ``center``, ``half_width`` and ``level``; the kept
    base intervals after ``levels`` removals have length ``3^-levels``.
    """
    gaps = []
    intervals = [(0.0, 1.0)]
    for lev in range(1, levels + 1):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            gaps.append({"center": a + 1.5 * third, "half_width": third / 2.0, "level": lev})
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    return gaps


def _bump(t: np.ndarray) -> np.ndarray:
    """Smooth compactly-supported bump ``exp(-1/(1-t^2))`` on (-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def cantor_bump_profile(meta: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Analytic sheet-height function rebuilt from generator metadata."""
    gaps = meta["gaps"]

    def f(t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        for g in gaps:
            total = total + g["coef"] * _bump((t - g["center"]) / g["half_width"])
        return total

    return f


def _cantor_sheet_nodes(gaps: list[dict], samples_per_gap: int) -> np.ndarray:
    nodes = {0.0, 1.0}
    for g in gaps:
        a = g["center"] - g["half_width"]
        b = g["center"] + g["half_width"]
        nodes.add(a)
        nodes.add(b)
        for t in np.linspace(a, b, samples_per_gap + 2)[1:-1]:
            nodes.add(float(t))
    return np.array(sorted(nodes))


def cantor_graph(
    levels: int = 3,
    samples_per_gap: int = 40,
    amplitude: float = 0.2,
    n: int = 2,
) -> tuple[PolyChain, dict]:
    """Single sheet: the graph of the Cantor-gap bump sum over [0, 1].

    Bump amplitudes follow ``coef = amplitude * half_width^{3/2}``, so the
    slope scale at a gap of half-width ``b`` is about
    ``0.47 amplitude sqrt(b)``; across scales this realizes the square-root
    modulus of the derivative that the regularity scan is meant to fit.
    """
    gaps = cantor_gaps(levels)
    for g in gaps:
        g["coef"] = amplitude * g["half_width"] ** 1.5
        g["bump_height"] = g["coef"] * math.exp(-1.0)
    meta = {
        "levels": levels,
        "amplitude": amplitude,
        "gaps": gaps,
        "holder_exponent": 0.5,
        "base_interval_length": 3.0 ** (-levels),
    }
    f = cantor_bump_profile(meta)
    nodes = _cantor_sheet_nodes(gaps, samples_per_gap)
    vals = f(nodes)
    return _segments(np.stack([nodes, vals], axis=1), n), meta


def _segments(points: np.ndarray, n: int) -> PolyChain:
    """The polyline through planar ``points`` in R^n, coefficient 1."""
    v = np.zeros((len(points) - 1, 2, n))
    v[:, 0, :2] = points[:-1]
    v[:, 1, :2] = points[1:]
    return PolyChain(n, 1, integers(), verts=v, payload=np.ones(len(v), dtype=np.int64))


def two_sheet_cantor(
    levels: int = 3,
    samples_per_gap: int = 40,
    amplitude: float = 0.2,
    n: int = 2,
) -> tuple[PolyChain, dict]:
    """Two sheets: the flat segment [0,1] plus the bump graph.

    The sheets coincide exactly on the kept base intervals (the branch
    set, of length ``(2/3)^levels``) and separate over every gap with the
    analytic separation ``f(t)`` recorded in metadata.
    """
    upper, meta = cantor_graph(levels, samples_per_gap, amplitude, n)
    nodes = _cantor_sheet_nodes(meta["gaps"], samples_per_gap)
    lower = _segments(np.stack([nodes, np.zeros(len(nodes))], axis=1), n)
    meta = dict(meta)
    meta["branch_length"] = (2.0 / 3.0) ** levels
    meta["sheets"] = 2
    chain = upper.with_arrays(
        np.concatenate([upper.verts, lower.verts]), np.concatenate([upper.payload, lower.payload])
    )
    return chain, meta


def cantor_group_chain(depth: int = 3) -> tuple[PolyChain, dict]:
    """One unit segment per nonzero element of the depth-d Cantor group.

    The segment for bit pattern ``g`` sits at height ``sum_{i in g} 2/3^i``
    (a Cantor-set point, so heights are distinct with minimal separation
    ``2/3^depth``) and carries coefficient ``g``; the density of the chain
    at an interior point of that segment is exactly ``||g||``.
    """
    spec = cantor(depth)
    segs = []
    for code in range(1, 2**depth):
        bits = tuple((code >> i) & 1 for i in range(depth))
        height = sum(2.0 / 3.0 ** (i + 1) for i in range(depth) if bits[i])
        segs.append(
            {
                "height": height,
                "bits": list(bits),
                "weight_sum": group_norm(NormedCoefficient(spec, bits)),
            }
        )
    heights = np.array([sg["height"] for sg in segs])
    v = np.zeros((len(segs), 2, 2))
    v[:, 1, 0] = 1.0
    v[:, :, 1] = heights[:, None]
    chain = PolyChain(2, 1, spec, verts=v, payload=np.array([sg["bits"] for sg in segs]))
    meta = {
        "depth": depth,
        "segments": segs,
        "group_gap": 3.0 ** (-depth),
        "min_separation": 2.0 * 3.0 ** (-depth),
        "total_mass": float(sum(s["weight_sum"] for s in segs)),
    }
    return chain, meta


def stacked_disks(
    heights: tuple[float, ...] = (0.0, 0.3),
    coeffs: tuple[int, ...] = (1, 1),
    N: int = 32,
    n: int = 3,
) -> tuple[PolyChain, dict]:
    """Parallel flat disks over the e1e2-plane with integer coefficients."""
    if len(heights) != len(coeffs):
        raise ValueError("heights and coeffs must pair up")
    pts = _mirrored_circle(N)
    L = len(heights)
    v = np.zeros((L, N, 3, n))
    v[:, :, 1, :2] = pts[:-1]
    v[:, :, 2, :2] = pts[1:]
    v[..., 2] = np.asarray(heights, dtype=float)[:, None, None]
    payload = np.repeat(np.asarray(coeffs), N)
    chain = PolyChain(n, 2, integers(), verts=v.reshape(L * N, 3, n), payload=payload)
    area = (N / 2.0) * math.sin(2 * math.pi / N)
    meta = {
        "heights": list(heights),
        "coeffs": list(coeffs),
        "area": area,
        "layer_count": len(heights),
        "g0": int(sum(coeffs)),
    }
    return chain, meta
