"""Seeded benchmark inputs built from closed-form geometry.

Everything here uses numpy only and never imports ``gmtepi``: the vertex
arrays restate the ``cone_harmonic``, ``flat_disk`` and
``two_sheet_cantor`` families, are moved by a seeded rigid motion, and
reach the program only as chain files in its documented JSON format.  A
change under ``src/`` therefore cannot change what is measured or the
reference values the outputs are checked against.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("epi_cone", "scan_disk", "scan_cantor")

# lambda(m) = 1 - 1/(160 m) at m = 2, the epiperimetric constant
LAMBDA_EPI = 319.0 / 320.0

# epi_cone: (k, amplitude, tolerance on |ratio_zone - limit|); the first
# three are acceptance criterion 4's inputs and tolerances
EPI_CONES = ((2, 0.08, 0.10), (2, 0.04, 0.05), (2, 0.02, 0.03), (3, 0.04, 0.05))
EPI_RAYS = 256
EPI_SPAN = 2.05

# scan_disk: the 256-triangle fan in R^5, one seeded point per operation
DISK_N = 256
DISK_AMBIENT = 5
DISK_POINT_RADIUS = 0.25  # fixed radius, seeded angle: every point costs alike
DISK_POINTS_PER_ROUND = 3
DISK_R0 = 0.5
DISK_DEPTH = 2  # scales r0, r0/2, r0/4
DISK_PROFILE_RADII = (0.02, 0.6, 48)  # geomspace arguments

# scan_cantor: acceptance criterion 9's sweep on two_sheet_cantor(3, 48, 0.12)
CANTOR_LEVELS = 3
CANTOR_SAMPLES = 48
CANTOR_AMPLITUDE = 0.12
CANTOR_GAP_FRACS = (-0.22, -0.11, 0.0, 0.11, 0.21)
CANTOR_GAP_DEPTH = 4
CANTOR_BRANCH_FRACS = (0.3, 0.5, 0.7)
CANTOR_BRANCH_R0 = 0.08
CANTOR_BRANCH_DEPTH = 3
CANTOR_MIN_GAP_RATE = 0.95
CANTOR_BETA_TOL = 0.2


def rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random proper rotation of R^n."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def cone_triangles(k: int, amplitude: float) -> np.ndarray:
    """Fan of the cone over ``theta -> (cos, sin, a cos(k theta))`` scaled
    to projected radius ``EPI_SPAN``, apex at the origin, shape (N, 3, 3)."""
    ang = 2 * math.pi * np.arange(EPI_RAYS) / EPI_RAYS
    pts = np.zeros((EPI_RAYS, 3))
    pts[:, 0] = np.cos(ang)
    pts[:, 1] = np.sin(ang)
    pts[:, 2] = amplitude * np.cos(k * ang)
    pts *= EPI_SPAN
    tris = np.zeros((EPI_RAYS, 3, 3))
    tris[:, 1] = pts
    tris[:, 2] = np.roll(pts, -1, axis=0)
    return tris


def disk_triangles() -> np.ndarray:
    """Fan of the inscribed N-gon in the e1e2-plane of R^5, exactly
    centrally symmetric, shape (N, 3, 5)."""
    ang = math.pi * np.arange(DISK_N // 2) / (DISK_N // 2)
    half = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    loop = np.vstack([half, -half, half[:1]])
    tris = np.zeros((DISK_N, 3, DISK_AMBIENT))
    tris[:, 1, :2] = loop[:-1]
    tris[:, 2, :2] = loop[1:]
    return tris


def cantor_gaps() -> list[dict]:
    """Middle-third gaps down to ``CANTOR_LEVELS`` with their bump
    coefficients ``amplitude * half_width^{3/2}``."""
    gaps = []
    intervals = [(0.0, 1.0)]
    for _ in range(CANTOR_LEVELS):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            hw = third / 2.0
            gaps.append({"center": a + 1.5 * third, "half_width": hw,
                         "coef": CANTOR_AMPLITUDE * hw**1.5})
            nxt += [(a, a + third), (b - third, b)]
        intervals = nxt
    return gaps


def cantor_branch_intervals() -> list[tuple[float, float]]:
    intervals = [(0.0, 1.0)]
    for _ in range(CANTOR_LEVELS):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            nxt += [(a, a + third), (b - third, b)]
        intervals = nxt
    return intervals


def bump_profile(gaps: list[dict], t) -> np.ndarray:
    """Sheet separation ``f(t) = sum coef * exp(-1/(1 - s^2))`` with
    ``s = (t - center)/half_width`` inside each gap."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for g in gaps:
        s = (t - g["center"]) / g["half_width"]
        bump = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        bump[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        total = total + g["coef"] * bump
    return total


def cantor_nodes(gaps: list[dict]) -> np.ndarray:
    nodes = {0.0, 1.0}
    for g in gaps:
        a = g["center"] - g["half_width"]
        b = g["center"] + g["half_width"]
        nodes.update((a, b))
        nodes.update(float(t) for t in np.linspace(a, b, CANTOR_SAMPLES + 2)[1:-1])
    return np.array(sorted(nodes))


def cantor_segments(gaps: list[dict]) -> np.ndarray:
    """Bump sheet then flat sheet over the shared nodes, shape (702, 2, 2)."""
    t = cantor_nodes(gaps)
    upper = np.stack([t, bump_profile(gaps, t)], axis=1)
    lower = np.stack([t, np.zeros_like(t)], axis=1)
    segs = [np.stack([s[:-1], s[1:]], axis=1) for s in (upper, lower)]
    return np.concatenate(segs)


def write_chain(path: str, vertices: np.ndarray, metadata: dict) -> None:
    """Integer-coefficient chain file in the documented JSON format."""
    data = {
        "version": 1,
        "ambient": int(vertices.shape[2]),
        "dim": int(vertices.shape[1] - 1),
        "group": {"tag": "integers"},
        "simplices": [{"vertices": v.tolist(), "coeff": 1} for v in vertices],
        "metadata": metadata,
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


def make_epi_cone(rng: np.random.Generator, out_dir: str) -> dict:
    ops = []
    for i, (k, amp, tol) in enumerate(EPI_CONES):
        Q = rotation(rng, 3)
        path = os.path.join(out_dir, f"cone_{i}.json")
        write_chain(path, cone_triangles(k, amp) @ Q.T, {"k": k, "amplitude": amp})
        ops.append({"chain": path, "k": k, "amplitude": amp,
                    "ratio_limit": (4 + k * k) / (2.0 * (1 + k * k)), "tolerance": tol})
    return {"chains": [op["chain"] for op in ops], "ops": ops, "lambda": LAMBDA_EPI}


def make_scan_disk(rng: np.random.Generator, out_dir: str) -> dict:
    Q = rotation(rng, DISK_AMBIENT)
    shift = rng.normal(size=DISK_AMBIENT)
    path = os.path.join(out_dir, "disk.json")
    write_chain(path, disk_triangles() @ Q.T + shift, {"rays": DISK_N})
    angles = rng.uniform(0.0, 2 * math.pi, size=DISK_POINTS_PER_ROUND)
    ops = []
    for phi in angles:
        p = np.zeros(DISK_AMBIENT)
        p[:2] = DISK_POINT_RADIUS * math.cos(phi), DISK_POINT_RADIUS * math.sin(phi)
        ops.append({"chain": path, "point": (Q @ p + shift).tolist()})
    return {
        "chains": [path],
        "ops": ops,
        "r0": DISK_R0,
        "depth": DISK_DEPTH,
        "profile_radii": np.geomspace(*DISK_PROFILE_RADII).tolist(),
        "plane_projector": (Q[:, :2] @ Q[:, :2].T).tolist(),
    }


def make_scan_cantor(rng: np.random.Generator, out_dir: str) -> dict:
    angle = rng.uniform(0.0, 2 * math.pi)
    Q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    shift = rng.normal(size=2)

    def move(p) -> list:
        return (Q @ np.asarray(p, dtype=float) + shift).tolist()

    gaps = cantor_gaps()
    path = os.path.join(out_dir, "cantor.json")
    write_chain(path, cantor_segments(gaps) @ Q.T + shift, {"levels": CANTOR_LEVELS})
    gap_points = []
    centre_checks = []
    for g in gaps:
        a, b = g["center"], g["half_width"]
        nodes = np.linspace(a - b, a + b, 50)[1:-1]
        for frac in CANTOR_GAP_FRACS:
            t = nodes[np.argmin(np.abs(nodes - (a + frac * 2 * b)))]
            h = float(bump_profile(gaps, [t])[0])
            gap_points.append({"point": move([t, h]), "r0": 0.3 * h, "depth": CANTOR_GAP_DEPTH})
        r = 0.4 * b
        sep = float(np.max(bump_profile(gaps, np.linspace(a - r, a + r, 400))))
        centre_checks.append({"point": move([a, 0.0]), "r": r, "beta_ref": sep / (2 * r)})
    branch_points = [
        {"point": move([a + (b - a) * frac, 0.0]), "r0": CANTOR_BRANCH_R0, "depth": CANTOR_BRANCH_DEPTH}
        for a, b in cantor_branch_intervals()
        for frac in CANTOR_BRANCH_FRACS
    ]
    return {
        "chains": [path],
        "ops": [{"chain": path, "gap_points": gap_points, "branch_points": branch_points}],
        "centre_checks": centre_checks,
        "min_gap_rate": CANTOR_MIN_GAP_RATE,
        "beta_tol": CANTOR_BETA_TOL,
    }


MAKERS = {"epi_cone": make_epi_cone, "scan_disk": make_scan_disk, "scan_cantor": make_scan_cantor}


def make_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's chain files under ``out_dir``; return its spec:
    chain paths, one round of operations and the reference values."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    spec = MAKERS[workload](rng, out_dir)
    spec.update(workload=workload, seed=seed)
    return spec
