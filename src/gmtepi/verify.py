"""The desk-scale inequality suite: one check per verifiable statement.

Each check measures a quantity and compares it against its stated bound,
returning a row ``(name, measured, bound, passed)``.  The suite covers
the scalar inequalities (square-root comparisons, the two-term
Cauchy-Schwarz bound), the cone mass identity, the Grassmannian metric
identities and coherence bounds, the moment identities, the circle-mode
energy laws, and one end-to-end comparison-surface run against the
theoretical contraction factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import PolyChain, cone, cone_mass_formula, mass
from .epi import build_comparison, circle_gradient_energy_ratio
from .generators import cone_harmonic, flat_disk
from .groups import integers
from .mono import DensityProfile, Gauge, decay_bound, lambda_epi, spherical_excess
from .moments import chain_ball_moments, moments_all, quad_form, trace_bound_check
from .planes import OrientedPlane, hausdorff_unit_ball_distance, plane_distance

__all__ = ["CheckRow", "run_verify", "squares_violations", "two_terms_violations"]


@dataclass
class CheckRow:
    name: str
    measured: float
    bound: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "passed": self.passed,
        }


def squares_violations(n: int = 10_000, seed: int = 0, tol: float = 1e-12) -> int:
    """Count violations of the four square-root comparison inequalities."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 4, n)
    b = rng.uniform(0, 4, n)
    delta = rng.uniform(1e-6, 1.0, n)
    bad = 0
    bad += int(np.sum(np.sqrt(1 + a**2 + b**2) > np.sqrt(1 + a**2) + np.sqrt(1 + b**2) - 1 + tol))
    # convex combination with a random number of terms
    for _ in range(n // 10):
        k = int(rng.integers(2, 6))
        lam = rng.dirichlet(np.ones(k))
        avals = rng.uniform(0, 4, k)
        lhs = math.sqrt(1 + float(lam @ avals) ** 2)
        rhs = float(lam @ np.sqrt(1 + avals**2))
        bad += lhs > rhs + tol
    bad += int(np.sum(np.sqrt(1 + delta**2 * a**2) - 1 > delta * (np.sqrt(1 + a**2) - 1) + tol))
    bad += int(
        np.sum(
            np.sqrt(1 + a * b) - 1 > 0.5 * delta**-2 * b**2 + delta * (np.sqrt(1 + a**2) - 1) + tol
        )
    )
    return bad


def two_terms_violations(n: int = 10_000, seed: int = 1, tol: float = 1e-12) -> int:
    """Count violations of
    ``min((int f)^2, mu(E)^2) <= 3 mu(E) int(sqrt(1+f^2)-1)``
    over random discrete measures."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n):
        k = int(rng.integers(1, 12))
        mu = rng.uniform(0, 2, k)
        f = rng.uniform(0, 5, k)
        int_f = float(mu @ f)
        int_1 = float(mu.sum())
        rhs = 3.0 * int_1 * float(mu @ (np.sqrt(1 + f**2) - 1))
        bad += min(int_f**2, int_1**2) > rhs + tol
    return bad


def _ngon_loop(N: int) -> PolyChain:
    ang = 2 * math.pi * np.arange(N + 1) / N
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    segs = np.stack([pts[:-1], pts[1:]], axis=1)
    return PolyChain(2, 1, integers(), verts=segs, payload=np.ones(N, dtype=np.int64))


def run_verify(seed: int = 0, quick: bool = False) -> list[CheckRow]:
    rows: list[CheckRow] = []
    n_tuples = 1000 if quick else 10_000

    rows.append(CheckRow("squares_inequalities", squares_violations(n_tuples, seed), 0.0, True))
    rows[-1].passed = rows[-1].measured == 0
    rows.append(CheckRow("two_terms_inequality", two_terms_violations(n_tuples, seed + 1), 0.0, True))
    rows[-1].passed = rows[-1].measured == 0

    # cone mass identity and its convergence to the disk area
    for N in (8, 32, 128):
        loop = _ngon_loop(N)
        mc = mass(cone(np.zeros(2), loop))
        mf = cone_mass_formula(np.zeros(2), loop)
        rows.append(CheckRow(f"cone_formula_N{N}", abs(mc - mf) / mc, 1e-12, abs(mc - mf) / mc <= 1e-12))
        rel = abs(mc - math.pi) / math.pi
        bound = 1.1 * math.pi**3 / (2 * N * N)
        rows.append(CheckRow(f"cone_pi_rate_N{N}", rel, bound, rel <= bound))
        # one-sided comparison against half the perimeter
        per = mass(loop)
        rows.append(CheckRow(f"cone_half_perimeter_N{N}", mc, per / 2, mc <= per / 2 + 1e-12))

    # Grassmannian metric: operator norm equals unit-ball Hausdorff distance
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(8 if quick else 24):
        v1 = OrientedPlane.from_span(rng.normal(size=(2, 4)))
        v2 = OrientedPlane.from_span(rng.normal(size=(2, 4)))
        worst = max(worst, abs(plane_distance(v1, v2) - hausdorff_unit_ball_distance(v1, v2, 512)))
    rows.append(CheckRow("projector_vs_hausdorff", worst, 2e-2, worst <= 2e-2))

    # ||pi_{V2perp} pi_V1|| <= ||pi_V1 - pi_V2||
    worst = -1.0
    for _ in range(64):
        v1 = OrientedPlane.from_span(rng.normal(size=(2, 4)))
        v2 = OrientedPlane.from_span(rng.normal(size=(2, 4)))
        comp = np.linalg.norm((np.eye(4) - v2.projector()) @ v1.projector(), 2)
        worst = max(worst, comp - plane_distance(v1, v2))
    rows.append(CheckRow("perp_composition_bound", worst, 1e-12, worst <= 1e-12))

    # flat-disk second moment: trace and eigenvalues
    disk, _ = flat_disk(128 if quick else 512)
    form = quad_form(disk, np.zeros(3), 1.0)
    w, _vecs = form.eigensystem()
    dev = float(max(abs(w[0] - 1), abs(w[1] - 1), abs(w[2])))
    rows.append(CheckRow("flat_disk_eigenvalues", dev, 5e-3, dev <= 5e-3))
    rows.append(CheckRow("flat_disk_traceQ", abs(form.trace - 2), 5e-3, abs(form.trace - 2) <= 5e-3))
    tb = trace_bound_check(disk, 1.0, eps=5e-3)
    rows.append(CheckRow("trace_bound_lemma", abs(tb.trace - 2), tb.bound, tb.ok))

    # omega(m, 1) identity via the polygon integral
    bm = chain_ball_moments(disk, np.zeros(3), 1.0)
    om = bm.s0 - bm.t2
    rows.append(CheckRow("omega_2_1", abs(om - math.pi / 2), 2e-3, abs(om - math.pi / 2) <= 2e-3))

    # circle-mode energy laws and per-mode extension factors
    th = 2 * math.pi * np.arange(1024) / 1024
    for k in (1, 2, 3, 4):
        ratio = circle_gradient_energy_ratio(np.cos(k * th))
        rows.append(CheckRow(f"mode_energy_k{k}", abs(ratio - k * k), 1e-6, abs(ratio - k * k) <= 1e-6))
    m = 2
    factors = [(4 + k * k) * m / ((m + 2) * (1 + k * (m + k - 2))) for k in range(2, 9)]
    worst = max(factors)
    rows.append(
        CheckRow("mode_factor_max_at_k2", worst, 2 * m / (2 * m + 1) + 1e-12, worst <= 2 * m / (2 * m + 1) + 1e-12)
    )

    # moment identity on random chains
    G = integers()
    worst = 0.0
    for _ in range(20 if quick else 100):
        draws = [(rng.normal(size=(3, 3)), rng.integers(1, 4)) for _ in range(6)]
        T = PolyChain(3, 2, G, verts=np.stack([v for v, _ in draws]),
                      payload=np.array([c for _, c in draws]))
        rec = moments_all(T, rng.normal(size=3) * 0.3, 0.5 + rng.random())
        worst = max(worst, rec.identity_gap)
    rows.append(CheckRow("moment_identity", worst, 1e-9, worst <= 1e-9))

    # excess-decay verifier on the synthetic family
    lam = lambda_epi(2)
    for beta in (0.25, 0.5, 1.0):
        xi = Gauge.power(0.1, beta)
        eta_star = 1.0 / math.sqrt(lam) - 1.0
        r0 = (8.0 * eta_star) ** (1.0 / beta)
        radii = np.geomspace(r0 / 100.0, r0, 200)
        f = math.pi * radii**2 * (1.0 + radii**beta)
        rep = decay_bound(radii, f, math.pi, xi, lam, m=2)
        ok = all(rep.hypotheses.values()) and float(np.min(rep.slack)) > 0
        rows.append(CheckRow(f"decay_bound_beta{beta}", float(np.min(rep.slack)), 0.0, ok))

    # end-to-end comparison surface against the contraction factor
    P, _meta = cone_harmonic(2, 0.05, 96 if quick else 192)
    _s, rep_epi = build_comparison(P)
    rows.append(
        CheckRow("epi_zone_ratio_below_lambda", rep_epi.ratio_zone, lam, rep_epi.ratio_zone <= lam)
    )
    rows.append(
        CheckRow("epi_full_ratio_below_lambda", rep_epi.ratio_full, lam, rep_epi.ratio_full <= lam)
    )

    # almost-monotone and shifted-center excess comparison on the disk
    prof = DensityProfile.from_chain(disk, np.zeros(3), np.linspace(0.05, 1.0, 30))
    exc0 = spherical_excess(prof, 1.0)[2]
    eta = 0.05
    shifted = DensityProfile.from_chain(disk, np.array([eta, 0.0, 0.0]), np.linspace(0.05, 0.95, 30))
    excx = spherical_excess(shifted, 0.95)[2]
    bigger = DensityProfile.from_chain(disk, np.zeros(3), np.linspace(0.05, 0.95 * (1 + eta), 30))
    excb = spherical_excess(bigger, 0.95 * (1 + eta))[2]
    bound = excb + 2 ** (2 + 6) * max(eta, exc0)
    rows.append(CheckRow("shifted_center_excess", excx, bound, excx <= bound))

    return rows
