"""Spherical excess, gauges, almost monotonicity, and the decay verifier.

The density ratio ``||T||(B(x,r)) / (alpha(m) r^m)`` drives everything
here: its oscillation over nested radii is the spherical excess, a gauge
``xi`` with Dini integral ``Xi(r) = m int_0^r xi(t)/t dt`` quantifies
almost monotonicity (``exp(Xi(r)) ratio(r)`` nondecreasing), and the
decay verifier checks, radius by radius, the differential-inequality
bound that converts an epiperimetric mass comparison into excess decay.

Almost minimality is probed against finite competitor lists and the cone
over the boundary of the chain in the ball, with exact ball masses and an
upper bound for the cone; a probe can refute but never certify, so
passing results are labelled "not refuted".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import PolyChain, _check_points, _check_radius, ball_cone_bound, boundary, mass
from .chains import ball_mass as chain_ball_mass

__all__ = [
    "alpha_m",
    "lambda_epi",
    "alpha0_exponent",
    "Gauge",
    "gauge_integral",
    "DensityProfile",
    "spherical_excess",
    "MonotoneReport",
    "almost_monotone_check",
    "DecayReport",
    "decay_bound",
    "ProbeReport",
    "almost_minimal_probe",
]


def alpha_m(m: int) -> float:
    """Volume of the unit ball in R^m."""
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def lambda_epi(m: int) -> float:
    """The epiperimetric contraction factor ``(2m+1 - 4^{-m-1})/(2m+1)``.

    Computed, never hardcoded: for m=1 it equals 47/48 and for m=2 it
    equals 319/320.
    """
    return (2 * m + 1 - 4.0 ** (-m - 1)) / (2 * m + 1)


def alpha0_exponent(m: int, lam: float | None = None) -> float:
    """The gauge-exponent ceiling ``m (1 - lam^{1/4}) / lam^{1/4}``."""
    if lam is None:
        lam = lambda_epi(m)
    q = lam**0.25
    return m * (1.0 - q) / q


@dataclass(frozen=True)
class Gauge:
    """An increasing modulus ``xi: (0, delta] -> R_+`` vanishing at 0.

    Either a power law ``c r^alpha`` or a tabulated increasing function.
    """

    kind: str  # "power" | "table"
    c: float = 0.0
    alpha: float = 1.0
    delta: float = 1.0
    radii: np.ndarray | None = None
    values: np.ndarray | None = None

    @classmethod
    def power(cls, c: float, alpha: float, delta: float = 1.0) -> "Gauge":
        if c <= 0 or not (0 < alpha <= 1):
            raise ValueError("power gauge needs c > 0 and 0 < alpha <= 1")
        return cls("power", c=c, alpha=alpha, delta=delta)

    @classmethod
    def table(cls, radii, values) -> "Gauge":
        r = np.asarray(radii, dtype=float)
        v = np.asarray(values, dtype=float)
        if np.any(np.diff(r) <= 0) or np.any(np.diff(v) < -1e-15) or np.any(v < 0):
            raise ValueError("tabulated gauge must be increasing and nonnegative")
        return cls("table", delta=float(r[-1]), radii=r, values=v)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "power":
            out = self.c * r**self.alpha
        else:
            out = np.interp(r, self.radii, self.values)
        return float(out) if out.ndim == 0 else out


def gauge_integral(xi: Gauge, m: int) -> Gauge:
    """The Dini integral ``Xi(r) = m int_0^r xi(t)/t dt`` as a gauge.

    Closed form ``(m c / alpha) r^alpha`` for a power law (so the lower
    bound ``Xi >= (m/alpha) xi`` holds with equality).  Tabulated gauges
    are integrated by the trapezoid rule after checking that the Dini sum
    converges (``xi(r)/r^alpha`` nonincreasing toward zero for some
    positive fitted exponent).
    """
    if xi.kind == "power":
        return Gauge.power(m * xi.c / xi.alpha, xi.alpha, xi.delta)
    r, v = xi.radii, xi.values
    if v[0] > 0:
        p = math.log(max(v[1], 1e-300) / max(v[0], 1e-300)) / math.log(r[1] / r[0])
        if p <= 1e-9:
            raise ValueError("tabulated gauge has a divergent Dini sum")
        head = m * v[0] / p
    else:
        head = 0.0
    integrand = v / r
    cum = head + m * np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(r))]
    )
    return Gauge.table(r, cum)


def ratio_floor(xi: Gauge, m: int) -> float:
    """``m / (m + alpha)``, the exact floor of ``Xi / (Xi + xi)`` for a
    power-law gauge."""
    if xi.kind != "power":
        raise ValueError("ratio floor is only closed-form for power gauges")
    return m / (m + xi.alpha)


@dataclass
class DensityProfile:
    """Density ratios ``||T||(B(x,r)) / (alpha(m) r^m)`` on a radius grid.

    Exact for chains of dimension m <= 2.
    """

    center: np.ndarray
    radii: np.ndarray
    values: np.ndarray
    m: int

    @classmethod
    def from_chain(cls, chain: PolyChain, center, radii) -> "DensityProfile":
        center = np.asarray(center, dtype=float)
        _check_points(center, (chain.n,), "centre")
        radii = np.asarray(radii, dtype=float)
        if not (radii.ndim == 1 and len(radii) and np.all(np.isfinite(radii)) and radii[0] > 0
                and np.all(np.diff(radii) > 0)):
            raise ValueError("radii must be a list of finite, positive and ascending numbers")
        am = alpha_m(chain.m)
        vals = np.array(
            [chain_ball_mass(chain, center, r) / (am * r**chain.m) for r in radii]
        )
        return cls(center, radii, vals, chain.m)


def spherical_excess(profile: DensityProfile, r: float) -> tuple[float, float, float]:
    """``(exc_*, exc^{m*}, exc^m)`` up to radius ``r`` from the grid.

    ``exc_*`` is the largest drop of the density ratio between nested
    radii, ``exc^{m*}`` the largest rise, ``exc^m`` their maximum; all are
    monotone in ``r``.
    """
    keep = profile.radii <= r + 1e-15
    if not np.any(keep):
        raise ValueError("empty grid below the requested radius")
    v = profile.values[keep]
    run_max = np.maximum.accumulate(v)
    run_min = np.minimum.accumulate(v)
    exc_star = float(max(0.0, np.max(run_max - v)))
    exc_upper = float(max(0.0, np.max(v - run_min)))
    return exc_star, exc_upper, max(exc_star, exc_upper)


@dataclass
class MonotoneReport:
    ok: bool
    worst_violation: float
    worst_pair: tuple[float, float]


def almost_monotone_check(
    profile: DensityProfile, Xi: Gauge, tol: float = 1e-12
) -> MonotoneReport:
    """Check that ``exp(Xi(r)) ratio(r)`` is nondecreasing on the grid
    within ``tol``; the worst violating radius pair is reported either way.
    """
    g = np.exp(Xi(profile.radii)) * profile.values
    run = np.maximum.accumulate(g)
    viol = run - g
    worst = int(np.argmax(viol - tol))
    s_idx = int(np.argmax(g[: worst + 1]))
    return MonotoneReport(
        ok=bool(np.all(viol <= tol)),
        worst_violation=float(viol[worst]),
        worst_pair=(float(profile.radii[s_idx]), float(profile.radii[worst])),
    )


@dataclass
class DecayReport:
    """Outcome of the excess-decay verification.

    ``hypotheses`` maps the four gated conditions to booleans:
    ``mass_floor`` (``theta r^m <= exp(Xi) f``), ``diff_ineq`` (the
    discrete differential inequality), ``lambda0_window``
    (``(1+xi(r0)) sqrt(lam) <= lambda0 < 1``) and ``xi_small``
    (``exp(Xi(r0)) <= 2``).  Two further structural conditions are
    reported but not gated, since for the contraction factor of the
    comparison-surface theorem they force gauge exponents below
    ``alpha0(m)``: ``xi_below_Xi`` and ``ratio_floor_ok``
    (``lambda0 <= Xi/(Xi+xi)``).
    """

    hypotheses: dict
    ungated: dict
    ok: bool
    radii: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    failing_radius: float | None = None


def decay_bound(
    radii,
    f_values,
    theta: float,
    xi: Gauge,
    lam: float,
    m: int,
    lambda0: float | None = None,
    tol_factor: float = 2.0,
) -> DecayReport:
    """Verify the decay bound for a sampled mass function ``f``.

    With ``e(r) = exp(Xi(r)) f(r) - theta r^m`` the conclusion checked at
    every grid radius is

        exp(Xi(r)) f(r)/r^m - theta
            <= Xi(r) (Xi(r0)^{-1} (exp(Xi(r0)) f(r0)/r0^m - theta) + 8 theta).

    ``f'`` is estimated by one-sided forward differences on the grid and
    the differential inequality is tested with a tolerance proportional
    to grid spacing.  Hypothesis failures report the violating radius.
    """
    r = np.asarray(radii, dtype=float)
    f = np.asarray(f_values, dtype=float)
    if np.any(np.diff(r) <= 0):
        raise ValueError("radii must be ascending")
    r0 = float(r[-1])
    Xi = gauge_integral(xi, m)
    if lambda0 is None:
        lambda0 = (1.0 + xi(r0)) * math.sqrt(lam)
    expXi = np.exp(Xi(r))

    hyp: dict[str, bool] = {}
    failing = None

    mass_floor = theta * r**m <= expXi * f + 1e-12 * np.abs(f)
    hyp["mass_floor"] = bool(np.all(mass_floor))
    if not hyp["mass_floor"]:
        failing = float(r[int(np.argmin(mass_floor))])

    fp = np.diff(f) / np.diff(r)
    rhs_d = (1.0 + xi(r[:-1])) * (r[:-1] / m) * (
        lam * fp + (1.0 - lam) * theta * m * r[:-1] ** (m - 1)
    )
    tol = tol_factor * np.diff(r) / r[:-1] * np.abs(rhs_d)
    diff_ok = f[:-1] <= rhs_d + tol + 1e-14
    hyp["diff_ineq"] = bool(np.all(diff_ok))
    if not hyp["diff_ineq"] and failing is None:
        failing = float(r[:-1][int(np.argmin(diff_ok))])

    hyp["lambda0_window"] = bool((1.0 + xi(r0)) * math.sqrt(lam) <= lambda0 < 1.0)
    hyp["xi_small"] = bool(math.exp(Xi(r0)) <= 2.0)

    ungated = {
        "xi_below_Xi": bool(np.all(xi(r) <= Xi(r) + 1e-14)),
        "ratio_floor_ok": bool(
            lambda0 <= (ratio_floor(xi, m) if xi.kind == "power" else np.min(Xi(r) / np.maximum(Xi(r) + xi(r), 1e-300)))
        ),
    }

    lhs = expXi * f / r**m - theta
    head = math.exp(Xi(r0)) * f[-1] / r0**m - theta
    rhs = Xi(r) * (head / Xi(r0) + 8.0 * theta)
    ok = all(hyp.values()) and bool(np.all(rhs - lhs >= -1e-12))
    return DecayReport(hyp, ungated, ok, r, lhs, rhs, rhs - lhs, failing)


@dataclass
class ProbeReport:
    """Result of probing almost minimality against finite competitors.

    A finite probe can only refute: ``verdict`` is ``"refuted"`` when a
    competitor beats the chain by more than the modulus allows, otherwise
    ``"not refuted"``.  ``ratios`` holds ``M(T⌞B)`` over each competitor's
    mass, the cone competitor last.
    """

    verdict: str
    worst_ratio: float
    ratios: list[float]


def almost_minimal_probe(
    chain: PolyChain,
    x,
    r: float,
    competitors: list[PolyChain],
    xi: Gauge,
) -> ProbeReport:
    """Check ``M(T⌞B) <= (1 + xi(r)) M(T⌞B + S)`` for each competitor S,
    B = B(x, r), for chains with m in (1, 2).

    Competitors must be cycles supported in the closed ball (up to a
    rounding slack of 1e-12 (r + |x|_inf)); for those ``T⌞B + S =
    (T + S)⌞B``, so every mass is an exact ball mass.  The cone from x
    over ``∂(T⌞B)`` is the last competitor (the comparison driving excess
    decay); it is measured by the upper bound :func:`~gmtepi.chains.ball_cone_bound`,
    so a refutation by it is sound.  An ``x`` that is not a finite point of
    R^n, or an ``r`` that is not finite and positive, raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    _check_points(x, (chain.n,), "centre")
    _check_radius(r, "radius")
    mb = chain_ball_mass(chain, x, r)
    reach = r + 1e-12 * (r + float(np.max(np.abs(x), initial=0.0)))
    alts = []
    for s in competitors:
        verts = s.vertex_array().reshape(-1, chain.n)
        if len(verts) and float(np.max(np.linalg.norm(verts - x, axis=1))) > reach:
            raise ValueError("competitor support leaves the ball")
        if mass(boundary(s)) > 1e-9 * max(mass(s), 1.0):
            raise ValueError("competitor is not a cycle")
        alts.append(chain_ball_mass(chain + s, x, r))
    alts.append(ball_cone_bound(chain, x, r))
    factor = 1.0 + xi(r)
    ratios = [mb / max(alt, 1e-300) for alt in alts]
    refuted = any(mb > factor * alt for alt in alts)
    return ProbeReport("refuted" if refuted else "not refuted", max(ratios), ratios)
