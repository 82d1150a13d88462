"""Second-moment forms, spectral plane selection, and moment polynomials.

The quadratic form of a chain's measure in a ball,

    Q(T, x, r)(y) = (m+2) / (alpha(m) r^{m+2}) * int_{B(x,r)} <z-x, y-x>^2 d||T||,

is normalized so that a flat unit-weight m-plane through ``x`` gives
``Q(y) = |pi_V(y)|^2``; its top-m eigenspace is the selected plane.  The
degree-four moment polynomials ``V = P_0 + ... + P_4``, the first moment
``b``, and the flatness numbers ``beta_2`` / ``beta_inf`` are computed
from exact per-simplex ball moments (m <= 2), so the only reported error
bars are the sup-scan floors of ``beta_inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import PolyChain
from .mono import DensityProfile, Gauge, alpha_m, spherical_excess
from .planes import OrientedPlane
from .quadrature import BallMoments, batch_ball_moments

__all__ = [
    "AmbiguousPlaneError",
    "SymForm",
    "chain_ball_moments",
    "quad_form",
    "select_plane",
    "MomentsRecord",
    "moments_all",
    "TraceBoundReport",
    "trace_bound_check",
    "BetaRecord",
    "beta_numbers",
    "FirstMomentReport",
    "first_moment_bound_check",
    "PinchReport",
    "quadform_pinch_check",
]


class AmbiguousPlaneError(ValueError):
    """Eigen-gap below tolerance: the selected plane is not well defined."""


def chain_ball_moments(chain: PolyChain, center, radius: float) -> BallMoments:
    """Coefficient-norm-weighted exact moments of ``||T||`` on a ball."""
    center = np.asarray(center, dtype=float)
    near = chain.near_ball(center, radius)
    return batch_ball_moments(chain.vertex_array()[near], center, radius, chain.coeff_norms()[near])


@dataclass
class SymForm:
    """A symmetric quadratic form with its scale normalization metadata."""

    matrix: np.ndarray
    m: int
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-12):
            raise ValueError("form matrix must be symmetric within 1e-12")

    def __call__(self, y) -> float:
        y = np.asarray(y, dtype=float) - self.center
        return float(y @ self.matrix @ y)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues descending and matching eigenvectors (rows)."""
        w, v = np.linalg.eigh(0.5 * (self.matrix + self.matrix.T))
        order = np.argsort(w)[::-1]
        return w[order], v[:, order].T


def _form_from_moments(bm: BallMoments, m: int, center: np.ndarray, radius: float) -> SymForm:
    norm = (m + 2) / (alpha_m(m) * radius ** (m + 2))
    return SymForm(norm * 0.5 * (bm.s2 + bm.s2.T), m, center, radius)


def quad_form(chain: PolyChain, center, radius: float) -> SymForm:
    """The normalized second-moment form of ``||T||`` in ``B(center, radius)``.

    Positive semidefinite by construction; exact for m <= 2 chains.  An
    empty chain raises ``ValueError``.
    """
    if chain.is_zero:
        raise ValueError("empty chain")
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    return _form_from_moments(chain_ball_moments(chain, center, radius), chain.m, center, radius)


def select_plane(
    form: SymForm, m: int, gap_tol: float = 1e-10
) -> tuple[OrientedPlane, np.ndarray]:
    """Top-m eigenplane of a second-moment form.

    Deterministic: eigenvalues ordered descending, each eigenvector's
    first component larger than 1e-9 in magnitude is made positive, and
    the plane carries orientation +1.  An eigen-gap
    ``lambda_m - lambda_{m+1}`` below ``gap_tol`` raises
    :class:`AmbiguousPlaneError` rather than silently picking a plane.
    """
    w, vecs = form.eigensystem()
    if len(w) <= m:
        raise ValueError("form has no complementary directions")
    if w[m - 1] - w[m] <= gap_tol:
        raise AmbiguousPlaneError(
            f"eigen-gap {w[m - 1] - w[m]:.3e} below {gap_tol:.1e}"
        )
    rows = []
    for k in range(m):
        v = vecs[k]
        nz = np.nonzero(np.abs(v) > 1e-9)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        rows.append(v)
    return OrientedPlane(np.array(rows)), w


@dataclass
class MomentsRecord:
    """All degree-four moment quantities of a measure at ``(x, r)``.

    ``V`` and the ``P_k`` integrate over the ball at the origin (the
    polynomial depends on ``x``); ``V_hat`` integrates over ``B(x, r)``.
    ``identity_gap`` is the relative defect of ``V = sum_k P_k``.
    """

    x: np.ndarray
    r: float
    m: int
    V: float
    V_hat: float
    P: np.ndarray  # P_0 .. P_4
    b: np.ndarray
    trace_Q: float
    V_n: float
    P_n: np.ndarray
    b_n: np.ndarray
    identity_gap: float


def moments_all(chain: PolyChain, x, r: float) -> MomentsRecord:
    """Evaluate ``V``, ``P_0..P_4``, ``b``, ``V_hat`` and ``tr Q`` exactly.

    The identity ``V = sum_k P_k`` is assembled through two independent
    expansions and its relative gap is recorded.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float)
    bm = chain_ball_moments(chain, np.zeros(chain.n), r)
    s0, s1, S2, t2, u3, t4 = bm.s0, bm.s1, bm.s2, bm.t2, bm.u3, bm.t4
    x2 = float(x @ x)
    P0 = r**4 * s0 - 2.0 * r**2 * t2 + t4
    b_vec = r**2 * s1 - u3
    P1 = 4.0 * float(x @ b_vec)
    P2 = 4.0 * float(x @ S2 @ x) - 2.0 * x2 * (r**2 * s0 - t2)
    P3 = -4.0 * x2 * float(x @ s1)
    P4 = x2 * x2 * s0
    # direct route: expand (r^2 - |x-y|^2)^2 in |x-y| moments
    int_d2 = x2 * s0 - 2.0 * float(x @ s1) + t2
    int_d4 = (
        x2 * x2 * s0
        - 4.0 * x2 * float(x @ s1)
        + 2.0 * x2 * t2
        + 4.0 * float(x @ S2 @ x)
        - 4.0 * float(x @ u3)
        + t4
    )
    V = r**4 * s0 - 2.0 * r**2 * int_d2 + int_d4
    bmx = chain_ball_moments(chain, x, r)
    V_hat = r**4 * bmx.s0 - 2.0 * r**2 * bmx.t2 + bmx.t4
    m = chain.m
    nu = alpha_m(m) / (m + 2)
    scale = 1.0 / (nu * r ** (m + 2))
    P = np.array([P0, P1, P2, P3, P4])
    denom = abs(V) + float(np.sum(np.abs(P))) + 1e-300
    return MomentsRecord(
        x=x,
        r=r,
        m=m,
        V=V,
        V_hat=V_hat,
        P=P,
        b=b_vec,
        trace_Q=scale * t2,
        V_n=scale * V,
        P_n=scale * P,
        b_n=scale * b_vec,
        identity_gap=abs(V - float(np.sum(P))) / denom,
    )


@dataclass
class TraceBoundReport:
    trace: float
    target: float
    bound: float
    slack: float
    eps: float
    hypothesis_ok: bool
    worst_ratio_dev: float
    ok: bool


def trace_bound_check(
    chain: PolyChain, r: float, eps: float, rho_grid: np.ndarray | None = None
) -> TraceBoundReport:
    """Check ``|tr Q(T,0,r) - m| <= (m+4) eps`` under the density hypothesis.

    The hypothesis ``|ratio(rho) - 1| <= eps`` is verified on a rho-grid
    with exact ball masses.  The chain is expected to be normalized to
    unit density (coefficient norms ~ 1).
    """
    m = chain.m
    if rho_grid is None:
        rho_grid = r * np.linspace(0.1, 1.0, 16)
    prof = DensityProfile.from_chain(chain, np.zeros(chain.n), np.asarray(rho_grid))
    worst = float(np.max(np.abs(prof.values - 1.0)))
    hyp_ok = worst <= eps + 1e-15
    tr = quad_form(chain, np.zeros(chain.n), r).trace
    bound = (m + 4) * eps
    slack = bound - abs(tr - m)
    return TraceBoundReport(tr, float(m), bound, slack, eps, hyp_ok, worst, hyp_ok and slack >= -1e-12)


@dataclass
class BetaRecord:
    """L2 and sup flatness numbers of a measure against a plane at a scale."""

    beta2: float
    beta_inf: float
    plane: OrientedPlane
    sup_floor: float = 0.0  # sampling floor of the sup scan, 0 when exact


def beta_numbers(chain: PolyChain, x, r: float, plane: OrientedPlane) -> BetaRecord:
    """``beta_2`` by exact quadrature and ``beta_inf`` by a support scan.

    The sup is exact for codimension one (the vertical deviation is a
    linear functional, maximized at polytope vertices / circle extreme
    points); for higher codimension the curved boundary is sampled and
    the angular floor is reported.
    """
    x = np.asarray(x, dtype=float)
    return _beta_from_moments(chain, chain_ball_moments(chain, x, r), x, r, plane)


def _beta_from_moments(
    chain: PolyChain, bm: BallMoments, x: np.ndarray, r: float, plane: OrientedPlane
) -> BetaRecord:
    perpf = plane.perp_frame()
    # perp-block contraction avoids the trace-difference cancellation
    beta2_sq = float(np.einsum("ki,ij,kj->", perpf, bm.s2, perpf)) / r ** (chain.m + 2)
    beta2 = math.sqrt(max(beta2_sq, 0.0))
    sup, floor = _sup_perp_in_ball(chain, x, r, plane)
    return BetaRecord(beta2, sup / r, plane, floor / r)


# unit directions of the sampled in-plane circle for codimension >= 2
_CIRCLE_SAMPLES = 64
_CIRCLE = np.array(
    [[math.cos(a), math.sin(a)] for a in 2 * math.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES]
)


def _sup_perp_in_ball(
    chain: PolyChain, x: np.ndarray, r: float, plane: OrientedPlane
) -> tuple[float, float]:
    """Largest distance from the plane through ``x`` over ``spt(T) ∩ B(x, r)``
    and the sampling floor of that sup.

    The candidates of all simplices near the ball are evaluated at once:
    vertices inside the ball, edge-sphere crossings, and for triangles the
    extreme points of the height on the circle where the ball cuts the
    triangle's plane (exact in codimension one, 64 samples otherwise).
    """
    perp = plane.perp_frame()  # (n-m, n)
    codim = perp.shape[0]
    va = chain.vertex_array()[chain.near_ball(x, r)]
    if not len(va):
        return 0.0, 0.0
    v = va - x
    dist = np.linalg.norm(v, axis=2)
    heights = [np.linalg.norm(v[dist <= r + 1e-12] @ perp.T, axis=1)]
    # edge / sphere crossings
    i, j = np.triu_indices(va.shape[1], 1)
    p = v[:, i]
    dd = v[:, j] - p
    aa = np.einsum("ten,ten->te", dd, dd)
    bb = 2.0 * np.einsum("ten,ten->te", p, dd)
    cc = np.einsum("ten,ten->te", p, p) - r * r
    disc = bb * bb - 4 * aa * cc
    cut = (aa >= 1e-30) & (disc > 0)
    sq = np.sqrt(np.where(cut, disc, 0.0))
    den = 2 * np.where(cut, aa, 1.0)
    t = np.stack([(-bb - sq) / den, (-bb + sq) / den], axis=-1)
    hit = cut[..., None] & (t >= -1e-12) & (t <= 1 + 1e-12)
    crossings = p[:, :, None] + t[..., None] * dd[:, :, None]
    heights.append(np.linalg.norm(crossings[hit] @ perp.T, axis=1))
    floor = 0.0
    if chain.m == 2:
        # extreme points on the in-plane circle
        E = np.swapaxes(np.linalg.qr(np.swapaxes(va[:, 1:] - va[:, :1], 1, 2))[0], 1, 2)
        rel = x - va[:, 0]
        a_in = np.einsum("tin,tn->ti", E, rel)
        h2 = np.einsum("tn,tn->t", rel, rel) - np.einsum("ti,ti->t", a_in, a_in)
        r2 = r * r - np.maximum(h2, 0.0)
        met = r2 > 0
        E, a_in, tri = E[met], a_in[met], va[met]
        rho = np.sqrt(r2[met])
        if codim == 1:
            g = E @ perp[0]  # in-plane gradient of the height functional
            gn = np.linalg.norm(g, axis=1)
            keep = gn > 1e-14
            step = rho[keep, None] * g[keep] / gn[keep, None]
            E, a_in, tri = E[keep], a_in[keep], tri[keep]
            cands = np.stack([a_in + step, a_in - step], axis=1)
        else:
            cands = a_in[:, None, :] + rho[:, None, None] * _CIRCLE
            if len(rho):
                floor = float(np.max(rho)) * (math.pi / _CIRCLE_SAMPLES) ** 2
        dom = np.einsum("tkn,tin->tki", tri - tri[:, :1], E)
        T = np.stack([dom[:, 1] - dom[:, 0], dom[:, 2] - dom[:, 0]], axis=-1)
        ok = np.abs(np.linalg.det(T)) >= 1e-30
        if np.any(ok):
            lam = np.linalg.solve(T[ok], np.swapaxes(cands[ok] - dom[ok, :1], 1, 2))
            tol = 1e-12
            inside = (lam[:, 0] >= -tol) & (lam[:, 1] >= -tol) & (1 - (lam[:, 0] + lam[:, 1]) >= -tol)
            base_perp = (tri[ok, 0] - x) @ perp.T
            perp_e = np.einsum("cn,tin->tci", perp, E[ok])
            y_rel = base_perp[:, None, :] + np.einsum("tci,tki->tkc", perp_e, cands[ok])
            heights.append(np.linalg.norm(y_rel[inside], axis=1))
    return max((float(np.max(h)) for h in heights if h.size), default=0.0), floor


@dataclass
class FirstMomentReport:
    b_norm: float
    bound: float
    trivial_bound: float
    c_m: float
    hypotheses_ok: bool
    details: dict = field(default_factory=dict)


def first_moment_bound_check(
    chain: PolyChain,
    r: float,
    xi: Gauge,
    c_m: float = 8.0,
    density_tol: float = 0.05,
    support_samples: int = 8,
) -> FirstMomentReport:
    """Check ``|b_n(phi, r)| <= c(m) r max(r^{1/4}, sqrt(xi(2 sqrt r)))``.

    Hypotheses -- unit density at the origin, drop-excess below the gauge
    at scales up to ``sqrt(r)`` around support points in ``B(0,r)``, and
    two-sided excess below the gauge at the origin up to ``2 sqrt(r)`` --
    are verified on radius grids.  The trivial normalization bound
    ``|b_n| <= 2 r (1 + exc)`` is always reported alongside.
    """
    m = chain.m
    if not 0 < 2 * math.sqrt(r) <= 1:
        raise ValueError("need 2 sqrt(r) <= 1")
    origin = np.zeros(chain.n)
    grid0 = np.geomspace(1e-3 * r, 2 * math.sqrt(r), 48)
    prof0 = DensityProfile.from_chain(chain, origin, grid0)
    exc0 = spherical_excess(prof0, 2 * math.sqrt(r))[2]
    density0 = abs(prof0.values[0] - 1.0)
    hyp = density0 <= density_tol and exc0 <= xi(2 * math.sqrt(r)) + 1e-12
    verts = chain.vertex_array().reshape(-1, chain.n)
    verts = verts[np.linalg.norm(verts, axis=1) <= r]
    step = max(1, len(verts) // support_samples)
    worst_drop = 0.0
    for p in verts[::step]:
        grid = np.geomspace(1e-3 * r, math.sqrt(r), 24)
        prof = DensityProfile.from_chain(chain, p, grid)
        ratio_max = float(np.max(prof.values))
        drop = spherical_excess(prof, math.sqrt(r))[0] / max(ratio_max, 1e-9)
        worst_drop = max(worst_drop, drop)
    hyp = hyp and worst_drop <= xi(math.sqrt(r)) + 1e-12
    rec = moments_all(chain, origin, r)
    b_norm = float(np.linalg.norm(rec.b_n))
    bound = c_m * r * max(r**0.25, math.sqrt(xi(2 * math.sqrt(r))))
    trivial = 2.0 * r * (1.0 + exc0)
    return FirstMomentReport(
        b_norm,
        bound,
        trivial,
        c_m,
        hyp,
        {"density0_dev": density0, "exc0": exc0, "worst_drop": worst_drop},
    )


@dataclass
class PinchReport:
    lhs: float
    bound: float
    slack: float
    eta: float
    tau_density: float
    hypotheses_ok: bool
    notes: list[str] = field(default_factory=list)


def quadform_pinch_check(
    chain: PolyChain,
    x,
    r: float,
    xi: Gauge,
    c_m: float = 8.0,
    tau_density: float = 0.05,
) -> PinchReport:
    """Check ``| Q_n(phi,r)(x) - |x|^2 | <= c(m) |x|^2 max(r^{1/8}, xi(2 sqrt r)^{1/4})``.

    The hypothesis set asks for unit densities at the origin and at ``x``
    and for ``|x|`` at the prescribed radius; exact unit densities are
    rarely attainable for polyhedral data, so densities are accepted
    within ``tau_density`` and that tolerance is reported.  Hypothesis
    failure is an expected outcome for most inputs, reported not raised.
    """
    x = np.asarray(x, dtype=float)
    m = chain.m
    notes: list[str] = []
    eta = max(r**0.125, xi(2 * math.sqrt(r)) ** 0.25)
    target = r * eta
    ok = True
    if abs(float(np.linalg.norm(x)) - target) > 0.05 * target:
        ok = False
        notes.append(f"|x| = {np.linalg.norm(x):.4g} is not at the prescribed radius {target:.4g}")
    for point, label in ((np.zeros(chain.n), "0"), (x, "x")):
        grid = np.geomspace(1e-3 * r, r, 24)
        prof = DensityProfile.from_chain(chain, point, grid)
        dev = abs(prof.values[0] - 1.0)
        if dev > tau_density:
            ok = False
            notes.append(f"density at {label} deviates by {dev:.3g} > tau {tau_density}")
    form = quad_form(chain, np.zeros(chain.n), r)
    lhs = abs(form(x) - float(x @ x))
    bound = c_m * float(x @ x) * eta
    return PinchReport(lhs, bound, bound - lhs, eta, tau_density, ok, notes)
