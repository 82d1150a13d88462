"""Second-moment forms, spectral plane selection, and moment polynomials.

The quadratic form of a chain's measure in a ball,

    Q(T, x, r)(y) = (m+2) / (alpha(m) r^{m+2}) * int_{B(x,r)} <z-x, y-x>^2 d||T||,

is normalized so that a flat unit-weight m-plane through ``x`` gives
``Q(y) = |pi_V(y)|^2``; its top-m eigenspace is the selected plane.  The
degree-four moment polynomials ``V = P_0 + ... + P_4``, the first moment
``b``, and the flatness numbers ``beta_2`` / ``beta_inf`` are computed
from exact per-simplex ball moments (m <= 2), and ``beta_inf`` is an
exact sup in every codimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import PolyChain, _check_points, _check_radius, _sup_pass
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
    return batch_ball_moments(chain.vertex_array()[near], center, radius, chain.coeff_norms()[near], chain.frames(near))


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
    frames, gaps = _signed_frames(w[None], vecs[None], m)
    if gaps[0] <= gap_tol:
        raise AmbiguousPlaneError(_gap_reason(gaps[0], gap_tol))
    return OrientedPlane(frames[0]), w


def _signed_frames(w: np.ndarray, vecs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-m eigenvector rows (C, m, n) of a stack of eigenvalues
    descending ``w`` (C, n) and matching eigenvector rows ``vecs`` (C, n, n),
    each row turned so that its first component larger than 1e-9 in
    magnitude is positive, and the eigen-gaps ``w[:, m-1] - w[:, m]``."""
    top = vecs[:, :m]
    big = np.abs(top) > 1e-9
    c, k = np.indices(big.shape[:2])
    flip = big.any(axis=2) & (top[c, k, big.argmax(axis=2)] < 0)
    return np.where(flip[..., None], -top, top), w[:, m - 1] - w[:, m]


def _gap_reason(gap: float, gap_tol: float = 1e-10) -> str:
    return f"eigen-gap {gap:.3e} below {gap_tol:.1e}"


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
    expansions and its relative gap is recorded.  A radius that is not
    finite and positive, or an ``x`` that is not a finite point of R^n,
    raises ``ValueError``.
    """
    _check_radius(r, "radius")
    x = np.asarray(x, dtype=float)
    _check_points(x, (chain.n,), "centre")
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


def beta_numbers(chain: PolyChain, x, r: float, plane: OrientedPlane) -> BetaRecord:
    """``beta_2`` by exact quadrature and ``beta_inf`` by the exact sup of
    the distance to the plane through ``x`` over the support in the ball,
    in every codimension (:func:`gmtepi.chains._region_sups`)."""
    x = np.asarray(x, dtype=float)
    near = chain.near_ball(x, r)
    bm = chain_ball_moments(chain, x, r)
    cells = np.zeros(len(near), dtype=np.int64)
    perps = _perp_frames(plane.frame[None])
    request = _cell_betas(chain.vertex_array()[near], cells, x[None], np.array([r]), [bm], [plane], perps, chain.m)
    return _sup_pass(request)[0][0]


def _perp_frames(frames: np.ndarray) -> np.ndarray:
    """The complement frames (C, n-m, n) of the plane frames (C, m, n), as
    :meth:`OrientedPlane.perp_frame` gives each, from one stacked SVD."""
    return np.linalg.svd(frames)[2][:, frames.shape[1] :]


#: ``beta_2``'s perp contraction reads 0 at most this many times ``(n - m)
#: eps t2``, its rounding bound: each entry of the exact second moment
#: ``s2`` carries a few ulps of its trace ``t2 = ∫|y - x|^2``, and n - m
#: unit rows contract it.  Flat cells of ``flat_disk`` in R^5 and R^8 read
#: at most ``0.23 (n - m) eps t2``.
_BETA2_ROUNDING = 16


def _cell_betas(
    va: np.ndarray,
    cells: np.ndarray,
    xs: np.ndarray,
    rs: np.ndarray,
    moments: list[BallMoments],
    planes: list[OrientedPlane],
    perps: np.ndarray,
    m: int,
):
    """The :func:`gmtepi.chains._sup_pass` request for the
    :class:`BetaRecord` of each ball ``B(xs[c], rs[c])`` against
    ``planes[c]``, with complement frame ``perps[c]`` (:func:`_perp_frames`),
    from its exact moments and the simplices ``va`` near it (row ``t`` near
    ball ``cells[t]``, nondecreasing)."""
    rounding = _BETA2_ROUNDING * len(perps[0]) * np.finfo(float).eps

    def finish(sups: np.ndarray) -> list[BetaRecord]:
        out = []
        for bm, perpf, r, sup, plane in zip(moments, perps, rs.tolist(), _cell_max(sups, cells, len(xs)), planes):
            # perp-block contraction avoids the trace-difference cancellation
            contraction = float(np.einsum("ki,ij,kj->", perpf, bm.s2, perpf))
            beta2 = math.sqrt(contraction / r ** (m + 2)) if contraction > rounding * bm.t2 else 0.0
            out.append(BetaRecord(beta2, sup / r, plane))
        return out

    return (*_ball_rows(va, cells, xs, xs, perps), rs[cells], finish)


def _centred_betas(
    va: np.ndarray, cells: np.ndarray, xs: np.ndarray, rs: np.ndarray, moments: list[BallMoments], m: int
):
    """The :func:`gmtepi.chains._sup_pass` request for ``beta_inf`` of each
    ball of :func:`_cell_betas` about the centroid of its measure, against
    the top-m plane of its centred second-moment form: the exact sup of the
    distance to that plane over the support in the ball, over the radius.
    None for a ball of zero mass."""
    n = xs.shape[1]
    s0 = np.array([bm.s0 for bm in moments])
    live = (s0 > 0).nonzero()[0]
    s1 = np.array([moments[c].s1 for c in live]).reshape(len(live), n)
    s2 = np.array([moments[c].s2 for c in live]).reshape(len(live), n, n)
    centroids = xs[live] + s1 / s0[live, None]
    covs = s2 - s1[:, :, None] * s1[:, None, :] / s0[live, None, None]
    # eigh sorts ascending: the first n - m eigenvectors span the complement
    # of the top-m plane
    vecs = np.linalg.eigh(0.5 * (covs + covs.transpose(0, 2, 1)))[1]
    perps = vecs[:, :, : n - m].transpose(0, 2, 1)
    at = np.full(len(xs), -1)
    at[live] = np.arange(len(live))
    rows = at[cells] >= 0

    def finish(sups: np.ndarray) -> list[float | None]:
        out: list[float | None] = [None] * len(xs)
        for c, sup in zip(live.tolist(), _cell_max(sups, at[cells[rows]], len(live))):
            out[c] = sup / float(rs[c])
        return out

    return (*_ball_rows(va[rows], at[cells[rows]], xs[live], centroids, perps), rs[cells[rows]], finish)


def _ball_rows(
    va: np.ndarray, cells: np.ndarray, xs: np.ndarray, anchors: np.ndarray, perps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ball coordinates ``va - xs[c]`` and heights ``(va - anchors[c]) @
    perps[c].T`` of the simplices ``va`` (row ``t`` near ball ``cells[t]``)
    for :func:`gmtepi.chains._region_sups`: the sup of ``|h|`` over each
    row's part in its ball."""
    h = np.matmul(va - anchors[cells][:, None, :], perps.transpose(0, 2, 1)[cells])
    return va - xs[cells][:, None, :], h


def _cell_max(sups: np.ndarray, cells: np.ndarray, count: int) -> list[float]:
    """The largest of each cell's row ``sups``; 0 for a cell with none."""
    out = np.zeros(count)
    np.maximum.at(out, cells, sups)
    return out.tolist()


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
