"""Solving and diagnosing the ill-posed problem g = P_T f.

The exact finite-dimensional inverse multiplies mode k by exp(lambda_k T),
which overflows double precision as soon as the energetic part of the
spectrum reaches lambda T ~ 700.  Everything in this module is therefore
organised around the *energy-carrying* part of the observed data: modes
whose coefficients sit below a relative floor are treated as absent, and
the conditioning report grades how violently the rest is amplified.

Two independent routes compute the same objects: per-mode spectral
multipliers, and truncated Bochner integrals of semigroup orbits against
Bessel kernels.  Their agreement is the library's main correctness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import LAPLACE_QUADRATURE, QuadratureConfig, i0_multipliers, j0_multipliers
from .errors import (
    MAX_EXPONENT,
    MAX_TRAJECTORY_CELLS,
    ConditioningCapExceeded,
    LengthMismatch,
    NonPositiveAlpha,
    ValidationError,
    check_budget,
    check_count,
    check_exponent,
    check_range,
)
from .spectral import SpectralDecomposition, norm

_LN10 = math.log(10.0)

# Relative coefficient floor: modes of g below coeff_tol * ||g|| carry no
# usable information and are excluded from inversion (their amplified images
# would be pure noise, or overflow outright).
COEFF_TOL = 1e-12

WARNING_AMPLIFICATION = 1e8
SEVERE_AMPLIFICATION = 1e12

# Largest energetic lambda_max * T the I0 inversion integral is run at.
BESSEL_CONDITIONING_CAP = 20.0

# Quadrature settings of the Bessel twins: the J0 resolvent flow, the I0
# inversion and conditioning integrals, and the squared-Bessel transform h.
FLOW_QUADRATURE = QuadratureConfig(tail_tol=1e-11)
I0_QUADRATURE = QuadratureConfig(tail_tol=1e-12, points_per_panel=32)
H_QUADRATURE = QuadratureConfig(tail_tol=1e-13, points_per_panel=32)

# Trapezoid nodes per unit time of the Picard iterates.
PICARD_POINTS_PER_UNIT = 2000

# Central-difference residual the ``pde`` time grid is sized for.
PDE_RESIDUAL_TARGET = 1e-4


@dataclass(frozen=True)
class InverseProblem:
    """Observed data g assumed to satisfy g = P_T f on the decomposition."""

    decomposition: SpectralDecomposition
    horizon: float
    observed: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.observed, dtype=float)
        object.__setattr__(self, "observed", g)
        check_range("horizon", self.horizon)
        if g.shape != (self.decomposition.size,):
            raise LengthMismatch("observed data length does not match the space")
        if not np.all(np.isfinite(g)):
            raise ValidationError("observed data must be finite")


@dataclass(frozen=True)
class ConditioningReport:
    """How ill-conditioned the inversion of g at horizon T is.

    ``lambda_max`` is the largest eigenvalue carrying non-negligible
    g-energy; exp(lambda_max T) = 10^``amplification_log10`` is the worst
    per-mode blow-up of the inverse, and 10^``membership_spectral_log10`` the
    criterion sum.  Its quadrature twin ``membership_quadrature`` (inf past
    double range) increases to the spectral value as s_max grows.
    """

    lambda_max: float
    amplification_log10: float
    membership_spectral_log10: float
    membership_quadrature: float
    flag: str

    def to_json_dict(self) -> dict:
        """The report's JSON fields; a zero membership (log10 -inf) or an infinite twin is written as null."""
        spectral_log10 = self.membership_spectral_log10
        quadrature = self.membership_quadrature
        return {
            "lambdaMax": self.lambda_max,
            "amplificationLog10": self.amplification_log10,
            "membershipSpectralLog10": spectral_log10 if math.isfinite(spectral_log10) else None,
            "membershipQuadrature": quadrature if math.isfinite(quadrature) else None,
            "flag": self.flag,
        }


def _flow_multipliers(lam: np.ndarray, alpha: float, t: float) -> np.ndarray:
    beta = lam + alpha
    return np.exp(-t / beta) / beta


def resolvent_flow(dec: SpectralDecomposition, alpha: float, t: float, f) -> np.ndarray:
    """Damped resolvent orbit: mode k scaled by exp(-t/(l+a)) / (l+a).

    At t = 0 this is the resolvent; as t grows it decreases convexly to 0.
    Defines a non-negative quadratic form for every t >= 0.
    """
    check_range("alpha", alpha, error=NonPositiveAlpha)
    check_range("flow time", t, closed=True)
    return dec.apply(_flow_multipliers(dec.eigenvalues, alpha, t), f)


def resolvent_flow_quadrature(dec: SpectralDecomposition, alpha: float, t: float, f) -> np.ndarray:
    """The same orbit computed as a Bochner integral of J0-damped semigroup.

    integral_0^inf J0(2 sqrt(t s)) exp(-alpha s) P_s f ds: mode k is scaled
    by :func:`~semigroupinv.bessel.j0_multipliers` at rate lambda_k + alpha,
    truncated where the slowest decay, times ||f||, falls below the tail tolerance.
    """
    check_range("alpha", alpha, error=NonPositiveAlpha)
    check_range("flow time", t, closed=True)
    scale = max(1.0, norm(dec.space, f))
    return dec.apply(j0_multipliers(t, dec.eigenvalues + alpha, FLOW_QUADRATURE, scale).value, f)


def _energy_active(dec: SpectralDecomposition, g, coeff_tol: float):
    """Coefficients of g, the modes above the floor, and their largest eigenvalue (or 0)."""
    check_range("coeff_tol", coeff_tol, closed=True)
    c = dec.coefficients(g)
    floor = coeff_tol * max(norm(dec.space, g), np.finfo(float).tiny)
    idx = np.nonzero(np.abs(c) > floor)[0]
    lam_max = float(dec.eigenvalues[idx].max()) if idx.size else 0.0
    return c, idx, lam_max


def energetic_lambda_max(dec: SpectralDecomposition, g) -> float:
    """Largest eigenvalue whose mode carries g-energy above the ``COEFF_TOL`` floor."""
    return _energy_active(dec, g, COEFF_TOL)[2]


def invert_spectral(problem: InverseProblem, coeff_tol: float = COEFF_TOL) -> np.ndarray:
    """Exact finite-dimensional inverse: mode k multiplied by exp(l_k T).

    Modes below the coefficient floor are dropped (see module docstring);
    if the remaining amplification exp(lambda_max T) would overflow double
    range an :class:`OverflowRisk` is raised carrying the log10 magnitude.
    """
    dec = problem.decomposition
    T = problem.horizon
    c, idx, lam_max = _energy_active(dec, problem.observed, coeff_tol)
    if not idx.size:
        return np.zeros(dec.size)
    message = f"inverse amplification exp({lam_max:.6g} * {T:g}) exceeds double range"
    check_exponent(lam_max * T, message)
    amplified = np.zeros(dec.size)
    amplified[idx] = np.exp(dec.eigenvalues[idx] * T) * c[idx]
    return dec.synthesize(amplified)


def invert_bessel(problem: InverseProblem, alpha: float, coeff_tol: float = COEFF_TOL) -> np.ndarray:
    """Inverse via the Bessel-integral representation.

    exp(-alpha T) * integral_0^inf I0(2 sqrt(T s)) F_s g ds, where F_s is
    the damped resolvent orbit of g: per mode, exp(-alpha T) c_k / beta_k
    times :func:`~semigroupinv.bessel.i0_multipliers` at beta_k = lambda_k + alpha.
    Its envelope I0(2 sqrt(T s)) exp(-s/(lambda_max+alpha)) converges only
    through the linear-beats-square-root balance, so the energetic
    lambda_max * T is capped at ``BESSEL_CONDITIONING_CAP`` and the
    truncation point follows the envelope's peak.  Result agrees with
    :func:`invert_spectral` for every admissible alpha.
    """
    check_range("alpha", alpha, error=NonPositiveAlpha)
    dec = problem.decomposition
    T = problem.horizon
    c, idx, lam_max = _energy_active(dec, problem.observed, coeff_tol)
    if not idx.size:
        return np.zeros(dec.size)
    if lam_max * T > BESSEL_CONDITIONING_CAP:
        raise ConditioningCapExceeded(
            f"energetic lambda_max * T = {lam_max * T:.4g} exceeds the cap"
            f" {BESSEL_CONDITIONING_CAP:g} for the Bessel inversion integral",
            exponent=lam_max * T,
        )
    beta = dec.eigenvalues[idx] + alpha
    mu = i0_multipliers(T, beta, I0_QUADRATURE).value
    amplified = np.zeros(dec.size)
    amplified[idx] = math.exp(-alpha * T) * mu * c[idx] / beta
    return dec.synthesize(amplified)


def conditioning_report(problem: InverseProblem, alpha: float) -> ConditioningReport:
    """Quantify the conditioning of inverting g at horizon T, above ``COEFF_TOL``.

    The spectral membership value sum_k exp(2T(l_k+alpha)) (phi_k, g)^2 is
    always finite here (finite dimension); what the report grades is its
    size.  The quadrature twin integrates I0(2 sqrt(2 T s)) against the
    flow's quadratic form, truncated both by the tail tolerance and by
    double range, and increases monotonically to the spectral value.
    """
    check_range("alpha", alpha, error=NonPositiveAlpha)
    dec = problem.decomposition
    T = problem.horizon
    g = problem.observed
    c, _, lam_max = _energy_active(dec, g, COEFF_TOL)
    lam = dec.eigenvalues

    # log-sum-exp of ln terms 2T(l+a) + ln c^2, in natural log
    with np.errstate(divide="ignore"):
        ln_terms = 2.0 * T * (lam + alpha) + 2.0 * np.log(np.abs(c))
    ln_terms = ln_terms[np.isfinite(ln_terms)]
    if ln_terms.size == 0:
        spectral_log10 = -math.inf
    else:
        peak = float(ln_terms.max())
        spectral_log10 = (peak + math.log(float(np.exp(ln_terms - peak).sum()))) / _LN10

    beta = lam + alpha
    # keep both the I0 argument and the integrand inside double range
    s_cap = (0.5 * MAX_EXPONENT) ** 2 / (2.0 * T)
    mu = i0_multipliers(2.0 * T, beta, I0_QUADRATURE, s_cap).value
    with np.errstate(over="ignore"):  # c^2 past double range: the twin is inf, written as null
        membership_quadrature = float(c * c / beta @ mu)

    exponent = lam_max * T
    if exponent >= math.log(SEVERE_AMPLIFICATION):
        flag = "severe"
    elif exponent >= math.log(WARNING_AMPLIFICATION):
        flag = "warning"
    else:
        flag = "ok"
    return ConditioningReport(
        lambda_max=lam_max,
        amplification_log10=exponent / _LN10,
        membership_spectral_log10=spectral_log10,
        membership_quadrature=membership_quadrature,
        flag=flag,
    )


# -- Picard iteration and the Cauchy problem for the flow ----------------------


@dataclass(frozen=True)
class PicardResult:
    """Iterates of the flow's Picard recursion on a uniform time grid.

    ``trajectories[n]`` has shape (len(times), space size); iterate n is
    guaranteed to lie within t^n / (alpha^n n!) * ||f|| of the true orbit,
    uniformly on [0, t].
    """

    times: np.ndarray
    trajectories: list


def _cumulative_trapezoid(y: np.ndarray, ds: float) -> np.ndarray:
    out = np.zeros_like(y)
    np.cumsum(0.5 * ds * (y[1:] + y[:-1]), axis=0, out=out[1:])
    return out


def picard_resolvent_flow(
    dec: SpectralDecomposition,
    alpha: float,
    f,
    t: float,
    n_iter: int,
) -> PicardResult:
    """Successive approximations j_{n+1} = U f - integral_0^s U j_n dr.

    The base iterate is constant (the resolvent of f).  Integrals use the
    trapezoid rule on a uniform grid; ``PICARD_POINTS_PER_UNIT`` keeps the
    discretisation bias well below the Picard bound through n ~ 10.
    The n_iter + 1 tables of times x states may hold at most
    ``errors.MAX_TRAJECTORY_CELLS`` cells in all, else :class:`ValidationError`.
    """
    check_range("alpha", alpha, error=NonPositiveAlpha)
    check_range("t", t)
    check_count("n_iter", n_iter, 0)
    n_points = max(2, int(round(PICARD_POINTS_PER_UNIT * t)) + 1)
    tables = f"{n_iter + 1} iterates x {n_points} times x {dec.size} states"
    check_budget(f"Picard cells ({tables})", (n_iter + 1) * n_points * dec.size, MAX_TRAJECTORY_CELLS)
    s = np.linspace(0.0, t, n_points)
    ds = s[1] - s[0]
    u_mult = 1.0 / (dec.eigenvalues + alpha)
    base = u_mult * dec.coefficients(f)

    coeff_traj = np.tile(base, (n_points, 1))
    trajectories = [coeff_traj @ dec.eigenvectors.T]
    for _ in range(n_iter):
        integral = _cumulative_trapezoid(coeff_traj * u_mult[None, :], ds)
        coeff_traj = base[None, :] - integral
        trajectories.append(coeff_traj @ dec.eigenvectors.T)
    return PicardResult(s, trajectories)


def solve_resolvent_cauchy(
    dec: SpectralDecomposition, alpha: float, f, t_grid
) -> np.ndarray:
    """Solve dj/dt = -U j, j(0) = U f, where U is the resolvent at alpha.

    The resolvent is bounded, so the solution is the uniformly continuous
    semigroup exp(-t U) applied to U f: per mode
    exp(-t/(l+a)) / (l+a).  Returns the trajectory (len(t_grid), n).
    """
    check_range("alpha", alpha, error=NonPositiveAlpha)
    t_grid = _time_grid(t_grid, math.inf)
    u_mult = 1.0 / (dec.eigenvalues + alpha)
    return dec.trajectory(-u_mult, t_grid, u_mult * dec.coefficients(f))


def laplace_diagnostic(dec: SpectralDecomposition, alpha: float, f, s: float) -> tuple[float, float]:
    """Laplace transform of the flow's quadratic form vs its closed form.

    lhs = integral_0^inf exp(-s t) (F_t f, f) dt by quadrature;
    rhs = (1/s) (U^(alpha + 1/s) f, f), with the s = 0 limit (f, f).
    """
    check_range("alpha", alpha, error=NonPositiveAlpha)
    check_range("s", s, closed=True)
    c2 = dec.coefficients(f) ** 2
    beta = dec.eigenvalues + alpha
    if s == 0:
        rhs = float(c2.sum())
    else:
        rhs = float(np.sum(c2 / (s * beta + 1.0)))

    # J0(0) = 1, so j0_multipliers at x = 0 is the Laplace transform of each mode's exp(-t/beta_k)
    quad_form = c2 / beta
    mu = j0_multipliers(0.0, s + 1.0 / beta, LAPLACE_QUADRATURE, max(1.0, float(quad_form.sum()))).value
    return float(quad_form @ mu), rhs


# -- backward Cauchy problem ---------------------------------------------------


@dataclass(frozen=True)
class BackwardTrajectory:
    """Solution u(t) of u_t + A u = 0, u(0) = g, on [0, T]."""

    times: np.ndarray
    values: np.ndarray  # shape (len(times), n)


def backward_time_grid(horizon: float, lam_max: float) -> np.ndarray:
    """Uniform grid fine enough for central differences to verify the PDE.

    The FD residual of the mode growing like exp(lambda t) scales as
    lambda^3 h^2 / 6; the step targets a tenth of ``PDE_RESIDUAL_TARGET``
    for the stiffest mode, with at least 200 steps.  More steps than the cell budget of
    a 2-state space, ``MAX_TRAJECTORY_CELLS // 2`` = 2,000,000, raise :class:`ValidationError`.
    """
    check_range("horizon", horizon)
    check_range("lam_max", lam_max, closed=True)
    lam = max(float(lam_max), 1.0)
    h = math.sqrt(0.6 * PDE_RESIDUAL_TARGET / lam**3)
    n_steps = max(200, math.ceil(horizon / h))
    check_budget(f"time steps (lambda_max {lam_max:.6g} on [0, {horizon:g}])", n_steps, MAX_TRAJECTORY_CELLS // 2)
    return np.linspace(0.0, horizon, n_steps + 1)


def _time_grid(t_grid, horizon: float, rate_max: float | None = None) -> np.ndarray:
    """The caller's ``t_grid``, or :func:`backward_time_grid` for ``rate_max`` when it is None.

    A given grid is refused unless it is 1-D and every time is finite and
    in [0, horizon], so a trajectory evaluates only where its guard holds.
    Without ``rate_max`` a grid is required: None reads as a 0-d NaN and is refused.
    """
    if t_grid is None and rate_max is not None:
        return backward_time_grid(horizon, rate_max)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid) & (t_grid >= 0) & (t_grid <= horizon)):
        raise ValidationError(f"t_grid needs a 1-D array of finite times in [0, {horizon:g}]")
    return t_grid


def solve_backward_cauchy(
    problem: InverseProblem,
    t_grid=None,
    coeff_tol: float = COEFF_TOL,
) -> BackwardTrajectory:
    """Backward evolution u(t) = P_(T-t) applied to the inverse of g.

    The trajectory starts at g (up to the coefficient floor), ends at the
    spectral inverse, and satisfies u_t + A u = 0 mode by mode: mode k
    evolves as exp(lambda_k t).  Raises the inversion's OverflowRisk when g
    is not invertible in double range.
    """
    dec = problem.decomposition
    T = problem.horizon
    c, idx, lam_max = _energy_active(dec, problem.observed, coeff_tol)
    check_exponent(lam_max * T, f"backward solution reaches exp({lam_max * T:.6g})")
    t_grid = _time_grid(t_grid, T, lam_max)
    values = dec.trajectory(dec.eigenvalues[idx], t_grid, c[idx], modes=idx)
    return BackwardTrajectory(t_grid, values)


# -- squared-Bessel transform of the flow's quadratic form ---------------------


def squared_bessel_h(
    dec: SpectralDecomposition, f, horizon: float, t, x
) -> np.ndarray:
    """Closed form of the kernel transform h(t, x).

    Per mode: (phi_k, f)^2 exp(-x/beta_k) / beta_k with
    beta_k = 2 (horizon - t) + lambda_k.  Requires beta_k > 0 and finite t, x.
    """
    check_range("horizon", horizon)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
        raise ValidationError("t and x need finite values")
    c2 = dec.coefficients(f) ** 2
    beta = 2.0 * (horizon - t[..., None]) + dec.eigenvalues
    if np.any(beta <= 0):
        raise ValidationError("need 2 (horizon - t) + lambda_min > 0 on the grid")
    return np.sum(c2 * np.exp(-x[..., None] / beta) / beta, axis=-1)


def squared_bessel_h_quadrature(dec: SpectralDecomposition, f, horizon: float, t: float, x: float) -> float:
    """h(t, x) as the J0-weighted integral of the semigroup's form.

    integral_0^inf J0(2 sqrt(x s)) exp(-2 (horizon-t) s) (P_s f, f) ds.
    At t = 0 this is the flow's quadratic form at parameter alpha = 2 T
    evaluated at flow time x.
    """
    check_range("horizon", horizon)
    check_range("t", t, closed=True)
    check_range("x", x, closed=True)
    rate0 = 2.0 * (horizon - t)
    lam = dec.eigenvalues
    if rate0 + float(lam.min()) <= 0:
        raise ValidationError("need 2 (horizon - t) + lambda_min > 0")
    c2 = dec.coefficients(f) ** 2
    mu = j0_multipliers(x, lam + rate0, H_QUADRATURE, max(1.0, float(c2.sum()))).value
    return float(c2 @ mu)


@dataclass(frozen=True)
class HFunctionReport:
    """PDE residual of the kernel transform on a (t, x) grid.

    ``values[i, j]`` holds h(t_i, x_j) computed by quadrature;
    ``max_residual`` is the largest |h_t + 2 x h_xx + 2 h_x| over interior
    grid nodes, by central differences at the grid steps.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    max_residual: float


def squared_bessel_pde_check(dec: SpectralDecomposition, f, horizon: float, t_grid, x_grid) -> HFunctionReport:
    """Verify h_t + 2 x h_xx + 2 h_x = 0 by finite differences.

    h is evaluated by quadrature on the tensor grid; both grids must be
    uniform.  The quadrature tolerance is tightened well below the FD
    amplification 4/dx^2 so the residual reflects the transform, not noise.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if t_grid.size < 3 or x_grid.size < 3:
        raise ValidationError("need at least 3 grid points in t and x")
    dt = t_grid[1] - t_grid[0]
    dx = x_grid[1] - x_grid[0]
    values = np.empty((t_grid.size, x_grid.size))
    for i, t in enumerate(t_grid):
        for j, x in enumerate(x_grid):
            values[i, j] = squared_bessel_h_quadrature(dec, f, horizon, t, x)
    h_t = (values[2:, 1:-1] - values[:-2, 1:-1]) / (2.0 * dt)
    h_x = (values[1:-1, 2:] - values[1:-1, :-2]) / (2.0 * dx)
    h_xx = (values[1:-1, 2:] - 2.0 * values[1:-1, 1:-1] + values[1:-1, :-2]) / dx**2
    residual = h_t + 2.0 * x_grid[None, 1:-1] * h_xx + 2.0 * h_x
    return HFunctionReport(t_grid, x_grid, values, float(np.max(np.abs(residual))))
