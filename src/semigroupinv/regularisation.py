"""Regularised inverse problems: multiplier families, the penalised
least-squares characterisation, and the jump-mixture construction.

A regulariser replaces the unbounded per-mode inverse exp(lambda T) by the
bounded multiplier 1 / (gamma phi(lambda) + (1-gamma) exp(-lambda T)) for a
strictly positive spectral function phi.  The jump mixture is the special
case where the perturbing operator is itself the semigroup of a unit-rate
jump process, which keeps the regularised problem solvable for every
observation with inverse norm at most exp(t)/gamma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePhi, ValidationError, check_exponent, check_range
from .inversion import (
    _time_grid,
    BackwardTrajectory,
    InverseProblem,
    invert_spectral,
)
from .spectral import SpectralDecomposition, SpectralFunction, _csv_text, _root_sum_squares, norm

# Each regularising multiplier family: its parameters, the error class an
# out-of-range parameter raises, and phi(lambda) built from their values.
_PHI_FAMILIES = {
    "tikhonov_exp": (("horizon",), ValidationError, lambda horizon: lambda lam: np.exp(lam * horizon)),
    "constant": (("value",), DegeneratePhi, lambda value: lambda lam: np.full_like(lam, value)),
    "jump_mixture": (
        ("t_star", "tau"), ValidationError,
        lambda t_star, tau: lambda lam: np.exp(tau * (np.exp(-t_star * lam) - 1.0)),
    ),
    "resolvent_jump": (
        ("alpha", "tau"), ValidationError,
        lambda alpha, tau: lambda lam: np.exp(tau * (alpha / (lam + alpha) - 1.0)),
    ),
}
PHI_FAMILY_NAMES = tuple(_PHI_FAMILIES)


def make_phi(name: str, **params) -> SpectralFunction:
    """Build a registered regularising multiplier family.

    tikhonov_exp(horizon):      phi(l) = exp(l * horizon); the regularised
                                equation becomes (1-g) P_T f + g P_T^-1 f = g.
    constant(value):            phi(l) = value > 0.
    jump_mixture(t_star, tau):  phi(l) = exp(tau (exp(-t_star l) - 1)), the
                                semigroup at time tau of jumps driven by the
                                transition function at horizon t_star.
    resolvent_jump(alpha, tau): phi(l) = exp(tau (alpha/(l+alpha) - 1)),
                                jumps driven by the scaled resolvent.

    Every parameter of the family is required, finite and > 0; parameters
    of the other families are ignored.
    """
    if name not in _PHI_FAMILIES:
        raise ValidationError(f"unknown phi family {name!r}; choose from {PHI_FAMILY_NAMES}")
    keys, error, phi = _PHI_FAMILIES[name]
    missing = [key for key in keys if key not in params]
    if missing:
        raise ValidationError(f"{name} needs the parameter {missing[0]!r}")
    values = {key: check_range(key, params[key], error=error) for key in keys}
    return SpectralFunction(name, phi(**values), values)


@dataclass(frozen=True)
class RegularisationConfig:
    """Mixing weight, multiplier family, and horizon of the perturbed problem."""

    gamma: float
    phi: SpectralFunction
    horizon: float

    def __post_init__(self):
        check_range("gamma", self.gamma, high=1.0)
        check_range("horizon", self.horizon)

    def phi_values(self, dec: SpectralDecomposition) -> np.ndarray:
        """Evaluate phi on the spectrum, enforcing strict positivity.

        Also a finite-dimensional stand-in for the standing hypotheses: the
        minimum must be positive (liminf surrogate) and the damped supremum
        max exp(-T lambda) phi(lambda) is finite automatically.
        """
        vals = np.asarray(self.phi(dec.eigenvalues), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DegeneratePhi(f"{self.phi.name} is not finite on the spectrum")
        if np.any(vals <= 0.0):
            raise DegeneratePhi(f"{self.phi.name} is not strictly positive on the spectrum")
        return vals


def regularised_multipliers(dec: SpectralDecomposition, config: RegularisationConfig) -> np.ndarray:
    """Per-mode inverse 1 / (gamma phi(l) + (1-gamma) exp(-l T))."""
    phi_vals = config.phi_values(dec)
    denom = config.gamma * phi_vals + (1.0 - config.gamma) * np.exp(
        -dec.eigenvalues * config.horizon
    )
    return 1.0 / denom


def regularised_solve(dec: SpectralDecomposition, config: RegularisationConfig, g) -> np.ndarray:
    """Unique solution of (1-gamma) P_T f + gamma phi(-A) f = g."""
    return dec.apply(regularised_multipliers(dec, config), g)


def regularised_residual(
    dec: SpectralDecomposition, config: RegularisationConfig, g, f
) -> float:
    """Norm of (1-gamma) P_T f + gamma phi(-A) f - g."""
    phi_vals = config.phi_values(dec)
    cf = dec.coefficients(f)
    cg = dec.coefficients(g)
    lhs = (1.0 - config.gamma) * np.exp(-dec.eigenvalues * config.horizon) * cf
    lhs = lhs + config.gamma * phi_vals * cf
    return _root_sum_squares(lambda v: float(np.sqrt(np.sum(v ** 2))), lhs - cg)


def variational_objective(
    dec: SpectralDecomposition, config: RegularisationConfig, g, h
) -> float:
    """Penalised least squares ||P_T h - g||^2 + g/(1-g) (P_T phi(-A) h, h).

    (1-gamma) times the regularised solution is the unique minimiser; the
    penalty is non-negative because P_T phi(-A) has positive spectrum.
    """
    phi_vals = config.phi_values(dec)
    damp = np.exp(-dec.eigenvalues * config.horizon)
    ch = dec.coefficients(h)
    cg = dec.coefficients(g)
    misfit = float(np.sum((damp * ch - cg) ** 2))
    penalty = float(np.sum(damp * phi_vals * ch * ch))
    return misfit + config.gamma / (1.0 - config.gamma) * penalty


def variational_gradient(
    dec: SpectralDecomposition, config: RegularisationConfig, g, h
) -> np.ndarray:
    """Gradient of :func:`variational_objective` in L2(m).

    2 P_T (P_T h - g) + 2 g/(1-g) P_T phi(-A) h; vanishes exactly at
    (1-gamma) times the regularised solution.
    """
    phi_vals = config.phi_values(dec)
    damp = np.exp(-dec.eigenvalues * config.horizon)
    ch = dec.coefficients(h)
    cg = dec.coefficients(g)
    grad = 2.0 * damp * (damp * ch - cg)
    grad = grad + 2.0 * config.gamma / (1.0 - config.gamma) * damp * phi_vals * ch
    return dec.synthesize(grad)


def tikhonov_solve(dec: SpectralDecomposition, gamma: float, horizon: float, g) -> np.ndarray:
    """Classical shift regularisation: solve P_T f + gamma f = g.

    Per-mode multiplier 1/(gamma + exp(-l T)); the inverse operator norm is
    at most 1/gamma.
    """
    check_range("gamma", gamma)
    check_range("horizon", horizon)
    return dec.apply(1.0 / (gamma + np.exp(-dec.eigenvalues * horizon)), g)


@dataclass(frozen=True)
class GammaStudyRow:
    gamma: float
    error: float
    residual: float


def gamma_convergence_study(
    dec: SpectralDecomposition,
    phi: SpectralFunction,
    horizon: float,
    g,
    gammas,
) -> list[GammaStudyRow]:
    """Distance of the regularised solutions from the exact inverse.

    For each gamma, error = ||f_gamma - P_T^-1 g|| and residual is the
    defect of f_gamma in the regularised equation.  Errors decrease to 0 as
    gamma -> 0 whenever the exact inverse exists in double range.
    """
    exact = invert_spectral(InverseProblem(dec, horizon, np.asarray(g, float)))
    rows = []
    for gamma in gammas:
        config = RegularisationConfig(float(gamma), phi, horizon)
        f_gamma = regularised_solve(dec, config, g)
        rows.append(
            GammaStudyRow(
                gamma=float(gamma),
                error=norm(dec.space, f_gamma - exact),
                residual=regularised_residual(dec, config, g, f_gamma),
            )
        )
    return rows


def gamma_study_to_csv(rows) -> str:
    """CSV ``gamma,error,residual`` of a :func:`gamma_convergence_study`."""
    return _csv_text(
        "gamma,error,residual",
        "%.17g,%.17g,%.17g\n",
        ((row.gamma, row.error, row.residual) for row in rows),
    )


# -- jump-mixture regularisation ------------------------------------------------


@dataclass(frozen=True)
class MixtureModel:
    """Random mixture of the diffusion with a jump process.

    With probability 1-gamma the process follows the original generator;
    with probability gamma it follows unit-rate jumps whose kernel is the
    transition function at horizon ``t_star``.  The jump generator has
    spectrum exp(-t_star lambda) - 1 inside [-1, 0].
    """

    decomposition: SpectralDecomposition
    gamma: float
    t_star: float

    def __post_init__(self):
        check_range("gamma", self.gamma, high=1.0)
        check_range("t_star", self.t_star)


def mixture_multipliers(model: MixtureModel, t: float) -> np.ndarray:
    """Per-mode action of the mixed transition operator at time t.

    q_t(l) = (1-gamma) exp(-l t) + gamma exp(t (exp(-t_star l) - 1)).
    The jump part never drops below exp(-t), so q_t >= gamma exp(-t).
    """
    check_range("t", t, closed=True)
    lam = model.decomposition.eigenvalues
    diffusion = np.exp(-lam * t)
    jump = np.exp(t * (np.exp(-model.t_star * lam) - 1.0))
    return (1.0 - model.gamma) * diffusion + model.gamma * jump


def mixture_semigroup(model: MixtureModel, t: float):
    """The mixed operator as an action on grid functions."""
    return functools.partial(model.decomposition.apply, mixture_multipliers(model, t))


def mixture_invert(model: MixtureModel, t: float, g) -> np.ndarray:
    """Invert the mixed operator: well-posed for any g.

    Divides mode k by q_t(lambda_k) >= gamma exp(-t); the inverse operator
    norm is bounded by exp(t)/gamma no matter how large the spectrum is.
    Raises :class:`OverflowRisk` only when that bound leaves double range.
    """
    mult = mixture_multipliers(model, t)
    bound = t - math.log(model.gamma)
    check_exponent(bound, f"mixture inverse norm bound exp(t)/gamma = exp({bound:.6g}) exceeds double range")
    dec = model.decomposition
    # a division, not dec.apply(1.0 / mult, g): 1/mult rounds once more
    return dec.synthesize(dec.coefficients(g) / mult)


def regularised_pide_solve(
    model: MixtureModel,
    g,
    horizon: float,
    t_grid=None,
) -> BackwardTrajectory:
    """Backward evolution under the mixed generator.

    Solves u_t + w A u + (1-w) (P_(t_star) u - u) = 0, u(0) = g, with the
    deterministic weight w = 1 - gamma.  Mode k grows like
    exp(t (w l_k + (1-w)(1 - exp(-t_star l_k)))); the jump part contributes
    at most 1 to the growth rate, so w = 0 is well-posed for every g.
    """
    check_range("horizon", horizon)
    dec = model.decomposition
    lam = dec.eigenvalues
    w = 1.0 - model.gamma
    rates = w * lam + (1.0 - w) * (1.0 - np.exp(-model.t_star * lam))
    rate_max = float(rates.max())
    growth = rate_max * horizon
    check_exponent(growth, f"mixed backward growth exp({growth:.6g}) exceeds double range")
    t_grid = _time_grid(t_grid, horizon, rate_max)
    c = dec.coefficients(np.asarray(g, float))
    return BackwardTrajectory(t_grid, dec.trajectory(rates, t_grid, c))


def trajectory_to_csv(traj: BackwardTrajectory) -> str:
    """Long-format CSV ``t,index,value`` of a backward trajectory.

    One block of n rows per time, len(times) * n rows after the header;
    each block fills one n-line template, with the time formatted once.
    """
    n = traj.values.shape[1]
    block = "".join("%%s,%d,%%.17g\n" % j for j in range(n))
    cells = [None] * (2 * n)

    def fill(t, values):
        cells[0::2] = ["%.17g" % t] * n
        cells[1::2] = values.tolist()
        return tuple(cells)

    return _csv_text("t,index,value", block, map(fill, traj.times.tolist(), traj.values))
