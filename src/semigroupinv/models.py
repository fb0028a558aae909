"""Generator builders: 1-D diffusions, the Ornstein-Uhlenbeck process,
symmetric jump kernels, and explicit chains for hand-checked oracles.

Diffusions are discretised in divergence (speed-measure) form on a
cell-centered uniform grid, which keeps m-symmetry exact to round-off at any
resolution: the weighted matrix m_i A_ij equals the edge conductance for
both orientations by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    AsymmetricKernel,
    InvalidBoundary,
    LengthMismatch,
    NonPositiveSigma,
    RowMassExceeded,
    ValidationError,
    check_count,
    check_exponent,
    check_range,
    clip,
)
from .spectral import SymmetricGenerator, WeightedStateSpace, build_space

_BOUNDARIES = ("dirichlet", "neumann")

# Round-off allowed above 1 in a jump kernel's row mass.
ROW_TOL = 1e-12


@dataclass(frozen=True)
class DiffusionSpec:
    """A regular 1-D diffusion on natural scale: (sigma^2/2) f'' - c f.

    ``sigma`` must be bounded away from zero on the grid; ``kill`` is the
    non-negative killing rate c(x) (None means no killing).  Boundaries are
    'dirichlet' (absorbing wall, kills mass) or 'neumann' (reflecting,
    conserves mass) per endpoint.
    """

    left: float
    right: float
    n: int
    sigma: Callable[[np.ndarray], np.ndarray] = lambda x: np.ones_like(x)
    kill: Optional[Callable[[np.ndarray], np.ndarray]] = None
    boundary_left: str = "neumann"
    boundary_right: str = "neumann"

    def __post_init__(self):
        check_count("n", self.n, 3, error=LengthMismatch)
        if not self.right > self.left:
            raise InvalidBoundary("interval must satisfy left < right")
        for b in (self.boundary_left, self.boundary_right):
            if b not in _BOUNDARIES:
                raise InvalidBoundary(f"boundary must be one of {_BOUNDARIES}, got {clip(repr(b))}")


def _cell_grid(left: float, right: float, n: int) -> tuple[float, np.ndarray]:
    """The spacing h and the n cell centres of [left, right].

    A spacing that, or whose 4/h (the conductances' bound), leaves the
    positive doubles raises :class:`ValidationError`.
    """
    left, right = float(left), float(right)  # Python floats overflow to inf without a RuntimeWarning
    h = (right - left) / n
    if not (0.0 < h < math.inf and 4.0 / h < math.inf):
        raise ValidationError(f"[{left!r}, {right!r}] in {n} cells gives a spacing h = {h!r} out of double range")
    return h, left + (np.arange(n) + 0.5) * h


def _divergence_form(
    points: np.ndarray,
    h: float,
    m_density: np.ndarray,
    edge_conductance: np.ndarray,
    kill_rate: np.ndarray,
    boundary_left: str,
    boundary_right: str,
    wall_conductance: tuple[float, float],
) -> SymmetricGenerator:
    """A = M^-1 D^T C D - diag(c) on a cell-centered grid, as its three bands.

    ``edge_conductance`` has n-1 interior entries; ``wall_conductance`` gives
    the absorbing-wall conductances used when an endpoint is dirichlet (the
    wall sits half a cell beyond the end node).  An edge rate that underflows
    to 0, as ~1/h^2 does at h ~ 1e308, raises :class:`ValidationError`.
    """
    m = m_density * h
    space = build_space(points, m)  # refuses a weight that underflowed to 0 before it divides
    with np.errstate(over="ignore"):  # a band past double range, as 1/h^2 on a tiny grid, is refused as not finite
        lower = edge_conductance / m[1:]
        upper = edge_conductance / m[:-1]
        cut = np.flatnonzero((lower == 0) | (upper == 0))
        if cut.size:
            x = points[cut[0]:cut[0] + 2].tolist()
            raise ValidationError(f"the rate between grid points x = {x[0]!r} and {x[1]!r} underflows to 0 at h = {h!r}")
        # diagonal sums in the order of an edge-by-edge assembly, which fixes
        # their bits: left edge, right edge, wall, kill
        diag = np.zeros(points.size)
        diag[1:] -= lower
        diag[:-1] -= upper
        if boundary_left == "dirichlet":
            diag[0] -= wall_conductance[0] / m[0]
        if boundary_right == "dirichlet":
            diag[-1] -= wall_conductance[1] / m[-1]
        diag -= kill_rate
    return SymmetricGenerator(space, (lower, diag, upper), _owned=True)


def build_diffusion(spec: DiffusionSpec) -> SymmetricGenerator:
    """Finite-difference generator for (sigma^2/2) f'' - c f in L2(m).

    On natural scale the speed-measure density is 2/sigma^2, the scale
    density is 1, so interior edge conductances are 1/h and a dirichlet wall
    (half a cell away) contributes 2/h.  Killing with constant rate kappa
    shifts the whole matrix by exactly -kappa I.
    """
    h, points = _cell_grid(spec.left, spec.right, spec.n)
    sig = np.asarray(spec.sigma(points), dtype=float)
    if sig.shape != points.shape:
        raise NonPositiveSigma("sigma must evaluate elementwise on the grid")
    if not np.all(sig > 0):
        raise NonPositiveSigma("sigma must be strictly positive on the grid")
    with np.errstate(over="ignore", divide="ignore"):  # refused below, naming sigma
        m_density = 2.0 / sig**2
        weight = m_density * h
        rate = 4.0 / h / weight  # bounds the point's bands, sigma^2/(2h^2) an edge and twice that a wall
    outside = np.flatnonzero((weight == np.inf) | (rate == np.inf))
    if outside.size:
        k = outside[0]
        raise NonPositiveSigma(
            f"sigma = {float(sig[k])!r} at grid point x = {float(points[k])!r} takes the speed"
            " weight 2h/sigma^2 or the rate sigma^2/(2h^2) out of double range"
        )
    kill = np.zeros(spec.n) if spec.kill is None else np.asarray(spec.kill(points), float)
    if np.any(kill < 0):
        raise ValidationError("killing rate must be non-negative")
    conduct = np.full(spec.n - 1, 1.0 / h)
    return _divergence_form(
        points, h, m_density, conduct, kill,
        spec.boundary_left, spec.boundary_right,
        wall_conductance=(2.0 / h, 2.0 / h),
    )


def build_ou(half_width: float, n: int, rate: float) -> SymmetricGenerator:
    """Mean-reverting diffusion (1/2) f'' - rate * x f' on [-L, L].

    Divergence form (1/m) d/dx( (m/2) df/dx ) with Gaussian speed measure
    m(x) = exp(-rate x^2), reflecting ends.  The spectrum approximates the
    ladder {0, rate, 2 rate, ...} once the grid resolves the measure's bulk.
    """
    check_range("half_width", half_width, error=InvalidBoundary)
    check_range("rate", rate, error=InvalidBoundary)
    check_count("n", n, 3, error=LengthMismatch)
    h, points = _cell_grid(-half_width, half_width, n)
    edges = -half_width + np.arange(1, n) * h
    with np.errstate(over="ignore"):  # a weight that underflows to 0 is refused by build_space
        m_density = np.exp(-rate * points**2)
        conduct = 0.5 * np.exp(-rate * edges**2) / h
    kill = np.zeros(n)
    return _divergence_form(
        points, h, m_density, conduct, kill, "neumann", "neumann", (0.0, 0.0)
    )


def ou_witness_pair(rate: float) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The pair (g, f) with P_1 f = g for the mean-reverting diffusion.

    g(x) = x^2 and f(x) = e^(2 rate) x^2 - (e^(2 rate) - 1) / (2 rate).
    f dips negative near the origin, demonstrating that inverting the
    transition operator does not preserve positivity.  A rate above 350
    raises :class:`OverflowRisk`: e^(2 rate) would leave double range.
    """
    check_range("rate", rate, error=InvalidBoundary)
    check_exponent(2.0 * rate, f"f needs exp(2 rate) = exp({2.0 * rate:.6g}), beyond double range")
    e2r = np.exp(2.0 * rate)
    offset = (e2r - 1.0) / (2.0 * rate)

    def g(x):
        return np.asarray(x, float) ** 2

    def f(x):
        return e2r * np.asarray(x, float) ** 2 - offset

    return g, f


@dataclass(frozen=True)
class JumpKernelSpec:
    """Symmetric non-negative jump kernel values on a weighted space.

    Row masses sum_j q(x_i, x_j) m_j may not exceed 1 (up to ``ROW_TOL``);
    rows short of 1 send the deficit to the cemetery.
    """

    kernel: np.ndarray
    space: WeightedStateSpace

    def __post_init__(self):
        q = np.array(self.kernel, dtype=float)
        q.setflags(write=False)
        object.__setattr__(self, "kernel", q)
        n = self.space.size
        if q.shape != (n, n):
            raise LengthMismatch(f"kernel shape {q.shape} on a space of size {n}")
        if not np.all((q >= 0.0) & (q < np.inf)):
            raise AsymmetricKernel("kernel values must be finite and non-negative")
        gap = q - q.T  # q >= 0 and finite: this is np.allclose(q, q.T, rtol=0, atol=1e-12 max(1, max |q|))
        if not np.max(np.abs(gap, out=gap)) <= 1e-12 * max(1.0, float(q.max())):
            raise AsymmetricKernel("kernel must be symmetric")
        with np.errstate(over="ignore"):  # a row mass past double range is inf, and refused below
            mass = q @ self.space.weights
        if np.any(mass > 1.0 + ROW_TOL):
            raise RowMassExceeded(f"max row mass {mass.max():.6f} exceeds 1")


def build_jump(spec: JumpKernelSpec) -> SymmetricGenerator:
    """Unit-intensity jump generator A f = integral f dq m - f.

    The matrix is Q M - I; since the weighted kernel is substochastic the
    spectrum of -A lies in [0, 2].
    """
    a = spec.kernel * spec.space.weights[None, :]
    a.flat[:: spec.space.size + 1] -= 1.0
    return SymmetricGenerator(spec.space, a, _owned=True)


def gaussian_jump_kernel(space: WeightedStateSpace, t_star: float) -> JumpKernelSpec:
    """Kernel of normally distributed jumps, variance t_star, on a grid.

    Normalised by the largest row mass, so the kernel stays symmetric and
    substochastic (boundary rows lose a little mass to the cemetery).
    """
    check_range("t_star", t_star, error=InvalidBoundary)
    x = space.points
    with np.errstate(over="ignore"):  # a jump past double range has its limit, probability 0
        q = np.subtract.outer(x, x)  # exp(-((x_i - x_j)^2) / (2 t_star)), each step in place
        np.negative(np.square(q, out=q), out=q)
        q /= 2.0 * t_star
        np.exp(q, out=q)
    scale = float(np.max(q @ space.weights))
    return JumpKernelSpec(np.divide(q, scale, out=q), space)


def build_chain(matrix, weights) -> SymmetricGenerator:
    """Wrap an explicit rate matrix as an m-symmetric generator."""
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    if matrix.shape != (n, n):
        raise LengthMismatch(f"matrix shape {matrix.shape} with {n} weights")
    space = build_space(np.arange(n, dtype=float), weights)
    return SymmetricGenerator(space, matrix)
