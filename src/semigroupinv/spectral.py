"""Weighted state spaces, m-symmetric generators, and spectral calculus.

All operators in this library are functions of a single m-symmetric
generator matrix A acting on a finite weighted state space.  The weights
m_i define the inner product (f, g) = sum_i f_i g_i m_i, the generator is
diagonalised once, and every semigroup / resolvent / regulariser is then a
per-mode multiplier applied in the eigenbasis.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    MAX_TRAJECTORY_CELLS,
    InvalidConfig,
    LengthMismatch,
    NegativeEigenvalue,
    NegativeTime,
    NonFiniteFunctionValue,
    NonPositiveAlpha,
    NonPositiveWeight,
    NotMSymmetric,
    OverflowRisk,
    ValidationError,
    check_budget,
    check_range,
)

# Double-precision tolerances, sized for dense models up to n ~ 2000.
SYM_TOL = 1e-10
EIG_TOL = 1e-8
EIG_CLAMP = 1e-12


def _as_readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WeightedStateSpace:
    """Finite grid with strictly positive symmetrizing weights.

    ``points`` are the grid coordinates (strictly increasing when the space
    discretises an interval); ``weights`` carry the measure mass at each
    point.  Instances are immutable and safe to share across threads.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_readonly(self.points))
        object.__setattr__(self, "weights", _as_readonly(self.weights))
        if self.points.ndim != 1 or self.weights.ndim != 1:
            raise LengthMismatch("points and weights must be 1-D")
        if self.points.size != self.weights.size:
            raise LengthMismatch(
                f"{self.points.size} points vs {self.weights.size} weights"
            )
        if self.points.size < 2:
            raise LengthMismatch("a state space needs at least 2 points")
        if not np.all(np.isfinite(self.points)):
            raise ValidationError("points must be finite")
        if not (np.all(np.isfinite(self.weights)) and np.all(self.weights > 0)):
            raise NonPositiveWeight("all weights must be strictly positive")
        if np.any(np.diff(self.points) <= 0):
            raise ValidationError("points must be strictly increasing")

    @property
    def size(self) -> int:
        return self.points.size

    def total_mass(self) -> float:
        return float(self.weights.sum())


def build_space(points, weights) -> WeightedStateSpace:
    """Validate and build a weighted state space."""
    return WeightedStateSpace(np.asarray(points, float), np.asarray(weights, float))


def _check_vector(space: WeightedStateSpace, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (space.size,):
        raise LengthMismatch(f"vector of shape {f.shape} on a space of size {space.size}")
    return f


def inner(space: WeightedStateSpace, f, g) -> float:
    """Weighted inner product (f, g) = sum_i f_i g_i m_i."""
    f = _check_vector(space, f)
    g = _check_vector(space, g)
    return float(np.dot(f * space.weights, g))


def _root_sum_squares(squares_root: Callable[[np.ndarray], float], v: np.ndarray) -> float:
    """``squares_root(v)``, an L2 norm of ``v``, rescaled when its squares overflow.

    A finite ``v`` with entries past ~1e154 has infinite squares; then the
    norm is max|v| * squares_root(v / max|v|).  Every finite plain result
    is returned as it is, bit for bit.
    """
    with np.errstate(over="ignore"):
        value = squares_root(v)
    if value == math.inf:
        big = float(np.max(np.abs(v)))
        if big < math.inf:
            value = big * squares_root(v / big)
    return value


def norm(space: WeightedStateSpace, f) -> float:
    """Weighted L2 norm induced by :func:`inner`; finite whenever the norm itself is below the double range."""
    f = _check_vector(space, f)
    return _root_sum_squares(lambda v: float(np.sqrt(np.dot(v * v, space.weights))), f)


def check_m_symmetry(matrix, space: WeightedStateSpace) -> float:
    """Largest relative asymmetry of the weighted matrix m_i A_ij.

    Returns max_ij |m_i A_ij - m_j A_ji| / max(|m_i A_ij|, |m_j A_ji|, 1).
    Zero means exactly m-symmetric, and NaN means some m_i A_ij leaves
    double range.  Diagnostic only: never raises.
    """
    a = np.asarray(matrix, dtype=float)
    if a.shape != (space.size, space.size):
        raise LengthMismatch(f"matrix shape {a.shape} on a space of size {space.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        w = a * space.weights[:, None]
        scale = np.maximum(np.maximum(np.abs(w), np.abs(w.T)), 1.0)
        return float(np.max(np.abs(w - w.T) / scale))


@dataclass(frozen=True)
class SymmetricGenerator:
    """An m-symmetric rate matrix A with -A non-negative definite in L2(m).

    ``symmetry_residual`` is :func:`check_m_symmetry` of the matrix, measured
    once here and at most ``SYM_TOL``; a NaN residual raises :class:`OverflowRisk`.
    """

    space: WeightedStateSpace
    matrix: np.ndarray
    symmetry_residual: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_readonly(self.matrix))
        if self.matrix.shape != (self.space.size, self.space.size):
            raise LengthMismatch(
                f"matrix shape {self.matrix.shape} on a space of size {self.space.size}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("generator matrix must be finite")
        residual = check_m_symmetry(self.matrix, self.space)
        if math.isnan(residual):
            raise OverflowRisk("the weighted generator m_i A_ij leaves double range")
        if not residual <= SYM_TOL:
            raise NotMSymmetric(
                f"m-symmetry residual {residual:.3e} exceeds tolerance {SYM_TOL:.1e}"
            )
        object.__setattr__(self, "symmetry_residual", residual)

    @property
    def size(self) -> int:
        return self.space.size

    def apply(self, f) -> np.ndarray:
        return self.matrix @ _check_vector(self.space, f)


@dataclass(frozen=True)
class SpectralFunction:
    """A scalar map lambda -> phi(lambda) applied to -A through its spectrum.

    ``evaluate`` must accept an array of eigenvalues and be finite on the
    spectrum it is applied to.  ``parameters`` records the named scalars the
    map was built with, for reporting.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluate(np.asarray(lam, float)), float)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of -A: ascending eigenvalues with m-orthonormal vectors.

    ``eigenvectors[:, k]`` is the k-th mode.  The projection-valued spectral
    family is realised as the finite sum over modes with eigenvalue below a
    threshold, so every spectral integral in this library is a finite sum
    over ``eigenvalues``.
    """

    space: WeightedStateSpace
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _as_readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _as_readonly(self.eigenvectors))
        n = self.space.size
        if self.eigenvalues.shape != (n,) or self.eigenvectors.shape != (n, n):
            raise LengthMismatch("decomposition shapes do not match the space")

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def coefficients(self, f) -> np.ndarray:
        """Mode coefficients (phi_k, f) in ascending-eigenvalue order."""
        f = _check_vector(self.space, f)
        return self.eigenvectors.T @ (self.space.weights * f)

    def synthesize(self, coeffs) -> np.ndarray:
        """Rebuild a grid function from mode coefficients."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.size,):
            raise LengthMismatch("coefficient vector has wrong length")
        return self.eigenvectors @ coeffs

    def apply(self, mult, f) -> np.ndarray:
        """sum_k mult_k (phi_k, f) phi_k: the per-mode multiplier ``mult`` on f."""
        return self.synthesize(mult * self.coefficients(f))

    def trajectory(self, rates, times, coeffs, modes=slice(None)) -> np.ndarray:
        """Rows sum_k exp(rates_k t) coeffs_k phi_k over the ``modes``, one per time t.

        Raises :class:`ValidationError` past ``errors.MAX_TRAJECTORY_CELLS``.
        """
        cells = len(times) * self.size
        check_budget(f"trajectory cells ({len(times)} times x {self.size} states)", cells, MAX_TRAJECTORY_CELLS)
        return (np.exp(np.outer(times, rates)) * coeffs) @ self.eigenvectors[:, modes].T


def spectral_decompose(gen: SymmetricGenerator) -> SpectralDecomposition:
    """Diagonalise -A in L2(m) via the similarity M^(1/2) (-A) M^(-1/2).

    The transformed matrix is symmetric in the ordinary sense, so the
    spectrum is real and the back-transformed eigenvectors are m-orthonormal
    by construction.  Eigenvalues with |lambda| below ``EIG_CLAMP`` times the
    spectral radius (at least ``EIG_CLAMP``) are snapped to exactly zero;
    anything below ``-EIG_TOL`` relative is an invalid generator.  A
    transformed matrix that leaves double range raises :class:`OverflowRisk`.
    """
    m = gen.space.weights
    sqrt_m = np.sqrt(m)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (-gen.matrix) * (sqrt_m[:, None] / sqrt_m[None, :])
        sym = 0.5 * (sym + sym.T)
    if not np.all(np.isfinite(sym)):
        raise OverflowRisk("the symmetrised generator M^(1/2) (-A) M^(-1/2) leaves double range")
    lam, vecs = np.linalg.eigh(sym)
    scale = max(1.0, float(np.abs(lam).max()))
    if lam[0] < -EIG_TOL * scale:
        raise NegativeEigenvalue(
            f"-A has eigenvalue {lam[0]:.6e}; generator is not negative semi-definite"
        )
    lam = lam.copy()
    lam[np.abs(lam) <= EIG_CLAMP * scale] = 0.0
    lam[lam < 0.0] = 0.0
    phi = vecs / sqrt_m[:, None]
    return SpectralDecomposition(gen.space, lam, phi)


def apply_function(dec: SpectralDecomposition, phi, f) -> np.ndarray:
    """Apply phi(-A) to f: sum_k phi(lambda_k) (phi_k, f) phi_k.

    ``phi`` is a :class:`SpectralFunction` or any callable over an eigenvalue
    array.  Results are invariant under re-mixing of eigenvectors within a
    degenerate eigenspace.
    """
    values = np.asarray(phi(dec.eigenvalues), dtype=float)
    if values.shape != dec.eigenvalues.shape:
        raise NonFiniteFunctionValue("spectral function must map eigenvalues elementwise")
    if not np.all(np.isfinite(values)):
        name = getattr(phi, "name", getattr(phi, "__name__", "phi"))
        bad = dec.eigenvalues[~np.isfinite(values)][0]
        raise NonFiniteFunctionValue(f"{name} is not finite at lambda={bad!r}")
    return dec.apply(values, f)


def semigroup_apply(dec: SpectralDecomposition, t: float, f) -> np.ndarray:
    """Apply the semigroup at time t: per-mode multiplier exp(-lambda t)."""
    check_range("semigroup time", t, closed=True, error=NegativeTime)
    return apply_function(dec, lambda lam: np.exp(-lam * t), f)


def resolvent_apply(dec: SpectralDecomposition, alpha: float, f) -> np.ndarray:
    """Apply the resolvent at alpha > 0: per-mode multiplier 1/(lambda+alpha)."""
    check_range("resolvent parameter", alpha, error=NonPositiveAlpha)
    return apply_function(dec, lambda lam: 1.0 / (lam + alpha), f)


# -- CSV serialization -------------------------------------------------------
#
# Every CSV artifact is rendered by ``_csv_text``: LF line endings, integers
# as %d and floats as %.17g, which round-trips every double and is the same
# text as ``format(x, ".17g")``.  Each table builds its row template once and
# fills it with plain Python floats from ``.tolist()``; formatting numpy
# scalars cell by cell costs several times more.

CSV_HEADER = "index,x,m,value"


def _csv_text(header: str, row: str, rows) -> str:
    """``header``, then ``row % cells`` for each tuple of cells in ``rows``.

    ``row`` ends in a newline and may hold several lines of the table.
    """
    return header + "\n" + "".join(map(row.__mod__, rows))


def vector_to_csv(space: WeightedStateSpace, values) -> str:
    """Serialize a grid function as ``index,x,m,value`` rows, LF endings."""
    values = _check_vector(space, values)
    return _csv_text(
        CSV_HEADER,
        "%d,%.17g,%.17g,%.17g\n",
        zip(range(space.size), space.points.tolist(), space.weights.tolist(), values.tolist()),
    )


def vector_from_csv(text: str) -> tuple[WeightedStateSpace, np.ndarray]:
    """Parse the output of :func:`vector_to_csv`.

    A row without exactly four fields, with a non-numeric x, m or value, or
    with an index other than its position 0, 1, ... raises
    :class:`InvalidConfig`.
    """
    reader = io.StringIO(text)
    header = reader.readline().strip()
    if header != CSV_HEADER:
        raise InvalidConfig(f"expected header {CSV_HEADER!r}, got {header!r}")
    xs, ms, vs = [], [], []
    for lineno, line in enumerate(reader, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            index, x, m_, v = line.split(",")
            index, x, m_, v = int(index), float(x), float(m_), float(v)
        except ValueError:
            raise InvalidConfig(
                f"line {lineno}: expected fields {CSV_HEADER} with an integer index"
                f" and numeric x, m, value, got {line!r}"
            ) from None
        if index != len(vs):
            raise InvalidConfig(f"line {lineno}: index {index}, expected {len(vs)}")
        xs.append(x)
        ms.append(m_)
        vs.append(v)
    return build_space(xs, ms), np.array(vs)
