"""Weighted state spaces, m-symmetric generators, and spectral calculus.

All operators in this library are functions of a single m-symmetric
generator matrix A acting on a finite weighted state space.  The weights
m_i define the inner product (f, g) = sum_i f_i g_i m_i, the generator is
diagonalised once, and every semigroup / resolvent / regulariser is then a
per-mode multiplier applied in the eigenbasis.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    InvalidConfig,
    LengthMismatch,
    NegativeEigenvalue,
    NegativeTime,
    NonFiniteFunctionValue,
    NonPositiveAlpha,
    NonPositiveWeight,
    NotMSymmetric,
)

# Double-precision tolerance defaults, sized for dense models up to n ~ 2000.
SYM_TOL = 1e-10
EIG_TOL = 1e-8
EIG_CLAMP = 1e-12
ORTHO_TOL = 1e-10
RECON_TOL = 1e-8
CLUSTER_TOL = 1e-9


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
            raise NonPositiveWeight("points must be finite")
        if not (np.all(np.isfinite(self.weights)) and np.all(self.weights > 0)):
            raise NonPositiveWeight("all weights must be strictly positive")
        if np.any(np.diff(self.points) <= 0):
            raise LengthMismatch("points must be strictly increasing")

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


def norm(space: WeightedStateSpace, f) -> float:
    """Weighted L2 norm induced by :func:`inner`."""
    f = _check_vector(space, f)
    return float(np.sqrt(np.dot(f * f, space.weights)))


def check_m_symmetry(matrix, space: WeightedStateSpace) -> float:
    """Largest relative asymmetry of the weighted matrix m_i A_ij.

    Returns max_ij |m_i A_ij - m_j A_ji| / max(|m_i A_ij|, |m_j A_ji|, 1).
    Zero means exactly m-symmetric.  Diagnostic only: never raises.
    """
    a = np.asarray(matrix, dtype=float)
    if a.shape != (space.size, space.size):
        raise LengthMismatch(f"matrix shape {a.shape} on a space of size {space.size}")
    w = a * space.weights[:, None]
    scale = np.maximum(np.maximum(np.abs(w), np.abs(w.T)), 1.0)
    return float(np.max(np.abs(w - w.T) / scale))


@dataclass(frozen=True)
class SymmetricGenerator:
    """An m-symmetric rate matrix A with -A non-negative definite in L2(m)."""

    space: WeightedStateSpace
    matrix: np.ndarray
    sym_tol: float = SYM_TOL

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_readonly(self.matrix))
        if self.matrix.shape != (self.space.size, self.space.size):
            raise LengthMismatch(
                f"matrix shape {self.matrix.shape} on a space of size {self.space.size}"
            )
        residual = check_m_symmetry(self.matrix, self.space)
        if residual > self.sym_tol:
            raise NotMSymmetric(
                f"m-symmetry residual {residual:.3e} exceeds tolerance {self.sym_tol:.1e}"
            )

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


def spectral_decompose(
    gen: SymmetricGenerator,
    eig_tol: float = EIG_TOL,
    eig_clamp: float = EIG_CLAMP,
) -> SpectralDecomposition:
    """Diagonalise -A in L2(m) via the similarity M^(1/2) (-A) M^(-1/2).

    The transformed matrix is symmetric in the ordinary sense, so the
    spectrum is real and the back-transformed eigenvectors are m-orthonormal
    by construction.  Eigenvalues with |lambda| below ``eig_clamp`` times the
    spectral radius (at least ``eig_clamp``) are snapped to exactly zero;
    anything below ``-eig_tol`` relative is an invalid generator.
    """
    m = gen.space.weights
    sqrt_m = np.sqrt(m)
    sym = (-gen.matrix) * (sqrt_m[:, None] / sqrt_m[None, :])
    sym = 0.5 * (sym + sym.T)
    lam, vecs = np.linalg.eigh(sym)
    scale = max(1.0, float(np.abs(lam).max()))
    if lam[0] < -eig_tol * scale:
        raise NegativeEigenvalue(
            f"-A has eigenvalue {lam[0]:.6e}; generator is not negative semi-definite"
        )
    lam = lam.copy()
    lam[np.abs(lam) <= eig_clamp * scale] = 0.0
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
    return dec.synthesize(values * dec.coefficients(f))


def semigroup_apply(dec: SpectralDecomposition, t: float, f) -> np.ndarray:
    """Apply the semigroup at time t: per-mode multiplier exp(-lambda t)."""
    if t < 0:
        raise NegativeTime(f"semigroup time must be >= 0, got {t}")
    return apply_function(dec, lambda lam: np.exp(-lam * t), f)


def resolvent_apply(dec: SpectralDecomposition, alpha: float, f) -> np.ndarray:
    """Apply the resolvent at alpha > 0: per-mode multiplier 1/(lambda+alpha)."""
    if alpha <= 0:
        raise NonPositiveAlpha(f"resolvent parameter must be > 0, got {alpha}")
    return apply_function(dec, lambda lam: 1.0 / (lam + alpha), f)


def eigenvalue_clusters(dec: SpectralDecomposition, cluster_tol: float = CLUSTER_TOL):
    """Group mode indices whose eigenvalues lie within ``cluster_tol``."""
    clusters = []
    current = [0]
    lam = dec.eigenvalues
    for k in range(1, lam.size):
        if lam[k] - lam[current[-1]] <= cluster_tol:
            current.append(k)
        else:
            clusters.append(current)
            current = [k]
    clusters.append(current)
    return clusters


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

    A row without exactly four fields, or with a non-numeric x, m or value,
    raises :class:`InvalidConfig`.
    """
    reader = io.StringIO(text)
    header = reader.readline().strip()
    if header != CSV_HEADER:
        raise LengthMismatch(f"expected header {CSV_HEADER!r}, got {header!r}")
    xs, ms, vs = [], [], []
    for lineno, line in enumerate(reader, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            _, x, m_, v = line.split(",")
            x, m_, v = float(x), float(m_), float(v)
        except ValueError:
            raise InvalidConfig(
                f"line {lineno}: expected numeric fields {CSV_HEADER}, got {line!r}"
            ) from None
        xs.append(x)
        ms.append(m_)
        vs.append(v)
    return build_space(xs, ms), np.array(vs)
