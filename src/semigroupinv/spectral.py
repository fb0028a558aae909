"""Weighted state spaces, m-symmetric generators, and spectral calculus.

All operators in this library are functions of a single m-symmetric
generator matrix A acting on a finite weighted state space.  The weights
m_i define the inner product (f, g) = sum_i f_i g_i m_i, the generator is
diagonalised once, and every semigroup / resolvent / regulariser is then a
per-mode multiplier applied in the eigenbasis.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Mapping

import numpy as np
from numpy.linalg import _umath_linalg

from ._numerics import _BLOCK_CELLS, _root_sum_squares
from .errors import (
    MAX_TRAJECTORY_CELLS,
    LengthMismatch,
    NegativeEigenvalue,
    NegativeTime,
    NonFiniteFunctionValue,
    NonPositiveAlpha,
    NonPositiveWeight,
    NotMSymmetric,
    NumericalError,
    OverflowRisk,
    ValidationError,
    check_budget,
    check_finite,
    check_range,
)

# Double-precision tolerances, sized for dense models up to n ~ 2000.
SYM_TOL = 1e-10
EIG_TOL = 1e-8
EIG_CLAMP = 1e-12

# apply and synthesize read the leading modes up to the last nonzero multiplier
# or coefficient, rounded up to a multiple of this.  A BLAS GEMV sums its
# columns a few at a time, and a width that is a multiple of that unroll groups
# the live products as the full width does, so the result keeps its bits.
# OpenBLAS's x86 kernels (Haswell, SkylakeX, Sandybridge, Nehalem, Prescott)
# keep them at any multiple of 4 and not at 2 or 3; 64 covers unrolls up to 64
# for at most 63 more columns read.
_MODE_BLOCK = 64


def _load_dstevd():
    """LAPACK's ``dstevd`` from the OpenBLAS that numpy's linalg extension links, or None.

    ``dlsym`` on the extension's handle also searches its dependencies.
    numpy wheels export LAPACK with 64-bit integers under ``scipy_dstevd_64_``
    (numpy >= 2) or ``dstevd_64_`` (numpy 1.2x).
    """
    try:
        lapack = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name in ("scipy_dstevd_64_", "dstevd_64_"):
        routine = getattr(lapack, name, None)
        if routine is not None:
            floats = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
            ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
            # JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO, then JOBZ's length
            routine.argtypes = [ctypes.c_char_p, ints, floats, floats, floats, ints,
                                floats, ints, ints, ints, ints, ctypes.c_size_t]
            routine.restype = None
            return routine
    return None


# None when numpy's LAPACK does not export it: band generators then run eigh on their tridiagonal
_DSTEVD = _load_dstevd()


def _as_readonly(a, owned: bool = False) -> np.ndarray:
    """A read-only float copy of ``a``; an ``owned`` float array, which no caller holds, is frozen in place."""
    out = np.asarray(a, dtype=float) if owned else np.array(a, dtype=float)
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

    def check_vector(self, f) -> np.ndarray:
        """``f`` as a float array of one value per point; another shape raises :class:`LengthMismatch`."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.size,):
            raise LengthMismatch(f"vector of shape {f.shape} on a space of size {self.size}")
        return f


def build_space(points, weights) -> WeightedStateSpace:
    """Validate and build a weighted state space."""
    return WeightedStateSpace(np.asarray(points, float), np.asarray(weights, float))


def inner(space: WeightedStateSpace, f, g) -> float:
    """Weighted inner product (f, g) = sum_i f_i g_i m_i."""
    f = space.check_vector(f)
    g = space.check_vector(g)
    return float(np.dot(f * space.weights, g))


def norm(space: WeightedStateSpace, f) -> float:
    """Weighted L2 norm induced by :func:`inner`; finite whenever the norm itself is below the double range."""
    f = space.check_vector(f)
    return _root_sum_squares(f, space.weights)


def _tridiagonal(lower, diag, upper) -> np.ndarray:
    """The dense matrix with the given sub-, main and super-diagonals and zeros elsewhere."""
    n = diag.size
    a = np.zeros((n, n))
    flat = a.reshape(-1)
    flat[n::n + 1], flat[::n + 1], flat[1::n + 1] = lower, diag, upper
    return a


def _asymmetry(w: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """|w - w_t| / max(|w|, |w_t|, 1), entry by entry."""
    return np.abs(w - w_t) / np.maximum(np.maximum(np.abs(w), np.abs(w_t)), 1.0)


def check_m_symmetry(matrix, space: WeightedStateSpace) -> float:
    """Largest relative asymmetry of the weighted matrix m_i A_ij.

    Returns max_ij |m_i A_ij - m_j A_ji| / max(|m_i A_ij|, |m_j A_ji|, 1).
    Zero means exactly m-symmetric, and NaN means some m_i A_ij leaves
    double range.  Diagnostic only: never raises on values.  ``matrix`` is
    A as a dense (n, n) array, or a tridiagonal A as its ``(lower,
    diagonal, upper)`` bands; the bands give the dense matrix's value, every
    other entry being 0 and the diagonal's own term 0, or NaN once m_i A_ii
    overflows.  A wrong shape raises :class:`LengthMismatch`.  A dense
    matrix is measured in row blocks of about ``_BLOCK_CELLS`` cells, so its
    temporaries are a few blocks, not n x n arrays.
    """
    n = space.size
    banded = isinstance(matrix, tuple)
    if banded:
        lower, diag, upper = (np.asarray(x, dtype=float) for x in matrix)
        shape, expected = (lower.shape, diag.shape, upper.shape), ((n - 1,), (n,), (n - 1,))
    else:
        a = np.asarray(matrix, dtype=float)
        shape, expected = a.shape, (n, n)
    if shape != expected:
        raise LengthMismatch(f"matrix shape {shape} on a space of size {n}")
    m = space.weights
    with np.errstate(over="ignore", invalid="ignore"):
        if not banded:
            # rows i of w = m_i A_ij against the same rows of w.T, a block at a time, from column i on:
            # the measure is symmetric in (i, j), so the entries on and above the diagonal hold its max
            rows = max(1, _BLOCK_CELLS // n)
            block_max = [
                np.max(_asymmetry(a[i : i + rows, i:] * m[i : i + rows, None], (a[i:, i : i + rows] * m[i:, None]).T))
                for i in range(0, n, rows)
            ]
            return float(np.max(block_max))
        w_diag = diag * m
        off = np.max(_asymmetry(upper * m[:-1], lower * m[1:]))
        return float(np.maximum(off, np.max(_asymmetry(w_diag, w_diag))))


@dataclass(frozen=True)
class SymmetricGenerator:
    """An m-symmetric rate matrix A with -A non-negative definite in L2(m).

    ``rates`` is A as a dense (n, n) array, or a tridiagonal A (the ``ou``
    and ``diffusion`` builders) as its ``(lower, diagonal, upper)`` bands,
    kept as ``bands``; ``bands`` is None for a dense generator.  ``matrix``
    is A as a read-only dense array either way, built from the bands on
    first read.  ``symmetry_residual`` is :func:`check_m_symmetry` of the
    form held, measured once here and at most ``SYM_TOL``; a NaN residual
    raises :class:`OverflowRisk`.  The arrays are copied, unless ``_owned``
    says that the library's builder has just made them and holds them
    nowhere else.
    """

    space: WeightedStateSpace
    rates: InitVar[np.ndarray | tuple]
    bands: tuple | None = field(init=False)
    symmetry_residual: float = field(init=False)
    _owned: InitVar[bool] = False

    def __post_init__(self, rates, _owned):
        banded = isinstance(rates, tuple)
        parts = tuple(_as_readonly(x, _owned) for x in (rates if banded else (rates,)))
        residual = check_m_symmetry(parts if banded else parts[0], self.space)
        if not all(np.all(np.isfinite(x)) for x in parts):
            raise ValidationError("generator matrix must be finite")
        if math.isnan(residual):
            raise OverflowRisk("the weighted generator m_i A_ij leaves double range")
        if not residual <= SYM_TOL:
            raise NotMSymmetric(
                f"m-symmetry residual {residual:.3e} exceeds tolerance {SYM_TOL:.1e}"
            )
        object.__setattr__(self, "bands", parts if banded else None)
        object.__setattr__(self, "symmetry_residual", residual)
        if not banded:
            self.__dict__["matrix"] = parts[0]  # the cached value of ``matrix`` below

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """A as a read-only dense (n, n) array, built from the bands on first read."""
        return _as_readonly(_tridiagonal(*self.bands), owned=True)

    @property
    def size(self) -> int:
        return self.space.size


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
    over ``eigenvalues``.  The arrays are copied, unless ``_owned`` says that
    :func:`spectral_decompose` has just made them.
    """

    space: WeightedStateSpace
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        object.__setattr__(self, "eigenvalues", _as_readonly(self.eigenvalues, _owned))
        object.__setattr__(self, "eigenvectors", _as_readonly(self.eigenvectors, _owned))
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
        """Mode coefficients (phi_k, f) in ascending-eigenvalue order; :class:`OverflowRisk` past double range."""
        f = self.space.check_vector(f)
        with np.errstate(over="ignore", invalid="ignore"):
            return check_finite(self.eigenvectors.T @ (self.space.weights * f), "mode coefficients")

    def synthesize(self, coeffs) -> np.ndarray:
        """Rebuild a grid function from mode coefficients; :class:`OverflowRisk` unless every value is finite.

        Only the live modes are read: the leading modes up to the last
        nonzero coefficient, rounded up to a multiple of ``_MODE_BLOCK``
        (64) and capped at n.  The columns past them would add exact zeros,
        and at a multiple of 64 BLAS groups the partial sums as it does over
        all n columns, so the result has the bits of the full-width GEMV.
        Callers form the coefficients under ``np.errstate(over="ignore")``,
        so that a product past double range reaches this check.
        """
        vectors, coeffs = self._live_modes(coeffs, "coefficient")
        with np.errstate(over="ignore", invalid="ignore"):
            return check_finite(vectors @ coeffs, "synthesized values")

    def apply(self, mult, f) -> np.ndarray:
        """sum_k mult_k (phi_k, f) phi_k: the per-mode multiplier ``mult`` on f.

        ``mult`` must hold one value per mode, else :class:`LengthMismatch`.
        Both GEMVs read the live modes only, up to the last nonzero
        multiplier as in :meth:`synthesize`, with the bits of the full-width
        ones; e^(-lambda_k T) is exactly 0 once lambda_k T > 745.13.  The
        coefficient of a mode past them is never formed, so it cannot turn
        the result into NaN.  :class:`OverflowRisk` unless every value is
        finite; a live coefficient past double range makes every value inf
        or NaN, so one check of the values covers the coefficients too.
        """
        f = self.space.check_vector(f)
        vectors, mult = self._live_modes(mult, "multiplier")
        with np.errstate(over="ignore", invalid="ignore"):
            return check_finite(vectors @ (mult * (vectors.T @ (self.space.weights * f))), "synthesized values")

    def _live_modes(self, values, name: str):
        """The eigenvectors and ``values`` of the live modes; :class:`LengthMismatch` unless one value per mode.

        The live modes lead up to the last nonzero value (a NaN counts),
        rounded up to a multiple of ``_MODE_BLOCK`` and capped at n.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.size,):
            raise LengthMismatch(f"{name} vector of shape {values.shape} for {self.size} modes")
        nonzero = np.flatnonzero(values)
        last = nonzero[-1] + 1 if nonzero.size else 0
        live = min(-(-last // _MODE_BLOCK) * _MODE_BLOCK, self.size)
        return self.eigenvectors[:, :live], values[:live]

    def trajectory(self, rates, times, coeffs, modes=slice(None)) -> np.ndarray:
        """Rows sum_k exp(rates_k t) coeffs_k phi_k over the ``modes``, one per time t.

        Raises :class:`ValidationError` past ``errors.MAX_TRAJECTORY_CELLS``,
        and :class:`OverflowRisk` unless every value is finite.
        """
        cells = len(times) * self.size
        check_budget(f"trajectory cells ({len(times)} times x {self.size} states)", cells, MAX_TRAJECTORY_CELLS)
        with np.errstate(over="ignore", invalid="ignore"):
            values = (np.exp(np.outer(times, rates)) * coeffs) @ self.eigenvectors[:, modes].T
        return check_finite(values, "trajectory values")


def _stevd(d: np.ndarray, e: np.ndarray):
    """Eigenvalues and vectors of the symmetric tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    ``dstevd`` overwrites ``d`` with the ascending eigenvalues and writes the
    k-th vector into the k-th row of the C-ordered ``z``; a nonzero ``info``
    raises :class:`NumericalError`.  The n x n workspace is freed on return.
    """
    n = d.size
    z = np.empty((n, n))
    work = np.empty(1 + 4 * n + n * n)
    iwork = np.empty(3 + 5 * n, dtype=np.int64)
    size, lwork, liwork, info = np.array([[n], [work.size], [iwork.size], [0]], dtype=np.int64)
    _DSTEVD(b"V", size, d, e, z, size, work, lwork, iwork, liwork, info, 1)
    if info[0] != 0:
        raise NumericalError(f"LAPACK dstevd failed with info = {info[0]}")
    return d, z.T


def spectral_decompose(gen: SymmetricGenerator) -> SpectralDecomposition:
    """Diagonalise -A in L2(m) via the similarity M^(1/2) (-A) M^(-1/2).

    The transformed matrix is symmetric in the ordinary sense, so the
    spectrum is real and the back-transformed eigenvectors are m-orthonormal
    by construction.  Eigenvalues with |lambda| below ``EIG_CLAMP`` times the
    spectral radius (at least ``EIG_CLAMP``) are snapped to exactly zero;
    anything below ``-EIG_TOL`` relative is an invalid generator.  A
    transformed matrix that leaves double range raises :class:`OverflowRisk`,
    and an eigensolver that fails raises :class:`NumericalError`.
    A band generator (``ou``, ``diffusion``) is symmetrised on its bands
    and solved by numpy's LAPACK ``dstevd``, with the same bits as the dense
    ``eigh`` of its matrix; without that routine, ``eigh`` runs on the
    tridiagonal built from the symmetrised bands.
    """
    sqrt_m = np.sqrt(gen.space.weights)
    with np.errstate(over="ignore", invalid="ignore"):
        if gen.bands is None:
            # 0.5 (sym + sym.T) with sym = (-A) * (s_i / s_j), in place: the same bits in two n x n arrays
            sym = sqrt_m[:, None] / sqrt_m[None, :]
            sym *= gen.matrix
            np.negative(sym, out=sym)
            sym += sym.T
            sym *= 0.5
            finite = np.all(np.isfinite(sym))
        else:
            # the dense sym's diagonal and lower band, the entries eigh reads; the ratio
            # check fails where a dense matrix's 0 * s_i/s_j off the bands would be NaN
            lower, diag, upper = gen.bands
            d = (-diag) * (sqrt_m / sqrt_m)
            d = 0.5 * (d + d)
            e = 0.5 * ((-lower) * (sqrt_m[1:] / sqrt_m[:-1]) + (-upper) * (sqrt_m[:-1] / sqrt_m[1:]))
            finite = np.all(np.isfinite(d)) and np.all(np.isfinite(e)) and np.isfinite(sqrt_m.max() / sqrt_m.min())
    if not finite:
        raise OverflowRisk("the symmetrised generator M^(1/2) (-A) M^(-1/2) leaves double range")
    if gen.bands is not None and _DSTEVD is not None:
        lam, vecs = _stevd(d, e)
    else:
        if gen.bands is not None:
            sym = _tridiagonal(e, d, e)
        try:
            lam, vecs = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"LAPACK dsyevd (numpy.linalg.eigh) failed: {exc}") from None
    scale = max(1.0, float(np.abs(lam).max()))
    if lam[0] < -EIG_TOL * scale:
        raise NegativeEigenvalue(
            f"-A has eigenvalue {lam[0]:.6e}; generator is not negative semi-definite"
        )
    lam[np.abs(lam) <= EIG_CLAMP * scale] = 0.0
    lam[lam < 0.0] = 0.0
    # C order whatever the solver's: the coefficient GEMVs' bits depend on the layout;
    # eigh's vectors are C-ordered already and are rescaled in place
    phi = np.divide(vecs, sqrt_m[:, None], out=vecs if vecs.flags.c_contiguous else _aligned_empty(vecs.shape))
    return SpectralDecomposition(gen.space, lam, phi, _owned=True)


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-ordered float array whose data starts on a 64-byte cache line.

    malloc aligns numpy's arrays to 16 bytes only, and every row of an
    n x n float array shares the start's offset in its cache line.  At
    n = 1000 one BLAS thread ran both coefficient GEMVs 10-20% slower from
    a 16- or 48-byte offset than from a whole line, so their speed hung on
    where earlier allocations had left the heap.  Their bits do not.
    """
    size = math.prod(shape) * 8
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(np.float64).reshape(shape)


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
