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
import io
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Mapping

import numpy as np
from numpy.linalg import _umath_linalg

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
    NumericalError,
    OverflowRisk,
    ValidationError,
    check_budget,
    check_range,
)

# Double-precision tolerances, sized for dense models up to n ~ 2000.
SYM_TOL = 1e-10
EIG_TOL = 1e-8
EIG_CLAMP = 1e-12


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


def _root_sum_squares(v: np.ndarray, weights=None) -> float:
    """sqrt(sum_i v_i^2 w_i), the L2 norm of ``v`` with ``weights`` (or none), rescaled when its squares overflow.

    Entries of ``v``, or weights, past ~1e154 can make the squares
    infinite; then the norm is s * sqrt(sum_i (t_i / s)^2), where
    t_i = |v_i| sqrt(w_i) and s = max t_i is at most the norm.  Every finite
    plain result is returned as it is, bit for bit, and a norm past double
    range is inf.
    """
    with np.errstate(over="ignore"):
        value = float(np.sqrt(np.sum(v ** 2) if weights is None else np.dot(v * v, weights)))
        if value == math.inf:
            terms = np.abs(v) if weights is None else np.abs(v) * np.sqrt(weights)
            big = float(np.max(terms))
            if big < math.inf:
                value = big * float(np.sqrt(np.sum((terms / big) ** 2)))
    return value


def norm(space: WeightedStateSpace, f) -> float:
    """Weighted L2 norm induced by :func:`inner`; finite whenever the norm itself is below the double range."""
    f = _check_vector(space, f)
    return _root_sum_squares(f, space.weights)


# Cells of one block of a blocked pass: rows of the dense m-symmetry residual,
# and bessel's _decay_sum and I0 window blocks (modes x nodes).  A 256 KB
# temporary, L2-sized.
_BLOCK_CELLS = 32768


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
            # rows i of w = m_i A_ij against the same rows of w.T, a block at a time
            rows = max(1, _BLOCK_CELLS // n)
            block_max = [
                np.max(_asymmetry(a[i : i + rows] * m[i : i + rows, None], (a[:, i : i + rows] * m[:, None]).T))
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
    phi = np.divide(vecs, sqrt_m[:, None], out=vecs if vecs.flags.c_contiguous else None, order="C")
    return SpectralDecomposition(gen.space, lam, phi, _owned=True)


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
# Every CSV artifact has LF line endings and writes each number as
# format(x, ".17g"), which round-trips every double; an integer index i is
# written as the float i, whose %.17g is its %d.  One numpy kernel renders a
# float column as those bytes: ``_digits17`` finds each cell's digits, and
# ``_g17_render`` writes them into a caller's buffer.
#
# * Fast path: each cell whose %.17g exponent X lies in [-4, 16], %g's fixed
#   notation at precision 17.  There 10^(16-X) is an exact double, and
#   Dekker's TwoProduct (Veltkamp's split by 2^27 + 1, no FMA) gives
#   |x| 10^(16-X) = P + e exactly, P an even integer >= 2^53; so
#   N = P + rint(e) is the 17-digit integer that %.17g rounds |x| to, half
#   to even.  X starts at floor(log10|x|); an N outside [10^16, 10^17)
#   moves X by one, once, and only 10^16 < N < 10^17 proves X.
# * Layout: the cells of a table or chunk are 7 + k uint32 words, NUL-padded,
#   with k = ceil(max(X, 0) / 4) over its fast cells (``_cell_words``): the comma,
#   the sign, the "0" of "0." and, for |x| >= 1, the leading digit; k words
#   of integer digits; the point and up to three zeros after it; the leading
#   digit of |x| < 1; four words of fraction digits without trailing zeros.
#   A table of 4-digit words and a byte mask per X fill them.
# * Fallback: every other cell (zeros, subnormals, |x| < 1e-4 or >= ~1e17,
#   inf, nan, and values that round to a power of ten, such as 1.0 and
#   100.0) is formatted by Python's own %.17g.  Its widest text,
#   ",-2.2250738585072014e-308", is 25 bytes, so it fits 7 words.
#
# A table's cells lie row after row, the first of each line with LF in
# place of its comma, and one ``bytes.translate(None, b"\0")`` drops the
# padding: the text is the header, the lines and one final LF.  A
# trajectory is rendered in chunks of about ``_CSV_CHUNK_CELLS`` values
# (``_csv_chunks``), each with its own k, which ``pde`` streams to
# trajectory.csv without building the whole text.

CSV_HEADER = "index,x,m,value"

# Values in a chunk of a long table: the chunk's arrays stay in a core's cache.
_CSV_CHUNK_CELLS = 8192


def _words(byte_rows) -> np.ndarray:
    """Rows of 4 bytes as native uint32 words, so a word holds its bytes in memory order."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint32)[..., 0]


def _build_g17_tables():
    """The kernel's word tables, built with numpy.

    ``groups``: at v, the 4 digits of v; at v + 10000, the same without
    trailing zeros (0000 gives four NULs).  ``lead``: at d, three NULs and
    the digit d.  ``integer_mask``: in column X + 4, the bytes of the four
    digit words that hold digits 1..16 of N at positions p <= X.
    ``point``: at X + 4, NULs; at 21 + X + 4, the point and, for X < 0,
    -X - 1 zeros.  ``head``: at 2 * sign + (X < 0), the comma, then "-" for
    a negative x and "0" before the point of |x| < 1.
    """
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T  # row v: the digits of v
    trailing_zero = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]  # it and every later digit 0
    ascii_digits = digits + np.uint8(ord("0"))
    groups = _words(np.concatenate([ascii_digits, np.where(trailing_zero, np.uint8(0), ascii_digits)]))
    lead = np.zeros((10, 4), np.uint8)
    lead[:, 3] = ascii_digits[:10, 3]
    x = np.arange(-4, 17)
    positions = np.arange(1, 17).reshape(4, 4)
    integer_mask = _words(np.where(positions <= x[:, None, None], 255, 0)).T.copy()
    point = np.zeros((2, 21, 4), np.uint8)
    point[1, :, 0] = ord(".")
    point[1, :3, 1:] = np.where(np.arange(1, 4) <= -1 - x[:3, None], ord("0"), 0)
    head = np.zeros((4, 4), np.uint8)
    head[:, 0] = ord(",")
    head[2:, 1] = ord("-")
    head[1::2, 2] = ord("0")
    return groups, _words(lead), integer_mask, _words(point).ravel(), _words(head)


_DIGITS4, _LEAD_DIGIT, _INTEGER_MASK, _POINT, _HEAD = _build_g17_tables()

_POW10 = 10.0 ** np.arange(21)  # exact: every 10^k with k <= 22 is a double
_SPLITTER = 2.0**27 + 1.0


def _split(a: np.ndarray):
    """Veltkamp's split of ``a`` into a 26-bit high part and the exact rest."""
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _two_product_error(a_high, a_low, b_high, b_low, p) -> np.ndarray:
    """a b - p exactly for p = fl(a b): Dekker's TwoProduct on the Veltkamp splits of a and b."""
    # e = a_low b_low - (((p - a_high b_high) - a_low b_high) - a_high b_low), every step exact
    e = a_high * b_high
    e -= p
    e += a_low * b_high
    e += a_high * b_low
    e += a_low * b_low
    return e


def _round17(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(a 10^k) as int64, exactly, wherever 2^53 <= a 10^k < 2^63.

    Dekker's TwoProduct gives a 10^k = p + e with p = fl(a 10^k), an even
    integer there; so the rounded value is p + rint(e).
    """
    p = np.take(_POW10, k)
    p *= a
    e = _two_product_error(*_split(a), np.take(_POW10_HIGH, k), np.take(_POW10_LOW, k), p)
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digits17(x: np.ndarray):
    """``(n, exp10, fast)``: where ``fast``, |x| rounds to n 10^(exp10 - 16) with 10^16 < n < 10^17.

    The cells outside ``fast`` hold arbitrary n and exp10.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exp10 = np.floor(np.log10(a))
    fast = (exp10 >= -4) & (exp10 <= 16)  # False for 0, nan, inf and every subnormal
    a[~fast], exp10[~fast] = 1.0, 0.0
    exp10 = exp10.astype(np.int64)
    n = _round17(a, 16 - exp10)
    # log10 may round across a power of ten, and N may round up to 10^17: move X once
    moved = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if moved.size:
        exp10[moved] += np.where(n[moved] < 10**16, -1, 1)
        n[moved] = _round17(a[moved], np.clip(16 - exp10[moved], 0, 20))
        fast[moved] &= (exp10[moved] >= -4) & (exp10[moved] <= 16)
    # 10^16 < N < 10^17 proves X; N = 10^16 may also come from |x| just below 10^X
    fast &= (n > 10**16) & (n < 10**17)
    return n, exp10, fast


def _cell_words(exp10, fast) -> int:
    """7 + k, the words of a cell that holds every ``fast`` X <= 4k in k integer-digit words."""
    return 7 + -(-int(np.max(exp10, where=fast, initial=0)) // 4)


def _g17_render(x: np.ndarray, digits, out: np.ndarray) -> None:
    """Write ``"," + format(x_i, ".17g")`` into row i of ``out``, NUL-padded.

    ``digits`` is ``_digits17(x)``, whose ``n`` this overwrites.  ``out`` is
    a (cells, 7 + k) uint32 array with 7 + k >= ``_cell_words(exp10, fast)``.
    """
    n, exp10, fast = digits
    k = out.shape[1] - 7
    # N = lead 10^16 + four 4-digit groups, one per row of the planar arrays
    lead = n // 10**16
    n -= lead * 10**16
    high = n // 10**8
    low = (n - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    groups = np.empty((4, x.size), np.int32)
    np.floor_divide(high, 10**4, out=groups[0])
    np.subtract(high, groups[0] * 10**4, out=groups[1])
    np.floor_divide(low, 10**4, out=groups[2])
    np.subtract(low, groups[2] * 10**4, out=groups[3])
    # a fraction group drops its trailing zeros when every later group is 0
    stripped = np.empty((4, x.size), np.int32)
    stripped[3] = 10000
    np.multiply(groups[3] == 0, 10000, out=stripped[2])
    np.multiply(groups[2] == 0, stripped[2], out=stripped[1])
    np.multiply(groups[1] == 0, stripped[1], out=stripped[0])
    stripped += groups
    # every table index below is in range where fast; "clip" keeps the other cells' harmless.
    # Digits at positions p > 4k are fraction digits in every fast cell, so only k words need a mask.
    fraction = np.take(_DIGITS4, stripped, mode="clip")
    if k:
        mask = np.take(_INTEGER_MASK[:k], exp10 + 4, axis=1, mode="clip")
        out[:, 1:1 + k] = (np.take(_DIGITS4, groups[:k], mode="clip") & mask).T
        fraction[:k] &= ~mask
    below_one = exp10 < 0
    lead = np.take(_LEAD_DIGIT, lead, mode="clip")
    head = np.take(_HEAD, 2 * np.signbit(x) + below_one)
    out[:, 0] = np.where(below_one, head, head | lead)
    point = fraction[0] | fraction[1] | fraction[2] | fraction[3]
    point |= below_one
    out[:, k + 1] = np.take(_POINT, (point != 0) * 21 + exp10 + 4, mode="clip")
    out[:, k + 2] = np.where(below_one, lead, 0)
    out[:, k + 3:] = fraction.T
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [b",%.17g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{4 * out.shape[1]}").view(np.uint32).reshape(-1, out.shape[1])


def _g17_words(x) -> np.ndarray:
    """``"," + format(x_i, ".17g")`` for each x_i, as NUL-padded rows of ``_cell_words`` uint32 words."""
    x = np.ascontiguousarray(x, dtype=float).ravel()
    digits = _digits17(x)
    out = np.empty((x.size, _cell_words(*digits[1:])), np.uint32)
    _g17_render(x, digits, out)
    return out


def _csv_table(header: str, *columns) -> str:
    """``header``, then one line of the float ``columns``, comma-separated, per row."""
    cells = np.column_stack(columns)
    words = _g17_words(cells)
    words.view(np.uint8)[:: cells.shape[1], 0] = ord("\n")  # each line opens with LF, not a comma
    return header + words.tobytes().translate(None, b"\0").decode("ascii") + "\n"


def _packed_words(x, lead: bytes) -> np.ndarray:
    """``lead + format(x_i, ".17g")`` for each x_i, as rows of uint32 words NUL-padded to the longest."""
    cells = [lead + c for c in _g17_words(x).tobytes().translate(None, b"\0").split(b",")[1:]]
    width = -(-max(map(len, cells), default=1) // 4)
    return np.array(cells, dtype=f"S{4 * width}").view(np.uint32).reshape(len(cells), width)


def _csv_chunks(header: str, times, values):
    """``header``, then the line ``times[i],j,values[i, j]`` for each i and j, as bytes in chunks.

    A chunk holds the lines of whole rows i, at least one and about
    ``_CSV_CHUNK_CELLS`` values.  The index column is rendered once and the
    times about ``_CSV_CHUNK_CELLS`` at a time, so the working set does not
    grow with the number of rows.
    """
    yield header.encode("ascii")
    n = values.shape[1]
    index = _packed_words(np.arange(n), b",")
    rows = max(1, _CSV_CHUNK_CELLS // max(n, 1))
    block = rows * max(1, _CSV_CHUNK_CELLS // rows)
    for start in range(0, len(times), block):
        stamps = _packed_words(times[start:start + block], b"\n")
        for a in range(0, len(stamps), rows):
            chunk = values[start + a:start + a + rows]
            x = np.ascontiguousarray(chunk, dtype=float).ravel()
            digits = _digits17(x)
            cell = _cell_words(*digits[1:])
            width = stamps.shape[1] + index.shape[1] + cell
            buf = bytearray(4 * width * x.size)  # ``lines`` renders in place: no copy before translate
            lines = np.frombuffer(buf, np.uint32).reshape(len(chunk), n, width)
            lines[..., :stamps.shape[1]] = stamps[a:a + rows, None]
            lines[..., stamps.shape[1]:-cell] = index
            _g17_render(x, digits, lines.reshape(-1, width)[:, -cell:])
            yield buf.translate(None, b"\0")
    yield b"\n"


def vector_to_csv(space: WeightedStateSpace, values) -> str:
    """Serialize a grid function as ``index,x,m,value`` rows, LF endings."""
    values = _check_vector(space, values)
    return _csv_table(CSV_HEADER, np.arange(space.size), space.points, space.weights, values)


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
