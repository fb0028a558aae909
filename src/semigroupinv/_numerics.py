"""Float helpers that several modules share: the blocked-pass size, Dekker's
TwoProduct on Veltkamp splits, and a norm that survives overflowing squares."""

from __future__ import annotations

import math

import numpy as np

# Cells of one block of a blocked pass: rows of the dense m-symmetry residual,
# and bessel's _decay_sum and I0 window blocks (modes x nodes).  A 256 KB
# temporary, L2-sized.
_BLOCK_CELLS = 32768


def _split(a: np.ndarray):
    """Veltkamp's split of ``a`` into a 26-bit high part and the exact rest."""
    c = a * (2.0**27 + 1.0)
    high = c - (c - a)
    return high, a - high


def _two_product_error(a_high, a_low, b_high, b_low, p) -> np.ndarray:
    """a b - p exactly for p = fl(a b): Dekker's TwoProduct on the Veltkamp splits of a and b.

    The result is a new array, and ``b_high`` and ``b_low`` are overwritten:
    they serve as scratch, so a caller passes splits that nothing else reads
    (the fresh arrays of ``_split``, or of ``np.take``), each of the result's
    shape.  ``a_high``, ``a_low`` and ``p`` are only read, and the a parts
    may be scalars.
    """
    # e = a_low b_low - (((p - a_high b_high) - a_low b_high) - a_high b_low), every step exact
    e = a_high * b_high
    e -= p
    b_high *= a_low
    e += b_high
    np.multiply(a_high, b_low, out=b_high)
    e += b_high
    b_low *= a_low
    e += b_low
    return e


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
