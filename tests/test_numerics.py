"""The shared float helpers of ``semigroupinv._numerics``: Dekker's TwoProduct on Veltkamp splits.

``artifacts._round17`` and ``bessel.i0_multipliers`` both carry a product as
its rounded value plus ``_two_product_error``; each checks it only through
its own results.  Here the error is checked against exact rational
arithmetic, for arrays and for the scalar ``a`` that ``i0_multipliers``
passes.
"""

from fractions import Fraction

import numpy as np
import pytest

from semigroupinv._numerics import _split, _two_product_error


def _operands(seed: int, size: int, scalar_a: bool = False):
    """Doubles a, b with |a|, |b| <= 1e290 of either sign whose product lies in [1e-250, 1e250], so that
    neither a split nor a partial product leaves double range; with ``scalar_a``, one a for every b."""
    rng = np.random.default_rng(seed)
    log_a = rng.uniform(-290.0, 290.0, 1 if scalar_a else size)
    log_b = np.clip(rng.uniform(-250.0, 250.0, size) - log_a, -290.0, 290.0)
    a = rng.choice([-1.0, 1.0], log_a.size) * rng.uniform(1.0, 10.0, log_a.size) * 10.0 ** (log_a - 1.0)
    b = rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 10.0, size) * 10.0 ** (log_b - 1.0)
    return (np.float64(a[0]) if scalar_a else a), b


def _exact_error(a: float, b: float, p: float) -> Fraction:
    return Fraction(a) * Fraction(b) - Fraction(p)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_error_of_array_products_is_exact(seed):
    a, b = _operands(seed, 2000)
    p = a * b
    e = _two_product_error(*_split(a), *_split(b), p)
    assert all(Fraction(float(ek)) == _exact_error(ak, bk, pk) for ak, bk, pk, ek in zip(a, b, p, e))
    assert np.any(e != 0.0)  # not a product of short mantissas, whose error is 0


@pytest.mark.parametrize("seed", range(4, 24))
def test_error_of_a_scalar_times_an_array_is_exact(seed):
    # the form of i0_multipliers: a numpy scalar a against the array of betas
    a, b = _operands(seed, 100, scalar_a=True)
    p = a * b
    e = _two_product_error(*_split(a), *_split(b), p)
    assert all(Fraction(float(ek)) == _exact_error(float(a), bk, pk) for bk, pk, ek in zip(b, p, e))


def test_only_the_b_split_is_scratch():
    a, b = _operands(5, 64)
    p = a * b
    a_high, a_low = _split(a)
    kept = a_high.copy(), a_low.copy(), p.copy()
    e = _two_product_error(a_high, a_low, *_split(b), p)
    assert all(np.array_equal(x, y) for x, y in zip((a_high, a_low, p), kept))
    assert not any(np.shares_memory(e, x) for x in (a_high, a_low, p))
