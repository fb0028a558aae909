"""Order-zero Bessel functions and Bessel-weighted Bochner quadrature.

J0 and I0 are the kernels of the inversion transform; they are evaluated to
<= 1e-12 (absolute for J0, relative for I0) with a three-regime scheme:
power series near the origin, anchored local Taylor expansions in the
mid-range where the plain series loses digits to cancellation, and Hankel
asymptotics beyond.

Every Bessel twin of the library integrates, mode by mode, one of two
Laplace transforms on 32-point Gauss-Legendre panels to a tail tolerance of 1e-12:

- :func:`j0_multipliers`: mu_k = int J0(2 sqrt(x s)) e^(-r_k s) ds = e^(-x/r_k) / r_k,
  on J0 quarter periods until the slowest decay falls below the tail tolerance.
  The slowest mode's decay rides in the weight with the kernel, and each mode
  integrates the rest of its decay, which is at most 1, through ``_decay_sum``
  with the modes as rows and the nodes taken in blocks of about
  ``_BLOCK_CELLS`` cells.
- :func:`i0_multipliers`: mu_k = int I0(2 sqrt(a s)) e^(-s/beta_k) ds = beta_k e^(a beta_k),
  each mode over its own envelope window in u = sqrt(s), on the same two
  panels mapped to every window (64 + 128 I0 evaluations a mode, the
  128-node sum returned), with the modes taken in blocks of about
  ``_BLOCK_CELLS`` cells.  An uncapped mode's exponent a beta_k is
  carried with its exact rounding error (Dekker's TwoProduct).

So a quadrature's memory beside its node arrays is one block, however many
nodes or modes it needs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from ._numerics import _BLOCK_CELLS, _split, _two_product_error
from .errors import MAX_EXPONENT, OverflowRisk, QuadratureNotConverged, ValidationError, check_budget, check_range

# J0 regimes: the 0-centered series keeps both its error AND the error's
# point-to-point decorrelation at ~eps * I0(x); anchored local Taylor
# expansions stay near 1 ulp through the mid-range, and the Hankel tail
# needs x >~ 13 to clear 1e-12.  Seams sit off round grid values so typical
# finite-difference stencils do not straddle a branch boundary.
_J0_SERIES_END = 3.65
_J0_SEAMS = (5.45, 7.45, 9.45, 11.45)
_J0_ASYMPTOTIC_START = 13.0
# I0 regimes, each summed in Horner form on precomputed coefficients: the
# 60-term series of positive terms stays within 1.2e-15 relative up to
# x = 20 (and beyond); the 25-term asymptotic sum is within 3.4e-16 from
# x = 20 on, but off by 1.9e-14 at 16 and 3.9e-13 at 14, and 16 terms would
# be off by 1.6e-14 at 20 (against mpmath).
_I0_SERIES_END = 20.0

# J0 and J1 at the local-Taylor anchors, 25 significant digits.
_J0_ANCHORS = {
    4.5: (-0.320542508985121424355489, -0.2310604319233706340080965),
    6.5: (0.2600946055816063813995955, -0.1538413014099718371097835),
    8.4: (0.06915726165698518754158449, 0.2707862682768353800749972),
    10.4: (-0.2433717507142071432210516, -0.05547276184899794743348676),
    12.2: (0.09077012317050474162038183, -0.205982021699560012525367),
}
_J0_ANCHOR_LIST = sorted(_J0_ANCHORS)
_TAYLOR_TERMS = 24


def _taylor_coefficients(a: float, j0_a: float, j1_a: float, terms: int) -> np.ndarray:
    # Derivatives at the anchor from x y'' + y' + x y = 0 differentiated n
    # times: y^(n+2) = -[(n+1) y^(n+1) + a y^(n) + n y^(n-1)] / a.
    d = np.empty(terms)
    d[0] = j0_a
    d[1] = -j1_a
    for n in range(terms - 2):
        prev = d[n - 1] if n >= 1 else 0.0
        d[n + 2] = -((n + 1.0) * d[n + 1] + a * d[n] + n * prev) / a
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, terms))))
    return d / fact


_J0_TAYLOR = {a: _taylor_coefficients(a, v[0], v[1], _TAYLOR_TERMS) for a, v in _J0_ANCHORS.items()}

# Hankel symbols h_j = h_{j-1} * (-(2j-1)^2) / (8j); P and Q sums use 13 terms,
# sized for the optimal truncation at the x = 13 handoff.
_HANKEL_TERMS = 26
_HANKEL = np.empty(_HANKEL_TERMS)
_HANKEL[0] = 1.0
for _j in range(1, _HANKEL_TERMS):
    _HANKEL[_j] = _HANKEL[_j - 1] * (-((2.0 * _j - 1.0) ** 2)) / (8.0 * _j)

# I0 asymptotic coefficients b_k = b_{k-1} (2k-1)^2 / (8k), all positive.
_I0_ASYMPT_TERMS = 25
_I0_B = np.empty(_I0_ASYMPT_TERMS)
_I0_B[0] = 1.0
for _j in range(1, _I0_ASYMPT_TERMS):
    _I0_B[_j] = _I0_B[_j - 1] * ((2.0 * _j - 1.0) ** 2) / (8.0 * _j)

# I0 series coefficients 1/(k!)^2, each correctly rounded.
_I0_SERIES_TERMS = 60
_I0_SERIES = np.array([1 / math.factorial(_j) ** 2 for _j in range(_I0_SERIES_TERMS)])


def _j0_series(x: np.ndarray) -> np.ndarray:
    # sum_k (-q)^k / (k!)^2 with q = x^2/4; 25 terms cover |x| <= 3.65.
    q = 0.25 * x * x
    out = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, 25):
        term = term * (-q) / (k * k)
        out = out + term
    return out


def _j0_taylor(x: np.ndarray, a: float) -> np.ndarray:
    c = _J0_TAYLOR[a]
    u = x - a
    out = np.full_like(x, c[-1])
    for k in range(_TAYLOR_TERMS - 2, -1, -1):
        out = out * u + c[k]
    return out


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    z = 1.0 / (x * x)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    sign = 1.0
    for k in range(13):
        p = p + sign * _HANKEL[2 * k] * z**k
        q = q + sign * _HANKEL[2 * k + 1] * z**k
        sign = -sign
    q = q / x
    chi = x - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j0(x):
    """Bessel function of the first kind, order zero; |error| <= 1e-12.

    Negative arguments use the even extension.  Accepts scalars or arrays;
    NaN maps to NaN.
    """
    arr = np.abs(np.asarray(x, dtype=float))
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.full_like(arr, np.nan)  # NaN falls in no regime below

    m = arr <= _J0_SERIES_END
    if np.any(m):
        out[m] = _j0_series(arr[m])
    seams = (_J0_SERIES_END,) + _J0_SEAMS + (_J0_ASYMPTOTIC_START,)
    for anchor, lo, hi in zip(_J0_ANCHOR_LIST, seams[:-1], seams[1:]):
        m = (arr > lo) & (arr <= hi)
        if np.any(m):
            out[m] = _j0_taylor(arr[m], anchor)
    m = arr > _J0_ASYMPTOTIC_START
    if np.any(m):
        out[m] = _j0_asymptotic(arr[m])
    return float(out[0]) if scalar else out


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero.

    Relative error <= 1e-12; NaN maps to NaN.  Raises :class:`OverflowRisk`
    instead of returning inf once exp(x) leaves double range (x > ``errors.MAX_EXPONENT``).
    """
    arr = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
    out = _i0(arr) * np.exp(arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def _i0(arr: np.ndarray) -> np.ndarray:
    """I0(x) exp(-x) of the non-negative ``arr``; an argument past ``errors.MAX_EXPONENT`` raises."""
    if np.any(arr > MAX_EXPONENT):
        big = float(arr.max())
        log10 = (big - 0.5 * np.log(2.0 * np.pi * big)) / np.log(10.0)
        raise OverflowRisk(f"I0({big:g}) exceeds double range", log10_value=log10)
    asymptotic = arr > _I0_SERIES_END
    if asymptotic.all():  # one regime, the bulk of every I0 window block: no gather or scatter
        return _i0_asymptotic(arr)
    series = arr <= _I0_SERIES_END
    if series.all():
        return _i0_series(arr)
    out = np.full_like(arr, np.nan)  # NaN falls in no regime below
    if series.any():
        out[series] = _i0_series(arr[series])
    if asymptotic.any():
        out[asymptotic] = _i0_asymptotic(arr[asymptotic])
    return out


def _i0_series(x: np.ndarray) -> np.ndarray:
    # sum_k q^k / (k!)^2 with q = x^2/4, in Horner form on the rounded 1/(k!)^2
    q = 0.25 * x * x
    acc = np.full_like(q, _I0_SERIES[-1])
    for c in _I0_SERIES[-2::-1]:
        acc *= q
        acc += c
    return acc * np.exp(-x)


def _i0_asymptotic(z: np.ndarray) -> np.ndarray:
    # sum_k b_k / z^k / sqrt(2 pi z), in Horner form on r = 1/z
    r = 1.0 / z
    s = np.full_like(z, _I0_B[-1])
    for b in _I0_B[-2::-1]:
        s *= r
        s += b
    np.multiply(2.0 * np.pi, z, out=r)
    np.sqrt(r, out=r)
    s /= r
    return s


# -- composite Gauss-Legendre Bochner quadrature ------------------------------


# The one setting of every Bochner integral: Gauss-Legendre points a panel, and the
# tail tolerance, both the halving test's target and the requested truncation bound.
_GAUSS_POINTS = 32
_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureResult:
    value: np.ndarray
    error_estimate: float
    tail_bound: Optional[float]
    n_nodes: int
    refinements: int


# Panel halvings bochner_quadrature tries before giving up.
_REFINEMENTS = 3

# Most J0 quarter periods an edge builder lays out.  A J0 kernel at a large t
# asks for more, and every node vector grows with it.
_MAX_PANELS = 16384

# Equal panels on each mode's I0 window before the first halving: at 32
# points a panel, 64 nodes and then 128, whose sum is returned.  The windowed
# bell is smooth enough that every benchmark window converges at the first
# halving (ou400 at a = 1 and 2, laplacian400 at a = 0.04, both capped at
# s_cap = 350^2/a; ou n=400 over [-1, 1] at a = 19/lambda_max), where 4
# panels cost twice the nodes for the same halving count.
_I0_WINDOW_PANELS = 2

# e-folds an I0 window runs past ln(1/_TAIL_TOL).  A window that starts at
# u = 0 cuts off the tail of 2u exp(-u^2/beta), e^-L of the mode: so
# e^-8 _TAIL_TOL = 3.4e-16, below rounding.
_I0_WINDOW_MARGIN = 8.0


@functools.cache
def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    # built on first use: importing numpy.polynomial costs a CLI process 4 to 7 ms (2-core Xeon)
    return np.polynomial.legendre.leggauss(_GAUSS_POINTS)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xg, wg = _leggauss()
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _split_edges(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[1:] + edges[:-1])
    return np.sort(np.concatenate([edges, mids]))


def _integrate(weight, integrand, edges):
    nodes, wq = _panel_nodes(edges)
    w = wq * np.asarray(weight(nodes), dtype=float)
    return np.asarray(integrand(nodes, w), dtype=float), nodes.size


def _decay_sum(rates: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j exp(-rates_k s_j) for every rate k.

    The rates are rows and the nodes are columns, taken in blocks of about
    ``_BLOCK_CELLS`` cells (at least one column), so the temporary is one
    block whatever the node count.  The blocks' partial sums are added in
    node order; the result agrees with the unblocked
    ``exp(-outer(rates, s)) @ w`` to rounding.
    """
    neg_rates = -rates
    cols = max(1, _BLOCK_CELLS // neg_rates.size)
    buf = np.empty((neg_rates.size, min(cols, s.size)))
    out = np.zeros(neg_rates.size)
    for start in range(0, s.size, cols):
        nodes = s[start : start + cols]
        block = buf[:, : nodes.size]
        np.multiply.outer(neg_rates, nodes, out=block)
        np.exp(block, out=block)
        out += block @ w[start : start + cols]
    return out


def bochner_quadrature(
    weight: Callable[[np.ndarray], np.ndarray],
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
) -> QuadratureResult:
    """Integrate weight(s) times an integrand over the panels between ``breakpoints``.

    ``weight`` maps the nodes (k,) to values (k,); ``integrand(s, w)`` gets
    the nodes and their weights w = wq * weight(s) and returns its own node
    sum, a scalar or one value per component.  Each panel takes
    ``_GAUSS_POINTS`` Gauss-Legendre nodes.  Panels are split in half
    until two successive evaluations agree within ``_TAIL_TOL`` (absolute, relative to a
    unit scale), at most ``_REFINEMENTS`` times, else
    :class:`QuadratureNotConverged` is raised; the result's ``refinements``
    counts the halvings run.  The engine knows nothing of the integrand's
    tail, so ``tail_bound`` is ``None``; a kernel that bounds its own
    truncation sets it.
    """
    # sorted, each value once; np.unique would import numpy.ma on its first call, about 5 ms a process
    edges = np.sort(np.asarray(breakpoints, dtype=float))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    if edges.size < 2:
        raise ValidationError("need at least two breakpoints")

    value, n_nodes = _integrate(weight, integrand, edges)
    err = np.inf
    for refinements in range(1, _REFINEMENTS + 1):
        edges = _split_edges(edges)
        refined, n_nodes = _integrate(weight, integrand, edges)
        err = float(np.max(np.abs(refined - value)))
        value = refined
        if err <= _TAIL_TOL * max(1.0, float(np.max(np.abs(value)))):
            break
    else:
        raise QuadratureNotConverged(
            "panel refinement exhausted", error_estimate=err
        )
    return QuadratureResult(value, err, None, n_nodes, refinements)


def j0_decay_edges(rate: float, scale: float, tail_tol: float, t: float, refine_scale: float) -> np.ndarray:
    """Panel edges for J0(2 sqrt(t s)) times a decay below scale exp(-rate s).

    The range [0, s_max] ends where the decay's tail scale exp(-rate s_max)
    / rate falls below ``tail_tol``.  Edges double geometrically from
    ``refine_scale / 4`` upward, to resolve the fastest decay near 0, and
    include the J0 quarter periods s_j = (j pi / (4 sqrt(t)))^2, uniform in
    u = sqrt(s); more than ``_MAX_PANELS`` of them raise
    :class:`ValidationError`.  No panel is wider than 2.5/rate.
    """
    rate = check_range("rate", rate)
    tail_tol = check_range("tail_tol", tail_tol)
    t = check_range("t", t, closed=True)
    s_max = check_range("s_max", math.log(scale / (rate * tail_tol)) / rate)
    pts = {0.0, s_max}
    s = max(refine_scale, 1e-300) / 4.0
    while s < s_max:
        pts.add(s)
        s *= 2.0
    if t > 0:
        quarter_u = np.pi / (4.0 * math.sqrt(t))
        check_budget("J0 quarter periods", np.ceil(np.sqrt(s_max) / quarter_u), _MAX_PANELS)
        j = 1
        while (j * quarter_u) ** 2 < s_max:
            pts.add((j * quarter_u) ** 2)
            j += 1
    edges = sorted(pts)
    max_width = 2.5 / rate
    pieces = [np.array(edges[:1])]
    for a, b in zip(edges[:-1], edges[1:]):
        pieces.append(np.linspace(a, b, math.ceil((b - a) / max_width) + 1)[1:])
    return np.concatenate(pieces)


# -- per-mode Laplace multipliers ----------------------------------------------


def j0_multipliers(x: float, rates, scale: float = 1.0) -> QuadratureResult:
    """mu_k = integral_0^inf J0(2 sqrt(x s)) exp(-r_k s) ds for every rate r_k > 0.

    Closed form exp(-x/r_k) / r_k.  The range ends where ``scale`` times the
    slowest decay exp(-min(r) s) falls below ``_TAIL_TOL``; ``scale``
    is the size of what the multipliers will be applied to.  Panels follow
    the J0 quarter periods and resolve the fastest decay near 0.  The
    result's ``tail_bound`` is the cut tail, scale exp(-min(r) s_max) / min(r).
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0:
        raise ValidationError("need at least one mode: the rate array is empty")
    slow = float(rates.min())
    edges = j0_decay_edges(slow, scale, _TAIL_TOL, x, refine_scale=1.0 / float(rates.max()))
    result = bochner_quadrature(
        lambda s: np.exp(-slow * s) * bessel_j0(2.0 * np.sqrt(x * s)),
        lambda s, w: _decay_sum(rates - slow, s, w),
        edges,
    )
    return replace(result, tail_bound=scale * np.exp(-slow * edges[-1]) / slow)


def i0_multipliers(a: float, betas, s_cap: float = math.inf) -> QuadratureResult:
    """mu_k = integral_0^s_cap I0(2 sqrt(a s)) exp(-s/beta_k) ds for every beta_k > 0.

    Closed form beta_k exp(a beta_k) when s_cap = inf.  In u = sqrt(s) the
    integrand is 2u I0(2 sqrt(a) u) e^(-u^2/beta_k), whose exponent
    2 sqrt(a) u - u^2/beta_k peaks at u*_k = sqrt(a) beta_k.  Each mode is
    integrated over its own window in u, from where that exponent has dropped
    L = ln(1/``_TAIL_TOL``) + ``_I0_WINDOW_MARGIN`` below its highest value on
    [0, sqrt(s_cap)] to u*_k + sqrt(L beta_k), clipped to [0, sqrt(s_cap)]; a
    mode whose peak lies beyond the cap gets the last stretch before it.
    ``bochner_quadrature`` runs once for all modes on ``_I0_WINDOW_PANELS``
    equal panels of v in [0, 1], mapped to each window, so the cost is modes
    times a constant.  Each mode is divided by its size at the window's peak,
    exp(E_k) min(beta_k, sqrt(s_cap/a)), so the halving test is relative per
    mode; an uncapped mode's E_k = a beta_k is the rounded product plus its
    exact error, e^E_k = e^fl(a beta_k) (1 + error).  A window that is empty
    or not finite raises :class:`ValidationError`, an I0 argument past
    ``errors.MAX_EXPONENT`` :class:`OverflowRisk`; a multiplier past double
    range is inf.
    """
    a = check_range("a", a)
    betas = np.asarray(betas, dtype=float)
    if betas.size == 0:
        raise ValidationError("need at least one mode: the beta array is empty")
    root_a = math.sqrt(a)
    u_cap = math.sqrt(max(s_cap, 0.0))
    with np.errstate(invalid="ignore", over="ignore"):  # a bad beta or cap gives a NaN or inf window, refused below
        spread = np.sqrt((math.log(1.0 / _TAIL_TOL) + _I0_WINDOW_MARGIN) * betas)
        peak = root_a * betas
        top = np.minimum(peak, u_cap)
        hi = np.minimum(u_cap, peak + spread)
        lo = np.maximum(0.0, peak - np.hypot(peak - top, spread))
    if not (np.all(lo < hi) and np.all(np.isfinite(hi))):
        raise ValidationError(f"the I0 window of a = {a:g} up to s_cap = {s_cap:g} is empty or not finite")
    width = hi - lo
    capped = top < peak
    # E_k = 2 sqrt(a) top - top^2/beta; a beta, the closed form's own exponent, when uncapped,
    # carried there as the rounded product plus its exact error
    exponent = np.where(capped, top * (2.0 * root_a - top / betas), a * betas)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 below where a split or the product leaves double range
        low = _two_product_error(*_split(np.float64(a)), *_split(betas), exponent)
    low[capped | ~np.isfinite(low)] = 0.0
    size = np.minimum(betas, math.sqrt(s_cap / a) or u_cap / root_a)  # s_cap / a underflows to 0 past a ~ 1e164

    def integrand(v, w):
        out = np.empty(betas.size)
        rows = max(1, _BLOCK_CELLS // v.size)
        for start in range(0, betas.size, rows):
            k = slice(start, start + rows)
            u = width[k, None] * v
            u += lo[k, None]
            top_k = top[k, None]
            # 2 sqrt(a) u - u^2/beta - E_k, written so that it does not cancel
            drop = top_k - u
            rise = top_k + u
            rise -= 2.0 * peak[k, None]
            drop *= rise
            drop /= betas[k, None]
            np.exp(drop, out=drop)
            # 2u (I0(2 sqrt(a) u) e^(-2 sqrt(a) u)) e^drop
            field = _i0(np.multiply(2.0 * root_a, u, out=rise))
            u *= 2.0
            field *= u
            field *= drop
            out[k] = (field @ w) * (width[k] / size[k])
        return out

    result = bochner_quadrature(np.ones_like, integrand, np.linspace(0.0, 1.0, _I0_WINDOW_PANELS + 1))
    with np.errstate(over="ignore"):
        value = result.value * size * np.exp(exponent)
    value *= 1.0 + low  # e^low to rounding, |low| <= 2^-53 E_k
    return replace(result, value=value)


# -- Laplace transform identities ---------------------------------------------


def laplace_j0_identity(t: float, alpha: float) -> tuple[float, float]:
    """Quadrature vs closed form for the damped J0 transform.

    lhs = integral_0^inf exp(-alpha s) J0(2 sqrt(t s)) ds (truncated),
    rhs = exp(-t/alpha) / alpha.
    """
    check_range("t", t)
    check_range("alpha", alpha)
    lhs = j0_multipliers(t, [alpha]).value[0]
    return float(lhs), float(np.exp(-t / alpha) / alpha)


def laplace_i0_identity(t: float, beta: float) -> tuple[float, float]:
    """Quadrature vs closed form for the growing I0 transform.

    lhs = integral_0^inf exp(-s/beta) I0(2 sqrt(2 t s)) ds (truncated),
    rhs = beta * exp(2 t beta).
    """
    check_range("t", t)
    check_range("beta", beta)
    if 2.0 * t * beta > 300.0:
        raise OverflowRisk(
            "exp(2 t beta) is too large to verify in double precision",
            log10_value=2.0 * t * beta / np.log(10.0),
        )
    lhs = i0_multipliers(2.0 * t, [beta]).value[0]
    return float(lhs), float(beta * np.exp(2.0 * t * beta))
