"""Order-zero Bessel functions and Bessel-weighted Bochner quadrature.

J0 and I0 are the kernels of the inversion transform; they are evaluated to
<= 1e-12 (absolute for J0, relative for I0) with a three-regime scheme:
power series near the origin, anchored local Taylor expansions in the
mid-range where the plain series loses digits to cancellation, and Hankel
asymptotics beyond.

Every Bessel twin of the library integrates, mode by mode, one of two
Laplace transforms with composite Gauss-Legendre panels:

- :func:`j0_multipliers`: mu_k = int J0(2 sqrt(x s)) e^(-r_k s) ds = e^(-x/r_k) / r_k,
  on J0 quarter periods until the slowest decay falls below the tail tolerance;
- :func:`i0_multipliers`: mu_k = int I0(2 sqrt(a s)) e^(-s/beta_k) ds = beta_k e^(a beta_k),
  on panels uniform in sqrt(s) across the widest bell.

The slowest mode's decay rides in the weight with the kernel, and each mode
integrates the rest of its decay, which is at most 1.  The node sums go
through ``_decay_sum`` with the modes as rows and the nodes taken in blocks of
about ``_BLOCK_CELLS`` cells, so a quadrature's memory beside its node arrays is
one block, however many nodes it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MAX_EXPONENT, OverflowRisk, QuadratureNotConverged, ValidationError, check_budget, check_range

# J0 regimes: the 0-centered series keeps both its error AND the error's
# point-to-point decorrelation at ~eps * I0(x); anchored local Taylor
# expansions stay near 1 ulp through the mid-range, and the Hankel tail
# needs x >~ 13 to clear 1e-12.  Seams sit off round grid values so typical
# finite-difference stencils do not straddle a branch boundary.
_J0_SERIES_END = 3.65
_J0_SEAMS = (5.45, 7.45, 9.45, 11.45)
_J0_ASYMPTOTIC_START = 13.0
_I0_SERIES_END = 15.0

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
    arr = np.abs(np.asarray(x, dtype=float))
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr > MAX_EXPONENT):
        big = float(arr.max())
        log10 = (big - 0.5 * np.log(2.0 * np.pi * big)) / np.log(10.0)
        raise OverflowRisk(f"I0({big:g}) exceeds double range", log10_value=log10)
    out = np.full_like(arr, np.nan)  # NaN falls in no regime below

    m = arr <= _I0_SERIES_END
    if np.any(m):
        q = 0.25 * arr[m] * arr[m]
        acc = np.ones_like(q)
        term = np.ones_like(q)
        for k in range(1, 60):
            term = term * q / (k * k)
            acc = acc + term
        out[m] = acc
    m = arr > _I0_SERIES_END
    if np.any(m):
        z = arr[m]
        s = np.zeros_like(z)
        for k in range(_I0_ASYMPT_TERMS - 1, -1, -1):
            s = s / z + _I0_B[k]
        out[m] = np.exp(z) / np.sqrt(2.0 * np.pi * z) * s
    return float(out[0]) if scalar else out


# -- composite Gauss-Legendre Bochner quadrature ------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings of one Bochner integral on caller-laid panels.

    ``tail_tol`` is both the self-convergence target and the requested
    truncation-error bound; ``points_per_panel`` is the Gauss-Legendre order.
    """

    tail_tol: float
    points_per_panel: int = 24

    def __post_init__(self):
        if not 2 <= self.points_per_panel <= 64:
            raise ValidationError(
                f"points_per_panel must lie in [2, 64], got {self.points_per_panel}"
            )
        check_range("tail_tol", self.tail_tol)


# Quadrature setting of the Laplace-transform checks: the J0 and I0 identities
# below and the flow's laplace_diagnostic.
LAPLACE_QUADRATURE = QuadratureConfig(tail_tol=1e-12)


@dataclass(frozen=True)
class QuadratureResult:
    value: np.ndarray
    error_estimate: float
    tail_bound: Optional[float]
    n_nodes: int


# Panel halvings bochner_quadrature tries before giving up.
_REFINEMENTS = 3

# Most panels an edge builder lays out: uniform panels in sqrt(s), or J0
# quarter periods.  The I0 window of a large lambda_max at a small T, or a
# J0 kernel at a large t, asks for more, and every node vector grows with it.
_MAX_PANELS = 16384

# Cells (rates x nodes) of one _decay_sum block: a 256 KB temporary, L2-sized.
_BLOCK_CELLS = 32768

_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


def _panel_nodes(edges: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    xg, wg = _leggauss(points)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _split_edges(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[1:] + edges[:-1])
    return np.sort(np.concatenate([edges, mids]))


def _integrate(weight, integrand, edges, points):
    nodes, wq = _panel_nodes(edges, points)
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
    config: QuadratureConfig,
    breakpoints: Sequence[float],
    tail_rate: Optional[float] = None,
    tail_amplitude: Optional[float] = None,
) -> QuadratureResult:
    """Integrate weight(s) times an integrand over the panels between ``breakpoints``.

    ``weight`` maps the nodes (k,) to values (k,); ``integrand(s, w)`` gets
    the nodes and their weights w = wq * weight(s) and returns its own node
    sum, a scalar or one value per component.  Panels are split in half
    until two successive evaluations agree within tail_tol (absolute, relative to a
    unit scale), at most ``_REFINEMENTS`` times, else
    :class:`QuadratureNotConverged` is raised.  When the caller knows the
    integrand is dominated by ``tail_amplitude * exp(-tail_rate s)``, the
    reported truncation bound is ``tail_amplitude * exp(-tail_rate * s_max)
    / tail_rate`` with s_max the last breakpoint.
    """
    edges = np.unique(np.asarray(breakpoints, dtype=float))
    if edges.size < 2:
        raise ValidationError("need at least two breakpoints")

    value, n_nodes = _integrate(weight, integrand, edges, config.points_per_panel)
    err = np.inf
    for _ in range(_REFINEMENTS):
        edges = _split_edges(edges)
        refined, n_nodes = _integrate(weight, integrand, edges, config.points_per_panel)
        err = float(np.max(np.abs(refined - value)))
        value = refined
        if err <= config.tail_tol * max(1.0, float(np.max(np.abs(value)))):
            break
    else:
        raise QuadratureNotConverged(
            "panel refinement exhausted", error_estimate=err
        )

    tail = None
    if tail_rate is not None and tail_rate > 0:
        amp = 1.0 if tail_amplitude is None else tail_amplitude
        tail = amp * np.exp(-tail_rate * edges[-1]) / tail_rate
    return QuadratureResult(value, err, tail, n_nodes)


def geometric_refined_edges(
    s_max: float,
    refine_scale: float,
    quarter_u: Optional[float] = None,
    max_width: Optional[float] = None,
) -> np.ndarray:
    """Panel edges on [0, s_max] that resolve a boundary layer near zero.

    Edges double geometrically from ``refine_scale / 4`` upward.  When
    ``quarter_u`` is given, the edges also include the quarter-period points
    of an oscillation that is uniform in u = sqrt(s) (u_j = j * quarter_u,
    i.e. s_j = j^2 * quarter_u^2, the spacing needed by J0(2 sqrt(t s))
    kernels); more than ``_MAX_PANELS`` of them raise
    :class:`ValidationError`.  ``max_width`` caps the width of any panel.
    """
    check_range("s_max", s_max)
    pts = {0.0, float(s_max)}
    s = max(refine_scale, 1e-300) / 4.0
    while s < s_max:
        pts.add(s)
        s *= 2.0
    if quarter_u is not None and quarter_u > 0:
        check_budget("J0 quarter periods", np.ceil(np.sqrt(s_max) / quarter_u), _MAX_PANELS)
        j = 1
        while (j * quarter_u) ** 2 < s_max:
            pts.add((j * quarter_u) ** 2)
            j += 1
    edges = np.array(sorted(pts))
    if max_width is not None and max_width > 0:
        pieces = [np.array([edges[0]])]
        for a, b in zip(edges[:-1], edges[1:]):
            k = int(np.ceil((b - a) / max_width))
            pieces.append(np.linspace(a, b, k + 1)[1:])
        edges = np.concatenate(pieces)
    return edges


def sqrt_uniform_edges(s_max: float, scale: float) -> np.ndarray:
    """I0 panel edges for a bell exp(2 sqrt(a s) - s/beta) of width ``scale``.

    The bell is Gaussian in u = sqrt(s), so the edges sit at
    s = (j u_width)^2 with u_width = sqrt(scale) / 2, plus geometric edges
    from scale / 16 upward (:func:`geometric_refined_edges` at refine scale
    scale / 4) that resolve the fastest-decaying modes of a vector field.
    More than ``_MAX_PANELS`` uniform panels raise :class:`ValidationError`.
    """
    check_range("s_max", s_max)
    check_range("scale", scale)
    u_max = np.sqrt(s_max)
    panels = np.ceil(u_max / (0.5 * math.sqrt(scale)))
    check_budget("I0 panels uniform in sqrt(s)", panels, _MAX_PANELS)
    edges = np.linspace(0.0, u_max, max(1, int(panels)) + 1) ** 2
    return np.unique(np.concatenate([edges, geometric_refined_edges(s_max, scale / 4.0)]))


def i0_window_end(a: float, beta: float, tail_tol: float) -> float:
    """End of the bell envelope exp(2 sqrt(a s) - s/beta).

    The exponent peaks at s* = a beta^2 with value a beta; the window runs
    until the envelope has dropped ``tail_tol`` below the peak.
    """
    drop = math.log(1.0 / tail_tol) + a * beta
    return a * beta**2 * (1.0 + math.sqrt(drop / max(a * beta, 1e-12))) ** 2


def j0_decay_edges(rate: float, scale: float, tail_tol: float, t: float, refine_scale: float) -> np.ndarray:
    """Panel edges for J0(2 sqrt(t s)) times a decay below scale exp(-rate s).

    The range ends where the decay's tail falls below ``tail_tol``; panels
    follow the J0 quarter periods and are at most 2.5/rate wide.
    """
    s_max = math.log(scale / (rate * tail_tol)) / rate
    return geometric_refined_edges(
        s_max,
        refine_scale=refine_scale,
        quarter_u=np.pi / (4.0 * math.sqrt(t)) if t > 0 else None,
        max_width=2.5 / rate,
    )


# -- per-mode Laplace multipliers ----------------------------------------------


def j0_multipliers(x: float, rates, config: QuadratureConfig, scale: float = 1.0) -> QuadratureResult:
    """mu_k = integral_0^inf J0(2 sqrt(x s)) exp(-r_k s) ds for every rate r_k > 0.

    Closed form exp(-x/r_k) / r_k.  The range ends where ``scale`` times the
    slowest decay exp(-min(r) s) falls below the tail tolerance; ``scale``
    is the size of what the multipliers will be applied to.  Panels follow
    the J0 quarter periods and resolve the fastest decay near 0.
    """
    rates = np.asarray(rates, dtype=float)
    slow = float(rates.min())
    return bochner_quadrature(
        lambda s: np.exp(-slow * s) * bessel_j0(2.0 * np.sqrt(x * s)),
        lambda s, w: _decay_sum(rates - slow, s, w),
        config,
        j0_decay_edges(slow, scale, config.tail_tol, x, refine_scale=1.0 / float(rates.max())),
        tail_rate=slow,
        tail_amplitude=scale,
    )


def i0_multipliers(a: float, betas, config: QuadratureConfig, s_cap: float = math.inf) -> QuadratureResult:
    """mu_k = integral_0^inf I0(2 sqrt(a s)) exp(-s/beta_k) ds for every beta_k > 0.

    Closed form beta_k exp(a beta_k).  The window runs to the end of the
    widest bell (:func:`i0_window_end` at max(beta)), clipped at ``s_cap``;
    the panels, uniform in sqrt(s), are scaled to the narrowest bell.
    """
    betas = np.asarray(betas, dtype=float)
    wide = float(betas.max())
    s_max = min(i0_window_end(a, wide, config.tail_tol), s_cap)
    return bochner_quadrature(
        lambda s: np.exp(-s / wide) * bessel_i0(2.0 * np.sqrt(a * s)),
        lambda s, w: _decay_sum(1.0 / betas - 1.0 / wide, s, w),
        config,
        sqrt_uniform_edges(s_max, float(betas.min())),
    )


# -- Laplace transform identities ---------------------------------------------


def laplace_j0_identity(t: float, alpha: float) -> tuple[float, float]:
    """Quadrature vs closed form for the damped J0 transform.

    lhs = integral_0^inf exp(-alpha s) J0(2 sqrt(t s)) ds (truncated),
    rhs = exp(-t/alpha) / alpha.
    """
    check_range("t", t)
    check_range("alpha", alpha)
    lhs = j0_multipliers(t, [alpha], LAPLACE_QUADRATURE).value[0]
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
    lhs = i0_multipliers(2.0 * t, [beta], LAPLACE_QUADRATURE).value[0]
    return float(lhs), float(beta * np.exp(2.0 * t * beta))
