"""Special functions: oracle comparisons, ODE residual, Laplace identities,
and the Bochner quadrature engine."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import semigroupinv as sg
from semigroupinv.bessel import geometric_refined_edges, i0_multipliers, j0_multipliers, sqrt_uniform_edges
from semigroupinv.inversion import FLOW_QUADRATURE, H_QUADRATURE, I0_QUADRATURE


def series_j0(x: float) -> float:
    """Brute-force J0 oracle: exact rational partial sums of the power series.

    Terms are (-x^2/4)^k / (k!)^2 summed in exact arithmetic until they fall
    below 10^-25 relative to 1, so the only error is the final rounding.
    """
    q = Fraction(x) ** 2 / 4
    total = Fraction(1)
    term = Fraction(1)
    k = 0
    while True:
        k += 1
        term = -term * q / (k * k)
        total += term
        if abs(term) < Fraction(1, 10**25) and k > q:
            return float(total)


def series_i0(x: float) -> float:
    """Brute-force I0 oracle, exact rational arithmetic."""
    q = Fraction(x) ** 2 / 4
    total = Fraction(1)
    term = Fraction(1)
    k = 0
    while True:
        k += 1
        term = term * q / (k * k)
        total += term
        if term < total / 10**25 and k > q:
            return float(total)


# covers the plain-series, both anchored-Taylor, and asymptotic regimes
J0_TEST_POINTS = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 8.6, 8.9, 9.5,
                  10.0, 11.0, 11.2, 12.0, 12.9, 13.0, 13.5, 15.0, 20.0, 50.0]
I0_TEST_POINTS = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 14.9, 15.0, 15.1, 16.0, 25.0, 50.0, 100.0]


class TestPointValues:
    def test_j0_matches_series_oracle(self):
        for x in J0_TEST_POINTS:
            assert abs(sg.bessel_j0(x) - series_j0(x)) <= 1e-12, f"x={x}"

    def test_i0_matches_series_oracle(self):
        for x in I0_TEST_POINTS:
            oracle = series_i0(x)
            assert abs(sg.bessel_i0(x) - oracle) <= 1e-12 * oracle, f"x={x}"

    def test_values_at_zero(self):
        assert sg.bessel_j0(0.0) == 1.0
        assert sg.bessel_i0(0.0) == 1.0

    def test_i0_at_one_frozen(self):
        assert sg.bessel_i0(1.0) == pytest.approx(1.2660658777520084, abs=1e-14)

    def test_even_extension(self):
        assert sg.bessel_j0(-3.7) == sg.bessel_j0(3.7)
        assert sg.bessel_i0(-2.0) == sg.bessel_i0(2.0)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.3, 7.0, 10.5, 14.0, 30.0])
        assert sg.bessel_j0(xs) == pytest.approx([sg.bessel_j0(float(v)) for v in xs], abs=0)
        assert sg.bessel_i0(xs) == pytest.approx([sg.bessel_i0(float(v)) for v in xs], abs=0)

    def test_first_zero_from_oracle_bisection(self):
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if series_j0(lo) * series_j0(mid) <= 0:
                hi = mid
            else:
                lo = mid
        zero = 0.5 * (lo + hi)
        assert zero == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(sg.bessel_j0(zero)) <= 1e-10

    @pytest.mark.parametrize("bessel", [sg.bessel_j0, sg.bessel_i0])
    def test_nan_maps_to_nan(self, bessel):
        # a NaN entry falls in no regime, so its output must not be left uninitialised
        values = bessel(np.array([math.nan] * 64 + [1.0]))
        assert np.all(np.isnan(values[:-1])) and values[-1] == bessel(1.0)
        assert math.isnan(bessel(math.nan))

    def test_i0_overflow_guard(self):
        with pytest.raises(sg.OverflowRisk) as exc:
            sg.bessel_i0(710.0)
        assert exc.value.log10_value > 300


class TestBounds:
    def test_j0_bounded_by_one(self):
        xs = np.linspace(0.0, 80.0, 4001)
        assert np.max(np.abs(sg.bessel_j0(xs))) <= 1.0

    def test_i0_at_least_one_and_increasing(self):
        xs = np.linspace(0.0, 40.0, 2001)
        vals = sg.bessel_i0(xs)
        assert np.min(vals) >= 1.0
        assert np.all(np.diff(vals) >= 0.0)
        assert sg.bessel_i0(2.0) > sg.bessel_i0(1.0) > sg.bessel_i0(0.0)


class TestJ0Ode:
    def test_residual_on_interval(self):
        # x^2 J'' + x J' + x^2 J = 0 by central differences
        h = 1e-4
        x = np.linspace(0.5, 10.0, 96)
        jm, j0, jp = sg.bessel_j0(x - h), sg.bessel_j0(x), sg.bessel_j0(x + h)
        d1 = (jp - jm) / (2.0 * h)
        d2 = (jp - 2.0 * j0 + jm) / h**2
        residual = x**2 * d2 + x * d1 + x**2 * j0
        assert np.max(np.abs(residual)) <= 1e-6


class TestLaplaceIdentities:
    def test_j0_identity_frozen_values(self):
        lhs, rhs = sg.laplace_j0_identity(1.0, 1.0)
        assert rhs == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert abs(lhs - rhs) <= 1e-8
        lhs, rhs = sg.laplace_j0_identity(4.0, 2.0)
        assert rhs == pytest.approx(math.exp(-2.0) / 2.0, abs=1e-15)
        assert abs(lhs - rhs) <= 1e-8

    def test_j0_identity_small_t_limit(self):
        lhs, rhs = sg.laplace_j0_identity(1e-12, 2.0)
        assert rhs == pytest.approx(0.5, rel=1e-9)
        assert abs(lhs - rhs) <= 1e-8

    def test_i0_identity_frozen_values(self):
        lhs, rhs = sg.laplace_i0_identity(0.1, 1.0)
        assert rhs == pytest.approx(math.exp(0.2), abs=1e-12)
        assert abs(lhs - rhs) <= 1e-8
        lhs, rhs = sg.laplace_i0_identity(0.5, 2.0)
        assert rhs == pytest.approx(2.0 * math.exp(2.0), abs=1e-12)
        assert abs(lhs - rhs) <= 1e-8

    def test_i0_identity_small_t_limit(self):
        lhs, rhs = sg.laplace_i0_identity(1e-12, 3.0)
        assert rhs == pytest.approx(3.0, rel=1e-9)
        assert abs(lhs - rhs) <= 1e-8

    def test_identities_on_parameter_grid(self):
        for t in (0.01, 0.1, 0.5, 1.0):
            for b in (0.5, 1.0, 2.0, 4.0):
                lhs, rhs = sg.laplace_j0_identity(t, b)
                assert abs(lhs - rhs) <= 1e-8, f"J0 t={t} alpha={b}"
                if 2.0 * t * b <= 10.0:
                    lhs, rhs = sg.laplace_i0_identity(t, b)
                    assert abs(lhs - rhs) <= 1e-8, f"I0 t={t} beta={b}"

    def test_i0_identity_overflow_guard(self):
        with pytest.raises(sg.OverflowRisk):
            sg.laplace_i0_identity(100.0, 2.0)


class TestLaplaceMultipliers:
    """The twins' per-mode multipliers against their closed forms, mode by mode.

    Each case is a twin's own setting: the flow at alpha = 1, t = 1 and h at
    T = 1, t = 0.25, x = 0.7 (both on f = 1.3 x^2), the inverse's I0 integral
    at a = T and the conditioning integral at a = 2 T with alpha = 1.
    """

    @pytest.fixture(params=["ou24", "ou400"])
    def case(self, request, ou400):
        if request.param == "ou24":
            gen = sg.build_ou(4.0, 24, 1.0)
            return gen, sg.spectral_decompose(gen), 0.5
        return ou400[0], ou400[1], 0.005

    def test_j0_multipliers_of_flow_and_h(self, case):
        gen, dec, _ = case
        f = 1.3 * gen.space.points**2
        c2 = dec.coefficients(f) ** 2
        lam = dec.eigenvalues
        for x, rates, config, scale in (
            (1.0, lam + 1.0, FLOW_QUADRATURE, max(1.0, sg.norm(gen.space, f))),
            (0.7, lam + 1.5, H_QUADRATURE, max(1.0, float(c2.sum()))),
        ):
            mu = j0_multipliers(x, rates, config, scale).value
            closed = np.exp(-x / rates) / rates
            assert mu.shape == rates.shape
            assert np.max(np.abs(mu - closed) / closed) <= 1e-10

    def test_uncapped_i0_multipliers_of_inverse_and_conditioning(self, case):
        _, dec, T = case
        beta = dec.eigenvalues + 1.0
        for a in (T, 2.0 * T):
            mu = i0_multipliers(a, beta, I0_QUADRATURE).value
            closed = beta * np.exp(a * beta)
            assert np.max(np.abs(mu - closed) / closed) <= 1e-12

    def test_capped_i0_multipliers_stay_below_the_closed_form(self, ou400):
        # ou400 at T = 1: the closed forms reach e^4470, the cap keeps I0's argument at 700
        beta = ou400[1].eigenvalues + 1.0
        with np.errstate(over="ignore"):
            closed = beta * np.exp(2.0 * beta)
        mu = i0_multipliers(2.0, beta, I0_QUADRATURE, s_cap=350.0**2 / 2.0).value
        # the low modes end inside the window and agree to rounding; the high ones are cut short
        assert np.all(np.isfinite(mu)) and np.all(mu <= closed * (1.0 + 1e-12))


class TestBochnerQuadrature:
    def test_exponential_times_constant_field(self):
        cfg = sg.QuadratureConfig(tail_tol=1e-12)
        c = np.array([2.0, -1.0, 0.5])
        res = sg.bochner_quadrature(
            lambda s: np.exp(-s),
            lambda s, w: w.sum() * c,
            cfg,
            np.linspace(0.0, 30.0, 41),
            tail_rate=1.0,
            tail_amplitude=float(np.max(np.abs(c))),
        )
        expected = c * (1.0 - math.exp(-30.0))
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.tail_bound == pytest.approx(2.0 * math.exp(-30.0), rel=1e-12)
        assert abs(res.value[0] - 2.0) <= res.tail_bound + 1e-12

    def test_j0_weighted_integral_approaches_laplace_value(self):
        # weight J0(2 sqrt(s)) e^-s, constant field -> e^-1 as s_max grows
        c = np.array([1.0])
        values = []
        for s_max in (10.0, 20.0, 40.0):
            edges = geometric_refined_edges(s_max, 0.5, quarter_u=np.pi / 4.0, max_width=2.5)
            res = sg.bochner_quadrature(
                lambda s: sg.bessel_j0(2.0 * np.sqrt(s)) * np.exp(-s),
                lambda s, w: w.sum() * c,
                sg.QuadratureConfig(tail_tol=1e-12),
                breakpoints=edges,
            )
            values.append(res.value[0])
        assert values[-1] == pytest.approx(math.exp(-1.0), abs=1e-10)
        errors = [abs(v - math.exp(-1.0)) for v in values]
        assert errors[-1] <= errors[0]

    def test_doubling_points_is_within_tail_tol(self):
        # smooth integrand: self-convergence under points_per_panel doubling
        def weight(s):
            return np.exp(-0.8 * s) * np.cos(s)

        integrand = lambda s, w: w.sum()
        vals = {}
        for pts in (16, 32):
            cfg = sg.QuadratureConfig(points_per_panel=pts, tail_tol=1e-10)
            vals[pts] = float(sg.bochner_quadrature(weight, integrand, cfg, np.linspace(0.0, 40.0, 33)).value)
        assert abs(vals[32] - vals[16]) <= 1e-10
        oracle, err = quad(weight, 0.0, 40.0, limit=200)
        assert vals[32] == pytest.approx(oracle, abs=1e-9 + 10 * err)

    def test_not_converged_raises(self):
        # violently oscillatory integrand, coarse panels, too few halvings
        cfg = sg.QuadratureConfig(points_per_panel=2, tail_tol=1e-14)
        with pytest.raises(sg.QuadratureNotConverged):
            sg.bochner_quadrature(
                lambda s: np.cos(40.0 * s), lambda s, w: w.sum(), cfg, [0.0, 30.0, 60.0]
            )

    def test_config_validation(self):
        with pytest.raises(sg.ValidationError):
            sg.QuadratureConfig(tail_tol=1e-10, points_per_panel=65)
        with pytest.raises(sg.ValidationError):
            sg.QuadratureConfig(tail_tol=0.0)

    def test_edge_builders_cover_range(self):
        edges = geometric_refined_edges(50.0, 0.01, quarter_u=0.8, max_width=5.0)
        assert edges[0] == 0.0 and edges[-1] == 50.0
        assert np.all(np.diff(edges) > 0)
        assert np.max(np.diff(edges)) <= 5.0 + 1e-9
        # a bell of width scale: sqrt-spacing at most sqrt(scale) / 2, geometric edges from scale / 16
        edges = sqrt_uniform_edges(100.0, 0.64)
        assert edges[0] == 0.0 and edges[-1] == pytest.approx(100.0)
        assert np.all(np.diff(np.sqrt(edges)) <= 0.4 + 1e-12)
        assert 0.64 / 16.0 in edges
