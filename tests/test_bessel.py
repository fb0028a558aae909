"""Special functions: oracle comparisons, ODE residual, Laplace identities,
and the Bochner quadrature engine."""

import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import semigroupinv as sg
from conftest import single_thread_probe
from semigroupinv import bessel
from semigroupinv.bessel import _i0, i0_multipliers, j0_decay_edges, j0_multipliers


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


class TestI0MpmathOracle:
    """``bessel_i0`` and the scaled ``_i0`` against 30-digit mpmath, 400 points a regime.

    Each range is one call, so the series range and the asymptotic range
    each run as a single regime; [20, 60] and the seam mix the two.  The
    worst measured error is 1.2e-15, against a contract of 1e-12.
    """

    RANGES = {
        "series": np.linspace(0.0, 20.0, 401)[1:],
        "asymptotic-near": np.linspace(20.0, 60.0, 400),
        "asymptotic-far": np.linspace(60.0, 700.0, 400),
        "seam": np.array([np.nextafter(20.0, 0.0), 20.0, np.nextafter(20.0, 21.0)]),
    }

    @pytest.mark.parametrize("regime", sorted(RANGES))
    def test_within_1e_12_relative(self, regime):
        mp = pytest.importorskip("mpmath")
        x = self.RANGES[regime]
        with mp.workdps(30):
            exact = [mp.besseli(0, mp.mpf(v)) for v in x]
            scaled_exact = [e * mp.exp(-mp.mpf(v)) for e, v in zip(exact, x)]
            for got, want in ((sg.bessel_i0(x), exact), (_i0(x), scaled_exact)):
                worst = max(float(abs(mp.mpf(g) - w) / w) for g, w in zip(got, want))
                assert worst <= 1e-12, regime

    @pytest.mark.parametrize("values", [[5.0, 10.0], [30.0, 400.0]], ids=["series", "asymptotic"])
    def test_nan_among_one_regime_maps_to_nan(self, values):
        got = _i0(np.array(values + [math.nan]))
        assert np.array_equal(got[:-1], _i0(np.array(values))) and math.isnan(got[-1])


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

    Each case is a twin's own call: the flow at alpha = 1, t = 1 and h at
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
        for x, rates, scale in (
            (1.0, lam + 1.0, max(1.0, sg.norm(gen.space, f))),
            (0.7, lam + 1.5, max(1.0, float(c2.sum()))),
        ):
            mu = j0_multipliers(x, rates, scale).value
            closed = np.exp(-x / rates) / rates
            assert mu.shape == rates.shape
            assert np.max(np.abs(mu - closed) / closed) <= 1e-12

    def test_uncapped_i0_multipliers_of_inverse_and_conditioning(self, case):
        _, dec, T = case
        beta = dec.eigenvalues + 1.0
        for a in (T, 2.0 * T):
            mu = i0_multipliers(a, beta).value
            closed = beta * np.exp(a * beta)
            assert np.max(np.abs(mu - closed) / closed) <= 1e-12

    @pytest.mark.parametrize("case", ["ou400", "laplacian400"])
    def test_benchmark_i0_multipliers_converge_at_the_first_halving(self, case, ou400, dirichlet_laplacian400):
        # the conditioning integrals of ou400 at T = 1 and laplacian400 at T = 0.02, cut at s_cap
        dec, a = (ou400[1], 2.0) if case == "ou400" else (dirichlet_laplacian400, 0.04)
        result = i0_multipliers(a, dec.eigenvalues + 1.0, s_cap=350.0**2 / a)
        assert result.refinements == 1
        assert result.n_nodes == 4 * bessel._GAUSS_POINTS

    def test_empty_or_non_finite_window_is_refused(self):
        for a, betas, s_cap in ((math.inf, [1.0], math.inf), (1e300, [1e300], math.inf), (2.0, [1.0], 0.0)):
            with pytest.raises(sg.ValidationError):
                i0_multipliers(a, betas, s_cap)

    def test_j0_multipliers_refuse_an_empty_mode_array(self):
        with pytest.raises(sg.ValidationError, match="^need at least one mode: the rate array is empty$"):
            j0_multipliers(1.0, np.zeros(0))

    def test_i0_multipliers_refuse_an_empty_mode_array(self):
        with pytest.raises(sg.ValidationError, match="^need at least one mode: the beta array is empty$"):
            i0_multipliers(1.0, np.zeros(0))

    def test_capped_i0_multipliers_stay_below_the_closed_form(self, ou400):
        # ou400 at T = 1: the closed forms reach e^4470, the cap keeps I0's argument at 700
        beta = ou400[1].eigenvalues + 1.0
        with np.errstate(over="ignore"):
            closed = beta * np.exp(2.0 * beta)
        mu = i0_multipliers(2.0, beta, s_cap=350.0**2 / 2.0).value
        # the low modes end inside the window and agree to rounding; the high ones are cut short
        assert np.all(np.isfinite(mu)) and np.all(mu <= closed * (1.0 + 1e-12))

    def test_uncapped_exponent_carries_its_rounding_error(self, dirichlet_laplacian400):
        """laplacian400 at a = 0.04: the modes whose bell ends inside the cap, against the 30-digit closed form.

        They reach e^251, and fl(a beta) alone left them 1.4e-14 off; the
        exact product's error brings the worst to 1.3e-15.
        """
        mp = pytest.importorskip("mpmath")
        a, s_cap = 0.04, 350.0**2 / 0.04
        beta = dirichlet_laplacian400.eigenvalues + 1.0
        mu = i0_multipliers(a, beta, s_cap).value
        spread = np.sqrt((math.log(1e12) + 8.0) * beta)
        inside = np.flatnonzero(math.sqrt(a) * beta + spread < math.sqrt(s_cap))
        assert inside.size > 100
        with mp.workdps(30):
            worst = max(float(abs(mp.mpf(mu[k]) / (mp.mpf(beta[k]) * mp.exp(mp.mpf(a) * mp.mpf(beta[k]))) - 1))
                        for k in inside)
        assert worst <= 4e-15

    @pytest.mark.parametrize("a, beta", [(1e-298, 1e300), (1e-303, 1e305)], ids=["product", "split"])
    def test_uncapped_multiplier_past_double_range_is_inf(self, a, beta):
        # beta e^(a beta) is e^791 and e^802; at 1e305 Veltkamp's split of beta overflows, which must not give NaN
        assert i0_multipliers(a, [beta]).value[0] == math.inf


# Runs one CLI command in a fresh interpreter and reports which of two optional numpy modules it loaded.
_IMPORT_PROBE = r"""
import json, sys
from semigroupinv import cli
try:
    cli.main(sys.argv[3:] + ["--model", sys.argv[1], "--output", sys.argv[2]])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "loaded": [m for m in ("numpy.ma", "numpy.polynomial") if m in sys.modules]}))
"""


class TestBochnerQuadrature:
    def test_exponential_times_constant_field(self):
        c = np.array([2.0, -1.0, 0.5])
        res = sg.bochner_quadrature(lambda s: np.exp(-s), lambda s, w: w.sum() * c, np.linspace(0.0, 30.0, 41))
        expected = c * (1.0 - math.exp(-30.0))
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.tail_bound is None  # the engine does not know the integrand's tail

    def test_j0_multipliers_bound_their_cut_tail(self):
        # at x = 0 the multipliers are 1/r; the cut tail of 2 e^(-s) is 2 e^(-s_max) = tail_tol
        res = j0_multipliers(0.0, [1.0, 4.0], scale=2.0)
        s_max = j0_decay_edges(1.0, 2.0, 1e-12, 0.0, 0.25)[-1]
        assert res.tail_bound == pytest.approx(2.0 * math.exp(-s_max), rel=1e-15)
        assert res.tail_bound == pytest.approx(1e-12, rel=1e-12)
        assert np.all(np.abs(res.value - [1.0, 0.25]) <= res.tail_bound + 1e-12)

    def test_j0_weighted_integral_approaches_laplace_value(self):
        # weight J0(2 sqrt(s)) e^-s, constant field -> e^-1 as s_max = ln(1/tail_tol) grows
        c = np.array([1.0])
        values = []
        for s_max in (10.0, 20.0, 40.0):
            edges = j0_decay_edges(1.0, 1.0, math.exp(-s_max), 1.0, 0.5)
            assert edges[-1] == pytest.approx(s_max, rel=1e-12)
            res = sg.bochner_quadrature(
                lambda s: sg.bessel_j0(2.0 * np.sqrt(s)) * np.exp(-s),
                lambda s, w: w.sum() * c,
                breakpoints=edges,
            )
            values.append(res.value[0])
        assert values[-1] == pytest.approx(math.exp(-1.0), abs=1e-10)
        errors = [abs(v - math.exp(-1.0)) for v in values]
        assert errors[-1] <= errors[0]

    def test_doubling_points_is_within_tail_tol(self):
        # smooth integrand: every panel takes the same Gauss rule, so halving the panels doubles the nodes
        def weight(s):
            return np.exp(-0.8 * s) * np.cos(s)

        integrand = lambda s, w: w.sum()
        vals = {}
        for panels in (32, 64):
            vals[panels] = float(sg.bochner_quadrature(weight, integrand, np.linspace(0.0, 40.0, panels + 1)).value)
        assert abs(vals[64] - vals[32]) <= bessel._TAIL_TOL
        oracle, err = quad(weight, 0.0, 40.0, limit=200)
        assert vals[64] == pytest.approx(oracle, abs=1e-9 + 10 * err)

    def test_not_converged_raises(self):
        # 3800 periods of cos(400 s): after three halvings each of the 16 panels holds 240 for 32 nodes
        with pytest.raises(sg.QuadratureNotConverged):
            sg.bochner_quadrature(lambda s: np.cos(400.0 * s), lambda s, w: w.sum(), [0.0, 30.0, 60.0])

    @pytest.mark.parametrize("func, params", [
        (sg.bochner_quadrature, ["weight", "integrand", "breakpoints"]),
        (j0_multipliers, ["x", "rates", "scale"]),
        (i0_multipliers, ["a", "betas", "s_cap"]),
    ], ids=["bochner_quadrature", "j0_multipliers", "i0_multipliers"])
    def test_no_caller_sets_the_quadrature(self, func, params):
        # the node count and tail tolerance are module constants; the perfbench tracer also
        # reads bochner_quadrature's weight and integrand as its first two positional arguments
        assert list(inspect.signature(func).parameters) == params

    def test_no_quadrature_setting_is_exported(self):
        from semigroupinv import inversion

        assert not hasattr(sg, "QuadratureConfig") and not hasattr(bessel, "QuadratureConfig")
        assert not any(name.endswith("_QUADRATURE") for name in dir(bessel) + dir(inversion))

    def test_edge_builders_cover_range(self):
        # rate 0.5 ends the range at s_max = 50 and caps panels at 5; J0 quarter periods of 0.8 in sqrt(s)
        t = (np.pi / 3.2) ** 2
        edges = j0_decay_edges(0.5, 1.0, 2.0 * math.exp(-25.0), t, 0.01)
        assert edges[0] == 0.0 and edges[-1] == pytest.approx(50.0, rel=1e-12)
        assert np.all(np.diff(edges) > 0)
        assert np.max(np.diff(edges)) <= 5.0 + 1e-9
        assert 0.01 / 4.0 in edges  # the geometric edges start at refine_scale / 4
        quarters = (0.8 * np.arange(1, 9)) ** 2
        assert np.allclose(quarters, edges[np.searchsorted(edges, quarters - 1e-9)], rtol=1e-12, atol=0.0)

    def test_diagnose_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call, about 5 ms of every fresh diagnose, invert or check
        model = tmp_path / "ou.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou", "parameters": {"n": 400}}), encoding="utf-8")
        got = single_thread_probe(_IMPORT_PROBE, str(model), str(tmp_path / "out"), "diagnose", "--T", "1", "--g", "x^2")
        assert got["code"] == 0 and "numpy.ma" not in got["loaded"]

    @pytest.mark.parametrize("argv, loaded", [(["decompose"], False), (["diagnose", "--T", "1", "--g", "x^2"], True)],
                             ids=["decompose", "diagnose"])
    def test_gauss_nodes_load_numpy_polynomial_only_for_a_quadrature(self, tmp_path, argv, loaded):
        # numpy.polynomial costs a fresh process 4 to 7 ms; diagnose, which runs a quadrature,
        # shows that the probe sees the import
        model = tmp_path / "ou.json"
        model.write_text(json.dumps({"schemaVersion": 1, "type": "ou", "parameters": {"n": 400}}), encoding="utf-8")
        got = single_thread_probe(_IMPORT_PROBE, str(model), str(tmp_path / "out"), *argv)
        assert got["code"] == 0 and ("numpy.polynomial" in got["loaded"]) == loaded

    @pytest.mark.parametrize("rate, t", [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, -1.0), (1.0, math.nan)],
                             ids=["rate=0", "rate=-1", "rate=nan", "t=-1", "t=nan"])
    def test_j0_decay_edges_refuse_a_rate_or_time_out_of_range(self, rate, t):
        # rate 0 was a ZeroDivisionError and rate -1 a bare math-domain ValueError
        with pytest.raises(sg.ValidationError, match="rate must be finite and > 0" if t == 1.0 else "t must be"):
            j0_decay_edges(rate, 1.0, 1e-11, t, 0.5)


class TestCappedI0Oracle:
    """Capped I0 multipliers against 40-digit mpmath, where no closed form exists.

    The benchmark's two conditioning integrals, mu_k = int_0^s_cap
    I0(2 sqrt(a s)) exp(-s/beta_k) ds with s_cap = 350^2 / a: ou400 at T = 1
    (a = 2) and the Dirichlet laplacian400 at T = 0.02 (a = 0.04).  In each,
    one mode's bell ends inside the cap, one's is clipped by the cap, and
    one's peak sqrt(a) beta lies beyond it.
    """

    @staticmethod
    def _oracle(mp, a, beta, s_cap):
        a, beta, u_cap = mp.mpf(a), mp.mpf(beta), mp.sqrt(mp.mpf(s_cap))
        peak = mp.sqrt(a) * beta
        top = min(peak, u_cap)
        # the length over which the integrand falls by e from its highest point
        scale = min(mp.sqrt(beta), beta / (2 * (peak - top))) if peak > top else mp.sqrt(beta)
        inner = [top + k * scale for k in (-12, -4, 0, 4, 12)]
        points = [mp.mpf(0)] + [u for u in inner if 0 < u < u_cap] + [u_cap]
        return mp.quad(lambda u: 2 * u * mp.besseli(0, 2 * mp.sqrt(a) * u) * mp.exp(-u * u / beta),
                       points, method="gauss-legendre")

    @pytest.mark.parametrize("case", ["ou400", "laplacian400"])
    def test_capped_modes_agree_with_mpmath_to_1e_12(self, case, ou400, dirichlet_laplacian400):
        mp = pytest.importorskip("mpmath")
        dec, a = (ou400[1], 2.0) if case == "ou400" else (dirichlet_laplacian400, 0.04)
        s_cap = 350.0**2 / a
        beta = dec.eigenvalues + 1.0
        mu = i0_multipliers(a, beta, s_cap).value
        peak, bell_end = math.sqrt(a) * beta, math.sqrt(a) * beta + np.sqrt(math.log(1e12) * beta)
        u_cap = math.sqrt(s_cap)
        inside = np.flatnonzero(bell_end < u_cap)[-1]
        clipped = np.flatnonzero((peak < u_cap) & (bell_end >= u_cap))[0]
        beyond = np.flatnonzero(peak >= u_cap)[0]
        assert inside < clipped < beyond < beta.size - 1
        with mp.workdps(40):
            for k in (inside, clipped, beyond):
                exact = self._oracle(mp, a, beta[k], s_cap)
                assert float(abs(mp.mpf(mu[k]) - exact) / exact) <= 1e-12, k
