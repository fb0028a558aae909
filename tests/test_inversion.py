"""Inversion: the damped resolvent flow, membership diagnostics, the two
inversion routes, Picard iteration, Cauchy solvers, and the kernel PDE."""

import math

import numpy as np
import pytest

import semigroupinv as sg
from conftest import rk4
from semigroupinv.inversion import flow_multipliers, flow_quadrature_multipliers

# frozen 2-state values at alpha = 1, t = 1, f = (1, 0):
# ((e^-1 + e^-0.5/2)/2, (e^-1 - e^-0.5/2)/2)
FLOW_2STATE = (0.33557238551387952, 0.03230705565756281)


class TestResolventFlow:
    def test_frozen_two_state_value(self, chain2):
        _, dec = chain2
        out = sg.resolvent_flow(dec, 1.0, 1.0, np.array([1.0, 0.0]))
        expected = [
            (math.exp(-1.0) + 0.5 * math.exp(-0.5)) / 2.0,
            (math.exp(-1.0) - 0.5 * math.exp(-0.5)) / 2.0,
        ]
        assert out == pytest.approx(expected, abs=1e-15)
        assert out == pytest.approx(FLOW_2STATE, abs=1e-12)

    def test_time_zero_is_resolvent(self, chain3):
        gen, dec = chain3
        f = np.array([0.4, -1.0, 0.6])
        for alpha in (0.5, 2.0):
            assert sg.resolvent_flow(dec, alpha, 0.0, f) == pytest.approx(
                sg.resolvent_apply(dec, alpha, f), abs=1e-14
            )

    def test_non_negative_quadratic_form(self, jump30):
        gen, dec = jump30
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = rng.standard_normal(gen.size)
            t = rng.uniform(0, 10)
            val = sg.inner(gen.space, sg.resolvent_flow(dec, 1.0, t, f), f)
            assert val >= -1e-12

    def test_decreasing_convex_vanishing(self, chain2):
        _, dec = chain2
        f = np.array([1.0, 0.0])
        ts = np.linspace(0.0, 50.0, 200)
        vals = np.array(
            [sg.inner(dec.space, sg.resolvent_flow(dec, 1.0, t, f), f) for t in ts]
        )
        assert np.all(np.diff(vals) <= 1e-10)
        assert np.all(np.diff(vals, 2) >= -1e-10)
        assert vals[-1] <= 1e-3 * vals[0]

    def test_rejects_bad_parameters(self, chain2):
        _, dec = chain2
        with pytest.raises(sg.NonPositiveAlpha):
            sg.resolvent_flow(dec, 0.0, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(sg.ValidationError):
            sg.resolvent_flow(dec, 1.0, -1.0, np.array([1.0, 0.0]))


class TestFlowQuadrature:
    def test_zero_function(self, chain2):
        _, dec = chain2
        out = sg.resolvent_flow_quadrature(dec, 1.0, 1.0, np.zeros(2))
        assert np.max(np.abs(out)) == 0.0

    def test_frozen_two_state_value(self, chain2):
        _, dec = chain2
        out = sg.resolvent_flow_quadrature(dec, 1.0, 1.0, np.array([1.0, 0.0]))
        assert out == pytest.approx(FLOW_2STATE, abs=1e-6)

    def test_time_zero_matches_resolvent(self, chain3):
        gen, dec = chain3
        f = np.array([1.0, 0.2, -0.5])
        out = sg.resolvent_flow_quadrature(dec, 1.5, 0.0, f)
        assert out == pytest.approx(sg.resolvent_apply(dec, 1.5, f), abs=1e-8)

    def test_matches_spectral_across_models(self, chain2, chain3, jump30, ou50):
        rng = np.random.default_rng(5)
        for gen, dec in (chain2, chain3, jump30, ou50):
            assert dec.lambda_max <= 50.0
            f = rng.standard_normal(gen.size)
            for t in (0.1, 1.0, 5.0):
                for alpha in (0.5, 2.0):
                    spectral = sg.resolvent_flow(dec, alpha, t, f)
                    quadrature = sg.resolvent_flow_quadrature(dec, alpha, t, f)
                    err = sg.norm(gen.space, spectral - quadrature)
                    assert err <= 1e-6 * max(sg.norm(gen.space, spectral), 1e-12)

    @pytest.mark.parametrize("alpha, t", [(1.0, 1.0), (2.0, 0.1)], ids=["alpha=1,t=1", "alpha=2,t=0.1"])
    def test_twin_applies_its_own_multipliers(self, ou50, alpha, t):
        # the check command reuses these multipliers, so they must be the twin's to the bit
        gen, dec = ou50
        f = np.random.default_rng(5).standard_normal(gen.size)
        mu = flow_quadrature_multipliers(dec, alpha, t, f)
        assert np.array_equal(sg.resolvent_flow_quadrature(dec, alpha, t, f), dec.apply(mu, f))
        closed = flow_multipliers(dec.eigenvalues, alpha, t)
        assert np.max(np.abs(mu - closed) / closed) <= 1e-12


class TestConditioningReport:
    def test_zero_mode_membership(self, chain2):
        _, dec = chain2
        phi0 = dec.eigenvectors[:, 0]
        problem = sg.InverseProblem(dec, 1.0, phi0)
        report = sg.conditioning_report(problem, 1.0)
        # single zero mode: sum = e^(2 T alpha) ||g||^2 = e^2
        assert report.membership_spectral_log10 == pytest.approx(2.0 / math.log(10.0), rel=1e-10)
        assert report.lambda_max == 0.0
        assert report.flag == "ok"

    def test_frozen_two_state_membership(self, chain2):
        _, dec = chain2
        problem = sg.InverseProblem(dec, 1.0, np.array([1.0, 0.0]))
        report = sg.conditioning_report(problem, 1.0)
        expected = (math.exp(2.0) + math.exp(4.0)) / 2.0
        assert expected == pytest.approx(30.993603066037444, abs=1e-12)
        assert 10.0 ** report.membership_spectral_log10 == pytest.approx(expected, rel=1e-9)
        assert report.membership_quadrature == pytest.approx(expected, rel=1e-6)
        assert report.amplification_log10 == pytest.approx(math.log10(math.e), rel=1e-12)

    def test_membership_lower_bound(self, jump30):
        # sum_k e^(2T(l+a)) c_k^2 >= e^(2Ta) ||g||^2
        gen, dec = jump30
        rng = np.random.default_rng(12)
        g = rng.standard_normal(gen.size)
        problem = sg.InverseProblem(dec, 0.7, g)
        report = sg.conditioning_report(problem, 1.3)
        bound = math.exp(2 * 0.7 * 1.3) * sg.norm(gen.space, g) ** 2
        assert report.membership_spectral_log10 >= math.log10(bound * (1 - 1e-12))

    def test_quadrature_increases_to_spectral(self, chain2):
        _, dec = chain2
        problem = sg.InverseProblem(dec, 1.0, np.array([1.0, 0.0]))
        spectral = (math.exp(2.0) + math.exp(4.0)) / 2.0
        values = []
        for s_max in (2.0, 5.0, 10.0, 40.0, 160.0):
            from semigroupinv.bessel import bochner_quadrature
            from semigroupinv.bessel import bessel_i0

            beta = dec.eigenvalues + 1.0
            quad_form = dec.coefficients(problem.observed) ** 2 / beta
            edges = np.linspace(0.0, math.sqrt(s_max), 33) ** 2  # panels at most 0.4 wide in sqrt(s)
            res = bochner_quadrature(
                lambda s: bessel_i0(2.0 * np.sqrt(2.0 * s)),
                lambda s, w: (np.exp(-np.outer(s, 1.0 / beta)) @ quad_form) @ w,
                breakpoints=edges,
            )
            values.append(float(res.value))
        assert np.all(np.diff(values) > 0)  # monotone in the truncation point
        assert values[-1] <= spectral * (1 + 1e-9)
        assert values[-1] == pytest.approx(spectral, rel=1e-6)

    def test_severe_flag_for_high_frequency_data(self, laplacian50_neumann):
        gen, dec = laplacian50_neumann
        g = dec.eigenvectors[:, -1]  # highest-frequency mode
        problem = sg.InverseProblem(dec, 1.0, g)
        report = sg.conditioning_report(problem, 1.0)
        assert report.flag == "severe"
        assert report.membership_spectral_log10 > 308  # beyond double range
        assert report.membership_spectral_log10 == pytest.approx(
            2.0 * (dec.lambda_max + 1.0) / math.log(10.0), rel=1e-6
        )
        assert report.amplification_log10 == pytest.approx(
            dec.lambda_max / math.log(10.0), rel=1e-9
        )

    @pytest.mark.parametrize(
        "threshold, below, at",
        [(sg.inversion.WARNING_AMPLIFICATION, "ok", "warning"),
         (sg.inversion.SEVERE_AMPLIFICATION, "warning", "severe")],
    )
    def test_flag_grades_lambda_max_t_at_the_log_of_each_threshold(self, chain2, threshold, below, at):
        # g = (1, 0) carries mode 1 (lambda = 1), so lambda_max * T = T
        _, dec = chain2
        edge = math.log(threshold)
        for horizon, flag in ((math.nextafter(edge, 0.0), below), (edge, at)):
            assert sg.conditioning_report(sg.InverseProblem(dec, horizon, np.array([1.0, 0.0])), 1.0).flag == flag

    @pytest.mark.parametrize(
        "matrix, alpha",
        [([[-1.0, 1.0], [1.0, -1.0]], 1.0), ([[0.0, 0.0], [0.0, 0.0]], 0.5)],
        ids=["2T-lambda-max-plus-alpha", "2T"],
    )
    def test_horizon_past_double_range_is_refused_naming_t(self, matrix, alpha):
        # 2T(lambda_max + alpha) = 6e308 once met ln c^2 = -inf as a NaN; 2T = 2e308 with
        # lambda_max + alpha = 0.5 reached the I0 quadrature as "a must be finite"
        dec = sg.spectral_decompose(sg.build_chain(matrix, [1.0, 1.0]))
        problem = sg.InverseProblem(dec, 1e308, np.ones(2))
        with pytest.raises(sg.ValidationError, match=r"horizon T = 1e\+308 takes 2T or 2T\(lambda_max \+ alpha\)"):
            sg.conditioning_report(problem, alpha)

    def test_quadrature_twin_holds_its_trend_past_horizon_1e164(self, chain2):
        # s_cap / a = 122500 / (4 T^2) underflows to 0 there; the window size once divided by it
        _, dec = chain2
        twin_times_t = [
            horizon * sg.conditioning_report(sg.InverseProblem(dec, horizon, np.array([1.0, 0.0])), 1.0).membership_quadrature
            for horizon in (1e160, 1e170, 1e300)
        ]
        assert twin_times_t == pytest.approx([twin_times_t[0]] * 3, rel=1e-11)

    @pytest.mark.parametrize("horizon", [0.1, 1.0])
    def test_sin_on_the_dirichlet_laplacian_is_its_one_mode(self, dirichlet_laplacian400, horizon):
        # sin x is the lowest mode of f''/2 on [0, pi], lambda = 1/2, and ||sin||_m^2 = pi under the
        # speed density 2; every other coefficient is rounding noise, which e^(2 lambda T) once
        # blew up to 10^2783 at T = 0.1
        dec = dirichlet_laplacian400
        alpha = 1e-12
        report = sg.conditioning_report(sg.InverseProblem(dec, horizon, np.sin(dec.space.points)), alpha)
        expected = math.pi * math.exp(horizon * (1.0 + 2.0 * alpha))
        assert 10.0 ** report.membership_spectral_log10 == pytest.approx(expected, rel=1e-5)
        assert report.membership_quadrature == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("horizon, rel", [(0.1, 1e-4), (0.2, 1e-3)])
    def test_gaussian_on_the_ou_matches_mehler(self, ou400, horizon, rel):
        # Mehler's formula for the rate-1 OU, m = e^(-x^2): sum_k e^(2kT) (phi_k, e^(-b x^2))^2
        # = sqrt(pi / ((1 + b)^2 - b^2 e^(4T))), finite while T < ln(1 + 1/b) / 2; at b = 1
        # and T = 0.1 it is 1.12, where the sum over every nonzero coefficient read 10^160.9
        gen, dec = ou400
        alpha = 1e-12
        report = sg.conditioning_report(sg.InverseProblem(dec, horizon, np.exp(-gen.space.points**2)), alpha)
        expected = math.exp(2.0 * horizon * alpha) * math.sqrt(math.pi / (4.0 - math.exp(4.0 * horizon)))
        assert 10.0 ** report.membership_spectral_log10 == pytest.approx(expected, rel=rel)
        assert report.membership_quadrature == pytest.approx(expected, rel=rel)

    def test_json_field_contract(self, chain2):
        _, dec = chain2
        problem = sg.InverseProblem(dec, 1.0, np.array([1.0, 0.0]))
        payload = sg.conditioning_report(problem, 1.0).to_json_dict()
        assert set(payload) == {
            "lambdaMax",
            "amplificationLog10",
            "membershipSpectralLog10",
            "membershipQuadrature",
            "flag",
        }


class TestObservedData:
    """g is refused where m_i g_i or ||g||_m leaves double range, which bounds every |(phi_k, g)|."""

    def test_weighted_entry_or_norm_past_double_range_is_refused(self, chain2):
        _, dec = chain2
        weighted = sg.build_chain([[-1.0, 1.0], [0.5, -0.5]], [1.0, 2.0])
        for d, g in ((dec, [1.5e308, 1.5e308]), (sg.spectral_decompose(weighted), [0.0, 1e308])):
            with pytest.raises(sg.ValidationError, match="observed data g leaves the double range"):
                sg.InverseProblem(d, 1.0, np.array(g))
        with pytest.raises(sg.ValidationError, match="observed data must be finite"):
            sg.InverseProblem(dec, 1.0, np.array([math.nan, 0.0]))

    def test_largest_admitted_data_give_finite_coefficients(self, chain2):
        _, dec = chain2
        for g in ([1.7976931348623157e308, 0.0], [1e308 / math.sqrt(2.0), -1e308 / math.sqrt(2.0)]):
            problem = sg.InverseProblem(dec, 1.0, np.array(g))
            assert np.all(np.isfinite(dec.coefficients(problem.observed)))


class TestInvertSpectral:
    def test_eigenmode_amplification(self, chain3):
        _, dec = chain3
        for k in range(3):
            phi_k = dec.eigenvectors[:, k]
            problem = sg.InverseProblem(dec, 0.8, phi_k)
            out = sg.invert_spectral(problem)
            assert out == pytest.approx(math.exp(0.8 * dec.eigenvalues[k]) * phi_k, rel=1e-12)

    def test_frozen_round_trip(self, chain2):
        _, dec = chain2
        g = np.array([0.6839397205857212, 0.3160602794142788])
        out = sg.invert_spectral(sg.InverseProblem(dec, 1.0, g))
        assert out == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_round_trip_property(self, chain2, chain3, jump30, ou50):
        # Round-tripping through the grid basis leaks ~eps * amplification
        # across modes, so the 1e-10 contract is meaningful up to
        # amplification ~1e6; beyond that only the scaled bound can hold.
        rng = np.random.default_rng(17)
        for gen, dec in (chain2, chain3, jump30, ou50):
            g = rng.standard_normal(gen.size)
            T = min(1.0, math.log(1e6) / max(dec.lambda_max, 1.0))
            problem = sg.InverseProblem(dec, T, g)
            back = sg.semigroup_apply(dec, T, sg.invert_spectral(problem))
            assert sg.norm(gen.space, back - g) <= 1e-10 * sg.norm(gen.space, g)

    def test_round_trip_scaled_bound_at_severe_amplification(self, ou50):
        gen, dec = ou50
        rng = np.random.default_rng(18)
        g = rng.standard_normal(gen.size)
        T = math.log(1e12) / dec.lambda_max
        back = sg.semigroup_apply(dec, T, sg.invert_spectral(sg.InverseProblem(dec, T, g)))
        eps = np.finfo(float).eps
        assert sg.norm(gen.space, back - g) <= 100 * eps * 1e12 * sg.norm(gen.space, g)

    def test_overflow_raises_with_log_scale(self, laplacian400):
        gen, dec = laplacian400
        rng = np.random.default_rng(3)
        g = rng.standard_normal(gen.size)
        with pytest.raises(sg.OverflowRisk) as exc:
            sg.invert_spectral(sg.InverseProblem(dec, 1.0, g))
        assert exc.value.log10_value == pytest.approx(dec.lambda_max / math.log(10.0), rel=1e-6)

    def test_ou_witness_inversion(self, ou400):
        # the data is sampled x^2, whose grid defect sits near 2e-9; the
        # coefficient floor 1e-8 separates that defect from the signal modes
        gen, dec = ou400
        gfun, ffun = sg.ou_witness_pair(1.0)
        x = gen.space.points
        problem = sg.InverseProblem(dec, 1.0, gfun(x))
        f = sg.invert_spectral(problem, coeff_tol=1e-8)
        expected = ffun(x)
        interior = np.abs(x) <= 3.0
        w = gen.space.weights
        err = math.sqrt(float((((f - expected) ** 2) * w)[interior].sum()))
        ref = math.sqrt(float(((expected**2) * w)[interior].sum()))
        assert err <= 1e-2 * ref
        assert np.min(f[np.abs(x) < 0.5]) <= -3.0  # inversion loses positivity


class TestInvertBessel:
    def test_zero_mode_fixed_point(self, chain2):
        _, dec = chain2
        phi0 = dec.eigenvectors[:, 0]
        out = sg.invert_bessel(sg.InverseProblem(dec, 1.0, phi0), 1.0)
        assert out == pytest.approx(phi0, rel=1e-8)

    def test_frozen_two_state(self, chain2):
        _, dec = chain2
        g = np.array([0.6839397205857212, 0.3160602794142788])
        out = sg.invert_bessel(sg.InverseProblem(dec, 1.0, g), 1.0)
        assert out == pytest.approx([1.0, 0.0], abs=1e-5)

    def test_alpha_independence(self, chain3):
        gen, dec = chain3
        rng = np.random.default_rng(23)
        g = rng.standard_normal(gen.size)
        problem = sg.InverseProblem(dec, 1.0, g)
        results = [sg.invert_bessel(problem, a) for a in (0.5, 2.0)]
        scale = sg.norm(gen.space, results[0])
        assert sg.norm(gen.space, results[0] - results[1]) <= 2e-5 * scale

    def test_conditioning_cap(self, ou50):
        gen, dec = ou50
        rng = np.random.default_rng(31)
        g = rng.standard_normal(gen.size)
        with pytest.raises(sg.ConditioningCapExceeded):
            sg.invert_bessel(sg.InverseProblem(dec, 1.0, g), 1.0)  # lam T ~ 33


class TestPicard:
    def test_base_iterate_is_resolvent(self, chain2):
        _, dec = chain2
        f = np.array([1.0, 0.0])
        result = sg.picard_resolvent_flow(dec, 1.0, f, 1.0, 0)
        expected = sg.resolvent_apply(dec, 1.0, f)
        assert np.max(np.abs(result.trajectories[0] - expected[None, :])) <= 1e-15

    def test_error_bounds_through_ten_iterations(self, chain2):
        gen, dec = chain2
        f = np.array([1.0, 0.0])
        alpha, t = 1.0, 1.0
        result = sg.picard_resolvent_flow(dec, alpha, f, t, 10)
        exact = np.stack([sg.resolvent_flow(dec, alpha, s, f) for s in result.times])
        nf = sg.norm(gen.space, f)
        w = gen.space.weights
        for n, traj in enumerate(result.trajectories):
            sup_err = float(np.sqrt(((traj - exact) ** 2) @ w).max())
            bound = t**n / (alpha**n * math.factorial(n)) * nf
            assert sup_err <= bound, f"iteration {n}: {sup_err} > {bound}"

    def test_iteration_eight_frozen_bound(self, chain2):
        gen, dec = chain2
        f = np.array([1.0, 0.0])
        result = sg.picard_resolvent_flow(dec, 1.0, f, 1.0, 8)
        exact = np.stack([sg.resolvent_flow(dec, 1.0, s, f) for s in result.times])
        w = gen.space.weights
        sup_err = float(np.sqrt(((result.trajectories[8] - exact) ** 2) @ w).max())
        assert 1.0 / math.factorial(8) == pytest.approx(2.48015873015873e-5, rel=1e-12)
        assert sup_err <= 2.5e-5 * sg.norm(gen.space, f)


class TestCauchyFlow:
    def test_initial_condition(self, chain3):
        _, dec = chain3
        f = np.array([1.0, -0.3, 0.2])
        traj = sg.solve_resolvent_cauchy(dec, 1.0, f, [0.0, 0.5])
        assert traj[0] == pytest.approx(sg.resolvent_apply(dec, 1.0, f), abs=1e-14)

    def test_matches_rk4_oracle(self, chain2):
        gen, dec = chain2
        f = np.array([1.0, 0.0])
        alpha = 1.0
        t_grid = np.linspace(0.0, 1.0, 1001)  # RK4 step 1e-3
        traj = sg.solve_resolvent_cauchy(dec, alpha, f, t_grid)
        u_alpha = np.linalg.inv(alpha * np.eye(2) - gen.matrix)
        oracle = rk4(lambda y: -(u_alpha @ y), u_alpha @ f, t_grid)
        assert np.max(np.abs(traj - oracle)) <= 1e-9

    def test_ode_residual(self, chain2):
        gen, dec = chain2
        f = np.array([1.0, 0.0])
        alpha = 1.0
        t_grid = np.linspace(0.0, 1.0, 2001)
        traj = sg.solve_resolvent_cauchy(dec, alpha, f, t_grid)
        h = t_grid[1] - t_grid[0]
        u_alpha = np.linalg.inv(alpha * np.eye(2) - gen.matrix)
        dj = (traj[2:] - traj[:-2]) / (2.0 * h)
        residual = dj + traj[1:-1] @ u_alpha.T
        assert np.max(np.abs(residual)) <= 1e-6


class TestLaplaceDiagnostic:
    def test_zero_frequency_gives_energy(self, chain2):
        gen, dec = chain2
        f = np.array([1.0, 0.0])
        lhs, rhs = sg.laplace_diagnostic(dec, 1.0, f, 0.0)
        assert rhs == pytest.approx(sg.inner(gen.space, f, f), abs=1e-14)
        assert abs(lhs - rhs) <= 1e-8

    def test_single_mode_algebra(self, chain3):
        _, dec = chain3
        alpha, s = 1.0, 0.7
        for k in range(3):
            phi_k = dec.eigenvectors[:, k]
            _, rhs = sg.laplace_diagnostic(dec, alpha, phi_k, s)
            expected = 1.0 / (s * (dec.eigenvalues[k] + alpha) + 1.0)
            assert rhs == pytest.approx(expected, rel=1e-12)

    def test_frozen_two_state_value(self, chain2):
        _, dec = chain2
        lhs, rhs = sg.laplace_diagnostic(dec, 1.0, np.array([1.0, 0.0]), 1.0)
        assert rhs == pytest.approx(5.0 / 12.0, abs=1e-14)
        assert abs(lhs - rhs) <= 1e-8

    def test_identity_on_frequency_grid(self, chain2, laplacian50_dirichlet):
        rng = np.random.default_rng(7)
        for gen, dec in (chain2, laplacian50_dirichlet):
            f = rng.standard_normal(gen.size)
            f = f / sg.norm(gen.space, f)
            for s in (0.0, 0.5, 1.0, 4.0):
                lhs, rhs = sg.laplace_diagnostic(dec, 1.0, f, s)
                assert abs(lhs - rhs) <= 1e-8, f"s={s}, n={gen.size}"


class TestBackwardCauchy:
    def test_eigenmode_growth(self, chain3):
        _, dec = chain3
        k = 1
        phi_k = dec.eigenvectors[:, k]
        traj = sg.solve_backward_cauchy(
            sg.InverseProblem(dec, 1.0, phi_k), t_grid=np.linspace(0, 1, 11)
        )
        lam = dec.eigenvalues[k]
        for i, t in enumerate(traj.times):
            assert traj.values[i] == pytest.approx(math.exp(lam * t) * phi_k, rel=1e-12)

    def test_endpoints(self, chain2):
        _, dec = chain2
        g = np.array([0.6839397205857212, 0.3160602794142788])
        problem = sg.InverseProblem(dec, 1.0, g)
        traj = sg.solve_backward_cauchy(problem)
        assert sg.norm(dec.space, traj.values[0] - g) <= 1e-10 * sg.norm(dec.space, g)
        assert traj.values[-1] == pytest.approx(sg.invert_spectral(problem), abs=1e-15)
        assert traj.values[-1] == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_pde_residual_two_state(self, chain2):
        gen, dec = chain2
        g = np.array([0.9, 0.1])
        traj = sg.solve_backward_cauchy(sg.InverseProblem(dec, 1.0, g))
        h = traj.times[1] - traj.times[0]
        du = (traj.values[2:] - traj.values[:-2]) / (2.0 * h)
        residual = du + traj.values[1:-1] @ gen.matrix.T
        norms = np.sqrt((traj.values[1:-1] ** 2) @ gen.space.weights)
        rel = np.sqrt((residual**2) @ gen.space.weights) / norms
        assert np.max(rel) <= 1e-4

    def test_overflow_propagates(self, laplacian400):
        gen, dec = laplacian400
        rng = np.random.default_rng(9)
        with pytest.raises(sg.OverflowRisk):
            sg.solve_backward_cauchy(sg.InverseProblem(dec, 1.0, rng.standard_normal(gen.size)))


class TestSquaredBesselTransform:
    def test_single_mode_closed_form(self, chain2):
        # h(t, x) = exp(-x/beta)/beta for an eigenmode, beta = 2(T-t)+lambda
        _, dec = chain2
        T = 1.0
        for k in range(2):
            phi_k = dec.eigenvectors[:, k]
            lam = dec.eigenvalues[k]
            for (t, x) in ((0.0, 0.5), (0.3, 0.7), (0.45, 1.5)):
                beta = 2.0 * (T - t) + lam
                closed = math.exp(-x / beta) / beta
                assert sg.squared_bessel_h(dec, phi_k, T, np.array(t), np.array(x)) == pytest.approx(
                    closed, rel=1e-12
                )
                quad_val = sg.squared_bessel_h_quadrature(dec, phi_k, T, t, x)
                assert abs(quad_val - closed) <= 1e-8

    def test_initial_condition_is_flow_form(self, chain2):
        # h(0, x) equals the flow's quadratic form at alpha = 2T, time x
        gen, dec = chain2
        f = np.array([1.0, -0.4])
        T = 1.0
        for x in (0.2, 1.0, 2.5):
            flow_val = sg.inner(
                gen.space, sg.resolvent_flow(dec, 2.0 * T, x, f), f
            )
            assert sg.squared_bessel_h_quadrature(dec, f, T, 0.0, x) == pytest.approx(
                flow_val, abs=1e-9
            )

    def test_pde_residual(self, chain2):
        _, dec = chain2
        f = np.array([1.0, 0.0])
        report = sg.squared_bessel_pde_check(
            dec, f, 1.0,
            np.linspace(0.3, 0.3 + 8e-3, 9),
            np.linspace(0.5, 0.5 + 8e-3, 9),
        )
        assert report.max_residual <= 1e-4

    def test_requires_positive_rate(self, chain2):
        _, dec = chain2
        with pytest.raises(sg.ValidationError):
            sg.squared_bessel_h_quadrature(dec, np.array([1.0, 0.0]), 1.0, 1.0, 0.5)
