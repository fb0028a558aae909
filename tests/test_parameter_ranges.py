"""Scalar parameter ranges: ``errors.check_range`` and ``check_count``, every
public entry point against non-finite and out-of-range scalars, integer
counts, the shared limits ``check_exponent`` and ``check_budget``, overflow
and step caps, caller time grids, the Picard budget, and
the required parameters of the ``make_phi`` families.
"""

import math

import numpy as np
import pytest

import semigroupinv as sg
from semigroupinv import bessel
from semigroupinv.errors import MAX_TRAJECTORY_CELLS, check_budget, check_count, check_exponent, check_range
from semigroupinv.inversion import PDE_RESIDUAL_TARGET

NAN, INF = math.nan, math.inf
POSITIVE = (NAN, INF, -INF, -1.0, 0.0)  # out of range for a parameter > 0
NON_NEGATIVE = (NAN, INF, -INF, -1.0)  # ... for a parameter >= 0
UNIT = (NAN, INF, -INF, -1.0, 0.0, 1.0)  # ... for a probability in (0, 1)
NON_FINITE = (NAN, INF, -INF)
F = [1.0, -0.4]


class TestCheckRange:
    def test_returns_a_float_inside_the_range(self):
        assert check_range("x", 2) == 2.0 and type(check_range("x", 2)) is float
        assert check_range("x", np.float64(0.5), high=1.0) == 0.5
        assert check_range("x", 0.0, closed=True) == 0.0
        assert check_range("x", 5e-324) == 5e-324

    @pytest.mark.parametrize(
        "value, kwargs, message",
        [
            (NAN, {}, "x must be finite and > 0, got nan"),
            (INF, {}, "x must be finite and > 0, got inf"),
            (0.0, {}, "x must be finite and > 0, got 0.0"),
            (-INF, {"closed": True}, "x must be finite and >= 0, got -inf"),
            (-1, {"closed": True}, "x must be finite and >= 0, got -1"),
            (1.0, {"high": 1.0}, "x must lie in (0, 1), got 1.0"),
            (NAN, {"high": 1.0}, "x must lie in (0, 1), got nan"),
            (2, {"low": 3.0, "closed": True}, "x must be finite and >= 3, got 2"),
        ],
    )
    def test_refuses_with_one_message_format(self, value, kwargs, message):
        with pytest.raises(sg.ValidationError) as exc:
            check_range("x", value, **kwargs)
        assert str(exc.value) == message

    def test_raises_the_given_class(self):
        with pytest.raises(sg.NonPositiveAlpha):
            check_range("alpha", NAN, error=sg.NonPositiveAlpha)


class TestSharedLimits:
    def test_check_exponent_passes_the_limit_and_refuses_past_it_or_nan(self):
        check_exponent(700.0, "fits")
        for exponent in (math.nextafter(700.0, INF), NAN):
            with pytest.raises(sg.OverflowRisk, match="^past"):
                check_exponent(exponent, "past")

    def test_check_budget_passes_the_budget_and_refuses_one_more(self):
        check_budget("cells", 10, 10)
        with pytest.raises(sg.ValidationError) as exc:
            check_budget("cells", 11, 10)
        assert str(exc.value) == "11 cells exceed the budget of 10"
        with pytest.raises(sg.ValidationError, match="^inf panels exceed the budget of 10$"):
            check_budget("panels", INF, 10)


def _problem(dec, horizon=1.0):
    return sg.InverseProblem(dec, horizon, F)


def _mixture(dec, gamma=0.5, t_star=1.0):
    return sg.MixtureModel(dec, gamma, t_star)


def _space():
    return sg.build_space([0.0, 1.0, 2.0], [0.3, 0.3, 0.3])


# Each public entry point with a scalar parameter: a call on chain2's
# decomposition whose keyword arguments default to a valid value, and the
# values each parameter must refuse.  Not listed: bessel_j0/bessel_i0, which
# map arrays elementwise and pass NaN through like any ufunc, and
# bochner_quadrature, which takes no scalar.
ENTRY_POINTS = [
    ("semigroup_apply", lambda dec, t=0.5: sg.semigroup_apply(dec, t, F), {"t": NON_NEGATIVE}),
    ("resolvent_apply", lambda dec, alpha=1.0: sg.resolvent_apply(dec, alpha, F), {"alpha": POSITIVE}),
    ("InverseProblem", _problem, {"horizon": POSITIVE}),
    ("invert_spectral", lambda dec, coeff_tol=1e-12: sg.invert_spectral(_problem(dec), coeff_tol),
     {"coeff_tol": NON_NEGATIVE}),
    ("invert_bessel", lambda dec, alpha=1.0, coeff_tol=1e-12: sg.invert_bessel(_problem(dec), alpha, coeff_tol),
     {"alpha": POSITIVE, "coeff_tol": NON_NEGATIVE}),
    ("conditioning_report", lambda dec, alpha=1.0: sg.conditioning_report(_problem(dec), alpha),
     {"alpha": POSITIVE}),
    ("resolvent_flow", lambda dec, alpha=1.0, t=0.5: sg.resolvent_flow(dec, alpha, t, F),
     {"alpha": POSITIVE, "t": NON_NEGATIVE}),
    ("resolvent_flow_quadrature", lambda dec, alpha=1.0, t=0.5: sg.resolvent_flow_quadrature(dec, alpha, t, F),
     {"alpha": POSITIVE, "t": NON_NEGATIVE}),
    ("picard_resolvent_flow",
     lambda dec, alpha=1.0, t=0.01, n_iter=2: sg.picard_resolvent_flow(dec, alpha, F, t, n_iter),
     {"alpha": POSITIVE, "t": POSITIVE, "n_iter": NON_NEGATIVE}),
    ("solve_resolvent_cauchy", lambda dec, alpha=1.0: sg.solve_resolvent_cauchy(dec, alpha, F, [0.0, 1.0]),
     {"alpha": POSITIVE}),
    ("laplace_diagnostic", lambda dec, alpha=1.0, s=0.5: sg.laplace_diagnostic(dec, alpha, F, s),
     {"alpha": POSITIVE, "s": NON_NEGATIVE}),
    ("backward_time_grid", lambda dec, horizon=1.0, lam_max=1.0: sg.backward_time_grid(horizon, lam_max),
     {"horizon": POSITIVE, "lam_max": NON_NEGATIVE}),
    ("solve_backward_cauchy", lambda dec, coeff_tol=1e-12: sg.solve_backward_cauchy(_problem(dec), coeff_tol=coeff_tol),
     {"coeff_tol": NON_NEGATIVE}),
    ("squared_bessel_h", lambda dec, horizon=1.0, t=0.3, x=0.7: sg.squared_bessel_h(dec, F, horizon, t, x),
     {"horizon": POSITIVE, "t": NON_FINITE, "x": NON_FINITE}),
    ("squared_bessel_h_quadrature",
     lambda dec, horizon=1.0, t=0.3, x=0.7: sg.squared_bessel_h_quadrature(dec, F, horizon, t, x),
     {"horizon": POSITIVE, "t": NON_NEGATIVE, "x": NON_NEGATIVE}),
    ("squared_bessel_pde_check",
     lambda dec, horizon=1.0: sg.squared_bessel_pde_check(dec, F, horizon, [0.3, 0.31, 0.32], [0.5, 0.51, 0.52]),
     {"horizon": POSITIVE}),
    ("laplace_j0_identity", lambda dec, t=1.0, alpha=1.0: sg.laplace_j0_identity(t, alpha),
     {"t": POSITIVE, "alpha": POSITIVE}),
    ("laplace_i0_identity", lambda dec, t=0.1, beta=1.0: sg.laplace_i0_identity(t, beta),
     {"t": POSITIVE, "beta": POSITIVE}),
    ("i0_multipliers",
     lambda dec, a=1.0, s_cap=INF: bessel.i0_multipliers(a, [1.0, 2.0], s_cap),
     {"a": POSITIVE, "s_cap": (NAN, -INF, -1.0, 0.0)}),
    ("j0_decay_edges",
     lambda dec, rate=1.0, tail_tol=1e-11, t=1.0: bessel.j0_decay_edges(rate, 1.0, tail_tol, t, 0.1),
     {"rate": POSITIVE, "tail_tol": POSITIVE, "t": NON_NEGATIVE}),
    ("build_ou", lambda dec, half_width=3.0, n=8, rate=1.0: sg.build_ou(half_width, n, rate),
     {"half_width": POSITIVE, "n": POSITIVE, "rate": POSITIVE}),
    ("DiffusionSpec", lambda dec, n=8: sg.build_diffusion(sg.DiffusionSpec(0.0, 1.0, n)), {"n": POSITIVE}),
    ("ou_witness_pair", lambda dec, rate=1.0: sg.ou_witness_pair(rate), {"rate": POSITIVE}),
    ("gaussian_jump_kernel", lambda dec, t_star=1.0: sg.gaussian_jump_kernel(_space(), t_star),
     {"t_star": POSITIVE}),
    ("make_phi-tikhonov_exp", lambda dec, horizon=1.0: sg.make_phi("tikhonov_exp", horizon=horizon),
     {"horizon": POSITIVE}),
    ("make_phi-constant", lambda dec, value=1.0: sg.make_phi("constant", value=value), {"value": POSITIVE}),
    ("make_phi-jump_mixture", lambda dec, t_star=1.0, tau=1.0: sg.make_phi("jump_mixture", t_star=t_star, tau=tau),
     {"t_star": POSITIVE, "tau": POSITIVE}),
    ("make_phi-resolvent_jump", lambda dec, alpha=1.0, tau=1.0: sg.make_phi("resolvent_jump", alpha=alpha, tau=tau),
     {"alpha": POSITIVE, "tau": POSITIVE}),
    ("RegularisationConfig",
     lambda dec, gamma=0.5, horizon=1.0: sg.RegularisationConfig(gamma, sg.make_phi("constant", value=1.0), horizon),
     {"gamma": UNIT, "horizon": POSITIVE}),
    ("tikhonov_solve", lambda dec, gamma=0.1, horizon=1.0: sg.tikhonov_solve(dec, gamma, horizon, F),
     {"gamma": POSITIVE, "horizon": POSITIVE}),
    ("gamma_convergence_study",
     lambda dec, horizon=1.0, gamma=0.1: sg.gamma_convergence_study(
         dec, sg.make_phi("constant", value=1.0), horizon, F, [gamma]),
     {"horizon": POSITIVE, "gamma": UNIT}),
    ("MixtureModel", _mixture, {"gamma": UNIT, "t_star": POSITIVE}),
    ("mixture_multipliers", lambda dec, t=1.0: sg.mixture_multipliers(_mixture(dec), t), {"t": NON_NEGATIVE}),
    ("mixture_semigroup", lambda dec, t=1.0: sg.mixture_semigroup(_mixture(dec), t)(F), {"t": NON_NEGATIVE}),
    ("mixture_invert", lambda dec, t=1.0: sg.mixture_invert(_mixture(dec), t, F), {"t": NON_NEGATIVE}),
    ("regularised_pide_solve", lambda dec, horizon=1.0: sg.regularised_pide_solve(_mixture(dec), F, horizon),
     {"horizon": POSITIVE}),
]


def _out_of_range_calls():
    for entry, call, refused in ENTRY_POINTS:
        for param, values in refused.items():
            for value in values:
                yield pytest.param(call, param, value, id=f"{entry}-{param}={value}")


class TestEntryPointRanges:
    """Every scalar parameter refuses NaN, +-inf and out-of-range values with a library error."""

    @pytest.mark.parametrize("entry, call, refused", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
    def test_valid_call_succeeds(self, chain2, entry, call, refused):
        call(chain2[1])

    @pytest.mark.parametrize("call, param, value", _out_of_range_calls())
    def test_out_of_range_value_raises_a_library_error(self, chain2, call, param, value):
        with pytest.raises(sg.SemigroupInvError):
            call(chain2[1], **{param: value})


class TestSilentHoles:
    """Calls that once returned non-finite output, or failed with the wrong class or a traceback."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda dec: sg.tikhonov_solve(dec, NAN, 1.0, F),
            lambda dec: sg.tikhonov_solve(dec, 0.1, INF, F),
            lambda dec: sg.resolvent_flow(dec, 1.0, NAN, F),
            lambda dec: sg.squared_bessel_h(dec, F, NAN, 0.3, 0.7),
            lambda dec: sg.make_phi("jump_mixture", t_star=NAN, tau=1.0),
            lambda dec: sg.make_phi("tikhonov_exp", horizon=NAN),
            lambda dec: sg.ou_witness_pair(NAN),
            lambda dec: sg.resolvent_flow_quadrature(dec, 1.0, NAN, F),
            lambda dec: sg.laplace_j0_identity(NAN, 1.0),
            lambda dec: sg.picard_resolvent_flow(dec, 1.0, F, NAN, 2),
        ],
        ids=["tikhonov-gamma-nan", "tikhonov-horizon-inf", "flow-t-nan", "h-horizon-nan",
             "jump_mixture-t_star-nan", "tikhonov_exp-horizon-nan", "ou-witness-nan",
             "flow-quadrature-t-nan", "laplace-j0-nan", "picard-t-nan"],
    )
    def test_raises_validation_error(self, chain2, call):
        with pytest.raises(sg.ValidationError):
            call(chain2[1])

    def test_nan_ou_half_width_is_an_invalid_boundary(self):
        with pytest.raises(sg.InvalidBoundary, match="half_width"):
            sg.build_ou(NAN, 8, 1.0)

    def test_nan_jump_horizon_is_an_invalid_boundary(self):
        with pytest.raises(sg.InvalidBoundary, match="t_star"):
            sg.gaussian_jump_kernel(_space(), NAN)


class TestIntegerCounts:
    """Grid sizes and iteration counts refuse floats before any array is built."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda dec: sg.build_ou(6.0, 3.5, 1.0), sg.LengthMismatch, "n must be an integer, got 3.5"),
            (lambda dec: sg.DiffusionSpec(0.0, 1.0, 3.5), sg.LengthMismatch, "n must be an integer, got 3.5"),
            (lambda dec: sg.picard_resolvent_flow(dec, 1.0, F, 0.01, n_iter=2.5), sg.ValidationError,
             "n_iter must be an integer, got 2.5"),
        ],
        ids=["build_ou-n", "DiffusionSpec-n", "picard-n_iter"],
    )
    def test_float_count_raises_the_site_class(self, chain2, call, error, message):
        with pytest.raises(error) as exc:
            call(chain2[1])
        assert str(exc.value) == message

    def test_numpy_integers_are_counts(self):
        assert sg.build_ou(6.0, np.int64(8), 1.0).size == 8
        assert check_count("n", np.int32(3), 3) == 3
        with pytest.raises(sg.ValidationError, match="n must be an integer, got 4.0"):
            check_count("n", 4.0, 3)


class TestOverflowAndCaps:
    def test_ou_witness_pair_refuses_a_rate_whose_exp_overflows(self):
        with pytest.raises(sg.OverflowRisk, match="exp\\(800\\)"):
            sg.ou_witness_pair(400.0)
        g, f = sg.ou_witness_pair(300.0)
        assert np.all(np.isfinite(f(np.array([0.0, 1.0]))))

    def test_time_grid_past_the_step_cap_is_refused(self):
        assert MAX_TRAJECTORY_CELLS // 2 == 2_000_000  # the cell budget of a 2-state space
        with pytest.raises(sg.ValidationError, match=r"^129099444875 grid times .* exceed the budget of 2000000$"):
            sg.backward_time_grid(1.0, 1e6)
        assert sg.backward_time_grid(1.0, 1.0).size == 201

    def test_the_largest_admitted_grid_fits_a_two_state_trajectory(self, chain2):
        _, dec = chain2
        budget = MAX_TRAJECTORY_CELLS // 2
        h = math.sqrt(0.6 * PDE_RESIDUAL_TARGET)  # the step at lambda_max <= 1
        grid = sg.backward_time_grid((budget - 1.5) * h, 1.0)  # budget - 1 steps
        assert grid.size == budget
        assert dec.trajectory(-dec.eigenvalues, grid, np.ones(2)).shape == (budget, 2)
        with pytest.raises(sg.ValidationError, match=rf"^{budget + 1} grid times .* exceed the budget of {budget}$"):
            sg.backward_time_grid((budget - 0.5) * h, 1.0)  # one step more


class TestCallerTimeGrids:
    """A caller's grid is used only inside the horizon the overflow guard checked."""

    @pytest.mark.parametrize("t_grid", [[0.0, 1000.0], [0.0, NAN], [0.0, INF], [-1.0, 0.5], [[0.0, 0.5]], 0.5])
    def test_backward_solvers_refuse_grids_outside_the_horizon(self, chain2, t_grid):
        _, dec = chain2
        with pytest.raises(sg.ValidationError, match="t_grid"):
            sg.solve_backward_cauchy(_problem(dec), t_grid=t_grid)
        with pytest.raises(sg.ValidationError, match="t_grid"):
            sg.regularised_pide_solve(_mixture(dec), F, 1.0, t_grid=t_grid)

    def test_resolvent_cauchy_needs_a_grid(self, chain2):
        _, dec = chain2
        with pytest.raises(sg.ValidationError, match="^t_grid needs"):
            sg.solve_resolvent_cauchy(dec, 1.0, F, None)

    @pytest.mark.parametrize("t_grid", [[0.0, NAN], [0.0, INF], [-1.0, 0.5], 0.5])
    def test_resolvent_cauchy_refuses_non_finite_or_negative_grids(self, chain2, t_grid):
        _, dec = chain2
        with pytest.raises(sg.ValidationError, match="t_grid"):
            sg.solve_resolvent_cauchy(dec, 1.0, F, t_grid)

    def test_grid_up_to_the_horizon_is_used_as_given(self, chain2):
        _, dec = chain2
        traj = sg.regularised_pide_solve(_mixture(dec), F, 2.0, t_grid=[0.0, 2.0])
        assert traj.times.tolist() == [0.0, 2.0] and np.all(np.isfinite(traj.values))
        traj = sg.solve_backward_cauchy(_problem(dec, 2.0), t_grid=[0.0, 1.0, 2.0])
        assert traj.values.shape == (3, 2) and np.all(np.isfinite(traj.values))
        assert sg.solve_resolvent_cauchy(dec, 1.0, F, [0.0, 1e3]).shape == (2, 2)


class TestPicardBudget:
    def test_tables_past_the_budget_are_refused_before_allocating(self, chain2, monkeypatch):
        from semigroupinv import inversion

        _, dec = chain2
        monkeypatch.setattr(inversion.np, "linspace", lambda *a, **k: pytest.fail("grid was built"))
        # 2001 times x 2 states per table: 1000 iterates are 4.0M cells
        message = r"4006002 Picard cells \(1001 iterates x 2001 times x 2 states\) exceed the budget of 4000000"
        with pytest.raises(sg.ValidationError, match=message):
            sg.picard_resolvent_flow(dec, 1.0, F, 1.0, 1000)
        with pytest.raises(sg.ValidationError, match="cells"):
            sg.picard_resolvent_flow(dec, 1.0, F, 1e6, 0)

    def test_run_inside_the_budget(self, chain2):
        _, dec = chain2
        cells = 998 * 2001 * 2
        assert cells <= MAX_TRAJECTORY_CELLS
        assert len(sg.picard_resolvent_flow(dec, 1.0, F, 1.0, 997).trajectories) == 998


class TestPhiFamilyParameters:
    @pytest.mark.parametrize(
        "name, params, missing",
        [
            ("tikhonov_exp", {}, "horizon"),
            ("constant", {}, "value"),
            ("jump_mixture", {"t_star": 1.0}, "tau"),
            ("jump_mixture", {"tau": 1.0}, "t_star"),
            ("resolvent_jump", {"alpha": 1.0}, "tau"),
            ("resolvent_jump", {"tau": 1.0}, "alpha"),
        ],
    )
    def test_missing_parameter_is_named(self, name, params, missing):
        with pytest.raises(sg.ValidationError, match=f"'{missing}'"):
            sg.make_phi(name, **params)

    def test_other_families_parameters_are_ignored(self):
        phi = sg.make_phi("constant", value=2.0, horizon=NAN, tau=-1.0)
        assert dict(phi.parameters) == {"value": 2.0}
