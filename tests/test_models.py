"""Generator builders: diffusions, the mean-reverting model, jumps, chains."""

import math
import sys

import numpy as np
import pytest

import semigroupinv as sg
from semigroupinv import models


class TestDiffusion:
    def test_conservative_neumann_laplacian(self, laplacian50_neumann):
        gen, dec = laplacian50_neumann
        assert sg.check_m_symmetry(gen.matrix, gen.space) <= 1e-12
        assert np.max(np.abs(gen.matrix.sum(axis=1))) <= 1e-9  # row sums ~ 0
        assert dec.eigenvalues[0] == 0.0
        phi0 = dec.eigenvectors[:, 0]
        assert np.max(np.abs(phi0 - phi0[0])) <= 1e-8 * abs(phi0[0])

    def test_constant_killing_is_exact_shift(self):
        base = sg.build_diffusion(sg.DiffusionSpec(left=0.0, right=1.0, n=20))
        kappa = 0.7
        killed = sg.build_diffusion(
            sg.DiffusionSpec(left=0.0, right=1.0, n=20, kill=lambda x: np.full_like(x, kappa))
        )
        assert np.array_equal(killed.matrix, base.matrix - kappa * np.eye(20))
        dec_base = sg.spectral_decompose(base)
        dec_killed = sg.spectral_decompose(killed)
        assert dec_killed.eigenvalues == pytest.approx(dec_base.eigenvalues + kappa, abs=1e-10)

    def test_dirichlet_eigenvalues_match_continuum(self, laplacian50_dirichlet):
        # -f''/2 on (0, pi) with absorbing ends: lambda_k = k^2/2
        _, dec = laplacian50_dirichlet
        for k in range(1, 6):
            expected = 0.5 * k**2
            assert abs(dec.eigenvalues[k - 1] - expected) <= 0.02 * expected

    def test_variable_sigma_stays_m_symmetric(self):
        gen = sg.build_diffusion(
            sg.DiffusionSpec(left=-1.0, right=2.0, n=31, sigma=lambda x: 1.0 + 0.25 * x**2)
        )
        assert sg.check_m_symmetry(gen.matrix, gen.space) <= 1e-12

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(sg.NonPositiveSigma):
            sg.build_diffusion(sg.DiffusionSpec(left=-1.0, right=1.0, n=10, sigma=lambda x: x))

    @pytest.mark.parametrize(
        "sigma, right",
        [(lambda x: x**92, 3.3125), (lambda x: np.full_like(x, 1e200), 3.3125),
         (lambda x: np.full_like(x, 1.3e154), 0.1)],
        ids=["weight-overflows", "weight-underflows", "rate-overflows"],
    )
    def test_rejects_sigma_whose_weight_or_rate_leaves_double_range(self, sigma, right):
        # no RuntimeWarning (an error under this suite's filter), and sigma named at its grid point
        spec = sg.DiffusionSpec(left=-0.6875, right=right, n=3, sigma=sigma,
                                boundary_left="dirichlet", boundary_right="dirichlet")
        with pytest.raises(sg.NonPositiveSigma, match=r"sigma = \S+ at grid point x = -0\.\d+ "):
            sg.build_diffusion(spec)

    def test_rejects_bad_boundary(self):
        with pytest.raises(sg.InvalidBoundary):
            sg.DiffusionSpec(left=0.0, right=1.0, n=10, boundary_left="absorbing")

    def test_rejects_tiny_grid(self):
        with pytest.raises(sg.LengthMismatch):
            sg.DiffusionSpec(left=0.0, right=1.0, n=2)

    def test_rejects_negative_killing_as_plain_validation_error(self):
        spec = sg.DiffusionSpec(left=0.0, right=1.0, n=10, kill=lambda x: x - 0.5)
        with pytest.raises(sg.ValidationError, match="killing rate") as exc:
            sg.build_diffusion(spec)
        assert type(exc.value) is sg.ValidationError


class TestOrnsteinUhlenbeck:
    def test_conservative_zero_mode(self, ou400):
        gen, dec = ou400
        assert sg.check_m_symmetry(gen.matrix, gen.space) <= 1e-12
        assert dec.eigenvalues[0] == 0.0
        phi0 = dec.eigenvectors[:, 0]
        assert np.max(np.abs(phi0 - phi0[0])) <= 1e-7 * abs(phi0[0])

    def test_spectrum_is_integer_ladder(self, ou400):
        # first four positive levels of the rate-1 ladder within 2%
        _, dec = ou400
        for k in range(1, 5):
            assert abs(dec.eigenvalues[k] - k) <= 0.02 * k

    def test_ladder_scales_with_rate(self):
        rate = 2.5
        gen = sg.build_ou(6.0 / math.sqrt(rate), 400, rate)
        dec = sg.spectral_decompose(gen)
        for k in range(1, 5):
            assert abs(dec.eigenvalues[k] - k * rate) <= 0.02 * k * rate

    def test_mean_reversion_of_identity_function(self, ou400):
        # E[X_1 | X_0 = x] = x e^-1: the semigroup contracts x by e^-rate
        gen, dec = ou400
        x = gen.space.points
        evolved = sg.semigroup_apply(dec, 1.0, x)
        interior = np.abs(x) <= 3.0
        scale = np.exp(-1.0) * np.max(np.abs(x[interior]))
        assert np.max(np.abs(evolved - np.exp(-1.0) * x)[interior]) <= 0.01 * scale

    def test_positivity_preserved(self, ou50):
        gen, dec = ou50
        rng = np.random.default_rng(21)
        for t in (0.1, 1.0, 3.0):
            f = np.abs(rng.standard_normal(gen.size))
            assert np.min(sg.semigroup_apply(dec, t, f)) >= -1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(sg.InvalidBoundary):
            sg.build_ou(-1.0, 50, 1.0)
        with pytest.raises(sg.InvalidBoundary):
            sg.build_ou(6.0, 50, 0.0)


class TestWitnessPair:
    def test_negative_dip_at_origin(self):
        _, f = sg.ou_witness_pair(1.0)
        expected = -(math.exp(2.0) - 1.0) / 2.0
        assert f(np.array([0.0]))[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-3.194528049465325, abs=1e-12)

    def test_zero_crossings(self):
        g, f = sg.ou_witness_pair(1.0)
        e2 = math.exp(2.0)
        x0 = math.sqrt((e2 - 1.0) / (2.0 * e2))
        assert f(np.array([x0, -x0])) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert f(np.array([0.5 * x0]))[0] < 0 < f(np.array([2.0 * x0]))[0]

    def test_forward_map_reproduces_observation(self, ou400):
        # P_1 f = g holds on the continuum; the grid gets it to 1% interior
        gen, dec = ou400
        g, f = sg.ou_witness_pair(1.0)
        x = gen.space.points
        evolved = sg.semigroup_apply(dec, 1.0, f(x))
        interior = np.abs(x) <= 3.0
        w = gen.space.weights
        err = math.sqrt(float((((evolved - g(x)) ** 2) * w)[interior].sum()))
        ref = math.sqrt(float(((g(x) ** 2) * w)[interior].sum()))
        assert err <= 1e-2 * ref

    def test_general_rate_formula(self):
        rate = 0.3
        g, f = sg.ou_witness_pair(rate)
        xs = np.linspace(-2, 2, 9)
        e2r = math.exp(2 * rate)
        assert f(xs) == pytest.approx(e2r * xs**2 - (e2r - 1) / (2 * rate), abs=1e-12)
        assert g(xs) == pytest.approx(xs**2)


class TestJump:
    def test_uniform_conservative_kernel(self):
        space = sg.build_space(np.linspace(0, 1, 12), np.full(12, 1.0 / 12))
        q = np.full((12, 12), 1.0)  # row mass = sum m = 1 exactly
        gen = sg.build_jump(sg.JumpKernelSpec(q, space))
        dec = sg.spectral_decompose(gen)
        assert dec.eigenvalues[0] == 0.0
        assert np.all(dec.eigenvalues <= 2.0 + 1e-8)

    def test_gaussian_kernel_spectrum_in_unit_band(self, jump30):
        gen, dec = jump30
        assert sg.check_m_symmetry(gen.matrix, gen.space) <= 1e-12
        assert dec.eigenvalues[0] >= 0.0
        assert dec.eigenvalues[-1] <= 2.0 + 1e-8

    def test_rejects_asymmetric_kernel(self):
        space = sg.build_space([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(sg.AsymmetricKernel):
            sg.JumpKernelSpec(np.array([[0.0, 1.0], [0.5, 0.0]]), space)

    def test_rejects_row_mass_above_one(self):
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(sg.RowMassExceeded):
            sg.JumpKernelSpec(np.full((2, 2), 0.8), space)

    def test_rejects_negative_kernel(self):
        space = sg.build_space([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(sg.AsymmetricKernel):
            sg.JumpKernelSpec(np.array([[0.1, -0.1], [-0.1, 0.1]]), space)

    def test_gaussian_kernel_of_subnormal_variance_never_jumps(self):
        # d^2 / (2 t_star) overflows: the kernel takes its limit, no jump off the diagonal
        space = sg.build_space([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        kernel = sg.gaussian_jump_kernel(space, 2.225073858507203e-309).kernel
        assert np.array_equal(kernel, np.eye(3))


class TestChain:
    def test_path_graph_has_distinct_levels(self, chain3):
        # 3-state path: -A has eigenvalues {0, 1, 3}
        _, dec = chain3
        assert dec.eigenvalues == pytest.approx([0.0, 1.0, 3.0], abs=1e-10)

    def test_zero_matrix_identity_semigroup(self):
        gen = sg.build_chain(np.zeros((4, 4)), np.ones(4))
        dec = sg.spectral_decompose(gen)
        f = np.array([1.0, -2.0, 3.0, 0.5])
        for t in (0.0, 1.0, 10.0):
            assert sg.semigroup_apply(dec, t, f) == pytest.approx(f, abs=1e-14)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(sg.LengthMismatch):
            sg.build_chain(np.zeros((2, 3)), [1.0, 1.0])


def _edge_loop_matrix(points, h, m_density, edge_conductance, kill_rate,
                      boundary_left, boundary_right, wall_conductance):
    """The divergence-form matrix assembled one edge at a time: the reference order of every sum."""
    n = points.size
    m = m_density * h
    a = np.zeros((n, n))
    for i in range(n - 1):
        w = edge_conductance[i]
        a[i, i + 1] += w / m[i]
        a[i + 1, i] += w / m[i + 1]
        a[i, i] -= w / m[i]
        a[i + 1, i + 1] -= w / m[i + 1]
    if boundary_left == "dirichlet":
        a[0, 0] -= wall_conductance[0] / m[0]
    if boundary_right == "dirichlet":
        a[n - 1, n - 1] -= wall_conductance[1] / m[n - 1]
    a[np.diag_indices(n)] -= kill_rate
    return a


def _diffusion(n, boundary, kill=None):
    return lambda: sg.build_diffusion(sg.DiffusionSpec(
        left=0.0, right=math.pi, n=n, sigma=lambda x: 1.0 + 0.5 * x, kill=kill,
        boundary_left=boundary, boundary_right=boundary))


DIVERGENCE_FORM_MODELS = {
    "ou400": lambda: sg.build_ou(6.0, 400, 1.0),
    "ou2000": lambda: sg.build_ou(6.0, 2000, 1.0),
    "killed-dirichlet2000": _diffusion(2000, "dirichlet", lambda x: np.full_like(x, 0.2)),
    "dirichlet200": _diffusion(200, "dirichlet"),
    "neumann200": _diffusion(200, "neumann"),
    "killed7": lambda: sg.build_diffusion(sg.DiffusionSpec(
        left=-1.0, right=2.0, n=7, kill=lambda x: 0.3 + x * x, boundary_left="dirichlet")),
}


class TestDivergenceForm:
    @pytest.mark.parametrize("name", sorted(DIVERGENCE_FORM_MODELS))
    def test_matches_the_edge_loop_bit_for_bit(self, monkeypatch, name):
        calls = []
        assemble = models._divergence_form
        monkeypatch.setattr(models, "_divergence_form", lambda *a, **k: calls.append((a, k)) or assemble(*a, **k))
        gen = DIVERGENCE_FORM_MODELS[name]()
        (args, kwargs), = calls
        reference = _edge_loop_matrix(*args, **kwargs)
        assert np.array_equal(gen.matrix.view(np.int64), reference.view(np.int64))

    def test_assembly_runs_no_python_loop_over_edges(self):
        # the same lines run at every grid size: the edges are array operations
        code = models._divergence_form.__code__

        def lines_run(n):
            count = 0

            def trace(frame, event, arg):
                nonlocal count
                if frame.f_code is not code:
                    return None
                count += event == "line"
                return trace

            previous = sys.gettrace()
            sys.settrace(trace)
            try:
                sg.build_ou(6.0, n, 1.0)
            finally:
                sys.settrace(previous)
            return count

        assert lines_run(400) == lines_run(7) > 0


def _spec_json(kind, n):
    if kind == "ou":
        return {"schemaVersion": 1, "type": "ou", "parameters": {"halfWidth": 6.0, "n": n, "rate": 1.0}}
    return {"schemaVersion": 1, "type": "diffusion", "parameters": {
        "left": 0.0, "right": math.pi, "n": n, "sigma": "1+0.5x", "kill": "0.2",
        "boundaryLeft": "dirichlet", "boundaryRight": "neumann"}}


class TestModelSpecCoarsened:
    @pytest.mark.parametrize("n", [400, 2000])
    @pytest.mark.parametrize("kind", ["ou", "diffusion"])
    def test_has_the_bits_of_the_file_on_half_the_cells(self, kind, n):
        coarse = models.ModelSpec.from_json(_spec_json(kind, n)).coarsened()
        assert coarse.parameters["n"] == n // 2
        got, want = coarse.build(), models.ModelSpec.from_json(_spec_json(kind, n // 2)).build()
        for a, b in zip((got.space.points, got.space.weights, *got.bands),
                        (want.space.points, want.space.weights, *want.bands)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec", [
        {"type": "chain", "parameters": {"matrix": [[-0.5, 0.5], [0.5, -0.5]], "weights": [1.0, 1.0]}},
        {"type": "jump", "parameters": {"points": [0.0, 1.0, 2.0, 3.0], "weights": [0.25] * 4}},
        {"type": "ou", "parameters": {"n": 401}},
        {"type": "diffusion", "parameters": {"left": 0.0, "right": 1.0, "n": 7}},
        {"type": "ou", "parameters": {"n": 4}},
    ], ids=["chain", "jump", "odd-n", "odd-diffusion-n", "n-4"])
    def test_is_none_without_a_nested_grid_of_at_least_3_cells(self, spec):
        assert models.ModelSpec.from_json({"schemaVersion": 1, **spec}).coarsened() is None

    def test_smallest_coarsened_grid_has_3_cells(self):
        spec = models.ModelSpec.from_json({"schemaVersion": 1, "type": "ou", "parameters": {"n": 6}})
        assert spec.coarsened().build().size == 3
        assert spec.parameters["n"] == 6
