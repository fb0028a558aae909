"""Spectral core: spaces, m-symmetry, decomposition, functional calculus."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import semigroupinv as sg
from conftest import expm_2state, failing_dstevd, single_thread_probe
from semigroupinv import spectral

# Eigenvalues this close count as one degenerate eigenspace.
CLUSTER_TOL = 1e-9


def eigenvalue_clusters(lam):
    """Group the indices of sorted eigenvalues that lie within ``CLUSTER_TOL`` of their neighbour."""
    clusters = [[0]]
    for k in range(1, lam.size):
        if lam[k] - lam[clusters[-1][-1]] <= CLUSTER_TOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


class TestWeightedSpace:
    def test_two_point_uniform_mass(self):
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        assert space.size == 2
        assert space.total_mass() == 2.0

    def test_rejects_zero_weight(self):
        with pytest.raises(sg.NonPositiveWeight):
            sg.build_space([0.0, 1.0], [1.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(sg.LengthMismatch):
            sg.build_space([0.0, 1.0, 2.0], [1.0, 1.0])

    def test_rejects_single_point(self):
        with pytest.raises(sg.LengthMismatch):
            sg.build_space([0.0], [1.0])

    def test_rejects_decreasing_points(self):
        with pytest.raises(sg.ValidationError, match="strictly increasing") as exc:
            sg.build_space([1.0, 0.0], [1.0, 1.0])
        assert type(exc.value) is sg.ValidationError

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(sg.ValidationError, match="finite") as exc:
            sg.build_space([0.0, bad], [1.0, 1.0])
        assert type(exc.value) is sg.ValidationError

    def test_gaussian_weighted_grid(self):
        # speed-measure space of the mean-reverting diffusion at rate 1
        x = np.linspace(-6.0, 6.0, 101)
        dx = x[1] - x[0]
        space = sg.build_space(x, np.exp(-(x**2)) * dx)
        assert abs(space.total_mass() - math.sqrt(math.pi)) < 1e-3


class TestInnerProduct:
    def test_constants_give_total_mass(self):
        space = sg.build_space([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        ones = np.ones(3)
        assert sg.inner(space, ones, ones) == pytest.approx(6.0)

    def test_disjoint_supports(self):
        space = sg.build_space([0.0, 1.0], [2.0, 5.0])
        assert sg.inner(space, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_single_coordinate(self):
        space = sg.build_space([0.0, 1.0], [2.0, 3.0])
        assert sg.inner(space, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(sg.LengthMismatch):
            sg.inner(space, [1.0, 0.0, 0.0], [1.0, 0.0])

    def test_norm_rescales_only_when_the_squares_overflow(self):
        space = sg.build_space([0.0, 1.0, 2.0], [1.0, 2.0, 0.5])
        big = np.array([3e200, -4e200, 1e199])
        assert sg.norm(space, big) == pytest.approx(1e200 * math.sqrt(9.0 + 32.0 + 0.005), rel=1e-15)
        f = np.random.default_rng(7).standard_normal(3) * 1e150
        assert sg.norm(space, f) == float(np.sqrt(np.dot(f * f, space.weights)))
        assert sg.norm(space, [math.inf, 0.0, 0.0]) == math.inf


    def test_norm_is_finite_when_only_the_weights_overflow_its_squares(self):
        # sum_i m_i f_i^2 = 2e308 overflows, but ||f||_m = 1.4e154; rescaling f alone left it inf
        space = sg.build_space([0.0, 1.0, 2.0], [6.7e307] * 3)
        assert sg.norm(space, np.ones(3)) == pytest.approx(math.sqrt(3.0) * math.sqrt(6.7e307), rel=1e-15)
        assert sg.norm(space, [1e155, 1.0, 0.0]) == math.inf


class TestMSymmetry:
    def test_symmetric_matrix_uniform_weights(self):
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        assert sg.check_m_symmetry([[-1.0, 1.0], [1.0, -1.0]], space) == 0.0

    def test_weighted_balance(self):
        # 1 * 2 == 2 * 1: exactly m-symmetric despite asymmetric rates
        space = sg.build_space([0.0, 1.0], [1.0, 2.0])
        assert sg.check_m_symmetry([[-2.0, 2.0], [1.0, -1.0]], space) == 0.0

    def test_relative_residual_one_half(self):
        # |2 - 1| / max(2, 1, 1) = 1/2
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        assert sg.check_m_symmetry([[-2.0, 2.0], [1.0, -1.0]], space) == pytest.approx(0.5)

    def test_generator_rejects_asymmetric(self):
        with pytest.raises(sg.NotMSymmetric):
            sg.build_chain([[-2.0, 2.0], [1.0, -1.0]], [1.0, 1.0])

    @pytest.mark.parametrize("weights", [[1.0, 2.0, 0.5], [1e308, 1e10, 1.0]], ids=["finite", "overflow"])
    def test_bands_measure_what_the_dense_matrix_measures(self, weights):
        space = sg.build_space([0.0, 1.0, 2.0], weights)
        lower, diag, upper = np.array([2.0, 1.0]), np.array([-10.0, -3.0, -2.0]), np.array([1.0, 0.25])
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        banded = sg.check_m_symmetry((lower, diag, upper), space)
        assert banded.hex() == sg.check_m_symmetry(dense, space).hex()
        assert math.isnan(banded) == (weights[0] == 1e308)  # m_0 A_00 overflows

    @pytest.mark.parametrize("bands", [
        ([1.0], [-1.0, -1.0, -1.0], [1.0, 1.0]),
        ([1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]),
        (np.ones((2, 1)), [-1.0, -1.0, -1.0], [1.0, 1.0]),
    ], ids=["lower", "diagonal", "2-d"])
    def test_band_shapes_must_fit_the_space(self, bands):
        space = sg.build_space([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(sg.LengthMismatch, match="on a space of size 3"):
            sg.check_m_symmetry(bands, space)
        with pytest.raises(sg.LengthMismatch, match="on a space of size 3"):
            sg.SymmetricGenerator(space, bands)

    @pytest.mark.parametrize("upper, error", [
        ([2.0], sg.NotMSymmetric), ([math.nan], sg.ValidationError), ([math.inf], sg.ValidationError),
    ])
    def test_band_generator_refuses_what_a_dense_one_refuses(self, upper, error):
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(error):
            sg.SymmetricGenerator(space, ([1.0], [-1.0, -1.0], upper))
        with pytest.raises(error):
            sg.SymmetricGenerator(space, [[-1.0, upper[0]], [1.0, -1.0]])

    @staticmethod
    def _unblocked(matrix, space):
        """The residual as one n x n expression, the value the row blocks must give."""
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.asarray(matrix, dtype=float) * space.weights[:, None]
            return float(np.max(spectral._asymmetry(w, w.T)))

    @staticmethod
    def _random_m_symmetric(n, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n, n))
        weights = rng.uniform(0.5, 2.0, n)
        return (s + s.T) / weights[:, None], sg.build_space(np.arange(n, dtype=float), weights)

    @pytest.mark.parametrize("case", ["chain2", "jump400", "jump1000", "random300"])
    def test_dense_row_blocks_give_the_unblocked_bits(self, case, chain2):
        if case == "chain2":
            matrix, space = chain2[0].matrix, chain2[0].space
        elif case.startswith("jump"):  # the benchmark's Gaussian jump models
            x = np.linspace(-3.0, 3.0, int(case[4:]))
            weights = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi) * (x[1] - x[0])
            gen = sg.build_jump(sg.gaussian_jump_kernel(sg.build_space(x, weights), 0.5))
            matrix, space = gen.matrix, gen.space
        else:
            matrix, space = self._random_m_symmetric(300, 7)
        residual = sg.check_m_symmetry(matrix, space)
        assert residual.hex() == self._unblocked(matrix, space).hex()
        assert (residual > 0.0) == (case != "chain2")

    def test_dense_overflow_in_a_late_row_block_gives_nan(self):
        # rows i >= 150 and 290 lie past the first block of 109 rows, so a reduction that drops NaN would miss it
        matrix, space = self._random_m_symmetric(300, 7)
        i = 150 + int(np.argmax(space.weights[150:] > 1.0))
        matrix[i, 290] = np.finfo(float).max  # m_i A_ij overflows
        assert i < 290 and math.isnan(self._unblocked(matrix, space))
        assert math.isnan(sg.check_m_symmetry(matrix, space))

    def test_dense_2000_residual_peaks_below_a_quarter_of_the_matrix(self):
        """Row blocks of about ``_BLOCK_CELLS`` cells: 1.5 MB (tracemalloc) beside the 32 MB matrix."""
        matrix, space = self._random_m_symmetric(2000, 11)
        tracemalloc.start()
        try:
            residual = sg.check_m_symmetry(matrix, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < residual <= spectral.SYM_TOL
        assert peak < 0.25 * matrix.nbytes


class TestSpectralDecompose:
    def test_two_state_eigenpairs(self, chain2):
        _, dec = chain2
        assert dec.eigenvalues == pytest.approx([0.0, 1.0], abs=1e-14)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        phi0 = dec.eigenvectors[:, 0]
        phi1 = dec.eigenvectors[:, 1]
        assert np.abs(phi0) == pytest.approx([inv_sqrt2, inv_sqrt2], abs=1e-14)
        assert np.abs(phi1) == pytest.approx([inv_sqrt2, inv_sqrt2], abs=1e-14)
        assert phi1[0] * phi1[1] < 0  # odd mode changes sign

    def test_zero_generator(self):
        gen = sg.build_chain(np.zeros((3, 3)), [1.0, 2.0, 3.0])
        dec = sg.spectral_decompose(gen)
        assert np.all(dec.eigenvalues == 0.0)

    def test_neumann_laplacian_zero_mode(self, laplacian50_neumann):
        _, dec = laplacian50_neumann
        assert dec.eigenvalues[0] == 0.0
        phi0 = dec.eigenvectors[:, 0]
        assert np.max(np.abs(phi0 - phi0[0])) < 1e-8 * abs(phi0[0])

    def test_negative_definite_rejected(self):
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        gen = sg.SymmetricGenerator(space, np.eye(2))  # -A = -I < 0
        with pytest.raises(sg.NegativeEigenvalue):
            sg.spectral_decompose(gen)

    def test_orthonormal_and_reconstructs_random_generators(self):
        rng = np.random.default_rng(11)
        for n in (5, 20, 60):
            m = rng.uniform(0.2, 3.0, n)
            b = rng.standard_normal((n, n))
            a = -(b @ b.T) / m[:, None]  # m-symmetric, -A >= 0 in L2(m)
            gen = sg.build_chain(a, m)
            dec = sg.spectral_decompose(gen)
            gram = (dec.eigenvectors * m[:, None]).T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10
            f = rng.standard_normal(n)
            recon = a @ f + dec.synthesize(dec.eigenvalues * dec.coefficients(f))
            assert sg.norm(gen.space, recon) < 1e-8 * sg.norm(gen.space, f)
            assert np.all(np.diff(dec.eigenvalues) >= 0)


class TestReadOnlyArrays:
    """The library freezes the arrays it has just built in place and copies a caller's."""

    def test_caller_arrays_are_copied_and_frozen(self):
        space = sg.build_space([0.0, 1.0], [1.0, 1.0])
        matrix = np.array([[-1.0, 1.0], [1.0, -1.0]])
        lam, vecs = np.array([0.0, 2.0]), np.eye(2)
        gen = sg.SymmetricGenerator(space, matrix)
        dec = sg.SpectralDecomposition(space, lam, vecs)
        matrix[0, 0], lam[1], vecs[0, 0] = 5.0, 7.0, 3.0
        assert gen.matrix[0, 0] == -1.0 and dec.eigenvalues[1] == 2.0 and dec.eigenvectors[0, 0] == 1.0
        for array in (gen.matrix, dec.eigenvalues, dec.eigenvectors):
            assert not array.flags.writeable

    def test_caller_bands_are_copied_and_the_matrix_is_built_once(self):
        space = sg.build_space([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        bands = np.array([1.0, 2.0]), np.array([-1.0, -3.0, -2.0]), np.array([1.0, 2.0])
        gen = sg.SymmetricGenerator(space, bands)
        bands[1][0] = 5.0
        assert gen.bands[1][0] == -1.0 and all(not b.flags.writeable for b in gen.bands)
        assert gen.matrix is gen.matrix and not gen.matrix.flags.writeable
        assert np.array_equal(gen.matrix, [[-1.0, 1.0, 0.0], [1.0, -3.0, 2.0], [0.0, 2.0, -2.0]])
        assert sg.build_chain(gen.matrix, [1.0, 1.0, 1.0]).bands is None

    def test_ou2000_build_and_decomposition_copy_no_n_by_n_array(self):
        copy = 2000 * 2000 * 8  # one n x n array, 32 MB
        tracemalloc.start()
        try:
            gen = sg.build_ou(6.0, 2000, 1.0)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            kept = tracemalloc.get_traced_memory()[0]
            dec = sg.spectral_decompose(gen)
            decompose_peak = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        # the bands, the space and the builder's vectors: 0.01 copies measured; a dense matrix is 1.0
        assert build_peak < 0.05 * copy
        # dstevd's vectors with its workspace, then the vectors with their C-order rescale:
        # 2.0 copies measured, 3.0 with a third
        assert decompose_peak < 2.5 * copy
        assert not gen.matrix.flags.writeable and not dec.eigenvectors.flags.writeable

    def test_ou2000_dense_route_copies_no_n_by_n_array(self, monkeypatch):
        # the route of a numpy whose LAPACK exports no dstevd
        monkeypatch.setattr(spectral, "_DSTEVD", None)
        copy = 2000 * 2000 * 8
        gen = sg.build_ou(6.0, 2000, 1.0)
        tracemalloc.start()
        try:
            dec = sg.spectral_decompose(gen)
            decompose_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the tridiagonal built from the symmetrised bands, then with eigh's vectors,
        # rescaled in place: 2.0 copies measured, 3.0 with a third
        assert decompose_peak < 2.5 * copy
        assert dec.eigenvectors.flags.c_contiguous and not dec.eigenvectors.flags.writeable


class TestApplyFunction:
    def test_identity(self, chain3):
        gen, dec = chain3
        rng = np.random.default_rng(0)
        f = rng.standard_normal(gen.size)
        out = sg.apply_function(dec, lambda lam: np.ones_like(lam), f)
        assert out == pytest.approx(f, abs=1e-13)

    def test_eigen_relation(self, chain3):
        _, dec = chain3
        for k in range(3):
            phi_k = dec.eigenvectors[:, k]
            out = sg.apply_function(dec, lambda lam: lam, phi_k)
            assert out == pytest.approx(dec.eigenvalues[k] * phi_k, abs=1e-12)

    def test_matches_closed_form_matrix_exponential(self, chain2):
        # exp(-(-A)) applied to (1, 0) against the hand 2x2 semigroup
        _, dec = chain2
        f = np.array([1.0, 0.0])
        out = sg.apply_function(dec, lambda lam: np.exp(-lam), f)
        expected = expm_2state(0.5, 0.5, 1.0) @ f
        assert out == pytest.approx(expected, abs=1e-14)
        assert out == pytest.approx([0.6839397205857212, 0.3160602794142788], abs=1e-12)

    def test_rejects_non_finite_values(self, chain2):
        _, dec = chain2
        with np.errstate(divide="ignore"), pytest.raises(sg.NonFiniteFunctionValue):
            sg.apply_function(dec, lambda lam: 1.0 / lam, np.array([1.0, 0.0]))

    def test_symmetry_of_functional_calculus(self, jump30):
        gen, dec = jump30
        rng = np.random.default_rng(4)
        for phi in (
            lambda lam: np.exp(-lam),
            lambda lam: 1.0 / (lam + 0.7),
            lambda lam: np.cos(lam),
        ):
            f = rng.standard_normal(gen.size)
            g = rng.standard_normal(gen.size)
            lhs = sg.inner(gen.space, sg.apply_function(dec, phi, f), g)
            rhs = sg.inner(gen.space, f, sg.apply_function(dec, phi, g))
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_degenerate_eigenspace_mixing_invariance(self):
        # two uncoupled copies of the 2-state chain: eigenvalues {0, 0, 1, 1}
        block = np.array([[-0.5, 0.5], [0.5, -0.5]])
        a = np.zeros((4, 4))
        a[:2, :2] = block
        a[2:, 2:] = block
        gen = sg.build_chain(a, np.ones(4))
        dec = sg.spectral_decompose(gen)
        rng = np.random.default_rng(8)
        f = rng.standard_normal(4)
        baseline = sg.apply_function(dec, lambda lam: np.exp(-2.0 * lam), f)
        vectors = dec.eigenvectors.copy()
        for cluster in eigenvalue_clusters(dec.eigenvalues):
            if len(cluster) < 2:
                continue
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            vectors[:, cluster] = vectors[:, cluster] @ rot
        mixed = sg.SpectralDecomposition(gen.space, dec.eigenvalues, vectors)
        out = sg.apply_function(mixed, lambda lam: np.exp(-2.0 * lam), f)
        assert np.max(np.abs(out - baseline)) < 1e-10 * max(np.max(np.abs(baseline)), 1.0)


class TestApplyAndTrajectory:
    def test_apply_is_the_multiplier_in_the_eigenbasis(self, jump30):
        _, dec = jump30
        f = np.random.default_rng(1).standard_normal(dec.size)
        mult = np.exp(-0.3 * dec.eigenvalues)
        assert np.array_equal(dec.apply(mult, f), dec.synthesize(mult * dec.coefficients(f)))

    def test_trajectory_over_selected_modes(self, jump30):
        _, dec = jump30
        c = np.random.default_rng(2).standard_normal(dec.size)
        idx = np.arange(0, dec.size, 3)
        times = np.linspace(0.0, 1.0, 5)
        traj = dec.trajectory(dec.eigenvalues[idx], times, c[idx], modes=idx)
        for t, row in zip(times, traj):
            amplified = np.zeros(dec.size)
            amplified[idx] = np.exp(dec.eigenvalues[idx] * t) * c[idx]
            assert row == pytest.approx(dec.synthesize(amplified), rel=1e-12, abs=1e-12)

    def test_trajectory_budget(self, ou400):
        from semigroupinv.errors import MAX_TRAJECTORY_CELLS

        _, dec = ou400
        rows = MAX_TRAJECTORY_CELLS // dec.size
        assert dec.trajectory(np.zeros(1), np.zeros(rows), np.ones(1), modes=[0]).shape == (rows, dec.size)
        cells = (rows + 1) * dec.size
        message = rf"{cells} trajectory cells \({rows + 1} times x 400 states\) exceed the budget of 4000000"
        with pytest.raises(sg.ValidationError, match=message):
            dec.trajectory(np.zeros(1), np.zeros(rows + 1), np.ones(1), modes=[0])

    def test_values_past_double_range_raise_without_a_warning(self, chain2):
        # warnings are errors under pytest, so a RuntimeWarning would fail here before the OverflowRisk
        _, dec = chain2
        big = np.array([1.5e308, 1.5e308])
        with pytest.raises(sg.OverflowRisk, match="^synthesized values left double range$"):
            dec.synthesize(big)  # the sum of two modes passes 1.8e308
        with pytest.raises(sg.OverflowRisk, match="^synthesized values left double range$"):
            dec.apply(np.array([1.0, 1e300]), [1e10, -1e10])
        with pytest.raises(sg.OverflowRisk, match="^synthesized values left double range$"):
            dec.apply(np.ones(2), big)  # its coefficients overflow: one check of the values refuses them
        with pytest.raises(sg.OverflowRisk, match="^mode coefficients left double range$"):
            dec.coefficients(big)
        with pytest.raises(sg.OverflowRisk, match="^trajectory values left double range$"):
            dec.trajectory(dec.eigenvalues, [0.0, 700.0], np.array([0.0, 1e300]))
        assert np.isfinite(dec.trajectory(dec.eigenvalues, [0.0, 700.0], np.array([0.0, 1e3]))).all()

    @pytest.mark.parametrize(
        "mult", [2.0, np.array([2.0]), np.ones(3), np.ones((8, 1))], ids=["scalar", "one-value", "short", "column"]
    )
    def test_apply_refuses_a_multiplier_that_is_not_one_value_per_mode(self, mult):
        # numpy would broadcast the first two to 2 f, and the column to an 8 x 8 array
        dec = sg.spectral_decompose(sg.build_ou(6.0, 8, 1.0))
        with pytest.raises(sg.LengthMismatch, match=r"^multiplier vector of shape \(.*\) for 8 modes$"):
            dec.apply(mult, np.linspace(-1.0, 1.0, 8))

    @pytest.fixture(params=["chain2", "ou400", "ou1000", "dirichlet_laplacian400", "jump400"])
    def live_model(self, request):
        model = request.getfixturevalue(request.param)
        return model[1] if isinstance(model, tuple) else model

    def test_live_modes_keep_the_bits_of_the_full_gemvs(self, live_model):
        dec = live_model
        n, vectors, weights = dec.size, dec.eigenvectors, dec.space.weights
        rng = np.random.default_rng(n)
        f, c, m = rng.standard_normal(n), rng.standard_normal(n), rng.uniform(0.5, 2.0, n)
        for k0 in sorted({min(k, n) for k in (0, 1, 63, 64, 65, n // 2, n - 1, n)}):
            mult, coeffs = m.copy(), c.copy()
            mult[k0:] = coeffs[k0:] = 0.0
            full_apply = vectors @ (mult * (vectors.T @ (weights * f)))
            assert dec.apply(mult, f).tobytes() == full_apply.tobytes(), k0
            assert dec.synthesize(coeffs).tobytes() == (vectors @ coeffs).tobytes(), k0

    @pytest.mark.parametrize("T", [1e-3, 0.1, 1.0, 10.0])
    def test_live_modes_of_the_semigroup_on_ou1000(self, ou1000, T):
        _, dec = ou1000
        vectors, lam = dec.eigenvectors, dec.eigenvalues
        f = np.random.default_rng(7).standard_normal(dec.size)
        mult = np.exp(-lam * T)
        assert np.count_nonzero(mult) == {1e-3: 1000, 0.1: 523, 1.0: 149, 10.0: 45}[T]
        full = vectors @ (mult * (vectors.T @ (dec.space.weights * f)))
        assert sg.semigroup_apply(dec, T, f).tobytes() == full.tobytes()

    def test_live_modes_leave_the_dead_columns_unread(self, ou400):
        # 100 nonzero multipliers make a live block of 128 modes; NaN past it would poison every value
        _, dec = ou400
        rng = np.random.default_rng(5)
        f, values = rng.standard_normal(dec.size), rng.uniform(0.5, 2.0, dec.size)
        values[100:] = 0.0
        vectors = dec.eigenvectors.copy()
        vectors[:, 128:] = np.nan
        poisoned = sg.SpectralDecomposition(dec.space, dec.eigenvalues, vectors)
        out = poisoned.apply(values, f)
        assert np.isfinite(out).all() and out.tobytes() == dec.apply(values, f).tobytes()
        assert poisoned.synthesize(values).tobytes() == dec.synthesize(values).tobytes()

    def test_live_modes_of_zero_values_are_positive_zeros(self, ou400):
        _, dec = ou400
        f = np.random.default_rng(6).standard_normal(dec.size)
        zeros = np.zeros(dec.size).tobytes()
        for z in (np.zeros(dec.size), np.full(dec.size, -0.0)):
            assert dec.apply(z, f).tobytes() == zeros
            assert dec.synthesize(z).tobytes() == zeros

    def test_a_dead_coefficient_past_double_range_is_never_formed(self, dirichlet_laplacian400):
        # f = 1.7e308 sign(phi_300): mode 300's coefficient leaves double range, the first 64 stay below 1.1e307
        dec = dirichlet_laplacian400
        f = 1.7e308 * np.sign(dec.eigenvectors[:, 300])
        with pytest.raises(sg.OverflowRisk, match="^mode coefficients left double range$"):
            dec.coefficients(f)
        mult = np.zeros(dec.size)
        mult[:64] = 1e-300
        assert np.isfinite(dec.apply(mult, f)).all()
        mult[300] = 1e-300
        with pytest.raises(sg.OverflowRisk, match="^synthesized values left double range$"):
            dec.apply(mult, f)


class TestSemigroup:
    def test_time_zero_is_identity(self, chain3):
        gen, dec = chain3
        f = np.array([0.3, -1.2, 0.9])
        assert sg.semigroup_apply(dec, 0.0, f) == pytest.approx(f, abs=1e-14)

    def test_eigenmode_decay(self, chain2):
        _, dec = chain2
        phi1 = dec.eigenvectors[:, 1]
        out = sg.semigroup_apply(dec, 2.5, phi1)
        assert out == pytest.approx(np.exp(-2.5) * phi1, abs=1e-14)

    def test_two_state_frozen_value(self, chain2):
        _, dec = chain2
        out = sg.semigroup_apply(dec, 1.0, np.array([1.0, 0.0]))
        assert out == pytest.approx([0.6839397205857212, 0.3160602794142788], abs=1e-12)

    def test_negative_time_rejected(self, chain2):
        _, dec = chain2
        with pytest.raises(sg.NegativeTime):
            sg.semigroup_apply(dec, -0.1, np.array([1.0, 0.0]))

    def test_semigroup_law_and_contraction(self, ou50):
        gen, dec = ou50
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.standard_normal(gen.size)
            t, s = rng.uniform(0.0, 5.0, 2)
            lhs = sg.semigroup_apply(dec, t + s, f)
            rhs = sg.semigroup_apply(dec, t, sg.semigroup_apply(dec, s, f))
            nf = sg.norm(gen.space, f)
            assert sg.norm(gen.space, lhs - rhs) <= 1e-10 * nf
            assert sg.norm(gen.space, sg.semigroup_apply(dec, t, f)) <= nf * (1 + 1e-12)


class TestResolvent:
    def test_eigenmode(self, chain2):
        _, dec = chain2
        phi1 = dec.eigenvectors[:, 1]
        out = sg.resolvent_apply(dec, 1.0, phi1)
        assert out == pytest.approx(phi1 / 2.0, abs=1e-14)

    def test_two_state_frozen_value(self, chain2):
        _, dec = chain2
        out = sg.resolvent_apply(dec, 1.0, np.array([1.0, 0.0]))
        assert out == pytest.approx([0.75, 0.25], abs=1e-14)

    def test_rejects_non_positive_alpha(self, chain2):
        _, dec = chain2
        with pytest.raises(sg.NonPositiveAlpha):
            sg.resolvent_apply(dec, 0.0, np.array([1.0, 0.0]))

    def test_norm_bound_and_large_alpha_limit(self, jump30):
        gen, dec = jump30
        rng = np.random.default_rng(9)
        f = rng.standard_normal(gen.size)
        alpha = 0.37
        out = sg.resolvent_apply(dec, alpha, f)
        assert sg.norm(gen.space, out) <= sg.norm(gen.space, f) / alpha * (1 + 1e-12)
        big = 1e8
        limit = big * sg.resolvent_apply(dec, big, f)
        assert sg.norm(gen.space, limit - f) <= 3.0 / big * sg.norm(gen.space, f)

    def test_resolvent_identity(self, ou50):
        gen, dec = ou50
        rng = np.random.default_rng(14)
        f = rng.standard_normal(gen.size)
        a, b = 0.6, 2.3
        lhs = sg.resolvent_apply(dec, a, f) - sg.resolvent_apply(dec, b, f)
        rhs = (b - a) * sg.resolvent_apply(dec, a, sg.resolvent_apply(dec, b, f))
        assert sg.norm(gen.space, lhs - rhs) <= 1e-10 * sg.norm(gen.space, f)

    def test_quadrature_cross_check(self, chain2):
        # integral_0^inf exp(-a s) P_s f ds component-wise against the
        # closed-form 2x2 semigroup, adaptive quadrature as the oracle
        gen, dec = chain2
        f = np.array([0.8, -0.4])
        alpha = 1.3
        expected = sg.resolvent_apply(dec, alpha, f)
        for i in range(2):
            val, err = quad(
                lambda s, i=i: math.exp(-alpha * s) * (expm_2state(0.5, 0.5, s) @ f)[i],
                0.0,
                60.0,
            )
            assert abs(val - expected[i]) < 1e-9 + 10 * err


class TestCsvSerialization:
    def test_round_trip_and_format(self, chain3):
        gen, _ = chain3
        values = np.array([1.0 / 3.0, -2.5e-17, 3.14159])
        text = sg.vector_to_csv(gen.space, values)
        lines = text.split("\n")
        assert lines[0] == "index,x,m,value"
        assert text.endswith("\n") and "\r" not in text
        space2, values2 = sg.vector_from_csv(text)
        assert np.array_equal(values2, values)
        assert np.array_equal(space2.weights, gen.space.weights)
        # 17 significant digits re-serialize byte-identically
        assert sg.vector_to_csv(space2, values2) == text


_BAND_PROBE = r"""
import json
import numpy as np
import semigroupinv as sg
from semigroupinv import spectral

def killed(n):
    return sg.build_diffusion(sg.DiffusionSpec(
        0.0, 1.0, n, sigma=lambda x: 1.0 + 0.5 * x, kill=lambda x: np.full_like(x, 0.2),
        boundary_left="dirichlet", boundary_right="dirichlet"))

def dense_eigh(gen):
    # spectral_decompose's dense route, written out: eigh, clamp, C-ordered rescale
    sqrt_m = np.sqrt(gen.space.weights)
    sym = (-gen.matrix) * (sqrt_m[:, None] / sqrt_m[None, :])
    lam, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    scale = max(1.0, float(np.abs(lam).max()))
    lam[np.abs(lam) <= spectral.EIG_CLAMP * scale] = 0.0
    lam[lam < 0.0] = 0.0
    return lam, np.divide(vecs, sqrt_m[:, None], order="C")

models = {
    "chain2": lambda: sg.build_chain([[-0.5, 0.5], [0.5, -0.5]], [1.0, 1.0]),
    "ou8": lambda: sg.build_ou(6.0, 8, 1.0),
    "ou400": lambda: sg.build_ou(6.0, 400, 1.0),
    "ou1000": lambda: sg.build_ou(6.0, 1000, 1.0),
    "ou2000": lambda: sg.build_ou(6.0, 2000, 1.0),
    "killed2000": lambda: killed(2000),
    "laplacian400": lambda: sg.build_diffusion(sg.DiffusionSpec(0.0, np.pi, 400)),
}
# the band route, where numpy's LAPACK exports dstevd, and the fallback of one that does not
routes = {"dstevd": spectral._DSTEVD, "eigh": None}
if routes["dstevd"] is None:
    del routes["dstevd"]
out = {route: {} for route in routes}
for name, build in models.items():
    gen = build()
    lam, phi = dense_eigh(gen)
    w = gen.matrix * gen.space.weights[:, None]
    residual = np.max(np.abs(w - w.T) / np.maximum(np.maximum(np.abs(w), np.abs(w.T)), 1.0))
    for route, routine in routes.items():
        spectral._DSTEVD = routine
        dec = sg.spectral_decompose(gen)
        out[route][name] = {
            "bands": gen.bands is not None,
            "eigenvalues": lam.tobytes() == dec.eigenvalues.tobytes(),
            "eigenvectors": phi.tobytes() == dec.eigenvectors.tobytes(),
            "c_order": bool(dec.eigenvectors.flags.c_contiguous),
            "residual": [float(residual).hex(), gen.symmetry_residual.hex()],
        }
print(json.dumps(out))
"""

_SCIPY_PROBE = r"""
import json, sys
import numpy as np
import semigroupinv as sg
sg.spectral_decompose(sg.build_ou(6.0, 400, 1.0))
sg.spectral_decompose(sg.build_ou(6.0, 2000, 1.0))
sg.spectral_decompose(sg.build_diffusion(sg.DiffusionSpec(
    0.0, 1.0, 2000, sigma=lambda x: 1.0 + 0.5 * x, kill=lambda x: np.full_like(x, 0.2),
    boundary_left="dirichlet", boundary_right="dirichlet")))
print(json.dumps({"scipy": "scipy" in sys.modules}))
"""


class TestTridiagonalPath:
    """Band generators are checked on their bands and solved by ``dstevd``, with the dense bits.

    The identity holds because dense ``eigh`` (``dsyevd``) ends in the same
    ``dstedc`` as ``dstevd``; every size takes the band route, and a numpy
    or BLAS upgrade that breaks the identity, or renames the routine, fails here.
    Without the routine, ``eigh`` on the tridiagonal of the symmetrised bands
    gives the same bits too.  chain2 is a dense control.
    """

    def test_numpy_exports_dstevd(self):
        assert spectral._DSTEVD is not None, "numpy's LAPACK exports no dstevd under the names looked up"

    def test_band_path_has_the_bits_of_dense_eigh(self):
        # every route this numpy has: without dstevd, the eigh fallback alone
        result = single_thread_probe(_BAND_PROBE)
        assert set(result) == {"eigh"} | ({"dstevd"} if spectral._DSTEVD is not None else set())
        for route, models in result.items():
            assert set(models) == {"chain2", "ou8", "ou400", "ou1000", "ou2000", "killed2000", "laplacian400"}
            for name, same in models.items():
                assert same["bands"] == (name != "chain2"), (route, name)
                assert same["eigenvalues"] and same["eigenvectors"] and same["c_order"], (route, name)
                dense_residual, band_residual = same["residual"]
                assert band_residual == dense_residual, (route, name)

    @pytest.mark.parametrize("n", [3, 50, 1000])
    def test_band_eigenvectors_start_on_a_cache_line(self, n):
        # a GEMV over rows that start 16 bytes into a cache line ran 10-20% slower at n = 1000
        if spectral._DSTEVD is None:
            pytest.skip("no dstevd: the dense eigh's vectors are rescaled where eigh put them")
        dec = sg.spectral_decompose(sg.build_ou(6.0, n, 1.0))
        assert dec.eigenvectors.ctypes.data % 64 == 0
        assert dec.eigenvectors.flags.c_contiguous and not dec.eigenvectors.flags.writeable

    def test_decomposition_does_not_import_scipy(self):
        assert single_thread_probe(_SCIPY_PROBE) == {"scipy": False}

    def test_dstevd_failure_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr(spectral, "_DSTEVD", failing_dstevd)
        with pytest.raises(sg.NumericalError, match=r"dstevd failed with info = 1"):
            sg.spectral_decompose(sg.build_ou(6.0, 400, 1.0))

    def test_dense_eigh_failure_raises_numerical_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spectral.np.linalg, "eigh", failing_eigh)
        gen = sg.build_chain(np.full((3, 3), 1.0) - 3.0 * np.eye(3), [1.0, 1.0, 1.0])
        with pytest.raises(sg.NumericalError, match=r"dsyevd .*Eigenvalues did not converge"):
            sg.spectral_decompose(gen)

    @pytest.mark.parametrize(
        "matrix, weights",
        [
            ([[-1e308, 1e308], [1e308, -1e308]], [1.0, 1.0]),  # 0.5 (x + x) overflows on both bands
            (np.zeros((3, 3)), [1e308, 1.0, 5e-324]),  # 0 * s_0/s_2 = NaN off the bands
        ],
        ids=["band-entry", "off-band-ratio"],
    )
    @pytest.mark.parametrize("routine", [spectral._DSTEVD, None], ids=["band", "dense"])
    def test_overflowing_symmetrised_entry_raises(self, monkeypatch, matrix, weights, routine):
        # the matrix as a dense chain and as a band generator, on either band route
        monkeypatch.setattr(spectral, "_DSTEVD", routine)
        a = np.array(matrix)
        bands = np.diagonal(a, -1), np.diagonal(a), np.diagonal(a, 1)
        space = sg.build_space(np.arange(a.shape[0], dtype=float), weights)
        for gen in (sg.build_chain(a, weights), sg.SymmetricGenerator(space, bands)):
            with pytest.raises(sg.OverflowRisk, match="leaves double range"):
                sg.spectral_decompose(gen)
