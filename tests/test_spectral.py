"""Spectral core: spaces, m-symmetry, decomposition, functional calculus."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import semigroupinv as sg
from conftest import expm_2state

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
