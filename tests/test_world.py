"""Ground-truth generator: subspace sampling, rewards, datasets."""

import numpy as np
import pytest

from rcdiff.errors import ValidationError
from rcdiff.world import (
    SubspaceWorld,
    decompose,
    generate_datasets,
    make_world,
    orthonormal_columns,
    sample_orthonormal,
    true_reward,
)


class TestSampleOrthonormal:
    def test_square_case_is_orthogonal(self):
        A = sample_orthonormal(3, 3, seed=0)
        np.testing.assert_allclose(A.T @ A, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(A @ A.T, np.eye(3), atol=1e-12)

    def test_single_column_is_unit_vector(self):
        a = sample_orthonormal(2, 1, seed=5)
        assert a.shape == (2, 1)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_all_column_pairs_orthogonal_at_scale(self):
        A = sample_orthonormal(64, 16, seed=7)
        for i in range(16):
            for j in range(i + 1, 16):
                assert abs(A[:, i] @ A[:, j]) < 1e-10

    def test_rejects_d_larger_than_D(self):
        with pytest.raises(ValidationError, match="need 1 <= d <= D"):
            sample_orthonormal(3, 4, seed=0)

    def test_deterministic_in_seed(self):
        A1 = sample_orthonormal(10, 4, seed=3)
        A2 = sample_orthonormal(10, 4, seed=3)
        assert np.array_equal(A1, A2)

    def test_left_rotation_invariance_of_law(self):
        # The first-column law should be uniform on the sphere: the mean of
        # any fixed coordinate over many seeds vanishes.
        firsts = np.array([sample_orthonormal(6, 2, seed=s)[:, 0] for s in range(2000)])
        assert np.max(np.abs(firsts.mean(axis=0))) < 0.05


class TestOrthonormalColumns:
    def test_basis_of_the_span_with_positive_r_diagonal(self):
        G = np.random.default_rng(1).standard_normal((7, 3))
        Q = orthonormal_columns(G)
        np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-12)
        R = Q.T @ G  # G = Q R, R upper triangular with a positive diagonal
        np.testing.assert_allclose(Q @ R, G, atol=1e-12)
        np.testing.assert_allclose(np.tril(R, -1), 0.0, atol=1e-12)
        assert np.all(np.diag(R) > 0)

    def test_rank_deficient_input_names_the_matrix(self):
        with pytest.raises(ValidationError, match="G is rank deficient"):
            orthonormal_columns(np.ones((5, 2)), "G")


class TestMakeWorld:
    def test_default_configuration(self):
        w = make_world(seed=0)
        assert (w.D, w.d) == (64, 16)
        np.testing.assert_array_equal(w.Sigma, np.eye(16))
        assert w.offsupport_coeff == 5.0
        assert w.offsupport_sign == "penalty"
        assert abs(np.linalg.norm(w.beta_star) - 1.0) < 1e-12
        assert abs(np.linalg.norm(w.theta_star) - 1.0) < 1e-12

    def test_full_dimensional_special_case(self):
        w = make_world(D=5, d=5, seed=1)
        np.testing.assert_allclose(w.A @ w.A.T, np.eye(5), atol=1e-10)
        x = np.random.default_rng(0).standard_normal(5)
        x_par, x_perp = decompose(w, x)
        np.testing.assert_allclose(x_par, x, atol=1e-10)
        np.testing.assert_allclose(x_perp, 0.0, atol=1e-10)

    def test_sphere_sampling_moments(self):
        rng = np.random.default_rng(11)
        from rcdiff.world import sample_unit_sphere

        draws = np.array([sample_unit_sphere(16, rng) for _ in range(100_000)])
        norms = np.linalg.norm(draws, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_rejects_non_spd_sigma(self):
        with pytest.raises(ValidationError):
            make_world(D=4, d=2, sigma=np.array([[1.0, 2.0], [2.0, 1.0]]), seed=0)

    def test_rejects_sigma_eigenvalues_above_one(self):
        with pytest.raises(ValidationError):
            make_world(D=4, d=2, sigma=np.diag([1.5, 0.5]), seed=0)


class TestTrueReward:
    def test_on_support_is_linear_part_only(self):
        w = make_world(D=6, d=2, seed=3)
        z = np.array([0.7, -1.2])
        x = w.A @ z
        assert abs(true_reward(w, x) - w.theta_star @ x) < 1e-12

    def test_pure_orthogonal_unit_input_with_penalty(self):
        w = make_world(D=6, d=2, offsupport_coeff=5.0, seed=3)
        # Build a unit vector orthogonal to the support.
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6)
        v -= w.A @ (w.A.T @ v)
        v /= np.linalg.norm(v)
        assert abs(true_reward(w, v) - (-5.0)) < 1e-10

    def test_bonus_sign_flips_off_support_term(self):
        w = make_world(D=6, d=2, offsupport_coeff=3.0, offsupport_sign="bonus", seed=3)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6)
        v -= w.A @ (w.A.T @ v)
        v /= np.linalg.norm(v)
        assert abs(true_reward(w, v) - 3.0) < 1e-10

    def test_matches_gram_schmidt_projector_oracle(self):
        w = make_world(D=6, d=2, seed=9)
        # Independent projector via classical Gram-Schmidt on the columns.
        q1 = w.A[:, 0] / np.linalg.norm(w.A[:, 0])
        q2 = w.A[:, 1] - (q1 @ w.A[:, 1]) * q1
        q2 /= np.linalg.norm(q2)
        P = np.outer(q1, q1) + np.outer(q2, q2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = 2.0 * rng.standard_normal(6)
            x_par = P @ x
            x_perp = x - x_par
            expected = w.theta_star @ x_par - 5.0 * x_perp @ x_perp
            assert abs(true_reward(w, x) - expected) < 1e-9

    def test_linear_on_support(self):
        w = make_world(D=8, d=3, seed=2)
        rng = np.random.default_rng(1)
        z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
        lhs = true_reward(w, w.A @ (z1 + z2))
        rhs = true_reward(w, w.A @ z1) + true_reward(w, w.A @ z2)
        assert abs(lhs - rhs) < 1e-9

    def test_vectorized_matches_rowwise(self):
        w = make_world(D=5, d=2, seed=6)
        X = np.random.default_rng(2).standard_normal((7, 5))
        batch = true_reward(w, X)
        rows = [true_reward(w, x) for x in X]
        np.testing.assert_allclose(batch, rows, atol=1e-12)


class TestDecompose:
    def test_on_support_input(self):
        w = make_world(D=6, d=2, seed=0)
        x = w.A @ np.array([1.0, -2.0])
        x_par, x_perp = decompose(w, x)
        np.testing.assert_allclose(x_par, x, atol=1e-12)
        np.testing.assert_allclose(x_perp, 0.0, atol=1e-12)

    def test_orthogonal_input(self):
        w = make_world(D=6, d=2, seed=0)
        v = np.random.default_rng(3).standard_normal(6)
        v -= w.A @ (w.A.T @ v)
        x_par, x_perp = decompose(w, v)
        np.testing.assert_allclose(x_par, 0.0, atol=1e-12)
        np.testing.assert_allclose(x_perp, v, atol=1e-12)

    def test_pythagoras(self):
        w = make_world(D=10, d=4, seed=1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.standard_normal(10)
            x_par, x_perp = decompose(w, x)
            assert abs(x_par @ x_perp) < 1e-10
            assert abs(x @ x - (x_par @ x_par + x_perp @ x_perp)) < 1e-9

    def test_idempotent(self):
        w = make_world(D=10, d=4, seed=1)
        x = np.random.default_rng(6).standard_normal(10)
        x_par, _ = decompose(w, x)
        again_par, again_perp = decompose(w, x_par)
        np.testing.assert_allclose(again_par, x_par, atol=1e-12)
        np.testing.assert_allclose(again_perp, 0.0, atol=1e-10)


class TestGenerateDatasets:
    def test_default_sizes(self):
        w = make_world(seed=0)
        unlabeled, labeled = generate_datasets(w, seed=1)
        assert unlabeled.shape == (65536, 64)
        assert labeled.n == 8192

    def test_noiseless_labels_are_exact(self):
        w = make_world(D=8, d=3, seed=2)
        _, labeled = generate_datasets(w, n1=16, n2=200, noise_sigma=0.0, seed=3)
        np.testing.assert_allclose(labeled.y, labeled.X @ w.theta_star, atol=1e-12)

    def test_data_lies_on_support(self):
        w = make_world(D=16, d=4, seed=4)
        unlabeled, labeled = generate_datasets(w, n1=500, n2=300, noise_sigma=0.2, seed=5)
        for X in (unlabeled, labeled.X):
            _, x_perp = decompose(w, X)
            assert np.max(np.linalg.norm(x_perp, axis=1)) < 1e-8

    def test_latent_covariance_matches_sigma(self):
        sigma = np.diag([1.0, 0.6, 0.3])
        w = make_world(D=5, d=3, sigma=sigma, seed=6)
        unlabeled, _ = generate_datasets(w, n1=100_000, n2=2, noise_sigma=0.1, seed=7)
        z = unlabeled @ w.A
        emp = z.T @ z / z.shape[0]
        assert np.max(np.abs(emp - sigma)) < 0.03

    def test_seeded_determinism_bit_identical(self):
        w = make_world(D=8, d=3, seed=2)
        u1, l1 = generate_datasets(w, n1=100, n2=50, noise_sigma=0.3, seed=9)
        u2, l2 = generate_datasets(w, n1=100, n2=50, noise_sigma=0.3, seed=9)
        assert np.array_equal(u1, u2)
        assert np.array_equal(l1.X, l2.X)
        assert np.array_equal(l1.y, l2.y)

    def test_rejects_bad_noise(self):
        w = make_world(D=4, d=2, seed=0)
        with pytest.raises(ValidationError):
            generate_datasets(w, n1=4, n2=4, noise_sigma=1.0, seed=0)
        with pytest.raises(ValidationError):
            generate_datasets(w, n1=0, n2=4, noise_sigma=0.1, seed=0)


class TestWorldValidation:
    def test_rejects_non_orthonormal_A(self):
        with pytest.raises(ValidationError):
            SubspaceWorld(
                A=np.ones((4, 2)), Sigma=np.eye(2), beta_star=np.array([1.0, 0.0])
            )

    def test_rejects_non_unit_beta(self):
        A = sample_orthonormal(4, 2, seed=0)
        with pytest.raises(ValidationError):
            SubspaceWorld(A=A, Sigma=np.eye(2), beta_star=np.array([1.0, 1.0]))

    def test_rejects_negative_coefficient(self):
        A = sample_orthonormal(4, 2, seed=0)
        with pytest.raises(ValidationError):
            SubspaceWorld(
                A=A, Sigma=np.eye(2), beta_star=np.array([1.0, 0.0]),
                offsupport_coeff=-1.0,
            )
