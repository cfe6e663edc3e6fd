"""Ridge fitting, pseudo-labeling, coverage traces, target covariance."""

import numpy as np
import pytest

from rcdiff.errors import ValidationError
from rcdiff.oracle import GaussianDesignOracle, sample_conditional_latents
from rcdiff.regression import (
    RidgeEstimate,
    coverage_trace,
    coverage_trace_factored,
    default_nu,
    fit_ridge,
    pseudo_label,
    target_covariance,
)
from rcdiff.world import LabeledDataset, generate_datasets, make_world


def _random_spd(rng, d):
    G = rng.standard_normal((d, d))
    return G @ G.T / d + 0.1 * np.eye(d)


class TestFitRidge:
    def test_default_lambda_is_one(self):
        w = make_world(D=6, d=2, seed=0)
        _, labeled = generate_datasets(w, n1=2, n2=64, noise_sigma=0.1, seed=1)
        est = fit_ridge(labeled)
        assert est.lam == 1.0

    def test_normal_equation_residual(self):
        w = make_world(D=12, d=4, seed=2)
        _, labeled = generate_datasets(w, n1=2, n2=256, noise_sigma=0.2, seed=3)
        est = fit_ridge(labeled, lam=0.5)
        gram = labeled.X.T @ labeled.X + 0.5 * np.eye(12)
        rhs = labeled.X.T @ labeled.y
        resid = np.linalg.norm(gram @ est.theta_hat - rhs)
        assert resid <= 1e-8 * np.linalg.norm(rhs)

    def test_large_lambda_shrinks_to_zero(self):
        w = make_world(D=8, d=3, seed=4)
        _, labeled = generate_datasets(w, n1=2, n2=128, noise_sigma=0.1, seed=5)
        est = fit_ridge(labeled, lam=1e12)
        assert np.linalg.norm(est.theta_hat) < 1e-6

    def test_noiseless_recovery(self):
        w = make_world(D=64, d=16, seed=6)
        _, labeled = generate_datasets(w, n1=2, n2=1024, noise_sigma=0.0, seed=7)
        est = fit_ridge(labeled, lam=1e-8)
        assert np.linalg.norm(est.theta_hat - w.theta_star) < 1e-3

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_rejects_non_finite_lambda(self, lam):
        # An inf/nan Gram matrix passes the symmetry and residual checks,
        # which compare NaN as False.
        w = make_world(D=8, d=2, seed=0)
        _, labeled = generate_datasets(w, n1=2, n2=64, noise_sigma=0.1, seed=1)
        with pytest.raises(ValidationError):
            fit_ridge(labeled, lam=lam)

    def test_estimate_rejects_non_finite_entries(self):
        with pytest.raises(ValidationError):
            RidgeEstimate(theta_hat=np.full(3, np.nan), lam=1.0, n2=10,
                          sigma_hat_lambda=np.eye(3))
        with pytest.raises(ValidationError):
            RidgeEstimate(theta_hat=np.zeros(3), lam=1.0, n2=10,
                          sigma_hat_lambda=np.full((3, 3), np.nan))

    def test_lambda_zero_requires_full_rank(self):
        # Subspace data is rank deficient in ambient dimension.
        w = make_world(D=8, d=2, seed=8)
        _, labeled = generate_datasets(w, n1=2, n2=64, noise_sigma=0.1, seed=9)
        with pytest.raises(ValidationError, match="rank deficient"):
            fit_ridge(labeled, lam=0.0)

    def test_lambda_zero_allowed_when_well_conditioned(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((128, 6))
        theta = rng.standard_normal(6)
        data = LabeledDataset(X=X, y=X @ theta)
        est = fit_ridge(data, lam=0.0)
        np.testing.assert_allclose(est.theta_hat, theta, atol=1e-8)

    def test_rotation_equivariance(self):
        w = make_world(D=10, d=3, seed=11)
        _, labeled = generate_datasets(w, n1=2, n2=256, noise_sigma=0.2, seed=12)
        Q = np.linalg.qr(np.random.default_rng(13).standard_normal((10, 10)))[0]
        rotated = LabeledDataset(X=labeled.X @ Q.T, y=labeled.y)
        t1 = fit_ridge(labeled, lam=0.7).theta_hat
        t2 = fit_ridge(rotated, lam=0.7).theta_hat
        np.testing.assert_allclose(t2, Q @ t1, atol=1e-9)

    def test_error_monotone_in_sample_size(self):
        sizes = (512, 2048, 8192)
        medians = []
        for n2 in sizes:
            errs = []
            for seed in range(5):
                w = make_world(D=32, d=8, seed=100 + seed)
                _, labeled = generate_datasets(w, n1=2, n2=n2, noise_sigma=0.3,
                                               seed=200 + seed)
                est = fit_ridge(labeled, lam=1.0)
                errs.append(np.linalg.norm(est.theta_hat - w.theta_star))
            medians.append(np.median(errs))
        assert medians[0] >= medians[1] >= medians[2]


class TestPseudoLabel:
    def test_default_noise_level(self):
        assert abs(default_nu(64) - 0.125) < 1e-15

    def test_zero_noise_is_exact_prediction(self):
        w = make_world(D=8, d=3, seed=0)
        unlabeled, labeled = generate_datasets(w, n1=64, n2=64, noise_sigma=0.1, seed=1)
        est = fit_ridge(labeled)
        curated = pseudo_label(unlabeled, est, nu=0.0, seed=2)
        np.testing.assert_allclose(curated.y, unlabeled @ est.theta_hat, atol=1e-14)

    def test_noise_variance(self):
        w = make_world(D=8, d=3, seed=0)
        unlabeled, labeled = generate_datasets(w, n1=100_000, n2=64, noise_sigma=0.1, seed=1)
        est = fit_ridge(labeled)
        nu = 0.35
        curated = pseudo_label(unlabeled, est, nu=nu, seed=3)
        resid = curated.y - unlabeled @ est.theta_hat
        assert abs(resid.var() / nu**2 - 1.0) < 0.03

    def test_rejects_negative_nu(self):
        w = make_world(D=4, d=2, seed=0)
        unlabeled, labeled = generate_datasets(w, n1=8, n2=8, noise_sigma=0.1, seed=1)
        est = fit_ridge(labeled)
        with pytest.raises(ValidationError):
            pseudo_label(unlabeled, est, nu=-0.1, seed=0)


class TestCoverageTrace:
    def test_identity_times_identity(self):
        est = RidgeEstimate(
            theta_hat=np.zeros(7), lam=1.0, n2=10, sigma_hat_lambda=np.eye(7)
        )
        assert abs(coverage_trace(est, np.eye(7)) - 7.0) < 1e-12

    def test_estimate_paths_agree_on_support_data(self):
        w = make_world(D=12, d=5, seed=1)
        _, labeled = generate_datasets(w, n1=2, n2=512, noise_sigma=0.1, seed=2)
        est = fit_ridge(labeled, lam=0.9)
        s2 = _random_spd(np.random.default_rng(3), 5)
        full = coverage_trace(est, w.A @ s2 @ w.A.T)
        factored = coverage_trace_factored(est, w.A, s2)
        assert abs(full - factored) <= 1e-8 * abs(factored)

    def test_nondecreasing_in_target_value(self):
        w = make_world(D=64, d=16, seed=4)
        _, labeled = generate_datasets(w, n1=2, n2=8192, noise_sigma=0.1, seed=5)
        est = fit_ridge(labeled, lam=1.0)
        oracle = GaussianDesignOracle(world=w, beta_hat=est.beta_hat(w), nu=default_nu(64))
        values = [
            coverage_trace(est, target_covariance(oracle, a)) for a in (0.0, 2.0, 4.0, 8.0)
        ]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        # Coverage scales like a^2 / |beta|_Sigma plus a d-sized floor.
        assert values[0] < 2.5 * 16

    def test_rejects_non_psd(self):
        est = RidgeEstimate(
            theta_hat=np.zeros(3), lam=1.0, n2=4, sigma_hat_lambda=np.eye(3)
        )
        with pytest.raises(ValidationError):
            coverage_trace(est, np.diag([1.0, -0.5, 0.2]))


class TestTargetCovariance:
    def test_zero_target_closed_form(self):
        w = make_world(D=6, d=3, seed=0)
        beta = w.beta_star  # unit vector
        got = target_covariance(GaussianDesignOracle(world=w, beta_hat=beta, nu=1.0), a=0.0)
        expected = w.A @ (np.eye(3) - 0.5 * np.outer(beta, beta)) @ w.A.T
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_large_nu_washes_out_conditioning(self):
        w = make_world(D=6, d=3, seed=1)
        got = target_covariance(GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=1e6),
                                a=3.0)
        expected = w.A @ w.Sigma @ w.A.T
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_matches_monte_carlo_second_moment(self):
        w = make_world(D=7, d=4, seed=2)
        oracle = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.5)
        a = 2.0
        got = target_covariance(oracle, a=a)
        z = sample_conditional_latents(oracle, a, 1_000_000, np.random.default_rng(3))
        X = z @ w.A.T
        emp = X.T @ X / X.shape[0]
        assert np.max(np.abs(emp - got)) < 0.01 * max(1.0, np.max(np.abs(got)))

    def test_symmetric_psd_low_rank(self):
        w = make_world(D=9, d=3, seed=5)
        S = target_covariance(GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.25),
                              a=4.0)
        np.testing.assert_allclose(S, S.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(S)
        assert eigs.min() > -1e-10
        assert np.sum(eigs > 1e-10) <= 3
