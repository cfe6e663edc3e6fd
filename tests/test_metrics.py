"""Evaluation metrics: angles, deviations, suboptimality, histograms, the record."""

import math

import numpy as np
import pytest

from rcdiff.errors import DimensionError, ValidationError
from rcdiff import metrics
from rcdiff.metrics import (
    build_metrics_report,
    e1_exact_gaussian,
    moment_discrepancy,
    off_support_deviation,
    reward_histogram,
    subopt_decomposition,
    subspace_angle,
    suboptimality,
)
from rcdiff.oracle import (
    AnalyticScore,
    DiffusionSchedule,
    GaussianDesignOracle,
    sample_conditional_latents,
)
from rcdiff.regression import RidgeEstimate
from rcdiff.world import make_world, sample_orthonormal


def _unit_est(world, theta=None):
    theta = world.theta_star if theta is None else theta
    return RidgeEstimate(
        theta_hat=theta, lam=1.0, n2=8,
        sigma_hat_lambda=np.eye(world.D),
    )


class TestSubspaceAngle:
    def test_zero_for_identical_spans(self):
        A = sample_orthonormal(10, 4, seed=0)
        assert subspace_angle(A, A) == 0.0

    def test_orthogonal_spans_reach_twice_dimension(self):
        E = np.eye(64)
        V, A = E[:, :16], E[:, 16:32]
        assert abs(subspace_angle(V, A) - 32.0) < 1e-12

    def test_haar_expectation(self):
        # E ||VV^T - AA^T||_F^2 = 2 d (1 - d / D) for independent spans.
        A = sample_orthonormal(64, 16, seed=1)
        vals = [subspace_angle(sample_orthonormal(64, 16, seed=2000 + s), A)
                for s in range(10_000)]
        assert abs(np.mean(vals) - 24.0) < 0.24

    def test_symmetry_is_exact(self):
        V = sample_orthonormal(9, 3, seed=2)
        A = sample_orthonormal(9, 3, seed=3)
        assert subspace_angle(V, A) == subspace_angle(A, V)

    def test_rotation_invariance(self):
        V = sample_orthonormal(9, 3, seed=4)
        A = sample_orthonormal(9, 3, seed=5)
        Q = np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))[0]
        assert abs(subspace_angle(V @ Q, A) - subspace_angle(V, A)) < 1e-10

    def test_shape_and_orthonormality_errors(self):
        V = sample_orthonormal(9, 3, seed=4)
        with pytest.raises(DimensionError):
            subspace_angle(V, sample_orthonormal(9, 4, seed=5))
        with pytest.raises(ValidationError):
            subspace_angle(V * 2.0, V)


class TestOffSupportDeviation:
    def test_zero_on_support(self):
        w = make_world(D=8, d=3, seed=0)
        z = np.random.default_rng(1).standard_normal((50, 3))
        assert off_support_deviation(z @ w.A.T, w) < 1e-12

    def test_isotropic_gaussian_matches_chi_mean(self):
        w = make_world(D=12, d=4, seed=2)
        X = np.random.default_rng(3).standard_normal((200_000, 12))
        k = 8  # orthogonal dimensions
        chi_mean = math.sqrt(2) * math.gamma((k + 1) / 2) / math.gamma(k / 2)
        got = off_support_deviation(X, w)
        assert abs(got - chi_mean) / chi_mean < 0.01

    def test_early_stopped_oracle_batch_near_prediction(self):
        # The backward process leaves N(0, h(t0)) noise in the D - d
        # orthogonal directions, so the mean deviation is close to
        # sqrt(t0 (D - d)); the step size must be well below t0 for the
        # Euler variance bias to stay inside the band.
        from rcdiff.sampler import run_backward

        w = make_world(D=64, d=16, seed=4)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.5)
        sched = DiffusionSchedule(terminal_time=10.0, t0=0.01, eta=0.0025)
        [batch] = run_backward(AnalyticScore(orc), [1.0], 2048, sched, seeds=[5])
        predicted = math.sqrt(sched.t0 * (64 - 16))
        assert abs(off_support_deviation(batch.X, w) - predicted) / predicted < 0.15


class TestSuboptimality:
    def test_definition_on_support(self):
        w = make_world(D=6, d=2, offsupport_coeff=0.0, seed=0)
        z = np.random.default_rng(1).standard_normal((5000, 2))
        X = z @ w.A.T
        m = float(np.mean(X @ w.theta_star))
        subopt, avg = suboptimality(X, w, a=3.0)
        assert abs(avg - m) < 1e-12
        assert subopt == 3.0 - avg

    def test_perfect_conditioning_gives_zero_gap(self):
        w = make_world(D=6, d=3, seed=2)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=1e-6)
        z = sample_conditional_latents(orc, 1.5, 200_000, np.random.default_rng(3))
        subopt, _ = suboptimality(z @ w.A.T, w, a=1.5)
        assert abs(subopt) < 0.01

    def test_affine_shift_property(self):
        w = make_world(D=6, d=2, seed=4)
        X = np.random.default_rng(5).standard_normal((100, 2)) @ w.A.T
        c = 0.75
        shifted = X + c * w.theta_star  # stays on support
        s0, r0 = suboptimality(X, w, a=2.0)
        s1, r1 = suboptimality(shifted, w, a=2.0)
        assert abs(r1 - (r0 + c)) < 1e-9
        assert abs(s1 - (s0 - c)) < 1e-9


class TestDecomposition:
    def _setup(self, nu=0.5, seed=0):
        w = make_world(D=8, d=3, seed=seed)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=nu)
        return w, orc

    def test_exact_reward_estimate_kills_e1(self):
        w, orc = self._setup()
        X = np.random.default_rng(1).standard_normal((100, 3)) @ w.A.T
        dec = subopt_decomposition(X, w, _unit_est(w), orc, a=2.0, seed=2)
        assert dec.e1 == 0.0

    def test_e1_positive_for_wrong_estimate(self):
        w, orc = self._setup()
        theta = w.theta_star + 0.3 * np.eye(8)[:, 0]
        X = np.random.default_rng(1).standard_normal((100, 3)) @ w.A.T
        dec = subopt_decomposition(X, w, _unit_est(w, theta), orc, a=2.0, seed=2)
        assert dec.e1 > 0.0

    def test_e1_matches_folded_normal_closed_form(self):
        w, orc = self._setup(nu=0.4, seed=3)
        rng = np.random.default_rng(4)
        theta = w.theta_star + 0.2 * rng.standard_normal(8)
        est = _unit_est(w, theta)
        X = rng.standard_normal((10, 3)) @ w.A.T
        dec = subopt_decomposition(X, w, est, orc, a=2.0, n_ref=400_000, seed=5)
        exact = e1_exact_gaussian(w, est, orc, a=2.0)
        assert abs(dec.e1 - exact) <= 4 * dec.e1_se

    def test_same_law_batch_kills_e2(self):
        w, orc = self._setup(seed=6)
        rng = np.random.default_rng(7)
        z = sample_conditional_latents(orc, 2.0, 50_000, rng)
        dec = subopt_decomposition(z @ w.A.T, w, _unit_est(w), orc, a=2.0,
                                   n_ref=50_000, seed=8)
        assert dec.e2 <= 3 * dec.e2_se

    def test_on_support_batch_kills_e3(self):
        w, orc = self._setup()
        X = np.random.default_rng(9).standard_normal((100, 3)) @ w.A.T
        dec = subopt_decomposition(X, w, _unit_est(w), orc, a=0.0, seed=10)
        assert dec.e3 < 1e-12

    def test_e3_is_magnitude_of_off_support_reward(self):
        w, orc = self._setup()
        rng = np.random.default_rng(11)
        X = rng.standard_normal((200, 8))
        from rcdiff.world import decompose

        _, x_perp = decompose(w, X)
        expected = w.offsupport_coeff * float(np.mean(np.sum(x_perp**2, axis=1)))
        dec = subopt_decomposition(X, w, _unit_est(w), orc, a=0.0, seed=12)
        assert abs(dec.e3 - expected) < 1e-12


class TestPushforwardDiscrepancy:
    def test_oracle_batch_has_small_latent_gaps(self):
        from rcdiff.oracle import noised_conditional_law
        from rcdiff.sampler import run_backward

        w = make_world(D=8, d=3, seed=0)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.5)
        sched = DiffusionSchedule(terminal_time=10.0, t0=0.01, eta=0.005)
        [batch] = run_backward(AnalyticScore(orc), [2.0], 8192, sched, seeds=[1])
        # Latent push-forward through the true frame against the noised
        # conditional latent law at the early-stop time.
        mean, cov = noised_conditional_law(orc, 2.0, sched.t0)
        law = (w.A.T @ mean, w.A.T @ cov @ w.A)
        mean_gap, cov_gap = moment_discrepancy(batch.X @ w.A, law)
        assert mean_gap < 0.1
        assert cov_gap < 0.1


class TestMomentDiscrepancy:
    def test_clt_scale_for_matched_batch(self):
        rng = np.random.default_rng(0)
        cov = np.diag([1.0, 0.5, 0.25])
        X = rng.standard_normal((100_000, 3)) * np.sqrt(np.diag(cov))
        mean_gap, cov_gap = moment_discrepancy(X, (np.zeros(3), cov))
        assert mean_gap < 4 * math.sqrt(np.trace(cov) / 100_000)
        assert cov_gap < 0.02

    def test_degenerate_batch_against_standard_normal(self):
        X = np.zeros((50, 4))
        mean_gap, cov_gap = moment_discrepancy(X, (np.zeros(4), np.eye(4)))
        assert mean_gap == 0.0
        assert abs(cov_gap - 1.0) < 1e-12


class TestRewardHistogram:
    def test_single_point_single_bin(self):
        w = make_world(D=4, d=2, seed=0)
        x = (w.A @ np.array([0.5, -0.5])).reshape(1, -1)
        counts, _ = reward_histogram(x, w, bins=1)
        assert counts.tolist() == [1]
        assert counts.sum() == 1

    def test_counts_sum_and_monotone_edges(self):
        w = make_world(D=4, d=2, seed=1)
        X = np.random.default_rng(2).standard_normal((1000, 2)) @ w.A.T
        counts, edges = reward_histogram(X, w, bins=17)
        assert counts.sum() == 1000
        assert np.all(np.diff(edges) > 0)

    def test_standard_normal_reward_mean(self):
        w = make_world(D=6, d=3, offsupport_coeff=0.0, seed=3)
        z = np.random.default_rng(4).standard_normal((100_000, 3))
        # theta* has unit norm, so on-support rewards are standard normal.
        counts, edges = reward_histogram(z @ w.A.T, w, bins=100)
        centers = 0.5 * (edges[:-1] + edges[1:])
        assert abs(np.sum(centers * counts) / counts.sum()) < 0.02

    def test_rejects_empty_binning(self):
        w = make_world(D=4, d=2, seed=0)
        with pytest.raises(ValidationError):
            reward_histogram(np.zeros((3, 4)), w, bins=0)


class TestMetricsReport:
    def _report(self):
        from rcdiff.sampler import SampleBatch

        w = make_world(D=6, d=2, seed=0)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.5)
        X = np.random.default_rng(1).standard_normal((40, 6))
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.05, eta=0.05)
        batch = SampleBatch(X=X, a=2.0, schedule=sched, score_id="zero", seed=[0, 20, 1])
        return build_metrics_report(batch, w, _unit_est(w), orc, w.A, n_ref=100, bins=4,
                                    seed=3)

    def test_rejects_non_finite(self, monkeypatch):
        monkeypatch.setattr(metrics, "distro_shift_surrogate",
                            lambda oracle, a: (float("nan"), float("nan")))
        with pytest.raises(ValidationError, match="non-finite"):
            self._report()

    def test_subopt_identity_enforced(self, monkeypatch):
        exact = metrics.suboptimality
        monkeypatch.setattr(metrics, "suboptimality",
                            lambda X, w, a: (exact(X, w, a)[0] + 0.1, exact(X, w, a)[1]))
        with pytest.raises(ValidationError, match="subopt"):
            self._report()

    def test_record_layout(self):
        record = self._report()
        assert sorted(record) == [
            "a", "avg_reward", "distro_shift", "distro_shift_kind", "e1", "e2", "e3",
            "histogram", "moment_discrepancy", "n", "off_support_mean", "score_id",
            "seed", "subopt", "subspace_angle",
        ]
        assert sorted(record["moment_discrepancy"]) == ["cov_gap", "mean_gap"]
        assert sorted(record["histogram"]) == ["counts", "edges"]
        assert record["distro_shift_kind"] == "known-sigma-surrogate"
        assert (record["a"], record["n"], record["seed"]) == (2.0, 40, [0, 20, 1])
        assert record["subopt"] == record["a"] - record["avg_reward"]
        assert sum(record["histogram"]["counts"]) == 40
        assert len(record["histogram"]["edges"]) == 5
