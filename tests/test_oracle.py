"""Closed-form Gaussian-design quantities against independent references."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcdiff.errors import ValidationError
from rcdiff.oracle import (
    DiffusionSchedule,
    GaussianDesignOracle,
    alpha_of,
    analytic_score,
    b_matrix,
    conditional_latent_law,
    distro_shift_surrogate,
    h_of,
    latent_second_moment,
    log_density_quadrature,
    noised_conditional_law,
    sample_conditional_latents,
)
from rcdiff.world import make_world


def _oracle(D=6, d=3, seed=0, nu=0.5, beta=None, sigma=None):
    w = make_world(D=D, d=d, sigma=sigma, seed=seed)
    b = w.beta_star if beta is None else np.asarray(beta, dtype=float)
    return GaussianDesignOracle(world=w, beta_hat=b, nu=nu)


class TestSchedule:
    def test_alpha_squared_plus_h_is_one(self):
        t = np.linspace(1e-9, 80.0, 10_000)
        assert np.max(np.abs(alpha_of(t) ** 2 + h_of(t) - 1.0)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            DiffusionSchedule(terminal_time=1.0, t0=2.0, eta=0.1)
        with pytest.raises(ValidationError):
            DiffusionSchedule(terminal_time=1.0, t0=0.1, eta=0.2)
        with pytest.raises(ValidationError):
            DiffusionSchedule(terminal_time=1.0, t0=0.0, eta=0.1)
        # Degenerate t0 == T is allowed: zero-length generation window.
        DiffusionSchedule(terminal_time=1.0, t0=1.0, eta=0.5)


class TestBMatrix:
    def test_identity_when_no_conditioning(self):
        orc = _oracle(beta=np.zeros(3), nu=1.0)
        for t in (0.05, 0.7, 3.0, 12.0):
            np.testing.assert_allclose(b_matrix(orc, t), np.eye(3), atol=1e-12)

    def test_scalar_value_at_log_two(self):
        orc = _oracle(D=3, d=1, beta=np.array([1.0]), nu=1.0)
        got = b_matrix(orc, np.log(2.0))[0, 0]
        assert abs(got - 2.0 / 3.0) < 1e-12

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((4, 4))
        sigma = G @ G.T / 8 + 0.05 * np.eye(4)
        sigma /= 1.1 * np.linalg.eigvalsh(sigma).max()
        orc = _oracle(D=9, d=4, sigma=sigma, nu=0.3, seed=2)
        times = np.array([0.1, 1.0, 5.0])
        stacked = b_matrix(orc, times)
        assert stacked.shape == (3, 4, 4)
        for k, t in enumerate(times):
            M = (
                alpha_of(t) ** 2 * np.eye(4)
                + (h_of(t) / 0.3**2) * np.outer(orc.beta_hat, orc.beta_hat)
                + h_of(t) * np.linalg.inv(sigma)
            )
            for B in (b_matrix(orc, t), stacked[k]):
                np.testing.assert_allclose(B @ M, np.eye(4), atol=1e-10)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValidationError):
            b_matrix(_oracle(), 0.0)


class TestAnalyticScore:
    def test_standard_gaussian_marginal(self):
        # Identity latent covariance and no reward coupling: the noised
        # marginal is standard normal on the support at every t, so the
        # score of an on-support point is -x.
        orc = _oracle(beta=np.zeros(3), nu=1.0)
        x = orc.world.A @ np.array([0.3, -1.1, 0.8])
        for t in (0.05, 1.0, 4.0):
            np.testing.assert_allclose(analytic_score(orc, x, 2.0, t), -x, atol=1e-10)

    def test_orthogonal_input_pure_shrinkage(self):
        # The orthogonal component of the score is always -x_perp / h.  The
        # full score at an orthogonal point equals -x/h exactly only when
        # the label carries no information (zero label or zero coupling):
        # otherwise conditioning shifts the on-support mean away from zero.
        orc = _oracle(nu=0.4)
        A = orc.world.A
        rng = np.random.default_rng(3)
        v = rng.standard_normal(6)
        v -= A @ (A.T @ v)
        for t, y in ((0.2, 1.5), (2.0, -0.7)):
            s = analytic_score(orc, v, y, t)
            np.testing.assert_allclose(s - A @ (A.T @ s), -v / h_of(t), atol=1e-10)
        for t in (0.2, 2.0):
            np.testing.assert_allclose(
                analytic_score(orc, v, 0.0, t), -v / h_of(t), atol=1e-10
            )
        zero_coupling = _oracle(beta=np.zeros(3), nu=0.4)
        v0 = rng.standard_normal(6)
        v0 -= zero_coupling.world.A @ (zero_coupling.world.A.T @ v0)
        np.testing.assert_allclose(
            analytic_score(zero_coupling, v0, 1.5, 0.7), -v0 / h_of(0.7), atol=1e-10
        )

    def test_rejects_nonpositive_time(self):
        orc = _oracle()
        with pytest.raises(ValidationError):
            analytic_score(orc, np.zeros(6), 0.0, 0.0)
        with pytest.raises(ValidationError):
            analytic_score(orc, np.zeros(6), 0.0, -1.0)

    def test_linearity_in_x_and_y(self):
        orc = _oracle(nu=0.6, seed=6)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x1, x2 = rng.standard_normal((2, 6))
            y1, y2 = rng.standard_normal(2)
            c1, c2 = rng.uniform(-2, 2, 2)
            t = float(rng.uniform(0.05, 5.0))
            lhs = analytic_score(orc, c1 * x1 + c2 * x2, c1 * y1 + c2 * y2, t)
            rhs = c1 * analytic_score(orc, x1, y1, t) + c2 * analytic_score(orc, x2, y2, t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_batch_with_per_row_times(self):
        orc = _oracle(seed=7)
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 6))
        y = rng.standard_normal(6)
        t = rng.uniform(0.05, 4.0, 6)
        batched = analytic_score(orc, X, y, t)
        rows = np.stack(
            [analytic_score(orc, X[i], y[i], float(t[i])) for i in range(6)]
        )
        np.testing.assert_allclose(batched, rows, atol=1e-13)


class TestConditionalLatentLaw:
    def test_zero_target(self):
        orc = _oracle(nu=0.5)
        mean, cov = conditional_latent_law(orc, 0.0)
        np.testing.assert_allclose(mean, 0.0, atol=1e-15)
        S, b = orc.world.Sigma, orc.beta_hat
        gamma = S - np.outer(S @ b, S @ b) / (b @ S @ b + 0.25)
        np.testing.assert_allclose(cov, gamma, atol=1e-12)

    def test_unit_substitution_case(self):
        orc = _oracle(D=6, d=3, beta=np.array([1.0, 0.0, 0.0]), nu=1.0)
        mean, cov = conditional_latent_law(orc, 2.0)
        np.testing.assert_allclose(mean, [1.0, 0.0, 0.0], atol=1e-14)
        expected = np.eye(3)
        expected[0, 0] = 0.5
        np.testing.assert_allclose(cov, expected, atol=1e-14)

    def test_label_regression_recovers_slope(self):
        orc = _oracle(D=8, d=4, nu=0.7, seed=3)
        rng = np.random.default_rng(4)
        S, b = orc.world.Sigma, orc.beta_hat
        slope = S @ b / (b @ S @ b + 0.49)
        targets = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        means = np.stack(
            [sample_conditional_latents(orc, a, 100_000, rng).mean(axis=0)
             for a in targets]
        )
        # Regress the sweep means on the target values.
        fitted = targets @ means / (targets @ targets)
        assert np.max(np.abs(fitted - slope)) < 0.02 * max(1.0, np.max(np.abs(slope)))


class TestNoisedConditionalLaw:
    def test_small_time_limit(self):
        orc = _oracle(nu=0.5, seed=2)
        mean0, cov0 = conditional_latent_law(orc, 1.5)
        A = orc.world.A
        m, C = noised_conditional_law(orc, 1.5, 1e-12)
        np.testing.assert_allclose(m, A @ mean0, atol=1e-9)
        np.testing.assert_allclose(C, A @ cov0 @ A.T, atol=1e-9)

    def test_terminal_time_mixes_to_standard_normal(self):
        orc = _oracle(nu=0.5, seed=2)
        mean0, _ = conditional_latent_law(orc, 4.0)
        m, C = noised_conditional_law(orc, 4.0, 10.0)
        assert np.max(np.abs(m)) <= np.exp(-5) * np.linalg.norm(mean0) + 1e-12
        assert np.max(np.abs(C - np.eye(6))) < np.exp(-10) + 1e-12

    def test_matches_monte_carlo(self):
        orc = _oracle(D=5, d=2, nu=0.4, seed=4)
        a, t = 2.0, 0.3
        rng = np.random.default_rng(5)
        z = sample_conditional_latents(orc, a, 100_000, rng)
        X = alpha_of(t) * (z @ orc.world.A.T)
        X = X + np.sqrt(h_of(t)) * rng.standard_normal(X.shape)
        m, C = noised_conditional_law(orc, a, t)
        assert np.max(np.abs(X.mean(axis=0) - m)) < 0.01 * max(1.0, np.max(np.abs(m)))
        emp = np.cov(X.T, bias=True)
        assert np.max(np.abs(emp - C)) < 0.03 * max(1.0, np.max(np.abs(C)))

    def test_off_support_covariance_is_pure_noise(self):
        orc = _oracle(D=7, d=3, nu=0.5, seed=6)
        t0 = 0.02
        _, C = noised_conditional_law(orc, 3.0, t0)
        A = orc.world.A
        P_perp = np.eye(7) - A @ A.T
        off = P_perp @ C @ P_perp
        np.testing.assert_allclose(off, h_of(t0) * P_perp, atol=1e-12)


class TestSecondMomentAndShift:
    def test_second_moment_substitution_case(self):
        orc = _oracle(D=9, d=4, beta=np.array([1.0, 0, 0, 0]), nu=1.0)
        assert abs(latent_second_moment(orc, 0.0) - (4 - 0.5)) < 1e-12

    def test_no_conditioning_gives_trace(self):
        sigma = np.diag([0.9, 0.5, 0.2])
        orc = _oracle(D=6, d=3, sigma=sigma, beta=np.zeros(3), nu=0.8)
        for a in (0.0, 3.0, -5.0):
            assert abs(latent_second_moment(orc, a) - 1.6) < 1e-12

    def test_matches_monte_carlo(self):
        orc = _oracle(D=8, d=4, nu=0.6, seed=9)
        rng = np.random.default_rng(10)
        for a in (0.0, 2.0, 8.0):
            z = sample_conditional_latents(orc, a, 100_000, rng)
            mc = float(np.mean(np.sum(z * z, axis=1)))
            assert abs(mc - latent_second_moment(orc, a)) < 0.02 * latent_second_moment(orc, a)

    def test_shift_closed_form_special_values(self):
        orc = _oracle(D=9, d=4, beta=np.array([1.0, 0, 0, 0]), nu=1.0)
        # First term vanishes when a^2 equals the label variance.
        assert abs(latent_second_moment(orc, np.sqrt(2.0)) - 4.0) < 1e-12
        assert abs(latent_second_moment(orc, 4.0) - (3.5 + 4)) < 1e-12
        # The surrogate rescales the second moment by tr(Sigma).
        trace = float(np.trace(orc.world.Sigma))
        assert distro_shift_surrogate(orc, 4.0) == np.sqrt(latent_second_moment(orc, 4.0) / trace)

    def test_surrogate_monotone_in_magnitude(self):
        orc = _oracle(D=7, d=3, nu=0.45, seed=11)
        assert distro_shift_surrogate(orc, 0.0) <= distro_shift_surrogate(orc, 8.0)

    def test_rejects_nonpositive_nu(self):
        w = make_world(D=4, d=2, seed=0)
        with pytest.raises(ValidationError):
            GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.0)


class TestQuadratureReference:
    def test_log_density_differences_match_the_joint_normal_law(self):
        # (x, y) at time t is jointly normal with mean zero; its covariance
        # follows from x = a A z + sqrt(h) eps and y = beta z + nu xi.
        orc = _oracle(D=3, d=1, nu=0.4, sigma=np.array([[0.6]]), seed=2)
        A, beta, sig2 = orc.world.A, orc.beta_hat[0], orc.world.Sigma[0, 0]
        rng = np.random.default_rng(9)
        for _ in range(20):
            t = rng.uniform(0.05, 3.0)
            a, h = float(alpha_of(t)), float(h_of(t))
            cov = np.zeros((4, 4))
            cov[:3, :3] = a**2 * sig2 * A @ A.T + h * np.eye(3)
            cov[:3, 3] = cov[3, :3] = a * sig2 * beta * A[:, 0]
            cov[3, 3] = beta**2 * sig2 + orc.nu**2
            x1, x2 = rng.standard_normal((2, 3))
            y = rng.standard_normal()

            def quad_form(x):
                v = np.append(x, y)
                return v @ np.linalg.solve(cov, v)

            want = -0.5 * (quad_form(x1) - quad_form(x2))
            got = log_density_quadrature(orc, x1, y, t) - log_density_quadrature(orc, x2, y, t)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# Run in a fresh interpreter: importing the package, running a pipeline and
# running every validate check (the quadrature reference included) must not
# load any scipy module.
_NO_SCIPY = """
import sys, tempfile
import rcdiff, rcdiff.cli
from rcdiff.config import RunConfig
from rcdiff.pipeline import run_pipeline
from rcdiff.validate import run_checks

cfg = RunConfig(values={"world.D": 4, "world.d": 1, "data.n1": 256, "data.n2": 64,
                        "schedule.T": 2.0, "schedule.t0": 0.1, "schedule.eta": 0.1,
                        "score.variant": "oracle", "sweep.a": [1.0], "sweep.seeds": [0],
                        "sample.n": 32, "metrics.n_ref": 100})
with tempfile.TemporaryDirectory() as out:
    run_pipeline(cfg, out)
run_checks()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_pipeline_and_validate_load_no_scipy_module():
    import rcdiff

    src = str(Path(rcdiff.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
