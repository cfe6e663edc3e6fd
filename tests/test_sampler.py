"""Backward SDE generation: moments, determinism, step-size behavior."""

import numpy as np
import pytest

from rcdiff.errors import SamplerDivergedError, ValidationError
from rcdiff.oracle import (
    AnalyticScore,
    DiffusionSchedule,
    GaussianDesignOracle,
    noised_conditional_law,
)
from rcdiff.sampler import backward_steps, run_backward
from rcdiff.world import make_world


def _oracle(D=4, d=2, seed=7, nu=0.5):
    w = make_world(D=D, d=d, seed=seed)
    return GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=nu)


class TestBackwardSteps:
    def test_integral_ratio_has_no_partial_step(self):
        sched = DiffusionSchedule(terminal_time=10.0, t0=0.01, eta=0.005)
        steps = backward_steps(sched)
        assert len(steps) == 1998
        assert all(s == 0.005 for s in steps)

    def test_remainder_becomes_final_partial_step(self):
        sched = DiffusionSchedule(terminal_time=1.0, t0=0.013, eta=0.01)
        steps = backward_steps(sched)
        assert len(steps) == 99
        np.testing.assert_allclose(sum(steps), 1.0 - 0.013, atol=1e-12)
        assert steps[-1] < 0.01

    def test_degenerate_window_has_no_steps(self):
        sched = DiffusionSchedule(terminal_time=2.0, t0=2.0, eta=0.5)
        assert backward_steps(sched) == []


class TestRunBackward:
    def test_zero_steps_returns_standard_normal_init(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=5.0, t0=5.0, eta=1.0)
        batch = run_backward(AnalyticScore(orc), a=3.0, n=20_000, schedule=sched, seed=4)
        assert np.max(np.abs(batch.X.mean(axis=0))) < 0.03
        emp = np.cov(batch.X.T, bias=True)
        assert np.max(np.abs(emp - np.eye(4))) < 0.05

    def test_bit_identical_determinism(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=3.0, t0=0.05, eta=0.05)
        b1 = run_backward(AnalyticScore(orc), a=1.0, n=64, schedule=sched, seed=9)
        b2 = run_backward(AnalyticScore(orc), a=1.0, n=64, schedule=sched, seed=9)
        assert np.array_equal(b1.X, b2.X)
        assert b1.score_id == b2.score_id

    def test_covariance_error_nonincreasing_in_step_size(self):
        orc = _oracle()
        mean_err = {}
        for eta in (0.04, 0.02, 0.01, 0.005):
            sched = DiffusionSchedule(terminal_time=10.0, t0=0.04, eta=eta)
            batch = run_backward(AnalyticScore(orc), a=2.0, n=8192, schedule=sched, seed=13)
            _, cov = noised_conditional_law(orc, 2.0, sched.t0)
            emp = np.cov(batch.X.T, bias=True)
            mean_err[eta] = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
        # Discretization bias shrinks with eta; allow 2x slack for the
        # Monte Carlo noise floor at the small-eta end.
        assert mean_err[0.005] <= 2.0 * mean_err[0.04]
        assert mean_err[0.01] <= 2.0 * mean_err[0.02] + 0.02

    def test_off_support_scaling_with_early_stop(self):
        orc = _oracle(D=4, d=2)
        means = {}
        for t0 in (0.01, 0.04):
            sched = DiffusionSchedule(terminal_time=10.0, t0=t0, eta=0.005)
            batch = run_backward(AnalyticScore(orc), a=2.0, n=8192, schedule=sched, seed=3)
            A = orc.world.A
            perp = batch.X - (batch.X @ A) @ A.T
            means[t0] = float(np.mean(np.linalg.norm(perp, axis=1)))
        ratio = means[0.04] / means[0.01]
        assert 1.6 <= ratio <= 2.5  # fourfold early stop, sqrt scaling

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_step_index(self):
        class ExplodingScore:
            D = 4
            score_id = "exploding"

            def __call__(self, x, y, t):
                return x * 1e200

        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        with pytest.raises(SamplerDivergedError) as err:
            run_backward(ExplodingScore(), a=0.0, n=8, schedule=sched, seed=0)
        assert err.value.step >= 0

    def test_rejects_bad_count_and_missing_dim(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        with pytest.raises(ValidationError):
            run_backward(AnalyticScore(orc), a=0.0, n=0, schedule=sched, seed=0)
        with pytest.raises(ValidationError):
            run_backward(lambda x, y, t: x, a=0.0, n=4, schedule=sched, seed=0)

    def test_callable_with_explicit_dim(self):
        class Contractor:
            D, score_id = 3, "contractor"

            def __call__(self, x, y, t):
                return -x

        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        batch = run_backward(Contractor(), a=0.0, n=16, schedule=sched, seed=1)
        assert batch.X.shape == (16, 3)
        assert batch.score_id == "contractor"

    def test_chunk_prefix_property(self):
        # The fixed splitting rule makes the first chunk of a larger batch
        # identical to a batch of exactly one chunk: output cannot depend
        # on how chunks are distributed over workers.
        from rcdiff.sampler import CHUNK_SIZE

        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        big = run_backward(AnalyticScore(orc), a=1.0, n=CHUNK_SIZE + 200,
                           schedule=sched, seed=5)
        small = run_backward(AnalyticScore(orc), a=1.0, n=CHUNK_SIZE,
                             schedule=sched, seed=5)
        assert np.array_equal(big.X[:CHUNK_SIZE], small.X)

    def test_generator_seed_rejected(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        with pytest.raises(ValidationError):
            run_backward(AnalyticScore(orc), a=0.0, n=4, schedule=sched,
                         seed=np.random.default_rng(0))
