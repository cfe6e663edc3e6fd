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
from rcdiff.sampler import CHUNK_SIZE, backward_steps, off_span_variance, run_backward
from rcdiff.score_model import CoveringScore, MlpScore
from rcdiff.world import make_world


def _oracle(D=4, d=2, seed=7, nu=0.5):
    w = make_world(D=D, d=d, seed=seed)
    return GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=nu)


def _basis(D, d):
    return np.linalg.qr(np.random.default_rng(0).standard_normal((D, d)))[0]


def _both_paths(D, d):
    """A score of each sampler path: one stepped on all D coordinates, and a
    model's span view, whose (m, d) state the sampler lifts to D dimensions."""
    return AnalyticScore(_oracle(D=D, d=d)), MlpScore(D, d, hidden=(16, 16), seed=4).span_view()


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
        sched = DiffusionSchedule(terminal_time=5.0, t0=5.0, eta=1.0)
        for score in _both_paths(4, 2):
            [X] = run_backward(score, [3.0], 20_000, sched, seeds=[4])
            assert np.max(np.abs(X.mean(axis=0))) < 0.03
            emp = np.cov(X.T, bias=True)
            assert np.max(np.abs(emp - np.eye(4))) < 0.05

    def test_bit_identical_determinism(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=3.0, t0=0.05, eta=0.05)
        [X1] = run_backward(AnalyticScore(orc), [1.0], 64, sched, seeds=[9])
        [X2] = run_backward(AnalyticScore(orc), [1.0], 64, sched, seeds=[9])
        assert np.array_equal(X1, X2)

    def test_seed_sequence_is_not_advanced(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=1.0, t0=0.05, eta=0.05)
        ss = np.random.SeedSequence([3, 20, 1])
        n = CHUNK_SIZE + 8  # two chunks, so two child streams
        [X1] = run_backward(AnalyticScore(orc), [1.0], n, sched, seeds=[ss])
        [X2] = run_backward(AnalyticScore(orc), [1.0], n, sched, seeds=[ss])
        [fresh] = run_backward(AnalyticScore(orc), [1.0], n, sched,
                               seeds=[np.random.SeedSequence([3, 20, 1])])
        assert ss.n_children_spawned == 0
        assert np.array_equal(X1, X2)
        assert np.array_equal(X1, fresh)

    def test_covariance_error_nonincreasing_in_step_size(self):
        orc = _oracle()
        mean_err = {}
        for eta in (0.04, 0.02, 0.01, 0.005):
            sched = DiffusionSchedule(terminal_time=10.0, t0=0.04, eta=eta)
            [X] = run_backward(AnalyticScore(orc), [2.0], 8192, sched, seeds=[13])
            _, cov = noised_conditional_law(orc, 2.0, sched.t0)
            emp = np.cov(X.T, bias=True)
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
            [X] = run_backward(AnalyticScore(orc), [2.0], 8192, sched, seeds=[3])
            A = orc.world.A
            perp = X - (X @ A) @ A.T
            means[t0] = float(np.mean(np.linalg.norm(perp, axis=1)))
        ratio = means[0.04] / means[0.01]
        assert 1.6 <= ratio <= 2.5  # fourfold early stop, sqrt scaling

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_step_index(self):
        class ExplodingScore:
            D = 4

            def __call__(self, x, y, t):
                return x * 1e200

        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        with pytest.raises(SamplerDivergedError) as err:
            run_backward(ExplodingScore(), [0.0], 8, sched, seeds=[0])
        assert err.value.step >= 0

    def test_rejects_bad_count_and_missing_dim(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        with pytest.raises(ValidationError):
            run_backward(AnalyticScore(orc), [0.0], 0, sched, seeds=[0])
        with pytest.raises(ValidationError):
            run_backward(lambda x, y, t: x, [0.0], 4, sched, seeds=[0])

    def test_callable_with_explicit_dim(self):
        def contractor(x, y, t):
            return -x

        contractor.D = 3  # the one attribute the sampler reads
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        [X] = run_backward(contractor, [0.0], 16, sched, seeds=[1])
        assert X.shape == (16, 3)

    def test_chunk_prefix_property(self):
        # The fixed splitting rule makes the first chunk of a larger batch
        # identical to a batch of exactly one chunk: output cannot depend
        # on how chunks are distributed over workers.
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        for score in _both_paths(4, 2):
            [big] = run_backward(score, [1.0], CHUNK_SIZE + 200, sched, seeds=[5])
            [small] = run_backward(score, [1.0], CHUNK_SIZE, sched, seeds=[5])
            assert np.array_equal(big[:CHUNK_SIZE], small)

    def test_generator_seed_rejected(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        with pytest.raises(ValidationError):
            run_backward(AnalyticScore(orc), [0.0], 4, sched,
                         seeds=[np.random.default_rng(0)])


class TestStackedTargets:
    """Every target of a call is stepped as one stacked state."""

    SCHED = DiffusionSchedule(terminal_time=1.0, t0=0.1, eta=0.1)

    def test_stacked_call_matches_single_target_calls(self):
        # D = 8 packs both chunks of all three targets into one score call,
        # so that call crosses the row boundaries between targets.
        targets, seeds = [0.0, 2.0, -1.5], [3, np.random.SeedSequence([4, 20, 1]), 5]
        n = CHUNK_SIZE + 200
        for score in _both_paths(8, 2):
            stacked = run_backward(score, targets, n, self.SCHED, seeds=seeds)
            assert stacked.shape == (len(targets), n, 8)
            for a, seed, X in zip(targets, seeds, stacked):
                [single] = run_backward(score, [a], n, self.SCHED, seeds=[seed])
                assert X.tobytes() == single.tobytes()

    @pytest.mark.parametrize("D, calls_per_step", [(8, 1), (64, 6)])
    def test_score_calls_per_step(self, D, calls_per_step):
        class Counting:
            def __call__(self, x, y, t):
                rows.append(x.shape[0])
                return -x

        # A span score with d = D / 4 (a basis Q): its calls hold as many
        # rows as a full one's, since the cap counts D-dimensional points.
        span = type("CountingSpan", (Counting,), {"D": D // 4, "Q": _basis(D, D // 4)})
        Counting.D = D
        for cls in (Counting, span):
            rows = []
            run_backward(cls(), [0.0, 1.0, 2.0], 2 * CHUNK_SIZE, self.SCHED, seeds=[0, 1, 2])
            assert len(rows) == len(backward_steps(self.SCHED)) * calls_per_step
            assert sum(rows) == len(backward_steps(self.SCHED)) * 6 * CHUNK_SIZE

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_target(self):
        class ExplodesAtTwo:
            D = 4

            def __call__(self, x, y, t):
                return np.where((y == 2.0)[:, None], x * 1e200, -x)

        # The same score as a span score on d = 2 coordinates of D = 4.
        span = type("ExplodesAtTwoSpan", (ExplodesAtTwo,), {"D": 2, "Q": _basis(4, 2)})
        for cls in (ExplodesAtTwo, span):
            with pytest.raises(SamplerDivergedError) as err:
                run_backward(cls(), [0.0, 2.0, 4.0], 16, self.SCHED, seeds=[0, 1, 2])
            # One step to 1e199, the next past the float range.
            assert err.value.step == 1
            assert err.value.a == 2.0
            assert "a=2" in str(err.value)

    @pytest.mark.parametrize("targets, seeds", [([], []), ([0.0, 1.0], [0]), ([0.0], [0, 1])])
    def test_mismatched_or_empty_targets_rejected(self, targets, seeds):
        with pytest.raises(ValidationError):
            run_backward(AnalyticScore(_oracle()), targets, 4, self.SCHED, seeds=seeds)


class TestSpanPath:
    """A span view is stepped on d coordinates and lifted with an exact
    off-span draw; its points have the law of the same model stepped on
    all D coordinates."""

    SCHED = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.05)
    N = 20_000

    @staticmethod
    def _model(variant):
        if variant == "mlp":
            return MlpScore(8, 2, hidden=(16, 16), seed=4)
        model = CoveringScore(8, 2, nu=0.5, seed=5)
        model.params["beta_tilde"] = np.array([0.8, -1.1])
        model.params["sigma_inv_tril"] = np.array([[2.0, 0.0], [0.3, 1.0]])
        return model

    def _full_chain(self, model):
        """``model`` stepped on all D coordinates, behind a plain callable."""
        def full(x, y, t):
            return model(x, y, t)
        full.D = 8
        [X] = run_backward(full, [1.0], self.N, self.SCHED, seeds=[2])
        return X

    @pytest.mark.parametrize("variant", ["mlp", "covering"])
    def test_equal_in_law_to_full_chain(self, variant):
        model = self._model(variant)
        [span] = run_backward(model.span_view(), [1.0], self.N, self.SCHED, seeds=[1])
        whole, n = self._full_chain(model), self.N
        se = np.sqrt((span.var(axis=0) + whole.var(axis=0)) / n)
        assert np.max(np.abs(span.mean(axis=0) - whole.mean(axis=0)) / se) < 4.0
        # Each covariance entry is the mean of a per-row product.
        prods = [np.einsum("ni,nj->nij", X - X.mean(axis=0), X - X.mean(axis=0))
                 for X in (span, whole)]
        se = np.sqrt((prods[0].var(axis=0) + prods[1].var(axis=0)) / n)
        assert np.max(np.abs(prods[0].mean(axis=0) - prods[1].mean(axis=0)) / se) < 4.0

    @pytest.mark.parametrize("variant", ["mlp", "covering"])
    def test_off_span_variance_of_the_full_chain(self, variant):
        model = self._model(variant)
        whole, Q = self._full_chain(model), model.span_view().Q
        perp = whole - (whole @ Q) @ Q.T
        per_row = np.sum(perp * perp, axis=1) / (8 - 2)
        v = off_span_variance(self.SCHED)
        assert abs(per_row.mean() - v) < 4.0 * per_row.std() / np.sqrt(self.N)
        assert v < 0.5  # the early stop contracts it well below the start's 1
