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
from rcdiff.sampler import (
    CHUNK_SIZE,
    backward_grid,
    chain_law,
    off_span_variance,
    run_backward,
)
from rcdiff.score_model import CoveringScore, MlpScore
from rcdiff.world import make_world


def _oracle(D=4, d=2, seed=7, nu=0.5):
    w = make_world(D=D, d=d, seed=seed)
    return GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=nu)


def _basis(D, d):
    return np.linalg.qr(np.random.default_rng(0).standard_normal((D, d)))[0]


def _each_path(D, d):
    """A score of each sampler path: one stepped on all D coordinates, an
    mlp span view whose (m, d) state is stepped, and the oracle's affine
    span view whose state is drawn from its chain law; the sampler lifts
    both span states to D dimensions."""
    return (AnalyticScore(_oracle(D=D, d=d)), MlpScore(D, d, hidden=(16, 16), seed=4).span_view(),
            AnalyticScore(_oracle(D=D, d=d)).span_view())


class TestBackwardSteps:
    """The ``(dt, t)`` pairs of ``backward_grid``."""

    def test_integral_ratio_has_no_partial_step(self):
        sched = DiffusionSchedule(terminal_time=10.0, t0=0.01, eta=0.005)
        steps = [dt for dt, _ in backward_grid(sched)]
        assert len(steps) == 1998
        assert all(s == 0.005 for s in steps)

    def test_remainder_becomes_final_partial_step(self):
        sched = DiffusionSchedule(terminal_time=1.0, t0=0.013, eta=0.01)
        steps = [dt for dt, _ in backward_grid(sched)]
        assert len(steps) == 99
        np.testing.assert_allclose(sum(steps), 1.0 - 0.013, atol=1e-12)
        assert steps[-1] < 0.01

    def test_degenerate_window_has_no_steps(self):
        sched = DiffusionSchedule(terminal_time=2.0, t0=2.0, eta=0.5)
        assert backward_grid(sched) == []

    def test_times_are_left_endpoints(self):
        sched = DiffusionSchedule(terminal_time=1.0, t0=0.013, eta=0.01)
        times = [t for _, t in backward_grid(sched)]
        assert times[0] == 1.0
        np.testing.assert_allclose(times, 1.0 - 0.01 * np.arange(99), atol=1e-12)


class TestRunBackward:
    def test_zero_steps_returns_standard_normal_init(self):
        sched = DiffusionSchedule(terminal_time=5.0, t0=5.0, eta=1.0)
        for score in _each_path(4, 2):
            [X] = run_backward(score, [3.0], 20_000, sched, seeds=[4])
            assert np.max(np.abs(X.mean(axis=0))) < 0.03
            emp = np.cov(X.T, bias=True)
            assert np.max(np.abs(emp - np.eye(4))) < 0.05

    def test_bit_identical_determinism(self):
        sched = DiffusionSchedule(terminal_time=3.0, t0=0.05, eta=0.05)
        for score in _each_path(4, 2):
            [X1] = run_backward(score, [1.0], 64, sched, seeds=[9])
            [X2] = run_backward(score, [1.0], 64, sched, seeds=[9])
            assert np.array_equal(X1, X2)

    def test_seed_sequence_is_not_advanced(self):
        sched = DiffusionSchedule(terminal_time=1.0, t0=0.05, eta=0.05)
        n = CHUNK_SIZE + 8  # two chunks, so two child streams
        for score in _each_path(4, 2):
            ss = np.random.SeedSequence([3, 20, 1])
            [X1] = run_backward(score, [1.0], n, sched, seeds=[ss])
            [X2] = run_backward(score, [1.0], n, sched, seeds=[ss])
            [fresh] = run_backward(score, [1.0], n, sched,
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
        for n in (0, 8.0):
            with pytest.raises(ValidationError):
                run_backward(AnalyticScore(orc), [0.0], n, sched, seeds=[0])
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
        for score in _each_path(4, 2):
            [big] = run_backward(score, [1.0], CHUNK_SIZE + 200, sched, seeds=[5])
            [small] = run_backward(score, [1.0], CHUNK_SIZE, sched, seeds=[5])
            assert np.array_equal(big[:CHUNK_SIZE], small)

    def test_generator_seed_rejected(self):
        orc = _oracle()
        sched = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.1)
        with pytest.raises(ValidationError):
            run_backward(AnalyticScore(orc), [0.0], 4, sched,
                         seeds=[np.random.default_rng(0)])


class AffineSpan:
    """``s(u, a, t) = M u + a b``, a span view with constant coefficients."""

    affine = True

    def __init__(self, M, b):
        self.M, self.b = np.asarray(M, dtype=float), np.asarray(b, dtype=float)
        self.D = len(self.b)
        self.Q = _basis(2 * self.D, self.D)

    def __call__(self, u, y, t):
        return u @ self.M.T + np.outer(y, self.b)


def _assert_gaussian_moments(X, mean, cov):
    """The sample mean and covariance entries of the rows of ``X`` lie within
    4 standard errors of the exact Gaussian law ``N(mean, cov)``."""
    n, sd = X.shape[0], np.sqrt(np.diag(cov))
    assert np.max(np.abs(X.mean(axis=0) - mean) / (sd / np.sqrt(n))) < 4.0
    # A Gaussian's centred product x_i x_j has variance C_ii C_jj + C_ij^2.
    emp = (X - mean).T @ (X - mean) / n
    assert np.max(np.abs(emp - cov) / np.sqrt((np.outer(sd**2, sd**2) + cov**2) / n)) < 4.0


class TestChainLaw:
    """``chain_law`` against closed forms and the stepped chain, with no model."""

    SCHED = DiffusionSchedule(terminal_time=2.0, t0=0.1, eta=0.05)

    def test_constant_coefficients_give_geometric_series(self):
        c, b, dt = 3.0, np.array([0.5, -1.0, 2.0]), 0.05
        K = len(backward_grid(self.SCHED))
        assert K == 38
        # F = f I at every step: mu_K = dt a b (1 + f + ... + f^(K-1)) and
        # C_K = f^(2K) I + dt (1 + f^2 + ... + f^(2(K-1))) I.
        f = 1.0 + dt / 2 - c * dt
        mu, C = chain_law(AffineSpan(-c * np.eye(3), b), [0.0, 2.0], self.SCHED)
        geo = (1.0 - f**K) / (1.0 - f)
        var = f ** (2 * K) + dt * (1.0 - f ** (2 * K)) / (1.0 - f**2)
        np.testing.assert_allclose(mu, [0.0 * b, dt * 2.0 * geo * b], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(C, [var * np.eye(3)] * 2, rtol=1e-12, atol=1e-15)

    def test_nonsymmetric_slope_matches_the_stepped_chain(self):
        # A non-normal M tells F C F^T from F^T C F; the same score with no
        # Q is stepped, the reference.
        score = AffineSpan([[-2.0, 3.0], [0.0, -1.0]], [1.0, -0.5])

        def stepped(u, y, t):
            return score(u, y, t)
        stepped.D = 2
        [mu], [C] = chain_law(score, [1.0], self.SCHED)
        [U] = run_backward(stepped, [1.0], 20_000, self.SCHED, seeds=[3])
        _assert_gaussian_moments(U, mu, C)

    def test_zero_steps_give_the_start(self):
        sched = DiffusionSchedule(terminal_time=5.0, t0=5.0, eta=1.0)
        mu, C = chain_law(AffineSpan(-np.eye(2), [1.0, 2.0]), [1.0, 3.0], sched)
        assert np.array_equal(mu, np.zeros((2, 2)))
        assert np.array_equal(C, np.stack([np.eye(2)] * 2))

    def test_one_probe_call_per_step(self):
        rows = []

        class Counting(AffineSpan):
            def __call__(self, u, y, t):
                rows.append(u.shape[0])
                return super().__call__(u, y, t)

        run_backward(Counting(-np.eye(2), [1.0, 2.0]), [0.0, 1.0, 2.0], 2 * CHUNK_SIZE, self.SCHED,
                     seeds=[0, 1, 2])
        assert rows == [3 * (2 + 1)] * len(backward_grid(self.SCHED))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_step_and_target(self):
        class NanOffsetAtTwo(AffineSpan):
            def __call__(self, u, y, t):
                bad = (y == 2.0) & (t < 0.55)
                return super().__call__(u, y, t) + np.where(bad, np.nan, 0.0)[:, None]

        # Steps are taken at t = 1.0, 0.9, ...: t = 0.5 is the one at index 5.
        sched = DiffusionSchedule(terminal_time=1.0, t0=0.1, eta=0.1)
        with pytest.raises(SamplerDivergedError) as err:
            run_backward(NanOffsetAtTwo(-np.eye(2), [1.0, 2.0]), [0.0, 2.0, 4.0], 16, sched,
                         seeds=[0, 1, 2])
        assert err.value.step == 5
        assert err.value.a == 2.0


class TestStackedTargets:
    """The targets of one call, stacked in its output, are sampled one
    after another, chunk by chunk."""

    SCHED = DiffusionSchedule(terminal_time=1.0, t0=0.1, eta=0.1)

    def test_stacked_call_matches_single_target_calls(self):
        # Two chunks of each of three targets, on a score of each path: a
        # target's points do not depend on the targets sampled with it.
        targets, seeds = [0.0, 2.0, -1.5], [3, np.random.SeedSequence([4, 20, 1]), 5]
        n = CHUNK_SIZE + 200
        for score in _each_path(8, 2):
            stacked = run_backward(score, targets, n, self.SCHED, seeds=seeds)
            assert stacked.shape == (len(targets), n, 8)
            for a, seed, X in zip(targets, seeds, stacked):
                [single] = run_backward(score, [a], n, self.SCHED, seeds=[seed])
                assert X.tobytes() == single.tobytes()

    @pytest.mark.parametrize("D, d", [(8, 1), (64, 6)])
    def test_score_calls_per_step(self, D, d):
        class Counting:
            def __call__(self, x, y, t):
                calls.append((x.shape[0], *np.unique(y)))
                return -x

        # One score call per chunk per step, whatever D: a full-D score and
        # the same score as a span score on d coordinates of D.
        Counting.D = D
        span = type("CountingSpan", (Counting,), {"D": d, "Q": _basis(D, d)})
        targets, n = [0.0, 1.0, 2.0], CHUNK_SIZE + 200
        K = len(backward_grid(self.SCHED))
        for cls in (Counting, span):
            calls = []
            run_backward(cls(), targets, n, self.SCHED, seeds=[0, 1, 2])
            # Target-major, and every step of a chunk before the next chunk.
            assert calls == [(rows, a) for a in targets for rows in (CHUNK_SIZE, 200)
                             for _ in range(K)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_target(self):
        class ExplodesAtTwo:
            D = 4

            def __call__(self, x, y, t):
                return np.where((y == 2.0)[:, None], x * 1e200, -x)

        # The same score as a span score on d = 2 coordinates of D = 4, and
        # as one that declares itself affine (it is linear in x).
        span = type("ExplodesAtTwoSpan", (ExplodesAtTwo,), {"D": 2, "Q": _basis(4, 2)})
        affine = type("ExplodesAtTwoAffine", (span,), {"affine": True})
        # Stepped: one step to 1e199, the next past the float range.  Its
        # chain law: the first step's variance is already 1e398.
        for cls, step in ((ExplodesAtTwo, 1), (span, 1), (affine, 0)):
            with pytest.raises(SamplerDivergedError) as err:
                run_backward(cls(), [0.0, 2.0, 4.0], 16, self.SCHED, seeds=[0, 1, 2])
            assert err.value.step == step
            assert err.value.a == 2.0
            assert "a=2" in str(err.value)

    @pytest.mark.parametrize("targets, seeds", [([], []), ([0.0, 1.0], [0]), ([0.0], [0, 1])])
    def test_mismatched_or_empty_targets_rejected(self, targets, seeds):
        with pytest.raises(ValidationError):
            run_backward(AnalyticScore(_oracle()), targets, 4, self.SCHED, seeds=seeds)


class TestSpanPath:
    """A span view's d coordinates are stepped (mlp) or drawn from their
    chain law (covering, oracle) and lifted with an exact off-span draw;
    its points have the law of the same model stepped on all D coordinates."""

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

    def test_oracle_chain_law_matches_the_full_chain(self):
        # The oracle's span view, drawn from its exact lifted law
        # N(Q mu_K, Q C_K Q^T + v_K P_perp), against the oracle stepped on
        # all D coordinates.
        orc = _oracle(D=8, d=2)
        view = AnalyticScore(orc).span_view()
        [mu], [C] = chain_law(view, [1.0], self.SCHED)
        Q = view.Q
        cov = Q @ C @ Q.T + off_span_variance(self.SCHED) * (np.eye(8) - Q @ Q.T)
        [X] = run_backward(AnalyticScore(orc), [1.0], self.N, self.SCHED, seeds=[3])
        _assert_gaussian_moments(X, Q @ mu, cov)
