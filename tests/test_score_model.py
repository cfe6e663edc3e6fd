"""Trainable score models: shape, gradients, objectives, training."""

import numpy as np
import pytest

from rcdiff.errors import TrainingDivergedError, ValidationError
from rcdiff.oracle import (
    AnalyticScore,
    DiffusionSchedule,
    GaussianDesignOracle,
    alpha_of,
    analytic_score,
    h_of,
)
from rcdiff.regression import default_nu, fit_ridge, pseudo_label
from rcdiff.score_model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SPD_FLOOR,
    CoveringScore,
    MlpScore,
    TrainConfig,
    ZeroScore,
    _EncoderDecoderScore,
    _time_and_noise,
    exact_objective,
    extract_subspace,
    model_from_blocks,
    pathwise_denoising_loss,
    train,
)
from rcdiff.world import LabeledDataset, generate_datasets, make_world

SCHED = DiffusionSchedule(terminal_time=5.0, t0=0.05, eta=0.05)


def _models(D=6, d=3):
    return [CoveringScore(D, d, nu=0.5, seed=1), MlpScore(D, d, hidden=(32, 32), seed=2)]


def _perturb(model, rng, scale=0.05):
    for k in model.params:
        model.params[k] = model.params[k] + scale * rng.standard_normal(model.params[k].shape)


class TestShapeInvariant:
    def test_shortcut_residual_lies_in_decoder_span(self):
        rng = np.random.default_rng(0)
        for model in _models():
            _perturb(model, rng)
            V = model.params["V"]
            Q = np.linalg.qr(V)[0]
            for _ in range(10):
                x = rng.standard_normal(6)
                y = float(rng.standard_normal())
                t = float(rng.uniform(0.05, 5.0))
                s = model(x, y, t)
                resid = h_of(t) * s + x
                off = resid - Q @ (Q.T @ resid)
                assert np.linalg.norm(off) < 1e-8

    def test_span_view_is_the_span_part_of_the_score(self):
        # s(x) Q depends on x only through u = x Q, and the view computes it from u.
        rng = np.random.default_rng(2)
        for model in _models():
            _perturb(model, rng)
            view = model.span_view()
            assert view.D == 3 and view.Q.shape == (6, 3)
            X, y, t = rng.standard_normal((5, 6)), rng.standard_normal(5), rng.uniform(0.1, 4.0, 5)
            np.testing.assert_allclose(view(X @ view.Q, y, t), model(X, y, t) @ view.Q,
                                       rtol=1e-10, atol=1e-12)

    def test_oracle_span_view_is_the_span_part_of_the_analytic_score(self):
        world = make_world(D=6, d=3, seed=4)
        orc = GaussianDesignOracle(world=world, beta_hat=np.array([0.6, -0.4, 0.9]), nu=0.5)
        view = AnalyticScore(orc).span_view()
        assert view.D == 3 and view.Q is world.A
        rng = np.random.default_rng(5)
        X, y = rng.standard_normal((5, 6)), rng.standard_normal(5)
        for t in (0.7, rng.uniform(0.1, 4.0, 5)):
            np.testing.assert_allclose(view(X @ world.A, y, t),
                                       analytic_score(orc, X, y, t) @ world.A,
                                       rtol=1e-10, atol=1e-12)

    def test_batch_call_matches_rowwise(self):
        rng = np.random.default_rng(1)
        for model in _models():
            X = rng.standard_normal((5, 6))
            y = rng.standard_normal(5)
            t = rng.uniform(0.1, 4.0, 5)
            batched = model(X, y, t)
            rows = np.stack([model(X[i], y[i], float(t[i])) for i in range(5)])
            np.testing.assert_allclose(batched, rows, atol=1e-12)


class TestCoveringHead:
    """The eigenbasis B_t path against plain-inverse references."""

    def _batch(self, D, n=40, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, D)), rng.standard_normal(n), rng.uniform(0.01, 6.0, n)

    def test_oracle_parameters_give_the_analytic_score(self):
        w = make_world(D=7, d=3, sigma=np.diag([1.0, 0.5, 0.2]), seed=3)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.4)
        model = CoveringScore(7, 3, nu=0.4, seed=0)
        model.params.update({
            "V": w.A, "beta_tilde": w.beta_star,
            "sigma_inv_tril": np.tril(orc.sigma_inv),
        })
        X, y, t = self._batch(7)
        for tt in (0.01, 0.7, 6.0, t):
            ref = analytic_score(orc, X, y, tt)
            np.testing.assert_allclose(model(X, y, tt), ref, rtol=1e-10,
                                       atol=1e-10 * np.abs(ref).max())

    def test_floored_precision_matches_plain_inverse(self):
        D, d, nu = 6, 3, 0.5
        rng = np.random.default_rng(5)
        R = np.linalg.qr(rng.standard_normal((d, d)))[0]
        evals = np.array([-0.3, 1e-9, 0.8])
        S = (R * evals) @ R.T
        S_floored = (R * np.maximum(evals, SPD_FLOOR)) @ R.T
        V = rng.standard_normal((D, d))
        b = rng.standard_normal(d)
        model = CoveringScore(D, d, nu, seed=0)
        model.params.update({"V": V, "beta_tilde": b, "sigma_inv_tril": np.tril(S)})
        X, y, t = self._batch(D, seed=6)

        def reference(i, tt):
            a, h = float(alpha_of(tt)), float(h_of(tt))
            B = np.linalg.inv(a * a * np.eye(d) + (h / nu**2) * np.outer(b, b)
                              + h * S_floored)
            return (a * V @ B @ (a * V.T @ X[i] + (h / nu**2) * y[i] * b) - X[i]) / h

        for tt in (0.05, 2.0):
            ref = np.stack([reference(i, tt) for i in range(len(y))])
            np.testing.assert_allclose(model(X, y, tt), ref, rtol=1e-10,
                                       atol=1e-10 * np.abs(ref).max())
        ref = np.stack([reference(i, t[i]) for i in range(len(y))])
        np.testing.assert_allclose(model(X, y, t), ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())


class TestGradients:
    def test_single_row_gradient(self):
        rng = np.random.default_rng(4)
        model = CoveringScore(4, 2, nu=0.5, seed=5)
        _perturb(model, rng)
        X = rng.standard_normal((1, 4))
        y = rng.standard_normal(1)
        t, eps = _time_and_noise(np.random.default_rng(7), SCHED, X.shape)
        _, grads = model.loss_and_grad(X, y, t, eps)
        base = model.params["beta_tilde"].copy()
        h = 1e-6
        for i in range(2):
            model.params["beta_tilde"] = base.copy()
            model.params["beta_tilde"][i] += h
            lp, _ = model.loss_and_grad(X, y, t, eps)
            model.params["beta_tilde"] = base.copy()
            model.params["beta_tilde"][i] -= h
            lm, _ = model.loss_and_grad(X, y, t, eps)
            model.params["beta_tilde"] = base
            fd = (lp - lm) / (2 * h)
            an = grads["beta_tilde"][i]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-12) <= 1e-4

    def test_rejects_empty_batch(self):
        # ``train`` checks the dataset itself; no batch of it is ever empty.
        model = CoveringScore(4, 2, nu=0.5, seed=0)
        empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0))
        with pytest.raises(ValidationError, match="nonempty"):
            train(model, empty, TrainConfig(), SCHED)


class TestLossValues:
    def test_oracle_beats_zero_score(self):
        w = make_world(D=6, d=3, seed=0)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.5)
        rng = np.random.default_rng(1)
        z = rng.standard_normal((10_000, 3))
        X = z @ w.A.T
        y = z @ w.beta_star + 0.5 * rng.standard_normal(10_000)
        t = rng.uniform(SCHED.t0, SCHED.terminal_time, 10_000)
        eps = rng.standard_normal(X.shape)
        loss_oracle = pathwise_denoising_loss(AnalyticScore(orc), X, y, t, eps)
        loss_zero = pathwise_denoising_loss(ZeroScore(), X, y, t, eps)
        assert loss_oracle <= loss_zero

    def test_zero_head_reduces_to_shortcut_loss(self):
        # With V = 0 and beta = 0 the model is s = -x'/h, so the pathwise
        # loss collapses to the closed form mean ||alpha x / h||^2.
        D, d = 5, 2
        model = CoveringScore(D, d, nu=0.5, seed=0)
        model.params["V"] = np.zeros((D, d))
        model.params["beta_tilde"] = np.zeros(d)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((64, D))
        y = rng.standard_normal(64)
        t = rng.uniform(0.1, 3.0, 64)
        eps = rng.standard_normal(X.shape)
        got = pathwise_denoising_loss(model, X, y, t, eps)
        expected = float(np.mean(
            np.sum((alpha_of(t)[:, None] * X / h_of(t)[:, None]) ** 2, axis=1)
        ))
        assert abs(got - expected) < 1e-10

    @pytest.mark.parametrize("which", ["covering", "mlp"])
    def test_training_loss_equals_pathwise_loss(self, which):
        model = _models()[0 if which == "covering" else 1]
        rng = np.random.default_rng(3)
        _perturb(model, rng)
        X = rng.standard_normal((64, 6))
        y = rng.standard_normal(64)
        t = rng.uniform(SCHED.t0, SCHED.terminal_time, 64)
        eps = rng.standard_normal(X.shape)
        loss, _ = model.loss_and_grad(X, y, t, eps)
        ref = pathwise_denoising_loss(model, X, y, t, eps)
        assert abs(loss - ref) <= 1e-12 * abs(ref)


class TestObjectives:
    def test_exact_objective_self_match(self):
        w = make_world(D=5, d=2, seed=3)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.5)
        val, se = exact_objective(AnalyticScore(orc), orc, 20_000, SCHED, seed=4)
        assert abs(val) <= max(3 * se, 1e-12)

    def test_zero_score_objective_is_score_norm(self):
        w = make_world(D=5, d=2, seed=5)
        orc = GaussianDesignOracle(world=w, beta_hat=w.beta_star, nu=0.5)
        val, se = exact_objective(ZeroScore(), orc, 60_000, SCHED, seed=6)
        # Independent Monte Carlo of E ||score||^2 with fresh draws.
        rng = np.random.default_rng(7)
        n = 60_000
        z = rng.standard_normal((n, 2)) @ np.linalg.cholesky(w.Sigma).T
        X = z @ w.A.T
        y = z @ w.beta_star + 0.5 * rng.standard_normal(n)
        t = rng.uniform(SCHED.t0, SCHED.terminal_time, n)
        Xp = alpha_of(t)[:, None] * X + np.sqrt(h_of(t))[:, None] * rng.standard_normal(X.shape)
        vals = np.sum(analytic_score(orc, Xp, y, t) ** 2, axis=1)
        ref, ref_se = float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))
        assert abs(val - ref) <= 3 * np.hypot(se, ref_se)


class TestTraining:
    def _curated(self, w, n1, nu, seed):
        unlabeled, labeled = generate_datasets(w, n1=n1, n2=1024, noise_sigma=0.1,
                                               seed=seed)
        est = fit_ridge(labeled, lam=1e-6)
        return pseudo_label(unlabeled, est, nu, seed=seed + 1), est

    def test_seed_codes_under_a_cell_seed_are_distinct(self):
        import ast
        import importlib
        from pathlib import Path

        import rcdiff

        # The pipeline passes the cell seed to ``train`` as TrainConfig.seed,
        # so every derive(seed, code, ...) in the package draws under a cell
        # seed: each code is a named module constant, and no two are equal.
        codes = {}
        for path in sorted(Path(rcdiff.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "derive":
                    code = node.args[1]
                    assert isinstance(code, ast.Name), f"{path.name}:{node.lineno}"
                    module = importlib.import_module(f"rcdiff.{path.stem}")
                    codes[code.id] = getattr(module, code.id)
        assert {"SEED_TRAIN_STEPS", "SEED_TRAIN_VAL", "SEED_WORLD"} <= set(codes)
        assert len(set(codes.values())) == len(codes), codes

    def test_reference_training_config_is_expressible(self):
        cfg = TrainConfig(batch_size=32, epochs=10, learning_rate=8e-5)
        assert (cfg.batch_size, cfg.epochs, cfg.learning_rate) == (32, 10, 8e-5)
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_training_improves_validation_loss(self):
        w = make_world(D=6, d=2, seed=0)
        nu = default_nu(6)
        curated, _ = self._curated(w, 4096, nu, seed=10)
        model = CoveringScore(6, 2, nu, seed=3)
        result = train(model, curated, TrainConfig(epochs=4, seed=4), SCHED)
        assert result.val_trace[-1] <= result.val_trace[0]
        assert len(result.loss_trace) == 4
        assert len(result.val_trace) == 5

    def test_training_is_deterministic(self):
        w = make_world(D=6, d=2, seed=0)
        nu = default_nu(6)
        curated, _ = self._curated(w, 2048, nu, seed=10)
        finals = []
        for _ in range(2):
            model = CoveringScore(6, 2, nu, seed=3)
            result = train(model, curated, TrainConfig(epochs=3, seed=4), SCHED)
            finals.append(result.val_trace[-1])
        assert abs(finals[0] - finals[1]) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_snapshot(self):
        w = make_world(D=6, d=2, seed=0)
        curated, _ = self._curated(w, 512, 0.3, seed=20)
        model = MlpScore(6, 2, hidden=(16,), seed=5)
        # Drive the forward pass into float overflow; the loop must stop at
        # the first non-finite loss instead of silently continuing.
        model.params["W1"] = model.params["W1"] * 1e200
        model.params["W2"] = model.params["W2"] * 1e200
        with pytest.raises(TrainingDivergedError) as err:
            train(model, curated, TrainConfig(epochs=3, seed=6), SCHED)
        assert err.value.step >= 0
        assert isinstance(err.value.trace, list)

    def test_covering_variant_recovers_latent_precision(self):
        sigma = np.diag([1.0, 0.35])
        w = make_world(D=8, d=2, sigma=sigma, seed=0)
        nu = default_nu(8)
        curated, est = self._curated(w, 16384, nu, seed=30)
        model = CoveringScore(8, 2, nu, seed=3)
        sched = DiffusionSchedule(terminal_time=4.0, t0=0.01, eta=0.01)
        train(model, curated,
              TrainConfig(batch_size=64, epochs=120, learning_rate=1e-2,
                          lr_decay=0.97, seed=4), sched)
        V = extract_subspace(model)
        R = w.A.T @ V  # rotation aligning the learned frame to the truth
        W = model.params["sigma_inv_tril"]
        aligned = R @ (np.tril(W) + np.tril(W, -1).T) @ R.T
        truth = np.linalg.inv(sigma)
        rel = np.linalg.norm(aligned - truth) / np.linalg.norm(truth)
        assert rel <= 0.10
        angle = float(np.linalg.norm(V @ V.T - w.A @ w.A.T) ** 2)
        assert angle < 0.01

    def test_mlp_variant_trains_and_recovers_subspace(self):
        w = make_world(D=8, d=2, seed=1)
        nu = default_nu(8)
        curated, _ = self._curated(w, 8192, nu, seed=40)
        model = MlpScore(8, 2, nu, hidden=(64, 64), seed=6)
        sched = DiffusionSchedule(terminal_time=4.0, t0=0.01, eta=0.01)
        result = train(model, curated,
                       TrainConfig(batch_size=64, epochs=20, learning_rate=3e-3,
                                   lr_decay=0.9, seed=7), sched)
        assert result.val_trace[-1] < result.val_trace[0]
        V = extract_subspace(model)
        angle = float(np.linalg.norm(V @ V.T - w.A @ w.A.T) ** 2)
        # Random-span baseline is 2 d (1 - d/D) = 3.
        assert angle < 0.3


class TestExtractSubspace:
    def test_orthonormal_input_projector_unchanged(self):
        rng = np.random.default_rng(0)
        V = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        model = CoveringScore(7, 3, nu=0.5, seed=1)
        model.params["V"] = V.copy()
        out = extract_subspace(model)
        np.testing.assert_allclose(out @ out.T, V @ V.T, atol=1e-10)

    def test_span_invariance_under_mixing(self):
        rng = np.random.default_rng(1)
        A = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        R = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        model = CoveringScore(7, 3, nu=0.5, seed=2)
        model.params["V"] = A @ R
        out = extract_subspace(model)
        np.testing.assert_allclose(out @ out.T, A @ A.T, atol=1e-10)

    def test_rank_deficient_raises(self):
        model = CoveringScore(7, 3, nu=0.5, seed=3)
        model.params["V"][:, 2] = model.params["V"][:, 0]
        with pytest.raises(ValidationError, match="decoder matrix is rank deficient"):
            extract_subspace(model)


class TestSerialization:
    @pytest.mark.parametrize("cls", _EncoderDecoderScore.__subclasses__(),
                             ids=lambda cls: cls.variant)
    def test_roundtrip_preserves_scores(self, cls):
        model = cls(6, 3, 0.5, seed=1)
        _perturb(model, np.random.default_rng(3))
        meta, blocks = model.to_blocks()
        clone = model_from_blocks(meta, blocks)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((4, 6))
        y = rng.standard_normal(4)
        np.testing.assert_array_equal(model(X, y, 0.5), clone(X, y, 0.5))
        clone_meta, clone_blocks = clone.to_blocks()
        assert clone_meta == meta and sorted(clone_blocks) == sorted(blocks)
        for name, block in blocks.items():
            np.testing.assert_array_equal(clone_blocks[name], block)
