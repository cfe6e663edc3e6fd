"""Trainable conditional score models and denoising training.

Every model in this module has the encoder-decoder shape

    s(x, y, t) = (V psi(V^T x, y, t) - x) / h(t),

with a D-by-d decoder ``V`` and an inner head ``psi`` in one of two
parameterizations:

* ``covering``: the closed-form head of the Gaussian design with learnable
  latent precision and reward direction,
  ``psi(u, y, t) = alpha(t) B_t (alpha(t) u + (h(t)/nu^2) y b)`` where
  ``B_t = (alpha^2 I + (h/nu^2) b b^T + h S)^{-1}`` and ``S`` is a symmetric
  matrix stored as its lower triangle.  ``B_t`` is never formed: one ``eigh``
  of ``S`` per call (eigenvalues floored at ``SPD_FLOOR``) makes
  ``alpha^2 I + h S`` diagonal, and the ``b b^T`` term is a rank-1
  Sherman-Morrison correction, so applying ``B_t`` at a shared or a
  per-row time costs O(n d^2) once ``u`` is rotated into the eigenbasis;
* ``mlp``: a fully-connected rectified-linear network on the features
  ``(u, y, t, alpha(t), h(t))``.

The shared base writes the encoder ``u = X V``, the decoder, the loss with
its gradients (the whole ``V`` gradient included) and the model file once,
and gives each model a span view (``SpanScore``): the same score on the
d coordinates of the decoder span, which the sampler steps in place of
all D.  The mlp's span view runs its head in float32; training, the
model's own call and the model file stay float64.
A variant writes only its head: ``_psi(u, y, t) -> (psi, cache)`` and its
backward ``_psi_grads(cache, dL/dpsi) -> (grads, dL/du)``, and names the
constructor arguments besides ``D``, ``d`` and ``nu`` in ``_shape_keys``.

Training minimizes the denoising objective: for a clean pair ``(x, y)``,
time ``t ~ U[t0, T]`` and ``x' = alpha(t) x + sqrt(h(t)) eps``, the target
is ``-eps/sqrt(h(t))`` and the loss is the mean squared error of the model
against it.  That noising and target (``_noised``) and the ``(t, eps)`` draw
(``_time_and_noise``) are each written once.  All gradients are computed in
closed form (no autodiff) and are exact for the sampled noise, so they match
finite differences pathwise.

Score callables follow one convention throughout the package:
``s(x, y, t) -> score`` where ``x`` is (n, D) or (D,), ``y`` is scalar or
(n,), and ``t`` is a scalar or a per-row (n,) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError, ValidationError
from .oracle import GaussianDesignOracle, DiffusionSchedule, alpha_of, analytic_score, h_of
from .rng import derive
from .world import LabeledDataset, orthonormal_columns

SPD_FLOOR = 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard
VAL_SIZE = 512  # largest validation hold-out of ``train``
# ``train`` draws under ``TrainConfig.seed``, which the pipeline sets to the
# cell seed, so these codes share the stage-code table in ``pipeline``.
SEED_TRAIN_STEPS = 1  # shuffles and per-step (t, eps) draws
SEED_TRAIN_VAL = 2    # the frozen validation draws


class ZeroScore:
    """Trivial baseline: identically zero score."""

    def __call__(self, x, y, t):
        return np.zeros_like(np.asarray(x, dtype=float))


class _EncoderDecoderScore:
    """``s = (psi(X V, y, t) V^T - X) / h(t)``: encoder, decoder, loss, file.

    A variant supplies the head on the (n, d) code ``u``:
    ``_psi(u, y, t) -> (psi, cache)`` and
    ``_psi_grads(cache, dpsi) -> (grads, du)``, which maps the gradient of
    the loss with respect to ``psi`` to the gradients of the head's
    parameters and the gradient with respect to ``u``.
    """

    _shape_keys: tuple = ()  # constructor arguments kept in the model file
    # True for a head affine in u, which makes the score affine in x: the
    # sampler then draws the span view's state from its exact law.
    affine = False

    def __call__(self, x, y, t):
        x = np.asarray(x, dtype=float)
        s, _ = self._decoded(np.atleast_2d(x), self.params["V"], y, t)
        return s[0] if x.ndim == 1 else s

    def _decoded(self, X, W, y, t, **head):
        """``(psi(X W, y, t) W^T - X) / h(t)`` with the cache of the head;
        ``head`` goes to ``_psi``, and a float32 ``psi`` is cast back first."""
        h = h_of(t)
        psi, cache = self._psi(X @ W, y, t, **head)
        psi = psi.astype(float, copy=False)
        out = psi @ W.T
        # In place: a fresh (n, D) temporary costs more than the arithmetic.
        out -= X
        out /= h[..., None]
        return out, (h, psi, cache)

    def span_view(self) -> "SpanScore":
        """This score on the coordinates of its decoder span; see ``SpanScore``."""
        return SpanScore(self)

    def loss_and_grad(self, X, y, t, eps):
        """Pathwise denoising loss for fixed draws ``(t, eps)``, exact gradients.

        With ``w = 2/h`` per row and residual ``e = s - target``, the loss
        ``sum ||e||^2`` has ``dL/dpsi = w (e V)`` and
        ``dL/dV = (w e)^T psi + X^T dL/du``.
        """
        Xp, target = _noised(X, t, eps)
        s, (h, psi, cache) = self._decoded(Xp, self.params["V"], y, t)
        e = s - target
        w = (2.0 / h)[:, None]
        grads, du = self._psi_grads(cache, w * (e @ self.params["V"]))
        grads["V"] = (w * e).T @ psi + Xp.T @ du
        n = Xp.shape[0]
        return float(np.vdot(e, e)) / n, {k: g / n for k, g in grads.items()}

    # -- persistence --------------------------------------------------------

    def to_blocks(self):
        meta = {"variant": self.variant, "D": self.D, "d": self.d, "nu": self.nu}
        meta.update((k, getattr(self, k)) for k in self._shape_keys)
        return meta, dict(self.params)

    @classmethod
    def from_blocks(cls, meta: dict, blocks: dict):
        """A fresh model of ``meta``'s shape with every parameter read from ``blocks``."""
        model = cls(meta["D"], meta["d"], meta["nu"], seed=0,
                    **{k: meta[k] for k in cls._shape_keys})
        for name, param in model.params.items():
            block = np.array(blocks[name], dtype=float)
            if block.shape != param.shape:
                raise ValidationError(
                    f"block {name!r} has shape {block.shape}, expected {param.shape}")
            model.params[name] = block
        return model


class SpanScore:
    """An encoder-decoder score on span coordinates ``u = x Q``.

    ``Q`` is the orthonormal decoder basis of ``extract_subspace(model)``
    and ``V = Q R``, so ``x V = u R`` and the span part of the score is
    ``s_u(u, y, t) = (psi(u R, y, t) R^T - u) / h(t)``, an (m, d) array.
    The score declares ``D = d``, carries ``Q`` and declares ``affine``
    as its model does: ``run_backward`` draws the (m, d) state of such a
    score from its chain's exact law (affine) or steps it, and draws the
    rest of each point off the span (see ``rcdiff.sampler``).

    A stepped (non-affine) head runs in float32 on float32 copies of its
    weights; ``psi`` is cast back to float64 before ``psi R^T - u`` and the
    division by ``h``, where the cancellation is.  An affine head stays
    float64: ``chain_law`` reads its slope off differences of calls.
    """

    def __init__(self, model: _EncoderDecoderScore):
        self.model = model
        self.affine = model.affine
        self.Q = extract_subspace(model)
        self.R = self.Q.T @ model.params["V"]
        self.D = model.d
        self._head = {} if model.affine else {
            "weights": {k: w.astype(np.float32) for k, w in model.params.items() if k != "V"},
            "dtype": np.float32,
        }

    def __call__(self, u, y, t):
        return self.model._decoded(u, self.R, y, t, **self._head)[0]


class CoveringScore(_EncoderDecoderScore):
    """Encoder-decoder score with the parametric Gaussian-design head."""

    variant = "covering"
    affine = True

    def __init__(self, D: int, d: int, nu: float, *, seed):
        if not nu > 0:
            raise ValidationError("covering variant requires nu > 0")
        self.D, self.d, self.nu = int(D), int(d), float(nu)
        rng = np.random.default_rng(seed)
        self.params = {
            "V": rng.standard_normal((D, d)) / np.sqrt(D),
            "beta_tilde": np.zeros(d),
            "sigma_inv_tril": np.eye(d),
        }

    def _factors(self, alpha, h):
        """Eigenbasis of ``S`` and the factors of ``B_t`` in it.

        With ``S = Q diag(lam) Q^T`` (eigenvalues floored at ``SPD_FLOOR``)
        and ``bq = Q^T b``, ``Q^T B_t^{-1} Q = diag(alpha^2 + h lam) + c bq bq^T``
        where ``c = h/nu^2``.  Sherman-Morrison turns that into
        ``Q^T B_t Q v = dinv v - k (g.v) g`` with ``dinv = 1/(alpha^2 + h lam)``,
        ``g = dinv bq`` and ``k = c/(1 + c bq.g)``, which ``_b_apply`` applies
        in O(n d) with no inverse.  ``alpha`` and ``h`` are scalars for a
        shared time or (n,) per row; ``dinv`` and ``g`` are (d, 1) or (d, n).
        Returns ``Q``, ``bq`` and ``(dinv, g, k)``.
        """
        # eigh reads only the lower triangle, which is the stored parameter.
        lam, Q = np.linalg.eigh(self.params["sigma_inv_tril"])
        bq = self.params["beta_tilde"] @ Q
        c = h / self.nu**2
        dinv = 1.0 / (alpha * alpha + h * np.maximum(lam, SPD_FLOOR)[:, None])
        g = dinv * bq[:, None]
        return Q, bq, (dinv, g, c / (1.0 + c * (bq @ g)))

    def _psi(self, u, y, t):
        alpha, h = alpha_of(t), h_of(t)
        c = h / self.nu**2
        y = np.ravel(y)
        Q, bq, B = self._factors(alpha, h)
        # Rows of u are columns here, so a shared or a per-row time broadcasts
        # the same way along the last axis.  m = B w, rotated back from the
        # eigenbasis.
        m = (Q @ _b_apply(B, alpha * (Q.T @ u.T) + bq[:, None] * (c * y))).T
        return alpha[..., None] * m, (y, alpha, h, c, Q, B, m)

    def _psi_grads(self, cache, dpsi):
        y, alpha, h, c, Q, B, m = cache
        b = self.params["beta_tilde"]
        p = (Q @ _b_apply(B, Q.T @ dpsi.T)).T  # B dpsi, row by row
        coef = alpha * c
        grad_b = (
            p.T @ (coef * y)
            - p.T @ (coef * (m @ b))
            - m.T @ (coef * (p @ b))
        )
        G = -((alpha * h)[:, None] * p).T @ m
        grad_tril = np.tril(G + G.T)
        np.fill_diagonal(grad_tril, np.diag(G))
        return {"beta_tilde": grad_b, "sigma_inv_tril": grad_tril}, (alpha**2)[:, None] * p


def _b_apply(factors, W):
    """``Q^T B_t Q`` times the columns of ``W`` (d, n); see ``CoveringScore._factors``."""
    dinv, g, k = factors
    return dinv * W - (k * np.einsum("ij,ij->j", W, g)) * g


class MlpScore(_EncoderDecoderScore):
    """Encoder-decoder score with a small rectified-linear head."""

    variant = "mlp"
    _shape_keys = ("hidden",)

    def __init__(self, D: int, d: int, nu: float = 0.0, hidden: tuple = (128, 128), *, seed):
        if not 1 <= len(hidden) <= 3:
            raise ValidationError("mlp head supports 1 to 3 hidden layers")
        self.D, self.d, self.nu = int(D), int(d), float(nu)
        self.hidden = tuple(int(w) for w in hidden)
        self.n_layers = len(self.hidden) + 1
        rng = np.random.default_rng(seed)
        dims = [d + 4, *self.hidden, d]
        self.params = {"V": rng.standard_normal((D, d)) / np.sqrt(D)}
        for i, (fin, fout) in enumerate(zip(dims[:-1], dims[1:]), start=1):
            self.params[f"W{i}"] = rng.standard_normal((fin, fout)) * np.sqrt(2.0 / fin)
            self.params[f"b{i}"] = np.zeros(fout)

    def _psi(self, u, y, t, weights=None, dtype=float):
        """The head on the features ``(u, y, t, alpha(t), h(t))``, built and
        run in ``dtype`` with ``weights`` (default: the float64 parameters)."""
        weights = self.params if weights is None else weights
        n, d = u.shape
        t = np.broadcast_to(np.asarray(t, dtype=float).ravel(), (n,)).astype(float)
        # Filled column by column: np.column_stack would upcast to float64.
        a = np.empty((n, d + 4), dtype)
        a[:, :d] = u
        a[:, d] = np.ravel(y)
        a[:, d + 1] = t
        a[:, d + 2] = alpha_of(t)
        a[:, d + 3] = h_of(t)
        acts = [a]
        for i in range(1, self.n_layers + 1):
            # In place: the cache keeps every layer, and fresh (n, width) arrays page-fault.
            a = a @ weights[f"W{i}"]
            a += weights[f"b{i}"]
            if i < self.n_layers:
                np.maximum(a, 0.0, out=a)
            acts.append(a)
        return a, acts

    def _psi_grads(self, acts, delta):
        grads = {}
        for i in range(self.n_layers, 0, -1):
            grads[f"W{i}"] = acts[i - 1].T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            delta = delta @ self.params[f"W{i}"].T
            if i > 1:
                delta = delta * (acts[i - 1] > 0)  # ReLU output > 0 iff its input > 0
        return grads, delta[:, : self.d]


def model_from_blocks(meta: dict, blocks: dict):
    for cls in _EncoderDecoderScore.__subclasses__():
        if meta.get("variant") == cls.variant:
            return cls.from_blocks(meta, blocks)
    raise ValidationError(f"unknown model variant {meta.get('variant')!r}")


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def _noised(X, t, eps):
    """``x' = alpha(t) x + sqrt(h(t)) eps`` and its target ``-eps/sqrt(h(t))``."""
    sqh = np.sqrt(h_of(t))[:, None]
    eps = np.asarray(eps, dtype=float)
    return alpha_of(t)[:, None] * np.asarray(X, dtype=float) + sqh * eps, -eps / sqh


def _time_and_noise(rng: np.random.Generator, schedule: DiffusionSchedule, shape):
    """Per-row times uniform on ``[t0, T]``, then standard normal noise."""
    t = rng.uniform(schedule.t0, schedule.terminal_time, shape[0])
    return t, rng.standard_normal(shape)


def _denoising_errors(score_fn, X, y, t, eps):
    """Per-row squared error of ``score_fn`` against the denoising target."""
    Xp, target = _noised(X, t, eps)
    e = score_fn(Xp, y, t) - target
    return np.sum(e * e, axis=1)


def pathwise_denoising_loss(score_fn, X, y, t, eps) -> float:
    """Mean denoising error of ``score_fn`` for fixed draws ``(t, eps)``."""
    return float(np.mean(_denoising_errors(score_fn, X, y, t, eps)))


def _monte_carlo(per_row, oracle: GaussianDesignOracle, n_mc: int,
                 schedule: DiffusionSchedule, seed):
    """``(mean, stderr)`` of ``per_row(X, y, t, eps)`` over the design of ``oracle``."""
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(oracle.world.Sigma)
    z = rng.standard_normal((n_mc, oracle.world.d)) @ L.T
    y = z @ oracle.beta_hat + oracle.nu * rng.standard_normal(n_mc)
    X = z @ oracle.world.A.T
    vals = per_row(X, y, *_time_and_noise(rng, schedule, X.shape))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_mc))


def exact_objective(score_fn, oracle: GaussianDesignOracle, n_mc: int,
                    schedule: DiffusionSchedule, *, seed):
    """Monte Carlo estimate of the explicit score-matching loss.

    Uses the closed-form score as ground truth; returns ``(mean, stderr)``.
    """
    def per_row(X, y, t, eps):
        Xp, _ = _noised(X, t, eps)
        diff = analytic_score(oracle, Xp, y, t) - score_fn(Xp, y, t)
        return np.sum(diff * diff, axis=1)
    return _monte_carlo(per_row, oracle, n_mc, schedule, seed)


def denoising_objective(score_fn, oracle: GaussianDesignOracle, n_mc: int,
                        schedule: DiffusionSchedule, *, seed):
    """Monte Carlo estimate of the denoising objective; ``(mean, stderr)``."""
    return _monte_carlo(lambda *draws: _denoising_errors(score_fn, *draws),
                        oracle, n_mc, schedule, seed)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 10
    learning_rate: float = 3e-3
    lr_decay: float = 1.0     # per-epoch geometric factor
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValidationError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be at least 1")
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be positive")
        if not 0 < self.lr_decay <= 1.0:
            raise ValidationError("lr_decay must lie in (0, 1]")


@dataclass
class TrainResult:
    loss_trace: list          # mean train loss per epoch
    val_trace: list           # fixed-draw validation loss, epochs + 1 entries


class Adam:
    """First-order moment-based optimizer with bias correction."""

    def __init__(self, params: dict, lr: float):
        self.lr, self.b1, self.b2, self.eps = lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            params[k] -= self.lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)


def train(model, curated: LabeledDataset, config: TrainConfig,
          schedule: DiffusionSchedule) -> TrainResult:
    """Denoising training loop: seeded shuffling, per-row time draws, Adam.

    A fixed validation batch (the trailing ``VAL_SIZE`` rows, with frozen
    time and noise draws) is evaluated before training and after every
    epoch.  A non-finite loss aborts with a diagnostic snapshot.
    """
    n = curated.n
    if n == 0:
        raise ValidationError("curated dataset must be nonempty")
    n_val = min(VAL_SIZE, max(n // 8, 1))
    X_train, y_train = curated.X[: n - n_val], curated.y[: n - n_val]
    X_val, y_val = curated.X[n - n_val:], curated.y[n - n_val:]
    if X_train.shape[0] == 0:
        X_train, y_train = curated.X, curated.y

    rng = np.random.default_rng(derive(config.seed, SEED_TRAIN_STEPS))
    val_rng = np.random.default_rng(derive(config.seed, SEED_TRAIN_VAL))
    t_val, eps_val = _time_and_noise(val_rng, schedule, X_val.shape)

    opt = Adam(model.params, config.learning_rate)
    loss_trace: list = []
    val_trace = [pathwise_denoising_loss(model, X_val, y_val, t_val, eps_val)]
    n_train = X_train.shape[0]
    step = 0
    for epoch in range(config.epochs):
        opt.lr = config.learning_rate * config.lr_decay**epoch
        perm = rng.permutation(n_train)
        batch_losses = []
        for lo in range(0, n_train, config.batch_size):
            idx = perm[lo: lo + config.batch_size]
            t, eps = _time_and_noise(rng, schedule, (idx.size, X_train.shape[1]))
            loss, grads = model.loss_and_grad(X_train[idx], y_train[idx], t, eps)
            if not np.isfinite(loss):
                raise TrainingDivergedError(step, loss_trace + batch_losses)
            opt.step(model.params, grads)
            batch_losses.append(loss)
            step += 1
        loss_trace.append(float(np.mean(batch_losses)))
        val_trace.append(pathwise_denoising_loss(model, X_val, y_val, t_val, eps_val))
    return TrainResult(loss_trace=loss_trace, val_trace=val_trace)


def extract_subspace(model) -> np.ndarray:
    """Orthonormalized decoder matrix (thin QR, span preserving)."""
    return orthonormal_columns(model.params["V"], "decoder matrix")
