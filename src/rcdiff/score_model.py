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
  per-row time costs O(n d) after the eigenbasis is folded into ``V``;
* ``mlp``: a fully-connected rectified-linear network on the features
  ``(u, y, t, alpha(t), h(t))``.

Training minimizes the denoising objective: for a clean pair ``(x, y)``,
time ``t ~ U[t0, T]`` and ``x' ~ N(alpha(t) x, h(t) I)``, the target is
``-(x' - alpha(t) x)/h(t)`` and the loss is the mean squared error of the
model against it.  All gradients are computed in closed form (no autodiff)
and are exact for the sampled noise, so they match finite differences
pathwise.

Score callables follow one convention throughout the package:
``s(x, y, t) -> score`` where ``x`` is (n, D) or (D,), ``y`` is scalar or
(n,), and ``t`` is a scalar or a per-row (n,) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import hashlib
import json

import numpy as np

from .errors import ExtractionError, TrainingDivergedError, ValidationError
from .oracle import GaussianDesignOracle, DiffusionSchedule, alpha_of, analytic_score, h_of
from .regression import PseudoLabeledDataset
from .rng import as_generator, derive

SPD_FLOOR = 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard
VAL_SIZE = 512  # largest validation hold-out of ``train``


def _as_batch(x, y, t):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    n = X.shape[0]
    yv = np.broadcast_to(np.asarray(y, dtype=float).ravel(), (n,)).astype(float)
    tv = np.broadcast_to(np.asarray(t, dtype=float).ravel(), (n,)).astype(float)
    return X, yv, tv, single


class ZeroScore:
    """Trivial baseline: identically zero score."""

    score_id = "zero"

    def __call__(self, x, y, t):
        return np.zeros_like(np.asarray(x, dtype=float))


class CoveringScore:
    """Encoder-decoder score with the parametric Gaussian-design head."""

    variant = "covering"

    def __init__(self, D: int, d: int, nu: float, *, seed, params: dict | None = None):
        if not nu > 0:
            raise ValidationError("covering variant requires nu > 0")
        self.D, self.d, self.nu = int(D), int(d), float(nu)
        if params is not None:
            self.params = {k: np.array(v, dtype=float) for k, v in params.items()}
        else:
            rng = as_generator(seed)
            self.params = {
                "V": rng.standard_normal((D, d)) / np.sqrt(D),
                "beta_tilde": np.zeros(d),
                "sigma_inv_tril": np.eye(d),
            }

    def _head(self, alpha, h):
        """Eigenbasis of ``S`` and the factors of ``B_t`` in it.

        With ``S = Q diag(lam) Q^T`` (eigenvalues floored at ``SPD_FLOOR``)
        and ``bq = Q^T b``, ``Q^T B_t^{-1} Q = diag(alpha^2 + h lam) + c bq bq^T``
        where ``c = h/nu^2``.  Sherman-Morrison turns that into
        ``Q^T B_t Q v = dinv v - k (g.v) g`` with ``dinv = 1/(alpha^2 + h lam)``,
        ``g = dinv bq`` and ``k = c/(1 + c bq.g)``, which ``_b_apply`` applies
        in O(n d) with no inverse.  ``alpha`` and ``h`` are scalars for a
        shared time or (n,) per row; ``dinv`` and ``g`` are (d, 1) or (d, n).
        Returns ``Q``, ``VQ = V Q``, ``bq`` and ``(dinv, g, k)``.
        """
        # eigh reads only the lower triangle, which is the stored parameter.
        lam, Q = np.linalg.eigh(self.params["sigma_inv_tril"])
        bq = self.params["beta_tilde"] @ Q
        c = h / self.nu**2
        dinv = 1.0 / (alpha * alpha + h * np.maximum(lam, SPD_FLOOR)[:, None])
        g = dinv * bq[:, None]
        return Q, self.params["V"] @ Q, bq, (dinv, g, c / (1.0 + c * (bq @ g)))

    # -- forward ----------------------------------------------------------

    def __call__(self, x, y, t):
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        alpha, h = alpha_of(t), h_of(t)
        _, VQ, bq, B = self._head(alpha, h)
        # Rows of X are columns here, so a shared or a per-row time broadcasts
        # the same way along the last axis.
        w = alpha * (VQ.T @ X.T) + bq[:, None] * ((h / self.nu**2) * np.ravel(y))
        out = (alpha * _b_apply(B, w)).T @ VQ.T
        # In place: a fresh (n, D) temporary costs more than the arithmetic.
        out -= X
        out /= h[..., None]
        return out[0] if x.ndim == 1 else out

    # -- pathwise loss and exact gradients ---------------------------------

    def loss_and_grad(self, X, y, t, eps):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        eps = np.asarray(eps, dtype=float)
        n = X.shape[0]
        b = self.params["beta_tilde"]
        alpha, h = alpha_of(t), h_of(t)
        c = h / self.nu**2
        sqh = np.sqrt(h)

        Xp = alpha[:, None] * X + sqh[:, None] * eps
        r = -eps / sqh[:, None]

        # m = B w and p = B q, applied in the eigenbasis and rotated back.
        Q, VQ, bq, B = self._head(alpha, h)
        mq = _b_apply(B, alpha * (VQ.T @ Xp.T) + bq[:, None] * (c * y))
        s = ((alpha * mq).T @ VQ.T - Xp) / h[:, None]
        e = s - r
        loss = float(np.vdot(e, e)) / n

        m = (Q @ mq).T
        g = alpha[:, None] * m
        p = (Q @ _b_apply(B, (2.0 / h) * (VQ.T @ e.T))).T

        grad_V = ((2.0 / h)[:, None] * e).T @ g + ((alpha**2)[:, None] * Xp).T @ p
        coef = alpha * c
        grad_b = (
            p.T @ (coef * y)
            - p.T @ (coef * (m @ b))
            - m.T @ (coef * (p @ b))
        )
        G = -((alpha * h)[:, None] * p).T @ m
        sym = G + G.T
        grad_tril = np.tril(sym)
        np.fill_diagonal(grad_tril, np.diag(G))

        grads = {
            "V": grad_V / n,
            "beta_tilde": grad_b / n,
            "sigma_inv_tril": grad_tril / n,
        }
        return loss, grads

    # -- persistence --------------------------------------------------------

    def to_blocks(self):
        meta = {"variant": self.variant, "D": self.D, "d": self.d, "nu": self.nu}
        blocks = {
            "V": self.params["V"],
            "beta_tilde": self.params["beta_tilde"],
            "SigmaInv": self.params["sigma_inv_tril"],
        }
        return meta, blocks

    @classmethod
    def from_blocks(cls, meta: dict, blocks: dict) -> "CoveringScore":
        return cls(
            meta["D"], meta["d"], meta["nu"], seed=0,
            params={
                "V": blocks["V"],
                "beta_tilde": blocks["beta_tilde"],
                "sigma_inv_tril": blocks["SigmaInv"],
            },
        )

    @property
    def score_id(self) -> str:
        return "model:" + _digest(*self.to_blocks())


def _b_apply(factors, W):
    """``Q^T B_t Q`` times the columns of ``W`` (d, n); see ``CoveringScore._head``."""
    dinv, g, k = factors
    return dinv * W - (k * np.einsum("ij,ij->j", W, g)) * g


class MlpScore:
    """Encoder-decoder score with a small rectified-linear head."""

    variant = "mlp"

    def __init__(
        self,
        D: int,
        d: int,
        nu: float = 0.0,
        hidden: tuple = (128, 128),
        *,
        seed,
        params: dict | None = None,
    ):
        if not 1 <= len(hidden) <= 3:
            raise ValidationError("mlp head supports 1 to 3 hidden layers")
        self.D, self.d, self.nu = int(D), int(d), float(nu)
        self.hidden = tuple(int(w) for w in hidden)
        self.n_layers = len(self.hidden) + 1
        if params is not None:
            self.params = {k: np.array(v, dtype=float) for k, v in params.items()}
            return
        rng = as_generator(seed)
        dims = [d + 4, *self.hidden, d]
        self.params = {"V": rng.standard_normal((D, d)) / np.sqrt(D)}
        for i, (fin, fout) in enumerate(zip(dims[:-1], dims[1:]), start=1):
            self.params[f"W{i}"] = rng.standard_normal((fin, fout)) * np.sqrt(2.0 / fin)
            self.params[f"b{i}"] = np.zeros(fout)

    def _features(self, U, y, t):
        alpha, h = alpha_of(t), h_of(t)
        return np.column_stack([U, y, t, alpha, h])

    def _forward(self, F):
        acts = [F]
        pre = []
        a = F
        for i in range(1, self.n_layers + 1):
            z = a @ self.params[f"W{i}"] + self.params[f"b{i}"]
            pre.append(z)
            a = np.maximum(z, 0.0) if i < self.n_layers else z
            acts.append(a)
        return acts, pre

    def psi(self, U, y, t):
        acts, _ = self._forward(self._features(U, y, t))
        return acts[-1]

    def __call__(self, x, y, t):
        X, yv, tv, single = _as_batch(x, y, t)
        V = self.params["V"]
        out = (self.psi(X @ V, yv, tv) @ V.T - X) / h_of(tv)[:, None]
        return out[0] if single else out

    def loss_and_grad(self, X, y, t, eps):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        eps = np.asarray(eps, dtype=float)
        n = X.shape[0]
        V = self.params["V"]
        alpha, h = alpha_of(t), h_of(t)
        sqh = np.sqrt(h)

        Xp = alpha[:, None] * X + sqh[:, None] * eps
        r = -eps / sqh[:, None]
        U = Xp @ V
        acts, pre = self._forward(self._features(U, y, t))
        g = acts[-1]
        s = (g @ V.T - Xp) / h[:, None]
        e = s - r
        loss = float(np.mean(np.sum(e * e, axis=1)))

        q = (2.0 / h)[:, None] * (e @ V)
        grads = {}
        delta = q
        for i in range(self.n_layers, 0, -1):
            grads[f"W{i}"] = acts[i - 1].T @ delta / n
            grads[f"b{i}"] = delta.sum(axis=0) / n
            delta = delta @ self.params[f"W{i}"].T
            if i > 1:
                delta = delta * (pre[i - 2] > 0)
        dU = delta[:, : self.d]
        grads["V"] = (((2.0 / h)[:, None] * e).T @ g + Xp.T @ dU) / n
        return loss, grads

    def to_blocks(self):
        meta = {
            "variant": self.variant,
            "D": self.D,
            "d": self.d,
            "nu": self.nu,
            "hidden": list(self.hidden),
        }
        return meta, dict(self.params)

    @classmethod
    def from_blocks(cls, meta: dict, blocks: dict) -> "MlpScore":
        return cls(
            meta["D"], meta["d"], meta.get("nu", 0.0),
            hidden=tuple(meta["hidden"]), seed=0, params=blocks,
        )

    @property
    def score_id(self) -> str:
        return "model:" + _digest(*self.to_blocks())


def _digest(meta: dict, blocks: dict) -> str:
    sha = hashlib.sha256(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(blocks):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(blocks[name], dtype=float).tobytes())
    return sha.hexdigest()[:16]


def model_from_blocks(meta: dict, blocks: dict):
    if meta.get("variant") == "covering":
        return CoveringScore.from_blocks(meta, blocks)
    if meta.get("variant") == "mlp":
        return MlpScore.from_blocks(meta, blocks)
    raise ValidationError(f"unknown model variant {meta.get('variant')!r}")


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def pathwise_denoising_loss(score_fn, X, y, t, eps) -> float:
    """Mean denoising error of ``score_fn`` for fixed draws ``(t, eps)``."""
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    eps = np.asarray(eps, dtype=float)
    h = h_of(t)
    sqh = np.sqrt(h)
    Xp = alpha_of(t)[:, None] * X + sqh[:, None] * eps
    r = -eps / sqh[:, None]
    e = score_fn(Xp, y, t) - r
    return float(np.mean(np.sum(e * e, axis=1)))


def denoising_loss_and_grad(model, X, y, schedule: DiffusionSchedule, *, seed):
    """One stochastic evaluation of the training objective with exact grads.

    Times are uniform on ``[t0, T]`` and the noising draw is fresh per row;
    both depend only on ``seed`` and the batch shape, so repeated calls with
    the same seed are a fixed differentiable function of the parameters.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValidationError("batch must be nonempty")
    rng = as_generator(seed)
    t = rng.uniform(schedule.t0, schedule.terminal_time, X.shape[0])
    eps = rng.standard_normal(X.shape)
    y = np.broadcast_to(np.asarray(y, dtype=float).ravel(), (X.shape[0],))
    return model.loss_and_grad(X, y, t, eps)


def _curated_draws(oracle: GaussianDesignOracle, n: int, rng: np.random.Generator):
    """Clean pairs (x, y) from the Gaussian design of ``oracle``."""
    L = np.linalg.cholesky(oracle.world.Sigma)
    z = rng.standard_normal((n, oracle.world.d)) @ L.T
    y = z @ oracle.beta_hat + oracle.nu * rng.standard_normal(n)
    return z @ oracle.world.A.T, y


def exact_objective(score_fn, oracle: GaussianDesignOracle, n_mc: int,
                    schedule: DiffusionSchedule, *, seed):
    """Monte Carlo estimate of the explicit score-matching loss.

    Uses the closed-form score as ground truth; returns ``(mean, stderr)``.
    """
    rng = as_generator(seed)
    X, y = _curated_draws(oracle, n_mc, rng)
    t = rng.uniform(schedule.t0, schedule.terminal_time, n_mc)
    eps = rng.standard_normal(X.shape)
    Xp = alpha_of(t)[:, None] * X + np.sqrt(h_of(t))[:, None] * eps
    diff = analytic_score(oracle, Xp, y, t) - score_fn(Xp, y, t)
    vals = np.sum(diff * diff, axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_mc))


def denoising_objective(score_fn, oracle: GaussianDesignOracle, n_mc: int,
                        schedule: DiffusionSchedule, *, seed):
    """Monte Carlo estimate of the denoising objective; ``(mean, stderr)``."""
    rng = as_generator(seed)
    X, y = _curated_draws(oracle, n_mc, rng)
    t = rng.uniform(schedule.t0, schedule.terminal_time, n_mc)
    eps = rng.standard_normal(X.shape)
    h = h_of(t)
    Xp = alpha_of(t)[:, None] * X + np.sqrt(h)[:, None] * eps
    diff = score_fn(Xp, y, t) + eps / np.sqrt(h)[:, None]
    vals = np.sum(diff * diff, axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_mc))


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
        if not 0 < self.lr_decay <= 1.0:
            raise ValidationError("lr_decay must lie in (0, 1]")


@dataclass
class TrainResult:
    model: object
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


def train(model, curated: PseudoLabeledDataset, config: TrainConfig,
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
    X_train, y_train = curated.X[: n - n_val], curated.y_hat[: n - n_val]
    X_val, y_val = curated.X[n - n_val:], curated.y_hat[n - n_val:]
    if X_train.shape[0] == 0:
        X_train, y_train = curated.X, curated.y_hat

    rng = as_generator(derive(config.seed, 1))
    val_rng = as_generator(derive(config.seed, 2))
    t_val = val_rng.uniform(schedule.t0, schedule.terminal_time, X_val.shape[0])
    eps_val = val_rng.standard_normal(X_val.shape)

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
            t = rng.uniform(schedule.t0, schedule.terminal_time, idx.size)
            eps = rng.standard_normal((idx.size, X_train.shape[1]))
            loss, grads = model.loss_and_grad(X_train[idx], y_train[idx], t, eps)
            if not np.isfinite(loss):
                raise TrainingDivergedError(step, loss_trace + batch_losses)
            opt.step(model.params, grads)
            batch_losses.append(loss)
            step += 1
        loss_trace.append(float(np.mean(batch_losses)))
        val_trace.append(pathwise_denoising_loss(model, X_val, y_val, t_val, eps_val))
    return TrainResult(model=model, loss_trace=loss_trace, val_trace=val_trace)


def extract_subspace(model) -> np.ndarray:
    """Orthonormalized decoder matrix (thin QR, span preserving)."""
    V = model.params["V"]
    Q, R = np.linalg.qr(V)
    diag = np.diag(R)
    scale = np.max(np.abs(diag))
    if scale == 0.0 or np.min(np.abs(diag)) < 1e-10 * scale:
        raise ExtractionError("decoder matrix is rank deficient")
    return Q * np.sign(diag)
