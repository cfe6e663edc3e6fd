"""Reward estimation, pseudo-labeling, and coverage diagnostics.

The reward parameter is fit by ridge regression,
``theta = (X^T X + lambda I)^{-1} X^T y`` (a linear solve, never an explicit
inverse), the unlabeled pool is annotated with ``theta^T x + N(0, nu^2)``,
and the off-policy coverage quantity ``tr(Sigma_lambda^{-1} Sigma_target)``
is available both as a full ambient-dimension solve (``coverage_trace``)
and in the reduced latent-dimension form (``coverage_trace_factored``)

    tr((lam I_D + A S1 A^T)^{-1} A S2 A^T) = tr((lam I_d + S1)^{-1} S2),

which holds exactly for any orthonormal-column ``A`` and PSD ``S1, S2``;
``validate.check_trace_identity`` (criterion 4) checks it on those two.
``target_covariance`` gives the target second moment ``Sigma_target`` of
a cell from its ``GaussianDesignOracle``, the one holder of the cell's law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .oracle import GaussianDesignOracle, conditional_latent_law
from .world import LabeledDataset, SubspaceWorld

MAX_COND = 1e12


@dataclass(frozen=True)
class RidgeEstimate:
    theta_hat: np.ndarray         # (D,)
    lam: float
    n2: int
    sigma_hat_lambda: np.ndarray  # (D, D) = (X^T X + lam I) / n2

    def __post_init__(self):
        S = np.asarray(self.sigma_hat_lambda, dtype=float)
        # NaN passes every comparison below as False, so test it first.
        if not (np.all(np.isfinite(S)) and np.all(np.isfinite(self.theta_hat))):
            raise ValidationError("ridge estimate must be finite")
        if np.max(np.abs(S - S.T)) > 1e-8:
            raise ValidationError("sigma_hat_lambda must be symmetric")
        object.__setattr__(self, "theta_hat", np.asarray(self.theta_hat, dtype=float))
        object.__setattr__(self, "sigma_hat_lambda", 0.5 * (S + S.T))

    @property
    def D(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def v_lambda(self) -> np.ndarray:
        """Unnormalized regularized Gram matrix ``X^T X + lam I``."""
        return self.n2 * self.sigma_hat_lambda

    def beta_hat(self, world: SubspaceWorld) -> np.ndarray:
        """Latent-space reward direction ``A^T theta_hat``."""
        return world.A.T @ self.theta_hat


def fit_ridge(data: LabeledDataset, lam: float = 1.0) -> RidgeEstimate:
    """Solve the ridge normal equations with ``np.linalg.solve``.

    ``lam = 0`` is accepted only when the Gram matrix is numerically full
    rank (condition estimate below 1e12); otherwise a ``ValidationError`` is
    raised rather than returning a silently unstable solution.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValidationError("lambda must be finite and nonnegative")
    X, y = data.X, data.y
    D = X.shape[1]
    gram = X.T @ X + lam * np.eye(D)
    if lam == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > MAX_COND:
            raise ValidationError(f"unregularized system is rank deficient (cond {cond:.2e})")
    rhs = X.T @ y
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise ValidationError(str(exc)) from exc
    resid = np.linalg.norm(gram @ theta - rhs)
    if resid > 1e-8 * max(np.linalg.norm(rhs), 1.0):
        raise ValidationError(f"normal-equation residual too large ({resid:.3e})")
    return RidgeEstimate(
        theta_hat=theta, lam=lam, n2=data.n, sigma_hat_lambda=gram / data.n
    )


def pseudo_label(X: np.ndarray, est: RidgeEstimate, nu: float, *, seed) -> LabeledDataset:
    """Annotate the unlabeled (n, D) pool ``X`` with noisy predicted rewards."""
    if nu < 0:
        raise ValidationError("nu must be nonnegative")
    y = X @ est.theta_hat
    if nu > 0:
        y = y + nu * np.random.default_rng(seed).standard_normal(X.shape[0])
    return LabeledDataset(X=X, y=y)


def default_nu(D: int) -> float:
    """Default pseudo-label noise level, ``1/sqrt(D)``."""
    return 1.0 / np.sqrt(D)


def _check_psd(S: np.ndarray, name: str) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValidationError(f"{name} must be square")
    if np.max(np.abs(S - S.T)) > 1e-8:
        raise ValidationError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(S)
    if w.min() < -1e-10 * max(1.0, w.max()):
        raise ValidationError(f"{name} must be PSD (min eig {w.min():.3e})")
    return 0.5 * (S + S.T)


def coverage_trace(est: RidgeEstimate, sigma_pa: np.ndarray) -> float:
    """``tr(sigma_hat_lambda^{-1} sigma_pa)`` by a full D-dimensional solve."""
    S = _check_psd(sigma_pa, "sigma_pa")
    if S.shape[0] != est.D:
        raise ValidationError("sigma_pa dimension does not match estimate")
    return float(np.trace(np.linalg.solve(est.sigma_hat_lambda, S)))


def coverage_trace_factored(est: RidgeEstimate, A: np.ndarray, sigma2: np.ndarray) -> float:
    """Coverage trace when the target covariance is ``A sigma2 A^T``.

    Uses the reduced latent-dimension form, ``A^T V_lambda A = lam I_d + S1``
    for orthonormal-column ``A``; agrees with ``coverage_trace`` whenever
    the regression design itself lies in the span of ``A``.
    """
    S2 = _check_psd(sigma2, "sigma2")
    M = A.T @ est.v_lambda @ A
    return est.n2 * float(np.trace(np.linalg.solve(M, S2)))


def target_covariance(oracle: GaussianDesignOracle, a: float) -> np.ndarray:
    """Uncentered second moment of the label-conditioned data distribution.

    ``A (mu(a) mu(a)^T + Gamma) A^T`` with the oracle's conditional latent
    law, which a ridge fit conditions through ``beta_hat = A^T theta_hat``;
    symmetric PSD with rank at most d.
    """
    mean, cov = conditional_latent_law(oracle, a)
    A = oracle.world.A
    out = A @ (np.outer(mean, mean) + cov) @ A.T
    return 0.5 * (out + out.T)
