"""Synthetic ground truth: linear subspace, Gaussian latents, linear reward.

The data model is ``x = A z`` with ``A`` a D-by-d matrix with orthonormal
columns and ``z ~ N(0, Sigma)``.  The reward of a point decomposes along the
subspace,

    f(x) = theta^T x_par + sign * c_perp * ||x_perp||^2,

where ``x_par = A A^T x`` is the on-support part, ``theta = A beta`` is a
unit vector, and the off-support term is a penalty (``sign = -1``, default)
or a bonus (``sign = +1``).  Labels are ``y = f(x) + N(0, sigma^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ORTHO_TOL = 1e-10


def _check_orthonormal(A: np.ndarray, tol: float = ORTHO_TOL, name: str = "A") -> None:
    gram = A.T @ A
    err = np.max(np.abs(gram - np.eye(A.shape[1])))
    if err > tol:
        raise ValidationError(f"{name}: columns not orthonormal (max Gram error {err:.3e})")


def _check_spd(S: np.ndarray, name: str = "Sigma") -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {S.shape}")
    if np.max(np.abs(S - S.T)) > 1e-10:
        raise ValidationError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(S)
    if eigs.min() <= 0:
        raise ValidationError(f"{name} must be positive definite (min eig {eigs.min():.3e})")
    return S


@dataclass(frozen=True)
class SubspaceWorld:
    """Ground truth for one experiment: support, latent law, and reward."""

    A: np.ndarray                 # (D, d), orthonormal columns
    Sigma: np.ndarray             # (d, d), SPD with eigenvalues in (0, 1]
    beta_star: np.ndarray         # (d,), unit norm
    offsupport_coeff: float = 5.0
    offsupport_sign: str = "penalty"

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] < A.shape[1]:
            raise ValidationError(f"A must be D x d with d <= D, got {A.shape}")
        _check_orthonormal(A)
        S = _check_spd(self.Sigma)
        if S.shape[0] != A.shape[1]:
            raise ValidationError("Sigma dimension does not match d")
        if np.linalg.eigvalsh(S).max() > 1.0 + 1e-10:
            raise ValidationError("Sigma eigenvalues must lie in (0, 1]")
        b = np.asarray(self.beta_star, dtype=float)
        if b.shape != (A.shape[1],):
            raise ValidationError("beta_star dimension does not match d")
        if abs(np.linalg.norm(b) - 1.0) > ORTHO_TOL:
            raise ValidationError("beta_star must have unit norm")
        if self.offsupport_coeff < 0:
            raise ValidationError("offsupport_coeff must be nonnegative")
        if self.offsupport_sign not in ("penalty", "bonus"):
            raise ValidationError("offsupport_sign must be 'penalty' or 'bonus'")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Sigma", S)
        object.__setattr__(self, "beta_star", b)

    @property
    def D(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def theta_star(self) -> np.ndarray:
        return self.A @ self.beta_star

    @property
    def sign(self) -> float:
        return -1.0 if self.offsupport_sign == "penalty" else 1.0


@dataclass(frozen=True)
class LabeledDataset:
    """Features with reward labels: the labeled set, or the pool after ``pseudo_label``."""

    X: np.ndarray                 # (n, D)
    y: np.ndarray                 # (n,)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if y.shape != (X.shape[0],):
            raise ValidationError("y length does not match number of rows")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def orthonormal_columns(G: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Q factor of the thin QR of the D x d matrix ``G``, column signs set so
    that R's diagonal is positive: the same span, a unique basis."""
    Q, R = np.linalg.qr(G)
    diag = np.diag(R)
    scale = np.max(np.abs(diag))
    if scale == 0.0 or np.min(np.abs(diag)) < 1e-10 * scale:
        raise ValidationError(f"{name} is rank deficient")
    return Q * np.sign(diag)


def sample_orthonormal(D: int, d: int, seed) -> np.ndarray:
    """Haar-distributed D x d matrix with orthonormal columns.

    Obtained as the Q factor of an i.i.d. Gaussian matrix with the sign of
    each R diagonal entry fixed, which makes the law rotation invariant and
    the output a deterministic function of the seed.
    """
    if not 1 <= d <= D:
        raise ValidationError(f"need 1 <= d <= D, got D={D}, d={d}")
    return orthonormal_columns(np.random.default_rng(seed).standard_normal((D, d)))


def sample_unit_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere in R^d."""
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def make_world(
    D: int = 64,
    d: int = 16,
    sigma: np.ndarray | None = None,
    offsupport_coeff: float = 5.0,
    offsupport_sign: str = "penalty",
    *,
    seed,
) -> SubspaceWorld:
    """Draw a random world: Haar subspace, sphere-uniform reward direction.

    ``sigma`` defaults to the identity latent covariance; any SPD matrix
    with eigenvalues in (0, 1] is accepted.
    """
    rng = np.random.default_rng(seed)
    A = sample_orthonormal(D, d, rng)
    beta = sample_unit_sphere(d, rng)
    if sigma is None:
        sigma = np.eye(d)
    return SubspaceWorld(
        A=A,
        Sigma=sigma,
        beta_star=beta,
        offsupport_coeff=offsupport_coeff,
        offsupport_sign=offsupport_sign,
    )


def decompose(world: SubspaceWorld, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``x`` into its on-support and orthogonal parts.

    Works on a single vector (D,) or a batch (n, D).
    """
    x = np.asarray(x, dtype=float)
    x_par = (x @ world.A) @ world.A.T
    return x_par, x - x_par


def true_reward(world: SubspaceWorld, x: np.ndarray):
    """Evaluate the ground-truth reward at ``x`` ((D,) scalar or (n, D) vector)."""
    x_par, x_perp = decompose(world, x)
    linear = x_par @ world.theta_star
    off = np.sum(x_perp * x_perp, axis=-1)
    return linear + world.sign * world.offsupport_coeff * off


def generate_datasets(
    world: SubspaceWorld,
    n1: int = 65536,
    n2: int = 8192,
    noise_sigma: float = 0.1,
    *,
    seed,
) -> tuple[np.ndarray, LabeledDataset]:
    """Draw an unlabeled (n1, D) pool and a labeled set of size ``n2``.

    Latents are i.i.d. ``N(0, Sigma)``, ``x = A z``, and labels carry
    additive ``N(0, noise_sigma^2)`` noise.  Both sets come from a single
    seeded stream, unlabeled first, so the pair is reproducible from
    ``(world, n1, n2, noise_sigma, seed)``.
    """
    if n1 < 1 or n2 < 1:
        raise ValidationError("n1 and n2 must be at least 1")
    if not 0 <= noise_sigma < 1:
        raise ValidationError("noise_sigma must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(world.Sigma)
    z1 = rng.standard_normal((n1, world.d)) @ L.T
    z2 = rng.standard_normal((n2, world.d)) @ L.T
    X1 = z1 @ world.A.T
    X2 = z2 @ world.A.T
    y2 = true_reward(world, X2)
    if noise_sigma > 0:
        y2 = y2 + noise_sigma * rng.standard_normal(n2)
    return X1, LabeledDataset(X=X2, y=y2)
