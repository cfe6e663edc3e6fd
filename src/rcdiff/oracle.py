"""Closed-form quantities for the Gaussian design.

With latent ``z ~ N(0, Sigma)``, data ``x = A z``, and labels
``y = beta^T z + N(0, nu^2)``, the forward-noised joint density at time ``t``
admits closed forms for everything this package needs to test itself:

* conditional score:
    ``grad_x log p_t(x, y) = (a/h) A B_t (a A^T x + (h/nu^2) y beta) - x/h``
  with ``a = alpha(t) = exp(-t/2)``, ``h = h(t) = 1 - exp(-t)`` and
    ``B_t = (alpha^2(t) I + (h(t)/nu^2) beta beta^T + h(t) Sigma^{-1})^{-1}``;
* conditional latent law ``z | y = a``:  ``N(mu(a), Gamma)`` with
    ``mu(a) = Sigma beta a / (beta^T Sigma beta + nu^2)`` and
    ``Gamma = Sigma - Sigma beta beta^T Sigma / (beta^T Sigma beta + nu^2)``;
* its noised push-forward at time ``t``:
    ``N(alpha(t) A mu(a), alpha^2(t) A Gamma A^T + h(t) I_D)``;
* the latent second moment ``M(a) = ||mu(a)||^2 + tr(Gamma)``.

The module also carries a quadrature + finite-difference reference for the
score in the d=1 case, kept deliberately independent of the formulas above:
it integrates the latent variable numerically and differentiates the log
density, so it can catch errors in the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .world import SubspaceWorld, _check_spd


def alpha_of(t):
    """Signal scale of the forward noising process (unit drift weight)."""
    return np.exp(-0.5 * np.asarray(t, dtype=float))


def h_of(t):
    """Noise variance of the forward noising process; alpha^2 + h = 1."""
    return -np.expm1(-np.asarray(t, dtype=float))


@dataclass(frozen=True)
class DiffusionSchedule:
    """Time discretization of one generation run.

    ``terminal_time`` is where the backward process starts, ``t0`` the early
    stop (the score diverges at t=0), ``eta`` the Euler step.  ``t0 ==
    terminal_time`` is allowed and makes generation a no-op that returns the
    standard-normal initialization.
    """

    terminal_time: float = 10.0
    t0: float = 0.01
    eta: float = 0.01

    def __post_init__(self):
        if not 0 < self.t0 <= self.terminal_time:
            raise ValidationError("need 0 < t0 <= terminal_time")
        if not 0 < self.eta <= self.t0:
            raise ValidationError("need 0 < eta <= t0")


@dataclass(frozen=True)
class GaussianDesignOracle:
    """Closed-form reference for a world, a reward direction, and label noise.

    ``beta_hat`` is the latent-space reward vector entering the labels; for
    a fitted estimate ``theta`` it is ``A^T theta``, and for ground-truth
    checks it is the world's own ``beta_star``.
    """

    world: SubspaceWorld
    beta_hat: np.ndarray          # (d,)
    nu: float

    def __post_init__(self):
        b = np.asarray(self.beta_hat, dtype=float)
        if b.shape != (self.world.d,):
            raise ValidationError("beta_hat dimension does not match world")
        if not self.nu > 0:
            raise ValidationError("nu must be positive")
        _check_spd(self.world.Sigma)
        object.__setattr__(self, "beta_hat", b)
        object.__setattr__(
            self, "_sigma_inv", np.linalg.inv(self.world.Sigma)
        )

    @property
    def sigma_inv(self) -> np.ndarray:
        return self._sigma_inv


def b_matrix(oracle: GaussianDesignOracle, t) -> np.ndarray:
    """The d x d matrix inverting the noised latent precision at time ``t``.

    A scalar ``t`` gives one (d, d) matrix; a 1-D ``t`` of length k gives
    the (k, d, d) stack, one plain inverse per time.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValidationError("the oracle's B_t requires t > 0 (the score blows up at t=0)")
    a2 = (alpha_of(t) ** 2)[..., None, None]
    h = h_of(t)[..., None, None]
    b = oracle.beta_hat
    M = a2 * np.eye(oracle.world.d) + (h / oracle.nu**2) * np.outer(b, b)
    M += h * oracle.sigma_inv
    B = np.linalg.inv(M)
    return 0.5 * (B + np.swapaxes(B, -1, -2))


def analytic_score(oracle: GaussianDesignOracle, x: np.ndarray, y, t) -> np.ndarray:
    """Conditional score of the noised joint law at time ``t > 0``.

    Accepts a single point ``x`` of shape (D,) with scalar ``y``, or a batch
    (n, D) with ``y`` scalar or (n,).  A scalar ``t`` is shared by every
    row, which are contracted with one (d, d) ``B_t``; a per-row (n,) ``t``
    takes one ``B_t`` per row from the (n, d, d) stack.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    t = np.asarray(t, dtype=float)
    B = b_matrix(oracle, t)
    t_col = t[:, None] if t.ndim else t  # broadcasts against the (n, d) rows
    al, h = alpha_of(t_col), h_of(t_col)
    A = oracle.world.A
    w = al * (X @ A) + (h / oracle.nu**2) * np.outer(y, oracle.beta_hat)
    inner = al * (np.einsum("nij,nj->ni", B, w) if t.ndim else w @ B)
    out = (inner @ A.T - X) / h
    return out[0] if x.ndim == 1 else out


def conditional_latent_law(oracle: GaussianDesignOracle, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the latent conditioned on label value ``a``."""
    S = oracle.world.Sigma
    b = oracle.beta_hat
    Sb = S @ b
    denom = float(b @ Sb) + oracle.nu**2
    mean = (a / denom) * Sb
    cov = S - np.outer(Sb, Sb) / denom
    return mean, 0.5 * (cov + cov.T)


def sample_conditional_latents(
    oracle: GaussianDesignOracle, a: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` latents from the conditional law (PSD-safe square root)."""
    mean, cov = conditional_latent_law(oracle, a)
    evals, evecs = np.linalg.eigh(cov)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    return mean + rng.standard_normal((n, len(mean))) @ root.T


def noised_conditional_law(
    oracle: GaussianDesignOracle, a: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ambient-law moments of conditioned data pushed through the noising to ``t``."""
    if t < 0:
        raise ValidationError("t must be nonnegative")
    mean, cov = conditional_latent_law(oracle, a)
    A = oracle.world.A
    al = float(alpha_of(t))
    m = al * (A @ mean)
    C = al**2 * (A @ cov @ A.T) + float(h_of(t)) * np.eye(oracle.world.D)
    return m, C


def latent_second_moment(oracle: GaussianDesignOracle, a: float) -> float:
    """E ||z||^2 under the conditional latent law, ``||mu(a)||^2 + tr(Gamma)``."""
    mean, cov = conditional_latent_law(oracle, a)
    return float(mean @ mean + np.trace(cov))


def distro_shift_surrogate(oracle: GaussianDesignOracle, a: float) -> float:
    """Known-covariance distribution-shift proxy ``sqrt(M(a) / tr(Sigma))``
    with ``M`` the latent second moment; dimensionless and nondecreasing
    in ``|a|``."""
    return math.sqrt(latent_second_moment(oracle, a) / float(np.trace(oracle.world.Sigma)))


@dataclass(frozen=True)
class AnalyticScore:
    """Callable adapter exposing the closed-form score to sampler and losses.

    ``Q`` is set on a span view only (see ``span_view``).  The score is
    affine in ``x``, so ``run_backward`` draws a span view's state from
    its chain's exact law.
    """

    oracle: GaussianDesignOracle
    Q: np.ndarray | None = None
    affine = True  # unannotated, so a class attribute, not a field

    def __call__(self, x, y, t):
        return analytic_score(self.oracle, x, y, t)

    @property
    def D(self) -> int:
        return self.oracle.world.D

    def span_view(self) -> "AnalyticScore":
        """This score on span coordinates ``u = x A``, where its span part is
        ``(a/h) B_t (a u + (h/nu^2) y beta) - u/h``: the closed form of the
        same oracle with ``A`` replaced by ``I_d``, so ``D = d``, carrying
        ``Q = A`` (``run_backward`` samples it as it samples a covering
        ``SpanScore``)."""
        world = self.oracle.world
        flat = replace(self.oracle, world=replace(world, A=np.eye(world.d)))
        return AnalyticScore(flat, Q=world.A)


# ---------------------------------------------------------------------------
# Quadrature + finite-difference reference (d = 1 only)
# ---------------------------------------------------------------------------

def log_density_quadrature(oracle: GaussianDesignOracle, x: np.ndarray, y: float, t: float) -> float:
    """log p_t(x, y) up to an x-independent constant, via 1-D quadrature.

    Only the scalar-latent case is supported.  The latent integral is
    located by a grid scan of its exponent (no use of the closed forms) and
    evaluated by the trapezoid rule on 2001 nodes of a window whose edges
    sit 14 standard deviations out.  The integrand is the exponential of a
    quadratic, so its truncated tails (about e^-98) and the rule's error
    are both below rounding.
    """
    if oracle.world.d != 1:
        raise ValidationError("quadrature reference only supports d = 1")
    x = np.asarray(x, dtype=float)
    a = float(alpha_of(t))
    h = float(h_of(t))
    A = oracle.world.A[:, 0]
    u = float(A @ x)
    x_perp2 = float(x @ x - u * u)
    beta = float(oracle.beta_hat[0])
    sig2 = float(oracle.world.Sigma[0, 0])
    nu2 = oracle.nu**2

    def exponent(z):
        return (
            -((u - a * z) ** 2) / (2 * h)
            - (y - beta * z) ** 2 / (2 * nu2)
            - z**2 / (2 * sig2)
        )

    grid = np.linspace(-60.0, 60.0, 4001)
    vals = exponent(grid)
    k = int(np.argmax(vals))
    z_star = grid[k]
    # Curvature from a centered second difference fixes the window width.
    dz = 1e-3
    curv = max(
        (exponent(z_star + dz) - 2 * exponent(z_star) + exponent(z_star - dz)) / dz**2,
        -1e12,
    )
    width = 14.0 / math.sqrt(max(-curv, 1e-6))
    m_star = exponent(z_star)
    nodes, step = np.linspace(z_star - width, z_star + width, 2001, retstep=True)
    f = np.exp(exponent(nodes) - m_star)
    val = step * (f.sum() - 0.5 * (f[0] + f[-1]))
    return -x_perp2 / (2 * h) + m_star + math.log(val)


def score_via_quadrature_fd(
    oracle: GaussianDesignOracle, x: np.ndarray, y: float, t: float, step: float = 1e-4
) -> np.ndarray:
    """Gradient of the quadrature log density by Richardson-refined differences."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = 1.0

        def central(hs):
            fp = log_density_quadrature(oracle, x + hs * e, y, t)
            fm = log_density_quadrature(oracle, x - hs * e, y, t)
            return (fp - fm) / (2 * hs)

        d1 = central(step)
        d2 = central(step / 2)
        grad[i] = (4 * d2 - d1) / 3
    return grad
