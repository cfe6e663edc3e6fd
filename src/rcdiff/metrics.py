"""Evaluation quantities for generated populations, and the per-cell record.

Covers subspace recovery (projector-difference Frobenius angle), support
fidelity (mean orthogonal distance), reward quality (suboptimality against
the target value and its three-part decomposition into reward-estimation,
on-support, and off-support errors), and moment discrepancies against a
reference Gaussian law.  The reward-estimation error is in closed form;
only the on-support error's reference mean is a Monte Carlo estimate.
The helpers take the generated points as an (n, D) array.  Reward
histograms are drawn from the pooled samples of a whole run, not per
cell: see ``figures``.

``build_metrics_report`` gathers them for one (seed, target) cell into the
record that the pipeline writes as ``metrics_a<tag>.json``: a plain dict
whose literal there is the only definition of the cell's fields.
``pipeline.CSV_COLUMNS`` projects it onto the cell's ``metrics.csv`` row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .oracle import (
    GaussianDesignOracle,
    conditional_latent_law,
    distro_shift_surrogate,
    noised_conditional_law,
    sample_conditional_latents,
)
from .regression import RidgeEstimate
from .world import SubspaceWorld, _check_orthonormal, decompose, true_reward


def subspace_angle(V: np.ndarray, A: np.ndarray) -> float:
    """Squared Frobenius distance between the two column-span projectors."""
    V = np.asarray(V, dtype=float)
    A = np.asarray(A, dtype=float)
    if V.shape != A.shape:
        raise ValidationError(f"shape mismatch: {V.shape} vs {A.shape}")
    _check_orthonormal(V, tol=1e-8, name="V")
    _check_orthonormal(A, tol=1e-8, name="A")
    diff = V @ V.T - A @ A.T
    return float(np.sum(diff * diff))


def off_support_deviation(X: np.ndarray, world: SubspaceWorld) -> float:
    """Mean Euclidean distance of the points from the true support."""
    _, x_perp = decompose(world, X)
    return float(np.mean(np.linalg.norm(x_perp, axis=1)))


def suboptimality(X: np.ndarray, world: SubspaceWorld, a: float) -> tuple[float, float]:
    """Gap between the target value and the mean realized reward."""
    avg_reward = float(np.mean(true_reward(world, X)))
    return a - avg_reward, avg_reward


@dataclass(frozen=True)
class Decomposition:
    """Three error components of the suboptimality.

    With ``mu(a)`` the mean of the reference's conditional latent law
    (the oracle's ``beta_hat`` and ``nu``), ``|subopt| <= e1 + e2 + e3 +
    |a - beta_hat^T mu(a)|`` up to the Monte Carlo error of e2's
    reference mean; ``e1`` is exact.  The last term is the label
    shrinkage ``a nu^2 / (beta_hat^T Sigma beta_hat + nu^2)``, so ``e1 +
    e2 + e3`` alone does not bound it at ``a != 0``.
    """

    e1: float                 # reward-estimation error on the target law
    e2: float                 # on-support generation error
    e3: float                 # off-support reward magnitude
    e2_se: float = 0.0


def subopt_decomposition(
    X: np.ndarray,
    world: SubspaceWorld,
    est: RidgeEstimate,
    oracle: GaussianDesignOracle,
    a: float,
    n_ref: int = 20000,
    *,
    seed,
) -> Decomposition:
    """Compute the error decomposition of the points ``X`` at target ``a``.

    ``e1`` is ``e1_exact_gaussian``.  ``e2`` compares the generated points'
    on-support reward with that of ``n_ref`` reference draws from the
    label-conditioned latent law embedded through the true subspace; the
    off-support term is reported as a magnitude regardless of the world's
    reward sign convention.
    """
    rng = np.random.default_rng(seed)
    z_ref = sample_conditional_latents(oracle, a, n_ref, rng)
    x_ref = z_ref @ world.A.T

    g_ref = x_ref @ world.theta_star
    x_par, x_perp = decompose(world, X)
    g_gen = x_par @ world.theta_star
    e2 = float(abs(np.mean(g_ref) - np.mean(g_gen)))
    gen_se = np.std(g_gen, ddof=1) / math.sqrt(len(g_gen)) if len(g_gen) > 1 else 0.0
    e2_se = float(math.hypot(np.std(g_ref, ddof=1) / math.sqrt(len(g_ref)), gen_se))

    e3 = float(world.offsupport_coeff * np.mean(np.sum(x_perp * x_perp, axis=1)))
    return Decomposition(e1=e1_exact_gaussian(world, est, oracle, a), e2=e2, e3=e3, e2_se=e2_se)


def e1_exact_gaussian(
    world: SubspaceWorld,
    est: RidgeEstimate,
    oracle: GaussianDesignOracle,
    a: float,
) -> float:
    """E|(theta_hat - theta*)^T A z| over the oracle's conditional latent
    law of z at ``a``: the mean of a folded normal, in closed form."""
    mean, cov = conditional_latent_law(oracle, a)
    v = world.A.T @ (est.theta_hat - world.theta_star)
    m = float(v @ mean)
    s = math.sqrt(max(float(v @ cov @ v), 0.0))
    if s == 0.0:
        return abs(m)
    return s * math.sqrt(2 / math.pi) * math.exp(-(m**2) / (2 * s**2)) + m * math.erf(
        m / (s * math.sqrt(2))
    )


def moment_discrepancy(X: np.ndarray, law: tuple) -> tuple[float, float]:
    """Mean gap and relative covariance gap against a reference Gaussian law."""
    mean, cov = law
    emp_mean = X.mean(axis=0)
    centered = X - emp_mean
    emp_cov = centered.T @ centered / X.shape[0]
    mean_gap = float(np.linalg.norm(emp_mean - mean))
    cov_gap = float(np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov))
    return mean_gap, cov_gap


# ---------------------------------------------------------------------------
# Per-cell record
# ---------------------------------------------------------------------------

def build_metrics_report(
    X: np.ndarray,
    a: float,
    world: SubspaceWorld,
    est: RidgeEstimate,
    oracle: GaussianDesignOracle,
    V: np.ndarray,
    *,
    t0: float,
    n_ref: int = 20000,
    seed,
) -> dict:
    """Evaluate the (n, D) points ``X`` generated at target ``a`` and
    stopped at time ``t0``.

    Returns the cell's record, the dict written as ``metrics_a<tag>.json``;
    this literal is the one definition of its fields.  Raises
    ``ValidationError`` if a float in it is not finite or if ``subopt`` is
    not exactly ``a - avg_reward``, so a record that fails either check
    never reaches disk.
    """
    a = float(a)
    subopt, avg_reward = suboptimality(X, world, a)
    dec = subopt_decomposition(X, world, est, oracle, a, n_ref, seed=seed)
    law = noised_conditional_law(oracle, a, t0)
    mean_gap, cov_gap = moment_discrepancy(X, law)
    record = {
        "a": a,
        "n": X.shape[0],
        "subspace_angle": subspace_angle(V, world.A),
        "off_support_mean": off_support_deviation(X, world),
        "avg_reward": avg_reward,
        "subopt": subopt,
        "e1": dec.e1,
        "e2": dec.e2,
        "e3": dec.e3,
        "distro_shift": distro_shift_surrogate(oracle, a),
        "distro_shift_kind": "known-sigma-surrogate",
        "moment_discrepancy": {"mean_gap": mean_gap, "cov_gap": cov_gap},
    }
    scalars = [*record.values(), mean_gap, cov_gap]
    if not all(math.isfinite(v) for v in scalars if isinstance(v, float)):
        raise ValidationError("metrics report contains non-finite values")
    if subopt != a - avg_reward:
        raise ValidationError("subopt must equal a - avg_reward exactly")
    return record
