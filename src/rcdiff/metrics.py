"""Evaluation quantities for generated populations.

Covers subspace recovery (projector-difference Frobenius angle), support
fidelity (mean orthogonal distance), reward quality (suboptimality against
the target value and its three-part decomposition into reward-estimation,
on-support, and off-support errors), moment discrepancies against a
reference Gaussian law, and reward histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .oracle import GaussianDesignOracle, sample_conditional_latents
from .regression import RidgeEstimate
from .rng import as_generator
from .sampler import SampleBatch
from .world import SubspaceWorld, decompose, true_reward


def subspace_angle(V: np.ndarray, A: np.ndarray) -> float:
    """Squared Frobenius distance between the two column-span projectors."""
    V = np.asarray(V, dtype=float)
    A = np.asarray(A, dtype=float)
    if V.shape != A.shape:
        raise DimensionError(f"shape mismatch: {V.shape} vs {A.shape}")
    for M, name in ((V, "V"), (A, "A")):
        err = np.max(np.abs(M.T @ M - np.eye(M.shape[1])))
        if err > 1e-8:
            raise ValidationError(f"{name} must have orthonormal columns")
    diff = V @ V.T - A @ A.T
    return float(np.sum(diff * diff))


def off_support_deviation(batch, world: SubspaceWorld) -> float:
    """Mean Euclidean distance of the points from the true support."""
    X = batch.X if isinstance(batch, SampleBatch) else np.atleast_2d(batch)
    _, x_perp = decompose(world, X)
    return float(np.mean(np.linalg.norm(x_perp, axis=1)))


def suboptimality(batch, world: SubspaceWorld, a: float) -> tuple[float, float]:
    """Gap between the target value and the mean realized reward."""
    X = batch.X if isinstance(batch, SampleBatch) else np.atleast_2d(batch)
    avg_reward = float(np.mean(true_reward(world, X)))
    return a - avg_reward, avg_reward


@dataclass(frozen=True)
class Decomposition:
    """Three error components whose sum upper-bounds the suboptimality."""

    e1: float                 # reward-estimation error on the target law
    e2: float                 # on-support generation error
    e3: float                 # off-support reward magnitude
    e1_se: float = 0.0
    e2_se: float = 0.0


def subopt_decomposition(
    batch,
    world: SubspaceWorld,
    est: RidgeEstimate,
    oracle: GaussianDesignOracle,
    a: float,
    n_ref: int = 20000,
    *,
    seed,
) -> Decomposition:
    """Estimate the error decomposition with ``n_ref`` reference draws.

    The reference population comes from the label-conditioned latent law
    embedded through the true subspace; the off-support term is reported as
    a magnitude regardless of the world's reward sign convention.
    """
    X = batch.X if isinstance(batch, SampleBatch) else np.atleast_2d(batch)
    rng = as_generator(seed)
    z_ref = sample_conditional_latents(oracle, a, n_ref, rng)
    x_ref = z_ref @ world.A.T

    gap = x_ref @ (est.theta_hat - world.theta_star)
    e1 = float(np.mean(np.abs(gap)))
    e1_se = float(np.std(np.abs(gap), ddof=1) / math.sqrt(n_ref))

    g_ref = x_ref @ world.theta_star
    x_par, x_perp = decompose(world, X)
    g_gen = x_par @ world.theta_star
    e2 = float(abs(np.mean(g_ref) - np.mean(g_gen)))
    gen_se = np.std(g_gen, ddof=1) / math.sqrt(len(g_gen)) if len(g_gen) > 1 else 0.0
    e2_se = float(math.hypot(np.std(g_ref, ddof=1) / math.sqrt(len(g_ref)), gen_se))

    e3 = float(world.offsupport_coeff * np.mean(np.sum(x_perp * x_perp, axis=1)))
    return Decomposition(e1=e1, e2=e2, e3=e3, e1_se=e1_se, e2_se=e2_se)


def e1_exact_gaussian(
    world: SubspaceWorld,
    est: RidgeEstimate,
    oracle: GaussianDesignOracle,
    a: float,
) -> float:
    """Closed form of the reward-estimation error (folded normal mean)."""
    from .oracle import conditional_latent_law

    mean, cov = conditional_latent_law(oracle, a)
    v = world.A.T @ (est.theta_hat - world.theta_star)
    m = float(v @ mean)
    s = math.sqrt(max(float(v @ cov @ v), 0.0))
    if s == 0.0:
        return abs(m)
    return s * math.sqrt(2 / math.pi) * math.exp(-(m**2) / (2 * s**2)) + m * math.erf(
        m / (s * math.sqrt(2))
    )


def moment_discrepancy(batch, law: tuple) -> tuple[float, float]:
    """Mean gap and relative covariance gap against a reference Gaussian law."""
    X = batch.X if isinstance(batch, SampleBatch) else np.atleast_2d(batch)
    mean, cov = law
    emp_mean = X.mean(axis=0)
    centered = X - emp_mean
    emp_cov = centered.T @ centered / X.shape[0]
    mean_gap = float(np.linalg.norm(emp_mean - mean))
    cov_gap = float(np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov))
    return mean_gap, cov_gap


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray


def reward_histogram(batch, world: SubspaceWorld, bins: int = 50) -> Histogram:
    """Histogram of realized rewards."""
    if bins < 1:
        raise ValidationError("bins must be at least 1")
    X = batch.X if isinstance(batch, SampleBatch) else np.atleast_2d(batch)
    rewards = true_reward(world, X)
    counts, edges = np.histogram(rewards, bins=bins)
    return Histogram(edges=edges, counts=counts)


# ---------------------------------------------------------------------------
# Per-cell report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    a: float
    n: int
    subspace_angle: float
    off_support_mean: float
    avg_reward: float
    subopt: float
    e1: float
    e2: float
    e3: float
    distro_shift: float
    mean_gap: float
    cov_gap: float
    histogram_edges: list
    histogram_counts: list
    seed: object
    score_id: str

    def __post_init__(self):
        scalars = (
            self.subspace_angle, self.off_support_mean, self.avg_reward,
            self.subopt, self.e1, self.e2, self.e3, self.distro_shift,
            self.mean_gap, self.cov_gap,
        )
        if not all(np.isfinite(v) for v in scalars):
            raise ValidationError("metrics report contains non-finite values")
        if abs(self.subopt - (self.a - self.avg_reward)) > 0.0:
            raise ValidationError("subopt must equal a - avg_reward exactly")

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "n": self.n,
            "seed": self.seed,
            "score_id": self.score_id,
            "subspace_angle": self.subspace_angle,
            "off_support_mean": self.off_support_mean,
            "avg_reward": self.avg_reward,
            "subopt": self.subopt,
            "e1": self.e1,
            "e2": self.e2,
            "e3": self.e3,
            "distro_shift": self.distro_shift,
            "distro_shift_kind": "known-sigma-surrogate",
            "moment_discrepancy": {"mean_gap": self.mean_gap, "cov_gap": self.cov_gap},
            "histogram": {
                "edges": self.histogram_edges,
                "counts": self.histogram_counts,
            },
        }


def build_metrics_report(
    batch: SampleBatch,
    world: SubspaceWorld,
    est: RidgeEstimate,
    oracle: GaussianDesignOracle,
    V: np.ndarray,
    *,
    n_ref: int = 20000,
    bins: int = 50,
    seed,
) -> MetricsReport:
    """Evaluate one generated batch against its target value."""
    from .oracle import distro_shift_surrogate, noised_conditional_law

    a = batch.a
    subopt, avg_reward = suboptimality(batch, world, a)
    dec = subopt_decomposition(batch, world, est, oracle, a, n_ref, seed=seed)
    law = noised_conditional_law(oracle, a, batch.schedule.t0)
    mean_gap, cov_gap = moment_discrepancy(batch, law)
    hist = reward_histogram(batch, world, bins=bins)
    return MetricsReport(
        a=a,
        n=batch.n,
        subspace_angle=subspace_angle(V, world.A),
        off_support_mean=off_support_deviation(batch, world),
        avg_reward=avg_reward,
        subopt=subopt,
        e1=dec.e1,
        e2=dec.e2,
        e3=dec.e3,
        distro_shift=distro_shift_surrogate(oracle, a)[1],
        mean_gap=mean_gap,
        cov_gap=cov_gap,
        histogram_edges=[float(v) for v in hist.edges],
        histogram_counts=[int(v) for v in hist.counts],
        seed=batch.seed,
        score_id=batch.score_id,
    )
