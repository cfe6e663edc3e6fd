"""Discretized backward SDE for conditional generation.

Starting from ``x ~ N(0, I_D)`` the chain

    x_{k+1} = x_k + eta * (x_k / 2 + s(x_k, a, T - k eta)) + sqrt(eta) * eps_k

runs the time reversal of the unit-coefficient noising process down to the
early-stop time ``t0``.  ``K = (T - t0) / eta`` full steps are taken (with a
floating-point tolerance, so an integral ratio never gains a spurious step);
any remainder becomes one final shorter step with the score evaluated at the
step's left endpoint.  The state after the last step approximates the
noised conditional law at ``t0``.

Splitting rule: the batch is generated in fixed chunks of ``CHUNK_SIZE``
trajectories, the i-th chunk drawing from the i-th spawn of the seed.  The
output therefore depends only on ``(score, a, n, schedule, seed)`` and never
on how chunks are assigned to workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SamplerDivergedError, ValidationError
from .oracle import DiffusionSchedule

_STEP_TOL = 1e-9
CHUNK_SIZE = 1024


@dataclass(frozen=True)
class SampleBatch:
    """Generated points plus everything needed to regenerate them."""

    X: np.ndarray                 # (n, D)
    a: float
    schedule: DiffusionSchedule
    score_id: str
    seed: object

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if not np.all(np.isfinite(X)):
            raise ValidationError("sample batch contains non-finite entries")
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def backward_steps(schedule: DiffusionSchedule) -> list:
    """Step sizes of the discretization, final partial step included."""
    span = schedule.terminal_time - schedule.t0
    n_exact = span / schedule.eta
    k = int(np.floor(n_exact + _STEP_TOL))
    steps = [schedule.eta] * k
    rem = span - k * schedule.eta
    if rem > _STEP_TOL * schedule.eta:
        steps.append(rem)
    return steps


def run_backward(
    score,
    a: float,
    n: int,
    schedule: DiffusionSchedule,
    *,
    seed,
) -> SampleBatch:
    """Generate ``n`` points conditioned on target value ``a``.

    ``score`` is any callable following the package convention
    ``score(x, y, t)`` that carries its dimension as ``D`` (and its
    ``score_id``).  ``seed`` must be an int or a SeedSequence so
    per-chunk streams can be derived.  The output is a pure function of
    ``(score, a, n, schedule, seed)``.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    D = getattr(score, "D", None)
    if D is None:
        raise ValidationError("the score must carry its dimension as D")
    if isinstance(seed, np.random.Generator):
        raise ValidationError("run_backward needs an int or SeedSequence seed")

    root = seed if isinstance(seed, np.random.SeedSequence) else \
        np.random.SeedSequence(int(seed))
    steps = backward_steps(schedule)
    T = schedule.terminal_time
    n_chunks = (n + CHUNK_SIZE - 1) // CHUNK_SIZE
    chunks = []
    for child in root.spawn(n_chunks):
        m = min(CHUNK_SIZE, n - CHUNK_SIZE * len(chunks))
        rng = np.random.default_rng(child)
        x = rng.standard_normal((m, D))
        y = np.full(m, float(a))
        t_bwd = 0.0
        for k, dt in enumerate(steps):
            drift = 0.5 * x + score(x, y, T - t_bwd)
            x = x + dt * drift + np.sqrt(dt) * rng.standard_normal((m, D))
            if not np.all(np.isfinite(x)):
                raise SamplerDivergedError(k)
            t_bwd += dt
        chunks.append(x)
    return SampleBatch(X=np.concatenate(chunks, axis=0), a=float(a), schedule=schedule,
                       score_id=getattr(score, "score_id", "unknown"), seed=_seed_repr(seed))


def _seed_repr(seed):
    if isinstance(seed, np.random.SeedSequence):
        return list(map(int, np.atleast_1d(seed.entropy)))
    return int(seed)
