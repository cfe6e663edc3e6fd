"""Discretized backward SDE for conditional generation.

Starting from ``x ~ N(0, I_D)`` the chain

    x_{k+1} = x_k + eta * (x_k / 2 + s(x_k, a, T - k eta)) + sqrt(eta) * eps_k

runs the time reversal of the unit-coefficient noising process down to the
early-stop time ``t0``.  ``K = (T - t0) / eta`` full steps are taken (with a
floating-point tolerance, so an integral ratio never gains a spurious step);
any remainder becomes one final shorter step with the score evaluated at the
step's left endpoint.  The state after the last step approximates the
noised conditional law at ``t0``.

Splitting rule: each target's batch is generated in fixed chunks of
``CHUNK_SIZE`` trajectories, the i-th chunk drawing its start and its
per-step noise from the i-th spawn of the target's seed.  The output for a
target therefore depends only on ``(score, a, n, schedule, seed)``: not on
the other targets sampled with it, nor on how chunks share score calls.

All (target, chunk) chains of one call are stacked into one state with a
per-row target ``y``.  Consecutive chunks share one score call as long as
the call holds at most ``CALL_ENTRIES`` state entries (a chunk over the cap
gets a call of its own); each group of chunks runs every step before the
next group starts.  The Euler update runs in place, in the evaluation
order of the formula above, so for a score that computes each row on its
own the stacked call gives the bytes of one call per target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SamplerDivergedError, ValidationError
from .oracle import DiffusionSchedule

_STEP_TOL = 1e-9
CHUNK_SIZE = 1024
# Most state entries per score call: one 1024-row chunk at D = 64, six at D = 8.
CALL_ENTRIES = 65_536


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
    targets,
    n: int,
    schedule: DiffusionSchedule,
    *,
    seeds,
) -> list:
    """Generate ``n`` points for each target value; one ``SampleBatch`` per target.

    ``score`` is any callable following the package convention
    ``score(x, y, t)`` that carries its dimension as ``D`` (and its
    ``score_id``) and returns a new (m, D) float array, which the sampler
    updates in place.  ``seeds[i]`` seeds ``targets[i]`` and must be an
    int or a SeedSequence so per-chunk streams can be derived.  Each
    batch is a pure function of ``(score, a, n, schedule, seed)``.
    """
    targets = [float(a) for a in targets]
    seeds = list(seeds)
    if not targets or len(seeds) != len(targets):
        raise ValidationError("run_backward needs one seed per target and at least one target")
    if n < 1:
        raise ValidationError("n must be at least 1")
    D = getattr(score, "D", None)
    if D is None:
        raise ValidationError("the score must carry its dimension as D")
    if any(isinstance(seed, np.random.Generator) for seed in seeds):
        raise ValidationError("run_backward needs int or SeedSequence seeds")

    # One row block per (target, chunk), target-major: (start, stop, generator).
    blocks = []
    for i, seed in enumerate(seeds):
        root = seed if isinstance(seed, np.random.SeedSequence) else \
            np.random.SeedSequence(int(seed))
        for j in range((n + CHUNK_SIZE - 1) // CHUNK_SIZE):
            # root.spawn's j-th child, built without advancing root's spawn count.
            child = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (j,),
                                           pool_size=root.pool_size)
            start = i * n + j * CHUNK_SIZE
            blocks.append((start, min(start + CHUNK_SIZE, (i + 1) * n),
                           np.random.default_rng(child)))
    groups = _call_groups(blocks, D)
    x = np.empty((len(targets) * n, D))
    y = np.repeat(targets, n)
    noise = np.empty((max(g[-1][1] - g[0][0] for g in groups), D))
    steps = backward_steps(schedule)
    T = schedule.terminal_time
    for group in groups:
        lo, hi = group[0][0], group[-1][1]
        xg, yg, ng = x[lo:hi], y[lo:hi], noise[:hi - lo]
        for start, stop, rng in group:
            rng.standard_normal(out=x[start:stop])
        draws = [(rng, ng[start - lo:stop - lo]) for start, stop, rng in group]
        t_bwd = 0.0
        for k, dt in enumerate(steps):
            drift = score(xg, yg, T - t_bwd)
            # The noise buffer holds x / 2 until this step's noise is drawn.
            np.multiply(xg, 0.5, out=ng)
            drift += ng
            drift *= dt
            xg += drift
            for rng, block in draws:
                rng.standard_normal(out=block)
            ng *= np.sqrt(dt)
            xg += ng
            if not np.isfinite(xg).all():
                row = lo + int(np.argmin(np.isfinite(xg).all(axis=1)))
                raise SamplerDivergedError(k, targets[row // n])
            t_bwd += dt
    score_id = getattr(score, "score_id", "unknown")
    return [SampleBatch(X=x[i * n:(i + 1) * n], a=a, schedule=schedule,
                        score_id=score_id, seed=_seed_repr(seed))
            for i, (a, seed) in enumerate(zip(targets, seeds))]


def _call_groups(blocks, D) -> list:
    """Consecutive row blocks packed into score calls of at most ``CALL_ENTRIES``
    state entries each (a block over the cap makes a call of its own)."""
    groups, rows = [], 0
    for block in blocks:
        m = block[1] - block[0]
        if groups and (rows + m) * D <= CALL_ENTRIES:
            groups[-1].append(block)
            rows += m
        else:
            groups.append([block])
            rows = m
    return groups


def _seed_repr(seed):
    if isinstance(seed, np.random.SeedSequence):
        return list(map(int, np.atleast_1d(seed.entropy)))
    return int(seed)
