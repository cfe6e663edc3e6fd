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
``CHUNK_SIZE`` trajectories, the i-th chunk drawing its span state (its
start and per-step noise, or its chain-law draw) and its off-span draw
(below) from the i-th spawn of the target's seed.  The output for a
target therefore depends only on ``(score, a, n, schedule, seed)``, not
on the other targets sampled with it, and a chunk's points do not depend
on the chunks after it.

Sampling in the span: a span view, a score that carries an orthonormal
(D, d) basis ``Q`` besides ``D = d``, is sampled on the coordinates
``u = x Q`` alone.  It is a trained model's ``SpanScore``, for its
``s = (V psi(V^T x, y, t) - x)/h`` with ``V = Q R``, or the oracle's
``AnalyticScore.span_view()``, with ``Q = A``.  With ``x = u Q^T + x_perp``
the chain splits into two independent parts:

* the span part, ``u_{k+1} = u_k + dt (u_k / 2 + s_u(u_k, a, t_k)) +
  sqrt(dt) Q^T eps_k``, a closed d-dimensional chain whose noise
  ``Q^T eps_k`` is N(0, I_d);
* the off-span part, ``x_perp <- (1 + dt/2 - dt/h(t_k)) x_perp + sqrt(dt)
  P_perp eps_k``, which involves neither the model nor ``a``.  Started at
  ``P_perp x_0``, it ends at ``N(0, v_K P_perp)`` with ``v_0 = 1`` and
  ``v_{k+1} = (1 + dt_k/2 - dt_k/h(t_k))^2 v_k + dt_k``
  (``off_span_variance``).

The span part takes one of two paths, picked by what the score declares:

* a span view that declares ``affine = True`` (the covering head's
  ``SpanScore`` and the oracle's span view) has
  ``s_u(u, a, t) = M_t u + m_t(a)``, so each Euler step is affine plus
  Gaussian noise and ``u_K`` is exactly ``N(mu_K(a), C_K)``.
  ``chain_law`` runs that recursion on ``(mu, C)``, probing the score
  once per step, and each chunk draws ``u = mu_K + z L_K^T`` (``L_K`` the
  Cholesky factor of ``C_K``) with one (rows, d) draw ``z``: no
  trajectory is stepped;
* any other span view (the mlp's) is stepped with (m, d) draws; the mlp's
  view runs its head in float32 (see ``score_model.SpanScore``).

So the points are lifted once, after the span state is drawn, as
``x = u Q^T + sqrt(v_K) (z - (z Q) Q^T)`` with one (rows, D) draw ``z`` per
chunk from that chunk's stream.  They have the law of the same score
stepped on all D coordinates, not its bytes.  A score without ``Q`` (an
``AnalyticScore`` itself, any plain callable) is stepped on all D
coordinates, affine or not: it is the reference both span paths are
checked against.

Each (target, chunk) is sampled on its own and written straight into the
output: a stepped chunk runs every step, one score call of its rows per
step, before the next chunk starts.  Only ``chain_law`` stacks targets:
it probes every target in one call per step.
"""

from __future__ import annotations

import numpy as np

from .errors import SamplerDivergedError, ValidationError
from .oracle import DiffusionSchedule, h_of

# Revision of the points a run's config gets: bumped whenever some config
# gets other sample points.  A run records it, so a run directory whose
# samples an earlier revision wrote is not up to date.  Revision 2 samples a
# trained model on its decoder span, revision 3 the oracle on its support span,
# revision 4 draws every affine span view from its chain's exact law, revision
# 5 steps each chunk in score calls of its own rows, revision 6 runs the mlp
# span view's head in float32 (training and model files stay float64).
SAMPLER_REVISION = 6
_STEP_TOL = 1e-9
CHUNK_SIZE = 1024


def backward_grid(schedule: DiffusionSchedule) -> list:
    """The discretization as ``(dt, t)`` pairs in step order: each step's
    size, the final partial step included, and the time it evaluates the
    score at, ``T`` less the steps before it."""
    span = schedule.terminal_time - schedule.t0
    n_exact = span / schedule.eta
    k = int(np.floor(n_exact + _STEP_TOL))
    steps = [schedule.eta] * k
    rem = span - k * schedule.eta
    if rem > _STEP_TOL * schedule.eta:
        steps.append(rem)
    grid, t_bwd = [], 0.0
    for dt in steps:
        grid.append((dt, schedule.terminal_time - t_bwd))
        t_bwd += dt
    return grid


def off_span_variance(schedule: DiffusionSchedule) -> float:
    """Variance ``v_K`` of each off-span coordinate after the last step:
    ``v_0 = 1`` and ``v_{k+1} = (1 + dt_k/2 - dt_k/h(t_k))^2 v_k + dt_k``."""
    v = 1.0
    for dt, t in backward_grid(schedule):
        v = (1.0 + dt / 2 - dt / float(h_of(t))) ** 2 * v + dt
    return v


def chain_law(score, targets, schedule: DiffusionSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Exact law ``N(mu_K, C_K)`` of the chain's state after the last step,
    for a score affine in its state, as a (len(targets), d) stack of means
    and a (len(targets), d, d) stack of covariances (``d = score.D``).

    The slope and offset of ``s(u, a, t_k) = M_k u + m_k`` are read off
    the score itself, with no formula of it repeated: ``m_k = s(0, a, t_k)``
    and column i of ``M_k`` is ``s(e_i, a, t_k) - m_k``, one call per step
    on ``len(targets) * (d + 1)`` rows.  With ``F_k = (1 + dt/2) I + dt M_k``
    the Euler step maps ``N(mu, C)`` to ``N(F_k mu + dt m_k, F_k C F_k^T +
    dt I)``, from ``mu_0 = 0`` and ``C_0 = I``.  Raises
    ``SamplerDivergedError`` at the first step that leaves a mean or a
    covariance non-finite.
    """
    targets = [float(a) for a in targets]
    d, T = score.D, len(targets)
    eye = np.eye(d)
    probes = np.tile(np.vstack([np.zeros(d), eye]), (T, 1))
    y = np.repeat(targets, d + 1)
    mu, C = np.zeros((T, d)), np.tile(eye, (T, 1, 1))
    for k, (dt, t) in enumerate(backward_grid(schedule)):
        s = score(probes, y, t).reshape(T, d + 1, d)
        m = s[:, 0]
        # Row i of F^T is dt (s(e_i) - m) plus the diagonal (1 + dt/2) e_i.
        FT = s[:, 1:] - m[:, None]
        FT *= dt
        FT += (1.0 + dt / 2) * eye
        mu = (mu[:, None] @ FT)[:, 0] + dt * m
        C = np.swapaxes(FT, 1, 2) @ C @ FT + dt * eye
        finite = np.isfinite(mu).all(axis=1) & np.isfinite(C).all(axis=(1, 2))
        if not finite.all():
            raise SamplerDivergedError(k, targets[int(np.argmin(finite))])
    return mu, C


def run_backward(
    score,
    targets,
    n: int,
    schedule: DiffusionSchedule,
    *,
    seeds,
) -> np.ndarray:
    """Generate ``n`` points for each target value, as a (len(targets), n, D) array.

    ``score`` is any callable following the package convention
    ``score(x, y, t)`` that carries its dimension as ``D`` and returns a
    new (m, D) float array, which the sampler updates in place.  A span
    view carries its span width d as ``D`` and an orthonormal
    (D, d) basis as ``Q``: its (m, d) state is drawn from its chain's
    exact law when it declares ``affine = True`` and stepped otherwise,
    and its points are lifted to D dimensions (see the module docstring).
    ``seeds[i]`` seeds ``targets[i]`` and must be an int or a SeedSequence
    so per-chunk streams can be derived.  The i-th slice, the points of
    ``targets[i]``, is a pure function of ``(score, a, n, schedule, seed)``.

    Chunks are sampled in target-major order, so a stepped run that
    diverges raises ``SamplerDivergedError`` for the first diverging chunk
    in that order, at that chunk's first non-finite step; a chain-law run
    raises at the first step whose law is non-finite, before any draw.
    """
    targets = [float(a) for a in targets]
    seeds = list(seeds)
    if not targets or len(seeds) != len(targets):
        raise ValidationError("run_backward needs one seed per target and at least one target")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError("n must be an integer of at least 1")
    width = getattr(score, "D", None)
    if width is None:
        raise ValidationError("the score must carry its dimension as D")
    if any(isinstance(seed, np.random.Generator) for seed in seeds):
        raise ValidationError("run_backward needs int or SeedSequence seeds")
    Q = getattr(score, "Q", None)
    affine = Q is not None and getattr(score, "affine", False)
    if affine:
        mu, C = chain_law(score, targets, schedule)
        L = np.linalg.cholesky(C)
    if Q is not None:
        sd = np.sqrt(off_span_variance(schedule))
    out = np.empty((len(targets), n, width if Q is None else Q.shape[0]))
    for i, (a, seed) in enumerate(zip(targets, seeds)):
        root = seed if isinstance(seed, np.random.SeedSequence) else \
            np.random.SeedSequence(int(seed))
        for j, start in enumerate(range(0, n, CHUNK_SIZE)):
            # root.spawn's j-th child, built without advancing root's spawn count.
            rng = np.random.default_rng(np.random.SeedSequence(
                root.entropy, spawn_key=root.spawn_key + (j,), pool_size=root.pool_size))
            block = out[i, start:start + CHUNK_SIZE]
            if affine:
                u = mu[i] + rng.standard_normal((len(block), width)) @ L[i].T
            else:
                u = _euler(score, a, len(block), schedule, rng)
            if Q is None:
                block[...] = u
                continue
            # x = u Q^T + sqrt(v_K) (z - (z Q) Q^T), z from the chunk's
            # stream after its span state.
            z = rng.standard_normal(out=block)
            span = u - sd * (z @ Q)
            z *= sd
            z += span @ Q.T
    return out


def _euler(score, a, rows, schedule, rng) -> np.ndarray:
    """Step ``rows`` chains of target ``a`` from a standard-normal start
    drawn from ``rng``, which then draws each step's noise."""
    x = rng.standard_normal((rows, score.D))
    y = np.full(rows, a)
    noise = np.empty_like(x)
    for k, (dt, t) in enumerate(backward_grid(schedule)):
        drift = score(x, y, t)
        # The noise buffer holds x / 2 until this step's noise is drawn.
        np.multiply(x, 0.5, out=noise)
        drift += noise
        drift *= dt
        x += drift
        rng.standard_normal(out=noise)
        noise *= np.sqrt(dt)
        x += noise
        if not np.isfinite(x).all():
            raise SamplerDivergedError(k, a)
    return x
