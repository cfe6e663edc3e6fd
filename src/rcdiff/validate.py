"""Self-contained correctness checks runnable from the command line.

Each check exercises one cross-validation pair: a formula against an
independent numerical oracle, or two mathematically equal computation paths
against each other, and returns its measurement.  ``rcdiff validate`` runs
every check at its default size against the thresholds in ``CHECKS``, as a
quick health probe of an installation.  The acceptance criteria run the same
code and assert their own tolerances, at their own sizes where a check takes
a size keyword (``n_points``, ``n_mc``): score-quadrature is criterion 1,
prop1-equivalence 2, sampler-moments 3, trace-identity 4, score-gradients 6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .metrics import moment_discrepancy
from .oracle import (
    AnalyticScore,
    DiffusionSchedule,
    GaussianDesignOracle,
    alpha_of,
    analytic_score,
    h_of,
    noised_conditional_law,
    score_via_quadrature_fd,
)
from .regression import RidgeEstimate, coverage_trace, coverage_trace_factored
from .sampler import run_backward
from .score_model import (
    CoveringScore,
    MlpScore,
    ZeroScore,
    _time_and_noise,
    denoising_objective,
    exact_objective,
)
from .world import make_world


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_spd(rng, d):
    G = rng.standard_normal((d, d))
    return G @ G.T / d + 0.1 * np.eye(d)


def check_schedule_identity() -> float:
    """Largest ``|alpha^2 + h - 1|`` over a dense time grid."""
    t = np.linspace(1e-6, 50.0, 10_000)
    return float(np.max(np.abs(alpha_of(t) ** 2 + h_of(t) - 1.0)))


def check_trace_identity() -> float:
    """Worst relative gap between ``coverage_trace`` and ``coverage_trace_factored``
    over 100 ridge estimates of Gram matrix ``A s1 A^T``, each against ``A s2 A^T``."""
    rng = np.random.default_rng(0)
    d, D, n2 = 5, 12, 10
    worst = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.1, 3.0))
        G = rng.standard_normal((D, d))
        A = np.linalg.qr(G)[0]
        s1 = _random_spd(rng, d)
        s2 = _random_spd(rng, d)
        est = RidgeEstimate(theta_hat=np.zeros(D), lam=lam, n2=n2,
                            sigma_hat_lambda=(lam * np.eye(D) + A @ s1 @ A.T) / n2)
        full = coverage_trace(est, A @ s2 @ A.T)
        red = coverage_trace_factored(est, A, s2)
        worst = max(worst, abs(full - red) / abs(red))
    return worst


def check_score_quadrature(n_points: int = 10) -> float:
    """Worst relative error of the analytic score against quadrature (d = 1)."""
    world = make_world(D=2, d=1, sigma=np.array([[0.8]]), seed=0)
    oracle = GaussianDesignOracle(world=world, beta_hat=np.array([0.7]), nu=0.4)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(n_points):
        x = 1.5 * rng.standard_normal(2)
        y = float(1.2 * rng.standard_normal())
        t = float(rng.uniform(0.05, 3.0))
        ref = score_via_quadrature_fd(oracle, x, y, t)
        got = analytic_score(oracle, x, y, t)
        worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-6))))
    return worst


def check_prop1_equivalence(n_mc: int = 40_000) -> tuple[float, float]:
    """Gap between the exact and the denoising objective's score differences.

    Returns the gap and its 3-sigma Monte Carlo bound: the two objectives
    differ by a score-independent constant, so the differences agree.
    """
    world = make_world(D=6, d=3, seed=2)
    oracle = GaussianDesignOracle(world=world, beta_hat=world.beta_star, nu=0.5)
    schedule = DiffusionSchedule(terminal_time=5.0, t0=0.05, eta=0.05)
    perturbed = GaussianDesignOracle(
        world=world, beta_hat=world.beta_star + np.array([0.3, -0.2, 0.1]), nu=0.5
    )
    s1, s2 = AnalyticScore(perturbed), ZeroScore()
    ex1, se_ex1 = exact_objective(s1, oracle, n_mc, schedule, seed=11)
    ex2, se_ex2 = exact_objective(s2, oracle, n_mc, schedule, seed=11)
    dn1, se_dn1 = denoising_objective(s1, oracle, n_mc, schedule, seed=12)
    dn2, se_dn2 = denoising_objective(s2, oracle, n_mc, schedule, seed=12)
    gap = abs((ex1 - ex2) - (dn1 - dn2))
    return gap, 3.0 * float(np.hypot(np.hypot(se_ex1, se_ex2), np.hypot(se_dn1, se_dn2)))


def check_score_gradients() -> dict:
    """Worst relative gap, per variant, between the analytic directional
    derivative of the denoising loss and a central difference."""
    rng = np.random.default_rng(3)
    schedule = DiffusionSchedule(terminal_time=5.0, t0=0.05, eta=0.05)
    D, d, n = 6, 3, 8
    X = rng.standard_normal((n, D))
    y = rng.standard_normal(n)
    results = {}
    for model in (CoveringScore(D, d, nu=0.5, seed=4), MlpScore(D, d, hidden=(32, 32), seed=5)):
        for k in model.params:
            model.params[k] = model.params[k] + 0.05 * rng.standard_normal(model.params[k].shape)
        t, eps = _time_and_noise(np.random.default_rng(42), schedule, X.shape)
        _, grads = model.loss_and_grad(X, y, t, eps)
        worst = 0.0
        base = {k: v.copy() for k, v in model.params.items()}
        for _ in range(20):
            dirs = {k: rng.standard_normal(v.shape) for k, v in model.params.items()}
            norm = np.sqrt(sum(float(np.sum(v * v)) for v in dirs.values()))
            an = sum(float(np.sum(grads[k] * dirs[k])) for k in grads) / norm
            h = 1e-5
            for k in model.params:
                model.params[k] = base[k] + h * dirs[k] / norm
            lp, _ = model.loss_and_grad(X, y, t, eps)
            for k in model.params:
                model.params[k] = base[k] - h * dirs[k] / norm
            lm, _ = model.loss_and_grad(X, y, t, eps)
            for k in model.params:
                model.params[k] = base[k]
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
        results[model.variant] = worst
    return results


def check_sampler_moments() -> tuple[float, float]:
    """Largest mean error and relative covariance gap against the
    closed-form law at the early-stop time, worst of two 4096-point runs:
    the oracle's score stepped on all D coordinates, and a covering model
    with the oracle's parameters sampled through its span view."""
    world = make_world(D=4, d=2, seed=7)
    oracle = GaussianDesignOracle(world=world, beta_hat=world.beta_star, nu=0.5)
    schedule = DiffusionSchedule(terminal_time=10.0, t0=0.01, eta=0.005)
    covering = CoveringScore(world.D, world.d, oracle.nu, seed=0)
    covering.params.update(V=world.A, beta_tilde=oracle.beta_hat,
                           sigma_inv_tril=np.tril(oracle.sigma_inv))
    law = noised_conditional_law(oracle, 2.0, schedule.t0)
    mean_err = cov_gap = 0.0
    for score in (AnalyticScore(oracle), covering.span_view()):
        [X] = run_backward(score, [2.0], 4096, schedule, seeds=[11])
        mean_err = max(mean_err, float(np.max(np.abs(X.mean(axis=0) - law[0]))))
        cov_gap = max(cov_gap, moment_discrepancy(X, law)[1])
    return mean_err, cov_gap


GRADIENT_TOLS = {"covering": 1e-4, "mlp": 1e-3}


def _gradient_verdict(worst: dict) -> tuple:
    ok = all(w <= GRADIENT_TOLS[v] for v, w in worst.items())
    return ok, ", ".join(f"{v}: {w:.2e} (tol {GRADIENT_TOLS[v]:g})" for v, w in worst.items())


# name -> (check, verdict on its measurement at the check's default sizes)
CHECKS = {
    "schedule-identity": (check_schedule_identity,
                          lambda e: (e < 1e-12, f"max |alpha^2 + h - 1| = {e:.2e}")),
    "trace-identity": (check_trace_identity,
                       lambda w: (w < 1e-8, f"worst relative gap = {w:.2e}")),
    "score-quadrature": (check_score_quadrature,
                         lambda w: (w <= 1e-3, f"worst relative error = {w:.2e}")),
    "prop1-equivalence": (check_prop1_equivalence, lambda r: (
        r[0] <= r[1], f"|delta_exact - delta_denoising| = {r[0]:.4f} (3sigma = {r[1]:.4f})")),
    "score-gradients": (check_score_gradients, _gradient_verdict),
    "sampler-moments": (check_sampler_moments, lambda r: (
        r[0] <= 0.1 and r[1] <= 0.10, f"max mean error = {r[0]:.4f}, cov gap = {r[1]:.4f}")),
}


def run_checks(names=None) -> list:
    selected = list(CHECKS) if names is None else list(names)
    results = []
    for name in selected:
        check, verdict = CHECKS[name]
        start = time.perf_counter()
        passed, detail = verdict(check())
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
