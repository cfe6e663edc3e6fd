"""Acceptance suite: one test per exit criterion, each printing a verdict.

Every criterion is oracle- or property-based: closed forms are checked
against quadrature, Monte Carlo, or an algebraically independent second
computation path, and the full pipeline is checked against the qualitative
shape of the desk-scale simulation curves.  Criteria 1, 2, 3, 4 and 6 run
the ``rcdiff validate`` checks, 1 and 2 at their own sizes.  Tolerances and
runtime budgets are fixed here, not tuned at runtime.
"""

import csv
import math
import time

import numpy as np
import pytest
from scipy import stats

from rcdiff import io
from rcdiff.config import RunConfig
from rcdiff.figures import emit_figures
from rcdiff.metrics import e1_exact_gaussian, subspace_angle
from rcdiff.oracle import (
    AnalyticScore,
    DiffusionSchedule,
    GaussianDesignOracle,
    conditional_latent_law,
    latent_second_moment,
    sample_conditional_latents,
)
from rcdiff.pipeline import read_metrics_csv, run_pipeline
from rcdiff.regression import default_nu, fit_ridge, pseudo_label
from rcdiff.sampler import run_backward
from rcdiff.score_model import CoveringScore, TrainConfig, extract_subspace, train
from rcdiff.validate import (
    check_prop1_equivalence,
    check_sampler_moments,
    check_score_gradients,
    check_score_quadrature,
    check_trace_identity,
)
from rcdiff.world import generate_datasets, make_world

COVERING_RECIPE = dict(batch_size=64, epochs=10, learning_rate=1e-2, lr_decay=0.6)


def _verdict(num: int, elapsed: float, limit: float, detail: str) -> None:
    print(f"[criterion {num:2d}] PASS ({elapsed:6.1f}s < {limit:g}s) {detail}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


@pytest.fixture(scope="session")
def study_run(tmp_path_factory):
    """Full default-configuration pipeline run (criterion 9 scale)."""
    out = tmp_path_factory.mktemp("study") / "run"
    cfg = RunConfig()
    start = time.perf_counter()
    run_pipeline(cfg, out, force=True)
    emit_figures(out)
    return out, time.perf_counter() - start


def _read_curve(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return ([float(r["a"]) for r in rows], [float(r["mean"]) for r in rows])


def _hist_moments(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    centers = np.array([(float(r["bin_lo"]) + float(r["bin_hi"])) / 2 for r in rows])
    counts = np.array([int(r["count"]) for r in rows], dtype=float)
    mean = float(np.sum(centers * counts) / counts.sum())
    var = float(np.sum(counts * (centers - mean) ** 2) / counts.sum())
    return mean, math.sqrt(var)


def test_criterion_01_analytic_score_vs_quadrature():
    start = time.perf_counter()
    worst = check_score_quadrature(n_points=50)
    assert worst <= 1e-3
    _verdict(1, time.perf_counter() - start, 60, f"max rel err {worst:.2e} <= 1e-3 over 50 points")


def test_criterion_02_objective_equivalence():
    start = time.perf_counter()
    n_mc = 100_000
    gap, tol = check_prop1_equivalence(n_mc=n_mc)
    assert gap <= tol
    _verdict(2, time.perf_counter() - start, 120,
             f"|delta gap| {gap:.4f} <= 3 sigma {tol:.4f} at n_mc={n_mc}")


def test_criterion_03_sampler_fidelity():
    start = time.perf_counter()
    mean_err, cov_gap = check_sampler_moments()
    assert mean_err <= 0.1
    assert cov_gap <= 0.10
    _verdict(3, time.perf_counter() - start, 120,
             f"mean err {mean_err:.4f} <= 0.1, cov gap {cov_gap:.4f} <= 0.10")


def test_criterion_04_trace_identity():
    start = time.perf_counter()
    worst = check_trace_identity()
    assert worst <= 1e-8
    _verdict(4, time.perf_counter() - start, 5,
             f"worst relative gap {worst:.2e} <= 1e-8 over 100 instances")


def test_criterion_05_conditional_law_oracles():
    start = time.perf_counter()
    world = make_world(D=8, d=4, seed=9)
    oracle = GaussianDesignOracle(world=world, beta_hat=world.beta_star, nu=0.6)
    rng = np.random.default_rng(10)
    details = []
    for a in (0.0, 2.0, 8.0):
        z = sample_conditional_latents(oracle, a, 100_000, rng)
        mc_second = float(np.mean(np.sum(z * z, axis=1)))
        closed = latent_second_moment(oracle, a)
        rel = abs(mc_second - closed) / closed
        assert rel <= 0.02
        mean, cov = conditional_latent_law(oracle, a)
        mean_err = float(np.linalg.norm(z.mean(axis=0) - mean))
        cov_err = float(np.linalg.norm(np.cov(z.T, bias=True) - cov))
        assert mean_err <= 0.02 * (1.0 + np.linalg.norm(mean))
        assert cov_err <= 0.02 * (1.0 + np.linalg.norm(cov))
        details.append(f"a={a:g}: M rel {rel:.3%}")
    _verdict(5, time.perf_counter() - start, 60, "; ".join(details))


def test_criterion_06_gradient_checks():
    start = time.perf_counter()
    worst = check_score_gradients()
    assert worst["covering"] <= 1e-4
    assert worst["mlp"] <= 1e-3
    _verdict(6, time.perf_counter() - start, 60,
             f"covering: {worst['covering']:.2e} <= 0.0001; mlp: {worst['mlp']:.2e} <= 0.001")


def test_criterion_07_subspace_recovery_trend():
    start = time.perf_counter()
    schedule = DiffusionSchedule(terminal_time=10.0, t0=0.01, eta=0.01)
    medians = []
    finals = []
    for n1 in (4096, 16384, 65536):
        angles = []
        for seed in range(3):
            world = make_world(D=64, d=16, seed=100 + seed)
            unlabeled, labeled = generate_datasets(
                world, n1=n1, n2=8192, noise_sigma=0.1, seed=200 + seed
            )
            est = fit_ridge(labeled, lam=1.0)
            nu = default_nu(world.D)
            curated = pseudo_label(unlabeled, est, nu, seed=300 + seed)
            model = CoveringScore(world.D, world.d, nu, seed=400 + seed)
            train(model, curated, TrainConfig(seed=500 + seed, **COVERING_RECIPE),
                  schedule)
            angles.append(subspace_angle(extract_subspace(model), world.A))
        medians.append(float(np.median(angles)))
        if n1 == 65536:
            finals = angles
    assert all(angle <= 2.4 for angle in finals)
    assert medians[0] >= medians[1] >= medians[2]
    _verdict(7, time.perf_counter() - start, 1800,
             f"angle at n1=65536: {max(finals):.4f} <= 2.4 "
             f"(10% of random baseline 24); medians {['%.4f' % m for m in medians]} nonincreasing")


def test_criterion_08_ridge_and_reward_error_trend():
    start = time.perf_counter()
    world = make_world(D=64, d=16, seed=6)
    _, labeled = generate_datasets(world, n1=2, n2=1024, noise_sigma=0.0, seed=7)
    est = fit_ridge(labeled, lam=1e-8)
    noiseless = float(np.linalg.norm(est.theta_hat - world.theta_star))
    assert noiseless < 1e-3

    medians = []
    for n2 in (512, 2048, 8192):
        errs = []
        for seed in range(5):
            w = make_world(D=64, d=16, seed=1000 + seed)
            _, lab = generate_datasets(w, n1=2, n2=n2, noise_sigma=0.1,
                                       seed=2000 + seed)
            e = fit_ridge(lab, lam=1.0)
            oracle = GaussianDesignOracle(world=w, beta_hat=e.beta_hat(w),
                                          nu=default_nu(64))
            errs.append(e1_exact_gaussian(oracle, a=2.0))
        medians.append(float(np.median(errs)))
    assert medians[0] >= medians[1] >= medians[2]
    _verdict(8, time.perf_counter() - start, 300,
             f"noiseless recovery {noiseless:.2e} < 1e-3; "
             f"median E1 {['%.4f' % m for m in medians]} nonincreasing")


def test_criterion_09_figure_shape_reproduction(study_run):
    out, elapsed = study_run
    figures = out / "figures"

    a_vals, reward_means = _read_curve(figures / "curve_avg_reward.csv")
    assert reward_means[0] < reward_means[1] < reward_means[2], \
        "average reward must increase strictly over the first three targets"

    rows = read_metrics_csv(out / "metrics.csv")
    subopt = {}
    for a in (min(a_vals), max(a_vals)):
        subopt[a] = float(np.mean([r["subopt"] for r in rows if r["a"] == a]))
    assert subopt[max(a_vals)] > subopt[min(a_vals)], \
        "suboptimality at the largest target must exceed the smallest"

    _, off_means = _read_curve(figures / "curve_offsupport.csv")
    rho = stats.spearmanr(a_vals, off_means).statistic
    assert rho >= 0.8, f"off-support deviation rank correlation {rho:.3f} < 0.8"

    hist_stats = {}
    for a in a_vals:
        hist_stats[a] = _hist_moments(figures / f"hist_a{io.a_tag(a)}.csv")
    means = [hist_stats[a][0] for a in a_vals[:4]]
    assert all(m2 >= m1 for m1, m2 in zip(means, means[1:])), \
        "histogram means must be nondecreasing over the first four targets"
    assert hist_stats[a_vals[-1]][1] > hist_stats[a_vals[0]][1], \
        "reward spread must increase at the largest target"

    _verdict(9, elapsed, 7200,
             f"reward means {['%.2f' % m for m in reward_means]}; "
             f"subopt {subopt[min(a_vals)]:.2f} -> {subopt[max(a_vals)]:.2f}; "
             f"spearman(offsupport, a) {rho:.3f}")


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    # Criterion 3's sampler run, twice: identical seed, byte-identical sample files.
    world = make_world(D=4, d=2, seed=7)
    score = AnalyticScore(GaussianDesignOracle(world=world, beta_hat=world.beta_star, nu=0.5))
    schedule = DiffusionSchedule(terminal_time=10.0, t0=0.01, eta=0.005)
    for run in ("one", "two"):
        [X] = run_backward(score, [2.0], 4096, schedule, seeds=[11])
        io.save_samples(tmp_path / f"c3_{run}", X)
    assert (tmp_path / "c3_one.bin").read_bytes() == (tmp_path / "c3_two.bin").read_bytes()

    # One pipeline cell rerun: byte-identical samples and metrics report.
    cfg = RunConfig(values={
        "world.D": 16, "world.d": 4, "data.n1": 8192, "data.n2": 2048,
        "schedule.T": 6.0, "schedule.t0": 0.05, "schedule.eta": 0.05,
        "score.epochs": 3, "sweep.a": [2.0], "sweep.seeds": [0],
        "sample.n": 512, "metrics.n_ref": 4000,
    })
    for name in ("cell1", "cell2"):
        run_pipeline(cfg, tmp_path / name, force=True)
    for rel in ("seed_0/samples_a2.bin", "seed_0/metrics_a2.json"):
        assert (tmp_path / "cell1" / rel).read_bytes() == \
            (tmp_path / "cell2" / rel).read_bytes(), f"{rel} differs between reruns"
    _verdict(10, time.perf_counter() - start, 600,
             "criterion-3 batch and pipeline cell reproduce bit-identically")
