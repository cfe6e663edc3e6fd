"""Fixed-shape microbenchmarks of the hot layer calls at a workload's D and d.

Usage (started by ``run.py`` in a fresh process with the benchmark's BLAS
thread count)::

    python micro.py WORKLOAD RESULT_JSON

Each figure is the median of repeated calls after one warm-up call.  The
shapes are the ones the pipeline uses: the sampler's 1024-row chunk with a
shared scalar t, a training batch of 64 rows with per-row t, and one Adam
step over a model's parameters.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
CHUNK = 1024
BATCH = 64


def _median_s(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def forward_flop(variant: str, D: int, d: int, hidden, n: int = CHUNK) -> int:
    """Dense matrix-product flops (2mnk each) of one score forward on n rows.

    Both heads encode (n, D) @ (D, d) and decode (n, d) @ (d, D); the mlp
    adds its layers on the d + 4 features, the covering head one (n, d) @
    (d, d) product with B_t.  Elementwise work and the d x d solve for B_t
    are not counted.
    """
    enc_dec = 2 * (2 * n * D * d)
    if variant == "covering":
        return enc_dec + 2 * n * d * d
    dims = [d + 4, *hidden, d]
    return enc_dec + sum(2 * n * a * b for a, b in zip(dims[:-1], dims[1:]))


def measure(workload: str) -> dict:
    sys.path.insert(0, str(SRC_DIR))
    import numpy as np
    import workloads
    from rcdiff.config import RunConfig
    from rcdiff.oracle import GaussianDesignOracle, analytic_score, b_matrix
    from rcdiff.score_model import Adam, CoveringScore, MlpScore
    from rcdiff.world import make_world

    cfg = RunConfig(values=workloads.config_values(workload, 0))
    D, d, nu = cfg["world.D"], cfg["world.d"], cfg.nu
    hidden = tuple(cfg["score.hidden"])
    t_mid = 0.5 * cfg["schedule.T"]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((CHUNK, D))
    y = np.full(CHUNK, 2.0)
    xb = rng.standard_normal((BATCH, D))
    tb = rng.uniform(cfg["schedule.t0"], cfg["schedule.T"], BATCH)
    eb = rng.standard_normal((BATCH, D))

    m = {}
    models = {
        "mlp": MlpScore(D, d, nu, hidden=hidden, seed=0),
        "covering": CoveringScore(D, d, nu, seed=0),
    }
    for name, model in models.items():
        m[f"score_model.forward_ms.{name}"] = 1e3 * _median_s(lambda: model(x, y, t_mid), 40)
        m[f"score_model.forward_flop.{name}"] = forward_flop(name, D, d, hidden)
        m[f"score_model.loss_and_grad_ms.{name}"] = 1e3 * _median_s(
            lambda: model.loss_and_grad(xb, y[:BATCH], tb, eb), 200)
        _, grads = model.loss_and_grad(xb, y[:BATCH], tb, eb)
        params = {k: v.copy() for k, v in model.params.items()}
        opt = Adam(params, 1e-9)
        m[f"score_model.adam_step_ms.{name}"] = 1e3 * _median_s(lambda: opt.step(params, grads), 200)
    m["sampler.noise_draw_ms"] = 1e3 * _median_s(lambda: rng.standard_normal((CHUNK, D)), 100)

    world = make_world(D, d, None, 5.0, "penalty", seed=0)
    oracle = GaussianDesignOracle(world=world, beta_hat=world.beta_star, nu=nu)
    m["oracle.b_matrix_us"] = 1e6 * _median_s(lambda: b_matrix(oracle, t_mid), 500)
    m["oracle.analytic_score_ms"] = 1e3 * _median_s(
        lambda: analytic_score(oracle, x, 2.0, t_mid), 100)
    return m


if __name__ == "__main__":
    workload, result_path = sys.argv[1:3]
    Path(result_path).write_text(json.dumps(measure(workload)))
