"""The benchmark's workloads: named run configurations for ``run_pipeline``.

Each workload maps the benchmark's ``--seed`` onto ``sweep.seeds``, so the
same seed always gives the same study.  The sizes are cut from the paper
scale so that one repetition takes a few seconds and a run holds several
repetitions; what is kept is the shape of the hot calls (D, d, head,
1024-row sampler chunks, step size, batch size), so each workload stays
bound by the same layer as its full-size counterpart.  ``README.md`` next
to this file gives the full-size measurements and the predicted moves.
"""

from __future__ import annotations

# Shared by the two D=64 workloads.  The full study integrates from T=10
# (1000 steps); T=1 keeps the step size, the early-stop time and the
# per-step cost, and only shortens the chain to 99 steps.
_STUDY_SCHEDULE = {"schedule.T": 1.0, "schedule.t0": 0.01, "schedule.eta": 0.01}

_COVERING_RECIPE = {
    "score.variant": "covering",
    "score.learning_rate": 1e-2,
    "score.lr_decay": 0.6,
}

WORKLOADS = {
    "study-mlp": {
        "why": "Paper headline shape (D=64, d=16, mlp, 6 targets x 2 chunks): "
               "sampling-bound on the BLAS mlp forward. Bypasses seed "
               "parallelism (one seed).",
        "values": {**_STUDY_SCHEDULE, "data.n1": 12288},
        "seeds_per_run": 1,
    },
    "train-covering": {
        "why": "Covering head, one target, one chunk: training-bound on the "
               "batched (n,d,d) inverse in loss_and_grad. Bypasses sampler "
               "vectorisation and seed parallelism.",
        "values": {**_STUDY_SCHEDULE, **_COVERING_RECIPE, "data.n1": 16384,
                   "sweep.a": [4.0], "sample.n": 1024},
        "seeds_per_run": 1,
    },
    "smoke-seeds": {
        "why": "README smoke config over 8 seeds: tiny arrays, so every call "
               "is Python/numpy dispatch-bound; sampler loop self-time "
               "dominates. Bypasses BLAS-bound GEMM speed-ups.",
        "values": {
            "world.D": 8, "world.d": 2, "data.n1": 4096, "data.n2": 1024,
            "schedule.T": 5.0, "schedule.t0": 0.02, "schedule.eta": 0.02,
            **_COVERING_RECIPE, "sweep.a": [0.0, 2.0, 4.0],
        },
        "seeds_per_run": 8,
    },
}


def config_values(name: str, seed: int) -> dict:
    """Config overrides for workload ``name`` at benchmark seed ``seed``."""
    spec = WORKLOADS[name]
    k = spec["seeds_per_run"]
    return {**spec["values"], "sweep.seeds": list(range(k * seed, k * seed + k))}
