"""The rcdiff benchmark: closed-loop repetitions of one workload.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload study-mlp --seed 0 --seconds 36 --trace 0

One study runs at a time, each repetition in a fresh process started from
this one (``rep.py``), with the BLAS thread count fixed at
``BLAS_THREADS``.  Repetitions start while the next one is expected to end
inside ``--seconds`` (at least two always run, so artifacts can be
compared across repetitions).  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json`` as medians over repetitions; ``--trace 1``
runs the microbenchmarks (``micro.py``), then alternates untraced and
traced repetitions and reports the per-layer metrics.  Every repetition
passes through the correctness gate (``gate.py``); ``attempted`` and
``failed`` in the last output line count (seed, a) cells, so their ratio
is ``failed_frac``.

The last line of standard output is one JSON object; the lines before it
give the same figures for people, and a results file with host facts and
every repetition goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# One thread: the mlp forward's p90/median was 1.05 at one OpenBLAS thread
# and 1.34 at two on a 2-vCPU Xeon VM, and outputs are
# bit-identical at either count.
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REP_TIMEOUT_S = 170



def host_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((SRC_DIR / "rcdiff").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({k: str(BLAS_THREADS) for k in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    return env


def run_rep(workload: str, seed: int, work: Path, index: int, traced: bool) -> dict:
    """Start one repetition and return its result record."""
    out = work / f"rep{index}"
    result_path = work / f"rep{index}.json"
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), workload, str(seed), str(out),
           str(result_path)]
    t0 = time.perf_counter()
    cmd.append(repr(t0))
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=REP_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    wall = time.perf_counter() - t0
    if code == 0 and result_path.exists():
        rep = json.loads(result_path.read_text())
    else:
        rep = {"error": f"repetition process ended with {code}", "traced": traced}
    rep["wall_s"] = wall
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    return rep


def run_micro(workload: str, work: Path) -> dict:
    result_path = work / "micro.json"
    subprocess.run([sys.executable, str(BENCH_DIR / "micro.py"), workload, str(result_path)],
                   cwd=ROOT, env=_child_env(), timeout=REP_TIMEOUT_S, check=True)
    return json.loads(result_path.read_text())


def layer_metrics(rep: dict, n_points: int) -> dict:
    """Per-layer figures of one traced repetition (see README.md)."""
    from spans import IO_WRITE_SPANS, self_times

    run = self_times(rep["spans"]["run"])
    rerun = self_times(rep["spans"]["rerun"])

    def get(stats, name, key):
        return stats.get(name, {}).get(key, 0)

    backward_s = get(run, "sampler.run_backward", "total_s")
    return {
        "sampler.run_backward_s": backward_s,
        "sampler.score_calls": get(run, "sampler.score", "count"),
        "sampler.score_s": get(run, "sampler.score", "total_s"),
        "sampler.loop_self_s": get(run, "sampler.run_backward", "self_s"),
        "sampler.points_per_s": n_points / backward_s,
        "score_model.train_s": get(run, "score_model.train", "total_s"),
        "score_model.train_steps": get(run, "score_model.loss_and_grad", "count"),
        "score_model.loss_and_grad_s": get(run, "score_model.loss_and_grad", "total_s"),
        "score_model.adam_s": get(run, "score_model.Adam.step", "total_s"),
        "score_model.train_loop_self_s": get(run, "score_model.train", "self_s"),
        "io.write_s": sum(get(run, n, "self_s") for n in IO_WRITE_SPANS),
        "io.hash_s": get(run, "io.sha256_file", "self_s"),
        "io.bytes_written": rep["io_bytes_written"],
        "io.files_written": rep["io_files_written"],
        "io.verify_s": get(rerun, "io.verify_manifest", "total_s"),
        "world.make_world_s": get(run, "world.make_world", "total_s"),
        "world.generate_datasets_s": get(run, "world.generate_datasets", "total_s"),
        "regression.fit_ridge_s": get(run, "regression.fit_ridge", "total_s"),
        "regression.pseudo_label_s": get(run, "regression.pseudo_label", "total_s"),
        "metrics.build_report_s": get(run, "metrics.build_metrics_report", "total_s"),
        "pipeline.untimed_s": rep["run_s"] - rep["timings_sum_s"],
        "pipeline.self_s": get(run, "pipeline.run_pipeline", "self_s"),
        "trace.run_s": rep["run_s"],
    }


def layer_split(rep: dict) -> dict:
    """Self time per layer (module) of the traced run; sums to its root span."""
    from spans import self_times

    split: dict = {}
    for name, agg in self_times(rep["spans"]["run"]).items():
        layer = name.split(".")[0]
        split[layer] = split.get(layer, 0.0) + agg["self_s"]
    return split


def quality(rep: dict) -> dict:
    cells = [c["quality"] for c in rep["cells"].values()]
    return {k: statistics.fmean(c[k] for c in cells) for k in cells[0]}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else None
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if spec is None or not (SRC_DIR / "rcdiff" / "__init__.py").exists():
        print(f"error: needs {spec_path} and the package source under {SRC_DIR}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import gate
    import workloads
    from rcdiff.config import RunConfig

    if args.workload not in workloads.WORKLOADS or args.seed < 0 or args.seconds <= 0:
        print("error: unknown workload, negative seed or no time", file=sys.stderr)
        return 2
    cfg = RunConfig(values=workloads.config_values(args.workload, args.seed))
    n_cells = len(cfg["sweep.seeds"]) * len(cfg["sweep.a"])
    n_points = n_cells * cfg["sample.n"]

    work = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    micro = run_micro(args.workload, work) if args.trace else {}
    kinds = [False, True] if args.trace else [False]
    reps: list = []
    while len(reps) < 2 or (time.perf_counter() - start
                            + max(r["wall_s"] for r in reps) <= args.seconds):
        reps.append(run_rep(args.workload, args.seed, work, len(reps),
                            kinds[len(reps) % len(kinds)]))
    shutil.rmtree(work, ignore_errors=True)

    attempted, failed, notes = gate.failed_cells(reps, n_cells)
    finished = [r for r in reps if r["error"] is None]
    plain = [r for r in finished if not r["traced"]]
    traced_reps = [r for r in finished if r["traced"]]
    if not plain or (args.trace and not traced_reps):
        for note in notes:
            print(note, file=sys.stderr)
        print("error: no repetition finished", file=sys.stderr)
        return 1

    samples: dict = {}
    if args.trace:
        for rep in traced_reps:
            for k, v in layer_metrics(rep, n_points).items():
                samples.setdefault(k, []).append(v)
        run_plain = statistics.median(r["run_s"] for r in plain)
        samples["trace.overhead_s"] = [r["run_s"] - run_plain for r in traced_reps]
        for k, v in micro.items():
            samples[k] = [v]
        declared = spec["per_layer"]
    else:
        for key in ("setup_s", "run_s", "rerun_s", "peak_rss_mb"):
            samples[key] = [r[key] for r in plain]
        declared = spec["end_to_end"]
    # Deterministic for a given code and seed, so one repetition gives them.
    for k, v in quality(finished[0]).items():
        samples[k] = [v]

    metrics, lines = {}, []
    for m in declared:
        values = samples[m["name"]]
        med = statistics.median(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        lines.append(f"  {m['name']:34s} {med:14.6g} {m['unit']:6s}"
                     f"  (median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    host = host_facts()
    print(f"rcdiff benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(reps)} repetitions ({len(traced_reps)} traced) in "
          f"{time.perf_counter() - start:.1f} s")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print("\n".join(lines))
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} {'1':6s}"
          f"  ({failed} of {attempted} cells)")
    for note in notes:
        print(f"  gate: {note}")
    split = {}
    if args.trace:
        split = layer_split(traced_reps[0])
        run_s = traced_reps[0]["run_s"]
        print(f"  traced self time by layer (run_s {run_s:.4f} s):")
        for layer, s in split.items():
            print(f"    {layer:12s} {s:10.4f} s  {100 * s / run_s:6.2f} %")
        print(f"    {'sum':12s} {sum(split.values()):10.4f} s")

    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "result": result, "samples": samples,
        "layer_split_s": split, "gate_notes": notes,
        "reps": [{k: v for k, v in r.items()
                  if k not in ("spans", "digests", "cells")} for r in reps],
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
