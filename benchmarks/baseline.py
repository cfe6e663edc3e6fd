"""Repeat the benchmark over seeds and summarise it: medians, quartiles, spreads.

Usage, from the root of a checkout::

    python3 benchmarks/baseline.py --seeds 0-9 [--trace-seeds 0-2] \
        [--workloads study-mlp,smoke-seeds] [--out benchmarks/baseline.json]

For every workload it runs ``run.py`` once per seed with ``run_seconds``
from ``BENCHMARK.json`` (untraced), and once per trace seed traced.  For
each metric it reports the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) /
median, which ``BENCHMARK.json``'s bounds are checked against.  The
summary, with the host facts, is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        record = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace1.json"
        result["layer_split_s"] = json.loads(record.read_text())["layer_split_s"]
    return result


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=str(ROOT / ".bench_work" / "baseline.json"))
    args = ap.parse_args()
    sys.path.insert(0, str(BENCH_DIR))
    from run import host_facts

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"host": host_facts(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {}
        for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.trace_seeds))):
            if not seeds:
                continue
            results = []
            for seed in seeds:
                results.append(run_once(workload, seed, spec["run_seconds"], trace))
                print(workload, "trace" if trace else "", seed, json.dumps(results[-1]),
                      flush=True)
            entry["per_layer" if trace else "end_to_end"] = summarise(results)
            if trace:
                entry["layer_split_s"] = [r["layer_split_s"] for r in results]
            entry["failed" if not trace else "failed_traced"] = sum(r["failed"] for r in results)
            entry["attempted" if not trace else "attempted_traced"] = sum(
                r["attempted"] for r in results)
            entry["seeds" if not trace else "trace_seeds"] = seeds
        summary["workloads"][workload] = entry
        for name, s in entry.get("end_to_end", {}).items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload:15s} {name:12s} median {s['median']:.6g} spread "
                  f"{s['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
