"""One repetition of a workload, in a fresh process.

Usage (started by ``run.py``; the output directory must not exist)::

    python rep.py WORKLOAD SEED OUT_DIR RESULT_JSON SPAWN_TIME [--trace]

``SPAWN_TIME`` is the parent's ``time.perf_counter()`` just before it
started this process.  On Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so ``setup_s`` = (first stage call) - SPAWN_TIME covers
interpreter start, importing ``rcdiff`` (numpy, scipy), resolving the
config and preparing the output directory.

The repetition runs ``run_pipeline(cfg, out, force=True)`` (``run_s``),
then ``run_pipeline(cfg, out)`` again on the finished directory
(``rerun_s``, the ``is_up_to_date`` -> ``verify_manifest`` path), records
the peak resident memory, and then, outside every timed region, collects
what the correctness gate needs.  With ``--trace`` the layer entry points
are wrapped first and the spans of both calls are written to the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv) -> int:
    workload, seed, out, result_path, spawn_time = argv[:5]
    traced = "--trace" in argv[5:]
    sys.path.insert(0, str(SRC_DIR))
    import gate
    import spans
    import workloads
    from rcdiff import pipeline
    from rcdiff.config import RunConfig

    if not Path(pipeline.__file__).resolve().is_relative_to(SRC_DIR.resolve()):
        raise SystemExit(f"rcdiff imported from {pipeline.__file__}, not {SRC_DIR}")
    tracer = spans.Tracer()
    if traced:
        spans.install(tracer)
    cfg = RunConfig(values=workloads.config_values(workload, int(seed)))
    out = Path(out)
    out.mkdir(parents=True)

    result = {"error": None, "traced": traced}
    tracer.begin("run")
    t_first = time.perf_counter()
    result["setup_s"] = t_first - float(spawn_time)
    try:
        pipeline.run_pipeline(cfg, out, force=True)
    except Exception as exc:  # the gate counts it; the benchmark keeps going
        result["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    result["run_s"] = time.perf_counter() - t_first
    if result["error"] is None:
        before = gate.snapshot(out)
        tracer.begin("rerun")
        t = time.perf_counter()
        try:
            pipeline.run_pipeline(cfg, out)
        except Exception as exc:
            result["error"] = f"rerun: {type(exc).__name__}: {exc}"
            traceback.print_exc()
        result["rerun_s"] = time.perf_counter() - t
        result["rewritten"] = gate.changed(before, gate.snapshot(out))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if result["error"] is None:
        result.update(gate.collect(out))
        manifest = json.loads((out / "manifest.json").read_text())
        result["timings_sum_s"] = sum(manifest["timings_s"].values())
    if traced:
        result["spans"] = tracer.phases
        result["io_bytes_written"] = tracer.bytes_written
        result["io_files_written"] = tracer.files_written
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
