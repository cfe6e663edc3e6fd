"""Tests of the benchmark's own arithmetic and correctness gate.

Run from the root of a checkout::

    python3 -m pytest -q benchmarks
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "world.D": 4, "world.d": 2, "data.n1": 256, "data.n2": 64,
    "schedule.T": 0.2, "schedule.t0": 0.05, "schedule.eta": 0.05,
    "score.variant": "covering", "score.epochs": 1, "sample.n": 64,
    "sweep.a": [0.0, 1.0], "sweep.seeds": [0], "metrics.n_ref": 500,
}


def test_self_times_on_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 8.0, 0],
        ["b", 7.0, 9.0, 0],     # overlaps the first "b": covered once
    ]
    st = spans.self_times(tree)
    assert st["root"] == {"count": 1, "total_s": 10.0, "self_s": 3.0}
    assert st["a"]["self_s"] == 2.0
    assert st["leaf"]["self_s"] == 1.0
    assert st["b"] == {"count": 2, "total_s": 5.0, "self_s": 5.0}
    assert sum(v["self_s"] for v in st.values()) == 11.0  # root + double-counted b


def test_cells_of_maps_files_to_cells():
    cells = {"0:1", "0:2", "3:1"}
    assert gate.cells_of("seed_0/samples_a2.bin", cells) == {"0:2"}
    assert gate.cells_of("seed_0/metrics_a1.json", cells) == {"0:1"}
    assert gate.cells_of("seed_3/ridge.rctb", cells) == {"3:1"}
    assert gate.cells_of("metrics.csv", cells) == cells


def _tiny_run(out: Path) -> dict:
    from rcdiff.config import RunConfig
    from rcdiff.pipeline import run_pipeline

    cfg = RunConfig(values=TINY)
    run_pipeline(cfg, out, force=True)
    before = gate.snapshot(out)
    run_pipeline(cfg, out)
    return {"error": None, "rewritten": gate.changed(before, gate.snapshot(out)),
            **gate.collect(out)}


def test_clean_repetitions_pass(tmp_path):
    reps = [_tiny_run(tmp_path / f"r{i}") for i in range(2)]
    assert gate.failed_cells(reps, 2)[:2] == (4, 0)


def test_altered_artifact_is_a_failed_cell(tmp_path):
    outs = [tmp_path / f"r{i}" for i in range(3)]
    reps = [_tiny_run(out) for out in outs]
    target = outs[2] / "seed_0" / "samples_a1.bin"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0x01
    target.write_bytes(bytes(raw))
    reps[2] = {**reps[2], **gate.collect(outs[2])}
    attempted, failed, notes = gate.failed_cells(reps, 2)
    assert (attempted, failed) == (6, 1)
    assert "0:1" in notes[0]


def test_cross_repetition_digest_mismatch_is_caught():
    # Consistent with its own manifest, but not with the other repetitions.
    rec = {"error": None, "manifest_mismatch": [], "rewritten": [],
           "cells": {"0:1": {"finite": True}, "0:2": {"finite": True}},
           "digests": {"seed_0/samples_a1.bin": "x", "seed_0/world.rctb": "w"}}
    odd = json.loads(json.dumps(rec))
    odd["digests"]["seed_0/world.rctb"] = "other"
    assert gate.failed_cells([rec, rec, odd], 2)[:2] == (6, 2)
    # With two repetitions that disagree, neither can be trusted.
    assert gate.failed_cells([rec, odd], 2)[:2] == (4, 4)


def test_rewrite_raise_and_nonfinite_fail_cells():
    rec = {"error": None, "manifest_mismatch": [], "rewritten": [],
           "cells": {"0:1": {"finite": True}, "0:2": {"finite": True}}, "digests": {}}
    assert gate.failed_cells([rec, {**rec, "rewritten": ["metrics.csv"]}], 2)[1] == 2
    assert gate.failed_cells([rec, {"error": "boom"}], 2)[1] == 2
    nonfinite = {**rec, "cells": {"0:1": {"finite": False}, "0:2": {"finite": True}}}
    assert gate.failed_cells([rec, nonfinite], 2)[1] == 1
    missing = {**rec, "cells": {"0:1": {"finite": True}}}
    assert gate.failed_cells([rec, missing], 2)[1] == 1


_TRACED_RUN = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import gate, spans
from rcdiff.config import RunConfig
tracer = spans.Tracer()
spans.install(tracer)
from rcdiff import pipeline
tracer.begin("run")
pipeline.run_pipeline(RunConfig(values={values!r}), {out!r}, force=True)
st = spans.self_times(tracer.spans)
root = st["pipeline.run_pipeline"]["total_s"]
print(json.dumps({{"digests": gate.collect({out!r})["digests"], "root": root,
                   "self_sum": sum(v["self_s"] for v in st.values()),
                   "names": sorted(st), "files": tracer.files_written}}))
"""


def test_tracing_is_transparent_and_accounts_for_the_run(tmp_path):
    plain = _tiny_run(tmp_path / "plain")
    code = _TRACED_RUN.format(src=str(ROOT / "src"), bench=str(BENCH_DIR),
                              values=TINY, out=str(tmp_path / "traced"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    assert traced["digests"] == plain["digests"]
    assert traced["self_sum"] == pytest.approx(traced["root"], rel=1e-9)
    for name in ("sampler.score", "score_model.loss_and_grad", "score_model.Adam.step",
                 "io.sha256_file", "io.export_csv", "world.make_world"):
        assert name in traced["names"]
    # manifest.json is counted; metrics.csv is written by the pipeline's own
    # private helper, outside the io layer, so it is not.
    assert traced["files"] == len(plain["digests"])


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    fake = {"spans": {"run": [["sampler.run_backward", 0.0, 1.0, -1]], "rerun": []},
            "io_bytes_written": 1, "io_files_written": 1, "run_s": 1.0,
            "timings_sum_s": 0.5}
    reported = set(run.layer_metrics(fake, 10)) | {"trace.overhead_s"}
    reported |= set(micro.measure("smoke-seeds"))
    reported |= {"angle", "subopt_abs", "offsupport", "cov_gap"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "rerun_s",
                                                       "peak_rss_mb"}
    assert next(m for m in spec["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
