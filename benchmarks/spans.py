"""Span tracing from outside the package, and self-time arithmetic.

``install`` replaces the public functions that ``rcdiff.pipeline`` and
``rcdiff.io`` look up at call time (module globals, class attributes)
with wrappers that record one span per call.  A span is
``[name, start, end, parent]``, where ``parent`` is the index of the
enclosing span in the same list or -1.  Spans are kept in memory and
written out by the caller when the repetition ends.  Nothing under
``src/`` is edited; the wrappers pass arguments and results through
unchanged, so traced runs must produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
import os
import time

# Leaf writers: each call writes exactly one file, whose size is counted.
_IO_WRITERS = ("write_matrix", "write_blocks", "write_json", "export_csv")
_IO_HELPERS = ("save_world", "save_ridge", "save_model", "save_samples")
_IO_READERS = ("sha256_file", "verify_manifest", "read_json")
IO_WRITE_SPANS = tuple(f"io.{n}" for n in _IO_HELPERS + _IO_WRITERS)


class Tracer:
    """Records nested spans for the current phase, plus I/O counters."""

    def __init__(self):
        self.phases: dict = {}
        self.spans: list = []
        self.stack: list = []
        self.bytes_written = 0
        self.files_written = 0

    def begin(self, phase: str) -> None:
        self.spans = self.phases.setdefault(phase, [])
        self.stack = []

    def call(self, name, fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced


class TimedScore:
    """The score callable handed to ``run_backward``, timed per call.

    Attribute lookups (``D``, ``score_id``) go to the wrapped score, so the
    sampler sees the same object it would see untraced.
    """

    def __init__(self, score, tracer: Tracer):
        self._score = score
        self._tracer = tracer

    def __call__(self, x, y, t):
        return self._tracer.call("sampler.score", self._score, (x, y, t), {})

    def __getattr__(self, name):
        return getattr(self._score, name)


def install(tracer: Tracer) -> None:
    """Patch the layer entry points of an imported ``rcdiff`` in place."""
    from rcdiff import io, pipeline, score_model

    for fname, layer in (
        ("make_world", "world"), ("generate_datasets", "world"),
        ("fit_ridge", "regression"), ("pseudo_label", "regression"),
        ("train", "score_model"), ("build_metrics_report", "metrics"),
        ("run_pipeline", "pipeline"), ("is_up_to_date", "pipeline"),
    ):
        setattr(pipeline, fname, tracer.wrap(f"{layer}.{fname}", getattr(pipeline, fname)))

    run_backward = pipeline.run_backward

    def traced_run_backward(score, *args, **kwargs):
        return tracer.call("sampler.run_backward", run_backward,
                           (TimedScore(score, tracer), *args), kwargs)
    pipeline.run_backward = traced_run_backward

    for cls in (score_model.MlpScore, score_model.CoveringScore):
        cls.loss_and_grad = tracer.wrap("score_model.loss_and_grad", cls.loss_and_grad)
    score_model.Adam.step = tracer.wrap("score_model.Adam.step", score_model.Adam.step)

    for fname in _IO_HELPERS + _IO_READERS:
        setattr(io, fname, tracer.wrap(f"io.{fname}", getattr(io, fname)))
    for fname in _IO_WRITERS:
        setattr(io, fname, _counting_writer(tracer, fname, getattr(io, fname)))


def _counting_writer(tracer: Tracer, fname: str, fn):
    @functools.wraps(fn)
    def traced(path, *args, **kwargs):
        result = tracer.call(f"io.{fname}", fn, (path, *args), kwargs)
        tracer.files_written += 1
        tracer.bytes_written += os.path.getsize(path)
        return result
    return traced


def self_times(spans: list) -> dict:
    """Per-name ``{"count", "total_s", "self_s"}`` over a span list.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (overlapping children are merged first).
    """
    children: dict = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        agg = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - covered
    return out
