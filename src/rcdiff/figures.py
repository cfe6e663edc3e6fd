"""Sweep aggregation: curve tables, reward histograms, and SVG plots.

Aggregates the per-cell metrics of a pipeline run into per-target curves
(mean with an error bar of twice the standard deviation over seeds) for the
average reward, the distribution-shift surrogate, and the off-support
deviation, plus, per target value, the reward histogram of its samples
pooled over seeds: ``HISTOGRAM_BINS`` uniform bins, shared by every target,
over the range of all the run's rewards.  These are the run's only reward
histograms.  It reads ``metrics.csv`` and each seed's ``world.rctb`` and
samples only, and writes its tables through ``io.write_csv``.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import numpy as np

from . import io
from .errors import RcdiffError
from .pipeline import read_metrics_csv
from .svgplot import Series, render_line_plot
from .world import true_reward

ERRORBAR_STD_MULTIPLIER = 2.0
HISTOGRAM_BINS = 50  # of every figures/hist_a*.csv

CURVES = [
    ("avg_reward", "average reward"),
    ("shift", "distribution shift (surrogate)"),
    ("offsupport", "off-support deviation"),
]


def aggregate_curves(rows: list) -> dict:
    """Per-target mean and ``2 * std`` over seeds for each curve column."""
    by_a = defaultdict(list)
    for row in rows:
        by_a[row["a"]].append(row)
    out = {}
    for column, _ in CURVES:
        table = []
        for a in sorted(by_a):
            vals = np.array([r[column] for r in by_a[a]])
            err = ERRORBAR_STD_MULTIPLIER * vals.std(ddof=1) if vals.size > 1 else 0.0
            table.append((a, float(vals.mean()), float(err)))
        out[column] = table
    return out


def emit_figures(run_dir, log=lambda msg: None) -> Path:
    """Write curve CSVs, histogram CSVs, and SVG plots to ``run_dir/figures``."""
    run_dir = Path(run_dir)
    csv_path = run_dir / "metrics.csv"
    if not csv_path.exists():
        raise RcdiffError(
            f"{csv_path} not found: run the 'pipeline' command for this config first"
        )
    rows = read_metrics_csv(csv_path)  # checked before anything is written
    out = run_dir / "figures"
    out.mkdir(parents=True, exist_ok=True)
    curves = aggregate_curves(rows)
    for column, label in CURVES:
        table = curves[column]
        io.write_csv(out / f"curve_{column}.csv", ["a", "mean", "err"], table)
        render_line_plot(
            out / f"curve_{column}.svg",
            [Series(name=label, x=[r[0] for r in table], y=[r[1] for r in table],
                    err=[r[2] for r in table])],
            title=f"{label} vs target value",
            xlabel="target value a",
            ylabel=label,
        )
        log(f"wrote curve_{column}.csv/.svg")

    _emit_histograms(run_dir, out, rows, log)
    return out


def _emit_histograms(run_dir, out, rows, log) -> None:
    a_values = sorted({row["a"] for row in rows})
    worlds = {seed: io.load_world(run_dir / f"seed_{seed}" / "world.rctb")
              for seed in sorted({row["seed"] for row in rows})}
    rewards = {}
    for a in a_values:
        tag = io.a_tag(a)
        rewards[a] = np.concatenate([
            true_reward(world, io.read_matrix(run_dir / f"seed_{seed}" / f"samples_a{tag}.bin"))
            for seed, world in worlds.items()])
    lo = min(float(v.min()) for v in rewards.values())
    hi = max(float(v.max()) for v in rewards.values())
    series = []
    for a in a_values:
        counts, edges = np.histogram(rewards[a], bins=HISTOGRAM_BINS, range=(lo, hi))
        io.write_csv(out / f"hist_a{io.a_tag(a)}.csv", ["bin_lo", "bin_hi", "count"],
                     zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
        centers = 0.5 * (edges[:-1] + edges[1:])
        series.append(Series(name=f"a={a:g}", x=list(centers), y=list(counts.astype(float))))
    render_line_plot(
        out / "hist_rewards.svg", series,
        title="reward distribution of generated samples",
        xlabel="reward", ylabel="count",
    )
    log(f"wrote {len(a_values)} histogram tables and hist_rewards.svg")
