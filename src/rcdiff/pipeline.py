"""End-to-end run: data, reward fit, pseudo-labels, training, generation.

One run covers every (target value, seed) cell of the configured sweep.
The expensive stages (data generation, ridge fit, score training) do not
depend on the target value, so they execute once per seed; generation runs
every target of the seed at once (one ``seed<s>.sample`` timing), and
metrics run per cell.  All stage seeds derive from the cell's root
seed through fixed stage codes (see ``rng.derive``), making every artifact
a pure function of the resolved configuration.

Training is the one stage kept between runs: a rerun, after a failed or
interrupted run or a change to keys outside ``MODEL_KEYS`` (``sweep.a``,
``sample.*``, ``metrics.n_ref``, ``schedule.eta``), loads each seed's
``score_model.rctb`` instead of training again when the last run's
training record of that seed still matches it and the file loads (see
``_run_seed``), and writes the bytes a ``force`` run writes.

Each start reads ``manifest.json`` once (``_read_manifest``), or not at
all under ``force``; that one dict answers whether the run is up to date
and holds the training records.  ``run_pipeline`` alone builds the next one,
a plain dict, and writes it on any exit: a run that fails or is
interrupted (Ctrl-C) leaves it with ``complete`` false, the training record
of each model it trained or reused and, for every other seed, the last
run's record, so the next start can reuse all of those models.
It records ``sampler.SAMPLER_REVISION``: a finished run whose samples an
earlier sampler revision wrote is not up to date, so its next start
samples again and reuses its models.
The manifest keeps no copy of a fact the run holds elsewhere: the oracle of
a seed is ``cfg.nu`` of its config and ``A^T theta_hat`` from ``world.rctb``
and ``ridge.rctb``.  Nor does a cell's record: the points of the i-th
target of ``sweep.a`` follow the stream ``derive(seed, SEED_SAMPLE, i)``,
and the score is the span view of the seed's ``score_model.rctb``, whose
sha256 is in its training record, or of the oracle under
``score.variant = oracle``.

Artifacts under the output directory::

    manifest.json                resolved config, file hashes, timings, host
                                 (``_host``), training records (loss traces,
                                 model key)
    metrics.csv                  one row per cell: its record through ``CSV_COLUMNS``
    seed_<s>/world.rctb          ground truth tensors
    seed_<s>/labeled.csv         labeled features and labels, as text
    seed_<s>/ridge.rctb          reward estimate
    seed_<s>/score_model.rctb    fitted score model (none under ``score.variant = oracle``)
    seed_<s>/samples_a<a>.bin    generated points per target value (matrix container)
    seed_<s>/metrics_a<a>.json   per-cell record (``metrics.build_metrics_report``)

The unlabeled pool and the pseudo-labels are not stored.  Like the world
and the labeled set, they are pure functions of the config and the seed:
``make_world`` under ``derive(seed, SEED_WORLD)`` and ``generate_datasets``
under ``derive(seed, SEED_DATA)`` regenerate the world and both datasets,
and ``pseudo_label`` under ``derive(seed, SEED_PSEUDO)`` the labels.
"""

from __future__ import annotations

import csv
import importlib.metadata
import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import io
from .config import RunConfig
from .errors import RcdiffError, ValidationError
from .metrics import build_metrics_report
from .oracle import GaussianDesignOracle, AnalyticScore
from .regression import fit_ridge, pseudo_label
from .rng import derive
from .sampler import SAMPLER_REVISION, run_backward
from .score_model import CoveringScore, MlpScore, train
from .world import generate_datasets, make_world

# metrics.csv column -> per-cell record key, in header order.  None marks the
# seed column: the cell's root seed, which its record does not hold.
CSV_COLUMNS = {
    "a": "a", "seed": None, "subopt": "subopt", "avg_reward": "avg_reward",
    "e1": "e1", "e2": "e2", "e3": "e3", "angle": "subspace_angle",
    "offsupport": "off_support_mean", "shift": "distro_shift",
}

# Stage codes for seed derivation under the cell seed (documented; never
# renumber).  1 and 2 are ``score_model.train``'s (``SEED_TRAIN_*`` there).
SEED_WORLD = 10
SEED_DATA = 11
SEED_PSEUDO = 12
SEED_MODEL = 13
SEED_SAMPLE = 20
SEED_METRICS = 21

# Prefixes of the config keys that a trained score model depends on.  With
# the seed they make up its reuse key; every other key only changes how the
# model is used.  Training draws t on [t0, T] only, so ``schedule.eta``, the
# sampler's step, is one of those.
MODEL_KEYS = ("world.", "data.", "reward.", "score.", "schedule.T", "schedule.t0")

# Environment variables that set the BLAS thread count, recorded as set.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class PipelineStageError(RcdiffError, RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _read_manifest(out_dir) -> dict:
    """The manifest an earlier run left in ``out_dir``, finished or not;
    empty when there is none or it cannot be read as an object.  The one
    reader of ``manifest.json``: a start reads it once and passes it on."""
    try:
        manifest = io.read_json(Path(out_dir) / "manifest.json")
    except (OSError, ValidationError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


def _part(record: dict, key: str) -> dict:
    """``record[key]`` when it is an object; a part of another shape counts as absent."""
    part = record.get(key)
    return part if isinstance(part, dict) else {}


def _host() -> dict:
    """What the run ran on: library versions, BLAS and its thread settings,
    read from package metadata and numpy's build config."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas": blas,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def is_up_to_date(cfg: RunConfig, out_dir, manifest: dict) -> bool:
    """True when ``manifest``, read from ``out_dir``, records a complete
    run of this config by this sampler revision and every file it lists is
    hash-clean."""
    files = manifest.get("files")
    return (
        manifest.get("complete") is True
        and manifest.get("config_digest") == cfg.digest()
        and manifest.get("sampler_revision") == SAMPLER_REVISION
        and isinstance(files, dict)
        and not io.verify_manifest(out_dir, files)
    )


def run_pipeline(cfg: RunConfig, out_dir, *, force: bool = False,
                 log=lambda msg: None) -> Path:
    """Execute the full sweep, reusing what the last run left unless
    ``force`` is set; returns the output directory."""
    out = Path(out_dir)
    last = {} if force else _read_manifest(out)
    if not force and is_up_to_date(cfg, out, last):
        log(f"up to date: {out}")
        return out
    trained = _part(last, "training")
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"config_digest": cfg.digest(), "config": cfg.values, "host": _host(),
                "sampler_revision": SAMPLER_REVISION, "files": {}, "timings_s": {}}
    rows, complete = [], False
    try:
        for seed in cfg["sweep.seeds"]:
            rows.extend(_run_seed(cfg, seed, out, manifest, _part(trained, str(seed)), log))
        csv_path = out / "metrics.csv"
        io.write_csv(csv_path, CSV_COLUMNS, (row.values() for row in rows))
        _add_file(manifest, out, csv_path)
        complete = True
    except BaseException as exc:
        # Each seed this run did not record keeps the last run's record, so
        # the next run can still reuse its model after the key and sha256 check.
        for seed, record in trained.items():
            manifest.setdefault("training", {}).setdefault(seed, record)
        # An interrupt such as Ctrl-C leaves unwrapped.
        if isinstance(exc, PipelineStageError) or not isinstance(exc, Exception):
            raise
        raise PipelineStageError("pipeline", exc) from exc
    finally:
        manifest["complete"] = complete
        io.write_json(out / "manifest.json", manifest)
    log(f"wrote {len(rows)} cells to {out}")
    return out


def _add_file(manifest: dict, out: Path, path) -> str:
    """Record ``path``'s sha256 under its path relative to ``out``; returns it."""
    digest = io.sha256_file(path)
    manifest["files"][os.path.relpath(path, out)] = digest
    return digest


def _run_seed(cfg: RunConfig, seed: int, out: Path, manifest: dict,
              previous: dict, log) -> list:
    """Run the stages of one seed in order, writing their artifacts under
    ``out/seed_<seed>``; returns the seed's ``metrics.csv`` rows.

    ``manifest`` gets the stage timings, the training record and the
    sha256 of each file a stage writes or reuses, so it lists no stale
    file of an earlier run.  Each file is written and hashed inside the
    stage that made it, so a stage's timing includes its I/O and a failed
    write names its stage.  Under ``score.variant = oracle`` the score is
    the oracle's closed form.  Otherwise the seed's ``score_model.rctb`` is
    loaded, as its ``train`` stage, when ``previous``, the last run's
    training record of this seed, holds this model's key (the seed and
    every config value under ``MODEL_KEYS``) and the file's sha256, and is
    trained on the curated labels and saved when it does not or the file
    fails to load.  Either score is sampled through its span view, whose
    basis ``Q`` the metrics use.
    """
    sdir = out / f"seed_{seed}"

    @contextmanager
    def stage(name):
        name = f"seed{seed}.{name}"
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc
        manifest["timings_s"][name] = round(time.perf_counter() - start, 3)

    def write(writer, name, *args) -> None:
        writer(sdir / name, *args)
        _add_file(manifest, out, sdir / name)

    with stage("world"):
        world = make_world(cfg["world.D"], cfg["world.d"], cfg.sigma,
                           cfg["world.offsupport_coeff"], cfg["world.offsupport_sign"],
                           seed=derive(seed, SEED_WORLD))
        sdir.mkdir(parents=True, exist_ok=True)
        write(io.save_world, "world.rctb", world)
    with stage("data"):
        unlabeled, labeled = generate_datasets(world, cfg["data.n1"], cfg["data.n2"],
                                               cfg["data.noise_sigma"],
                                               seed=derive(seed, SEED_DATA))
        write(io.export_csv, "labeled.csv", labeled.X, labeled.y)
    with stage("ridge"):
        est = fit_ridge(labeled, cfg["reward.lambda"])
        write(io.save_ridge, "ridge.rctb", est)

    # The closed-form reference for the fitted reward.
    oracle = GaussianDesignOracle(world=world, beta_hat=est.beta_hat(world), nu=cfg.nu)

    if cfg["score.variant"] == "oracle":
        score = AnalyticScore(oracle)
    else:
        path = sdir / "score_model.rctb"
        key = io.sha256_text(json.dumps([seed, {
            k: v for k, v in cfg.values.items() if k.startswith(MODEL_KEYS)}], sort_keys=True))
        # The file is hashed once: a retrain re-adds it under its new sha256.
        score = None
        if previous.get("key") == key and path.is_file():
            with stage("train"):
                if _add_file(manifest, out, path) == previous.get("sha256"):
                    try:
                        score, record = io.load_model(path), dict(previous)
                        log(f"seed {seed}: reusing score_model.rctb")
                    except ValidationError as exc:  # e.g. written in an older layout
                        log(f"seed {seed}: retraining, {exc}")
        if score is None:
            with stage("pseudo"):
                curated = pseudo_label(unlabeled, est, cfg.nu, seed=derive(seed, SEED_PSEUDO))
            with stage("train"):
                D, d, init = cfg["world.D"], cfg["world.d"], derive(seed, SEED_MODEL)
                if cfg["score.variant"] == "covering":
                    score = CoveringScore(D, d, cfg.nu, seed=init)
                else:
                    score = MlpScore(D, d, cfg.nu, hidden=tuple(cfg["score.hidden"]), seed=init)
                result = train(score, curated, cfg.train_config(seed), cfg.schedule())
                io.save_model(path, score)
                record = {"loss_trace": result.loss_trace, "val_trace": result.val_trace,
                          "key": key, "sha256": _add_file(manifest, out, path)}
            del curated
            log(f"seed {seed}: trained "
                f"({result.val_trace[0]:.3f} -> {result.val_trace[-1]:.3f})")
        manifest.setdefault("training", {})[str(seed)] = record

    # Released before sampling, which holds every target's state at once.
    del unlabeled, labeled

    # Every target of ``sweep.a`` in one timed stage; the i-th target draws
    # noise stream i and metrics stream i.
    targets = cfg["sweep.a"]
    tags = [io.a_tag(a) for a in targets]
    seeds = [derive(seed, SEED_SAMPLE, i) for i in range(len(targets))]
    with stage("sample"):
        view = score.span_view()
        samples = run_backward(view, targets, cfg["sample.n"], cfg.schedule(), seeds=seeds)
        for tag, X in zip(tags, samples):
            _add_file(manifest, out, io.save_samples(sdir / f"samples_a{tag}", X))
    rows = []
    for i, (a, tag, X) in enumerate(zip(targets, tags, samples)):
        with stage(f"metrics.a{tag}"):
            record = build_metrics_report(X, a, world, est, oracle, view.Q, t0=cfg["schedule.t0"],
                                          n_ref=cfg["metrics.n_ref"],
                                          seed=derive(seed, SEED_METRICS, i))
            write(io.write_json, f"metrics_a{tag}.json", record)
        row = {col: seed if key is None else record[key] for col, key in CSV_COLUMNS.items()}
        log(f"seed {seed} a={a:g}: reward {row['avg_reward']:+.3f} "
            f"offsupport {row['offsupport']:.3f}")
        rows.append(row)
    return rows


def read_metrics_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise RcdiffError(f"unexpected metrics.csv schema: {reader.fieldnames}")
        rows = []
        for row in reader:
            # A short row holds None values, a long one a None key: TypeError.
            try:
                rows.append({k: (int(v) if k == "seed" else float(v)) for k, v in row.items()})
            except (TypeError, ValueError):
                raise ValidationError(f"{path}: line {reader.line_num} is not a row of "
                                      f"{len(CSV_COLUMNS)} numbers") from None
        if not rows:
            raise ValidationError(f"{path}: no rows below the header")
        return rows
