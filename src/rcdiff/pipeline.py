"""End-to-end run: data, reward fit, pseudo-labels, training, generation.

One run covers every (target value, seed) cell of the configured sweep.
The expensive stages (data generation, ridge fit, score training) do not
depend on the target value, so they execute once per seed; generation and
metrics then run per cell.  All stage seeds derive from the cell's root
seed through fixed stage codes (see ``rng.derive``), making every artifact
a pure function of the resolved configuration.

Artifacts under the output directory::

    manifest.json                resolved config, score source, file hashes, timings
    metrics.csv                  one row per cell (stable schema)
    seed_<s>/world.rctb          ground truth tensors
    seed_<s>/unlabeled.bin       unlabeled features (matrix container)
    seed_<s>/labeled.bin/.csv    labeled features + labels
    seed_<s>/ridge.rctb          reward estimate
    seed_<s>/pseudo_labels.bin   curated labels for the unlabeled features
    seed_<s>/score_model.rctb    fitted score model
    seed_<s>/samples_a<a>.bin/.json   generated batch per target value
    seed_<s>/metrics_a<a>.json   per-cell metrics report
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

from . import io
from .config import RunConfig
from .errors import RcdiffError
from .metrics import build_metrics_report
from .oracle import GaussianDesignOracle, AnalyticScore
from .regression import fit_ridge, pseudo_label
from .rng import derive
from .sampler import run_backward
from .score_model import CoveringScore, MlpScore, extract_subspace, train
from .world import generate_datasets, make_world

CSV_COLUMNS = [
    "a", "seed", "subopt", "avg_reward", "e1", "e2", "e3",
    "angle", "offsupport", "shift",
]

# Stage codes for seed derivation (documented; never renumber).
SEED_WORLD = 10
SEED_DATA = 11
SEED_PSEUDO = 12
SEED_SAMPLE = 20
SEED_METRICS = 21


class PipelineStageError(RcdiffError, RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _a_tag(a: float) -> str:
    return f"{a:g}".replace("-", "m").replace(".", "p")


def _build_model(cfg: RunConfig, seed: int):
    D, d = cfg["world.D"], cfg["world.d"]
    if cfg["score.variant"] == "covering":
        return CoveringScore(D, d, cfg.nu, seed=derive(seed, 13))
    return MlpScore(D, d, cfg.nu, hidden=tuple(cfg["score.hidden"]), seed=derive(seed, 13))


def is_up_to_date(cfg: RunConfig, out_dir, score_source: str = "model") -> bool:
    """True when a complete, hash-clean run of this config and score source exists."""
    manifest_path = Path(out_dir) / "manifest.json"
    if not manifest_path.exists():
        return False
    try:
        manifest = io.read_json(manifest_path)
    except Exception:
        return False
    return (
        manifest.get("complete") is True
        and manifest.get("config_digest") == cfg.digest()
        and manifest.get("score_source") == score_source
        and not io.verify_manifest(out_dir)
    )


def run_pipeline(cfg: RunConfig, out_dir=None, *, force: bool = False,
                 log=lambda msg: None, use_oracle_score: bool = False) -> Path:
    """Execute the full sweep; returns the output directory.

    ``use_oracle_score`` swaps the trained model for the closed-form score
    (same interfaces, no training stage), which is mainly useful for fast
    smoke runs and sampler studies.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg["out.dir"])
    score_source = "oracle" if use_oracle_score else "model"
    if not force and is_up_to_date(cfg, out, score_source):
        log(f"up to date: {out}")
        return out
    out.mkdir(parents=True, exist_ok=True)
    manifest = io.ManifestBuilder(cfg.digest(), cfg.values)
    manifest.data["score_source"] = score_source
    rows = []
    try:
        for seed in cfg["sweep.seeds"]:
            _run_seed(cfg, out, seed, manifest, rows, log, use_oracle_score)
        csv_path = out / "metrics.csv"
        _write_csv(csv_path, rows)
        manifest.add_file(out, csv_path)
    except Exception as exc:
        manifest.write(out / "manifest.json", complete=False)
        if isinstance(exc, PipelineStageError):
            raise
        raise PipelineStageError("pipeline", exc) from exc
    manifest.write(out / "manifest.json", complete=True)
    log(f"wrote {len(rows)} cells to {out}")
    return out


def _stage(manifest, name, fn):
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc
    manifest.add_timing(name, time.perf_counter() - start)
    return result


def _run_seed(cfg, out, seed, manifest, rows, log, use_oracle_score):
    sdir = out / f"seed_{seed}"
    sdir.mkdir(parents=True, exist_ok=True)

    world = _stage(manifest, f"seed{seed}.world", lambda: make_world(
        cfg["world.D"], cfg["world.d"], cfg.sigma,
        cfg["world.offsupport_coeff"], cfg["world.offsupport_sign"],
        seed=derive(seed, SEED_WORLD),
    ))
    io.save_world(sdir / "world.rctb", world)

    unlabeled, labeled = _stage(manifest, f"seed{seed}.data", lambda: generate_datasets(
        world, cfg["data.n1"], cfg["data.n2"], cfg["data.noise_sigma"],
        seed=derive(seed, SEED_DATA),
    ))
    io.write_matrix(sdir / "unlabeled.bin", unlabeled.X)
    io.write_matrix(sdir / "labeled.bin", labeled.X)
    io.write_matrix(sdir / "labeled_y.bin", labeled.y.reshape(-1, 1))
    io.export_csv(sdir / "labeled.csv", labeled.X, labeled.y)

    est = _stage(manifest, f"seed{seed}.ridge",
                 lambda: fit_ridge(labeled, cfg["reward.lambda"]))
    io.save_ridge(sdir / "ridge.rctb", est)

    curated = _stage(manifest, f"seed{seed}.pseudo", lambda: pseudo_label(
        unlabeled, est, cfg.nu, seed=derive(seed, SEED_PSEUDO),
    ))
    io.write_matrix(sdir / "pseudo_labels.bin", curated.y_hat.reshape(-1, 1))

    schedule = cfg.schedule()
    oracle = GaussianDesignOracle(world=world, beta_hat=est.beta_hat(world), nu=cfg.nu)
    manifest.data.setdefault("oracle", {})[str(seed)] = {
        "nu": cfg.nu,
        "beta_hat": [float(v) for v in oracle.beta_hat],
        "params_digest": oracle.params_digest(),
    }
    if use_oracle_score:
        score = AnalyticScore(oracle)
        V = world.A
    else:
        model = _build_model(cfg, seed)
        result = _stage(manifest, f"seed{seed}.train", lambda: train(
            model, curated, cfg.train_config(seed), schedule,
        ))
        manifest.data.setdefault("training", {})[str(seed)] = {
            "loss_trace": result.loss_trace,
            "val_trace": result.val_trace,
        }
        io.save_model(sdir / "score_model.rctb", model, schedule)
        score = model
        V = extract_subspace(model)
        log(f"seed {seed}: trained ({result.val_trace[0]:.3f} -> {result.val_trace[-1]:.3f})")

    for a_index, a in enumerate(cfg["sweep.a"]):
        batch = _stage(manifest, f"seed{seed}.sample.a{_a_tag(a)}", lambda: run_backward(
            score, a, cfg["sample.n"], schedule,
            seed=derive(seed, SEED_SAMPLE, a_index), dim=world.D,
        ))
        io.save_samples(sdir / f"samples_a{_a_tag(a)}", batch)
        report = _stage(manifest, f"seed{seed}.metrics.a{_a_tag(a)}", lambda: build_metrics_report(
            batch, world, est, oracle, V,
            n_ref=cfg["metrics.n_ref"], bins=cfg["metrics.histogram_bins"],
            seed=derive(seed, SEED_METRICS, a_index),
        ))
        io.write_json(sdir / f"metrics_a{_a_tag(a)}.json", report.to_dict())
        rows.append({
            "a": a, "seed": seed, "subopt": report.subopt,
            "avg_reward": report.avg_reward, "e1": report.e1, "e2": report.e2,
            "e3": report.e3, "angle": report.subspace_angle,
            "offsupport": report.off_support_mean, "shift": report.distro_shift,
        })
        log(f"seed {seed} a={a:g}: reward {report.avg_reward:+.3f} "
            f"offsupport {report.off_support_mean:.3f}")

    for p in sorted(sdir.iterdir()):
        manifest.add_file(out, p)


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def read_metrics_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise RcdiffError(f"unexpected metrics.csv schema: {reader.fieldnames}")
        return [
            {k: (int(v) if k == "seed" else float(v)) for k, v in row.items()}
            for row in reader
        ]
