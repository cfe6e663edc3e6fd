"""End-to-end run: data, reward fit, pseudo-labels, training, generation.

One run covers every (target value, seed) cell of the configured sweep.
The expensive stages (data generation, ridge fit, score training) do not
depend on the target value, so they execute once per seed; generation and
metrics then run per cell.  All stage seeds derive from the cell's root
seed through fixed stage codes (see ``rng.derive``), making every artifact
a pure function of the resolved configuration.

Artifacts under the output directory::

    manifest.json                resolved config, file hashes, timings
    metrics.csv                  one row per cell: its record through ``CSV_COLUMNS``
    seed_<s>/world.rctb          ground truth tensors
    seed_<s>/unlabeled.bin       unlabeled features (matrix container)
    seed_<s>/labeled.bin         labeled features (matrix container)
    seed_<s>/labeled_y.bin       their labels, one column
    seed_<s>/labeled.csv         features and labels together, as text
    seed_<s>/ridge.rctb          reward estimate
    seed_<s>/pseudo_labels.bin   curated labels for the unlabeled features
    seed_<s>/score_model.rctb    fitted score model (none under ``score.variant = oracle``)
    seed_<s>/samples_a<a>.bin/.json   generated batch per target value
    seed_<s>/metrics_a<a>.json   per-cell record (``metrics.build_metrics_report``)
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import io
from .config import RunConfig
from .errors import RcdiffError
from .metrics import build_metrics_report
from .oracle import GaussianDesignOracle, AnalyticScore
from .regression import fit_ridge, pseudo_label
from .rng import derive
from .sampler import run_backward
from .score_model import CoveringScore, MlpScore, extract_subspace, train
from .world import LabeledDataset, generate_datasets, make_world

# metrics.csv column -> per-cell record key, in header order.  None marks the
# seed column: the stage's root seed, not the record's per-cell stream entropy.
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


class PipelineStageError(RcdiffError, RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def is_up_to_date(cfg: RunConfig, out_dir) -> bool:
    """True when a complete, hash-clean run of this config exists."""
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
        and not io.verify_manifest(out_dir)
    )


def run_pipeline(cfg: RunConfig, out_dir, *, force: bool = False,
                 log=lambda msg: None) -> Path:
    """Execute the full sweep; returns the output directory."""
    out = Path(out_dir)
    if not force and is_up_to_date(cfg, out):
        log(f"up to date: {out}")
        return out
    out.mkdir(parents=True, exist_ok=True)
    manifest = io.ManifestBuilder(cfg.digest(), cfg.values)
    rows = []
    try:
        for seed in cfg["sweep.seeds"]:
            _run_seed(cfg, out, seed, manifest, rows, log)
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


def _run_seed(cfg, out, seed, manifest, rows, log):
    st = SeedStages(cfg, seed, out / f"seed_{seed}", manifest, log)
    world, unlabeled, labeled = st.data()
    est = st.ridge(labeled)
    curated = st.pseudo(unlabeled, est)
    oracle = st.oracle(world, est)
    score = st.score(curated, oracle)
    V = world.A if cfg["score.variant"] == "oracle" else extract_subspace(score)
    for a in cfg["sweep.a"]:
        rows.append(st.metrics(st.sample(score, a), world, est, oracle, V))
    for p in sorted(st.sdir.iterdir()):
        manifest.add_file(out, p)


@dataclass
class SeedStages:
    """The stages of one seed, each computing from in-memory inputs and
    writing its artifacts under ``sdir``.

    ``run_pipeline`` chains them; the single-stage CLI commands read one
    stage's inputs back from ``sdir`` and call the same method.  Stage
    timings and the training and oracle records go to ``manifest``.
    """

    cfg: RunConfig
    seed: int
    sdir: Path
    manifest: io.ManifestBuilder
    log: Callable = lambda msg: None

    def _timed(self, name, fn):
        name = f"seed{self.seed}.{name}"
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc
        self.manifest.add_timing(name, time.perf_counter() - start)
        return result

    def data(self):
        """World and datasets; returns ``(world, unlabeled, labeled)``."""
        cfg, sdir = self.cfg, self.sdir
        sdir.mkdir(parents=True, exist_ok=True)
        world = self._timed("world", lambda: make_world(
            cfg["world.D"], cfg["world.d"], cfg.sigma,
            cfg["world.offsupport_coeff"], cfg["world.offsupport_sign"],
            seed=derive(self.seed, SEED_WORLD),
        ))
        io.save_world(sdir / "world.rctb", world)
        unlabeled, labeled = self._timed("data", lambda: generate_datasets(
            world, cfg["data.n1"], cfg["data.n2"], cfg["data.noise_sigma"],
            seed=derive(self.seed, SEED_DATA),
        ))
        io.write_matrix(sdir / "unlabeled.bin", unlabeled)
        io.write_matrix(sdir / "labeled.bin", labeled.X)
        io.write_matrix(sdir / "labeled_y.bin", labeled.y.reshape(-1, 1))
        io.export_csv(sdir / "labeled.csv", labeled.X, labeled.y)
        return world, unlabeled, labeled

    def read_labeled(self) -> LabeledDataset:
        """The labeled dataset that ``data`` wrote."""
        return LabeledDataset(
            X=io.read_matrix(self.sdir / "labeled.bin"),
            y=io.read_matrix(self.sdir / "labeled_y.bin").ravel(),
        )

    def read_unlabeled(self):
        """The (n1, D) unlabeled pool that ``data`` wrote."""
        return io.read_matrix(self.sdir / "unlabeled.bin")

    def ridge(self, labeled):
        est = self._timed("ridge", lambda: fit_ridge(labeled, self.cfg["reward.lambda"]))
        io.save_ridge(self.sdir / "ridge.rctb", est)
        return est

    def pseudo(self, unlabeled, est):
        curated = self._timed("pseudo", lambda: pseudo_label(
            unlabeled, est, self.cfg.nu, seed=derive(self.seed, SEED_PSEUDO),
        ))
        io.write_matrix(self.sdir / "pseudo_labels.bin", curated.y.reshape(-1, 1))
        return curated

    def oracle(self, world, est) -> GaussianDesignOracle:
        """The closed-form reference for the fitted reward, recorded in the manifest."""
        oracle = GaussianDesignOracle(world=world, beta_hat=est.beta_hat(world), nu=self.cfg.nu)
        self.manifest.data.setdefault("oracle", {})[str(self.seed)] = {
            "nu": self.cfg.nu,
            "beta_hat": [float(v) for v in oracle.beta_hat],
            "params_digest": oracle.params_digest(),
        }
        return oracle

    def score(self, curated, oracle):
        """The score the sampler follows, by ``score.variant``: the variant
        ``oracle`` is the closed-form score of the ``oracle`` argument (no
        training); ``mlp`` and ``covering`` train on ``curated`` and save the
        model, its loss traces in the manifest."""
        if self.cfg["score.variant"] == "oracle":
            return AnalyticScore(oracle)
        cfg, schedule = self.cfg, self.cfg.schedule()
        D, d, init = cfg["world.D"], cfg["world.d"], derive(self.seed, SEED_MODEL)
        if cfg["score.variant"] == "covering":
            model = CoveringScore(D, d, cfg.nu, seed=init)
        else:
            model = MlpScore(D, d, cfg.nu, hidden=tuple(cfg["score.hidden"]), seed=init)
        result = self._timed("train", lambda: train(
            model, curated, cfg.train_config(self.seed), schedule,
        ))
        self.manifest.data.setdefault("training", {})[str(self.seed)] = {
            "loss_trace": result.loss_trace,
            "val_trace": result.val_trace,
        }
        io.save_model(self.sdir / "score_model.rctb", model, schedule)
        self.log(f"seed {self.seed}: trained "
                 f"({result.val_trace[0]:.3f} -> {result.val_trace[-1]:.3f})")
        return model

    def sample(self, score, a):
        """Generate at target ``a``, which must be one of ``sweep.a``: its
        position there selects the noise stream."""
        a_index = self.cfg["sweep.a"].index(a)
        batch = self._timed(f"sample.a{io.a_tag(a)}", lambda: run_backward(
            score, a, self.cfg["sample.n"], self.cfg.schedule(),
            seed=derive(self.seed, SEED_SAMPLE, a_index),
        ))
        io.save_samples(self.sdir / f"samples_a{io.a_tag(a)}", batch)
        return batch

    def metrics(self, batch, world, est, oracle, V) -> dict:
        """Score one generated batch and write its record; returns its
        ``metrics.csv`` row."""
        cfg, a = self.cfg, batch.a
        record = self._timed(f"metrics.a{io.a_tag(a)}", lambda: build_metrics_report(
            batch, world, est, oracle, V,
            n_ref=cfg["metrics.n_ref"], bins=cfg["metrics.histogram_bins"],
            seed=derive(self.seed, SEED_METRICS, cfg["sweep.a"].index(a)),
        ))
        io.write_json(self.sdir / f"metrics_a{io.a_tag(a)}.json", record)
        row = {col: self.seed if key is None else record[key]
               for col, key in CSV_COLUMNS.items()}
        self.log(f"seed {self.seed} a={a:g}: reward {row['avg_reward']:+.3f} "
                 f"offsupport {row['offsupport']:.3f}")
        return row


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
        w.writeheader()
        for row in rows:
            w.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def read_metrics_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise RcdiffError(f"unexpected metrics.csv schema: {reader.fieldnames}")
        return [
            {k: (int(v) if k == "seed" else float(v)) for k, v in row.items()}
            for row in reader
        ]
