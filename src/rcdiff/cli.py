"""Command-line interface.

Subcommands: ``pipeline`` (full sweep), ``figures``, ``validate``,
``gen-data``, ``train-reward``, ``train-score``, ``sample``.  Relative
output directories resolve against the ``RCDIFF_OUT`` environment variable
when it is set.  Exit codes: 0 success, 2 configuration error, 3 compute
error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import io
from .config import RunConfig, describe_schema, load_config
from .errors import ConfigError, RcdiffError
from .figures import emit_figures
from .oracle import AnalyticScore, GaussianDesignOracle
from .pipeline import (
    PipelineStageError,
    SEED_DATA,
    SEED_PSEUDO,
    SEED_SAMPLE,
    SEED_WORLD,
    _a_tag,
    _build_model,
    run_pipeline,
)
from .regression import fit_ridge, pseudo_label
from .rng import derive
from .sampler import run_backward
from .score_model import train
from .validate import CHECKS, run_checks
from .world import LabeledDataset, UnlabeledDataset, generate_datasets, make_world

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_VALIDATION = 4


def _resolve_out(cfg: RunConfig, out_flag) -> Path:
    out = Path(out_flag) if out_flag else Path(cfg["out.dir"])
    root = os.environ.get("RCDIFF_OUT")
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def _seed_dir(out: Path, seed: int) -> Path:
    d = out / f"seed_{seed}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _default_seed(cfg: RunConfig, flag) -> int:
    return int(flag) if flag is not None else cfg["sweep.seeds"][0]


def cmd_pipeline(cfg: RunConfig, args) -> int:
    out = _resolve_out(cfg, args.out)
    if args.dry_run:
        out.mkdir(parents=True, exist_ok=True)
        manifest = io.ManifestBuilder(cfg.digest(), cfg.values)
        manifest.data["dry_run"] = True
        manifest.write(out / "manifest.json", complete=False)
        print(f"dry run: config valid, manifest written to {out}/manifest.json")
        return EXIT_OK
    run_pipeline(cfg, out, force=args.force, log=print)
    return EXIT_OK


def cmd_figures(cfg: RunConfig, args) -> int:
    run_dir = _resolve_out(cfg, args.out)
    emit_figures(run_dir, log=print)
    return EXIT_OK


def cmd_validate(cfg: RunConfig, args) -> int:
    names = None
    if args.check:
        if args.check not in CHECKS:
            raise ConfigError(
                f"unknown check {args.check!r}; known: {', '.join(CHECKS)}"
            )
        names = [args.check]
    results = run_checks(names)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f}s]  {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def cmd_gen_data(cfg: RunConfig, args) -> int:
    seed = _default_seed(cfg, args.seed)
    out = _seed_dir(_resolve_out(cfg, args.out), seed)
    world = make_world(
        cfg["world.D"], cfg["world.d"], cfg.sigma,
        cfg["world.offsupport_coeff"], cfg["world.offsupport_sign"],
        seed=derive(seed, SEED_WORLD),
    )
    unlabeled, labeled = generate_datasets(
        world, cfg["data.n1"], cfg["data.n2"], cfg["data.noise_sigma"],
        seed=derive(seed, SEED_DATA),
    )
    io.save_world(out / "world.rctb", world)
    io.write_matrix(out / "unlabeled.bin", unlabeled.X)
    io.write_matrix(out / "labeled.bin", labeled.X)
    io.write_matrix(out / "labeled_y.bin", labeled.y.reshape(-1, 1))
    io.export_csv(out / "labeled.csv", labeled.X, labeled.y)
    io.write_json(out / "data_manifest.json", {
        "seed": seed, "n1": unlabeled.n, "n2": labeled.n,
        "noise_sigma": cfg["data.noise_sigma"],
    })
    print(f"wrote datasets for seed {seed} to {out}")
    return EXIT_OK


def _load_seed_data(out: Path, cfg: RunConfig):
    labeled = LabeledDataset(
        X=io.read_matrix(out / "labeled.bin"),
        y=io.read_matrix(out / "labeled_y.bin").ravel(),
        noise_sigma=cfg["data.noise_sigma"],
    )
    unlabeled = UnlabeledDataset(X=io.read_matrix(out / "unlabeled.bin"))
    return unlabeled, labeled


def cmd_train_reward(cfg: RunConfig, args) -> int:
    seed = _default_seed(cfg, args.seed)
    out = _seed_dir(_resolve_out(cfg, args.out), seed)
    _, labeled = _load_seed_data(out, cfg)
    est = fit_ridge(labeled, cfg["reward.lambda"])
    io.save_ridge(out / "ridge.rctb", est)
    print(f"wrote ridge estimate (lambda={cfg['reward.lambda']:g}) to {out}/ridge.rctb")
    return EXIT_OK


def cmd_train_score(cfg: RunConfig, args) -> int:
    seed = _default_seed(cfg, args.seed)
    out = _seed_dir(_resolve_out(cfg, args.out), seed)
    unlabeled, _ = _load_seed_data(out, cfg)
    est = io.load_ridge(out / "ridge.rctb")
    curated = pseudo_label(unlabeled, est, cfg.nu, seed=derive(seed, SEED_PSEUDO))
    io.write_matrix(out / "pseudo_labels.bin", curated.y_hat.reshape(-1, 1))
    model = _build_model(cfg, seed)
    result = train(model, curated, cfg.train_config(seed), cfg.schedule())
    io.save_model(out / "score_model.rctb", model, cfg.schedule())
    io.write_json(out / "train_trace.json", {
        "loss_trace": result.loss_trace, "val_trace": result.val_trace,
    })
    print(
        f"trained {cfg['score.variant']} model "
        f"(val {result.val_trace[0]:.4f} -> {result.val_trace[-1]:.4f}); "
        f"wrote {out}/score_model.rctb"
    )
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args) -> int:
    seed = _default_seed(cfg, args.seed)
    out = _seed_dir(_resolve_out(cfg, args.out), seed)
    a = float(args.a) if args.a is not None else cfg["sweep.a"][0]
    if args.use_oracle:
        world = io.load_world(out / "world.rctb")
        est = io.load_ridge(out / "ridge.rctb")
        score = AnalyticScore(GaussianDesignOracle(
            world=world, beta_hat=est.beta_hat(world), nu=cfg.nu,
        ))
        dim = world.D
    else:
        score = io.load_model(out / "score_model.rctb")
        dim = score.D
    a_index = cfg["sweep.a"].index(a) if a in cfg["sweep.a"] else len(cfg["sweep.a"])
    batch = run_backward(
        score, a, cfg["sample.n"], cfg.schedule(),
        seed=derive(seed, SEED_SAMPLE, a_index), dim=dim,
    )
    paths = io.save_samples(out / f"samples_a{_a_tag(a)}", batch)
    print(f"wrote {batch.n} samples at a={a:g} to {paths[0]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcdiff",
        description=__doc__,
        epilog=describe_schema(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extras in [
        ("pipeline", cmd_pipeline, ("dry_run", "force")),
        ("figures", cmd_figures, ()),
        ("validate", cmd_validate, ("check",)),
        ("gen-data", cmd_gen_data, ("seed",)),
        ("train-reward", cmd_train_reward, ("seed",)),
        ("train-score", cmd_train_score, ("seed",)),
        ("sample", cmd_sample, ("seed", "a", "use_oracle")),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", help="config file (defaults apply)")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        if "seed" in extras:
            p.add_argument("--seed", type=int, help="cell seed (default: first sweep seed)")
        if "dry_run" in extras:
            p.add_argument("--dry-run", action="store_true",
                           help="validate config and write manifest only")
        if "force" in extras:
            p.add_argument("--force", action="store_true",
                           help="rerun even when the manifest is up to date")
        if "check" in extras:
            p.add_argument("--check", metavar="NAME",
                           help=f"run one check: {', '.join(CHECKS)}")
        if "a" in extras:
            p.add_argument("--a", type=float, help="target value (default: first of sweep.a)")
        if "use_oracle" in extras:
            p.add_argument("--use-oracle", action="store_true",
                           help="sample with the closed-form score instead of a model")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineStageError as exc:
        print(f"compute error in stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return EXIT_COMPUTE
    except (RcdiffError, OSError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
