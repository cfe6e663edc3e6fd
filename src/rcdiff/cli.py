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
from .pipeline import PipelineStageError, SeedStages, run_pipeline
from .validate import CHECKS, run_checks

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


def cmd_pipeline(cfg: RunConfig, args) -> int:
    out = _resolve_out(cfg, args.out)
    if args.dry_run:
        # A dry run must not clobber the record of a real run: the next
        # pipeline call would no longer find it up to date.
        if (out / "manifest.json").exists():
            print(f"dry run: config valid, kept existing {out}/manifest.json")
            return EXIT_OK
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


def _seed_stages(cfg: RunConfig, args) -> SeedStages:
    """The stages of the ``--seed`` cell, writing under ``<out>/seed_<s>``.

    Stage timings and training records go to a manifest that is not
    written; ``train-score`` copies its loss traces to ``train_trace.json``.
    """
    seed = int(args.seed) if args.seed is not None else cfg["sweep.seeds"][0]
    out = _resolve_out(cfg, args.out)
    return SeedStages(cfg, seed, out / f"seed_{seed}",
                      io.ManifestBuilder(cfg.digest(), cfg.values))


def cmd_gen_data(cfg: RunConfig, args) -> int:
    st = _seed_stages(cfg, args)
    st.data()
    print(f"wrote datasets for seed {st.seed} to {st.sdir}")
    return EXIT_OK


def cmd_train_reward(cfg: RunConfig, args) -> int:
    st = _seed_stages(cfg, args)
    st.ridge(st.read_labeled())
    print(f"wrote ridge estimate (lambda={cfg['reward.lambda']:g}) to {st.sdir}/ridge.rctb")
    return EXIT_OK


def cmd_train_score(cfg: RunConfig, args) -> int:
    if cfg["score.variant"] == "oracle":
        raise ConfigError("score.variant = oracle has no model to train")
    st = _seed_stages(cfg, args)
    curated = st.pseudo(st.read_unlabeled(), io.load_ridge(st.sdir / "ridge.rctb"))
    st.score(curated, None)
    trace = st.manifest.data["training"][str(st.seed)]
    io.write_json(st.sdir / "train_trace.json", trace)
    print(
        f"trained {cfg['score.variant']} model "
        f"(val {trace['val_trace'][0]:.4f} -> {trace['val_trace'][-1]:.4f}); "
        f"wrote {st.sdir}/score_model.rctb"
    )
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args) -> int:
    a = float(args.a) if args.a is not None else cfg["sweep.a"][0]
    if a not in cfg["sweep.a"]:
        grid = ", ".join(f"{v:g}" for v in cfg["sweep.a"])
        raise ConfigError(f"--a {a:g} is not one of sweep.a ({grid}); "
                          "a target's noise stream is its position in sweep.a")
    st = _seed_stages(cfg, args)
    if cfg["score.variant"] == "oracle":
        world = io.load_world(st.sdir / "world.rctb")
        score = st.score(None, st.oracle(world, io.load_ridge(st.sdir / "ridge.rctb")))
    else:
        score = io.load_model(st.sdir / "score_model.rctb")
    [batch] = st.sample(score, [a])
    print(f"wrote {batch.n} samples at a={a:g} to {st.sdir}/samples_a{io.a_tag(a)}.bin")
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
        ("sample", cmd_sample, ("seed", "a")),
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
