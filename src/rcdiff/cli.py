"""Command-line interface.

Subcommands: ``pipeline`` (full sweep; a rerun keeps an up-to-date run
and reuses each seed's trained model while its training inputs are
unchanged, ``--force`` recomputes everything), ``figures``, ``validate``.
Relative output directories resolve against the ``RCDIFF_OUT`` environment
variable when it is set.  Exit codes: 0 success, 2 configuration error,
3 compute error, 4 validation failure.
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
from .pipeline import PipelineStageError, run_pipeline
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcdiff",
        description=__doc__,
        epilog=describe_schema(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("pipeline", cmd_pipeline), ("figures", cmd_figures),
                     ("validate", cmd_validate)]:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", help="config file (defaults apply)")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        if name == "pipeline":
            p.add_argument("--dry-run", action="store_true",
                           help="validate config and write manifest only")
            p.add_argument("--force", action="store_true",
                           help="recompute everything: ignore an up-to-date "
                                "manifest and retrain every model")
        if name == "validate":
            p.add_argument("--check", metavar="NAME",
                           help=f"run one check: {', '.join(CHECKS)}")
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
