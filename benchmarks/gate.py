"""Correctness gate behind ``failed_frac``: which (seed, a) cells failed.

A cell fails in a repetition when any of these holds:

* the pipeline raised (every cell of that repetition fails: a raising
  stage stops the run, so no cell of it is complete);
* one of its files is missing, or its samples or report hold a
  non-finite number;
* the bytes of one of its files differ from ``manifest.json``'s sha256,
  or from the same file in the other repetitions of the same code and
  seed (a file whose digest is not the unique majority fails);
* the same-config rerun rewrote one of its files.

Files map to cells by path: ``seed_<s>/samples_a<tag>.*`` and
``seed_<s>/metrics_a<tag>.json`` belong to cell ``(s, tag)``; any other
file under ``seed_<s>/`` belongs to every cell of seed ``s``; files at the
top (``metrics.csv``, ``manifest.json``) belong to every cell.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

_CELL_FILE = re.compile(r"^seed_(-?\d+)/(?:samples|metrics)_a([^/]+?)\.(?:bin|json)$")
_SEED_DIR = re.compile(r"^seed_(-?\d+)/")


def cell_of(rel: str):
    """The cell id ``"<seed>:<tag>"`` a file belongs to, or None if shared."""
    m = _CELL_FILE.match(rel)
    return f"{m.group(1)}:{m.group(2)}" if m else None


def cells_of(rel: str, cells) -> set:
    """Every cell among ``cells`` that a change to file ``rel`` affects."""
    own = cell_of(rel)
    if own is not None:
        return {own}
    m = _SEED_DIR.match(rel)
    if m:
        return {c for c in cells if c.split(":")[0] == m.group(1)}
    return set(cells)


def snapshot(root) -> dict:
    """``{relpath: [size, mtime_ns, inode]}`` for every file under ``root``."""
    root = Path(root)
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            st = p.stat()
            out[p.relative_to(root).as_posix()] = [st.st_size, st.st_mtime_ns, st.st_ino]
    return out


def changed(before: dict, after: dict) -> list:
    """Paths added, removed or rewritten between two snapshots."""
    return sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))


def _sha256(path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def collect(out_dir) -> dict:
    """Digests, finiteness and quality values of one finished run directory.

    The digests are of the bytes on disk, not copied from the manifest, so
    an artifact altered after it was recorded is caught.
    """
    import numpy as np
    from rcdiff.io import read_matrix

    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    digests, mismatch = {}, []
    for rel, recorded in manifest["files"].items():
        path = out / rel
        if not path.exists():
            mismatch.append(rel)
            continue
        digests[rel] = _sha256(path)
        if digests[rel] != recorded:
            mismatch.append(rel)
    cells = {}
    for rel in sorted(manifest["files"]):
        cell = cell_of(rel)
        if cell is None or not rel.split("/")[-1].startswith("metrics_a"):
            continue
        entry = {"finite": False}
        cells[cell] = entry
        try:
            report = json.loads((out / rel).read_text())
            samples = read_matrix(out / (rel.replace("/metrics_a", "/samples_a")[:-5] + ".bin"))
        except (OSError, ValueError) as exc:
            entry["error"] = repr(exc)
            continue
        entry["finite"] = _all_finite(report) and bool(np.isfinite(samples).all())
        entry["quality"] = {
            "angle": report["subspace_angle"],
            "subopt_abs": abs(report["subopt"]),
            "offsupport": report["off_support_mean"],
            "cov_gap": report["moment_discrepancy"]["cov_gap"],
        }
    return {"digests": digests, "manifest_mismatch": mismatch, "cells": cells}


def failed_cells(reps: list, n_cells: int) -> tuple[int, int, list]:
    """Score repetitions of one workload and seed: ``(attempted, failed, notes)``.

    Each rep is a dict with ``error`` (str or None), and for a finished run
    ``digests``, ``manifest_mismatch``, ``cells`` (from ``collect``) and
    ``rewritten`` (paths the rerun changed).
    """
    finished = [r for r in reps if r.get("error") is None]
    majority = {}
    for rel in {rel for r in finished for rel in r["digests"]}:
        ranked = Counter(r["digests"].get(rel) for r in finished).most_common()
        if len(ranked) == 1 or ranked[0][1] > ranked[1][1]:
            majority[rel] = ranked[0][0]
    attempted = failed = 0
    notes = []
    for i, rep in enumerate(reps):
        attempted += n_cells
        if rep.get("error") is not None:
            failed += n_cells
            notes.append(f"rep {i}: raised {rep['error']}")
            continue
        cells = set(rep["cells"])
        bad = {c for c, entry in rep["cells"].items() if not entry["finite"]}
        for rel in rep["manifest_mismatch"]:
            bad |= cells_of(rel, cells)
        for rel in rep["rewritten"]:
            bad |= cells_of(rel, cells)
        for rel, digest in rep["digests"].items():
            if majority.get(rel) != digest:
                bad |= cells_of(rel, cells)
        missing = max(n_cells - len(cells), 0)
        failed += len(bad) + missing
        if bad or missing:
            notes.append(f"rep {i}: failed cells {sorted(bad)}, missing {missing}")
    return attempted, failed, notes
