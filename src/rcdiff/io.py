"""File formats, JSON and file hashes.

Two little-endian binary containers cover all numeric artifacts:

* matrix file (generated points) — header ``b"RCDS"``, u32 version,
  u64 row count, u64 column count, then row-major float64 data;
* tensor-block file (models, ridge estimates) — header ``b"RCTB"``, u32
  version, u64 metadata length + UTF-8 JSON, u32 block count, then per
  block: u32 name length, name, u32 rank, u64 dims, float64 data.

JSON artifacts are written with sorted keys and a trailing newline so
byte-identical reruns are possible; CSV tables go through ``write_csv``.
Every writer here streams to ``<name>.tmp``, which replaces the file when
the write ends; a write that fails removes its ``.tmp``.
``rcdiff.pipeline`` builds the run's manifest; ``verify_manifest`` checks
its table of sha256 per file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ValidationError

MATRIX_MAGIC = b"RCDS"
TENSOR_MAGIC = b"RCTB"
FORMAT_VERSION = 1
_CSV_BLOCK_ROWS = 32


@contextmanager
def _replacing(path, mode: str = "wb", **open_args):
    """Yield a handle on ``<path>.tmp``, which replaces ``path`` when the
    block ends and is removed when the block or the replace raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Matrix container
# ---------------------------------------------------------------------------

def write_matrix(path, X: np.ndarray) -> None:
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype="<f8")))
    with _replacing(path) as fh:
        fh.write(MATRIX_MAGIC + struct.pack("<IQQ", FORMAT_VERSION, *X.shape))
        fh.write(X.tobytes())


def read_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != MATRIX_MAGIC or len(raw) < 24:
        raise ValidationError(f"{path}: not a matrix file (bad magic or short header)")
    version, n, d = struct.unpack_from("<IQQ", raw, 4)
    if version != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    # On bytes: np.frombuffer raises a plain ValueError on a partial float64 entry.
    if len(raw) != 24 + 8 * n * d:
        raise ValidationError(f"{path}: matrix file size does not match its {n} x {d} header")
    return np.frombuffer(raw, dtype="<f8", offset=24).reshape(n, d).copy()


def write_csv(path, header, rows) -> None:
    """Write the ``header`` line, then each of ``rows`` as ``repr`` of its
    numbers, with ``\\r\\n`` line ends: a default CSV writer's layout.
    Rows stream to ``<path>.tmp``, which then replaces ``path``."""
    with _replacing(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def export_csv(path, X: np.ndarray, y: np.ndarray) -> None:
    """Human-readable companion export: x0..x{D-1}, y.

    Rows reach ``write_csv`` as Python floats made in small blocks: those of
    a whole matrix would raise the process's peak memory, and allocator
    pools keep part of it afterwards.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    cols = [X, np.asarray(y, dtype=float).reshape(-1, 1)]
    header = [f"x{i}" for i in range(X.shape[1])] + ["y"]
    write_csv(path, header, (
        row for lo in range(0, X.shape[0], _CSV_BLOCK_ROWS)
        for row in np.hstack([c[lo: lo + _CSV_BLOCK_ROWS] for c in cols]).tolist()))


# ---------------------------------------------------------------------------
# Tensor-block container
# ---------------------------------------------------------------------------

def write_blocks(path, meta: dict, blocks: dict) -> None:
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    parts = [TENSOR_MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(meta_bytes)),
             meta_bytes, struct.pack("<I", len(blocks))]
    for name, arr in blocks.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
        nb = name.encode()
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.tobytes())
    with _replacing(path) as fh:
        fh.writelines(parts)


def read_blocks(path) -> tuple[dict, dict]:
    raw = Path(path).read_bytes()
    if raw[:4] != TENSOR_MAGIC:
        raise ValidationError(f"{path}: not a tensor-block file (bad magic)")
    try:
        version, meta_len = struct.unpack_from("<IQ", raw, 4)
        if version != FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        off = 16
        meta = json.loads(raw[off: off + meta_len].decode())
        off += meta_len
        (n_blocks,) = struct.unpack_from("<I", raw, off)
        off += 4
        blocks = {}
        for _ in range(n_blocks):
            (name_len,) = struct.unpack_from("<I", raw, off)
            off += 4
            name = raw[off: off + name_len].decode()
            off += name_len
            (rank,) = struct.unpack_from("<I", raw, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}Q", raw, off)
            off += 8 * rank
            count = math.prod(shape)
            # A corrupt dims field would make np.frombuffer raise a plain ValueError.
            if 8 * count > len(raw) - off:
                raise ValidationError(f"{path}: block {name!r} runs past the end of the file")
            arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
            off += 8 * count
            blocks[name] = arr.reshape(shape).copy()
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: corrupt tensor-block file ({exc})") from exc
    if off != len(raw):
        raise ValidationError(f"{path}: trailing bytes in tensor-block file")
    return meta, blocks


# ---------------------------------------------------------------------------
# Typed artifact helpers
# ---------------------------------------------------------------------------

@contextmanager
def _fields_of(path):
    """Report a metadata key or block that the file at ``path`` lacks, or
    contents that fail validation, as a ``ValidationError`` naming the file."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc.args[0]!r}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_ridge(path, est) -> None:
    write_blocks(
        path,
        {"kind": "ridge", "lambda": est.lam, "n2": est.n2},
        {"theta_hat": est.theta_hat, "sigma_hat_lambda": est.sigma_hat_lambda},
    )


def save_model(path, model) -> None:
    meta, blocks = model.to_blocks()
    write_blocks(path, {"kind": "score_model", **meta}, blocks)


def load_model(path):
    from .score_model import model_from_blocks

    meta, blocks = read_blocks(path)
    if meta.get("kind") != "score_model":
        raise ValidationError(f"{path}: not a score model file")
    with _fields_of(path):
        return model_from_blocks(meta, blocks)


def save_world(path, world) -> None:
    write_blocks(
        path,
        {
            "kind": "world",
            "offsupport_coeff": world.offsupport_coeff,
            "offsupport_sign": world.offsupport_sign,
        },
        {"A": world.A, "Sigma": world.Sigma, "beta_star": world.beta_star},
    )


def load_world(path):
    from .world import SubspaceWorld

    meta, blocks = read_blocks(path)
    if meta.get("kind") != "world":
        raise ValidationError(f"{path}: not a world file")
    with _fields_of(path):
        return SubspaceWorld(
            A=blocks["A"],
            Sigma=blocks["Sigma"],
            beta_star=blocks["beta_star"],
            offsupport_coeff=float(meta["offsupport_coeff"]),
            offsupport_sign=str(meta["offsupport_sign"]),
        )


def a_tag(a: float) -> str:
    """File-name tag of target value ``a`` (``samples_a<tag>``, ``metrics_a<tag>``).

    Six significant digits, ``-`` as ``m`` and ``.`` as ``p``; ``-0.0`` is
    tagged as ``0.0``, which it equals.
    """
    return f"{a + 0.0:g}".replace("-", "m").replace(".", "p")


def save_samples(path_prefix, X) -> str:
    """Write the (n, D) generated points ``X`` as ``<path_prefix>.bin``;
    returns the path.

    The file holds the points only.  Their target is the cell's ``a`` in
    ``metrics_a<tag>.json``, their noise stream is fixed by the seed and
    the target's index (``pipeline.SEED_SAMPLE``), and the model and the
    schedule are in the run's manifest.
    """
    bin_path = str(path_prefix) + ".bin"
    write_matrix(bin_path, X)
    return bin_path


# ---------------------------------------------------------------------------
# JSON and hashing
# ---------------------------------------------------------------------------

def write_json(path, obj) -> None:
    with _replacing(path) as fh:
        fh.write((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


def read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError from read_text
        raise ValidationError(f"{path}: corrupt JSON ({exc})") from exc


def sha256_file(path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_manifest(root, files: dict) -> list:
    """Return the entries of a manifest's ``files`` table (path relative to
    ``root`` -> sha256) that are missing or whose bytes differ."""
    root = Path(root)
    bad = []
    for rel, digest in files.items():
        p = root / rel
        if not p.exists():
            bad.append(f"missing: {rel}")
        elif sha256_file(p) != digest:
            bad.append(f"hash mismatch: {rel}")
    return bad
