"""Deterministic binary container: one JSON header line plus raw little-endian blocks.

Used for network checkpoints, full model checkpoints and terrain bundles.
The format is byte-stable: identical inputs always produce identical files,
which the reproducibility guarantees of the training pipeline rely on.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import SerializationError

MAGIC = "SGPC1"

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def _canonical_dtype(arr: np.ndarray) -> str:
    if arr.dtype.kind == "f":
        return "<f8"
    if arr.dtype.kind in ("i", "u", "b"):
        return "<i8"
    raise SerializationError(f"unsupported block dtype {arr.dtype}")


def container_bytes(kind: str, meta: dict, blocks: list[np.ndarray]) -> bytes:
    """Serialize to bytes. meta must be JSON-encodable."""
    entries = []
    payload = []
    for arr in blocks:
        arr = np.asarray(arr)
        tag = _canonical_dtype(arr)
        entries.append({"dtype": tag, "shape": list(arr.shape)})
        payload.append(np.ascontiguousarray(arr, dtype=_DTYPES[tag]).tobytes())
    header = {"magic": MAGIC, "kind": kind, "meta": meta, "blocks": entries}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    return head.encode("utf-8") + b"".join(payload)


def write_atomic(files: dict) -> None:
    """Write each {path: data} entry (str as UTF-8) through a temporary file
    beside its path, then os.replace each temporary over its path.

    Every temporary is complete before the first replace, so a failure
    while writing leaves every path with its old contents, never a part;
    only a failure between two replaces can leave some paths new and
    others old.
    """
    tmps = {}
    try:
        for path, data in files.items():
            tmps[path] = f"{path}.{os.getpid()}.tmp"
            with open(tmps[path], "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def write_container(path: str, kind: str, meta: dict, blocks: list[np.ndarray]) -> None:
    write_atomic({path: container_bytes(kind, meta, blocks)})


def parse_container(data: bytes, kind: str | None = None) -> tuple[dict, list[np.ndarray]]:
    newline = data.find(b"\n")
    if newline < 0:
        raise SerializationError("container has no header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"container header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SerializationError("bad magic: not a scoopgp container")
    if kind is not None and header.get("kind") != kind:
        raise SerializationError(f"expected container kind {kind!r}, found {header.get('kind')!r}")
    if not isinstance(header.get("meta"), dict) or not isinstance(header.get("blocks"), list):
        raise SerializationError("container header needs a 'meta' object and a 'blocks' list")
    blocks = []
    offset = newline + 1
    for entry in header["blocks"]:
        tag, shape = (entry.get("dtype"), entry.get("shape")) if isinstance(entry, dict) else (None, None)
        if tag not in list(_DTYPES) or not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
            raise SerializationError(f"bad block entry {entry!r}: needs a dtype in {list(_DTYPES)} and a list of sizes")
        nbytes = math.prod(shape) * 8
        chunk = data[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise SerializationError("container truncated: block shorter than header declares")
        blocks.append(np.frombuffer(chunk, dtype=_DTYPES[tag]).reshape(shape).copy())
        offset += nbytes
    if offset != len(data):
        raise SerializationError("container has trailing bytes past declared blocks")
    return header["meta"], blocks


def read_file(path: str, what: str, error: type = SerializationError) -> bytes:
    """The bytes of the file at path; a file that is missing or cannot be
    read raises error, naming what it is and its path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None


def read_container(path: str, kind: str | None = None) -> tuple[dict, list[np.ndarray]]:
    return parse_container(read_file(path, f"{kind or 'container'} file"), kind)
