"""Deterministic binary container: one JSON header line plus raw little-endian blocks.

Used for network checkpoints, full model checkpoints and terrain bundles.
The format is byte-stable: identical inputs always produce identical files,
which the reproducibility guarantees of the training pipeline rely on.

Writers stream: `write_atomic` takes a file as an iterable of parts and
writes them into the file's temporary one at a time. A container's parts
are its header line and then a byte view of each block, so a writer never
holds the whole file in memory.

Readers stream too: `read_container` reads the header line, checks it
against the file's size, and reads each block straight into its array, so
a reader holds the blocks once, never the file's bytes beside them.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import contextmanager

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


def _container_parts(kind: str, meta: dict, blocks: list[np.ndarray]):
    """The parts of a container file: its header line, then a byte view of
    each block. A block is copied only when its dtype or layout differs from
    the canonical little-endian C-contiguous one."""
    arrays = [np.asarray(arr) for arr in blocks]
    tags = [_canonical_dtype(arr) for arr in arrays]
    entries = [{"dtype": tag, "shape": list(arr.shape)} for arr, tag in zip(arrays, tags)]
    header = {"magic": MAGIC, "kind": kind, "meta": meta, "blocks": entries}
    yield (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    for arr, tag in zip(arrays, tags):
        yield np.ascontiguousarray(arr, dtype=_DTYPES[tag]).reshape(-1).view(np.uint8).data


def container_bytes(kind: str, meta: dict, blocks: list[np.ndarray]) -> bytes:
    """Serialize to bytes. meta must be JSON-encodable."""
    return b"".join(_container_parts(kind, meta, blocks))


def write_atomic(files: dict) -> None:
    """Write each {path: data} entry through a temporary file beside its
    path, then os.replace each temporary over its path. data is one part or
    an iterable of parts, each str (written as UTF-8) or bytes-like; parts
    are written one at a time, so an iterable is never held whole.

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
                for part in (data,) if isinstance(data, (str, bytes, bytearray, memoryview)) else data:
                    fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def write_container(path: str, kind: str, meta: dict, blocks: list[np.ndarray]) -> None:
    write_atomic({path: _container_parts(kind, meta, blocks)})


def parse_container(source, kind: str | None = None) -> tuple[dict, list[np.ndarray]]:
    """The meta and blocks of a container, read from its bytes or from an
    open binary file positioned at its start. Every block entry is checked,
    and the bytes they declare against the bytes left, before any block is
    allocated; each block is then read straight into its array."""
    fh = io.BytesIO(source) if isinstance(source, (bytes, bytearray, memoryview)) else source
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise SerializationError("container has no header line")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"container header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise SerializationError("bad magic: not a scoopgp container")
    if kind is not None and header.get("kind") != kind:
        raise SerializationError(f"expected container kind {kind!r}, found {header.get('kind')!r}")
    if not isinstance(header.get("meta"), dict) or not isinstance(header.get("blocks"), list):
        raise SerializationError("container header needs a 'meta' object and a 'blocks' list")
    layout = []
    for entry in header["blocks"]:
        tag, shape = (entry.get("dtype"), entry.get("shape")) if isinstance(entry, dict) else (None, None)
        if tag not in list(_DTYPES) or not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
            raise SerializationError(f"bad block entry {entry!r}: needs a dtype in {list(_DTYPES)} and a list of sizes")
        layout.append((_DTYPES[tag], shape))
    declared = sum(math.prod(shape) * 8 for _, shape in layout)
    start = fh.tell()
    left = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    if left < declared:
        raise SerializationError("container truncated: block shorter than header declares")
    if left > declared:
        raise SerializationError("container has trailing bytes past declared blocks")
    blocks = []
    for dtype, shape in layout:
        try:
            arr = np.empty(shape, dtype=dtype)
        except ValueError as exc:  # more axes, or a longer one, than numpy allows
            raise SerializationError(f"bad block shape {shape!r}: {exc}") from exc
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise SerializationError("container truncated: block shorter than header declares")
        blocks.append(arr)
    return header["meta"], blocks


@contextmanager
def open_file(path: str, what: str, error: type = SerializationError, mode: str = "rb", encoding: str | None = None):
    """The file at path, opened in mode; a file that is missing or cannot be
    opened or read raises error, naming what it is and its path."""
    try:
        with open(path, mode, encoding=encoding) as fh:
            yield fh
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None


def read_file(path: str, what: str, error: type = SerializationError) -> bytes:
    """The bytes of the file at path, read through open_file."""
    with open_file(path, what, error) as fh:
        return fh.read()


def read_container(path: str, kind: str | None = None) -> tuple[dict, list[np.ndarray]]:
    with open_file(path, f"{kind or 'container'} file") as fh:
        return parse_container(fh, kind)
