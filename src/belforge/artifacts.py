"""Versioned binary artifact container and atomic file writes.

All on-disk artifacts (encoder params, PCA transform, indexes) share one
container format so loading can validate kind and version up front:

    magic b"BELF" | u32 version | u32 header_len | header JSON (utf-8)
    | raw array payloads, little-endian C-order, in header order

The header carries ``kind``, arbitrary metadata, and per-array dtype/shape.
Writes are atomic (temp file + rename) so interrupted runs never leave a
partial artifact at its final path.
"""

import json
import os
import struct
import tempfile

import numpy as np

from .errors import ArtifactError

MAGIC = b"BELF"
VERSION = 1


def write_atomic(path, data: bytes):
    """Write bytes to ``path`` via a temp file in the same directory + rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str):
    write_atomic(path, text.encode("utf-8"))


def save_artifact(path, kind: str, meta: dict, arrays: dict):
    """Serialize named numpy arrays plus JSON metadata to one file."""
    names = sorted(arrays)
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [
            {"name": n, "dtype": str(arrays[n].dtype), "shape": list(arrays[n].shape)}
            for n in names
        ],
    }
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", VERSION, len(hdr)), hdr]
    for n in names:
        le = arrays[n].dtype.newbyteorder("<")
        parts.append(np.ascontiguousarray(arrays[n], dtype=le).tobytes())
    write_atomic(path, b"".join(parts))


def load_artifact(path, kind: str):
    """Load an artifact, checking magic, version and kind. Returns (meta, arrays)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise ArtifactError(f"cannot read artifact {path}: {e}") from e
    if blob[:4] != MAGIC:
        raise ArtifactError(f"{path}: not a belforge artifact")
    if len(blob) < 12:
        raise ArtifactError(f"{path}: truncated artifact prefix")
    version, hdr_len = struct.unpack("<II", blob[4:12])
    if version != VERSION:
        raise ArtifactError(f"{path}: unsupported artifact version {version}")
    try:
        header = json.loads(blob[12:12 + hdr_len].decode("utf-8"))
        found, meta, specs = header["kind"], header["meta"], header["arrays"]
    except (ValueError, KeyError, TypeError) as e:
        raise ArtifactError(f"{path}: corrupt artifact header: {e!r}") from e
    if found != kind:
        raise ArtifactError(f"{path}: artifact kind {found!r}, expected {kind!r}")
    arrays = {}
    off = 12 + hdr_len
    for spec in specs:
        dt = np.dtype(spec["dtype"]).newbyteorder("<")
        count = int(np.prod(spec["shape"], dtype=np.int64)) if spec["shape"] else 1
        nbytes = dt.itemsize * count
        if off + nbytes > len(blob):
            raise ArtifactError(f"{path}: truncated artifact payload")
        a = np.frombuffer(blob[off:off + nbytes], dtype=dt).reshape(spec["shape"])
        arrays[spec["name"]] = a.astype(dt.newbyteorder("="))
        off += nbytes
    return meta, arrays
