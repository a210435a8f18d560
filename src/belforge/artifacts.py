"""Versioned binary artifact container and atomic file writes.

All on-disk artifacts (encoder params, PCA transform, indexes) share one
container format so loading can validate kind and version up front:

    magic b"BELF" | u32 version | u32 header_len | header JSON (utf-8)
    | raw array payloads, little-endian C-order, in header order

The header carries ``kind``, arbitrary metadata, per-array dtype/shape and
the sha256 of the payload.
Writes are atomic (temp file + rename) so interrupted runs never leave a
partial artifact at its final path.
"""

import hashlib
import json
import math
import os
import struct
import tempfile

from .errors import ArtifactError

MAGIC = b"BELF"
VERSION = 1
# dtype kinds save_artifact writes: bool, signed and unsigned int, float, unicode
ARRAY_KINDS = "biufU"
# the dtype rules a loader may require of an array it reads (_Entries.typed)
DTYPE_RULES = {"float64": lambda dt: dt == "float64",
               "signed integer": lambda dt: dt.kind == "i",
               "unicode": lambda dt: dt.kind == "U"}


def write_atomic(path, data: bytes):
    """Write bytes to ``path`` via a temp file in the same directory + rename,
    with the mode open(path, "w") gives a new file: 0o666 less the umask."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(fd, 0o666 & ~umask)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str):
    write_atomic(path, text.encode("utf-8"))


def save_artifact(path, kind: str, meta: dict, arrays: dict):
    """Serialize named numpy arrays plus JSON metadata to one file.

    The header records the sha256 of the payload; it is returned too.
    """
    import numpy as np  # only here, so a text-only command never loads it
    names = sorted(arrays)
    payload = [np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes()
               for a in (arrays[n] for n in names)]
    digest = hashlib.sha256()
    for part in payload:
        digest.update(part)
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [
            {"name": n, "dtype": str(arrays[n].dtype), "shape": list(arrays[n].shape)}
            for n in names
        ],
        "sha256": digest.hexdigest(),
    }
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, b"".join([MAGIC, struct.pack("<II", VERSION, len(hdr)), hdr]
                                + payload))
    return header["sha256"]


def _array_layout(path, spec):
    """(name, little-endian dtype, shape, byte count) of one header entry."""
    import numpy as np
    try:
        name, dtype, shape = spec["name"], spec["dtype"], spec["shape"]
    except (KeyError, TypeError) as e:
        raise ArtifactError(f"{path}: corrupt artifact header: {e!r}") from e
    if not isinstance(name, str):
        raise ArtifactError(f"{path}: corrupt artifact header: array name {name!r}")
    try:
        dt = np.dtype(dtype) if isinstance(dtype, str) else None
    except (TypeError, ValueError):
        dt = None
    if dt is None or dt.kind not in ARRAY_KINDS or dt.itemsize == 0:
        raise ArtifactError(f"{path}: array {name!r} has unsupported dtype {dtype!r}")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ArtifactError(f"{path}: array {name!r} has invalid shape {shape!r}")
    return name, dt.newbyteorder("<"), shape, dt.itemsize * math.prod(shape)


class _Entries(dict):
    """Header entries by name; a missing one is an ArtifactError naming it."""

    def __init__(self, path, what, entries):
        super().__init__(entries)
        self.path, self.what = path, what

    def __missing__(self, name):
        raise ArtifactError(f"{self.path}: artifact has no {self.what} {name!r}")

    def _checked(self, name, ok, want):
        value = self[name]
        if not ok(value):
            raise ArtifactError(
                f"{self.path}: {self.what} {name!r} must be {want}, got {value!r}")
        return value

    def size(self, name, least=1):
        """The entry, required to be an int (not a bool) of at least ``least``."""
        return self._checked(name, lambda v: type(v) is int and v >= least,
                             f"an integer of at least {least}")

    def flag(self, name):
        """The entry, required to be a bool."""
        return self._checked(name, lambda v: type(v) is bool, "true or false")

    def typed(self, name, rule):
        """The array, required to have a dtype of ``rule`` in DTYPE_RULES: the
        payload digest does not cover the dtypes the header declares."""
        array = self[name]
        if not DTYPE_RULES[rule](array.dtype):
            raise ArtifactError(f"{self.path}: array {name!r} must be of {rule} "
                                f"dtype, got {array.dtype}")
        return array


def _read_artifact(f, path, kind, verify):
    import numpy as np
    size = os.fstat(f.fileno()).st_size
    prefix = f.read(12)
    if prefix[:4] != MAGIC:
        raise ArtifactError(f"{path}: not a belforge artifact")
    if len(prefix) < 12:
        raise ArtifactError(f"{path}: truncated artifact prefix")
    version, hdr_len = struct.unpack("<II", prefix[4:])
    if version != VERSION:
        raise ArtifactError(f"{path}: unsupported artifact version {version}")
    if 12 + hdr_len > size:
        raise ArtifactError(f"{path}: truncated artifact header")
    try:
        header = json.loads(f.read(hdr_len).decode("utf-8"))
        found, meta, specs = header["kind"], header["meta"], header["arrays"]
        digest = header.get("sha256")
        if not (isinstance(meta, dict) and isinstance(specs, list)
                and isinstance(digest, (str, type(None)))):
            raise TypeError("meta, arrays or sha256 of the wrong type")
    except (ValueError, KeyError, TypeError) as e:
        raise ArtifactError(f"{path}: corrupt artifact header: {e!r}") from e
    if found != kind:
        raise ArtifactError(f"{path}: artifact kind {found!r}, expected {kind!r}")
    layout = [_array_layout(path, spec) for spec in specs]
    if len({name for name, *_ in layout}) != len(layout):
        raise ArtifactError(f"{path}: corrupt artifact header: repeated array name")
    # sizes are checked against the file before any array is allocated
    declared = sum(nbytes for *_, nbytes in layout)
    stored = size - 12 - hdr_len
    if declared > stored:
        raise ArtifactError(f"{path}: truncated artifact payload")
    if declared < stored:
        raise ArtifactError(
            f"{path}: {stored - declared} trailing bytes after the artifact payload")
    arrays = {}
    payload = hashlib.sha256()
    for name, dt, shape, nbytes in layout:
        try:
            a = np.empty(shape, dtype=dt)
        except (ValueError, OverflowError) as e:
            raise ArtifactError(
                f"{path}: array {name!r} has invalid shape {shape!r}") from e
        raw = a.reshape(-1).view(np.uint8)
        if f.readinto(raw) != nbytes:
            raise ArtifactError(f"{path}: truncated artifact payload")
        if verify:
            payload.update(raw)
        arrays[name] = a.astype(dt.newbyteorder("="), copy=False)
    if verify and digest is None:
        raise ArtifactError(f"{path}: artifact records no payload digest to verify; "
                            "rewrite it with the command that made it")
    if verify and payload.hexdigest() != digest:
        raise ArtifactError(f"{path}: payload does not match the sha256 its header "
                            "records; the file is corrupt")
    return (_Entries(path, "meta entry", meta), _Entries(path, "array", arrays),
            digest)


def load_artifact(path, kind: str, verify=False):
    """Load an artifact, checking magic, version, header and kind.

    Returns (meta, arrays, sha256), where sha256 is the payload digest the
    header records (None in artifacts written before headers carried one).
    With ``verify`` the payload's sha256 is recomputed, and one that differs
    from the recorded digest, or a header that records none, is an
    ArtifactError. A missing meta entry or array is an ArtifactError when
    looked up. The file is read once, each array straight into its own
    buffer.
    """
    try:
        with open(path, "rb") as f:
            return _read_artifact(f, path, kind, verify)
    except OSError as e:
        raise ArtifactError(f"cannot read artifact {path}: {e}") from e
