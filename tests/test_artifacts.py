import hashlib
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belforge import encoder
from belforge.artifacts import (MAGIC, VERSION, load_artifact, save_artifact,
                                 write_atomic)
from belforge.errors import ArtifactError
from helpers import fresh_params


def _with_header(header_bytes):
    return MAGIC + struct.pack("<II", VERSION, len(header_bytes)) + header_bytes


def _header(**fields):
    return json.dumps(fields).encode("utf-8")


def _edit_header(blob, edit):
    """The artifact ``blob`` with ``edit`` applied to its parsed header."""
    hdr_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + hdr_len])
    edit(header)
    return _with_header(json.dumps(header).encode("utf-8")) + blob[12 + hdr_len:]


def _set_array(field, value):
    def edit(header):
        header["arrays"][0][field] = value
    return edit


@pytest.fixture
def artifact(tmp_path):
    path = tmp_path / "a.bin"
    save_artifact(path, "demo", {"n": 3}, {"x": np.arange(6.0).reshape(2, 3)})
    return path


def test_roundtrip(artifact):
    meta, arrays, _sha256 = load_artifact(artifact, "demo")
    assert meta == {"n": 3}
    assert np.array_equal(arrays["x"], np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: blob[:9], "truncated artifact prefix"),
    (lambda blob: blob[:-1], "truncated artifact payload"),
    (lambda blob: blob[:-48], "truncated artifact payload"),
    (lambda blob: _with_header(b"\xff\xfe{}"), "corrupt artifact header"),
    (lambda blob: _with_header(b"{not json"), "corrupt artifact header"),
    (lambda blob: _with_header(b"[1, 2]"), "corrupt artifact header"),
    (lambda blob: _with_header(_header(meta={}, arrays=[])), "corrupt artifact header"),
    (lambda blob: _with_header(_header(kind="demo", arrays=[])), "corrupt artifact header"),
    (lambda blob: _with_header(_header(kind="demo", meta={})), "corrupt artifact header"),
])
def test_corrupt_artifact_is_artifact_error(artifact, corrupt, message):
    artifact.write_bytes(corrupt(artifact.read_bytes()))
    with pytest.raises(ArtifactError, match=message):
        load_artifact(artifact, "demo")


@pytest.mark.parametrize("edit, message", [
    (_set_array("dtype", "nope"), "unsupported dtype 'nope'"),
    (_set_array("dtype", "O"), "unsupported dtype"),
    (_set_array("dtype", "<c16"), "unsupported dtype"),
    (_set_array("dtype", "|S8"), "unsupported dtype"),
    (_set_array("dtype", "<U0"), "unsupported dtype"),
    (_set_array("dtype", "(2,)<f8"), "unsupported dtype"),
    (_set_array("dtype", ["<f8"]), "unsupported dtype"),
    (_set_array("shape", [-1]), "invalid shape"),
    (_set_array("shape", [2, -3]), "invalid shape"),
    (_set_array("shape", [2.0, 3]), "invalid shape"),
    (_set_array("shape", [True, 6]), "invalid shape"),
    (_set_array("shape", "6"), "invalid shape"),
    (_set_array("shape", [10 ** 12, 10 ** 12]), "truncated artifact payload"),
    (lambda h: h["arrays"].append({"name": "z", "dtype": "<f8",
                                   "shape": [0, 10 ** 30, 10 ** 30]}),
     "invalid shape"),
    (lambda h: h["arrays"].append({"name": "z", "dtype": "<f8", "shape": [0] * 70}),
     "invalid shape"),
    (_set_array("shape", [1]), "trailing bytes"),
    (_set_array("name", 7), "corrupt artifact header"),
    (lambda h: h["arrays"][0].pop("shape"), "corrupt artifact header"),
    (lambda h: h["arrays"].append(dict(h["arrays"][0], shape=[0])),
     "repeated array name"),
    (lambda h: h.update(arrays=[7]), "corrupt artifact header"),
    (lambda h: h.update(meta=[]), "corrupt artifact header"),
    (lambda h: h.update(sha256=5), "corrupt artifact header"),
])
def test_bad_array_header_is_artifact_error(artifact, edit, message):
    artifact.write_bytes(_edit_header(artifact.read_bytes(), edit))
    with pytest.raises(ArtifactError, match=message):
        load_artifact(artifact, "demo")


def test_trailing_bytes_are_artifact_error(artifact):
    artifact.write_bytes(artifact.read_bytes() + b"\0")
    with pytest.raises(ArtifactError, match="1 trailing bytes"):
        load_artifact(artifact, "demo")


def test_header_longer_than_file_is_artifact_error(artifact):
    blob = artifact.read_bytes()
    artifact.write_bytes(blob[:8] + struct.pack("<I", 2 ** 32 - 1) + blob[12:])
    with pytest.raises(ArtifactError, match="truncated artifact header"):
        load_artifact(artifact, "demo")


def test_missing_entry_is_artifact_error(artifact):
    meta, arrays, _sha256 = load_artifact(artifact, "demo")
    with pytest.raises(ArtifactError, match="no array 'y'"):
        arrays["y"]
    with pytest.raises(ArtifactError, match="no meta entry 'm'"):
        meta["m"]
    assert arrays.get("y") is None


def test_every_dtype_kind_roundtrips(tmp_path):
    arrays = {
        "b": np.array([True, False, True]),
        "i8": np.arange(-3, 3, dtype=np.int8),
        "u16": np.arange(5, dtype=np.uint16).reshape(5, 1),
        "i64": np.array(-(2 ** 40), dtype=np.int64),
        "f32": np.linspace(0, 1, 4, dtype=np.float32),
        "f64be": np.arange(4.0).astype(">f8"),
        "u": np.array(["C0000001", "ß", "\U0001F600x", ""]),
        "empty": np.zeros((0, 3)),
    }
    path = tmp_path / "k.bin"
    digest = save_artifact(path, "demo", {}, arrays)
    _meta, back, sha256 = load_artifact(path, "demo")
    assert sha256 == digest
    assert sorted(back) == sorted(arrays)
    for name, a in arrays.items():
        got = back[name]
        assert got.shape == a.shape and got.dtype.kind == a.dtype.kind
        assert np.array_equal(got, a)
        assert got.dtype.isnative and got.flags.writeable


def test_digest_is_sha256_of_payload(artifact):
    blob = artifact.read_bytes()
    hdr_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + hdr_len])
    assert header["sha256"] == hashlib.sha256(blob[12 + hdr_len:]).hexdigest()
    assert load_artifact(artifact, "demo")[2] == header["sha256"]


@pytest.mark.parametrize("edit", [lambda h: h.pop("sha256"),
                                  lambda h: h.update(sha256=None)],
                         ids=["missing", "null"])
@pytest.mark.parametrize("verify", [False, True])
def test_header_without_digest_is_refused(artifact, edit, verify):
    artifact.write_bytes(_edit_header(artifact.read_bytes(), edit))
    with pytest.raises(ArtifactError, match="records no payload digest; rewrite it "
                                            "with the command that made it"):
        load_artifact(artifact, "demo", verify)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                min_size=1, max_size=4),
       st.integers(min_value=-8, max_value=8))
def test_mutated_artifact_loads_or_is_artifact_error(tmp_path_factory, edits,
                                                     resize):
    path = tmp_path_factory.mktemp("fuzz") / "m.bin"
    save_artifact(path, "demo", {"n": 3},
                  {"x": np.arange(6.0).reshape(2, 3), "ids": np.arange(4),
                   "cuis": np.array(["C1", "C22"]), "ok": np.array([True])})
    blob = bytearray(path.read_bytes())
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    blob = blob + bytes(resize) if resize >= 0 else blob[:resize]
    path.write_bytes(bytes(blob))
    try:
        load_artifact(path, "demo")
    except ArtifactError:
        pass


def _saved_params(path):
    encoder.save_params(path, fresh_params(0, buckets=16, hidden=4, dim=3))
    return encoder.load_params


@pytest.mark.parametrize("save, entry, value", [
    (_saved_params, "n_min", "2"),
    (_saved_params, "n_min", 0),
    (_saved_params, "n_max", None),
    (_saved_params, "n_max", 1),
    (_saved_params, "buckets", True),
    (_saved_params, "hidden", -4),
    (_saved_params, "dim", [3]),
    (_saved_params, "normalize_output", 1),
    (_saved_params, "normalize_output", False),
    (_saved_params, "lowercase", "false"),
    (_saved_params, "lowercase", None),
    (_saved_params, "epoch", -1),
    (_saved_params, "epoch", True),
    (_saved_params, "epoch", 1.0),
    (_saved_params, "epoch", "0"),
])
def test_bad_meta_value_is_artifact_error(tmp_path, save, entry, value):
    path = tmp_path / "a.bin"
    load = save(path)
    load(path)
    path.write_bytes(_edit_header(path.read_bytes(),
                                  lambda h: h["meta"].update({entry: value})))
    with pytest.raises(ArtifactError, match=f"'{entry}'|n_max 1 is below n_min 2"):
        load(path)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_file_mode_follows_the_umask(tmp_path, umask):
    """A written file, new or rewritten, gets 0o666 less the umask, the mode
    open(path, "w") gives a new file."""
    path = tmp_path / "out" / "a.txt"
    old = os.umask(umask)
    try:
        for data in (b"one", b"two"):
            write_atomic(path, data)
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
            assert path.read_bytes() == data
    finally:
        os.umask(old)
