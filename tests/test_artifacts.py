import json
import struct

import numpy as np
import pytest

from belforge.artifacts import MAGIC, VERSION, load_artifact, save_artifact
from belforge.errors import ArtifactError


def _with_header(header_bytes):
    return MAGIC + struct.pack("<II", VERSION, len(header_bytes)) + header_bytes


def _header(**fields):
    return json.dumps(fields).encode("utf-8")


@pytest.fixture
def artifact(tmp_path):
    path = tmp_path / "a.bin"
    save_artifact(path, "demo", {"n": 3}, {"x": np.arange(6.0).reshape(2, 3)})
    return path


def test_roundtrip(artifact):
    meta, arrays = load_artifact(artifact, "demo")
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
