"""Checkpoint persistence: atomicity, pruning, and corrupt-file rejection."""

import hashlib
import os
import pickle

import pytest

from repro.checkpoint import (
    SCHEMA_VERSION,
    CheckpointManager,
    CorruptCheckpointError,
    SchemaMismatchError,
)

LAYERS = {"sim": {"v": 1, "now": 0.25}, "hub": {"v": 1, "seed": 7}}
CONFIG = {"kind": "solr", "seed": 7}


def _manager(tmp_path, **kwargs):
    return CheckpointManager(str(tmp_path / "ckpt"), **kwargs)


# ---------------------------------------------------------------------------
# save / load roundtrip
# ---------------------------------------------------------------------------
def test_save_load_roundtrip(tmp_path):
    manager = _manager(tmp_path)
    path = manager.save(3, 0.25, CONFIG, LAYERS)
    assert os.path.basename(path) == "checkpoint-000003.ckpt"
    body = manager.load(path)
    assert body["schema"] == SCHEMA_VERSION
    assert body["index"] == 3
    assert body["sim_time"] == 0.25
    assert body["config"] == CONFIG
    assert body["layers"] == LAYERS


def test_save_leaves_no_temporaries(tmp_path):
    manager = _manager(tmp_path)
    manager.save(1, 0.1, CONFIG, LAYERS)
    assert sorted(os.listdir(manager.directory)) == ["checkpoint-000001.ckpt"]


def test_load_latest_picks_highest_index(tmp_path):
    manager = _manager(tmp_path)
    for index in (1, 2, 3):
        manager.save(index, index * 0.1, CONFIG, LAYERS)
    assert manager.load_latest()["index"] == 3


def test_prune_keeps_newest(tmp_path):
    manager = _manager(tmp_path, keep=2)
    for index in range(1, 6):
        manager.save(index, index * 0.1, CONFIG, LAYERS)
    assert manager.indices() == [4, 5]


def test_object_in_layers_rejected_at_save_time(tmp_path):
    manager = _manager(tmp_path)
    with pytest.raises(TypeError, match="not plain snapshot data"):
        manager.save(1, 0.1, CONFIG, {"sim": {"v": 1, "obj": object()}})
    assert manager.indices() == []


# ---------------------------------------------------------------------------
# corrupt / mismatched files are rejected, never silently loaded
# ---------------------------------------------------------------------------
def test_load_latest_on_empty_directory_errors(tmp_path):
    manager = _manager(tmp_path)
    with pytest.raises(CorruptCheckpointError, match="no checkpoints"):
        manager.load_latest()


def test_flipped_byte_rejected(tmp_path):
    manager = _manager(tmp_path)
    path = manager.save(1, 0.1, CONFIG, LAYERS)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CorruptCheckpointError, match="digest mismatch"):
        manager.load(path)


def test_truncated_file_rejected(tmp_path):
    manager = _manager(tmp_path)
    path = manager.save(1, 0.1, CONFIG, LAYERS)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[: len(raw) - 7])
    with pytest.raises(CorruptCheckpointError, match="digest mismatch"):
        manager.load(path)


def test_missing_magic_rejected(tmp_path):
    manager = _manager(tmp_path)
    path = manager.save(1, 0.1, CONFIG, LAYERS)
    raw = open(path, "rb").read()
    open(path, "wb").write(b"NOT-A-CKPT\n" + raw[11:])
    with pytest.raises(CorruptCheckpointError, match="magic header"):
        manager.load(path)


def test_malformed_digest_header_rejected(tmp_path):
    manager = _manager(tmp_path)
    path = manager.save(1, 0.1, CONFIG, LAYERS)
    open(path, "wb").write(b"REPRO-CKPT\nshort\n" + b"x" * 32)
    with pytest.raises(CorruptCheckpointError, match="malformed digest"):
        manager.load(path)


def _write_raw_body(path, body) -> None:
    """Bypass save-time validation to craft a structurally wrong body."""
    blob = pickle.dumps(body, protocol=4)
    digest = hashlib.sha256(blob).hexdigest()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(b"REPRO-CKPT\n")
        handle.write(digest.encode("ascii") + b"\n")
        handle.write(blob)


def test_schema_mismatch_rejected(tmp_path):
    manager = _manager(tmp_path)
    path = manager.path_for(1)
    _write_raw_body(path, {
        "schema": SCHEMA_VERSION + 1, "index": 1, "sim_time": 0.1,
        "config": CONFIG, "layers": LAYERS,
    })
    with pytest.raises(SchemaMismatchError, match="refusing to load"):
        manager.load(path)


def test_non_record_body_rejected(tmp_path):
    manager = _manager(tmp_path)
    path = manager.path_for(1)
    _write_raw_body(path, ["not", "a", "record"])
    with pytest.raises(CorruptCheckpointError, match="not a checkpoint"):
        manager.load(path)


def test_missing_required_key_rejected(tmp_path):
    manager = _manager(tmp_path)
    path = manager.path_for(1)
    _write_raw_body(path, {
        "schema": SCHEMA_VERSION, "index": 1, "sim_time": 0.1,
        "config": CONFIG,
    })
    with pytest.raises(CorruptCheckpointError, match="'layers'"):
        manager.load(path)


def test_undeserializable_body_rejected(tmp_path):
    manager = _manager(tmp_path)
    path = manager.path_for(1)
    blob = b"\x80\x04 this is not a pickle"
    digest = hashlib.sha256(blob).hexdigest()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(b"REPRO-CKPT\n" + digest.encode() + b"\n" + blob)
    with pytest.raises(CorruptCheckpointError, match="does not deserialize"):
        manager.load(path)


def test_keep_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        CheckpointManager(str(tmp_path / "x"), keep=0)
