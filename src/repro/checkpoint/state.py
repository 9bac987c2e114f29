"""Canonical snapshot payloads: plain data, digests, mismatch diffs.

Every stateful layer of the simulation exposes ``snapshot_state()``, and
that is the whole layer protocol.  Both resumes -- single-process and
sharded -- are replay and verify: the world is replayed from the start,
its snapshots at the checkpointed point are compared against the
checkpoint by :func:`verify_replay`, and nothing is restored.  Snapshots
are restricted to *plain data* -- dicts with string keys, lists, tuples,
strings, bytes, ints, floats, booleans, and ``None`` -- so that

* the serialized byte stream is a pure function of the state (no object
  identities, no set iteration order, no pickle memo aliasing surprises),
* a payload written by one process compares bit-for-bit against a payload
  produced by another process replaying the same seeded run, and
* corrupt or truncated checkpoint files fail loudly at the digest check
  instead of deserializing into a subtly wrong world.

Numpy arrays and deques must be converted by the layer (``tolist()`` /
``list()``); ``float64 -> float`` round-trips exactly, so converted
payloads lose no precision.  Sets are rejected outright.

Versioning happens at two levels: the file schema
(:data:`SCHEMA_VERSION`, guarded by :class:`~repro.checkpoint.manager
.CheckpointManager`) and a per-layer ``"v"`` key inside each layer's
snapshot dict -- a version change shows up as a verification diff on
resume.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np

#: Bump on any incompatible change to the checkpoint file layout or to any
#: layer's snapshot schema.  Old files are rejected, never reinterpreted.
SCHEMA_VERSION = 3

_PLAIN_SCALARS = (str, bytes, int, float, bool, type(None))


class CheckpointError(RuntimeError):
    """Base class for all checkpoint/restore failures."""


class CorruptCheckpointError(CheckpointError):
    """The checkpoint file is truncated, altered, or not a checkpoint."""


class SchemaMismatchError(CheckpointError):
    """The checkpoint was written under an incompatible schema version."""


class RestoreMismatchError(CheckpointError):
    """Replayed world state disagrees with the checkpoint bit-for-bit."""


def validate_plain(payload, path: str = "payload") -> None:
    """Reject anything that is not deterministic plain data.

    Raises ``TypeError`` naming the offending path, so a layer that leaks
    an object reference into its snapshot fails at save time with a
    pointer straight to the field.
    """
    if isinstance(payload, bool) or payload is None:
        return
    # Exact types only: numpy scalars subclass float/str/bytes but pickle
    # to different byte streams, which would silently break the digest
    # comparison between a saved payload and its replayed counterpart.
    if type(payload) in _PLAIN_SCALARS:
        return
    if isinstance(payload, dict):
        for key, value in payload.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"{path}: dict key {key!r} is not a string"
                )
            validate_plain(value, f"{path}[{key!r}]")
        return
    if isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            validate_plain(value, f"{path}[{index}]")
        return
    raise TypeError(
        f"{path}: {type(payload).__name__} is not plain snapshot data "
        f"(allowed: dict/list/tuple/str/bytes/int/float/bool/None)"
    )


def canonical_bytes(payload) -> bytes:
    """Serialize a validated plain-data payload deterministically.

    Pickle protocol 4 of a pure-data tree is a stable byte stream across
    processes and platforms (dict order is insertion order, which for a
    deterministic simulation is itself deterministic).
    """
    validate_plain(payload)
    return pickle.dumps(payload, protocol=4)


def payload_digest(payload) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def diff_states(expected, actual, path: str = "", limit: int = 8) -> list[str]:
    """First ``limit`` divergences between two plain-data trees.

    Powers :class:`RestoreMismatchError` messages: a resume that fails
    verification names the exact layer fields that diverged instead of
    just two unequal digests.
    """
    out: list[str] = []
    _diff(expected, actual, path or "state", out, limit)
    return out


def verify_replay(expected: dict, replayed: dict, where: str) -> None:
    """Raise :class:`RestoreMismatchError` unless a replay matches its
    checkpoint bit for bit.

    ``expected`` and ``replayed`` map layer names to snapshots; ``where``
    names the checkpointed point.  The message lists the first diverging
    fields as ``<layer>[<key>]...`` paths.
    """
    diffs: list[str] = []
    for name in sorted(expected.keys() | replayed.keys()):
        if name not in replayed:
            diffs.append(f"layer {name!r} missing from replayed world")
        elif name not in expected:
            diffs.append(f"layer {name!r} absent from checkpoint")
        else:
            diffs.extend(diff_states(expected[name], replayed[name], name))
    if diffs:
        raise RestoreMismatchError(
            f"replayed world diverged from {where}:\n  "
            + "\n  ".join(diffs[:8])
        )


def _diff(expected, actual, path, out, limit) -> None:
    if len(out) >= limit:
        return
    if type(expected) is not type(actual) and not (
        isinstance(expected, (int, float))
        and isinstance(actual, (int, float))
    ):
        out.append(
            f"{path}: type {type(expected).__name__} != "
            f"{type(actual).__name__}"
        )
        return
    if isinstance(expected, dict):
        for key in sorted(expected.keys() | actual.keys(), key=repr):
            if len(out) >= limit:
                return
            if key not in actual:
                out.append(f"{path}[{key!r}]: missing in replayed state")
            elif key not in expected:
                out.append(f"{path}[{key!r}]: unexpected in replayed state")
            else:
                _diff(expected[key], actual[key], f"{path}[{key!r}]",
                      out, limit)
        return
    if isinstance(expected, (list, tuple)):
        if len(expected) != len(actual):
            out.append(
                f"{path}: length {len(expected)} != {len(actual)}"
            )
            return
        for index, (e, a) in enumerate(zip(expected, actual)):
            if len(out) >= limit:
                return
            _diff(e, a, f"{path}[{index}]", out, limit)
        return
    if isinstance(expected, float) and isinstance(actual, float):
        # repr equality is bit-exact for floats and, unlike ``==``, treats
        # NaN as equal to NaN (fault-injected samples carry NaNs) while
        # still distinguishing -0.0 from 0.0.
        if repr(expected) != repr(actual):
            out.append(f"{path}: {expected!r} != {actual!r}")
        return
    if expected != actual:
        out.append(f"{path}: {expected!r} != {actual!r}")


# ----------------------------------------------------------------------
# RNG state helpers
# ----------------------------------------------------------------------
def _plainify(value):
    """Recursively convert numpy scalars inside a state tree to Python."""
    if isinstance(value, dict):
        return {key: _plainify(sub) for key, sub in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plainify(sub) for sub in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def generator_state(gen: np.random.Generator) -> dict:
    """A numpy Generator's bit-generator state as plain data."""
    return _plainify(gen.bit_generator.state)
