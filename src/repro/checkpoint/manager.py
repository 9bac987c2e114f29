"""Crash-consistent checkpoint persistence.

A checkpoint file is::

    REPRO-CKPT\\n
    <sha256 hex of body>\\n
    <pickled plain-data body>

where the body is ``{"schema", "index", "sim_time", "config", "layers"}``.
Writes are atomic: the body goes to a temporary file in the same
directory, is flushed and fsynced, and is then ``os.replace``d over the
final name -- a SIGKILL at any instant leaves either the complete old
file or the complete new file, never a torn one.  Loads verify the magic
header, the digest, and the schema version before anything else touches
the body; a corrupt or version-mismatched file raises a
:class:`~repro.checkpoint.state.CorruptCheckpointError` /
:class:`~repro.checkpoint.state.SchemaMismatchError` with the offending
path in the message, and is never silently loaded.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re

from repro.checkpoint.state import (
    SCHEMA_VERSION,
    CorruptCheckpointError,
    SchemaMismatchError,
    canonical_bytes,
)

_MAGIC = b"REPRO-CKPT\n"
_NAME_RE = re.compile(r"^checkpoint-(\d{6})\.ckpt$")


class CheckpointManager:
    """Writes, prunes, validates, and loads checkpoints in one directory."""

    def __init__(self, directory: str, keep: int = 4) -> None:
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.directory = directory
        self.keep = keep

    # ------------------------------------------------------------------
    def path_for(self, index: int) -> str:
        """Canonical file path of checkpoint ``index``."""
        return os.path.join(self.directory, f"checkpoint-{index:06d}.ckpt")

    def save(self, index: int, sim_time: float, config: dict,
             layers: dict) -> str:
        """Atomically persist one checkpoint; returns its path.

        The directory is created here, on first save, so that merely
        opening a manager (e.g. to resume from a mistyped path) never
        creates it.
        """
        body = {
            "schema": SCHEMA_VERSION,
            "index": int(index),
            "sim_time": float(sim_time),
            "config": config,
            "layers": layers,
        }
        blob = canonical_bytes(body)
        digest = hashlib.sha256(blob).hexdigest()
        os.makedirs(self.directory, exist_ok=True)
        final = self.path_for(index)
        tmp = final + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(digest.encode("ascii") + b"\n")
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        self._prune()
        return final

    def _prune(self) -> None:
        indices = self.indices()
        for index in indices[: max(0, len(indices) - self.keep)]:
            try:
                os.remove(self.path_for(index))
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    # ------------------------------------------------------------------
    def indices(self) -> list[int]:
        """Sorted checkpoint indices present in the directory (none if absent)."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        out = []
        for name in names:
            match = _NAME_RE.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def latest_path(self) -> str | None:
        """Path of the highest-index checkpoint, or ``None`` if empty."""
        indices = self.indices()
        return self.path_for(indices[-1]) if indices else None

    def load(self, path: str) -> dict:
        """Validate and deserialize one checkpoint file.

        Returns the body dict.  Every failure mode raises a dedicated,
        descriptive error -- nothing is ever silently coerced.
        """
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise CorruptCheckpointError(
                f"{path}: cannot read checkpoint: {exc}"
            ) from exc
        if not raw.startswith(_MAGIC):
            raise CorruptCheckpointError(
                f"{path}: missing checkpoint magic header"
            )
        rest = raw[len(_MAGIC):]
        newline = rest.find(b"\n")
        if newline != 64:
            raise CorruptCheckpointError(
                f"{path}: malformed digest header"
            )
        stored_digest = rest[:64].decode("ascii", errors="replace")
        blob = rest[65:]
        actual_digest = hashlib.sha256(blob).hexdigest()
        if actual_digest != stored_digest:
            raise CorruptCheckpointError(
                f"{path}: integrity digest mismatch "
                f"(stored {stored_digest[:12]}..., "
                f"computed {actual_digest[:12]}...)"
            )
        try:
            body = pickle.loads(blob)
        except Exception as exc:
            raise CorruptCheckpointError(
                f"{path}: body does not deserialize: {exc}"
            ) from exc
        if not isinstance(body, dict) or "schema" not in body:
            raise CorruptCheckpointError(
                f"{path}: body is not a checkpoint record"
            )
        if body["schema"] != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"{path}: checkpoint schema {body['schema']!r} != "
                f"supported {SCHEMA_VERSION}; refusing to load"
            )
        for key in ("index", "sim_time", "config", "layers"):
            if key not in body:
                raise CorruptCheckpointError(
                    f"{path}: checkpoint record missing {key!r}"
                )
        return body

    def load_latest(self) -> dict:
        """Load the newest checkpoint; error if the directory is empty."""
        path = self.latest_path()
        if path is None:
            raise CorruptCheckpointError(
                f"{self.directory}: no checkpoints found"
            )
        return self.load(path)
