"""Deterministic checkpoint/restore for long simulations.

Three pieces:

* :mod:`~repro.checkpoint.state` -- the snapshot payload rules (plain data
  only), schema versioning, digests, and the field-level diff that powers
  resume verification;
* :mod:`~repro.checkpoint.manager` -- crash-consistent persistence: atomic
  write-rename, integrity digests, corrupt/schema-mismatch rejection;
* :mod:`~repro.checkpoint.runner` -- replay-verified checkpointed runs:
  periodic auto-checkpoints at sim-clock safe-points and bit-identical
  resume in a fresh process.

See ``docs/robustness.md`` ("Checkpoint & resume") for the safe-point
rules and what is and is not captured.
"""

from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.runner import (
    CheckpointedRun,
    RunConfig,
    resume_checkpointed,
    run_checkpointed,
)
from repro.checkpoint.state import (
    SCHEMA_VERSION,
    CheckpointError,
    CorruptCheckpointError,
    RestoreMismatchError,
    SchemaMismatchError,
    canonical_bytes,
    diff_states,
    generator_state,
    payload_digest,
    validate_plain,
    verify_replay,
)

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "CorruptCheckpointError",
    "SchemaMismatchError",
    "RestoreMismatchError",
    "CheckpointManager",
    "CheckpointedRun",
    "RunConfig",
    "run_checkpointed",
    "resume_checkpointed",
    "canonical_bytes",
    "payload_digest",
    "validate_plain",
    "diff_states",
    "generator_state",
    "verify_replay",
]
