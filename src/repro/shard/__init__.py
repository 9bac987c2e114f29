"""Sharded cluster simulation: deterministic multi-process scale-out.

Partitions a heterogeneous cluster's machines across worker processes and
advances them in epoch barriers; all cross-machine interaction flows
through a coordinator over totally-ordered plain-data records, so an
N-shard run is bit-identical to the single-process run for any N -- and
placement is power-aware, driven by the power containers' own accounting
history (WattsApp-style headroom scheduling with rack oversubscription).
"""

from repro.shard.coordinator import (
    RUN_TELEMETRY_MODES,
    ShardCheckpointPolicy,
    ShardedClusterRun,
    ShardRunConfig,
    ShardRunResult,
    resume_sharded,
    run_sharded,
)
from repro.shard.messages import (
    DIRECTIVE_KINDS,
    CompletionRecord,
    FailoverRecord,
    FrameChecksumError,
    TelemetryFrame,
    merge_records,
    validate_directive,
)
from repro.shard.pool import ShardPool
from repro.shard.scenario import (
    SCENARIOS,
    chaos_world_config,
    diurnal_flash_config,
    run_scenario,
    solr_macro_config,
    transport_preset,
)
from repro.shard.transport import (
    TRANSPORT_PRESETS,
    LossyChannel,
    ReliableLink,
    TransportError,
    TransportFaultPlan,
    TransportTimeoutError,
    TransportWindow,
    WorkerEndpoint,
    WorkerQuarantinedError,
    WorkerUnresponsiveError,
)
from repro.shard.scheduler import (
    MachineSlot,
    PowerAwareScheduler,
)
from repro.shard.worker import ShardConfig, ShardWorld, build_shard_workload

__all__ = [
    "RUN_TELEMETRY_MODES",
    "ShardCheckpointPolicy",
    "ShardedClusterRun",
    "ShardRunConfig",
    "ShardRunResult",
    "resume_sharded",
    "run_sharded",
    "DIRECTIVE_KINDS",
    "CompletionRecord",
    "FailoverRecord",
    "FrameChecksumError",
    "TelemetryFrame",
    "merge_records",
    "validate_directive",
    "ShardPool",
    "SCENARIOS",
    "chaos_world_config",
    "diurnal_flash_config",
    "run_scenario",
    "solr_macro_config",
    "transport_preset",
    "TRANSPORT_PRESETS",
    "LossyChannel",
    "ReliableLink",
    "TransportError",
    "TransportFaultPlan",
    "TransportTimeoutError",
    "TransportWindow",
    "WorkerEndpoint",
    "WorkerQuarantinedError",
    "WorkerUnresponsiveError",
    "MachineSlot",
    "PowerAwareScheduler",
    "ShardConfig",
    "ShardWorld",
    "build_shard_workload",
]
