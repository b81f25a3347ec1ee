"""repro.serve — the resilient multi-tenant serving layer.

Runs many tenants' engine+transport sessions under one supervisor with
crash containment, bounded-backoff restarts, admission control and
backpressure, per-tenant circuit breakers with graceful degradation, and
checkpointed recovery.  Everything is scheduled on a virtual clock
(CSD003), so a serving run is deterministic and bit-reproducible.
"""

from .admission import (
    CONTROL_SEQ,
    AdmissionController,
    TokenBucket,
    backpressure_frame,
    parse_backpressure_frame,
)
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    FileCheckpointStore,
    TenantCheckpoint,
)
from .clock import VirtualClock
from .report import (
    DEGRADED,
    HEALTH_STATES,
    HEALTHY,
    QUARANTINED,
    ServeReport,
    TenantReport,
)
from .session import DEGRADED_POOL, StepOutcome, TenantSession, TenantSpec
from .supervisor import ServeSupervisor, TenantRunner

__all__ = [
    "AdmissionController",
    "CHECKPOINT_VERSION",
    "CLOSED",
    "CONTROL_SEQ",
    "CheckpointStore",
    "CircuitBreaker",
    "DEGRADED",
    "DEGRADED_POOL",
    "FileCheckpointStore",
    "HALF_OPEN",
    "HEALTH_STATES",
    "HEALTHY",
    "OPEN",
    "QUARANTINED",
    "ServeReport",
    "ServeSupervisor",
    "StepOutcome",
    "TenantCheckpoint",
    "TenantReport",
    "TenantRunner",
    "TenantSession",
    "TenantSpec",
    "TokenBucket",
    "VirtualClock",
    "backpressure_frame",
    "parse_backpressure_frame",
]
