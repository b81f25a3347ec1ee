"""Checkpointed recovery: per-tenant stream-state snapshots.

A tenant session's mutable state — window partials and batch-buffer
tails inside the executor, codec dictionaries and the decode memo,
selector calibration/hysteresis, transport sequence numbers and the
fault injector's RNG position — is periodically serialized into a
:class:`TenantCheckpoint`.  A supervisor restart then *resumes from the
last checkpoint* instead of replaying the stream from the start: the
source is re-seeked to the checkpoint's batch cursor (the virtual
equivalent of a log-offset seek) and every stateful component picks up
exactly where the snapshot left it, so post-recovery results are
bit-compatible with an uninterrupted run.

Two stores implement the same small interface: an in-memory store for
tests and single-process serving, and a file store whose dumps double as
CI failure artifacts (one pickle per tenant plus a JSON index).
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ServeError

#: bump when the checkpoint payload layout changes incompatibly
#: (2: the payload is the session's attribute dict around one Pipeline;
#: 3: join partition state is columnar, sorted keys plus column arrays;
#: 4: executors hold one BatchBuffer owning the scheduler and decoded tail)
CHECKPOINT_VERSION = 4


@dataclass(frozen=True)
class TenantCheckpoint:
    """One durable snapshot of a tenant session."""

    tenant: str
    #: batches fully processed when the snapshot was taken (source cursor)
    batches_processed: int
    #: pickled session state (see TenantSession.state_bytes)
    payload: bytes
    #: virtual time at which the snapshot was taken
    virtual_time: float = 0.0
    #: poison-batch indices already crashed on and disarmed (supervisor
    #: bookkeeping that must survive a restart alongside session state)
    disarmed_crashes: Tuple[int, ...] = ()
    version: int = CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ServeError("a checkpoint needs a tenant id")
        if self.batches_processed < 0:
            raise ServeError("batches_processed cannot be negative")

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def require_current_version(self) -> None:
        """Refuse a payload laid out by another version of this code."""
        if self.version != CHECKPOINT_VERSION:
            raise ServeError(
                f"checkpoint for tenant {self.tenant!r} has version "
                f"{self.version}, this build reads {CHECKPOINT_VERSION}"
            )


class CheckpointStore:
    """In-memory latest-checkpoint-per-tenant store."""

    def __init__(self) -> None:
        self._latest: Dict[str, TenantCheckpoint] = {}
        self.saves = 0

    def save(self, checkpoint: TenantCheckpoint) -> None:
        checkpoint.require_current_version()
        self._latest[checkpoint.tenant] = checkpoint
        self.saves += 1

    def latest(self, tenant: str) -> Optional[TenantCheckpoint]:
        return self._latest.get(tenant)

    def tenants(self) -> List[str]:
        return sorted(self._latest)

    def drop(self, tenant: str) -> None:
        self._latest.pop(tenant, None)

    def dump(self, directory: Union[str, Path]) -> List[Path]:
        """Write every checkpoint to ``directory`` (CI failure artifacts)."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        index = []
        for tenant in self.tenants():
            ckpt = self._latest[tenant]
            path = out / f"{tenant}.ckpt"
            path.write_bytes(pickle.dumps(ckpt, protocol=4))
            written.append(path)
            index.append(
                {
                    "tenant": ckpt.tenant,
                    "batches_processed": ckpt.batches_processed,
                    "virtual_time": ckpt.virtual_time,
                    "payload_bytes": ckpt.nbytes,
                    "disarmed_crashes": list(ckpt.disarmed_crashes),
                }
            )
        index_path = out / "checkpoints.json"
        index_path.write_text(json.dumps(index, indent=2, sort_keys=True))
        written.append(index_path)
        return written


class FileCheckpointStore(CheckpointStore):
    """A checkpoint store persisted under a directory, one file per tenant.

    Snapshots survive process restarts: a new supervisor pointed at the
    same directory resumes every tenant from its last on-disk snapshot.
    """

    def __init__(self, directory: Union[str, Path]):
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for path in sorted(self.directory.glob("*.ckpt")):
            ckpt = pickle.loads(path.read_bytes())
            if not isinstance(ckpt, TenantCheckpoint):
                raise ServeError(f"{path} does not hold a TenantCheckpoint")
            ckpt.require_current_version()
            self._latest[ckpt.tenant] = ckpt

    def _path(self, tenant: str) -> Path:
        return self.directory / f"{tenant}.ckpt"

    def save(self, checkpoint: TenantCheckpoint) -> None:
        super().save(checkpoint)
        self._path(checkpoint.tenant).write_bytes(
            pickle.dumps(checkpoint, protocol=4)
        )

    def drop(self, tenant: str) -> None:
        super().drop(tenant)
        path = self._path(tenant)
        if path.exists():
            path.unlink()
