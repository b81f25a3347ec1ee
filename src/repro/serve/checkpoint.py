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

A checkpoint holds only what cannot be rebuilt: operator state plus a
replayable source offset, the snapshot model of Carbone et al.,
*Lightweight Asynchronous Snapshots for Distributed Dataflows*.  The
lookahead feed is re-pulled from the seeded source on restore, and
delivered outputs are not state: each checkpoint carries the outputs
delivered since the tenant's previous one, the store folds them into an
append-once per-tenant output log, and a restore hands the session the
logged outputs below the checkpoint's cursor.  A checkpoint's size is
therefore flat in run length.

Nothing damaged reaches ``pickle.loads``.  A payload carries a SHA-256
digest set when the checkpoint is built and checked before it is
unpickled, and every file a :class:`FileCheckpointStore` writes is a
sequence of records framed by their length and SHA-256.  A truncated,
corrupt or foreign checkpoint, payload or log record is a
:class:`ServeError` naming the tenant and the file.

Two stores implement the same small interface: an in-memory store for
tests and single-process serving, which keeps references to the logged
outputs and pickles nothing, and a file store whose directory doubles
as a CI failure artifact: per tenant a ``<tenant>.ckpt`` record and a
``<tenant>.outputs`` log, plus a JSON index.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import ServeError
from ..sql.executor import QueryResult

#: bump when the checkpoint payload layout changes incompatibly
#: (2: the payload is the session's attribute dict around one Pipeline;
#: 3: join partition state is columnar, sorted keys plus column arrays;
#: 4: executors hold one BatchBuffer owning the scheduler and decoded tail;
#: 5: the payload has a digest and holds neither the lookahead feed nor
#: the outputs, which go to the store's per-tenant log; files are framed;
#: 6: the client, transport config and fault profile lost their
#: single-valued knobs, now module constants;
#: 7: the server no longer carries the tenant its cache quota charged)
CHECKPOINT_VERSION = 7

#: a file record's header: body length, then the body's SHA-256
RECORD_HEADER = struct.Struct(">Q32s")

#: what ``pickle.loads`` raises on bytes it cannot rebuild an object from
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    OverflowError,
    TypeError,
    ValueError,
)

Outputs = Mapping[int, QueryResult]


def unpickle(data: bytes, what: str) -> Any:
    """``pickle.loads`` whose every failure is a ServeError naming ``what``."""
    try:
        return pickle.loads(data)
    except _UNPICKLE_ERRORS as exc:
        raise ServeError(f"{what} does not unpickle: {exc!r}") from exc


def payload_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def frame_record(obj: Any) -> bytes:
    """``obj`` pickled, behind a header of its length and SHA-256."""
    body = pickle.dumps(obj, protocol=4)
    return RECORD_HEADER.pack(len(body), hashlib.sha256(body).digest()) + body


def fold_outputs(log: Dict[int, QueryResult], start: int, outputs: Outputs) -> None:
    """Make ``outputs`` the log's entries from batch ``start`` on."""
    for index in [index for index in log if index >= start]:
        del log[index]
    log.update(outputs)


def read_records(path: Path, what: str) -> List[Any]:
    """Every record of a framed file, each checked before it is unpickled."""
    data = path.read_bytes()
    records = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < RECORD_HEADER.size:
            raise ServeError(f"{what} in {path} ends inside a record header")
        length, digest = RECORD_HEADER.unpack_from(data, offset)
        offset += RECORD_HEADER.size
        body = data[offset : offset + length]
        offset += length
        if len(body) != length or hashlib.sha256(body).digest() != digest:
            raise ServeError(
                f"{what} in {path} is truncated or corrupt: a record fails "
                "its SHA-256"
            )
        records.append(unpickle(body, f"{what} in {path}"))
    return records


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
    #: outputs delivered since the tenant's previous checkpoint, by batch
    #: index; the store logs them, so a pickled checkpoint never holds them
    outputs: Outputs = field(default_factory=dict, compare=False, repr=False)
    #: ``outputs`` are all that was delivered in [outputs_from,
    #: batches_processed): the previous checkpoint's cursor, 0 for the
    #: first checkpoint of a session started from scratch
    outputs_from: int = 0
    #: outputs delivered below ``batches_processed``; the store's log must
    #: hold exactly this many of them for a restore to take back
    delivered: int = 0
    version: int = CHECKPOINT_VERSION
    #: SHA-256 of ``payload``, set when the checkpoint is built
    digest: str = field(init=False, default="")

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ServeError("a checkpoint needs a tenant id")
        if self.batches_processed < 0:
            raise ServeError("batches_processed cannot be negative")
        object.__setattr__(self, "digest", payload_digest(self.payload))

    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "outputs": {}}

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def verify(self, where: str = "") -> None:
        """Refuse a payload of another layout version, or a damaged one.

        Every path to ``TenantSession.restore`` runs this first; ``where``
        names the file the checkpoint was read from.
        """
        if self.version != CHECKPOINT_VERSION:
            raise ServeError(
                f"checkpoint for tenant {self.tenant!r}{where} has version "
                f"{self.version}, this build reads {CHECKPOINT_VERSION}"
            )
        if payload_digest(self.payload) != self.digest:
            raise ServeError(
                f"checkpoint for tenant {self.tenant!r}{where} fails its "
                "payload's SHA-256 digest: the payload is truncated or corrupt"
            )


class CheckpointStore:
    """In-memory latest checkpoint and output log per tenant.

    The log keeps references to the delivered results; nothing is pickled.
    """

    def __init__(self) -> None:
        self._latest: Dict[str, TenantCheckpoint] = {}
        #: tenant -> batch index -> delivered output, folded from every save
        self._outputs: Dict[str, Dict[int, QueryResult]] = {}
        self.saves = 0

    def save(self, checkpoint: TenantCheckpoint) -> None:
        checkpoint.verify()
        self._latest[checkpoint.tenant] = checkpoint
        fold_outputs(
            self._outputs.setdefault(checkpoint.tenant, {}),
            checkpoint.outputs_from,
            checkpoint.outputs,
        )
        self.saves += 1

    def latest(self, tenant: str) -> Optional[TenantCheckpoint]:
        return self._latest.get(tenant)

    def outputs(self, checkpoint: TenantCheckpoint) -> Dict[int, QueryResult]:
        """The logged outputs a restore from ``checkpoint`` takes back."""
        cursor = checkpoint.batches_processed
        log = self._outputs.get(checkpoint.tenant, {})
        outputs = {index: out for index, out in log.items() if index < cursor}
        if len(outputs) != checkpoint.delivered:
            raise ServeError(
                f"output log of tenant {checkpoint.tenant!r} holds "
                f"{len(outputs)} outputs below batch {cursor}, its checkpoint "
                f"delivered {checkpoint.delivered}"
            )
        return outputs

    def tenants(self) -> List[str]:
        return sorted(self._latest)

    def drop(self, tenant: str) -> None:
        self._latest.pop(tenant, None)
        self._outputs.pop(tenant, None)

    def dump(self, directory: Union[str, Path]) -> List[Path]:
        """Write every checkpoint and output log to ``directory``.

        The layout is :class:`FileCheckpointStore`'s, each log one record,
        so a dump (a CI failure artifact) opens as a store.
        """
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        index = []
        for tenant in self.tenants():
            ckpt = self._latest[tenant]
            path = out / f"{tenant}.ckpt"
            path.write_bytes(frame_record(ckpt))
            written.append(path)
            log = self._outputs.get(tenant, {})
            if log:
                log_path = out / f"{tenant}.outputs"
                log_path.write_bytes(frame_record((0, log)))
                written.append(log_path)
            index.append(
                {
                    "tenant": ckpt.tenant,
                    "batches_processed": ckpt.batches_processed,
                    "virtual_time": ckpt.virtual_time,
                    "payload_bytes": ckpt.nbytes,
                    "delivered": ckpt.delivered,
                    "disarmed_crashes": list(ckpt.disarmed_crashes),
                }
            )
        index_path = out / "checkpoints.json"
        index_path.write_text(json.dumps(index, indent=2, sort_keys=True))
        written.append(index_path)
        return written


class FileCheckpointStore(CheckpointStore):
    """A checkpoint store persisted under a directory.

    Per tenant, ``<tenant>.ckpt`` is one record holding the latest
    checkpoint (outputs left out) and ``<tenant>.outputs`` is the output
    log, one ``(outputs_from, outputs)`` record appended per checkpoint.
    Snapshots survive process restarts: a new supervisor pointed at the
    same directory resumes every tenant from its last on-disk snapshot
    and log.
    """

    def __init__(self, directory: Union[str, Path]):
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for path in sorted(self.directory.glob("*.ckpt")):
            what = f"checkpoint of tenant {path.stem!r}"
            records = read_records(path, what)
            ckpt = records[0] if len(records) == 1 else None
            if not isinstance(ckpt, TenantCheckpoint):
                raise ServeError(f"{what} in {path} is not one TenantCheckpoint")
            ckpt.verify(where=f" in {path}")
            self._latest[ckpt.tenant] = ckpt
            log_path = self._log_path(ckpt.tenant)
            if log_path.exists():
                self._outputs[ckpt.tenant] = self._read_log(log_path, ckpt.tenant)
            self.outputs(ckpt)  # a log that lost records fails here, not later

    @staticmethod
    def _read_log(path: Path, tenant: str) -> Dict[int, QueryResult]:
        """Fold an output log's records in the order they were saved."""
        log: Dict[int, QueryResult] = {}
        for record in read_records(path, f"output log of tenant {tenant!r}"):
            if not (
                isinstance(record, tuple)
                and len(record) == 2
                and isinstance(record[0], int)
                and isinstance(record[1], dict)
            ):
                raise ServeError(
                    f"output log of tenant {tenant!r} in {path} holds a record "
                    "that is not an (outputs_from, outputs) pair"
                )
            fold_outputs(log, *record)
        return log

    def _path(self, tenant: str) -> Path:
        return self.directory / f"{tenant}.ckpt"

    def _log_path(self, tenant: str) -> Path:
        return self.directory / f"{tenant}.outputs"

    def save(self, checkpoint: TenantCheckpoint) -> None:
        super().save(checkpoint)
        # the log first: a checkpoint file never points past its outputs
        record = (checkpoint.outputs_from, dict(checkpoint.outputs))
        with self._log_path(checkpoint.tenant).open("ab") as log:
            log.write(frame_record(record))
        self._path(checkpoint.tenant).write_bytes(frame_record(checkpoint))

    def drop(self, tenant: str) -> None:
        super().drop(tenant)
        for path in (self._path(tenant), self._log_path(tenant)):
            if path.exists():
                path.unlink()
