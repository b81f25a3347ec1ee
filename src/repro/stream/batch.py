"""Columnar batches: the engine's processing granularity (Sec. IV-A).

A :class:`Batch` holds ``Size_B`` tuples column-wise as int64 arrays (float
fields already fixed-point quantized per the schema).  A
:class:`CompressedBatch` is its per-column compressed counterpart — the
unit the client ships through the network channel to the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from ..compression.base import CompressedColumn
from ..errors import SchemaError
from .quantize import quantize
from .schema import KIND_FLOAT, Schema


class Batch:
    """``Size_B`` tuples of one stream, stored column-wise."""

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        self.schema = schema
        self.columns: Dict[str, np.ndarray] = {}
        lengths = set()
        for f in schema:
            if f.name not in columns:
                raise SchemaError(f"batch is missing column {f.name!r}")
            arr = np.ascontiguousarray(columns[f.name], dtype=np.int64)
            if arr.ndim != 1:
                raise SchemaError(f"column {f.name!r} must be 1-D")
            self.columns[f.name] = arr
            lengths.add(arr.size)
        extra = set(columns) - set(schema.names)
        if extra:
            raise SchemaError(f"batch has columns not in schema: {sorted(extra)}")
        if len(lengths) != 1:
            raise SchemaError(f"ragged batch: column lengths {sorted(lengths)}")
        self.n = lengths.pop()

    # ----- construction ----------------------------------------------------

    @classmethod
    def from_values(cls, schema: Schema, columns: Mapping[str, Sequence]) -> "Batch":
        """Build a batch from raw (possibly float) per-column values."""
        converted: Dict[str, np.ndarray] = {}
        for f in schema:
            if f.name not in columns:
                raise SchemaError(f"missing column {f.name!r}")
            raw = np.asarray(columns[f.name])
            if f.kind == KIND_FLOAT:
                converted[f.name] = quantize(raw.astype(np.float64), f.decimals)
            else:
                converted[f.name] = np.ascontiguousarray(raw, dtype=np.int64)
        return cls(schema, converted)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Batch":
        """Build a batch from an iterable of tuples in schema field order."""
        rows = list(rows)
        if not rows:
            raise SchemaError("cannot build a batch from zero rows")
        columns = {
            f.name: np.asarray([row[i] for row in rows])
            for i, f in enumerate(schema)
        }
        return cls.from_values(schema, columns)

    @classmethod
    def concat(cls, batches: Sequence["Batch"]) -> "Batch":
        """Concatenate batches of the same schema (used by window buffers)."""
        if not batches:
            raise SchemaError("cannot concatenate zero batches")
        schema = batches[0].schema
        for b in batches[1:]:
            if b.schema != schema:
                raise SchemaError("cannot concatenate batches of different schemas")
        columns = {
            name: np.concatenate([b.columns[name] for b in batches])
            for name in schema.names
        }
        return cls(schema, columns)

    # ----- access ------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise SchemaError(f"unknown column {name!r}")
        return self.columns[name]

    def slice(self, start: int, stop: int) -> "Batch":
        """A view-backed sub-batch of rows [start, stop)."""
        return Batch(
            self.schema,
            {name: arr[start:stop] for name, arr in self.columns.items()},
        )

    def take(self, indices: np.ndarray) -> "Batch":
        """Row subset by index array."""
        return Batch(
            self.schema,
            {name: arr[indices] for name, arr in self.columns.items()},
        )

    @property
    def uncompressed_nbytes(self) -> int:
        """Size_T * Size_B: wire bytes without compression."""
        return self.schema.tuple_bytes * self.n

    def __repr__(self) -> str:
        return f"Batch(n={self.n}, schema={self.schema!r})"


@dataclass
class CompressedBatch:
    """Per-column compressed payloads plus the codec decisions used."""

    schema: Schema
    n: int
    columns: Dict[str, CompressedColumn]
    #: codec name per column (redundant with columns, handy for reporting)
    choices: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = set(self.schema.names) - set(self.columns)
        if missing:
            raise SchemaError(f"compressed batch missing columns: {sorted(missing)}")
        for name, cc in self.columns.items():
            if cc.n != self.n:
                raise SchemaError(
                    f"column {name!r} has {cc.n} elements, batch has {self.n}"
                )
        if not self.choices:
            self.choices = {name: cc.codec for name, cc in self.columns.items()}

    @property
    def nbytes(self) -> int:
        """Total transmitted bytes for this batch."""
        return sum(cc.nbytes for cc in self.columns.values())

    @property
    def uncompressed_nbytes(self) -> int:
        return self.schema.tuple_bytes * self.n

    @property
    def ratio(self) -> float:
        """Whole-batch compression ratio r."""
        if self.nbytes == 0:
            return float("inf")
        return self.uncompressed_nbytes / self.nbytes
