"""Stream substrate: schemas, columnar batches, windows, sources."""

from .batch import Batch, CompressedBatch
from .csv_source import CsvSource, write_csv
from .dynamics import DynamicWorkload, Phase
from .quantize import dequantize, detect_decimals, quantize
from .schema import KIND_FLOAT, KIND_INT, Field, Schema
from .source import ArraySource, GeneratorSource
from .window import (
    MODE_COUNT,
    MODE_PARTITION,
    MODE_TIME,
    MODE_UNBOUNDED,
    PartitionWindowState,
    TimeWindowScheduler,
    WindowLayout,
    WindowScheduler,
    WindowSpec,
)

__all__ = [
    "Batch",
    "CompressedBatch",
    "CsvSource",
    "write_csv",
    "DynamicWorkload",
    "Phase",
    "dequantize",
    "detect_decimals",
    "quantize",
    "KIND_FLOAT",
    "KIND_INT",
    "Field",
    "Schema",
    "ArraySource",
    "GeneratorSource",
    "MODE_COUNT",
    "MODE_PARTITION",
    "MODE_TIME",
    "MODE_UNBOUNDED",
    "PartitionWindowState",
    "TimeWindowScheduler",
    "WindowLayout",
    "WindowScheduler",
    "WindowSpec",
]
