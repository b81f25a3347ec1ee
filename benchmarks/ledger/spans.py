"""Spans recorded from outside ``src/repro``: wrap public callables, time them.

The ledger changes no engine code, so a layer is measured by wrapping the
public callables at its boundary *where they are looked up* — a class
attribute for methods, the importing module's global for functions — for
the duration of a traced run.  Every call records one span (name, start,
end, parent, pass id, batch id) in memory; a span's *self* time is its
duration minus the part its child spans cover.  Counts the report objects
do not keep are read from arguments and return values at the same
boundaries.  Spans inside the program are ROADMAP item 2; this table is
what that change has to reproduce.

A target that no longer resolves is skipped with a warning and listed in
``Tracer.unresolved`` — a later refactor may rename a boundary, and that
must cost the per-layer number, never the end-to-end run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: span record layout: [name, start, end, parent index, pass id, batch id]
NAME, START, END, PARENT, PASS_ID, BATCH_ID = range(6)

ROOT_SPAN = "ledger.pass"

#: the counters the hooks below keep (everything else comes from reports)
HOOK_COUNTS = (
    "compression.fallbacks",
    "wire.frames",
    "wire.frame_bytes",
    "server.direct_columns",
    "server.decoded_columns",
    "server.morphed_columns",
    "serve.checkpoints",
    "serve.checkpoint_bytes",
)

#: hook(counts, args, result): fold a call's arguments/result into counters
Hook = Callable[[Dict[str, float], Tuple[Any, ...], Any], None]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``<module>.<attr path>`` -> span name."""

    span: str
    module: str
    attr: str
    hook: Optional[Hook] = None
    #: the first wrapped call of a batch's life; bumps the batch id
    starts_batch: bool = False


def _count_fallbacks(counts: Dict[str, float], args: Tuple[Any, ...], result: Any):
    chosen = args[0].current_choices
    counts["compression.fallbacks"] += sum(
        1 for column, codec in result.choices.items() if chosen.get(column) != codec
    )


def _count_frame(counts: Dict[str, float], args: Tuple[Any, ...], result: Any):
    counts["wire.frames"] += 1
    counts["wire.frame_bytes"] += len(result)


def _count_server_paths(counts: Dict[str, float], args: Tuple[Any, ...], result: Any):
    counts["server.direct_columns"] += len(result.direct_columns)
    counts["server.decoded_columns"] += len(result.decoded_columns)
    counts["server.morphed_columns"] += len(result.morphed_columns)


def _count_checkpoint(counts: Dict[str, float], args: Tuple[Any, ...], result: Any):
    counts["serve.checkpoints"] += 1
    counts["serve.checkpoint_bytes"] += args[1].nbytes


_CODEC_METHODS = {
    "compress": "compression.encode",
    "decompress": "compression.decode",
    "direct_codes": "compression.view",
    "run_view": "compression.view",
    "plane_view": "compression.view",
}

_EXECUTOR = "repro.sql.executor"

#: the declared wrap table (codec classes are added from the registry)
TARGETS: Tuple[Target, ...] = (
    Target("sql.parse", "repro.optimizer.optimizer", "parse"),
    Target("sql.plan", "repro.sql.planner", "Planner.plan"),
    Target("sql.plan_text", "repro.sql.planner", "Planner.plan_text"),
    Target("optimizer.optimize", "repro.optimizer.optimizer", "optimize_plan"),
    Target("optimizer.plan_for_engine", "repro.core.engine", "plan_for_engine"),
    Target("stats.column_stats", "repro.core.client", "column_stats_from_batches"),
    Target("selector.select", "repro.core.selector", "AdaptiveSelector.select"),
    Target("selector.select", "repro.core.selector", "StaticSelector.select"),
    Target("selector.select", "repro.core.selector", "FixedPlanSelector.select"),
    Target(
        "client.compress_batch",
        "repro.core.client",
        "Client.compress_batch",
        hook=_count_fallbacks,
        starts_batch=True,
    ),
    Target("net.transmit", "repro.net.channel", "Channel.transmit"),
    Target("net.transmit", "repro.net.faults", "FaultyChannel.transmit"),
    Target("net.deliver", "repro.net.faults", "FaultyChannel.deliver"),
    Target("net.send_batch", "repro.net.transport", "ReliableTransport.send_batch"),
    Target(
        "wire.serialize", "repro.net.transport", "serialize_batch", hook=_count_frame
    ),
    Target("wire.deserialize", "repro.net.transport", "deserialize_batch"),
    Target("wire.serialize", "repro.wire.format", "serialize_batch", hook=_count_frame),
    Target("wire.deserialize", "repro.wire.format", "deserialize_batch"),
    Target(
        "decode_cache.decompress", "repro.core.decode_cache", "DecodeCache.decompress"
    ),
    Target("decode_cache.morph", "repro.core.decode_cache", "DecodeCache.morph"),
    Target(
        "server.process",
        "repro.core.server",
        "Server.process",
        hook=_count_server_paths,
    ),
    Target("executor.execute", _EXECUTOR, "WindowAggExecutor.execute"),
    Target("executor.execute", _EXECUTOR, "PassthroughExecutor.execute"),
    Target("executor.execute", _EXECUTOR, "JoinExecutor.execute"),
    Target("operators.aggregate", _EXECUTOR, "window_aggregate"),
    Target("operators.groupby", _EXECUTOR, "window_group_aggregate"),
    Target("operators.groupby", _EXECUTOR, "combine_keys"),
    Target("operators.join", _EXECUTOR, "semi_join_latest"),
    Target("operators.distinct", _EXECUTOR, "distinct_indices"),
    Target("operators.selection", _EXECUTOR, "compare_to_literal"),
    Target("pipeline.run", "repro.core.pipeline", "Pipeline.run"),
    Target(
        "serve.step", "repro.serve.session", "TenantSession.step", starts_batch=True
    ),
    Target("serve.state_bytes", "repro.serve.session", "TenantSession.state_bytes"),
    Target("serve.restore", "repro.serve.session", "TenantSession.restore"),
    Target(
        "serve.checkpoint_save",
        "repro.serve.checkpoint",
        "CheckpointStore.save",
        hook=_count_checkpoint,
    ),
    Target("serve.admit", "repro.serve.admission", "AdmissionController.admit"),
    Target("serve.run", "repro.serve.supervisor", "ServeSupervisor.run"),
)


def _codec_targets() -> List[Tuple[Any, str, Target]]:
    """(owner class, method name, target) for every registered codec class."""
    registry = importlib.import_module("repro.compression.registry")
    owners: List[Any] = []
    for codec_name in registry.all_codec_names():
        for cls in type(registry.get_codec(codec_name)).__mro__:
            if cls is not object and cls not in owners:
                owners.append(cls)
    found = []
    for cls in owners:
        for method, span in _CODEC_METHODS.items():
            fn = cls.__dict__.get(method)
            if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                found.append((cls, method, Target(span, cls.__module__, method)))
    return found


def _resolve(target: Target) -> Tuple[Any, str]:
    """The object holding the attribute to replace, and the attribute name."""
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if leaf not in vars(owner):
        # an inherited name is looked up on another owner: wrap it there
        raise AttributeError(f"{owner!r} does not define {leaf!r}")
    return owner, leaf


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = tuple(targets)
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {name: 0 for name in HOOK_COUNTS}
        self.pass_id = -1
        self.batch_id = -1
        #: span names with a target that failed to resolve
        self.unresolved: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ----- patching --------------------------------------------------------

    def install(self) -> None:
        missing = set()
        for target in self.targets:
            try:
                owner, leaf = _resolve(target)
            except (ImportError, AttributeError) as exc:
                print(
                    f"ledger: span target {target.module}.{target.attr} does not "
                    f"resolve ({exc}); metrics fed by {target.span!r} will be null",
                    file=sys.stderr,
                )
                missing.add(target.span)
                continue
            self._patch(owner, leaf, target)
        for owner, leaf, target in _codec_targets():
            self._patch(owner, leaf, target)
        self.unresolved = sorted(missing)

    def _patch(self, owner: Any, leaf: str, target: Target) -> None:
        # vars() keeps classmethod/staticmethod wrappers intact
        raw = vars(owner)[leaf]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, target))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        self._patched.append((owner, leaf, raw))
        setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, raw = self._patched.pop()
            setattr(owner, leaf, raw)

    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        spans, stack, now = self.spans, self._stack, time.perf_counter
        name, hook, starts_batch = target.span, target.hook, target.starts_batch
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if starts_batch:
                self.batch_id += 1
            record = [
                name,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                self.pass_id,
                self.batch_id,
            ]
            stack.append(len(spans))
            spans.append(record)
            record[START] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = now()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    # ----- passes ----------------------------------------------------------

    @contextmanager
    def root(self) -> Iterator[None]:
        """One traced pass: a root span every other span of the pass nests in."""
        self.pass_id += 1
        self.batch_id = -1
        record = [ROOT_SPAN, 0.0, 0.0, -1, self.pass_id, -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def take_counts(self) -> Dict[str, float]:
        """The hook counters accumulated since the last call (one pass)."""
        taken = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return taken


@dataclass
class SpanTotals:
    """Per-span-name totals of one pass."""

    #: sum of self times (duration minus child coverage)
    self_s: Dict[str, float]
    #: sum of durations of spans with no same-named ancestor
    inclusive_s: Dict[str, float]
    calls: Dict[str, int]
    root_s: float


def self_times(spans: Sequence[list]) -> List[float]:
    """Self time of each span: its duration minus its children's durations."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def totals_by_pass(spans: Sequence[list]) -> Dict[int, SpanTotals]:
    own = self_times(spans)
    out: Dict[int, SpanTotals] = {}
    for index, s in enumerate(spans):
        totals = out.setdefault(s[PASS_ID], SpanTotals({}, {}, {}, 0.0))
        name = s[NAME]
        totals.self_s[name] = totals.self_s.get(name, 0.0) + own[index]
        totals.calls[name] = totals.calls.get(name, 0) + 1
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            duration = s[END] - s[START]
            totals.inclusive_s[name] = totals.inclusive_s.get(name, 0.0) + duration
        if name == ROOT_SPAN:
            totals.root_s = s[END] - s[START]
    return out


def write_chrome_trace(spans: Sequence[list], pass_id: int, path: Path) -> int:
    """Write one pass as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
    own = self_times(spans)
    chosen = [(i, s) for i, s in enumerate(spans) if s[PASS_ID] == pass_id]
    origin = chosen[0][1][START]
    events = [
        {
            "name": s[NAME],
            "cat": s[NAME].split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (s[START] - origin) * 1e6,
            "dur": (s[END] - s[START]) * 1e6,
            "args": {
                "span": i,
                "parent": s[PARENT],
                "pass": s[PASS_ID],
                "batch": s[BATCH_ID],
                "self_us": own[i] * 1e6,
            },
        }
        for i, s in chosen
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return len(events)
