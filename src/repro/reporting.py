"""Text reporting: fixed-width tables and run comparisons.

The paper benches (``benchmarks/``) and the CLI render every table
through this module; it is public API so downstream users can print
their own experiment grids the same way.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

from .core.metrics import RunReport
from .core.profiler import STAGES
from .net.faults import FAULT_KINDS, FaultReport

Cell = Union[str, int, float]


class TextTable:
    """A fixed-width text table accumulated row by row.

    Floats render with three decimals by default; pass pre-formatted
    strings for custom formatting.  ``render(markdown=True)`` emits a
    GitHub-flavoured markdown table instead.
    """

    def __init__(self, headers: Sequence[str], title: str = ""):
        if not headers:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add(self, *cells: Cell) -> "TextTable":
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(
            [f"{c:.3f}" if isinstance(c, float) else str(c) for c in cells]
        )
        return self

    def render(self, markdown: bool = False) -> str:
        if markdown:
            lines = []
            if self.title:
                lines.append(f"**{self.title}**")
                lines.append("")
            lines.append("| " + " | ".join(self.headers) + " |")
            lines.append("|" + "|".join("---" for _ in self.headers) + "|")
            for row in self.rows:
                lines.append("| " + " | ".join(row) + " |")
            return "\n".join(lines)
        widths = [
            max(len(h), *(len(r[i]) for r in self.rows)) if self.rows else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def compare_runs(
    reports: Mapping[str, RunReport],
    baseline: Optional[str] = None,
    title: str = "Run comparison",
) -> TextTable:
    """Side-by-side comparison of runs, optionally normalized to one.

    With ``baseline`` set, throughput and latency show ratios against that
    run (the way the paper's Figs. 5/6 normalize to the uncompressed
    engine).
    """
    if baseline is not None and baseline not in reports:
        raise KeyError(f"baseline {baseline!r} not among reports")
    base = reports[baseline] if baseline else None
    table = TextTable(
        ["run", "throughput", "latency", "r", "space saving", "bytes sent"],
        title=title,
    )
    for name, rep in reports.items():
        if base is not None and base.throughput > 0 and base.avg_latency > 0:
            throughput = f"{rep.throughput / base.throughput:.2f}x"
            latency = f"{rep.avg_latency / base.avg_latency:.2f}x"
        else:
            throughput = f"{rep.throughput:,.0f} tup/s"
            latency = f"{rep.avg_latency * 1e3:.2f} ms"
        table.add(
            name,
            throughput,
            latency,
            f"{rep.compression_ratio:.2f}",
            f"{rep.space_saving * 100:.1f}%",
            rep.profiler.bytes_sent,
        )
    return table


def stage_breakdown_table(
    reports: Mapping[str, RunReport], title: str = "Time breakdown"
) -> TextTable:
    """Per-stage share of total time for each run."""
    table = TextTable(["run", *STAGES], title=title)
    for name, rep in reports.items():
        breakdown = rep.breakdown()
        table.add(name, *(f"{breakdown[s] * 100:.1f}%" for s in STAGES))
    return table


def serve_report_table(report, title: str = "Serving report") -> TextTable:
    """Render a :class:`~repro.serve.report.ServeReport` as two sections.

    A fleet summary (health counts, goodput, p95) followed by one row per
    tenant.  Accepts the report duck-typed to avoid importing the serving
    layer for users who only want engine tables.
    """
    table = TextTable(
        [
            "tenant",
            "health",
            "delivered",
            "shed",
            "dead",
            "restarts",
            "trips",
            "ckpts",
            "p95 ms",
        ],
        title=title,
    )
    for t in report.tenants:
        table.add(
            t.tenant,
            t.health,
            f"{t.batches_delivered}/{t.batches_total}",
            t.batches_shed,
            t.dead_letters,
            t.restarts,
            t.breaker_trips,
            t.checkpoints_saved,
            f"{t.p95_latency_s() * 1e3:.2f}",
        )
    return table


def fault_report_table(
    report: FaultReport, title: str = "Fault report"
) -> TextTable:
    """Render one run's fault/recovery accounting as a metric table."""
    table = TextTable(["metric", "value"], title=title)
    for kind in FAULT_KINDS:
        table.add(f"injected {kind}", report.injected.get(kind, 0))
    table.add("detected (batches)", report.detected)
    table.add("retransmissions", report.retried)
    table.add("recovered (batches)", report.recovered)
    table.add("quarantined (batches)", report.quarantined)
    table.add("quarantined tuples", report.quarantined_tuples)
    table.add("corrupt frames seen", report.corrupt_frames)
    table.add("timeouts", report.timeouts)
    table.add("duplicates discarded", report.duplicates_discarded)
    table.add("retry virtual seconds", f"{report.retry_seconds:.4f}")
    table.add("codec demotions", len(report.codec_demotions))
    for demotion in report.codec_demotions:
        table.add(
            f"  demoted {demotion.column}",
            f"{demotion.codec} after {demotion.failures} failures",
        )
    return table
