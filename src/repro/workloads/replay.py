"""Trace replay: run the corpus through both engine paths, score fixtures.

Each selected corpus entry replays at its fixture-pinned geometry through

``single``
    one adaptive :class:`~repro.core.engine.CompressStreamDB` pipeline —
    the direct-on-compressed path the paper evaluates;
``fleet``
    a one-tenant :class:`~repro.serve.ServeSupervisor` run resolving the
    query via ``TenantSpec.query_module`` — the PR-6 serving layer with
    its checkpointing and virtual-time scheduling in the loop;

and every path's merged output is checked against the committed golden
fixture.  Blessing (``--bless``) re-records fixtures from the *baseline*
path (identity codecs, decode-first): the uncompressed reference
semantics, so a fixture can never encode a direct-path bug as expected.

Mismatches are scored into the pass rate (the campaign keeps going);
only harness misconfiguration — unknown query, missing/stale fixture —
raises :class:`~repro.errors.WorkloadError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.engine import CompressStreamDB, EngineConfig
from ..errors import WorkloadError
from ..serve import ServeSupervisor, TenantSpec
from ..sql.executor import QueryResult
from .corpus import CorpusEntry, select_entries
from .fixtures import check_fixture, load_fixture, save_fixture

PATH_SINGLE = "single"
PATH_FLEET = "fleet"
PATHS = (PATH_SINGLE, PATH_FLEET)

#: the module fleet tenants resolve corpus queries in
CORPUS_MODULE = "repro.workloads.corpus"


@dataclass
class ReplayOutcome:
    """One (query, path) check against the golden fixture."""

    query: str
    path: str
    ok: bool
    detail: str = ""
    n_rows: int = 0
    tuples: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "path": self.path,
            "ok": self.ok,
            "detail": self.detail,
            "n_rows": self.n_rows,
            "tuples": self.tuples,
        }


@dataclass
class WorkloadReport:
    """Pass-rate accounting for one replay campaign."""

    outcomes: List[ReplayOutcome] = field(default_factory=list)
    blessed: List[str] = field(default_factory=list)

    @property
    def checks(self) -> int:
        return len(self.outcomes)

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def pass_rate(self) -> float:
        if not self.outcomes:
            return 1.0
        return self.passed / self.checks

    @property
    def tuples(self) -> int:
        return sum(o.tuples for o in self.outcomes)

    @property
    def failures(self) -> List[ReplayOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def to_json(self) -> Dict[str, Any]:
        return {
            "pass_rate": self.pass_rate,
            "checks": self.checks,
            "passed": self.passed,
            "failed": self.checks - self.passed,
            "blessed": list(self.blessed),
            "outcomes": [o.to_json() for o in self.outcomes],
        }

    def summary_rows(self) -> List[Tuple[str, str]]:
        return [
            ("queries", str(len({o.query for o in self.outcomes}))),
            ("checks", str(self.checks)),
            ("passed", str(self.passed)),
            ("failed", str(self.checks - self.passed)),
            ("pass rate", f"{self.pass_rate:.1%}"),
        ]


# ----- the three execution paths ---------------------------------------


def run_single(entry: CorpusEntry, mode: str = "adaptive") -> QueryResult:
    """One engine pipeline over the entry's pinned source."""
    engine = CompressStreamDB(
        catalog=entry.catalog,
        query=entry.sql,
        # selection from the shipped calibration table alone keeps the
        # replay deterministic across processes
        config=EngineConfig(mode=mode, profile_query=False),
    )
    report = engine.run(entry.source(), collect_outputs=True)
    assert report.outputs is not None
    return report.outputs


def run_baseline(entry: CorpusEntry) -> QueryResult:
    """Uncompressed decode-first reference semantics (the bless path)."""
    engine = CompressStreamDB(
        catalog=entry.catalog,
        query=entry.sql,
        config=EngineConfig(mode="baseline", force_decode=True, profile_query=False),
    )
    report = engine.run(entry.source(), collect_outputs=True)
    assert report.outputs is not None
    return report.outputs


def run_fleet(entry: CorpusEntry) -> QueryResult:
    """The entry through a one-tenant supervised serving run."""
    spec = TenantSpec(
        tenant=f"w-{entry.name}",
        query=entry.name,
        query_module=CORPUS_MODULE,
        batches=entry.batches,
        batch_size=entry.batch_size,
        seed=entry.seed,
    )
    supervisor = ServeSupervisor([spec])
    report = supervisor.run()
    if report.delivered_fraction != 1.0:
        raise WorkloadError(
            f"fleet replay of {entry.name!r} lost batches on a clean link "
            f"(delivered {report.delivered_fraction:.0%})"
        )
    return supervisor.merged_outputs(spec.tenant)


# ----- campaign driver --------------------------------------------------


def bless_entries(
    entries: Iterable[CorpusEntry],
    fixture_dir: Optional[Path] = None,
) -> List[str]:
    """Re-record golden fixtures from the baseline reference path."""
    blessed = []
    for entry in entries:
        save_fixture(entry, run_baseline(entry), fixture_dir)
        blessed.append(entry.name)
    return blessed


def replay(
    names: Optional[Iterable[str]] = None,
    trace: str = "",
    quick: bool = False,
    paths: Tuple[str, ...] = PATHS,
    bless: bool = False,
    fixture_dir: Optional[Path] = None,
) -> WorkloadReport:
    """Run a replay campaign; see the module docstring for the paths."""
    for path in paths:
        if path not in PATHS:
            raise WorkloadError(f"unknown replay path {path!r} (use {PATHS})")
    entries = select_entries(names, trace=trace, quick=quick)
    report = WorkloadReport()
    if bless:
        report.blessed = bless_entries(entries, fixture_dir)
    for entry in entries:
        load_fixture(entry.name, fixture_dir)  # fail fast before running
        for path in paths:
            result = (
                run_single(entry) if path == PATH_SINGLE else run_fleet(entry)
            )
            detail = check_fixture(entry, result, fixture_dir)
            report.outcomes.append(
                ReplayOutcome(
                    query=entry.name,
                    path=path,
                    ok=detail is None,
                    detail=detail or "",
                    n_rows=result.n_rows,
                    tuples=entry.batch_size * entry.batches,
                )
            )
    return report
