"""The shipped calibration table is the one default cost table.

Nothing but ``repro calibrate`` measures: engines, fleets and
serializers built without ``calibration=`` price codecs from
``repro/core/calibration.json``, so with ``profile_query=False`` codec
choices agree across runs and processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CompressStreamDB, EngineConfig
from repro.compression.registry import all_codec_names
from repro.core import calibration
from repro.core.calibration import SHIPPED_TABLE, CalibrationTable
from repro.datasets import QUERIES
from repro.serve import ServeSupervisor, TenantSpec
from repro.wire import StreamSerializer

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def shipped(monkeypatch) -> CalibrationTable:
    """The shipped table, with live measurement made to fail loudly."""

    def measure(*args, **kwargs):
        raise AssertionError("only `repro calibrate` may measure codecs")

    monkeypatch.setattr(calibration, "calibrate", measure)
    calibration.default_calibration.cache_clear()
    return CalibrationTable.load(SHIPPED_TABLE)


def _table_of(client) -> CalibrationTable:
    return client.selector.cost_model.table


class TestDefaultTable:
    def test_engine_prices_plan_and_codecs_from_shipped_table(self, shipped):
        q = QUERIES["q1"]
        for mode in ("adaptive", "static:rle"):
            implicit = CompressStreamDB(
                q.catalog, q.text(slide=q.window), EngineConfig(mode=mode)
            )
            explicit = CompressStreamDB(
                q.catalog,
                q.text(slide=q.window),
                EngineConfig(mode=mode, calibration=shipped),
            )
            # the optimizer sees the same table as the selector
            assert implicit.plan.opt == explicit.plan.opt
            if mode == "adaptive":
                assert _table_of(implicit.make_pipeline().client) == shipped

    def test_fleet_tenant_selects_from_shipped_table(self, shipped):
        spec = TenantSpec(tenant="t0", query="q5", batches=2, batch_size=256)
        supervisor = ServeSupervisor([spec])
        session = supervisor.runners[0].session
        assert _table_of(session.pipeline.client) == shipped

    def test_serializer_selects_from_shipped_table(self, shipped):
        serializer = StreamSerializer(QUERIES["q1"].schema)
        assert _table_of(serializer._client) == shipped

    def test_table_covers_every_registry_codec(self):
        # a codec added without `repro calibrate --out <shipped table>`
        # has no price and fails here
        table = CalibrationTable.load(SHIPPED_TABLE)
        assert sorted(table.timings) == sorted(all_codec_names())


DISK_CASE = """
import json
from repro import CompressStreamDB, EngineConfig
from repro.datasets import QUERIES

q = QUERIES["q6"]
engine = CompressStreamDB(
    q.catalog, q.text(slide=q.window), EngineConfig(profile_query=False)
)
report = engine.run(q.make_source(batch_size=1024, batches=32, seed=11))
print(json.dumps(report.decision_log, sort_keys=True))
"""


@pytest.mark.slow
def test_fresh_processes_agree_on_decision_log():
    """The cluster ``disk`` column sits near a dict/ns tie at small batches;
    a per-process measured table split fresh processes on it."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    logs = [
        subprocess.run(
            [sys.executable, "-c", DISK_CASE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for _ in range(8)
    ]
    assert all("disk" in entry for entry in json.loads(logs[0]))
    assert len(set(logs)) == 1
