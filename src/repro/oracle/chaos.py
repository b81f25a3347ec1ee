"""Chaos campaign: differential testing *through the serving layer*.

The plain oracle (:mod:`.differential`) checks that compressed execution
agrees with uncompressed execution.  The chaos campaign checks the same
end-to-end property one layer up: a seeded multi-tenant fleet is run
through the :class:`~repro.serve.supervisor.ServeSupervisor` under
injected link faults, poison batches and crash/restart cycles, and every
*delivered* result must still be exactly what a clean, uninterrupted
single-tenant run produces.

Concretely, for each case the invariant has three parts:

1. **zero mismatches** — every delivered batch output equals the clean
   reference for that batch index (canonicalized, float-tolerant, via
   the PR 2 comparators);
2. **prefix-consistent subset** — delivered indices are a subset of the
   clean run's indices; nothing is invented, duplicated or reordered;
3. **accounted gaps** — every missing batch is explained by a
   dead-letter quarantine, deterministic load shedding, or a parked
   (QUARANTINED) tenant; no batch silently vanishes.

On failure the campaign writes a deterministic repro JSON (the tenant
specs and fault parameters needed to replay the case) plus a checkpoint
dump — the same artifact plumbing CI already collects for the oracle.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..net.faults import FaultProfile
from ..serve.checkpoint import CheckpointStore
from ..serve.report import QUARANTINED as HEALTH_QUARANTINED
from ..serve.session import TenantSession, TenantSpec
from ..serve.supervisor import ServeSupervisor
from .differential import compare_results

#: queries the generator cycles through (all six evaluation queries)
CHAOS_QUERIES = ("q1", "q2", "q3", "q4", "q5", "q6")

#: upper bound for the per-tenant drop/corrupt rates the RNG draws
MAX_LOSS_RATE = 0.08
#: probability that a tenant carries a poison (crash-injected) batch
CRASH_PROBABILITY = 0.3


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos campaign."""

    cases: int = 10
    seed: int = 0
    tenants: int = 3
    batches: int = 6
    batch_size: int = 384
    #: cap retries so heavy-loss tenants dead-letter instead of grinding
    max_retries: int = 3
    out_dir: str = "chaos-artifacts"
    max_failures: int = 3
    rtol: float = 1e-9
    atol: float = 1e-9


@dataclass
class ChaosMismatch:
    """One broken invariant in one case."""

    case_id: int
    tenant: str
    kind: str  # "mismatch" | "unaccounted" | "stuck"
    detail: str

    def __str__(self) -> str:
        return f"case {self.case_id} tenant {self.tenant} [{self.kind}]: {self.detail}"


@dataclass
class ChaosResult:
    config: ChaosConfig
    cases_run: int = 0
    tenants_run: int = 0
    batches_delivered: int = 0
    batches_dead_lettered: int = 0
    batches_shed: int = 0
    tenants_quarantined: int = 0
    mismatches: List[ChaosMismatch] = field(default_factory=list)
    artifact_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def case_specs(config: ChaosConfig, case_id: int) -> List[TenantSpec]:
    """The seeded tenant fleet for one case — pure function of the seeds."""
    rng = np.random.default_rng([config.seed, case_id])
    specs = []
    for t in range(config.tenants):
        query = CHAOS_QUERIES[int(rng.integers(0, len(CHAOS_QUERIES)))]
        loss = float(rng.uniform(0.0, MAX_LOSS_RATE))
        profile = FaultProfile(
            drop_rate=loss,
            corrupt_rate=loss,
            duplicate_rate=float(rng.uniform(0.0, 0.05)),
            stall_rate=float(rng.uniform(0.0, 0.05)),
            seed=int(rng.integers(0, 2**31)),
        )
        crash_batches: Tuple[int, ...] = ()
        if float(rng.random()) < CRASH_PROBABILITY:
            crash_batches = (int(rng.integers(1, config.batches)),)
        from ..net.transport import ReliabilityConfig

        specs.append(
            TenantSpec(
                tenant=f"case{case_id}-t{t}",
                query=query,
                batches=config.batches,
                batch_size=config.batch_size,
                seed=int(rng.integers(0, 2**31)),
                fault_profile=profile,
                reliability=ReliabilityConfig(max_retries=config.max_retries),
                crash_batches=crash_batches,
                checkpoint_every=2,
            )
        )
    return specs


def clean_reference(spec: TenantSpec) -> Dict[int, "object"]:
    """Uninterrupted fault-free outputs for one tenant's workload."""
    from dataclasses import replace

    clean_spec = replace(
        spec, fault_profile=None, reliability=None, crash_batches=()
    )
    session = TenantSession(clean_spec)
    while not session.done:
        session.step(0.0)
    return dict(session.outputs)


def run_chaos_case(
    config: ChaosConfig, case_id: int
) -> Tuple[List[ChaosMismatch], ServeSupervisor, "ChaosCaseStats"]:
    """Run one seeded fleet through the supervisor and check invariants."""
    specs = case_specs(config, case_id)
    store = CheckpointStore()
    supervisor = ServeSupervisor(specs, store=store)
    report = supervisor.run()
    stats = ChaosCaseStats()
    mismatches: List[ChaosMismatch] = []
    by_tenant = report.by_tenant()
    for spec in specs:
        tenant = by_tenant[spec.tenant]
        stats.delivered += tenant.batches_delivered
        stats.dead_lettered += tenant.dead_letters
        stats.shed += tenant.batches_shed
        if tenant.health == HEALTH_QUARANTINED:
            stats.quarantined_tenants += 1
        delivered = supervisor.outputs(spec.tenant)
        clean = clean_reference(spec)
        # (2) prefix-consistent subset: delivered ⊆ clean indices
        extra = sorted(set(delivered) - set(clean))
        if extra:
            mismatches.append(
                ChaosMismatch(
                    case_id,
                    spec.tenant,
                    "mismatch",
                    f"delivered batches {extra} beyond the clean run",
                )
            )
            continue
        # (1) zero mismatches at every delivered index
        for index in sorted(delivered):
            detail = compare_results(
                clean[index], delivered[index], rtol=config.rtol, atol=config.atol
            )
            if detail is not None:
                mismatches.append(
                    ChaosMismatch(
                        case_id,
                        spec.tenant,
                        "mismatch",
                        f"batch {index}: {detail}",
                    )
                )
                break
        # (3) every gap is accounted for
        missing = len(clean) - len(delivered)
        accounted = tenant.dead_letters + tenant.batches_shed
        if tenant.health == HEALTH_QUARANTINED:
            accounted += tenant.batches_quarantined
        if missing > accounted:
            mismatches.append(
                ChaosMismatch(
                    case_id,
                    spec.tenant,
                    "unaccounted",
                    f"{missing} batches missing but only {accounted} accounted "
                    f"(dead-letters {tenant.dead_letters}, shed "
                    f"{tenant.batches_shed}, health {tenant.health})",
                )
            )
        if tenant.health not in ("HEALTHY", "DEGRADED", HEALTH_QUARANTINED):
            mismatches.append(
                ChaosMismatch(
                    case_id, spec.tenant, "stuck", f"health {tenant.health!r}"
                )
            )
    return mismatches, supervisor, stats


@dataclass
class ChaosCaseStats:
    delivered: int = 0
    dead_lettered: int = 0
    shed: int = 0
    quarantined_tenants: int = 0


def _write_artifacts(
    config: ChaosConfig,
    case_id: int,
    mismatches: List[ChaosMismatch],
    supervisor: ServeSupervisor,
) -> List[str]:
    """Failure artifacts: a replayable repro JSON + checkpoint dumps."""
    os.makedirs(config.out_dir, exist_ok=True)
    paths: List[str] = []
    repro = {
        "kind": "chaos-repro",
        "seed": config.seed,
        "case_id": case_id,
        "tenants": config.tenants,
        "batches": config.batches,
        "batch_size": config.batch_size,
        "max_loss_rate": MAX_LOSS_RATE,
        "crash_probability": CRASH_PROBABILITY,
        "max_retries": config.max_retries,
        "replay": (
            f"python -m repro oracle --chaos --cases 1 "
            f"--seed {config.seed} --case-offset {case_id}"
        ),
        "mismatches": [str(m) for m in mismatches],
    }
    repro_path = os.path.join(config.out_dir, f"chaos_case{case_id:05d}.json")
    with open(repro_path, "w") as fh:
        json.dump(repro, fh, indent=2, sort_keys=True)
    paths.append(repro_path)
    ckpt_dir = os.path.join(config.out_dir, f"chaos_case{case_id:05d}_checkpoints")
    for written in supervisor.store.dump(ckpt_dir):
        paths.append(str(written))
    return paths


ProgressFn = Callable[[int, int], None]


def run_chaos_campaign(
    config: ChaosConfig,
    progress: Optional[ProgressFn] = None,
    case_offset: int = 0,
) -> ChaosResult:
    """Run ``config.cases`` seeded fleets; collect mismatches + artifacts."""
    if config.cases < 1:
        raise ReproError("a chaos campaign needs at least one case")
    result = ChaosResult(config=config)
    failing = 0
    for i in range(config.cases):
        case_id = case_offset + i
        mismatches, supervisor, stats = run_chaos_case(config, case_id)
        result.cases_run += 1
        result.tenants_run += config.tenants
        result.batches_delivered += stats.delivered
        result.batches_dead_lettered += stats.dead_lettered
        result.batches_shed += stats.shed
        result.tenants_quarantined += stats.quarantined_tenants
        if mismatches:
            failing += 1
            result.mismatches.extend(mismatches)
            result.artifact_paths.extend(
                _write_artifacts(config, case_id, mismatches, supervisor)
            )
            if failing >= config.max_failures:
                break
        if progress is not None:
            progress(i + 1, config.cases)
    return result
