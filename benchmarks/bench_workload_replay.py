"""Golden-fixture workload replay — corpus pass rate + replay cost.

Shape: the full workload corpus (the paper's Q1-Q6 in tumbling form plus
the widened-surface queries: ORDER BY/LIMIT, OR in WHERE/HAVING,
multi-way and LEFT OUTER joins) replays at its fixture-pinned geometry
through the single-engine adaptive path and the one-tenant supervised
fleet path.  Every result is checked against the committed golden
fixtures, whose expected rows were blessed from the uncompressed
baseline path — so the checked pass rate asserts end-to-end answer
equivalence across three execution stacks, not just that the replay ran.

Everything is seeded (trace phases, dataset generators, virtual-time
scheduling), so the pass rate is exactly 1.0 on any machine.
"""

from common import run_bench
from repro.workloads import replay


def collect():
    return replay()


def report(rep):
    lines = ["Workload replay: golden-fixture pass rate per (query, path)"]
    width = max(len(o.query) for o in rep.outcomes)
    for o in rep.outcomes:
        status = "PASS" if o.ok else "FAIL"
        lines.append(f"  {status} {o.query:{width}s} [{o.path}] rows {o.n_rows}")
    lines.append(
        f"  pass rate {rep.pass_rate:.1%} "
        f"({rep.passed}/{rep.checks} checks)"
    )
    return ["\n".join(lines)]


def check(rep):
    # the tentpole invariant: every path reproduces the blessed answers
    assert rep.pass_rate == 1.0, [str(f.to_json()) for f in rep.failures]
    assert rep.checks >= 2 * len({o.query for o in rep.outcomes})


def bench_workload_replay():
    run_bench("workload_replay", collect, report, check)
