"""Wall-clock performance ledger: one command, seven workloads.

    python3 benchmarks/ledger/run.py --workload agg_tumbling
    python3 benchmarks/ledger/run.py --workload agg_tumbling --trace 1
    python3 benchmarks/ledger/run.py --all --out bench-json/ledger/a.json
    python3 benchmarks/ledger/run.py --agree a.json b.json

One workload runs in this interpreter: set-up, timed passes for
``--seconds`` seconds, output checks, then every metric by name with its
unit and, as the last line of stdout, one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--all`` runs the seven workloads one after another, each in a fresh
interpreter, untraced and traced, and writes a result set; ``--agree``
holds two result sets of the same commit against the ledger's own bounds.

The exit code is non-zero when an output was wrong, an op was lost, or
two result sets disagree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Sequence

import metrics

LEDGER_DIR = Path(__file__).resolve().parent
SRC_DIR = LEDGER_DIR.parents[1] / "src"


def load_measure():
    """Import the engine from this checkout's ``src``; (module, seconds)."""
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"ledger: no engine source at {SRC_DIR}")
    for entry in (str(SRC_DIR), str(LEDGER_DIR)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    started = perf_counter()
    import repro

    if SRC_DIR not in Path(repro.__file__).resolve().parents:
        sys.exit(f"ledger: imported repro from {repro.__file__}, not {SRC_DIR}")
    import measure

    return measure, perf_counter() - started


def run_one(args: argparse.Namespace) -> int:
    measure, import_s = load_measure()
    result = measure.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, import_s
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh interpreter, untraced then traced."""
    result_set: Dict[str, Dict[str, dict]] = {}
    status = 0
    for name in metrics.WORKLOADS:
        result_set[name] = {}
        for trace in (0, 1):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(trace),
            ]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.rstrip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                status = 1
            if lines:
                kind = "per_layer" if trace else "end_to_end"
                result_set[name][kind] = json.loads(lines[-1])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "workloads": result_set}, indent=1))
    print(f"result set written to {out}")
    return status


def agree(path_a: str, path_b: str) -> int:
    """Two result sets of one commit against the ledger's own bounds.

    End-to-end metrics may differ by at most their bound (relative to the
    first set); counts declared exact must be identical.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    breaches = 0
    print(f"{'workload':<18}{'metric':<28}{'A':>14}{'B':>14}{'diff':>9}{'bound':>8}")
    for name in metrics.WORKLOADS:
        for metric in metrics.END_TO_END:
            va = a[name]["end_to_end"]["metrics"][metric.name]["value"]
            vb = b[name]["end_to_end"]["metrics"][metric.name]["value"]
            diff = abs(vb - va) / abs(va)
            breach = diff > metric.bound
            breaches += breach
            print(
                f"{name:<18}{metric.name:<28}{va:>14.6g}{vb:>14.6g}"
                f"{diff:>9.2%}{metric.bound:>8.0%}{'  BREACH' if breach else ''}"
            )
        for layer in metrics.PER_LAYER:
            if not layer.exact:
                continue
            va = a[name]["per_layer"]["metrics"][layer.name]["value"]
            vb = b[name]["per_layer"]["metrics"][layer.name]["value"]
            if va != vb:
                breaches += 1
                print(f"{name:<18}{layer.name:<28}{va:>14}{vb:>14}  COUNT DIFFERS")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run all seven workloads")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, one pass (self-test)"
    )
    parser.add_argument("--out", default="bench-json/ledger/results.json")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed is added to every dataset and fault seed: give one >= 0")
    if args.agree:
        return agree(*args.agree)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload NAME, --all or --agree A.json B.json")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
