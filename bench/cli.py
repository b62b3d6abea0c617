"""Command line: ``python3 -m bench run`` and ``python3 -m bench compare``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for artifacts and per-workload result hand-over; gitignored.
WORK_ROOT = REPO_ROOT / ".bench_work"


def _environment() -> dict[str, Any]:
    import numpy

    revision = None
    if (REPO_ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=30,
        )
        revision = found.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
    }


def _print_record(record: dict[str, Any]) -> None:
    from bench.metrics import ALL
    from bench.stats import quartiles

    print(f"== {record['workload']} (seed {record['seed']}): {record['why']}")
    print(
        f"   rounds {record['rounds']}, samples {record['samples']} (tail "
        f"supported to p{record['supported_tail_percentile']:g}), attempted "
        f"{record['attempted']}, failed {record['failed']}, verified "
        f"{record['verified']}"
    )
    if record["first_error"]:
        print(f"   first failure: {record['first_error']}")
    for metric in ALL:
        value = record["metrics"][metric.name]
        shown = "null" if value is None else f"{value:.6g}"
        line = f"   {metric.name:<48} {shown:>12} {metric.unit:<6}"
        if metric.bound is not None:
            line += f" bound {metric.bound:g}"
        per_round = record["per_round"].get(metric.name)
        if per_round:
            line += "  per-round q1/q2/q3 " + "/".join(
                f"{q:.4g}" for q in quartiles(per_round)
            )
        print(line)
    if record["missing_wrap_points"]:
        print(f"   wrap points not found: {', '.join(record['missing_wrap_points'])}")


def _driver_line(record: dict[str, Any], trace: int) -> str:
    """The contract's last line: end-to-end metrics, or per-layer with trace 1.

    The contract wants a number for every metric, so a layer the workload
    does not exercise (``null`` in the record) reads 0 here.
    """
    from bench.metrics import END_TO_END, PER_LAYER

    chosen = PER_LAYER if trace == 1 else END_TO_END
    values = record["metrics"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric.name: {
                    "value": 0.0 if values[metric.name] is None else values[metric.name],
                    "unit": metric.unit,
                }
                for metric in chosen
            },
        }
    )


def _write_out(path: Path, record: dict[str, Any]) -> None:
    """Append ``record`` to the result file at ``path`` (a set of runs).

    Spans go to a sibling ``.spans.jsonl`` so the result file stays small.
    """
    document = {"environment": _environment(), "runs": []}
    if path.exists():
        document["runs"] = json.loads(path.read_text())["runs"]
    spans_path = path.with_suffix(".spans.jsonl")
    with open(spans_path, "a") as stream:
        for row in record.pop("spans"):
            row["workload"], row["seed"] = record["workload"], record["seed"]
            stream.write(json.dumps(row) + "\n")
    document["runs"].append(record)
    path.write_text(json.dumps(document, indent=1) + "\n")


def _run(args: argparse.Namespace) -> int:
    from bench.workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    if args.workload is not None:
        from bench.runner import run_workload

        record = run_workload(
            args.workload, args.seed, args.seconds, args.trace, workroot=str(WORK_ROOT)
        )
        _print_record(record)
        if args.out is not None:
            _write_out(Path(args.out), record)
        print(_driver_line(record, args.trace))
        return 0 if record["correct"] else 1
    # One child per workload: each gets a fresh process, so peak RSS and
    # lazily built state never leak from one workload into the next.  The
    # children append to the same --out themselves.
    failed = []
    for name in WORKLOADS:
        command = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", args.out]
        child = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
        # Everything but the child's driver line, which only the driver reads.
        sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
        if child.returncode != 0:
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    from bench.workloads import WORKLOADS
    from bench.world import DEFAULT_SEED

    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload, or all five")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=8.0,
                     help="length of each measured phase")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: end-to-end phase only; 1: trace phase only; "
                          "unset: both")
    run.add_argument("--out", help="result file to append this run to")
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(Path(args.base), Path(args.change))
    return _run(args)
