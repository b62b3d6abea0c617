"""``python3 -m bench compare BASE.json CHANGE.json``.

Each file is a set of runs (``run --out FILE`` appends).  For every
(workload, bounded metric) both sets hold, print the two medians, the ratio
with its base, and a verdict against the metric's bound:

* ``ok`` — the change's median is not worse than the base's by more than
  the bound;
* ``worse`` — it is;
* ``unresolved`` — the run-to-run spread of either set is wider than the
  bound, so the medians cannot settle it — unless every run of one set
  reads better than every run of the other, which does.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Sequence

from bench import stats
from bench.metrics import ALL

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_bounds(benchmark_file: Path = BENCHMARK_FILE) -> dict[str, tuple[str, float]]:
    """Metric name → ``(better, bound)``: the catalogue's bounded metrics,
    with ``BENCHMARK.json``'s end-to-end bounds taking precedence."""
    bounds = {
        metric.name: (metric.better, metric.bound)
        for metric in ALL
        if metric.bound is not None
    }
    for entry in json.loads(benchmark_file.read_text())["end_to_end"]:
        bounds[entry["name"]] = (entry["better"], entry["bound"])
    return bounds


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one (workload, metric)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    # How much worse the change's median is, in absolute terms; the allowance
    # is the bound as a share of the base median.
    worsening = sign * (statistics.median(change) - base_median)
    beyond = worsening > bound * abs(base_median)
    if max(stats.spread(base), stats.spread(change)) > bound:
        all_better = all(sign * (c - b) < 0 for c in change for b in base)
        all_worse = all(sign * (c - b) > 0 for c in change for b in base)
        if all_better:
            return "ok"
        if not (all_worse and beyond):
            return "unresolved"
    return "worse" if beyond else "ok"


def _by_workload(path: Path) -> dict[str, dict[str, list[float]]]:
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for run in json.loads(path.read_text())["runs"]:
        for name, value in run["metrics"].items():
            if value is not None:
                values[run["workload"]][name].append(value)
    return values


def compare_files(base_path: Path, change_path: Path) -> int:
    """Print the comparison table; return 1 if any row is ``worse``."""
    bounds = load_bounds()
    base, change = _by_workload(base_path), _by_workload(change_path)
    worse = 0
    print(f"base {base_path}  change {change_path}")
    print(f"{'workload':<18} {'metric':<16} {'base':>11} {'change':>11} "
          f"{'change/base':>11} {'bound':>6}  verdict")
    for workload in base:
        for name, (better, bound) in bounds.items():
            ours, theirs = base[workload].get(name), change.get(workload, {}).get(name)
            if not ours or not theirs:
                continue
            outcome = verdict(ours, theirs, better, bound)
            worse += outcome == "worse"
            base_median, change_median = statistics.median(ours), statistics.median(theirs)
            ratio = f"{change_median / base_median:.4f}x" if base_median else "n/a"
            print(f"{workload:<18} {name:<16} {base_median:>11.5g} "
                  f"{change_median:>11.5g} {ratio:>11} {bound:>6.2f}  {outcome}"
                  f"  (n={len(ours)}/{len(theirs)})")
    return 1 if worse else 0
