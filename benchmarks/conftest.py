"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures through the
experiment registry.  The expensive artifacts (synthetic database, trained CRN
and MSCN models, queries pool, workloads) are built once per process and
shared through :func:`repro.evaluation.get_harness`.

The experiment scale is selected with the ``REPRO_BENCH_PROFILE`` environment
variable (``smoke`` by default so the suite completes in a few minutes;
``default`` is the laptop-scale reproduction of every table; ``paper`` is the
paper-scale configuration and is not intended for CI).

Each benchmark stores the rendered report under ``benchmarks/results/`` so the
reproduced tables can be inspected after the run — and, since the
observability PR, every benchmark also emits **machine-readable rows**
(:mod:`repro.observability.bench`): the registry benches record a
``duration_seconds`` row automatically through :func:`run_and_record`, and the
serving benches record their headline metrics through :func:`bench_record`.
At session end the rows are written to ``benchmarks/results/rows_<suite>.json``
and — with ``REPRO_BENCH_UPDATE=1`` — merged into the checked-in trajectory
files ``BENCH_repro.json`` / ``BENCH_serving.json`` at the repo root, which
``scripts/bench_report.py`` diffs and gates in CI.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.evaluation import ExperimentHarness, get_harness
from repro.evaluation.experiments import run_experiment
from repro.observability.bench import BenchRun, merge_trajectory, write_rows

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

#: One row collector per trajectory suite, shared by the whole session.
#: ``repro`` holds the registry experiments (paper tables/figures),
#: ``serving`` holds the serving-infrastructure benchmarks.
_BENCH_RUNS: dict[str, BenchRun] = {}


def _bench_run(suite: str) -> BenchRun:
    if suite not in _BENCH_RUNS:
        _BENCH_RUNS[suite] = BenchRun(suite)
    return _BENCH_RUNS[suite]


@pytest.fixture(scope="session")
def harness() -> ExperimentHarness:
    """The shared experiment harness (profile from REPRO_BENCH_PROFILE)."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "smoke")
    return get_harness(profile)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def bench_record(results_dir):
    """Record one machine-readable benchmark row.

    ``bench_record(suite, benchmark, metric, value, units, higher_is_better)``
    validates the row against the schema in
    :mod:`repro.observability.bench` and queues it for the session-end write
    (``rows_<suite>.json``, plus the ``BENCH_<suite>.json`` trajectory when
    ``REPRO_BENCH_UPDATE=1``).
    """

    def record(
        suite: str,
        benchmark: str,
        metric: str,
        value: float,
        units: str,
        higher_is_better: bool,
    ):
        return _bench_run(suite).record(
            benchmark, metric, value, units, higher_is_better
        )

    return record


@pytest.fixture()
def run_and_record(harness, results_dir, benchmark):
    """Run one registry experiment exactly once, record its report, return it.

    pytest-benchmark is configured for a single round: the experiments train
    models and evaluate full workloads, so repeating them for statistical
    timing would multiply the runtime without adding information.  Besides
    the rendered report, every experiment emits one ``duration_seconds`` row
    into the ``repro`` trajectory suite (benchmark name
    ``bench_<experiment_id>``, matching the bench file).
    """

    def runner(experiment_id: str):
        started = time.perf_counter()
        report = benchmark.pedantic(
            run_experiment, args=(experiment_id, harness), rounds=1, iterations=1
        )
        elapsed = time.perf_counter() - started
        _bench_run("repro").record(
            f"bench_{experiment_id}",
            "duration_seconds",
            elapsed,
            "s",
            higher_is_better=False,
        )
        path = results_dir / f"{experiment_id}.txt"
        path.write_text(f"{report.title}\n\n{report.text}\n")
        print(f"\n{report}\n")
        return report

    return runner


def pytest_sessionfinish(session, exitstatus):
    """Persist every recorded row; merge trajectories on REPRO_BENCH_UPDATE=1."""
    update = os.environ.get("REPRO_BENCH_UPDATE", "") == "1"
    for suite, run in sorted(_BENCH_RUNS.items()):
        if not run.rows:
            continue
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        write_rows(RESULTS_DIR / f"rows_{suite}.json", run.rows)
        if update:
            merge_trajectory(REPO_ROOT / f"BENCH_{suite}.json", run.rows)
