"""A scaled-down run of all five workloads emits every catalogued metric."""

from __future__ import annotations

import json
import time

import pytest

from bench.cli import _driver_line
from bench.metrics import ALL, END_TO_END, PER_LAYER
from bench.runner import run_workload
from bench.workloads import WORKLOADS

#: Layers each workload must exercise (non-null), beyond the shared set.
EXERCISED = {
    "paper_pool": {"core.crn.pair_head.self_ms", "artifacts.save_s", "artifacts.boot_s",
                   "qerror_p50"},
    "big_bucket": {"serving.inference_plan.kernel.self_ms",
                   "serving.inference_plan.kernel.rows_per_s"},
    "session_burst": {"serving.dispatcher.queue_wait_p50_ms",
                      "serving.dispatcher.mean_batch_size",
                      "observability.events_per_request", "observability.flush_s",
                      "serving.planner.dedup_share", "qerror_p90"},
    "pool_churn": {"core.queries_pool.add.self_ms",
                   "serving.pool_index.read_after_add_p50_ms",
                   "serving.pool_index.appended_rows"},
    "cluster_roundtrip": {"cluster.protocol.encode.self_ms",
                          "cluster.protocol.request_bytes",
                          "cluster.router.wire_overhead_p50_ms",
                          "cluster.worker.service_p50_ms",
                          "cluster.router.batch32_qps",
                          "cluster.supervisor.boot_s",
                          "cluster.supervisor.shutdown_s"},
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_scaled_down_workload_emits_every_metric(name, tiny_world, tmp_path):
    started = time.perf_counter()
    record = run_workload(
        name,
        seed=11,
        seconds=0.05,
        scale=tiny_world.scale,
        world=tiny_world,
        workroot=str(tmp_path),
    )
    assert time.perf_counter() - started < 10.0
    assert record["correct"], record["first_error"]
    assert record["failed"] == 0 and record["attempted"] > record["verified"] > 0
    metrics = record["metrics"]
    assert set(metrics) == {metric.name for metric in ALL}
    for metric in END_TO_END:
        assert metrics[metric.name] > 0, metric.name
    assert metrics["failed_share"] == 0.0
    assert metrics["sql.parse.self_ms"] > 0
    assert metrics["serving.client.untraced_ms"] is not None
    assert 0.5 < metrics["bench.tracing_overhead"] < 3.0
    for metric in EXERCISED[name]:
        assert metrics[metric] is not None, metric
    cluster = {m for m in metrics if m.startswith("cluster.") and metrics[m] is not None}
    assert bool(cluster) == (name == "cluster_roundtrip")
    assert record["missing_wrap_points"] == []
    assert list(tmp_path.iterdir()) == []  # scratch is removed
    # Both driver lines carry a number for every metric of their kind.
    for trace, chosen in ((0, END_TO_END), (1, PER_LAYER)):
        line = json.loads(_driver_line(record, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {metric.name for metric in chosen}
        assert all(
            isinstance(entry["value"], (int, float)) for entry in line["metrics"].values()
        )
    if trace_rows := record["spans"]:
        assert {"id", "name", "start", "end", "parent", "request"} == set(trace_rows[0])
