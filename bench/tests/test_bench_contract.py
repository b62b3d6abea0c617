"""``BENCHMARK.json`` and the catalogue in ``bench/metrics.py`` say the same."""

from __future__ import annotations

import json
import re

from bench.compare import BENCHMARK_FILE
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_catalogue():
    contract = json.loads(BENCHMARK_FILE.read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert contract["command"][:3] == ["python3", "-m", "bench"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (name, workload.why) for name, workload in WORKLOADS.items()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
    for workload in contract["workloads"]:
        assert NAME.match(workload["name"]) and len(workload["why"]) <= 200
    assert all(m["bound"] <= 0.25 for m in contract["end_to_end"])
