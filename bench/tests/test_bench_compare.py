"""``compare`` verdicts on hand-made result files."""

from __future__ import annotations

import json

import pytest

from bench.compare import compare_files, load_bounds, verdict


def test_verdict_ok_worse_and_direction():
    base = [10.0, 10.1, 9.9, 10.0]
    assert verdict(base, [10.5, 10.4, 10.6, 10.5], "lower", 0.10) == "ok"
    assert verdict(base, [11.5, 11.4, 11.6, 11.5], "lower", 0.10) == "worse"
    assert verdict(base, [8.0, 8.1, 7.9, 8.0], "lower", 0.10) == "ok"
    assert verdict(base, [8.0, 8.1, 7.9, 8.0], "higher", 0.10) == "worse"
    assert verdict(base, [12.0, 12.1, 11.9, 12.0], "higher", 0.10) == "ok"


def test_verdict_unresolved_when_spread_is_wider_than_bound():
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert verdict(noisy, [9.0, 11.0, 13.0, 15.0], "lower", 0.10) == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert verdict(noisy, [4.0, 5.0, 6.0, 7.0], "lower", 0.10) == "ok"
    assert verdict(noisy, [20.0, 25.0, 30.0, 35.0], "lower", 0.10) == "worse"


def test_verdict_absolute_bound_on_a_zero_baseline():
    assert verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0) == "ok"
    assert verdict([0.0, 0.0], [0.01, 0.01], "lower", 0.0) == "worse"


def _result_file(path, latency, qps, failed_share=0.0):
    runs = [
        {
            "workload": "paper_pool",
            "seed": 11,
            "metrics": {
                "latency_p50_ms": value,
                "throughput_qps": qps,
                "failed_share": failed_share,
                "sql.parse.self_ms": None,
            },
        }
        for value in latency
    ]
    path.write_text(json.dumps({"environment": {}, "runs": runs}))
    return path


def test_compare_files_exit_code_and_table(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", [1.00, 1.01, 0.99], 1000.0)
    same = _result_file(tmp_path / "b.json", [1.02, 1.00, 1.01], 1010.0)
    slow = _result_file(tmp_path / "c.json", [1.30, 1.31, 1.29], 1000.0)
    broken = _result_file(tmp_path / "d.json", [1.00, 1.01, 0.99], 1000.0, 0.01)
    assert compare_files(base, same) == 0
    table = capsys.readouterr().out
    assert "paper_pool" in table and "latency_p50_ms" in table and "worse" not in table
    assert compare_files(base, slow) == 1
    assert "worse" in capsys.readouterr().out
    assert compare_files(base, broken) == 1
    assert "failed_share" in capsys.readouterr().out


def test_bounds_come_from_benchmark_json():
    bounds = load_bounds()
    assert bounds["latency_p50_ms"] == ("lower", pytest.approx(0.25))
    assert bounds["throughput_qps"][0] == "higher"
    assert bounds["failed_share"] == ("lower", 0.0)
