"""Design-size numbers ROADMAP item 2 tracks: source lines, symbols, options.

These are counts, not timings: a simplification PR should move them *down*
while the timing gates hold.  Recording them as ``repro`` trajectory rows makes
the trend visible next to the speed rows (``scripts/bench_report.py show``).

* ``src_lines_serving_core`` — ``find src/repro/serving src/repro/core -name
  '*.py' | xargs cat | wc -l``;
* ``src_lines`` — the same over all of ``src/``;
* ``public_symbols`` — ``len(repro.serving.__all__)``;
* ``config_fields`` — the independently settable fields across the
  :class:`repro.serving.ServingConfig` sections.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import repro.serving
from repro.serving import ServingConfig

SRC = Path(__file__).parent.parent / "src"


def count_lines(*roots: Path) -> int:
    """Newlines in every ``*.py`` under ``roots`` (what ``wc -l`` counts)."""
    return sum(
        path.read_bytes().count(b"\n") for root in roots for path in root.rglob("*.py")
    )


def count_config_fields() -> int:
    """Fields of every nested section dataclass of :class:`ServingConfig`."""
    sections = [
        spec.default_factory
        for spec in fields(ServingConfig)
        if spec.default_factory is not MISSING and is_dataclass(spec.default_factory)
    ]
    return sum(len(fields(section)) for section in sections)


def test_record_code_size(bench_record):
    numbers = {
        "src_lines_serving_core": (
            count_lines(SRC / "repro" / "serving", SRC / "repro" / "core"),
            "lines",
        ),
        "src_lines": (count_lines(SRC), "lines"),
        "public_symbols": (len(repro.serving.__all__), "symbols"),
        "config_fields": (count_config_fields(), "fields"),
    }
    for metric, (value, units) in numbers.items():
        assert value > 0, metric
        bench_record("repro", "bench_code_size", metric, value, units, False)
    print("\n" + "\n".join(f"{metric}: {value}" for metric, (value, _) in numbers.items()))
