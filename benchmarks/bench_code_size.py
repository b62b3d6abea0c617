"""Design-size numbers ROADMAP item 2 tracks: source lines, symbols, options.

These are counts, not timings: a simplification PR should move them *down*
while the timing gates hold.  Recording them as ``repro`` trajectory rows makes
the trend visible next to the speed rows (``scripts/bench_report.py show``).

* ``src_lines_serving_core`` — ``find src/repro/serving src/repro/core -name
  '*.py' | xargs cat | wc -l``;
* ``src_lines`` — the same over all of ``src/``;
* ``public_symbols`` — ``len(repro.serving.__all__)``;
* ``config_fields`` — the independently settable fields across the
  :class:`repro.serving.ServingConfig` sections;
* ``test_only_names`` — class and function definitions under ``src/`` whose
  name, as a word, occurs nowhere in ``src/``, ``examples/``,
  ``benchmarks/``, ``bench/`` or ``scripts/`` but on its own definition
  line: code only tests reach.  The scan is textual: a name spelled out
  anywhere there, a comment included, counts as used, and one reached only
  through a computed ``getattr`` or named only in the docs counts as
  test-only; ``__dunder__`` methods are skipped.  ``PYTHONPATH=src python
  benchmarks/bench_code_size.py`` lists the names.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import repro.serving
from repro.serving import ServingConfig

REPO = Path(__file__).parent.parent
SRC = REPO / "src"

#: Where a name counts as reached by something other than a test.
NON_TEST_ROOTS = ("src", "examples", "benchmarks", "bench", "scripts")

WORD = re.compile(r"\w+")


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


def scan_test_only_names() -> list[str]:
    """``path:line name`` of every definition under ``src/`` named nowhere
    outside ``tests/`` but on its own definition line."""
    lines = {
        path: path.read_text().splitlines()
        for root in NON_TEST_ROOTS
        for path in sorted((REPO / root).rglob("*.py"))
    }
    # A word as ``\bname\b`` matches it: a maximal run of word characters.
    words = Counter(word for text in lines.values() for line in text for word in WORD.findall(line))
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse("\n".join(lines[path]))):
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = WORD.findall(lines[path][node.lineno - 1]).count(name)
            if words[name] == own:
                found.append(f"{path.relative_to(REPO)}:{node.lineno} {name}")
    return found


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
    for metric, (value, _) in numbers.items():
        assert value > 0, metric
    # Zero is where this one should go, so it is not checked like the rest.
    numbers["test_only_names"] = (len(scan_test_only_names()), "names")
    for metric, (value, units) in numbers.items():
        bench_record("repro", "bench_code_size", metric, value, units, False)
    print("\n" + "\n".join(f"{metric}: {value}" for metric, (value, _) in numbers.items()))


if __name__ == "__main__":
    print("\n".join(scan_test_only_names()))
