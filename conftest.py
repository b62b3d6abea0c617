"""Session-wide pytest set-up for ``tests/`` and ``bench/tests/``."""

from __future__ import annotations

import gc


def pytest_collection_finish(session):
    """Move what collection built out of the garbage collector's sight.

    A collected session holds ~90 000 tracked objects (items, fixtures,
    hypothesis strategies, rewritten modules) that live until exit, and
    every full collection during a test walks all of them: 30-45 ms here.
    Timing tests that measure single rounds of 15-25 ms
    (``bench/tests/test_bench_workloads.py`` compares one traced round with
    one untraced round) pass or fail by where that pause lands, which moves
    with any change to how many objects a request allocates.  Frozen, the
    session's own objects are skipped and a full collection costs under 3 ms.
    """
    gc.collect()
    gc.freeze()
