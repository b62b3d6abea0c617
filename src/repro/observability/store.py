"""The persistent event store: SQLite with deduplicated records and views.

Follows the eval-results-database shape (deduplicated result records +
aggregate views): every event lands in one ``events`` table keyed by
``(source, sequence)`` with ``INSERT OR IGNORE``, so flushing the same
drained batch twice — a retried flush, overlapping consumers, a crash
between flush and ack — cannot double-count anything.  The event's primary
scalar (:meth:`repro.observability.Event.value`) and its attribution columns
(estimator, model generation) are hoisted out of the JSON payload into real
columns, so the aggregate views are plain SQL over indexed data:

* ``view_per_estimator_q_error`` — feedback q-error aggregates per estimator
  name (count / mean / max);
* ``view_tail_latency`` — request-latency aggregates per estimator name (the
  exact quantiles come from :meth:`EventStore.latency_quantile`, since
  SQLite has no percentile aggregate);
* ``view_swap_history`` — every promoted hot swap, keyed by
  ``model_generation`` — the same number stamped on every
  :class:`repro.serving.EstimateResult`, so responses and swap records
  attribute to the same model;
* ``view_plan_history`` — every compiled-inference-plan lifecycle event
  (``plan_compile`` / ``plan_swap``), keyed by ``model_generation`` so plan
  compiles and handovers line up next to the swap history they belong to
  (a store file created by an older build keeps its old view — ``CREATE
  VIEW IF NOT EXISTS`` — and reads NULL in its ``nodes`` column for new
  events);
* ``view_artifact_history`` — every artifact lifecycle event (saved /
  loaded / promoted / rolled back), keyed by ``model_generation`` so the
  on-disk snapshot record lines up against the swap and plan history;
* ``view_generation_provenance`` — one row per model generation joining
  requests served, swaps, and artifact lifecycle counts, so "which snapshot
  answered this request" is answerable from the store alone;
* ``view_event_counts`` — events per kind (the taxonomy's census).

The store is thread-safe (one connection, writes serialized on an internal
lock) and file-backed by default, so a restarted process — or a CI artifact
download — can query the full history of a serving run.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
from typing import Any, Iterable, Sequence

from repro.observability.buffer import BufferedEvent
from repro.observability.events import Event, event_from_payload

__all__ = ["EventStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS events (
    source TEXT NOT NULL,
    sequence INTEGER NOT NULL,
    ts REAL NOT NULL,
    kind TEXT NOT NULL,
    estimator TEXT,
    model_generation INTEGER,
    value REAL,
    payload TEXT NOT NULL,
    PRIMARY KEY (source, sequence)
);
CREATE INDEX IF NOT EXISTS idx_events_kind ON events (kind);
CREATE INDEX IF NOT EXISTS idx_events_estimator ON events (estimator);
-- The composite index the quantile/aggregate queries actually want: every
-- one of them filters on kind (often plus estimator), and the single-column
-- indexes above cannot serve both predicates at once.
CREATE INDEX IF NOT EXISTS idx_events_kind_estimator ON events (kind, estimator);

CREATE TABLE IF NOT EXISTS spans (
    source TEXT NOT NULL,
    sequence INTEGER NOT NULL,
    ts REAL NOT NULL,
    trace_id TEXT NOT NULL,
    span_id TEXT NOT NULL,
    parent_id TEXT NOT NULL,
    name TEXT NOT NULL,
    start REAL NOT NULL,
    duration_seconds REAL NOT NULL,
    estimator TEXT,
    members INTEGER NOT NULL DEFAULT 1,
    attributes TEXT NOT NULL,
    PRIMARY KEY (source, sequence)
);
CREATE INDEX IF NOT EXISTS idx_spans_trace ON spans (trace_id);
CREATE INDEX IF NOT EXISTS idx_spans_name ON spans (name);

CREATE TABLE IF NOT EXISTS span_links (
    source TEXT NOT NULL,
    sequence INTEGER NOT NULL,
    ts REAL NOT NULL,
    trace_id TEXT NOT NULL,
    span_id TEXT NOT NULL,
    span_name TEXT NOT NULL,
    amortized_seconds REAL NOT NULL,
    members INTEGER NOT NULL DEFAULT 1,
    link_kind TEXT NOT NULL,
    PRIMARY KEY (source, sequence)
);
CREATE INDEX IF NOT EXISTS idx_span_links_trace ON span_links (trace_id);

CREATE VIEW IF NOT EXISTS view_per_estimator_q_error AS
    SELECT estimator,
           COUNT(*)   AS observations,
           AVG(value) AS mean_q_error,
           MIN(value) AS min_q_error,
           MAX(value) AS max_q_error
    FROM events
    WHERE kind = 'feedback' AND value IS NOT NULL
    GROUP BY estimator;

CREATE VIEW IF NOT EXISTS view_tail_latency AS
    SELECT estimator,
           COUNT(*)          AS requests,
           AVG(value) * 1000 AS mean_latency_ms,
           MAX(value) * 1000 AS max_latency_ms
    FROM events
    WHERE kind = 'request_served' AND value IS NOT NULL
    GROUP BY estimator;

CREATE VIEW IF NOT EXISTS view_swap_history AS
    SELECT model_generation,
           estimator,
           ts,
           json_extract(payload, '$.pre_swap_q_error')        AS pre_swap_q_error,
           json_extract(payload, '$.post_swap_q_error')       AS post_swap_q_error,
           json_extract(payload, '$.requests_between_swaps')  AS requests_between_swaps,
           json_extract(payload, '$.mode')                    AS mode
    FROM events
    WHERE kind = 'model_swap'
    ORDER BY model_generation;

CREATE VIEW IF NOT EXISTS view_plan_history AS
    SELECT model_generation,
           estimator,
           ts,
           kind,
           json_extract(payload, '$.dtype')   AS dtype,
           json_extract(payload, '$.outcome') AS outcome
    FROM events
    WHERE kind IN ('plan_compile', 'plan_swap')
    ORDER BY model_generation, ts;

CREATE VIEW IF NOT EXISTS view_artifact_history AS
    SELECT model_generation,
           ts,
           kind,
           json_extract(payload, '$.source')           AS source,
           json_extract(payload, '$.size_bytes')       AS size_bytes,
           json_extract(payload, '$.previous')         AS previous,
           json_extract(payload, '$.rolled_back_from') AS rolled_back_from
    FROM events
    WHERE kind IN ('artifact_saved', 'artifact_loaded',
                   'artifact_promoted', 'artifact_rolled_back')
    ORDER BY model_generation, ts;

-- One row per model generation, joining serving traffic against the swap
-- and artifact lifecycle: the provenance answer "which snapshot (and which
-- swap) stands behind the requests this generation answered".
CREATE VIEW IF NOT EXISTS view_generation_provenance AS
    SELECT model_generation,
           SUM(kind = 'request_served')       AS requests_served,
           SUM(kind = 'model_swap')           AS swaps,
           SUM(kind = 'artifact_saved')       AS artifacts_saved,
           SUM(kind = 'artifact_loaded')      AS artifacts_loaded,
           SUM(kind = 'artifact_promoted')    AS artifacts_promoted,
           SUM(kind = 'artifact_rolled_back') AS artifact_rollbacks
    FROM events
    WHERE model_generation IS NOT NULL
    GROUP BY model_generation
    ORDER BY model_generation;

CREATE VIEW IF NOT EXISTS view_event_counts AS
    SELECT kind, COUNT(*) AS events
    FROM events
    GROUP BY kind;

CREATE VIEW IF NOT EXISTS view_span_kind_latency AS
    SELECT name,
           COUNT(*)                     AS spans,
           SUM(duration_seconds)        AS total_seconds,
           AVG(duration_seconds) * 1000 AS mean_ms,
           MAX(duration_seconds) * 1000 AS max_ms
    FROM spans
    GROUP BY name;

-- Critical-path breakdown per traced request: the root span's wall time,
-- the sum of its request-owned stage spans, and the sum of its amortized
-- shares of linked batch/kernel spans.  The fan-in attribution contract is
-- own_seconds + amortized_seconds ~= latency-accounted time (context links
-- are excluded: they carry attribution, not additional wall clock).
CREATE VIEW IF NOT EXISTS view_trace_accounting AS
    SELECT s.trace_id,
           s.source,
           s.estimator,
           s.start,
           s.duration_seconds AS root_seconds,
           CAST(json_extract(s.attributes, '$.latency_seconds') AS REAL)
               AS latency_seconds,
           (SELECT COALESCE(SUM(c.duration_seconds), 0)
              FROM spans c
             WHERE c.trace_id = s.trace_id AND c.parent_id = s.span_id)
               AS own_seconds,
           (SELECT COALESCE(SUM(l.amortized_seconds), 0)
              FROM span_links l
             WHERE l.trace_id = s.trace_id AND l.link_kind = 'amortized')
               AS amortized_seconds
    FROM spans s
    WHERE s.parent_id = '' AND s.name = 'request';
"""


def _clean(value: float | None) -> float | None:
    """NaN has no SQL ordering and would poison aggregates; store NULL."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


class EventStore:
    """A SQLite-backed sink of :class:`repro.observability.Event` records.

    Args:
        path: database file (``":memory:"`` for an in-process store — still
            queryable, just not durable).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(self.path, check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        with self._lock:
            self._connection.executescript(_SCHEMA)
            self._connection.commit()

    # ------------------------------------------------------------------ #
    # writing

    def insert(self, source: str, events: Iterable[BufferedEvent]) -> int:
        """Sink a drained batch; returns how many records were *new*.

        Records are deduplicated on ``(source, sequence)`` with
        ``INSERT OR IGNORE``: flushing the same batch twice is a no-op, so
        at-least-once delivery from the buffer becomes exactly-once storage.
        Tracing events are routed to their own tables (``span`` →
        ``spans``, ``span_link`` → ``span_links``); sequences come from the
        recorder's single counter, so the dedup key stays unique across all
        three tables.
        """
        rows = []
        span_rows = []
        link_rows = []
        for item in events:
            event = item.event
            if event.kind == "span":
                span_rows.append(
                    (
                        source,
                        item.sequence,
                        item.timestamp,
                        event.trace_id,
                        event.span_id,
                        event.parent_id,
                        event.name,
                        event.start,
                        event.duration_seconds,
                        event.estimator() or None,
                        event.members,
                        json.dumps(dict(event.attributes)),
                    )
                )
            elif event.kind == "span_link":
                link_rows.append(
                    (
                        source,
                        item.sequence,
                        item.timestamp,
                        event.trace_id,
                        event.span_id,
                        event.span_name,
                        event.amortized_seconds,
                        event.members,
                        event.link_kind,
                    )
                )
            else:
                rows.append(
                    (
                        source,
                        item.sequence,
                        item.timestamp,
                        event.kind,
                        event.estimator(),
                        event.model_generation(),
                        _clean(event.value()),
                        json.dumps(event.payload(), default=str),
                    )
                )
        if not rows and not span_rows and not link_rows:
            return 0
        with self._lock:
            before = self._connection.total_changes
            if rows:
                self._connection.executemany(
                    "INSERT OR IGNORE INTO events "
                    "(source, sequence, ts, kind, estimator, model_generation, value, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
            if span_rows:
                self._connection.executemany(
                    "INSERT OR IGNORE INTO spans "
                    "(source, sequence, ts, trace_id, span_id, parent_id, name, "
                    "start, duration_seconds, estimator, members, attributes) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    span_rows,
                )
            if link_rows:
                self._connection.executemany(
                    "INSERT OR IGNORE INTO span_links "
                    "(source, sequence, ts, trace_id, span_id, span_name, "
                    "amortized_seconds, members, link_kind) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    link_rows,
                )
            self._connection.commit()
            return self._connection.total_changes - before

    # ------------------------------------------------------------------ #
    # querying

    def query(self, sql: str, parameters: Sequence[Any] = ()) -> list[dict[str, Any]]:
        """Run arbitrary SQL (views included) and return plain dict rows."""
        with self._lock:
            cursor = self._connection.execute(sql, tuple(parameters))
            return [dict(row) for row in cursor.fetchall()]

    def events(self, kind: str | None = None, source: str | None = None) -> list[Event]:
        """Typed events back out of storage, in ``(source, sequence)`` order."""
        clauses, parameters = [], []
        if kind is not None:
            clauses.append("kind = ?")
            parameters.append(kind)
        if source is not None:
            clauses.append("source = ?")
            parameters.append(source)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self.query(
            f"SELECT kind, payload FROM events {where} ORDER BY source, sequence",
            parameters,
        )
        return [
            event_from_payload(row["kind"], json.loads(row["payload"])) for row in rows
        ]

    def counts(self) -> dict[str, int]:
        """Events per kind (``view_event_counts`` plus the span tables)."""
        counts = {
            row["kind"]: int(row["events"])
            for row in self.query("SELECT * FROM view_event_counts")
        }
        for kind, table in (("span", "spans"), ("span_link", "span_links")):
            n = int(self.query(f"SELECT COUNT(*) AS n FROM {table}")[0]["n"])
            if n:
                counts[kind] = n
        return counts

    def per_estimator_q_error(self) -> list[dict[str, Any]]:
        """The ``view_per_estimator_q_error`` rows."""
        return self.query("SELECT * FROM view_per_estimator_q_error ORDER BY estimator")

    def tail_latency(self) -> list[dict[str, Any]]:
        """The ``view_tail_latency`` rows."""
        return self.query("SELECT * FROM view_tail_latency ORDER BY estimator")

    def swap_history(self) -> list[dict[str, Any]]:
        """Every promoted hot swap, keyed (and ordered) by model generation."""
        return self.query("SELECT * FROM view_swap_history")

    def plan_history(self) -> list[dict[str, Any]]:
        """Compiled-plan lifecycle (compiles and handovers) by model generation."""
        return self.query("SELECT * FROM view_plan_history")

    def artifact_history(self) -> list[dict[str, Any]]:
        """Artifact lifecycle (saves/loads/promotes/rollbacks) by model generation."""
        return self.query("SELECT * FROM view_artifact_history")

    def generation_provenance(self) -> list[dict[str, Any]]:
        """The ``view_generation_provenance`` rows: traffic ⋈ swaps ⋈ artifacts."""
        return self.query("SELECT * FROM view_generation_provenance")

    def latency_quantile(
        self, q: float, estimator: str | None = None, window: int | None = None
    ) -> float:
        """An exact request-latency quantile in seconds (NaN with no data).

        SQLite has no percentile aggregate, so the quantile is computed by
        ordering and offsetting — exact, if not O(1).  ``window`` restricts
        the computation to the most recent N matching events: periodic
        ``stats()`` merges over a long episode should not rescan the full
        table on every call.
        """
        return self._value_quantile("request_served", q, estimator, window)

    def q_error_quantile(
        self, q: float, estimator: str | None = None, window: int | None = None
    ) -> float:
        """An exact feedback q-error quantile (NaN with no data)."""
        return self._value_quantile("feedback", q, estimator, window)

    def _value_quantile(
        self,
        kind: str,
        q: float,
        estimator: str | None,
        window: int | None = None,
    ) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q!r}")
        if window is not None and window <= 0:
            raise ValueError(f"window must be positive (or None), got {window!r}")
        clauses = ["kind = ?", "value IS NOT NULL"]
        parameters: list[Any] = [kind]
        if estimator is not None:
            clauses.append("estimator = ?")
            parameters.append(estimator)
        where = " AND ".join(clauses)
        # The recency window keys on rowid: insertion order, which for one
        # recorder is sequence order.  The (kind, estimator) composite index
        # serves both the filter and the count without a full-table scan.
        source = f"events WHERE {where}"
        if window is not None:
            source = (
                f"(SELECT value FROM events WHERE {where} "
                f"ORDER BY rowid DESC LIMIT {int(window)})"
            )
        rows = self.query(f"SELECT COUNT(*) AS n FROM {source}", parameters)
        count = int(rows[0]["n"])
        if not count:
            return float("nan")
        offset = min(count - 1, max(0, round(q * (count - 1))))
        if window is not None:
            rows = self.query(
                f"SELECT value FROM {source} ORDER BY value LIMIT 1 OFFSET ?",
                parameters + [offset],
            )
        else:
            rows = self.query(
                f"SELECT value FROM events WHERE {where} "
                f"ORDER BY value LIMIT 1 OFFSET ?",
                parameters + [offset],
            )
        return float(rows[0]["value"])

    # ------------------------------------------------------------------ #
    # traces

    def spans_for_trace(self, trace_id: str) -> list[dict[str, Any]]:
        """Every stored span of one trace, in start order, attributes parsed."""
        rows = self.query(
            "SELECT * FROM spans WHERE trace_id = ? ORDER BY start, sequence",
            [trace_id],
        )
        for row in rows:
            row["attributes"] = json.loads(row["attributes"])
        return rows

    def links_for_trace(self, trace_id: str) -> list[dict[str, Any]]:
        """One trace's fan-in links, joined to the shared spans they name."""
        return self.query(
            "SELECT l.*, s.duration_seconds, s.start AS span_start, "
            "       s.members AS span_members "
            "FROM span_links l "
            "LEFT JOIN spans s ON s.source = l.source AND s.span_id = l.span_id "
            "WHERE l.trace_id = ? ORDER BY l.sequence",
            [trace_id],
        )

    def slowest_traces(self, n: int = 10) -> list[dict[str, Any]]:
        """The N slowest fully-traced requests (root spans by duration)."""
        return self.query(
            "SELECT trace_id, source, estimator, start, duration_seconds "
            "FROM spans WHERE parent_id = '' AND name = 'request' "
            "ORDER BY duration_seconds DESC LIMIT ?",
            [int(n)],
        )

    def span_kind_latency(self) -> list[dict[str, Any]]:
        """The ``view_span_kind_latency`` rows (per-stage aggregates)."""
        return self.query("SELECT * FROM view_span_kind_latency ORDER BY name")

    def trace_accounting(self) -> list[dict[str, Any]]:
        """The ``view_trace_accounting`` rows (critical-path breakdown)."""
        return self.query(
            "SELECT * FROM view_trace_accounting ORDER BY root_seconds DESC"
        )

    def stats_snapshot(self) -> dict[str, float]:
        """Store-level gauges, mergeable into ``format_service_stats``."""
        counts = self.counts()
        return {
            "stored_events": float(sum(counts.values())),
            "stored_swaps": float(counts.get("model_swap", 0)),
            "stored_drift_trips": float(counts.get("drift_trip", 0)),
            "stored_artifact_saves": float(counts.get("artifact_saved", 0)),
        }

    # ------------------------------------------------------------------ #
    # lifecycle

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "EventStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
