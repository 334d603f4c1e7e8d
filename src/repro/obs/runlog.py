"""RunLog trajectory store: one append-only JSONL stream per run.

Schema ``repro-trace/v1``.  Every record is one JSON object with a
``record`` discriminator:

``begin``
    Stream header: ``schema``, ``run_id`` (the tracer correlation id) and
    the run's ``repro-manifest/v1`` provenance record.  Always first.
``span``
    One completed span (:meth:`repro.obs.trace.Span.to_record` payload).
``event``
    One engine event (flattened :meth:`~repro.obs.events.EngineEvent.to_dict`
    payload) — the RunLog writer is a bus subscriber, so it can be attached
    to an :class:`~repro.obs.bus.EventBus` like any other consumer.
``metrics``
    A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` sample.
``end``
    Explicit terminator with a ``status`` — its *absence* marks a run that
    died mid-stream, which is a finding, not a parse error.

The stream itself is append-only (durable against crashes up to a torn
tail, read back with :func:`repro.obs.stream.read_jsonl_records`); the
per-directory ``index.json`` is rewritten through
:func:`repro._publish.publish_text` (a sibling tmp file and one
``os.replace``) so readers never observe a partial index.

Like :mod:`repro.obs.trace`, this module is layering-terminal: it must not
import the simulation, executor, fastpath or frontend layers (lint rule
``RPR230``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro._publish import publish_text
from repro.obs.stream import JsonlStreamer, read_jsonl_records

__all__ = ["TRACE_SCHEMA", "RunLog", "RunLogWriter", "RunLogData", "read_runlog"]

#: Schema identifier stamped into every ``begin`` record and the index.
TRACE_SCHEMA = "repro-trace/v1"

_INDEX_NAME = "index.json"


class RunLogData:
    """Parsed view of one RunLog stream (see :func:`read_runlog`)."""

    __slots__ = ("path", "run_id", "schema", "manifest", "spans", "events", "metrics", "end")

    def __init__(self, path: Path) -> None:
        self.path = path
        self.run_id: str = ""
        self.schema: str = ""
        self.manifest: Dict[str, Any] = {}
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self.metrics: List[Dict[str, Any]] = []
        self.end: Optional[Dict[str, Any]] = None

    @property
    def complete(self) -> bool:
        """True when the stream carries its explicit ``end`` marker."""
        return self.end is not None

    @property
    def counters(self) -> Dict[str, float]:
        """Counters from the last metrics sample (``{}`` when none)."""
        if not self.metrics:
            return {}
        return dict(self.metrics[-1].get("counters") or {})

    def __repr__(self) -> str:
        return (
            f"RunLogData(run_id={self.run_id!r}, spans={len(self.spans)}, "
            f"events={len(self.events)}, complete={self.complete})"
        )


def read_runlog(path: Union[str, Path]) -> RunLogData:
    """Parse one RunLog stream, tolerating a torn tail after a crash."""
    data = RunLogData(Path(path))
    for record in read_jsonl_records(path, missing_ok=False):
        kind = record.get("record")
        if kind == "begin":
            data.run_id = str(record.get("run_id", ""))
            data.schema = str(record.get("schema", ""))
            data.manifest = dict(record.get("manifest") or {})
        elif kind == "span":
            data.spans.append(record)
        elif kind == "event":
            data.events.append(record)
        elif kind == "metrics":
            data.metrics.append(dict(record.get("metrics") or {}))
        elif kind == "end":
            data.end = record
    return data


class RunLogWriter:
    """Appender for one run's stream; also usable as a bus subscriber.

    Create through :meth:`RunLog.writer`; call :meth:`begin` first, then
    any mix of :meth:`write_span` / :meth:`write_event` / ``__call__`` /
    :meth:`write_metrics`, and finish with :meth:`end` (which also
    publishes the run into the directory index).
    """

    def __init__(self, runlog: "RunLog", run_id: str, *, fsync: bool = False) -> None:
        self._runlog = runlog
        self.run_id = run_id
        self.path = runlog.root / f"{run_id}.jsonl"
        self._fh = self.path.open("a")
        self._streamer = JsonlStreamer(self._fh, flush_every=1, fsync=fsync)
        self._ended = False

    # -- records --------------------------------------------------------- #

    def begin(self, manifest: Optional[Mapping[str, Any]] = None, **attrs: Any) -> None:
        """Write the stream header (schema + run id + provenance)."""
        record: Dict[str, Any] = {
            "record": "begin",
            "schema": TRACE_SCHEMA,
            "run_id": self.run_id,
            "manifest": dict(manifest or {}),
        }
        if attrs:
            record["attrs"] = attrs
        self._streamer.write_record(record)

    def write_span(self, span_record: Mapping[str, Any]) -> None:
        """Append one completed span record."""
        self._streamer.write_record({"record": "span", **span_record})

    def write_spans(self, span_records: Sequence[Mapping[str, Any]]) -> None:
        """Append a span forest (e.g. :meth:`repro.obs.trace.Tracer.to_records`)."""
        for record in span_records:
            self.write_span(record)

    def write_event(self, event_record: Mapping[str, Any]) -> None:
        """Append one engine-event record (already serialized to a dict)."""
        self._streamer.write_record({"record": "event", **event_record})

    def __call__(self, event: Any) -> None:
        """Bus-subscriber entry point: serialize one engine event."""
        self.write_event(event.to_dict())

    def write_metrics(self, snapshot: Mapping[str, Any]) -> None:
        """Append a metrics-snapshot sample."""
        self._streamer.write_record({"record": "metrics", "metrics": dict(snapshot)})

    def end(self, status: str = "ok", **summary: Any) -> None:
        """Terminate the stream and publish the run into the index."""
        if self._ended:
            return
        record: Dict[str, Any] = {"record": "end", "status": status}
        if summary:
            record["summary"] = summary
        self._streamer.write_record(record)
        self._ended = True
        self.close()
        self._runlog.publish(
            {"run_id": self.run_id, "file": self.path.name, "status": status}
        )

    def close(self) -> None:
        """Close the stream file without writing ``end`` (crash semantics)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunLogWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if not self._ended:
            try:
                self.end(status="ok" if exc_type is None else "error")
            finally:
                self.close()

    def __repr__(self) -> str:
        return f"RunLogWriter(run_id={self.run_id!r}, path={str(self.path)!r})"


class RunLog:
    """A directory of run streams plus an atomically-published index."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / _INDEX_NAME

    def writer(self, run_id: str, *, fsync: bool = False) -> RunLogWriter:
        """Open (append) the stream for ``run_id``."""
        self.root.mkdir(parents=True, exist_ok=True)
        return RunLogWriter(self, run_id, fsync=fsync)

    # -- index ----------------------------------------------------------- #

    def index(self) -> Dict[str, Any]:
        """The directory index (``{"schema": ..., "runs": []}`` when absent
        or unreadable — the streams themselves are the source of truth)."""
        try:
            data = json.loads(self.index_path.read_text())
        except (OSError, json.JSONDecodeError):
            return {"schema": TRACE_SCHEMA, "runs": []}
        if not isinstance(data, dict) or not isinstance(data.get("runs"), list):
            return {"schema": TRACE_SCHEMA, "runs": []}
        return data

    def runs(self) -> List[Dict[str, Any]]:
        """Indexed run entries, oldest first."""
        return [entry for entry in self.index()["runs"] if isinstance(entry, dict)]

    def latest(self) -> Optional[Path]:
        """Path of the most recently published run's stream, or ``None``."""
        for entry in reversed(self.runs()):
            path = self.root / str(entry.get("file", ""))
            if path.is_file():
                return path
        return None

    def publish(self, entry: Dict[str, Any]) -> None:
        """Insert/replace ``entry`` (by ``run_id``) and atomically rewrite
        the index — a reader never observes a partial file."""
        index = self.index()
        runs = [
            e
            for e in index["runs"]
            if isinstance(e, dict) and e.get("run_id") != entry.get("run_id")
        ]
        runs.append(entry)
        payload = {"schema": TRACE_SCHEMA, "runs": runs}
        self.root.mkdir(parents=True, exist_ok=True)
        publish_text(self.index_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def __repr__(self) -> str:
        return f"RunLog(root={str(self.root)!r}, runs={len(self.runs())})"
