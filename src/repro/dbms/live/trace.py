"""Recorded evaluation traces: the live backend's hermetic replay mode.

A trace maps each evaluated configuration's fingerprint
(:func:`repro.space.configspace.config_fingerprint`) to what the live
driver measured under it — per-query timings, the ``pg_stat_*``
snapshot, or the fact that the config crashed the server.  Record mode
(``backend='live'`` with ``record_trace=``) appends an entry after every
evaluation and persists the file atomically; replay mode
(``backend='replay'``) serves evaluations from the trace with no server,
no network, and no clock — CI runs the whole live-backend suite this
way.

**Determinism.**  Replay is a pure fingerprint lookup: same trace + same
spec + same seed → byte-identical trajectories, identified by
:meth:`EvalTrace.trace_id` (a digest over the canonical entries, stored
in the file and re-verified on load so a corrupted or hand-edited trace
fails loudly).  A fingerprint the trace does not contain raises
:class:`TraceMissError` — also loudly, because a silent fallback would
turn a stale trace into a silently different experiment.

**Re-record policy** (mirrors the checkpoint policy): any change that
moves trajectories — the spec, the adapter stack, the knob catalog, the
workload's query stream — invalidates recorded traces.  There are no
migration shims; bump :data:`TRACE_FORMAT_VERSION` on shape changes and
re-record (``--backend live --record-trace``).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field

from repro.dbms.errors import DbmsError
from repro.tuning.persistence import atomic_write_text

TRACE_FORMAT_VERSION = 1


class TraceMissError(DbmsError):
    """Replay was asked for a configuration the trace never recorded."""

    def __init__(self, fingerprint: str, trace: "EvalTrace"):
        self.fingerprint = fingerprint
        self.trace = trace
        super().__init__(
            f"trace miss: configuration {fingerprint} is not among the "
            f"{len(trace.entries)} recorded entries of trace "
            f"{trace.trace_id()} ({trace.workload}, {trace.dbms_version}). "
            "Replay requires the exact spec/seed the trace was recorded "
            "under; after changing the spec, adapter stack, or knob "
            "catalog, re-record with --backend live --record-trace."
        )

    def __reduce__(self):
        # Exceptions unpickle as cls(*args), and args holds the message;
        # rebuild from the fields so the error survives a worker process.
        return type(self), (self.fingerprint, self.trace)


@dataclass
class TraceEntry:
    """One recorded evaluation outcome."""

    config: dict = field(default_factory=dict)
    query_ms: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    crashed: bool = False
    crash_reason: str | None = None

    def to_payload(self) -> dict:
        return {
            "config": self.config,
            "query_ms": list(self.query_ms),
            "metrics": dict(self.metrics),
            "crashed": self.crashed,
            "crash_reason": self.crash_reason,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TraceEntry":
        return cls(
            config=dict(payload["config"]),
            query_ms=[float(v) for v in payload["query_ms"]],
            metrics={k: float(v) for k, v in payload["metrics"].items()},
            crashed=bool(payload["crashed"]),
            crash_reason=payload.get("crash_reason"),
        )


class EvalTrace:
    """An in-memory trace: header + fingerprint-keyed entries."""

    def __init__(
        self,
        workload: str,
        dbms_version: str,
        entries: dict[str, TraceEntry] | None = None,
    ):
        self.workload = workload
        self.dbms_version = dbms_version
        self.entries: dict[str, TraceEntry] = dict(entries or {})

    def record(self, fingerprint: str, entry: TraceEntry) -> None:
        self.entries[fingerprint] = entry

    def lookup(self, fingerprint: str) -> TraceEntry:
        entry = self.entries.get(fingerprint)
        if entry is None:
            raise TraceMissError(fingerprint, self)
        return entry

    def trace_id(self) -> str:
        """64-bit digest over the canonical header + entries: the
        identity the acceptance contract's ``(trace-id, spec, seed)``
        reproducibility triple refers to."""
        canonical = json.dumps(
            {
                "workload": self.workload,
                "dbms_version": self.dbms_version,
                "entries": {
                    fp: self.entries[fp].to_payload()
                    for fp in sorted(self.entries)
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # --- persistence ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "trace_format_version": TRACE_FORMAT_VERSION,
            "workload": self.workload,
            "dbms_version": self.dbms_version,
            "trace_id": self.trace_id(),
            "entries": {
                fp: self.entries[fp].to_payload() for fp in sorted(self.entries)
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EvalTrace":
        version = payload.get("trace_format_version")
        if version != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format {version!r} (expected "
                f"{TRACE_FORMAT_VERSION}); traces have no migration shims "
                "— re-record with --backend live --record-trace"
            )
        trace = cls(
            workload=payload["workload"],
            dbms_version=payload["dbms_version"],
            entries={
                fp: TraceEntry.from_payload(entry)
                for fp, entry in payload["entries"].items()
            },
        )
        stored = payload.get("trace_id")
        if stored != trace.trace_id():
            raise ValueError(
                f"trace id mismatch: file claims {stored!r}, entries hash "
                f"to {trace.trace_id()!r} — the trace was corrupted or "
                "hand-edited; re-record it"
            )
        return trace

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "EvalTrace":
        return cls.from_payload(json.loads(pathlib.Path(path).read_text()))

    def save(self, path: str | pathlib.Path, merge: bool = True) -> None:
        """Atomically persist the trace.  With ``merge`` (the default for
        record mode), entries already on disk are kept and ours win on
        conflict — so sequential multi-seed recordings accumulate into
        one trace file.  The on-disk header must match ours."""
        path = pathlib.Path(path)
        entries = dict(self.entries)
        if merge and path.exists():
            existing = EvalTrace.load(path)
            if (existing.workload, existing.dbms_version) != (
                self.workload,
                self.dbms_version,
            ):
                raise ValueError(
                    f"trace {path} records {existing.workload} on "
                    f"{existing.dbms_version}; refusing to merge entries "
                    f"for {self.workload} on {self.dbms_version} — one "
                    "trace file per (workload, version)"
                )
            merged = dict(existing.entries)
            merged.update(entries)
            entries = merged
        payload = EvalTrace(self.workload, self.dbms_version, entries).to_payload()
        atomic_write_text(
            path, json.dumps(payload, indent=2, sort_keys=True)
        )
