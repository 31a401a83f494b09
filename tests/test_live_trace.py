"""Recorded evaluation traces (repro.dbms.live.trace).

The trace file is the hermetic-replay contract's carrier: versioned,
self-identifying (``trace_id`` over the canonical entries), loud on
misses, corruption, version drift, and header mismatches — a stale or
edited trace must never silently become a different experiment.
"""

import json
import pickle

import pytest

from repro.dbms.live import (
    TRACE_FORMAT_VERSION,
    EvalTrace,
    TraceEntry,
    TraceMissError,
)


def make_trace(n=3):
    trace = EvalTrace("ycsb-a", "9.6")
    for i in range(n):
        trace.record(
            f"fp{i:02d}",
            TraceEntry(
                config={"shared_buffers": 1024 * (i + 1)},
                query_ms=[1.5 + i, 2.5 + i],
                metrics={"pg_stat_database.xact_commit": 10.0 * i},
            ),
        )
    return trace


class TestRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        trace = make_trace()
        trace.record(
            "fpcrash",
            TraceEntry(
                config={"shared_buffers": 8},
                crashed=True,
                crash_reason="server failed to start",
            ),
        )
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = EvalTrace.load(path)
        assert loaded.trace_id() == trace.trace_id()
        assert loaded.workload == "ycsb-a"
        assert loaded.dbms_version == "9.6"
        entry = loaded.lookup("fp01")
        assert entry.query_ms == [2.5, 3.5]
        assert entry.metrics == {"pg_stat_database.xact_commit": 10.0}
        crash = loaded.lookup("fpcrash")
        assert crash.crashed and crash.crash_reason == "server failed to start"

    def test_trace_id_is_stable_and_content_sensitive(self):
        assert make_trace().trace_id() == make_trace().trace_id()
        other = make_trace()
        other.record("fp00", TraceEntry(config={}, query_ms=[9.9]))
        assert other.trace_id() != make_trace().trace_id()

    def test_miss_fails_loudly(self):
        trace = make_trace()
        with pytest.raises(TraceMissError, match="re-record"):
            trace.lookup("deadbeefdeadbeef")

    def test_miss_pickles_with_its_fields(self):
        """A miss inside a worker process comes back as itself."""
        trace = make_trace()
        with pytest.raises(TraceMissError) as raised:
            trace.lookup("deadbeefdeadbeef")
        clone = pickle.loads(pickle.dumps(raised.value))
        assert clone.fingerprint == "deadbeefdeadbeef"
        assert clone.trace.trace_id() == trace.trace_id()
        assert str(clone) == str(raised.value)


class TestLoadValidation:
    def test_format_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "trace.json"
        make_trace().save(path)
        payload = json.loads(path.read_text())
        payload["trace_format_version"] = TRACE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no migration shims"):
            EvalTrace.load(path)

    def test_corrupted_entries_detected_by_trace_id(self, tmp_path):
        path = tmp_path / "trace.json"
        make_trace().save(path)
        payload = json.loads(path.read_text())
        payload["entries"]["fp00"]["query_ms"][0] = 999.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="corrupted or hand-edited"):
            EvalTrace.load(path)


class TestMerge:
    def test_merge_accumulates_and_ours_win(self, tmp_path):
        path = tmp_path / "trace.json"
        make_trace(2).save(path)

        second = EvalTrace("ycsb-a", "9.6")
        second.record("fp01", TraceEntry(config={}, query_ms=[7.0]))
        second.record("fp05", TraceEntry(config={}, query_ms=[5.0]))
        second.save(path)

        merged = EvalTrace.load(path)
        assert sorted(merged.entries) == ["fp00", "fp01", "fp05"]
        assert merged.lookup("fp01").query_ms == [7.0]  # ours won
        assert merged.lookup("fp00").query_ms == [1.5, 2.5]  # theirs kept

    def test_merge_refuses_header_mismatch(self, tmp_path):
        path = tmp_path / "trace.json"
        make_trace().save(path)
        other = EvalTrace("tpcc", "9.6")
        other.record("fpX", TraceEntry(config={}, query_ms=[1.0]))
        with pytest.raises(ValueError, match="one trace file per"):
            other.save(path)

    def test_no_merge_overwrites(self, tmp_path):
        path = tmp_path / "trace.json"
        make_trace(3).save(path)
        EvalTrace("ycsb-a", "9.6").save(path, merge=False)
        assert EvalTrace.load(path).entries == {}
