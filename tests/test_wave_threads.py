"""A wave runs on one thread.

Multicore runs shard seeds over worker processes
(``run_spec(workers=N)``); inside one process a wave has no thread count
to resolve.  ``SessionSpec.wave_threads`` survives only as a name that
accepts one thread (see ``test_runner.py::TestSessionSpec``), and it must
not enter the spec's identity.
"""

from __future__ import annotations

from repro.tuning.runner import SessionSpec
from repro.tuning.wave import wave_thread_count


class TestThreadCountResolution:
    def test_default_is_single_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_WAVE_THREADS", raising=False)
        assert wave_thread_count() == 1
        assert wave_thread_count(SessionSpec(workload="ycsb-a")) == 1
        assert wave_thread_count(
            SessionSpec(workload="ycsb-a", wave_threads=1)
        ) == 1

    def test_wave_threads_outside_spec_token(self):
        """Naming the one thread leaves the spec's identity unchanged:
        checkpoints and fault schedules must not fork on it."""
        a = SessionSpec(workload="ycsb-a")
        b = SessionSpec(workload="ycsb-a", wave_threads=1)
        assert a.spec_token() == b.spec_token()
        assert a.spec_fingerprint() == b.spec_fingerprint()
