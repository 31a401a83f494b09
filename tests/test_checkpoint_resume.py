"""Checkpoint/resume: byte-identical continuation of interrupted sessions.

The resilience contract (ROADMAP.md): a session restored from a round-
boundary checkpoint continues **byte-identically** to the uninterrupted
trajectory — same observation values, same configurations, same crash
rows, and the same PCG64 stream positions for both the session noise and
the optimizer streams.  The "kill" is simulated by running a truncated
budget (n_iterations = k with checkpoint_every = k, so the terminal
checkpoint lands exactly at iteration k) and resuming a *freshly built*
session to the full budget; ``test_process_pool_resume`` additionally
restores in worker processes.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.optimizers import make_optimizer
from repro.space.postgres import postgres_v96_space
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.persistence import (
    CHECKPOINT_FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
    save_result,
)
from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec
from repro.tuning.session import TuningSession


N_FULL = 16
N_CUT = 11  # mid model phase (n_init = 6)


def make_spec(optimizer="smac", tmp_dir=None, n_iterations=N_FULL, **kwargs):
    base = dict(
        workload="ycsb-a",
        optimizer=optimizer,
        adapter=llamatune_factory(target_dim=4),
        n_iterations=n_iterations,
        n_init=6,
    )
    if tmp_dir is not None:
        base["checkpoint_dir"] = str(tmp_dir)
    base.update(kwargs)
    return SessionSpec(**base)


def run_full(spec, seed):
    """Uninterrupted run, returning (result, session) for stream access."""
    session = spec.build(seed)
    return session.run(), session


def run_interrupted(
    optimizer, tmp_dir, seed, cut=N_CUT, n_iterations=N_FULL, **kwargs
):
    """Truncated run (the simulated kill) + fresh-build resume to
    ``n_iterations``."""
    truncated = make_spec(
        optimizer, tmp_dir, n_iterations=cut, checkpoint_every=cut, **kwargs
    )
    truncated.build(seed).run()

    resumed_spec = make_spec(
        optimizer, tmp_dir, n_iterations=n_iterations, checkpoint_every=cut,
        resume=True, **kwargs
    )
    session = resumed_spec.build(seed)
    # The restore must actually have happened — an earlier bug made the
    # resume arm miss its checkpoint file and trivially pass by rerunning.
    assert session.state == "running"
    assert session.iteration == cut
    return session.run(), session


def assert_byte_identical(full, resumed, full_session, resumed_session):
    assert np.array_equal(full.values, resumed.values)
    assert [o.crashed for o in full.knowledge_base] == [
        o.crashed for o in resumed.knowledge_base
    ]
    assert all(
        a.optimizer_config == b.optimizer_config
        and a.target_config == b.target_config
        for a, b in zip(full.knowledge_base, resumed.knowledge_base)
    )
    assert full.best_value == resumed.best_value
    assert full.default_value == resumed.default_value
    # Every RNG stream position must match, not just the outputs so far.
    assert (
        full_session.rng.bit_generator.state
        == resumed_session.rng.bit_generator.state
    )
    assert (
        full_session.optimizer.rng.bit_generator.state
        == resumed_session.optimizer.rng.bit_generator.state
    )


class TestResumeByteIdentity:
    @pytest.mark.parametrize(
        "optimizer,kwargs",
        [
            ("smac", {}),
            ("random", {}),
            ("gp-bo", {}),
            ("gp-bo", {"optimizer_kwargs": (("refit_every", 3),)}),
        ],
        ids=["smac", "random", "gp-bo", "gp-bo-refit3"],
    )
    def test_sequential(self, optimizer, kwargs, tmp_path):
        full, full_session = run_full(make_spec(optimizer, **kwargs), seed=1)
        resumed, resumed_session = run_interrupted(
            optimizer, tmp_path, seed=1, **kwargs
        )
        assert_byte_identical(full, resumed, full_session, resumed_session)

    def test_mid_init_checkpoint(self, tmp_path):
        """A checkpoint *inside* the LHS init phase (the 4-iteration
        budget ends the batched design after 4 of its 6 points) restores
        the remaining init points along with everything else."""
        cut = 4  # < n_init = 6
        full, full_session = run_full(make_spec("smac"), seed=2)
        resumed, resumed_session = run_interrupted(
            "smac", tmp_path, seed=2, cut=cut
        )
        assert_byte_identical(full, resumed, full_session, resumed_session)

    @pytest.mark.parametrize("optimizer", ["smac", "random", "gp-bo"])
    def test_mid_init_resume_keeps_a_shorter_budget(self, optimizer, tmp_path):
        """Resumed after 4 of 6 design points with a 5-iteration budget,
        the session evaluates one more design point, not the two the
        design has left: it equals a fresh 5-iteration run."""
        fresh, fresh_session = run_full(
            make_spec(optimizer, n_iterations=5), seed=1
        )
        resumed, resumed_session = run_interrupted(
            optimizer, tmp_path, seed=1, cut=4, n_iterations=5
        )
        assert len(resumed.knowledge_base) == 5
        assert resumed_session.iteration == 5
        assert_byte_identical(fresh, resumed, fresh_session, resumed_session)

    def test_mid_init_resume_keeps_a_shorter_budget_in_a_wave(self, tmp_path):
        truncated = make_spec(
            "smac", tmp_path, n_iterations=4, checkpoint_every=4
        )
        run_spec(truncated, [1, 2], workers=1)
        resumed_spec = make_spec(
            "smac", tmp_path, n_iterations=5, checkpoint_every=4, resume=True
        )
        resumed = run_spec(resumed_spec, [1, 2], workers=1)
        fresh = run_spec(make_spec("smac", n_iterations=5), [1, 2])
        for a, b in zip(fresh, resumed):
            assert len(b.knowledge_base) == 5
            assert np.array_equal(a.values, b.values)
            assert [o.crashed for o in a.knowledge_base] == [
                o.crashed for o in b.knowledge_base
            ]
            assert all(
                x.optimizer_config == y.optimizer_config
                and x.target_config == y.target_config
                for x, y in zip(a.knowledge_base, b.knowledge_base)
            )

    def test_wave_driver_resume(self, tmp_path):
        """Killed wave sweeps resume per member: every seed's trajectory
        matches its uninterrupted wave (== sequential) counterpart."""
        seeds = [1, 2, 3]
        full = run_spec(make_spec("smac"), seeds, workers=1)

        truncated = make_spec(
            "smac", tmp_path, n_iterations=N_CUT, checkpoint_every=N_CUT
        )
        run_spec(truncated, seeds, workers=1)
        resumed_spec = make_spec(
            "smac", tmp_path, checkpoint_every=N_CUT, resume=True
        )
        resumed = run_spec(resumed_spec, seeds, workers=1)

        for f, r in zip(full, resumed):
            assert np.array_equal(f.values, r.values)
            assert f.best_value == r.best_value
            assert [o.crashed for o in f.knowledge_base] == [
                o.crashed for o in r.knowledge_base
            ]

    def test_process_pool_resume(self, tmp_path):
        """Resume in worker processes (one shard per seed): the checkpoint
        file alone carries the state across the process boundary."""
        seeds = [1, 2]
        full = run_spec(make_spec("smac"), seeds)

        truncated = make_spec(
            "smac", tmp_path, n_iterations=N_CUT, checkpoint_every=N_CUT
        )
        run_spec(truncated, seeds)
        resumed_spec = make_spec(
            "smac", tmp_path, checkpoint_every=N_CUT, resume=True
        )
        resumed = run_spec(resumed_spec, seeds, workers=2)

        for f, r in zip(full, resumed):
            assert np.array_equal(f.values, r.values)
            assert f.best_value == r.best_value

    def test_resume_of_finished_run_is_noop(self, tmp_path):
        """The terminal checkpoint makes resuming a completed sweep free:
        the restored session is already exhausted and replays nothing."""
        spec = make_spec("smac", tmp_path, checkpoint_every=N_FULL)
        first = spec.build(1).run()

        session = make_spec(
            "smac", tmp_path, checkpoint_every=N_FULL, resume=True
        ).build(1)
        assert session.iteration == N_FULL
        assert not session.live
        again = session.run()
        assert np.array_equal(first.values, again.values)


class TestStateMachine:
    def _session(self, **kwargs):
        space = postgres_v96_space()
        from repro.dbms.engine import PostgresSimulator
        from repro.workloads import get_workload

        return TuningSession(
            PostgresSimulator(get_workload("ycsb-a")),
            make_optimizer("random", space, seed=0, n_init=3),
            n_iterations=5,
            **kwargs,
        )

    def test_checkpoint_before_start_rejected(self, tmp_path):
        session = self._session()
        with pytest.raises(RuntimeError, match="unstarted"):
            session.checkpoint(tmp_path / "s.ckpt.json")

    def test_load_into_running_session_rejected(self, tmp_path):
        donor = self._session(checkpoint_path=tmp_path / "s.ckpt.json")
        donor.run()
        path = donor.checkpoint()
        session = self._session()
        session.start()
        with pytest.raises(RuntimeError, match="running"):
            session.load_checkpoint(path)

    def test_objective_mismatch_rejected(self, tmp_path):
        donor = self._session()
        donor.run()
        path = donor.checkpoint(tmp_path / "s.ckpt.json")
        with pytest.raises(ValueError, match="objective|tunes"):
            self._session(objective="latency").load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        donor = self._session()
        donor.run()
        path = donor.checkpoint(tmp_path / "s.ckpt.json")
        head, newline, records = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert header["checkpoint_format_version"] == CHECKPOINT_FORMAT_VERSION
        header["checkpoint_format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        path.write_bytes(json.dumps(header).encode() + newline + records)
        with pytest.raises(ValueError, match="format"):
            self._session().load_checkpoint(path)

    def test_v2_snapshot_rejected(self, tmp_path):
        # A whole-payload v2 checkpoint is one JSON object; there is no
        # migration shim, it is refused by version like any mismatch.
        path = tmp_path / "s.ckpt.json"
        path.write_text(json.dumps({
            "checkpoint_format_version": 2, "objective": "throughput",
            "observations": [],
        }))
        with pytest.raises(ValueError, match="format 2"):
            self._session().load_checkpoint(path)

    def test_checkpoint_every_requires_checkpointable(self):
        space = postgres_v96_space()
        from repro.dbms.engine import PostgresSimulator
        from repro.workloads import get_workload

        optimizer = make_optimizer("ddpg", space, seed=0, n_init=3)
        assert optimizer.checkpointable is False
        with pytest.raises(NotImplementedError):
            optimizer.state_dict()
        with pytest.raises(ValueError, match="not checkpointable"):
            TuningSession(
                PostgresSimulator(get_workload("ycsb-a")),
                optimizer,
                n_iterations=5,
                checkpoint_every=2,
                checkpoint_path="unused.ckpt.json",
            )

    def test_cli_rejects_ddpg_checkpointing(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--optimizer", "ddpg", "--iterations", "5",
                "--checkpoint-every", "2", "--checkpoint-dir", "/tmp/x",
            ]
        )
        assert code == 2
        assert "not checkpointable" in capsys.readouterr().err


class TestAtomicWrites:
    def test_failed_checkpoint_leaves_previous_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "s.ckpt.json"
        save_checkpoint(
            {"objective": "throughput"},
            {"iteration": 0, "rows": [], "optimizer": {}},
            path,
        )
        before = path.read_bytes()

        import repro.tuning.persistence as persistence

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(persistence.os, "replace", explode)
        with pytest.raises(OSError):
            save_checkpoint(
                {"objective": "throughput"},
                {"iteration": 3, "rows": [1, 2, 3], "optimizer": {}},
                path,
            )
        assert path.read_bytes() == before
        # The orphaned temp file is cleaned up too.
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_save_result_leaves_previous_intact(
        self, tmp_path, monkeypatch
    ):
        spec = make_spec("random", n_iterations=6)
        result = spec.build(1).run()
        path = tmp_path / "result.json"
        save_result(result, path)
        before = path.read_text()

        import repro.tuning.persistence as persistence

        monkeypatch.setattr(
            persistence.os,
            "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError):
            save_result(result, path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_checkpoint_roundtrip_is_exact(self, tmp_path):
        """save → load preserves floats bit-for-bit and the RNG state
        verbatim (JSON binary64 round-trip)."""
        spec = make_spec("smac", tmp_path, n_iterations=8, checkpoint_every=8)
        session = spec.build(3)
        session.run()
        payload = load_checkpoint(spec.checkpoint_path(3))
        assert payload["iteration"] == 8
        assert payload["session_rng"] == dict(
            session.rng.bit_generator.state
        )
        values = [row[3] for row in payload["rows"]]
        assert values == [float(v) for v in session.result().values]


class TestSpecFingerprintGuards:
    """PR 9 collision bugfix: checkpoint files are named by the 64-bit
    spec fingerprint (not the 32-bit crc32 trajectory token), and every
    checkpoint header carries the fingerprint so loading a look-alike
    spec's snapshot fails loudly instead of silently restoring it."""

    def test_distinct_specs_use_distinct_files(self, tmp_path):
        a = make_spec("smac", tmp_path)
        b = make_spec("smac", tmp_path, n_init=7)
        assert a.checkpoint_path(1) != b.checkpoint_path(1)
        assert a.spec_fingerprint() in a.checkpoint_path(1).name
        # Same spec, different seeds: same fingerprint, different files.
        assert a.checkpoint_path(1) != a.checkpoint_path(2)
        # Arms that differ only in their early-stopping policy (Table
        # 11's) end their trajectories apart, so each needs its own file.
        c = make_spec(
            "smac", tmp_path, early_stopping=EarlyStoppingPolicy(0.005, 10)
        )
        d = make_spec(
            "smac", tmp_path, early_stopping=EarlyStoppingPolicy(0.01, 10)
        )
        paths = {spec.checkpoint_path(1) for spec in (a, c, d)}
        assert len(paths) == 3

    def test_spec_token_is_still_the_crc32_of_the_canonical_form(self):
        # The 32-bit token keys fault schedules and wave identities;
        # the fingerprint rename must not shift it.
        import zlib

        spec = make_spec("smac")
        assert spec.spec_token() == (
            zlib.crc32(spec.spec_canonical().encode()) & 0xFFFFFFFF
        )

    @pytest.mark.parametrize(
        "spec,canonical,fingerprint,token",
        [
            (
                SessionSpec(workload="ycsb-a", adapter=llamatune_factory()),
                "ycsb-a|smac|LlamaTuneFactory(projection='hesbo', "
                "target_dim=16, bias=0.2, max_values=10000)|throughput|9.6|"
                "10|None|[]|True|1|0.0",
                "2d1e030dc520bb7d",
                219766182,
            ),
            (
                SessionSpec(
                    workload="tpcc", optimizer="gp-bo",
                    optimizer_kwargs=(("refit_every", 5),),
                ),
                "tpcc|gp-bo|None|throughput|9.6|10|None|"
                "[('refit_every', 5)]|True|1|0.0",
                "1f12279076d3af32",
                3075813240,
            ),
        ],
        ids=["smac-llamatune", "gp-bo-refit5"],
    )
    def test_canonical_form_is_pinned(self, spec, canonical, fingerprint, token):
        # The fingerprint names checkpoint files and the token keys fault
        # schedules, so the canonical form must not move byte for byte.
        assert spec.spec_canonical() == canonical
        assert spec.spec_fingerprint() == fingerprint
        assert spec.spec_token() == token

    def test_header_mismatch_fails_loudly(self, tmp_path):
        writer = make_spec(
            "smac", tmp_path, n_iterations=8, checkpoint_every=8
        )
        writer.build(1).run()
        path = writer.checkpoint_path(1)
        # Same spaces, same objective — only n_init differs.  The old
        # header (objective + knob names) could not tell these apart;
        # the fingerprint must.
        loader = make_spec("smac", tmp_path, n_iterations=8, n_init=7)
        session = loader.build(1)
        with pytest.raises(ValueError, match="another spec's state"):
            session.load_checkpoint(path)

    def test_legacy_checkpoint_without_fingerprint_loads(self, tmp_path):
        # A header without a spec_fingerprint (a hand-built session's, or
        # one written before fingerprints existed) skips that check:
        # both-sides validation means it still restores.
        spec = make_spec("smac", tmp_path, n_iterations=8, checkpoint_every=8)
        spec.build(1).run()
        path = spec.checkpoint_path(1)
        head, newline, records = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        del header["spec_fingerprint"]
        path.write_bytes(json.dumps(header).encode() + newline + records)
        session = spec.build(1)  # resume=False: build fresh, load manually
        session.load_checkpoint(path)
        assert session.iteration == 8


class TestQuarantinedCheckpoints:
    """Satellite: resuming a *quarantined* snapshot must refuse by
    default (the envelope already exhausted its retries there) and only
    re-enter under the explicit ``force_resume`` escape hatch."""

    @staticmethod
    def quarantined_spec(tmp_dir, **kwargs):
        # fault_rate=1.0 with the default profile faults every
        # evaluation; the envelope exhausts its retries on the first
        # round and quarantines at iteration 0, and the terminal
        # checkpoint hook snapshots the quarantined state.
        return make_spec(
            "smac", tmp_dir, n_iterations=8, checkpoint_every=4,
            fault_rate=1.0, **kwargs
        )

    def test_resume_refuses_quarantined_checkpoint(self, tmp_path):
        from repro.tuning.session import QuarantinedSessionError

        spec = self.quarantined_spec(tmp_path)
        result = spec.build(1).run()
        assert result.quarantined_at == 0
        assert spec.checkpoint_path(1).exists()
        with pytest.raises(QuarantinedSessionError, match="force"):
            self.quarantined_spec(tmp_path, resume=True).build(1)

    def test_refusal_survives_worker_processes(self, tmp_path):
        """A shard's refusal reaches the caller as the same error, so
        the CLI's ``except QuarantinedSessionError`` (exit 3 and the
        ``--force-resume`` hint) catches it under ``--workers``."""
        from repro.tuning.session import QuarantinedSessionError

        error = pickle.loads(
            pickle.dumps(QuarantinedSessionError(7, tmp_path / "x.json"))
        )
        assert error.quarantined_at == 7
        assert error.path == tmp_path / "x.json"
        assert "force_quarantined" in str(error)

        run_spec(self.quarantined_spec(tmp_path), (1, 2))
        with pytest.raises(QuarantinedSessionError) as raised:
            run_spec(
                self.quarantined_spec(tmp_path, resume=True), (1, 2),
                workers=2,
            )
        assert raised.value.quarantined_at == 0
        assert raised.value.path is not None

    def test_force_resume_reenters_and_retries(self, tmp_path):
        spec = self.quarantined_spec(tmp_path)
        spec.build(1).run()
        session = self.quarantined_spec(
            tmp_path, resume=True, force_resume=True
        ).build(1)
        # The marker is cleared: the session is live again at the
        # quarantine cursor and run() retries the envelope (the failing
        # environment is unchanged here, so it re-quarantines — the
        # point is that the retry *happened*).
        assert session.state == "running"
        assert session.iteration == 0
        assert session.quarantined_at is None
        assert session.live
        result = session.run()
        assert result.quarantined_at == 0


def journal_records(path):
    """The records of the journal at ``path``, decoded (header skipped)."""
    _, _, body = path.read_bytes().partition(b"\n")
    return [json.loads(line.split(b" ", 2)[2]) for line in body.splitlines()]


def journaled_run(optimizer, tmp_dir, seed=1, **kwargs):
    """An uninterrupted run that checkpoints at every round boundary.
    Returns its spec, result and session, the journal's bytes, and the
    offsets where the header and each record end."""
    spec = make_spec(optimizer, tmp_dir, checkpoint_every=1, **kwargs)
    session = spec.build(seed)
    result = session.run()
    data = spec.checkpoint_path(seed).read_bytes()
    ends = [i + 1 for i in range(len(data)) if data[i] == ord("\n")]
    return spec, result, session, data, ends


class TestJournal:
    """Format v3: a checkpoint is a journal of inputs.  Periodic writes
    append one record holding only what changed; a session's first write
    to a path compacts; a file this session did not leave is never
    extended."""

    def test_periodic_writes_append_only_what_changed(self, tmp_path):
        spec = make_spec("smac", tmp_path, checkpoint_every=2)
        result = spec.build(1).run()
        records = journal_records(spec.checkpoint_path(1))
        # The init round (6 rows) is the first write, then one write per
        # two model rounds, the last one terminal.
        assert [r["iteration"] for r in records] == [6, 8, 10, 12, 14, 16]
        assert [len(r["rows"]) for r in records] == [6, 2, 2, 2, 2, 2]
        # The LHS design is journaled once; the optimizer's X/y never.
        assert ["init_points" in r["optimizer"] for r in records] == (
            [True] + [False] * 5
        )
        assert {key for r in records for key in r["optimizer"]} == {
            "type", "rng", "init_points", "model_suggestions",
        }
        payload = load_checkpoint(spec.checkpoint_path(1))
        assert [row[3] for row in payload["rows"]] == [
            float(v) for v in result.values
        ]

    def test_first_write_of_a_resumed_session_compacts(self, tmp_path):
        path = make_spec("smac", tmp_path).checkpoint_path(1)
        make_spec(
            "smac", tmp_path, n_iterations=N_CUT, checkpoint_every=1
        ).build(1).run()
        assert len(journal_records(path)) > 1
        make_spec(
            "smac", tmp_path, n_iterations=N_CUT + 1, checkpoint_every=1,
            resume=True,
        ).build(1).run()
        records = journal_records(path)
        assert len(records) == 1
        assert records[0]["iteration"] == len(records[0]["rows"]) == N_CUT + 1
        assert "init_points" in records[0]["optimizer"]

    def test_checkpoint_to_a_new_path_compacts(self, tmp_path):
        spec = make_spec("smac", tmp_path, n_iterations=10, checkpoint_every=1)
        session = spec.build(1)
        session.run()
        other = session.checkpoint(tmp_path / "copy.ckpt.json")
        assert len(journal_records(spec.checkpoint_path(1))) > 1
        assert len(journal_records(other)) == 1
        assert load_checkpoint(other) == load_checkpoint(
            spec.checkpoint_path(1)
        )

    def test_a_file_this_session_did_not_leave_is_never_extended(
        self, tmp_path
    ):
        spec = make_spec("random", tmp_path, n_iterations=8, checkpoint_every=1)
        path = spec.checkpoint_path(1)
        session = spec.build(1)
        session.run()
        expected = load_checkpoint(path)
        session.checkpoint()
        assert len(journal_records(path)) > 2  # appends while it is ours

        # Another run replaced the file: compact over it.
        make_spec(
            "random", tmp_path, n_iterations=7, checkpoint_every=1
        ).build(1).run()
        session.checkpoint()
        assert len(journal_records(path)) == 1
        assert load_checkpoint(path) == expected

        # Someone extended it: compact again, then append once more.
        with open(path, "ab") as handle:
            handle.write(b"12 00000000 not a record\n")
        session.checkpoint()
        assert len(journal_records(path)) == 1
        session.checkpoint()
        assert len(journal_records(path)) == 2
        assert load_checkpoint(path) == expected

        # And a deleted file is simply rewritten.
        os.unlink(path)
        session.checkpoint()
        assert len(journal_records(path)) == 1
        assert load_checkpoint(path) == expected


class TestTornTails:
    """A kill mid-append leaves a torn last record: the loader drops it
    and the journal ends at the previous round boundary, from which the
    resume is byte-identical.  Damage anywhere else fails loudly."""

    def test_every_cut_inside_the_last_record(self, tmp_path):
        """Every byte offset inside the last record loads exactly the
        previous round boundary.  The session's load reads nothing but
        that folded state, so each cut resumes as the boundary does —
        shown here at the cut's first, middle and last byte."""
        spec, full, full_session, data, ends = journaled_run(
            "smac", tmp_path, n_iterations=10
        )
        path = spec.checkpoint_path(1)
        path.write_bytes(data[:ends[-2]])
        previous = load_checkpoint(path)
        assert previous["iteration"] == 9
        for cut in range(ends[-2] + 1, ends[-1]):
            path.write_bytes(data[:cut])
            assert load_checkpoint(path) == previous, cut
        resumed_spec = make_spec(
            "smac", tmp_path, n_iterations=10, checkpoint_every=1,
            resume=True,
        )
        for cut in (ends[-2] + 1, (ends[-2] + ends[-1]) // 2, ends[-1] - 1):
            path.write_bytes(data[:cut])
            session = resumed_spec.build(1)
            assert session.iteration == 9
            assert_byte_identical(full, session.run(), full_session, session)

    def test_damaged_last_record_is_dropped(self, tmp_path):
        spec, _, _, data, ends = journaled_run(
            "random", tmp_path, n_iterations=10
        )
        path = spec.checkpoint_path(1)
        path.write_bytes(data[:ends[-2]])
        previous = load_checkpoint(path)
        pos = (ends[-2] + ends[-1]) // 2
        path.write_bytes(data[:pos] + bytes([data[pos] ^ 1]) + data[pos + 1:])
        assert load_checkpoint(path) == previous

    def test_flipped_byte_in_a_middle_record_fails_loudly(self, tmp_path):
        spec, _, _, data, ends = journaled_run(
            "random", tmp_path, n_iterations=10
        )
        assert len(ends) > 4
        path = spec.checkpoint_path(1)
        middle = len(ends) // 2
        pos = (ends[middle - 1] + ends[middle]) // 2
        path.write_bytes(data[:pos] + bytes([data[pos] ^ 1]) + data[pos + 1:])
        with pytest.raises(ValueError, match="corrupt"):
            load_checkpoint(path)
        resumed = make_spec(
            "random", tmp_path, n_iterations=10, checkpoint_every=1,
            resume=True,
        )
        with pytest.raises(ValueError, match="corrupt"):
            resumed.build(1)

    def test_header_alone_is_refused(self, tmp_path):
        spec, _, _, data, ends = journaled_run(
            "random", tmp_path, n_iterations=8
        )
        path = spec.checkpoint_path(1)
        path.write_bytes(data[:ends[0]])
        with pytest.raises(ValueError, match="no complete record"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "optimizer,kwargs",
        [
            ("smac", {}),
            ("random", {}),
            ("gp-bo", {}),
            ("gp-bo", {"optimizer_kwargs": (("refit_every", 5),)}),
            # A policy that could stop inside the design splits it into
            # rounds (and records) that end at its earliest possible stop.
            ("smac", {"early_stopping": EarlyStoppingPolicy(
                min_improvement=0.0, patience=1, warmup=2
            )}),
        ],
        ids=["smac", "random", "gp-bo", "gp-bo-refit5", "smac-capped-init"],
    )
    def test_resume_after_every_record(self, optimizer, kwargs, tmp_path):
        """Truncated after any record, the journal resumes into the
        uninterrupted trajectory — which journaling every round leaves
        unchanged."""
        plain, plain_session = run_full(make_spec(optimizer, **kwargs), 1)
        spec, full, full_session, data, ends = journaled_run(
            optimizer, tmp_path, **kwargs
        )
        assert_byte_identical(plain, full, plain_session, full_session)
        path = spec.checkpoint_path(1)
        resumed_spec = make_spec(
            optimizer, tmp_path, checkpoint_every=1, resume=True, **kwargs
        )
        for end in ends[1:]:
            path.write_bytes(data[:end])
            session = resumed_spec.build(1)
            assert session.iteration == load_checkpoint(path)["iteration"]
            assert_byte_identical(full, session.run(), full_session, session)
