"""Smoke tests for the experiment harness (tiny scale)."""

import dataclasses
import pickle

import pytest

from repro.experiments import EXPERIMENTS, Scale, run_experiment
from repro.experiments import __main__ as experiments_cli
from repro.experiments.common import ExperimentReport, format_series
from repro.experiments.fig2_knob_subsets import SubsetFactory
from repro.experiments.fig4_special_value import sweep
from repro.experiments.table1_importance import HAND_PICKED_YCSB_A
from repro.tuning.runner import SessionSpec

TINY = Scale(seeds=(1,), n_iterations=12, lhs_samples=60, shap_permutations=30)


class TestHarness:
    def test_registry_covers_all_paper_artifacts(self):
        expected = {
            "table1", "fig2", "fig3", "fig4", "fig6", "fig7", "table5",
            "fig9", "fig10", "table6", "table7", "table8", "table9",
            "fig11", "table10", "table11",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_report_text_format(self):
        report = ExperimentReport("x", "title")
        report.add("row")
        assert "=== x: title ===" in report.text()
        assert "row" in report.text()

    def test_format_series_samples_iterations(self):
        text = format_series("label", list(range(100)), every=50)
        assert "label" in text and "50:" in text and "100:" in text


class TestFastExperiments:
    """The cheap experiments run end-to-end at tiny scale."""

    def test_fig4_shape(self):
        results = sweep()
        assert results[0] == max(results.values())  # special value wins
        assert min(results, key=results.get) in (1, 2)  # small values worst

    def test_table1_tiny(self):
        report = run_experiment("table1", TINY)
        assert len(report.data["shap_top8"]) == 8
        assert report.data["hand_picked"] == list(HAND_PICKED_YCSB_A)

    def test_table9_tiny(self):
        report = run_experiment("table9", TINY)
        assert set(report.data) == {"ycsb-b", "tpcc", "twitter", "resourcestresser"}
        for row in report.data.values():
            assert "improvement" in row and "speedup" in row

    def test_table10_tiny(self):
        report = run_experiment("table10", TINY)
        for optimizer in ("smac", "gp-bo", "ddpg"):
            assert report.data[optimizer]["baseline_seconds"] >= 0

    def test_fig9_fig10_alias_table5(self):
        assert EXPERIMENTS["fig9"] is EXPERIMENTS["table5"]
        assert EXPERIMENTS["fig10"] is EXPERIMENTS["table5"]


class TestFig2Specs:
    SHAP_LIKE = (
        "shared_buffers", "huge_pages", "autovacuum_vacuum_threshold",
        "geqo_generations", "cpu_operator_cost", "fsync", "seq_page_cost",
        "autovacuum_vacuum_cost_delay",
    )

    def test_subset_arms_fingerprint_apart(self):
        hand = SessionSpec(
            workload="ycsb-a", adapter=SubsetFactory(HAND_PICKED_YCSB_A)
        )
        shap = SessionSpec(
            workload="ycsb-a", adapter=SubsetFactory(self.SHAP_LIKE)
        )
        assert hand.spec_fingerprint() != shap.spec_fingerprint()

    def test_spec_round_trips_through_pickle(self):
        spec = SessionSpec(
            workload="tpcc", adapter=SubsetFactory(HAND_PICKED_YCSB_A)
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.spec_fingerprint() == spec.spec_fingerprint()
        space = clone.build(1).adapter.optimizer_space
        assert tuple(space.names) == HAND_PICKED_YCSB_A


class TestResilienceFlags:
    """The experiments CLI's resilience flags ride on the Scale and reach
    every arm's spec through ``Scale.arm``."""

    @pytest.fixture
    def scales(self, monkeypatch):
        """The Scale each experiment would run at (the CLI's
        ``run_experiment`` replaced by a stub)."""
        seen = []

        def fake_run(experiment_id, scale):
            seen.append(scale)
            return ExperimentReport(experiment_id, "stub")

        monkeypatch.setattr(experiments_cli, "run_experiment", fake_run)
        return seen

    def test_cli_flags_reach_every_arm(self, scales, tmp_path, capsys):
        assert experiments_cli.main([
            "fig2", "--scale", "quick", "--workers", "2",
            "--checkpoint-every", "4", "--checkpoint-dir", str(tmp_path),
            "--resume", "--force-resume", "--fault-rate", "0.1",
            "--fault-seed", "3",
        ]) == 0
        (scale,) = scales
        assert scale.workers == 2
        assert scale.seeds == Scale.quick().seeds
        spec = scale.arm(SessionSpec(workload="ycsb-a"))
        assert (
            spec.checkpoint_every, spec.checkpoint_dir, spec.resume,
            spec.force_resume, spec.fault_rate, spec.fault_seed,
        ) == (4, str(tmp_path), True, True, 0.1, 3)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--fault-rate", "-0.5"], "--fault-rate"),
            (["--fault-rate", "2"], "--fault-rate"),
            (["--checkpoint-every", "-3", "--checkpoint-dir", "D"],
             "--checkpoint-every"),
        ],
        ids=["fault-rate-negative", "fault-rate-above-one",
             "checkpoint-every-negative"],
    )
    def test_out_of_range_flags_rejected(self, argv, flag, scales, capsys):
        """An argument error (exit 2) before any experiment runs."""
        with pytest.raises(SystemExit) as exit_info:
            experiments_cli.main(["table5", "--scale", "quick", *argv])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
        assert scales == []

    @pytest.mark.parametrize("experiment", ["table9", "table10", "all"])
    def test_checkpointing_refuses_the_ddpg_experiments(
        self, experiment, scales, tmp_path, capsys
    ):
        """DDPG's state is outside the checkpoint contract, so checkpointing
        an experiment with DDPG arms is an argument error (exit 2) before
        any experiment runs, not a crash at its first DDPG arm."""
        with pytest.raises(SystemExit) as exit_info:
            experiments_cli.main([
                experiment, "--scale", "quick", "--checkpoint-every", "5",
                "--checkpoint-dir", str(tmp_path),
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "table9" in err and "table10" in err
        assert scales == []

    def test_unset_flags_leave_specs_unchanged(self, scales, capsys):
        assert experiments_cli.main(["table5", "--scale", "quick"]) == 0
        (scale,) = scales
        assert scale == Scale.quick()
        spec = SessionSpec(workload="ycsb-a")
        assert scale.arm(spec) == spec

    def test_one_checkpoint_per_arm_and_seed(self, tmp_path):
        """Sharded grids give each arm its own checkpoint files: fig2 at
        tiny scale (3 arms x 2 workloads x 2 seeds) and table11 (4 arms
        x 6 workloads x 1 seed; three arms differ only in their
        early-stopping policy).  Resumed from its checkpoints, table11
        reports what its uninterrupted run reported."""
        scale = dataclasses.replace(
            TINY, seeds=(1, 2), workers=2, checkpoint_every=6,
            checkpoint_dir=str(tmp_path / "fig2"),
        )
        run_experiment("fig2", scale)
        files = sorted(path.name for path in (tmp_path / "fig2").iterdir())
        assert len(files) == 12, files
        assert sum(name.startswith("ycsb-a-") for name in files) == 6
        assert sum(name.endswith("-seed2.ckpt.json") for name in files) == 6

        scale = dataclasses.replace(
            TINY, n_iterations=40, workers=2, checkpoint_every=5,
            checkpoint_dir=str(tmp_path / "table11"),
        )
        fresh = run_experiment("table11", scale).text()
        assert len(list((tmp_path / "table11").iterdir())) == 24
        resumed = dataclasses.replace(scale, resume=True)
        assert run_experiment("table11", resumed).text() == fresh
