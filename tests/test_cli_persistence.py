"""Tests for the tuning CLI and knowledge-base persistence."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.pipeline import llamatune_adapter
from repro.space.postgres import postgres_v96_space
from repro.tuning.knowledge_base import KnowledgeBase, Observation
from repro.tuning.persistence import load_result, result_to_dict, save_result
from repro.tuning.runner import SessionSpec, llamatune_factory
from repro.tuning.session import TuningResult


@pytest.fixture(scope="module")
def small_result():
    spec = SessionSpec(
        workload="ycsb-a", adapter=llamatune_factory(), n_iterations=8
    )
    return spec.build(seed=3).run()


class TestPersistence:
    def test_round_trip(self, small_result, tmp_path):
        path = tmp_path / "kb.json"
        save_result(small_result, path)
        space = postgres_v96_space()
        adapter = llamatune_adapter(space, seed=3)
        loaded = load_result(path, adapter.optimizer_space, space)
        assert len(loaded.knowledge_base) == len(small_result.knowledge_base)
        assert loaded.best_value == pytest.approx(small_result.best_value)
        assert loaded.objective == small_result.objective
        for a, b in zip(loaded.knowledge_base, small_result.knowledge_base):
            assert a.target_config == b.target_config
            assert a.crashed == b.crashed

    def test_dict_schema(self, small_result):
        payload = result_to_dict(small_result)
        assert payload["format_version"] == 1
        assert len(payload["observations"]) == 8
        first = payload["observations"][0]
        assert {"iteration", "value", "crashed"} <= set(first)

    def test_unsupported_version_rejected(self, small_result, tmp_path):
        path = tmp_path / "kb.json"
        payload = result_to_dict(small_result)
        payload["format_version"] = 99
        path.write_text(json.dumps(payload, default=float))
        space = postgres_v96_space()
        adapter = llamatune_adapter(space, seed=3)
        with pytest.raises(ValueError):
            load_result(path, adapter.optimizer_space, space)


class TestPersistenceEdgeCases:
    """Round trips for the awkward observations: crashes (None measurement
    fields), early-stopped sessions, and JSON's int/float blurring."""

    def _make_result(self, space, stopped_early_at=None):
        kb = KnowledgeBase(maximize=True)
        ok = space.default_configuration()
        crasher = space.partial_configuration(
            {"shared_buffers": space["shared_buffers"].upper}
        )
        kb.record(
            Observation(
                iteration=0,
                optimizer_config=ok,
                target_config=ok,
                value=1200.0,
                crashed=False,
                suggest_seconds=0.01,
                throughput=1200.0,
                p95_latency_ms=33.0,
            )
        )
        kb.record(
            Observation(
                iteration=1,
                optimizer_config=crasher,
                target_config=crasher,
                value=300.0,  # ¼-of-worst penalty
                crashed=True,
                suggest_seconds=0.02,
                throughput=None,
                p95_latency_ms=None,
            )
        )
        return TuningResult(
            knowledge_base=kb,
            objective="throughput",
            default_value=1200.0,
            stopped_early_at=stopped_early_at,
        )

    def test_crashed_observation_round_trip(self, tmp_path):
        space = postgres_v96_space()
        path = tmp_path / "kb.json"
        save_result(self._make_result(space), path)
        loaded = load_result(path, space, space)
        crash = loaded.knowledge_base.observations[1]
        assert crash.crashed is True
        assert crash.throughput is None
        assert crash.p95_latency_ms is None
        assert crash.value == 300.0
        # The measured observation keeps its fields.
        ok = loaded.knowledge_base.observations[0]
        assert ok.throughput == 1200.0
        assert ok.p95_latency_ms == 33.0
        assert loaded.crash_count == 1

    def test_early_stopped_round_trip(self, tmp_path):
        space = postgres_v96_space()
        path = tmp_path / "kb.json"
        save_result(self._make_result(space, stopped_early_at=2), path)
        loaded = load_result(path, space, space)
        assert loaded.stopped_early_at == 2

    def test_integer_knob_float_coercion(self, tmp_path):
        """JSON writers (e.g. ``default=float``) may render integer knob
        values as 1.0; loading must coerce them back to native ints."""
        space = postgres_v96_space()
        payload = result_to_dict(self._make_result(space))
        for obs in payload["observations"]:
            obs["optimizer_config"]["work_mem"] = float(
                obs["optimizer_config"]["work_mem"]
            )
            obs["target_config"]["shared_buffers"] = float(
                obs["target_config"]["shared_buffers"]
            )
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(payload))
        loaded = load_result(path, space, space)
        for obs in loaded.knowledge_base:
            assert type(obs.optimizer_config["work_mem"]) is int
            assert type(obs.target_config["shared_buffers"]) is int


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "ycsb-a"
        assert args.optimizer == "smac"
        assert not args.no_llamatune

    def test_latency_without_rate_errors(self, capsys):
        code = main(["--objective", "latency", "--iterations", "5"])
        assert code == 2

    def test_end_to_end_with_outputs(self, tmp_path, capsys):
        conf = tmp_path / "best.conf"
        kb = tmp_path / "kb.json"
        code = main(
            [
                "--workload", "ycsb-a",
                "--iterations", "6",
                "--no-plot",
                "--conf-out", str(conf),
                "--kb-out", str(kb),
            ]
        )
        assert code == 0
        assert "shared_buffers = " in conf.read_text()
        assert json.loads(kb.read_text())["observations"]
        out = capsys.readouterr().out
        assert "best:" in out

    def test_vanilla_baseline_flag(self, capsys):
        code = main(
            ["--workload", "ycsb-a", "--iterations", "4", "--no-llamatune",
             "--no-plot", "--optimizer", "random"]
        )
        assert code == 0
        assert "vanilla" in capsys.readouterr().out

    def test_early_stop_flag(self, capsys):
        code = main(
            ["--workload", "ycsb-a", "--iterations", "40", "--no-plot",
             "--early-stop", "5,3", "--optimizer", "random"]
        )
        assert code == 0

    def test_every_strategy_prints_the_same_results(self, capsys):
        argv = ["--workload", "ycsb-a", "--iterations", "8", "--no-plot",
                "--optimizer", "smac", "--seeds", "1,2,3"]
        outputs = []
        for strategy in ([], ["--workers", "1"], ["--workers", "2"]):
            assert main(argv + strategy) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "argv",
        [["--workers", "0"]],
        ids=["workers-0"],
    )
    def test_strategy_flag_errors(self, argv, capsys):
        assert main(argv + ["--iterations", "4", "--no-plot"]) == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--iterations", "0", "--no-plot"], "--iterations"),
            (["serve", "--tenants", "1", "--iterations", "0"], "--iterations"),
            (["serve", "--tenants", "1", "--iterations", "2",
              "--gather-window", "-1"], "--gather-window"),
            (["serve", "--tenants", "1", "--iterations", "2",
              "--n-init", "0"], "--n-init"),
            (["serve", "--tenants", "1", "--iterations", "2",
              "--seeds", ","], "--seeds"),
        ],
        ids=["tune-iterations-0", "serve-iterations-0",
             "serve-negative-gather-window", "serve-n-init-0",
             "serve-no-seeds"],
    )
    def test_budget_and_window_errors(self, argv, flag, capsys):
        """An empty budget (no iterations, no init design, no seeds) or a
        negative gather window is an argument error (exit 2), not a
        crash or a quarantine report."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    def test_plot_output(self, capsys):
        code = main(["--workload", "ycsb-a", "--iterations", "5",
                     "--optimizer", "random"])
        assert code == 0
        assert "iteration" in capsys.readouterr().out
