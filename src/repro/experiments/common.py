"""Shared scaffolding for the paper-experiment harness.

Every experiment module exposes ``run(scale) -> ExperimentReport``.  A
:class:`Scale` bundles the knobs that trade fidelity for wall-clock time:
the paper's protocol is ``Scale.paper()`` (5 seeds × 100 iterations); CI and
pytest-benchmark use ``Scale.quick()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Hashable, Mapping

from repro.tuning.runner import SessionSpec, mean_best_curve, run_grid
from repro.tuning.session import TuningResult


@dataclass(frozen=True)
class Scale:
    """Execution scale of an experiment.

    ``workers`` is the execution strategy of :meth:`run_arms`, which runs
    an experiment's arms and seeds as one grid
    (:func:`repro.tuning.runner.run_grid`, ``--workers``): None runs the
    sessions sequentially, 1 in one wave, N >= 2 in waves sharded over N
    worker processes — execution strategy only, results unchanged.

    The resilience fields (``--checkpoint-every``, ``--checkpoint-dir``,
    ``--resume``, ``--force-resume``, ``--fault-rate``, ``--fault-seed``)
    reach every arm's :class:`SessionSpec` through :meth:`arm`; their
    defaults are the spec's own.
    """

    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    n_iterations: int = 100
    lhs_samples: int = 2000  # importance-study sample count (paper: 2500)
    shap_permutations: int = 600
    workers: int | None = None
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    resume: bool = False
    force_resume: bool = False
    fault_rate: float = 0.0
    fault_seed: int = 0

    def arm(self, spec: SessionSpec) -> SessionSpec:
        """``spec`` with this scale's resilience fields."""
        return replace(
            spec,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
            force_resume=self.force_resume,
            fault_rate=self.fault_rate,
            fault_seed=self.fault_seed,
        )

    def run_arms(
        self, specs: Mapping[Hashable, SessionSpec]
    ) -> dict[Hashable, list[TuningResult]]:
        """Run every arm (through :meth:`arm`) across this scale's seeds
        as one grid with this scale's ``workers``; each key's results in
        seed order."""
        arms = [self.arm(spec) for spec in specs.values()]
        results = iter(run_grid(
            [(arm, seed) for arm in arms for seed in self.seeds], self.workers
        ))
        return {key: [next(results) for __ in self.seeds] for key in specs}

    def run_sweep(
        self, workloads: Collection[str], adapters: Mapping[str, object]
    ) -> dict[str, dict[str, list[TuningResult]]]:
        """SMAC on every workload with every labelled adapter factory
        (None: the full space) at this scale's budget, as one
        :meth:`run_arms` grid; results by workload, then label."""
        results = self.run_arms({
            (workload, label): SessionSpec(
                workload=workload,
                adapter=adapter,
                n_iterations=self.n_iterations,
            )
            for workload in workloads
            for label, adapter in adapters.items()
        })
        return {
            workload: {label: results[workload, label] for label in adapters}
            for workload in workloads
        }

    @classmethod
    def paper(cls) -> "Scale":
        return cls()

    @classmethod
    def default(cls) -> "Scale":
        """Moderate scale for the recorded EXPERIMENTS.md runs."""
        return cls(seeds=(1, 2, 3), n_iterations=100, lhs_samples=1200,
                   shap_permutations=400)

    @classmethod
    def quick(cls) -> "Scale":
        """Small scale for benchmarks/CI (shapes still observable)."""
        return cls(seeds=(1, 2), n_iterations=40, lhs_samples=300,
                   shap_permutations=120)


@dataclass
class ExperimentReport:
    """A reproduced table/figure: printable rows plus machine-readable data."""

    experiment_id: str
    title: str
    lines: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def text(self) -> str:
        header = f"=== {self.experiment_id}: {self.title} ==="
        return "\n".join([header, *self.lines])

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def format_series(label: str, values, every: int = 10) -> str:
    """One figure series as compact text (sampled every N iterations)."""
    points = [
        f"{i + 1:>3}:{float(v):,.0f}"
        for i, v in enumerate(values)
        if (i + 1) % every == 0 or i == 0
    ]
    return f"  {label:32s} " + "  ".join(points)


def add_mean_curves(
    report: ExperimentReport, arms: Mapping[str, list[TuningResult]]
) -> dict[str, float]:
    """Add each arm's seed-averaged best-so-far curve to ``report`` as one
    series; return each arm's final mean best, by label."""
    finals = {}
    for label, results in arms.items():
        curve = mean_best_curve(results)
        finals[label] = float(curve[-1])
        report.add(format_series(label, curve))
    return finals
