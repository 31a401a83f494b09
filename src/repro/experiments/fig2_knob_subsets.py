"""Figure 2: tuning knob subsets, and transferring them across workloads.

(a) On YCSB-A, tune: all 90 knobs, the hand-picked top-8, and SHAP's top-8.
    The paper's finding: the hand-picked subset converges faster and at
    least matches all-knobs, while SHAP's subset ends up worse.
(b) On TPC-C, tune YCSB-A's two top-8 subsets against all knobs: important
    knobs do not transfer across workloads.

Reproduction caveat: on the simulated testbed the Shapley ranking is more
reliable, and the important-knob sets overlap more across workloads, than
on the paper's real system — so expect (a)'s ordering and (b)'s
transfer-failure to deviate.  EXPERIMENTS.md records the measured outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import SubspaceAdapter
from repro.experiments.common import ExperimentReport, Scale, add_mean_curves
from repro.experiments.table1_importance import HAND_PICKED_YCSB_A, shap_ranking
from repro.space.configspace import ConfigurationSpace


@dataclass(frozen=True)
class SubsetFactory:
    """Adapter factory tuning only the knobs in ``names``.

    A module-level dataclass, like
    :class:`~repro.tuning.runner.LlamaTuneFactory`: it pickles into
    worker processes, and its ``repr`` names the subset, so each arm's
    spec fingerprint (and checkpoint file) is its own.
    """

    names: tuple[str, ...]

    def __call__(self, space: ConfigurationSpace, seed: int) -> SubspaceAdapter:
        return SubspaceAdapter(space, self.names)


def run(scale: Scale | None = None) -> ExperimentReport:
    scale = scale or Scale.default()
    report = ExperimentReport(
        "fig2", "Tuning knob subsets on YCSB-A; transferring them to TPC-C"
    )
    shap_top8 = shap_ranking(scale=scale).top(8)

    arms = {
        "All knobs": None,
        "Hand-picked (top-8)": SubsetFactory(HAND_PICKED_YCSB_A),
        "SHAP (top-8)": SubsetFactory(shap_top8),
    }
    panels = {"(a) YCSB-A": "ycsb-a", "(b) TPC-C": "tpcc"}
    results = scale.run_sweep(panels.values(), arms)

    report.data = {"shap_top8": list(shap_top8)}
    for panel, workload in panels.items():
        report.add(f"{panel}: best throughput, SMAC, {scale.n_iterations} iters")
        report.data[panel] = add_mean_curves(report, results[workload])
        report.add()
    return report
