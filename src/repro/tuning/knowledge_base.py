"""Knowledge base: the record of all evaluated configurations (Figure 1).

Every tuning framework in the paper's architecture keeps a knowledge base
``D = {(θ_j, f(θ_j))}`` that the optimizer consults; ours additionally
stores the optimizer-space configuration, crash flags, and per-iteration
optimizer overhead (needed for Table 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.space.configspace import Configuration


@dataclass(frozen=True)
class Observation:
    """One tuning iteration's outcome."""

    iteration: int
    optimizer_config: Configuration
    target_config: Configuration
    value: float  # objective value actually recorded (after crash penalty)
    crashed: bool
    suggest_seconds: float
    throughput: float | None = None
    p95_latency_ms: float | None = None


@dataclass
class KnowledgeBase:
    """Ordered store of observations with best-so-far queries."""

    maximize: bool = True
    observations: list[Observation] = field(default_factory=list)

    def record(self, observation: Observation) -> None:
        self.observations.append(observation)

    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations)

    @property
    def values(self) -> np.ndarray:
        return np.array([o.value for o in self.observations], dtype=float)

    def best_value(self) -> float:
        if not self.observations:
            raise RuntimeError("knowledge base is empty")
        values = self.values
        return float(values.max() if self.maximize else values.min())

    def best_observation(self) -> Observation:
        if not self.observations:
            raise RuntimeError("knowledge base is empty")
        values = self.values
        index = int(values.argmax() if self.maximize else values.argmin())
        return self.observations[index]

    def best_so_far(self) -> np.ndarray:
        """Best objective value achieved up to each iteration (inclusive)."""
        values = self.values
        if self.maximize:
            return np.maximum.accumulate(values)
        return np.minimum.accumulate(values)
