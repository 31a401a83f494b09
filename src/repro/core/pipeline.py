"""The unified LlamaTune search-space adapter (paper, Section 5, Figure 8).

The adapter sits between any optimizer and the DBMS knob space:

1. the optimizer tunes the adapter's :attr:`optimizer_space` — a synthetic
   low-dimensional space under HeSBO/REMBO projection (optionally
   bucketized to ``K`` unique values per dimension), or the original space
   (optionally bucketized) when no projection is used;
2. a suggested configuration is projected to the normalized knob space
   ``[-1, 1]^D``;
3. each coordinate is normalized to ``[0, 1]``;
4. special-value biasing is applied to hybrid knobs only;
5. values are rescaled to native knob ranges, yielding the DBMS
   configuration to evaluate.

Design requirements from the paper: the optimizer only ever sees the
low-dimensional (bucketized) space; biasing applies strictly after
projection and only to hybrid knobs; bucketization is exposed to the
optimizer through the grid of the synthetic knobs.

Steps 2-5 have one implementation per input kind at every batch size: a
matrix pass for projected rows, a per-knob plan for unprojected ones, both
pinned to the knob-by-knob definition in ``tests/adapter_reference.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.core.biasing import SpecialValueBiaser
from repro.core.bucketization import bucketize_space
from repro.core.projections import LinearProjection, make_projection
from repro.space.configspace import Configuration, ConfigurationSpace
from repro.space.knob import FloatKnob, IntegerKnob


class SearchSpaceAdapter(ABC):
    """Maps optimizer-space configurations onto target-space configurations.

    :meth:`to_target_batch` is the one method an adapter implements;
    :meth:`to_target` is its one-row batch.
    """

    def __init__(self, target_space: ConfigurationSpace):
        self.target_space = target_space

    @property
    @abstractmethod
    def optimizer_space(self) -> ConfigurationSpace:
        """The space the optimizer tunes."""

    @abstractmethod
    def to_target_batch(
        self, configs: Sequence[Configuration]
    ) -> list[Configuration]:
        """Convert ``N`` optimizer-space suggestions to DBMS configurations."""

    def to_target(self, config: Configuration) -> Configuration:
        """Convert one optimizer-space suggestion: a one-row
        :meth:`to_target_batch`."""
        return self.to_target_batch([config])[0]


class IdentityAdapter(SearchSpaceAdapter):
    """Baseline: the optimizer tunes the original knob space directly."""

    @property
    def optimizer_space(self) -> ConfigurationSpace:
        return self.target_space

    def to_target_batch(
        self, configs: Sequence[Configuration]
    ) -> list[Configuration]:
        return list(configs)


class SubspaceAdapter(SearchSpaceAdapter):
    """Tune only a subset of knobs; the rest stay at their defaults.

    Used by the motivation study (Figure 2): tuning SHAP's or the
    hand-picked top-8 knobs while the other 82 keep the DBMS defaults.
    """

    def __init__(self, target_space: ConfigurationSpace, knob_names):
        super().__init__(target_space)
        self._subspace = target_space.subspace(knob_names)

    @property
    def optimizer_space(self) -> ConfigurationSpace:
        return self._subspace

    def to_target_batch(
        self, configs: Sequence[Configuration]
    ) -> list[Configuration]:
        return [
            self.target_space.partial_configuration(dict(config))
            for config in configs
        ]


class LlamaTuneAdapter(SearchSpaceAdapter):
    """The full (and ablatable) LlamaTune pipeline.

    Args:
        target_space: The DBMS knob space (e.g. the 90-knob v9.6 catalog).
        projection: ``"hesbo"`` (paper default), ``"rembo"``, or ``None`` to
            tune the original space (used by the SVB/bucketization-only
            ablations, Figures 6 and 7).
        target_dim: Dimensionality ``d`` of the synthetic space (16 default).
        bias: Special-value bias probability ``p`` (0.2 default; 0 disables).
        max_values: Bucketization limit ``K`` (10,000 default; ``None``
            disables bucketization).
        seed: Seed for the random projection matrix.

    Raises:
        ValueError: ``max_values`` is below 2, ``target_dim`` is outside
            ``[1, D]``, or ``bias`` is outside ``[0, 0.5)`` or fills a
            hybrid knob's whole range.
    """

    def __init__(
        self,
        target_space: ConfigurationSpace,
        projection: str | None = "hesbo",
        target_dim: int = 16,
        bias: float = 0.2,
        max_values: int | None = 10_000,
        seed: int = 0,
    ):
        if max_values is not None and max_values < 2:
            raise ValueError(
                f"max_values (bucketization K) must be None or >= 2, got "
                f"{max_values}"
            )
        super().__init__(target_space)
        self.biaser = SpecialValueBiaser(target_space, bias)
        self.max_values = max_values
        self.projection: LinearProjection | None = None

        if projection is not None:
            rng = np.random.default_rng(seed)
            self.projection = make_projection(
                projection, target_space.dim, target_dim, rng=rng
            )
            self._optimizer_space = self._synthetic_space(projection)
        elif max_values is not None:
            self._optimizer_space = bucketize_space(target_space, max_values)
        else:
            self._optimizer_space = target_space
        self._plan = self._unprojected_plan() if projection is None else []

    # --- spaces -------------------------------------------------------------

    def _synthetic_space(self, kind: str) -> ConfigurationSpace:
        assert self.projection is not None
        bound = self.projection.low_bound
        knobs = []
        for j in range(self.projection.target_dim):
            name = f"{kind}_{j + 1}"
            if self.max_values is not None:
                # A discrete grid exposes the bucketized sampling intervals
                # (Q = 2 * bound / K) to the optimizer.
                knobs.append(
                    IntegerKnob(
                        name=name,
                        default=(self.max_values - 1) // 2,
                        lower=0,
                        upper=self.max_values - 1,
                        description=f"synthetic {kind} dimension {j + 1} "
                                    f"(bucketized to {self.max_values})",
                    )
                )
            else:
                knobs.append(
                    FloatKnob(
                        name=name,
                        default=0.0,
                        lower=-bound,
                        upper=bound,
                        description=f"synthetic {kind} dimension {j + 1}",
                    )
                )
        return ConfigurationSpace(
            knobs, name=f"{self.target_space.name}/{kind}-{len(knobs)}"
        )

    @property
    def optimizer_space(self) -> ConfigurationSpace:
        return self._optimizer_space

    # --- conversion ------------------------------------------------------------

    def _low_matrix(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Low-dimensional points in ``[-bound, bound]^d``, one per row."""
        assert self.projection is not None
        bound = self.projection.low_bound
        names = self._optimizer_space.names
        raw = np.array(
            [[config[name] for name in names] for config in configs], dtype=float
        )
        if self.max_values is not None:
            unit = raw / (self.max_values - 1)
            return bound * (2.0 * unit - 1.0)
        return raw

    def _unprojected_plan(self) -> list[tuple]:
        """One ``(name, bucket, lower, span, integer, svb)`` entry per column
        an unprojected row changes (a bucketized index knob or a biased
        hybrid knob; the rest pass through).  ``bucket`` is ``K - 1`` for a
        bucketized knob, else 0; ``svb`` is ``None`` or the knob's
        ``(specials, mass, lo, hi - lo)``."""
        arrays = self.target_space.arrays
        plan = []
        for j, knob in enumerate(self.target_space):
            bucketized = self._optimizer_space[knob.name] is not knob
            svb = self.biaser.biased.get(j)
            if not bucketized and svb is None:
                continue
            integer = bool(arrays.is_integer[j])
            plan.append((
                knob.name,
                self.max_values - 1 if bucketized else 0,  # type: ignore[operator]
                int(arrays.lower[j]) if integer else float(arrays.lower[j]),
                float(arrays.span[j]),
                integer,
                None if svb is None else (
                    svb.specials, svb.mass, svb.lo, svb.hi - svb.lo
                ),
            ))
        return plan

    def _unprojected_row(self, config: Configuration) -> Configuration:
        """One unprojected suggestion through the plan; the columns it
        does not name keep the suggestion's values."""
        values = config.to_dict()
        bias = self.biaser.bias
        for name, bucket, lower, span, integer, svb in self._plan:
            raw = values[name]
            if bucket:
                u = raw / bucket
            else:
                u = (raw - lower) / span if span > 0.0 else 0.0
            if u < 0.0:
                u = 0.0
            elif u > 1.0:
                u = 1.0
            if svb is not None:
                specials, mass, lower, span = svb
                if u < mass:
                    values[name] = specials[
                        min(int(u / bias), len(specials) - 1)
                    ]
                    continue
                u = (u - mass) / (1.0 - mass)
            values[name] = lower + round(u * span) if integer else lower + u * span
        return Configuration._trusted(self.target_space, values)

    def to_target_batch(
        self, configs: Sequence[Configuration]
    ) -> list[Configuration]:
        """Project, normalize, bias, and rescale ``N`` suggestions at once.

        Projected rows take one matrix pass: the projection, the clip to
        ``[0, 1]``, and :meth:`SpecialValueBiaser.from_unit_array` (the
        target space's native blocks, every biased knob in one masked pass
        per kind, one assembly).  Unprojected rows (the SVB-only and
        bucketization-only ablations) take the per-knob plan row by row,
        over only the columns it changes.
        """
        if self.projection is None:
            return [self._unprojected_row(config) for config in configs]
        if not configs:
            return []
        high = self.projection.project_batch(self._low_matrix(configs))
        return self.biaser.from_unit_array((high + 1.0) / 2.0)


def llamatune_adapter(
    target_space: ConfigurationSpace, seed: int = 0
) -> LlamaTuneAdapter:
    """The paper-default LlamaTune pipeline: HeSBO-16, 20% SVB, K=10,000."""
    return LlamaTuneAdapter(
        target_space,
        projection="hesbo",
        target_dim=16,
        bias=0.2,
        max_values=10_000,
        seed=seed,
    )
