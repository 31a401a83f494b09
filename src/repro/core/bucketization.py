"""Search-space bucketization (paper, Section 4.2).

Knobs with huge value ranges (``commit_delay`` in microseconds,
``shared_buffers`` in 8 kB pages, ...) inflate the search space even though
nearby values perform identically.  Bucketization caps the number of unique
values any dimension can take at ``K`` (10,000 by default, chosen so that
~50% of the v9.6 knobs are affected); values snap to a uniform grid.

The optimizer sees the grid as integer *index* knobs: the synthetic knobs
of a projected space, or the index knobs :func:`bucketize_space` puts in
place of the large knobs of an unprojected one.
:class:`~repro.core.pipeline.LlamaTuneAdapter` maps an index ``i`` back to
the unit value ``i / (K - 1)`` (and checks ``K >= 2``).
"""

from __future__ import annotations

from repro.space.configspace import ConfigurationSpace
from repro.space.knob import CategoricalKnob, IntegerKnob, Knob


def bucketized_fraction(space: ConfigurationSpace, max_values: int) -> float:
    """Fraction of the space's knobs affected by a given ``K`` (the paper's
    policy sets K so this fraction is ~P%, Section 4.2): those with more
    than ``K`` unique values."""
    return sum(knob.num_values > max_values for knob in space) / len(space)


def bucketize_space(
    space: ConfigurationSpace, max_values: int
) -> ConfigurationSpace:
    """Expose a bucketized version of ``space`` to the optimizer.

    Knobs with more than ``max_values`` unique values are replaced by
    *index* knobs over a uniform grid (``<name>`` keeps its name so
    configurations stay aligned); other knobs pass through unchanged.
    """
    knobs: list[Knob] = []
    for knob in space:
        if isinstance(knob, CategoricalKnob) or knob.num_values <= max_values:
            knobs.append(knob)
        else:
            default_index = int(round(knob.to_unit(knob.default) * (max_values - 1)))
            knobs.append(
                IntegerKnob(
                    name=knob.name,
                    default=default_index,
                    lower=0,
                    upper=max_values - 1,
                    description=f"bucketized index over {knob.name}",
                )
            )
    return ConfigurationSpace(knobs, name=f"{space.name}/K={max_values}")
