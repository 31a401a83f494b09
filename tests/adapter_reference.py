"""Knob-by-knob definition of the LlamaTune adapter's conversion (paper,
Section 5, Figure 8): the oracle ``LlamaTuneAdapter.to_target_batch`` is
pinned to, value and Python type.

One suggestion at a time, one knob at a time, in plain Python scalars:

* with a projection, the low point (bucketized indices first mapped to
  ``bound * (2 * index / (K - 1) - 1)``) goes through the projection's
  one-point ``project`` (REMBO's GEMV, HeSBO's sketch); each coordinate
  ``x`` becomes ``(x + 1) / 2``, clipped to ``[0, 1]``; then every knob
  takes :func:`value_for`;
* without one, a bucketized index knob takes :func:`value_for` of
  ``index / (K - 1)``, a biased hybrid knob :func:`value_for` of
  ``Knob.to_unit`` of its value, and every other knob passes through.

:func:`value_for` is special-value biasing for a biased hybrid knob (the
band ``u < m * p`` maps to special value ``min(int(u / p), m - 1)``, the
rest rescales onto the regular range) and ``Knob.from_unit`` otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.space.knob import CategoricalKnob, FloatKnob, IntegerKnob, Knob, KnobValue


def value_for(knob: Knob, unit: float, bias: float) -> KnobValue:
    """A normalized value's native value, with special-value bias ``bias``
    applied to a hybrid knob.  A numeric knob's value has its kind's
    Python type (a float knob never holds an int)."""
    unit = min(max(unit, 0.0), 1.0)
    specials = getattr(knob, "special_values", ())
    if bias == 0.0 or not specials:
        return knob.from_unit(unit)
    total_mass = bias * len(specials)
    assert total_mass < 1.0, "the constructor refuses such a bias"
    if unit < total_mass:
        value = specials[min(int(unit / bias), len(specials) - 1)]
    else:
        rescaled = (unit - total_mass) / (1.0 - total_mass)
        lo, hi = knob.regular_range  # type: ignore[attr-defined]
        if isinstance(knob, IntegerKnob):
            value = lo + round(rescaled * (hi - lo))
        else:
            value = lo + rescaled * (hi - lo)
    return float(value) if isinstance(knob, FloatKnob) else int(value)


def reference_to_target(adapter, config) -> dict[str, KnobValue]:
    """The target configuration of one optimizer-space suggestion, as a
    dict in the target space's name order."""
    space = adapter.target_space
    bias = adapter.biaser.bias
    k = adapter.max_values
    if adapter.projection is not None:
        low = [float(config[name]) for name in adapter.optimizer_space.names]
        if k is not None:
            bound = adapter.projection.low_bound
            low = [bound * (2.0 * (index / (k - 1)) - 1.0) for index in low]
        high = adapter.projection.project(np.array(low))
        return {
            knob.name: value_for(knob, (float(x) + 1.0) / 2.0, bias)
            for knob, x in zip(space, high)
        }
    values: dict[str, KnobValue] = {}
    for knob in space:
        raw = config[knob.name]
        bucketized = (
            k is not None
            and not isinstance(knob, CategoricalKnob)
            and knob.num_values > k
        )
        if bucketized:
            values[knob.name] = value_for(knob, raw / (k - 1), bias)
        elif bias > 0.0 and knob.is_hybrid:
            values[knob.name] = value_for(knob, knob.to_unit(raw), bias)
        else:
            values[knob.name] = raw
    return values


def assert_matches_reference(adapter, suggestions, targets) -> None:
    """Every target equals the reference conversion of its suggestion:
    the same knobs in the same order, equal values, identical types."""
    assert len(targets) == len(suggestions)
    for suggestion, target in zip(suggestions, targets):
        expected = reference_to_target(adapter, suggestion)
        got = target.to_dict()
        assert list(got) == list(expected)
        for name, value in expected.items():
            assert type(got[name]) is type(value), name
            assert got[name] == value, name
