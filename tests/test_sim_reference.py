"""The compiled evaluation plan against the reference pass, byte for byte.

``tests/sim_reference.py`` holds the simulator's pass written the plain
way: one ``np.asarray`` per knob column, object-array categoricals, a
per-value texture embedding summed in a knob-by-knob loop, and a
per-column engine tail.  Every component score and note, every crash flag
and message, every :class:`Measurement` field and every PCG64 position
after the call must equal it exactly — over both catalogs, several
workloads, closed and open loop, ``Configuration`` and plain-dict rows,
and the three public entry points.  A failure means the plan pass drifted
from the reference: fix the plan, never the comparison.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sim_reference
from repro.dbms.engine import COMPONENT_NAMES, PostgresSimulator
from repro.dbms.errors import DbmsCrashError
from repro.dbms.versions import V96, V136
from repro.space.postgres import postgres_v96_space, postgres_v136_space
from repro.space.sampling import uniform_configurations
from repro.workloads import get_workload

CATALOGS = {"v96": (V96, postgres_v96_space()), "v136": (V136, postgres_v136_space())}
WORKLOADS = ("ycsb-a", "ycsb-b", "tpcc", "seats", "twitter")


def draw_rows(space, n: int, rng: np.random.Generator, as_dict: bool) -> list:
    """``n`` rows mixing uniform (crash-prone) configurations with
    near-default ones, some hybrid knobs pinned to a special value."""
    uniform = uniform_configurations(space, n, rng)
    default = space.default_configuration().to_dict()
    rows = []
    for config in uniform:
        if rng.random() < 0.5:
            values = config.to_dict()
        else:
            values = dict(default)
            for name in rng.choice(space.names, size=6, replace=False):
                values[name] = config[name]
        for knob in space.hybrid_knobs:
            if rng.random() < 0.25:
                specials = knob.special_values
                values[knob.name] = specials[int(rng.integers(len(specials)))]
        row = space.configuration(values)
        rows.append(dict(row) if as_dict else row)
    return rows


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_same_column(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    got_bytes = np.ascontiguousarray(got).tobytes()
    assert got_bytes == np.ascontiguousarray(want).tobytes(), what


def assert_same_measurements(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert bits(g.throughput) == bits(w.throughput)
        assert bits(g.p95_latency_ms) == bits(w.p95_latency_ms)
        for field in ("metrics", "component_scores"):
            g_items, w_items = getattr(g, field).items(), getattr(w, field).items()
            assert [k for k, __ in g_items] == [k for k, __ in w_items], field
            assert [bits(v) for __, v in g_items] == [
                bits(v) for __, v in w_items
            ], field
            assert all(type(v) is float for __, v in g_items), field


def assert_same_context(simulator, rows):
    ctx = simulator._batch_context(rows)
    scores = simulator._component_scores_batch(ctx)
    ref = sim_reference.context(simulator, rows)
    ref_scores = sim_reference.component_scores(ref)
    assert list(ref_scores) == list(COMPONENT_NAMES)
    for k, name in enumerate(COMPONENT_NAMES):
        assert_same_column(scores[k], ref_scores[name], name)
    assert list(ctx.notes) == list(ref.notes)
    for key, note in ref.notes.items():
        assert_same_column(ctx.notes[key], note, key)
    assert_same_column(ctx.crashed, ref.crashed, "crashed")
    assert ctx.crash_messages == ref.crash_messages


def run(fn):
    """``fn()``'s result, or the message of the DbmsCrashError it raised."""
    try:
        return fn(), None
    except DbmsCrashError as exc:
        return None, str(exc)


@given(
    catalog=st.sampled_from(sorted(CATALOGS)),
    workload=st.sampled_from(WORKLOADS),
    target_rate=st.sampled_from([None, 900.0]),
    noise_std=st.sampled_from([0.0, 0.03]),
    n=st.sampled_from([1, 2, 7, 33]),
    as_dict=st.booleans(),
    entry=st.sampled_from(["raise", "none", "stacked"]),
    blocks=st.integers(2, 3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_plan_pass_matches_reference(
    catalog, workload, target_rate, noise_std, n, as_dict, entry, blocks, seed
):
    version, space = CATALOGS[catalog]
    simulator = PostgresSimulator(
        get_workload(workload), version=version, noise_std=noise_std,
        target_rate=target_rate,
    )
    rng = np.random.default_rng(seed)
    rows = draw_rows(space, n, rng, as_dict)
    assert_same_context(simulator, rows)

    if entry == "stacked":
        cuts = np.sort(rng.integers(0, n + 1, size=blocks - 1))
        counts = np.diff(np.concatenate(([0], cuts, [n]))).tolist()
        streams = [
            None if rng.random() < 0.2 else int(rng.integers(2**31))
            for __ in counts
        ]

        def rng_blocks():
            return [
                (None if s is None else np.random.default_rng(s), count)
                for s, count in zip(streams, counts)
            ]

        got_blocks, want_blocks = rng_blocks(), rng_blocks()
        got = simulator.evaluate_batch_stacked(rows, got_blocks)
        want = sim_reference.evaluate(simulator, rows, want_blocks, "none")
        assert_same_measurements(got, want)
        for (g, __), (w, __) in zip(got_blocks, want_blocks):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.bit_generator.state == w.bit_generator.state
        return

    stream = int(rng.integers(2**31))
    got_rng = np.random.default_rng(stream)
    want_rng = np.random.default_rng(stream)
    if entry == "raise":
        # One-row calls in order, stopping at the first crash: the
        # reference's raise policy.
        got, got_error = run(
            lambda: [simulator.evaluate(row, rng=got_rng) for row in rows]
        )
    else:
        got, got_error = run(lambda: simulator.evaluate_batch(rows, rng=got_rng))
    want, want_error = run(
        lambda: sim_reference.evaluate(simulator, rows, [(want_rng, n)], entry)
    )
    assert got_error == want_error
    if want is not None:
        assert_same_measurements(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestPlanFill:
    @pytest.fixture
    def simulator(self):
        return PostgresSimulator(get_workload("tpcc"), noise_std=0.0)

    def test_float_in_int_column_raises(self, simulator):
        space = postgres_v96_space()
        simulator.evaluate(space.default_configuration())  # compile the plan
        row = space.default_configuration().to_dict()
        row["work_mem"] = 2.5
        with pytest.raises(TypeError, match="work_mem"):
            simulator.evaluate(row)

    def test_int_in_float_column_raises(self, simulator):
        """An all-int float column would be int64 on its own; the plan's
        float64 fill refuses it rather than retype it."""
        space = postgres_v96_space()
        simulator.evaluate(space.default_configuration())
        row = space.default_configuration().to_dict()
        row["random_page_cost"] = 4
        with pytest.raises(TypeError, match="random_page_cost"):
            simulator.evaluate(row)

    def test_validated_int_in_float_knob_is_stored_as_float(self):
        """A Configuration stores a validated int in a float knob as a
        float, so it evaluates exactly like the float it stands for; only
        plain-dict rows keep the TypeError above."""
        space = postgres_v96_space()
        config = space.partial_configuration({"random_page_cost": 4})
        assert type(config["random_page_cost"]) is float
        assert config["random_page_cost"] == 4.0
        as_float = space.partial_configuration({"random_page_cost": 4.0})
        assert config.fingerprint() == as_float.fingerprint()
        simulator = PostgresSimulator(get_workload("tpcc"))
        got = simulator.evaluate(config, rng=np.random.default_rng(7))
        want = simulator.evaluate(as_float, rng=np.random.default_rng(7))
        assert_same_measurements([got], [want])

    def test_non_string_categorical_raises(self, simulator):
        space = postgres_v96_space()
        row = space.default_configuration().to_dict()
        simulator.evaluate(row)
        row["fsync"] = 1
        with pytest.raises(TypeError, match="fsync"):
            simulator.evaluate(row)

    def test_unseen_category_extends_the_vocabulary(self, simulator):
        """A plain-dict row may carry a string no earlier row had; the
        plan learns it and still matches the reference."""
        space = postgres_v96_space()
        row = space.default_configuration().to_dict()
        simulator.evaluate(row)
        row["huge_pages"] = "maybe"
        got = simulator.evaluate_batch([row])
        want = sim_reference.evaluate(simulator, [row], [(None, 1)], "raise")
        assert_same_measurements(got, want)

    def test_one_plan_per_layout(self, simulator):
        space = postgres_v96_space()
        simulator.evaluate(space.default_configuration())
        simulator.evaluate(dict(space.default_configuration()))
        assert len(simulator._plans) == 1
