import json
import warnings

import numpy as np
import pytest

from tracesynth import (
    PENDULUM,
    ObservationTrace,
    TraceFormatError,
    build_variable_index,
    load_trace,
    memory_at,
    save_trace,
    simulate_second_order,
    trace_from_dict,
    trace_to_dict,
)
from tests.conftest import make_trace, mixed_dimension_case


class TestLoad:
    def test_pendulum_file(self, tmp_path):
        trace = simulate_second_order(PENDULUM)
        path = tmp_path / "p.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.length == 100
        assert loaded.schema.variables == {"x": 1, "v": 1}
        assert loaded.schema.actions == {"accel": 1}

    def test_missing_variable(self):
        doc = trace_to_dict(make_trace({"x": [1, 2, 3], "v": [0, 0, 0]}, [1, 2, 3]))
        del doc["steps"][2]["vars"]["v"]
        with pytest.raises(TraceFormatError):
            trace_from_dict(doc)

    def test_theta_dimension_mismatch(self):
        doc = trace_to_dict(make_trace({"x": [1, 2]}, [1, 2]))
        doc["steps"][0]["action"]["theta"] = [1.0, 2.0]
        with pytest.raises(TraceFormatError):
            trace_from_dict(doc)

    def test_non_contiguous_timesteps(self):
        doc = trace_to_dict(make_trace({"x": [1, 2]}, [1, 2]))
        doc["steps"][1]["t"] = 3
        with pytest.raises(TraceFormatError):
            trace_from_dict(doc)

    def test_direct_construction_validates(self):
        trace = make_trace({"x": [1.0, 2.0]}, [1.0, 2.0])
        nan_step = trace.steps[0]._replace(vars={"x": np.array([np.nan])})
        with pytest.raises(TraceFormatError, match="at least one step"):
            ObservationTrace(trace.schema, ())
        with pytest.raises(TraceFormatError, match="variable x is not finite"):
            ObservationTrace(trace.schema, (nan_step, trace.steps[1]))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not json at all")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_round_trip_identity(self, tmp_path):
        trace = simulate_second_order(PENDULUM)
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        again = load_trace(path)
        assert trace.schema == again.schema
        for a, b in zip(trace.steps, again.steps):
            assert a.t == b.t and a.action_name == b.action_name
            np.testing.assert_array_equal(a.theta, b.theta)
            for name in a.vars:
                np.testing.assert_array_equal(a.vars[name], b.vars[name])

    def test_json_ints_load_as_floats(self):
        doc = trace_to_dict(make_trace({"x": [1.5, 2.5]}, [1.5, 2.5]))
        doc["steps"][0]["vars"]["x"] = [1]
        doc["steps"][1]["action"]["theta"] = [-2]
        trace = trace_from_dict(doc)
        assert trace.steps[0].vars["x"].dtype == trace.steps[1].theta.dtype == np.float64
        assert trace.var_matrix("x").tolist() == [[1.0], [2.5]]
        assert trace.steps[1].theta.tolist() == [-2.0]

    def test_field_names_exact(self, tmp_path):
        trace = make_trace({"x": [1]}, [2])
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"schema", "steps"}
        assert set(doc["schema"]) == {"variables", "actions"}
        assert set(doc["steps"][0]) == {"t", "vars", "action"}
        assert set(doc["steps"][0]["action"]) == {"name", "theta"}


class TestMemory:
    def test_first_step_values(self):
        trace = simulate_second_order(PENDULUM)
        mem = memory_at(trace, 1)
        np.testing.assert_allclose(mem.variables["x"], [0.1])
        np.testing.assert_allclose(mem.variables["v"], [0.0])

    def test_out_of_range(self):
        trace = simulate_second_order(PENDULUM)
        with pytest.raises(IndexError):
            memory_at(trace, 0)
        with pytest.raises(IndexError):
            memory_at(trace, trace.length + 1)

    def test_last_step(self):
        trace = simulate_second_order(PENDULUM)
        mem = memory_at(trace, trace.length)
        np.testing.assert_array_equal(mem.variables["x"], trace.steps[-1].vars["x"])

    def test_pure(self):
        trace = simulate_second_order(PENDULUM)
        a = memory_at(trace, 5)
        b = memory_at(trace, 5)
        assert a.variables.keys() == b.variables.keys()
        for k in a.variables:
            np.testing.assert_array_equal(a.variables[k], b.variables[k])


def _nearest(index, dim, points):
    """Name of the nearest variable to ``points[t - 1]`` at each timestep
    t = 1..n."""
    return [index.names[dim][j] for j in index.query_steps(dim, np.asarray(points, dtype=float))]


class TestNearestVariable:
    def test_closer_variable_wins(self):
        trace = make_trace({"x": [0.5], "v": [-1.2]}, [0.0])
        index = build_variable_index(trace)
        (winner,) = index.query_steps(1, np.array([[-1.0]]))
        assert index.names[1][winner] == "v"
        np.testing.assert_allclose(index.values[1][0, winner], [-1.2])

    def test_exact_hit(self):
        trace = make_trace({"x": [0.5], "v": [-1.2]}, [0.0])
        index = build_variable_index(trace)
        assert _nearest(index, 1, [[0.5]]) == ["x"]

    def test_tie_breaks_by_name(self):
        trace = make_trace({"x": [0.3], "v": [-0.3]}, [0.0])
        index = build_variable_index(trace)
        (winner,) = index.query_steps(1, np.array([[0.0]]))
        assert index.names[1][winner] == "v"
        np.testing.assert_allclose(index.values[1][0, winner], [-0.3])

    def test_singleton_schema(self):
        trace = make_trace({"x": [0.1, 0.2]}, [0, 0])
        index = build_variable_index(trace)
        assert _nearest(index, 1, [[99.0], [99.0]]) == ["x", "x"]

    def test_no_variable_of_dimension(self):
        trace = make_trace({"x": [0.1]}, [0])
        index = build_variable_index(trace)
        with pytest.raises(KeyError):
            index.query_steps(3, np.zeros((1, 3)))

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        names = ["a", "b", "c", "d"]
        T = 25
        values = {n: rng.normal(size=T).tolist() for n in names}
        trace = make_trace(values, [0.0] * T)
        index = build_variable_index(trace)
        for _ in range(8):
            n = int(rng.integers(1, T + 1))
            points = rng.normal(size=(n, 1))
            got = _nearest(index, 1, points)
            for t in range(1, n + 1):
                q = points[t - 1, 0]
                dists = {name: abs(trace.steps[t - 1].vars[name][0] - q) for name in names}
                best = min(dists.values())
                assert got[t - 1] == min(name for name in names if dists[name] == best)

    def test_gaps_are_half_the_nearest_rival_distance(self):
        # a running minimum over the steps
        trace = make_trace(
            {"a": [0.0, 0.0, 0.0], "b": [1.0, 0.5, 3.0], "c": [4.0, -0.4, 4.0]}, [0.0] * 3
        )
        gaps = trace.index.gaps[1]
        np.testing.assert_array_equal(gaps, [[0.5, 0.5, 1.5], [0.2, 0.25, 0.2], [0.2, 0.25, 0.2]])
        assert not gaps.flags.writeable
        # below 2**-500 a gap is 0, and a lone variable's is 2**500
        trace = make_trace({"x": [0.0], "v": [1e-160], "p": [[1.0, 2.0]]}, [0.0])
        np.testing.assert_array_equal(trace.index.gaps[1], [[0.0, 0.0]])
        np.testing.assert_array_equal(trace.index.gaps[2], [[2.0**500]])

    @pytest.mark.parametrize("x, v", [(1e200, 0.0), (1.5e308, -1.5e308)])
    def test_overflowing_distances_load_without_a_warning(self, x, v):
        # the squared distance, or the difference itself, overflows to inf,
        # and the gap is clamped to 2**500
        step = {"t": 1, "vars": {"x": [x], "v": [v]}, "action": {"name": "accel", "theta": [0.0]}}
        doc = {"schema": {"variables": {"x": 1, "v": 1}, "actions": {"accel": 1}}, "steps": [step]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = trace_from_dict(doc)
        np.testing.assert_array_equal(trace.index.gaps[1], [[2.0**500, 2.0**500]])

    def test_query_steps_takes_leading_axes(self):
        rng = np.random.default_rng(2)
        trace = make_trace(
            {"x": rng.normal(size=6).tolist(), "v": rng.normal(size=6).tolist()}, [0.0] * 6
        )
        index = build_variable_index(trace)
        points = rng.normal(size=(3, 4, 1))
        winners = index.query_steps(1, points)
        assert winners.shape == (3, 4)
        for k in range(3):
            np.testing.assert_array_equal(winners[k], index.query_steps(1, points[k]))


class TestDerivedArrays:
    """Columns, action targets and the index are built with the trace and
    handed out read-only."""

    def test_action_targets_of_mixed_dimensions(self):
        _, trace = mixed_dimension_case()
        nan = np.nan
        for name, dim, want, mask in (
            ("accel", 1, [[1.1], [2.0], [nan], [nan]], [True, True, False, False]),
            ("turn", 2, [[nan] * 2, [nan] * 2, [1.0, 1.2], [2.0, 2.0]], [False, False, True, True]),
            ("brake", 1, [[nan]] * 4, [False] * 4),
            ("jump", 2, [[nan] * 2] * 4, [False] * 4),  # not in the schema
        ):
            observed, name_match, all_match = trace.action_targets(name, dim)
            assert observed.shape == (4, dim)
            np.testing.assert_array_equal(observed, want)
            np.testing.assert_array_equal(name_match, mask)
            assert all_match is False
        with pytest.raises(ValueError, match="turn has dimension 2 in the trace schema, not 1"):
            trace.action_targets("turn", 1)

    def test_single_action_targets_cover_every_step(self):
        trace = simulate_second_order(PENDULUM)
        observed, name_match, all_match = trace.action_targets("accel", 1)
        want = np.stack([s.theta for s in trace.steps])
        assert observed.tobytes() == want.tobytes()
        assert name_match.all() and all_match is True

    def test_arrays_are_read_only(self):
        _, trace = mixed_dimension_case()
        arrays = [
            *map(trace.var_matrix, trace.schema.variables),
            *trace.action_targets("accel", 1)[:2],
            *trace.action_targets("turn", 2)[:2],
            *trace.index.values.values(),
        ]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_index_is_built_with_the_trace(self):
        _, trace = mixed_dimension_case()
        assert trace.index.names == {1: ["x"], 2: ["p"]}
        assert trace.index.values[2].tobytes() == trace.var_matrix("p")[:, None].tobytes()

    @pytest.mark.parametrize("field", ["variable x", "action theta"])
    def test_list_instead_of_array_refused(self, field):
        trace = make_trace({"x": [1.0, 2.0]}, [1.0, 2.0])
        if field == "variable x":
            bad = trace.steps[1]._replace(vars={"x": [0.1]})
        else:
            bad = trace.steps[1]._replace(theta=[0.1])
        want = f"step 2: {field} is a list, not a NumPy array"
        with pytest.raises(TraceFormatError, match=want):
            ObservationTrace(trace.schema, (trace.steps[0], bad))
