import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracesynth import (
    ErrorSpec,
    EvaluationError,
    FunctionSpec,
    PaddleConfig,
    RunConfig,
    compile_tape,
    discretize_actions,
    discretized_error_spec,
    evaluate_step,
    execute,
    induce,
    matches_trace,
    memory_at,
    optimize,
    parse_program,
    simulate_paddle,
    standard_registry,
)
from tracesynth.interpreter import backward, evaluate_rows, row_gradients
from tracesynth.program import initial_params
from tests.conftest import make_trace, mixed_action_case, mixed_dimension_case, reference_loss


def _program(text, registry, schema):
    ast = parse_program(text, registry, schema)
    return ast, initial_params(ast)


class TestEvaluateStep:
    def test_scale(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [0.5], "v": [0.0]}, [0.0])
        ast, _ = _program("(accel (scale 2.0 x))", scalar_registry, scalar_schema)
        name, theta = evaluate_step(
            ast, scalar_registry, memory_at(trace, 1, {0: np.array([2.0])})
        )
        assert name == "accel"
        np.testing.assert_allclose(theta, [1.0])

    def test_add(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [0.1], "v": [-0.02]}, [0.0])
        ast, params = _program("(accel (add x v))", scalar_registry, scalar_schema)
        _, theta = evaluate_step(ast, scalar_registry, memory_at(trace, 1, params))
        np.testing.assert_allclose(theta, [0.08])

    def test_sub_of_scales(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [3.0], "v": [1.0]}, [0.0])
        ast, params = _program(
            "(accel (sub (scale 1.0 x) (scale 1.0 v)))", scalar_registry, scalar_schema
        )
        _, theta = evaluate_step(ast, scalar_registry, memory_at(trace, 1, params))
        np.testing.assert_allclose(theta, [2.0])

    def test_unbound_parameter(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [0.0], "v": [0.0]}, [0.0])
        ast, _ = _program("(accel (scale 2.0 x))", scalar_registry, scalar_schema)
        with pytest.raises(EvaluationError):
            evaluate_step(ast, scalar_registry, memory_at(trace, 1, {}))


class TestTape:
    def test_postorder_with_preorder_ids(self, scalar_registry, scalar_schema):
        ast, _ = _program("(accel (sub (scale 2.0 x) v))", scalar_registry, scalar_schema)
        tape = compile_tape(ast, scalar_registry)
        assert [(op.kind, op.node_id, op.key) for op in tape] == [
            ("param", 3, 0),
            ("var", 4, "x"),
            ("call", 2, "scale"),
            ("var", 5, "v"),
            ("call", 1, "sub"),
            ("call", 0, "accel"),
        ]
        assert [op.args for op in tape] == [(), (), (0, 1), (), (2, 3), (4,)]
        assert tape[2].impl is scalar_registry.spec("scale").impl
        assert tape[2].vjp is scalar_registry.spec("scale").vjp
        # the root action is applied through its registry entry like any call
        assert tape[5].impl is scalar_registry.spec("accel").impl
        assert tape[5].vjp is scalar_registry.spec("accel").vjp

    def test_custom_entry_impl_and_vjp_are_what_its_op_runs(self, scalar_schema):
        calls = []

        def impl(a):
            calls.append("impl")
            return -a

        def vjp(args, g):
            calls.append("vjp")
            return (-g,)

        registry = standard_registry(scalar_schema.variables, scalar_schema.actions)
        registry.register(FunctionSpec("neg", (1,), 1, impl, vjp))
        ast, params = _program("(accel (neg x))", registry, scalar_schema)
        op = compile_tape(ast, registry)[1]
        assert (op.key, op.impl, op.vjp) == ("neg", impl, vjp)
        trace = make_trace({"x": [1.0, 2.0], "v": [0.0, 0.0]}, [-1.5, -2.0])
        res = execute(ast, params, trace, registry)
        assert calls == ["impl"]
        # the first step misses by 0.5 and ends execution
        np.testing.assert_array_equal(res.step_errors, [0.5])
        grads = backward(res, ErrorSpec())
        assert calls == ["impl", "vjp"]
        # d|-x - theta| / dx at x = 1, theta = -1.5
        np.testing.assert_array_equal(grads.slot_reads[2], [[-1.0]])

    def test_compiled_once_per_registry(self, scalar_registry, scalar_schema):
        ast, _ = _program("(accel (add x v))", scalar_registry, scalar_schema)
        tape = compile_tape(ast, scalar_registry)
        assert compile_tape(ast, scalar_registry) is tape
        other = standard_registry(scalar_schema.variables, scalar_schema.actions)
        assert compile_tape(ast, other)[0:2] == tape[0:2]
        assert compile_tape(ast, other)[2].impl is other.spec("add").impl

    def test_activations_cover_the_whole_trace(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 5.0, 1.0], "v": [0, 0, 0]}, [1.0, 1.0, 1.0])
        ast, params = _program("(accel (scale 1.0 x))", scalar_registry, scalar_schema)
        res = execute(ast, params, trace, scalar_registry, ErrorSpec(max_step_error=0.5))
        assert res.executed_len == 2
        assert len(res.activations) == len(res.tape) == 4
        assert all(len(a) == 3 for a in res.activations)

    def test_predictions_shared_with_the_trace_are_read_only(self, scalar_registry, scalar_schema):
        # the identity action returns its argument, here the trace's own matrix
        trace = make_trace({"x": [1.0, 2.0], "v": [0, 0]}, [1.0, 2.0])
        ast, params = _program("(accel x)", scalar_registry, scalar_schema)
        res = execute(ast, params, trace, scalar_registry)
        theta_hat = res.activations[-1][: res.executed_len]
        assert np.shares_memory(theta_hat, trace.var_matrix("x"))
        with pytest.raises(ValueError, match="read-only"):
            theta_hat[0] = 0.0


class TestExecute:
    def test_perfect_match(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 2.0, 3.0], "v": [0, 0, 0]}, [2.0, 4.0, 6.0])
        ast, params = _program("(accel (scale 2.0 x))", scalar_registry, scalar_schema)
        res = execute(ast, params, trace, scalar_registry, ErrorSpec())
        assert res.executed_len == 3
        assert not res.terminated_early
        np.testing.assert_allclose(res.step_errors, 0.0)
        assert res.loss == 0.0
        assert matches_trace(res)

    def test_first_step_violation(self, scalar_registry, scalar_schema):
        trace = make_trace(
            {"x": [1.5, 9.0, 9.0], "v": [0, 0, 0]}, [1.0, 2.0, 3.0]
        )
        ast, params = _program("(accel x)", scalar_registry, scalar_schema)
        res = execute(ast, params, trace, scalar_registry, ErrorSpec(max_step_error=0.1))
        assert res.executed_len == 1
        assert res.terminated_early
        np.testing.assert_allclose(res.loss, 0.5)

    def test_all_within_threshold(self, scalar_registry, scalar_schema):
        trace = make_trace(
            {"x": [1.02, 2.03, 3.01], "v": [0, 0, 0]}, [1.0, 2.0, 3.0]
        )
        ast, params = _program("(accel x)", scalar_registry, scalar_schema)
        res = execute(ast, params, trace, scalar_registry, ErrorSpec(max_step_error=0.1))
        assert res.executed_len == 3
        assert not res.terminated_early
        np.testing.assert_allclose(res.loss, 0.06, atol=1e-12)

    def test_boundary_error_is_included(self, scalar_registry, scalar_schema):
        # errors exactly at the threshold do not terminate and still match
        trace = make_trace({"x": [1.5, 2.5], "v": [0, 0]}, [1.0, 2.0])
        ast, params = _program("(accel x)", scalar_registry, scalar_schema)
        spec = ErrorSpec(max_step_error=0.5)
        res = execute(ast, params, trace, scalar_registry, spec)
        assert res.executed_len == 2
        assert not res.terminated_early
        assert matches_trace(res)

    def test_action_name_mismatch_penalty(self, scalar_registry, scalar_schema):
        trace = make_trace(
            {"x": [1.0, 1.0], "v": [0, 0]},
            [1.0, 1.0],
            action="jump",
            actions={"jump": 1, "accel": 1},
        )
        ast, params = _program("(accel x)", scalar_registry, scalar_schema)
        spec = ErrorSpec(max_step_error=0.5)
        res = execute(ast, params, trace, scalar_registry, spec)
        assert res.executed_len == 1
        assert res.terminated_early
        assert res.step_errors[0] > spec.max_step_error

    @pytest.mark.parametrize(
        "text, stop, matched, grad",
        [("(accel (scale 2.0 x))", 3, [0.1, 0.0], -0.5), ("(turn (scale2 1.0 p))", 1, [], 0.0)],
    )
    def test_mixed_dimension_root_stops_at_the_other_action(self, text, stop, matched, grad):
        # each root is compared with its own action's steps only and stops
        # at the first step of the other, with the penalty and zero seed
        registry, trace = mixed_dimension_case()
        ast, params = _program(text, registry, trace.schema)
        spec = ErrorSpec(max_step_error=0.5)
        res = execute(ast, params, trace, registry, spec)
        assert (res.executed_len, res.terminated_early) == (stop, True)
        np.testing.assert_allclose(res.step_errors, [*matched, spec.max_step_error + 1.0])
        param_rows, _ = row_gradients(res.tape, res.activations, res.theta_obs, spec)
        assert param_rows[0].shape == (stop, 1)
        np.testing.assert_array_equal(param_rows[0][-1], 0.0)
        np.testing.assert_allclose(backward(res, spec).params[0], [grad])

    @pytest.mark.parametrize("model", ["euclidean", "discrete"])
    @pytest.mark.parametrize(
        "case, text",
        [
            (mixed_action_case, "(accel (scale 2.0 x))"),
            (mixed_action_case, "(brake (scale 2.0 x))"),
            (mixed_dimension_case, "(accel (scale 2.0 x))"),
            (mixed_dimension_case, "(turn (scale2 1.0 p))"),
            (mixed_dimension_case, "(brake (scale 2.0 x))"),  # observed at no step
        ],
    )
    def test_steps_of_another_action_score_the_penalty_with_a_zero_seed(self, case, text, model):
        # the error model sees every row, those of another action too (where
        # the discrete model's gradient is not zero); its results there are
        # replaced by the penalty and a zero seed
        registry, trace = case()
        ast, params = _program(text, registry, trace.schema)
        spec = RunConfig(max_step_error=0.5, error_model=model).error_spec()
        other = np.array([step.action_name != ast.root.name for step in trace.steps])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tape, values, errors, theta_obs = evaluate_rows(ast, params, trace, registry, spec)
            param_rows, reads = row_gradients(tape, values, theta_obs, spec)
        assert errors[other].tolist() == [spec.max_step_error + 1.0] * other.sum()
        out = values[-1]
        assert errors[~other].tobytes() == spec.act_error(out[~other], theta_obs[~other]).tobytes()
        for rows in (*param_rows.values(), *reads.values()):
            np.testing.assert_array_equal(rows[other], 0.0)
        if model == "discrete":
            assert spec.act_error_grad(out[other], theta_obs[other]).any()

    def test_registry_contradicting_the_schema_raises(self, scalar_schema):
        # the trace gives accel dimension 1; a 2-dimensional accel is not
        # comparable with any step, so it must not score 0 there
        trace = make_trace({"x": [1.0, 2.0], "v": [0, 0]}, [1.0, 2.0])
        registry = standard_registry(scalar_schema.variables, {"accel": 2})
        ast, params = _program("(accel [5.0 7.0])", registry, scalar_schema)
        with pytest.raises(ValueError, match="accel has dimension 1 in the trace schema, not 2"):
            execute(ast, params, trace, registry, ErrorSpec())

    def test_matches_requires_full_length(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 5.0, 1.0], "v": [0, 0, 0]}, [1.0, 1.0, 1.0])
        ast, params = _program("(accel x)", scalar_registry, scalar_schema)
        spec = ErrorSpec(max_step_error=0.5)
        res = execute(ast, params, trace, scalar_registry, spec)
        # the offending step is executed and its error included
        assert res.executed_len == 2
        assert res.terminated_early
        np.testing.assert_allclose(res.loss, 4.0)
        assert not matches_trace(res)

    def test_execute_agrees_with_evaluate_step(self, scalar_registry, scalar_schema):
        rng = np.random.default_rng(5)
        trace = make_trace(
            {"x": rng.normal(size=8).tolist(), "v": rng.normal(size=8).tolist()},
            rng.normal(size=8).tolist(),
        )
        ast, params = _program(
            "(accel (add (scale 0.7 x) (scale -0.3 v)))", scalar_registry, scalar_schema
        )
        spec = ErrorSpec(max_step_error=1e9)
        res = execute(ast, params, trace, scalar_registry, spec)
        for t in range(1, trace.length + 1):
            _, theta = evaluate_step(ast, scalar_registry, memory_at(trace, t, params))
            np.testing.assert_allclose(res.activations[-1][t - 1], theta, rtol=1e-12)

    def test_loss_self_consistency_random(self, scalar_registry, scalar_schema):
        rng = np.random.default_rng(11)
        for _ in range(100):
            T = int(rng.integers(1, 12))
            trace = make_trace(
                {"x": rng.normal(size=T).tolist(), "v": rng.normal(size=T).tolist()},
                rng.normal(size=T).tolist(),
            )
            ast, params = _program(
                "(accel (add (scale 0.5 x) v))", scalar_registry, scalar_schema
            )
            spec = ErrorSpec(max_step_error=float(rng.uniform(0.1, 2.0)))
            res = execute(ast, params, trace, scalar_registry, spec)
            # loss recomputable from per-step outputs
            np.testing.assert_allclose(res.loss, res.step_errors.sum(), rtol=1e-12)
            # termination iff some step error exceeded the threshold
            assert res.terminated_early == bool(
                (res.step_errors > spec.max_step_error).any()
            )
            # agreement with the independent step-by-step oracle
            np.testing.assert_allclose(
                res.loss,
                reference_loss(ast, scalar_registry, params, trace, spec),
                rtol=1e-12,
            )

    def test_overflowing_distances_run_without_a_warning(self, scalar_registry, scalar_schema):
        # x's squared distance to theta, and to a query point, overflows to
        # inf: the step error is inf, its gradient still points away from
        # theta, and x is never the nearest variable
        trace = make_trace({"x": [1e200, 1e200], "v": [0.0, 0.0]}, [0.0, 0.0])
        ast, params = _program("(accel x)", scalar_registry, scalar_schema)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = execute(ast, params, trace, scalar_registry, ErrorSpec())
            assert (res.loss, res.executed_len) == (np.inf, 1)
            (reads,) = backward(res, ErrorSpec()).slot_reads.values()
            np.testing.assert_array_equal(reads, [[1.0]])
            np.testing.assert_array_equal(trace.index.query_steps(1, np.array([[0.5]])), [0])
            induce(trace, scalar_registry, config=RunConfig(max_iterations=3))

    def test_overflowing_program_arithmetic_runs_without_a_warning(
        self, scalar_registry, scalar_schema
    ):
        # 2 * x overflows to inf in ``scale``: the step error is inf and its
        # gradient inf / inf, NaN
        trace = make_trace({"x": [1.5e308, 1.5e308], "v": [0.0, 0.0]}, [-1.5e308, -1.5e308])
        ast, params = _program("(accel (scale 2.0 x))", scalar_registry, scalar_schema)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = execute(ast, params, trace, scalar_registry, ErrorSpec())
            assert (res.loss, res.executed_len) == (np.inf, 1)
            np.testing.assert_array_equal(res.step_errors, [np.inf])
            np.testing.assert_array_equal(backward(res, ErrorSpec()).params[0], [np.nan])
            nearest = trace.index.query_steps(1, np.array([[0.5]]))
            assert [trace.index.names[1][i] for i in nearest] == ["v"]
            induce(trace, scalar_registry, config=RunConfig(max_iterations=3))
        # the discrete gradient is +-1 however far off the prediction: the
        # inner parameter's gradient 1e10 * x overflows in the backward pass,
        # and 1e10 * x in the forward pass, then in AdaGrad's g * g
        trace = make_trace({"x": [1.5e308, 1.5e308], "v": [0.0, 0.0]}, [0.0, 0.0])
        spec = RunConfig(error_model="discrete").error_spec()
        nested, params = _program(
            "(accel (scale 1e10 (scale 1e-310 x)))", scalar_registry, scalar_schema
        )
        outer, outer_params = _program("(accel (scale 1e10 x))", scalar_registry, scalar_schema)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = execute(nested, params, trace, scalar_registry, spec)
            assert np.isfinite(res.loss)
            np.testing.assert_array_equal(backward(res, spec).params[1], [np.inf])
            assert optimize(outer, outer_params, trace, scalar_registry, spec).stop == "stagnant"


TOO_LARGE = "max_step_error must be finite with magnitude below 2"


class TestErrorSpecs:
    @pytest.mark.parametrize(
        "threshold",
        [2.0**53, 2**53 + 3, 1e20, -1e20, np.nan, np.inf, -np.inf]
        + [pytest.param(10**400, id="huge-int")],
    )
    def test_threshold_too_large_for_the_penalty_refused(self, threshold):
        # max_step_error + 1 would not exceed the threshold, so a step of the
        # wrong action or class would pass
        with pytest.raises(ValueError, match=TOO_LARGE):
            ErrorSpec(max_step_error=threshold)
        with pytest.raises(ValueError, match=TOO_LARGE):
            discretized_error_spec(0.05, threshold)

    @pytest.mark.parametrize("threshold", [2.0**53, 1e20])
    @pytest.mark.parametrize("model", ["euclidean", "discrete"])
    def test_run_config_refuses_the_same_thresholds(self, threshold, model):
        with pytest.raises(ValueError, match=TOO_LARGE):
            RunConfig(max_step_error=threshold, error_model=model)

    def test_largest_threshold_still_stops_at_the_wrong_action(self):
        threshold = 2.0**53 - 1
        registry, trace = mixed_action_case()
        ast, params = _program("(accel (scale 2.0 x))", registry, trace.schema)
        for model in ("euclidean", "discrete"):
            config = RunConfig(max_step_error=threshold, error_model=model)
            assert config.max_step_error == threshold
        res = execute(ast, params, trace, registry, ErrorSpec(max_step_error=threshold))
        assert (res.executed_len, res.terminated_early) == (3, True)
        assert res.step_errors[-1] == threshold + 1.0

    def test_default_error_zero_iff_equal(self):
        spec = ErrorSpec()
        a = np.array([[1.0, 2.0]])
        assert spec.act_error(a, a.copy())[0] == 0.0
        assert spec.act_error(a, a + 0.1)[0] > 0.0

    def test_euclidean_error_matches_linalg_norm_exactly(self):
        rng = np.random.default_rng(7)
        theta_hat = rng.normal(size=(50, 3))
        theta = rng.normal(size=(50, 3))
        theta[::5] = theta_hat[::5]  # zero rows take the zero subgradient
        spec = ErrorSpec()
        diff = theta_hat - theta
        norm = np.linalg.norm(diff, axis=1)
        np.testing.assert_array_equal(spec.act_error(theta_hat, theta), norm)
        want = np.zeros_like(diff)
        want[norm > 0] = diff[norm > 0] / norm[norm > 0, None]
        np.testing.assert_array_equal(spec.act_error_grad(theta_hat, theta), want)

    def test_euclidean_error_overflows_without_a_warning(self):
        # the square overflows from sqrt(float max), about 1.34e154, up, where
        # the gradient is still the unit direction of the difference; in the
        # last row the difference itself overflows, and the gradient is NaN
        theta_hat = np.array([[1e154], [1.4e154], [5e199], [1e308]])
        theta = np.array([[0.0], [0.0], [0.0], [-1e308]])
        spec = ErrorSpec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(
                spec.act_error(theta_hat, theta), [1e154, np.inf, np.inf, np.inf]
            )
            np.testing.assert_array_equal(
                spec.act_error_grad(theta_hat, theta), [[1.0], [1.0], [1.0], [np.nan]]
            )

    def test_discretize(self):
        theta = np.array([[0.3], [-0.2], [0.04]])
        np.testing.assert_array_equal(
            discretize_actions(theta, 0.05), [[1.0], [-1.0], [0.0]]
        )

    def test_class_distance_error(self):
        spec = discretized_error_spec(deadband=0.3, max_step_error=0.02)
        th = np.array([[0.5], [0.1], [-0.5], [0.2], [0.5]])
        obs = np.array([[1.0], [1.0], [0.0], [0.0], [-1.0]])
        err = spec.act_error(th, obs)
        # right class: zero; wrong: distance to the class region plus
        # max_step_error + 1
        np.testing.assert_allclose(err, [0.0, 1.22, 1.22, 0.0, 1.82])

    def test_class_distance_grad_signs(self):
        spec = discretized_error_spec(deadband=0.3, max_step_error=0.02)
        # the last two sit on the boundary, which discretises to 0
        th = np.array([[0.1], [-0.5], [0.5], [0.3], [-0.3]])
        obs = np.array([[1.0], [0.0], [-1.0], [1.0], [-1.0]])
        g = spec.act_error_grad(th, obs)
        np.testing.assert_array_equal(g, [[-1.0], [-1.0], [1.0], [-1.0], [1.0]])

    @given(
        factor=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-5.0, 5.0)),
        observed=st.sampled_from([-1.0, 0.0, 1.0]),
        deadband=st.floats(0.01, 0.5),
        max_step_error=st.floats(0.001, 1.0),
    )
    @example(factor=0.8, observed=1.0, deadband=0.05, max_step_error=0.02)
    @settings(max_examples=300, deadline=None)
    def test_step_within_threshold_is_correctly_classified(
        self, factor, observed, deadband, max_step_error
    ):
        spec = discretized_error_spec(deadband, max_step_error)
        # factor +-1 puts the prediction exactly on a class boundary
        theta_hat = np.array([[factor * deadband]])
        if spec.act_error(theta_hat, np.array([[observed]]))[0] <= max_step_error:
            assert discretize_actions(theta_hat, deadband)[0, 0] == observed

    def test_constant_zero_does_not_match_the_paddle(self):
        # a prediction of 0 is one deadband from class +-1, which is within
        # the default threshold, but it is in class 0
        trace = simulate_paddle(PaddleConfig())
        registry = standard_registry(trace.schema.variables, trace.schema.actions)
        ast, params = _program("(move 0.0)", registry, trace.schema)
        spec = RunConfig(error_model="discrete").error_spec()
        assert spec.max_step_error == RunConfig().deadband
        assert not matches_trace(execute(ast, params, trace, registry, spec))
