"""The backward pass of the interpreter's tape: each registry entry's
vector-Jacobian product; ``backward``'s parameter and per-read variable
gradients against hand-derived values, finite differences and the
reference loss of a trace with two actions; and a root action whose
registry entry is not the identity, in every pass."""

import numpy as np

from tracesynth import (
    ErrorSpec,
    FunctionSpec,
    OptimizeConfig,
    SecondOrderConfig,
    backward,
    evaluate_step,
    execute,
    memory_at,
    optimize,
    parse_program,
    simulate_second_order,
    standard_registry,
)
from tracesynth.interpreter import row_gradients
from tracesynth.program import initial_params, leaves
from tests.conftest import (
    assert_same_optimum,
    make_trace,
    mixed_action_case,
    reference_loss,
    sequential_optimize,
)
from tests.test_program import _random_ast


def _jacobian(registry, name, args, index):
    """Jacobian of a registered function with respect to argument ``index``
    at ``args``: row k is the entry's VJP applied to the k-th one-hot
    upstream row."""
    vals = tuple(np.asarray(a, dtype=float).reshape(1, -1) for a in args)
    spec = registry.spec(name)
    rows = np.eye(spec.out_dim)
    return np.asarray([spec.vjp(vals, upstream[None, :])[index][0] for upstream in rows])


class TestJacobian:
    def test_add_identity(self, scalar_registry):
        for i in (0, 1):
            np.testing.assert_array_equal(
                _jacobian(scalar_registry, "add", (np.array([1.0]), np.array([2.0])), i),
                np.eye(1),
            )

    def test_sub_signs(self, scalar_registry):
        args = (np.array([1.0]), np.array([2.0]))
        np.testing.assert_array_equal(_jacobian(scalar_registry, "sub", args, 0), np.eye(1))
        np.testing.assert_array_equal(_jacobian(scalar_registry, "sub", args, 1), -np.eye(1))

    def test_scale_bilinear(self, scalar_registry):
        args = (np.array([2.0]), np.array([3.0]))
        np.testing.assert_array_equal(_jacobian(scalar_registry, "scale", args, 0), [[3.0]])
        np.testing.assert_array_equal(_jacobian(scalar_registry, "scale", args, 1), [[2.0]])

    def test_scale_vector(self):
        registry = standard_registry({"u": 2}, {"go": 2})
        c, x = np.array([2.0]), np.array([3.0, -1.0])
        np.testing.assert_array_equal(
            _jacobian(registry, "scale2", (c, x), 0), [[3.0], [-1.0]]
        )
        np.testing.assert_array_equal(_jacobian(registry, "scale2", (c, x), 1), 2.0 * np.eye(2))

    def test_action_error_gradient(self):
        g = ErrorSpec().act_error_grad(np.array([[1.0]]), np.array([[1.5]]))
        np.testing.assert_allclose(g, [[-1.0]])

    def test_action_error_subgradient_at_zero(self):
        g = ErrorSpec().act_error_grad(np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_array_equal(g, [[0.0]])


class TestBackward:
    def test_hand_derived_scale(self, scalar_registry, scalar_schema):
        # single step, x=0.5, theta=1.5, program 2*x: dL/dp=-0.5, dL/dx=-2
        trace = make_trace({"x": [0.5], "v": [0.0]}, [1.5])
        ast = parse_program("(accel (scale 2.0 x))", scalar_registry, scalar_schema)
        spec = ErrorSpec(max_step_error=100.0)
        res = execute(ast, initial_params(ast), trace, scalar_registry, spec)
        np.testing.assert_allclose(res.activations[-1][: res.executed_len], [[1.0]])
        grads = backward(res, spec)
        np.testing.assert_allclose(grads.params[0], [-0.5])
        (slot_rows,) = grads.slot_reads.values()
        np.testing.assert_allclose(slot_rows.sum(axis=0), [-2.0])

    def test_no_parameters(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [0.5], "v": [0.0]}, [1.5])
        ast = parse_program("(accel (add x v))", scalar_registry, scalar_schema)
        spec = ErrorSpec(max_step_error=100.0)
        res = execute(ast, {}, trace, scalar_registry, spec)
        grads = backward(res, spec)
        assert grads.params == {}
        assert len(grads.slot_reads) == 2

    def test_zero_loss_zero_gradients(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [0.5, 0.25], "v": [0, 0]}, [1.0, 0.5])
        ast = parse_program("(accel (scale 2.0 x))", scalar_registry, scalar_schema)
        spec = ErrorSpec()
        res = execute(ast, initial_params(ast), trace, scalar_registry, spec)
        assert res.loss == 0.0
        grads = backward(res, spec)
        np.testing.assert_array_equal(grads.params[0], [0.0])
        for g in grads.slot_reads.values():
            np.testing.assert_array_equal(g.sum(axis=0), [0.0])

    def test_additive_across_steps(self, scalar_registry, scalar_schema):
        spec = ErrorSpec(max_step_error=1e9)
        ast = parse_program("(accel (scale 0.7 x))", scalar_registry, scalar_schema)
        params = initial_params(ast)
        two = make_trace({"x": [0.5, -0.8], "v": [0, 0]}, [1.5, 0.3])
        one_a = make_trace({"x": [0.5], "v": [0]}, [1.5])
        one_b = make_trace({"x": [-0.8], "v": [0]}, [0.3])
        res = execute(ast, params, two, scalar_registry, spec)
        g2 = backward(res, spec)
        ga = backward(execute(ast, params, one_a, scalar_registry, spec), spec)
        gb = backward(execute(ast, params, one_b, scalar_registry, spec), spec)
        np.testing.assert_allclose(g2.params[0], ga.params[0] + gb.params[0], rtol=1e-12)
        # rows are independent: each step's row of the two-step execution is
        # that step's one-step gradient, bit for bit
        param_rows, _ = row_gradients(res.tape, res.activations, res.theta_obs, spec)
        assert [row.tobytes() for row in param_rows[0]] == [
            ga.params[0].tobytes(),
            gb.params[0].tobytes(),
        ]

    def test_per_read_gradients_match_reference(self, scalar_registry, scalar_schema):
        rng = np.random.default_rng(2)
        trace = make_trace(
            {"x": rng.normal(size=5).tolist(), "v": rng.normal(size=5).tolist()},
            rng.normal(size=5).tolist(),
        )
        ast = parse_program(
            "(accel (add (scale 0.9 x) (scale -0.4 v)))", scalar_registry, scalar_schema
        )
        params = initial_params(ast)
        spec = ErrorSpec(max_step_error=1e9)
        res = execute(ast, params, trace, scalar_registry, spec)
        grads = backward(res, spec)
        h = 1e-6
        for nid, rows in grads.slot_reads.items():
            for t in range(1, trace.length + 1):
                leaf = dict(leaves(ast))[nid]
                base = trace.steps[t - 1].vars[leaf.name]
                up = reference_loss(
                    ast, scalar_registry, params, trace, spec, override=(t, nid, base + h)
                )
                dn = reference_loss(
                    ast, scalar_registry, params, trace, spec, override=(t, nid, base - h)
                )
                np.testing.assert_allclose(rows[t - 1], (up - dn) / (2 * h), rtol=1e-5, atol=1e-8)


class TestMixedActions:
    def test_loss_and_gradient_match_the_oracle(self):
        # steps 1-2 are within the threshold; the brake step scores the
        # penalty 1.5 alone and ends execution
        registry, trace = mixed_action_case()
        ast = parse_program("(accel (scale 1.9 x))", registry, trace.schema)
        params = initial_params(ast)
        spec = ErrorSpec(max_step_error=0.5)
        res = execute(ast, params, trace, registry, spec)
        assert (res.executed_len, res.terminated_early) == (3, True)
        np.testing.assert_allclose(res.loss, 0.05 + 0.1 + 1.5, rtol=1e-12)
        np.testing.assert_allclose(
            res.loss, reference_loss(ast, registry, params, trace, spec), rtol=1e-12
        )
        grad = backward(res, spec).params[0]
        np.testing.assert_allclose(grad, [-1.5], rtol=1e-12)
        h = 1e-6
        up = reference_loss(ast, registry, {0: params[0] + h}, trace, spec)
        dn = reference_loss(ast, registry, {0: params[0] - h}, trace, spec)
        np.testing.assert_allclose(grad, [(up - dn) / (2 * h)], rtol=1e-6)


class TestFiniteDifferences:
    def test_parameter_gradients_100_random_programs(self, scalar_registry):
        rng = np.random.default_rng(123)
        spec = ErrorSpec(max_step_error=1e12)
        checked = 0
        for _ in range(100):
            T = int(rng.integers(1, 21))
            trace = make_trace(
                {"x": rng.normal(size=T).tolist(), "v": rng.normal(size=T).tolist()},
                rng.normal(size=T).tolist(),
            )
            ast = _random_ast(rng, 2)
            params = initial_params(ast)
            res = execute(ast, params, trace, scalar_registry, spec)
            if np.any(np.abs(res.step_errors) < 1e-8):
                continue  # too close to the norm kink for finite differences
            grads = backward(res, spec)
            for pid, g in grads.params.items():
                pert_up = dict(params)
                pert_up[pid] = params[pid] + 1e-6
                pert_dn = dict(params)
                pert_dn[pid] = params[pid] - 1e-6
                up = execute(ast, pert_up, trace, scalar_registry, spec).loss
                dn = execute(ast, pert_dn, trace, scalar_registry, spec).loss
                fd = (up - dn) / 2e-6
                np.testing.assert_allclose(g[0], fd, rtol=1e-5, atol=1e-7)
                checked += 1
        assert checked > 50


def _doubling_registry():
    """The functions on scalar x and v plus an action ``accel`` whose
    registry entry is not the identity: impl 2·x, VJP 2·g."""
    registry = standard_registry({"x": 1, "v": 1}, {})
    double = FunctionSpec("accel", (1,), 1, lambda x: 2.0 * x, lambda args, g: (2.0 * g,), True)
    registry.register(double)
    return registry


class TestActionEntry:
    """The root action's registry entry is its only rule, in every pass."""

    def test_execute_evaluate_step_and_backward_apply_it(self):
        registry = _doubling_registry()
        rng = np.random.default_rng(5)
        trace = make_trace(
            {"x": rng.normal(size=6).tolist(), "v": rng.normal(size=6).tolist()},
            rng.normal(size=6).tolist(),
        )
        text = "(accel (add (scale 0.7 x) (scale -0.3 v)))"
        ast = parse_program(text, registry, trace.schema)
        params = initial_params(ast)
        spec = ErrorSpec(max_step_error=1e9)
        want = 2.0 * (0.7 * trace.var_matrix("x") - 0.3 * trace.var_matrix("v"))
        res = execute(ast, params, trace, registry, spec)
        np.testing.assert_allclose(res.activations[-1][: res.executed_len], want, rtol=1e-12)
        np.testing.assert_allclose(
            res.loss, reference_loss(ast, registry, params, trace, spec), rtol=1e-12
        )
        for t in range(1, trace.length + 1):
            _, theta = evaluate_step(ast, registry, memory_at(trace, t, params))
            np.testing.assert_allclose(theta, want[t - 1], rtol=1e-12)

        grads = backward(res, spec)
        h = 1e-6
        for pid, g in grads.params.items():
            up = reference_loss(ast, registry, {**params, pid: params[pid] + h}, trace, spec)
            dn = reference_loss(ast, registry, {**params, pid: params[pid] - h}, trace, spec)
            np.testing.assert_allclose(g, [(up - dn) / (2 * h)], rtol=1e-6)
        for nid, rows in grads.slot_reads.items():
            name = dict(leaves(ast))[nid].name
            for t in range(1, trace.length + 1):
                base = trace.steps[t - 1].vars[name]
                up = reference_loss(ast, registry, params, trace, spec, override=(t, nid, base + h))
                dn = reference_loss(ast, registry, params, trace, spec, override=(t, nid, base - h))
                np.testing.assert_allclose(rows[t - 1], (up - dn) / (2 * h), rtol=1e-5, atol=1e-8)

    def test_optimize_applies_it(self):
        registry = _doubling_registry()
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=100))
        ast = parse_program("(accel (scale 0.0 x))", registry, trace.schema)
        config = OptimizeConfig(max_opt_iters=1500)
        got = optimize(ast, initial_params(ast), trace, registry, ErrorSpec(), config)
        assert_same_optimum(
            got, sequential_optimize(ast, initial_params(ast), trace, registry, ErrorSpec(), config)
        )
        # accel doubles its argument, so the law -9.8·x is fitted near c = -4.9
        assert got.stop == "matched"
        np.testing.assert_allclose(got.params[0], [-4.9], atol=0.3)
