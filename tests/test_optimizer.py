import numpy as np

from tracesynth import (
    ErrorSpec,
    Gradients,
    OptimizeConfig,
    OptimizerState,
    adagrad_step,
    build_variable_index,
    execute,
    matches_trace,
    optimize,
    parse_program,
    reassign_variables,
    simulate_second_order,
    SecondOrderConfig,
)
from tracesynth import interpreter
from tracesynth.program import canonical_key, initial_params, leaves
from tests.conftest import make_trace


def _grads_for(ast, params=None, slot_rows=None):
    """Hand-built Gradients for unit tests; slot rows are one per executed
    step."""
    params = params or {}
    slot_rows = slot_rows or {}
    param_nodes = {}
    slot_names = {}
    for nid, leaf in leaves(ast):
        if hasattr(leaf, "pid") and leaf.pid in params:
            param_nodes[leaf.pid] = nid
        if hasattr(leaf, "name") and nid in slot_rows:
            slot_names[nid] = leaf.name
    return Gradients(
        params={k: np.asarray(v, dtype=float) for k, v in params.items()},
        param_nodes=param_nodes,
        slot_reads={k: np.asarray(v, dtype=float) for k, v in slot_rows.items()},
        slot_totals={k: np.asarray(v, dtype=float).sum(axis=0) for k, v in slot_rows.items()},
        slot_names=slot_names,
    )


class TestAdagrad:
    def test_first_step(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 0.0 x))", scalar_registry, scalar_schema)
        cfg = OptimizeConfig(learning_rate=0.1)
        state = OptimizerState.fresh(ast, {0: np.array([0.0])}, cfg)
        grads = _grads_for(ast, params={0: [2.0]})
        state = adagrad_step(state, grads)
        np.testing.assert_allclose(state.param_acc[0], [4.0])
        np.testing.assert_allclose(state.params[0], [-0.1], rtol=1e-6)

    def test_second_step(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 0.0 x))", scalar_registry, scalar_schema)
        cfg = OptimizeConfig(learning_rate=0.1)
        state = OptimizerState.fresh(ast, {0: np.array([0.0])}, cfg)
        state = adagrad_step(state, _grads_for(ast, params={0: [2.0]}))
        state = adagrad_step(state, _grads_for(ast, params={0: [1.0]}))
        np.testing.assert_allclose(state.param_acc[0], [5.0])
        np.testing.assert_allclose(
            state.params[0], [-0.1 - 0.1 / np.sqrt(5)], rtol=1e-6
        )

    def test_zero_gradient_no_change(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 0.7 x))", scalar_registry, scalar_schema)
        cfg = OptimizeConfig(learning_rate=0.1)
        state = OptimizerState.fresh(ast, {0: np.array([0.7])}, cfg)
        state = adagrad_step(state, _grads_for(ast, params={0: [0.0]}))
        np.testing.assert_array_equal(state.params[0], [0.7])
        np.testing.assert_array_equal(state.param_acc[0], [0.0])


class TestReassign:
    def test_majority_vote_renames(self, scalar_registry, scalar_schema):
        # three steps; gradients push the read values of slot x onto v
        trace = make_trace({"x": [1.0, 1.0, 1.0], "v": [0.5, 0.5, 0.5]}, [0, 0, 0])
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        cfg = OptimizeConfig(learning_rate=0.2)
        state = OptimizerState.fresh(ast, {}, cfg)
        (nid, _), = leaves(ast)
        # adjusted read = 1.0 - 0.2*sign(g) = 0.8 -> nearer to v (0.5)? no: |0.8-1|=0.2 < |0.8-0.5|=0.3
        # push harder by centering accumulators: first step size is the learning rate
        # use values where v is strictly closer: adjusted 0.7 -> |0.7-1|=0.3 > |0.7-0.5|=0.2
        trace = make_trace({"x": [1.0, 1.0, 1.0], "v": [0.7, 0.7, 0.7]}, [0, 0, 0])
        index = build_variable_index(trace)
        g = [[1.0], [1.0], [1.0]]
        new_ast, new_state, changed = reassign_variables(
            ast, state, _grads_for(ast, slot_rows={nid: g}), index
        )
        assert changed
        assert canonical_key(new_ast) == "(accel v)"
        # an absent accumulator is zero
        assert new_state.param_acc == {}
        assert new_state.slot_acc == {}

    def test_flip_back_returns_the_same_tree(self, scalar_registry, scalar_schema):
        # x=1.0, v=0.7: a step of 0.2 down from x votes v, and from v up votes x
        trace = make_trace({"x": [1.0, 1.0, 1.0], "v": [0.7, 0.7, 0.7]}, [0, 0, 0])
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        state = OptimizerState.fresh(ast, {}, OptimizeConfig(learning_rate=0.2))
        (nid, _), = leaves(ast)
        down = _grads_for(ast, slot_rows={nid: [[1.0], [1.0], [1.0]]})
        up = _grads_for(ast, slot_rows={nid: [[-1.0], [-1.0], [-1.0]]})
        trees = {}
        to_v, state, changed = reassign_variables(ast, state, down, index, trees)
        assert changed and canonical_key(to_v) == "(accel v)"
        back, state, changed = reassign_variables(to_v, state, up, index, trees)
        assert changed and back is ast
        again, _, changed = reassign_variables(back, state, down, index, trees)
        assert changed and again is to_v
        assert trees == {("x",): ast, ("v",): to_v}

    def test_zero_gradients_fixed_point(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 2.0], "v": [0.0, 0.0]}, [0, 0])
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        state = OptimizerState.fresh(ast, {}, OptimizeConfig())
        (nid, _), = leaves(ast)
        new_ast, _, changed = reassign_variables(
            ast, state, _grads_for(ast, slot_rows={nid: [[0.0], [0.0]]}), index
        )
        assert not changed
        assert canonical_key(new_ast) == "(accel x)"

    def test_single_variable_never_changes(self):
        from tracesynth import standard_registry

        registry = standard_registry({"x": 1}, {"accel": 1})
        trace = make_trace({"x": [1.0, 2.0]}, [0, 0])
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", registry, {"x": 1})
        state = OptimizerState.fresh(ast, {}, OptimizeConfig())
        (nid, _), = leaves(ast)
        _, _, changed = reassign_variables(
            ast, state, _grads_for(ast, slot_rows={nid: [[5.0], [5.0]]}), index
        )
        assert not changed

    def test_tie_keeps_current(self, scalar_registry, scalar_schema):
        # step 1 has no gradient, so its virtual read stays at x=1.0 and votes
        # x; step 2's read of x=0.0 is nudged by the learning rate to 0.2,
        # nearer v=0.3 than x=0.0, and votes v
        trace = make_trace({"x": [1.0, 0.0], "v": [0.0, 0.3]}, [0, 0])
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        cfg = OptimizeConfig(learning_rate=0.2)
        state = OptimizerState.fresh(ast, {}, cfg)
        (nid, _), = leaves(ast)
        g = np.array([[0.0], [-1.0]])
        adjusted = np.array([[1.0], [0.0]]) - cfg.learning_rate * g / np.sqrt(g * g + cfg.div_guard)
        votes = [index.names[1][j] for j in index.query_steps(1, adjusted)]
        assert votes == ["x", "v"]
        new_ast, _, changed = reassign_variables(
            ast, state, _grads_for(ast, slot_rows={nid: g}), index
        )
        assert not changed
        assert canonical_key(new_ast) == "(accel x)"

    def test_slot_accumulator_persists_without_change(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 1.0], "v": [-5.0, -5.0]}, [0, 0])
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        state = OptimizerState.fresh(ast, {}, OptimizeConfig(learning_rate=0.01))
        (nid, _), = leaves(ast)
        g = _grads_for(ast, slot_rows={nid: [[1.0], [1.0]]})
        _, state, changed = reassign_variables(ast, state, g, index)
        assert not changed
        np.testing.assert_allclose(state.slot_acc[nid], [[1.0], [1.0]])
        _, state, _ = reassign_variables(ast, state, g, index)
        np.testing.assert_allclose(state.slot_acc[nid], [[2.0], [2.0]])

    def test_slot_accumulator_follows_executed_length(self, scalar_registry, scalar_schema):
        # rows past the executed prefix are kept for when it grows again
        trace = make_trace({"x": [1.0, 1.0, 1.0], "v": [-5.0, -5.0, -5.0]}, [0, 0, 0])
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        state = OptimizerState.fresh(ast, {}, OptimizeConfig(learning_rate=0.01))
        (nid, _), = leaves(ast)
        for rows, want in (
            ([[1.0]], [[1.0]]),
            ([[2.0], [2.0], [2.0]], [[5.0], [4.0], [4.0]]),
            ([[3.0], [3.0]], [[14.0], [13.0], [4.0]]),
        ):
            _, state, changed = reassign_variables(
                ast, state, _grads_for(ast, slot_rows={nid: rows}), index
            )
            assert not changed
            np.testing.assert_array_equal(state.slot_acc[nid], want)


class TestOptimize:
    def test_each_binding_lowered_once(self, scalar_registry, scalar_schema, monkeypatch):
        # both variable leaves flip between x and v about ten times
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=20))
        ast = parse_program("(accel (sub (add v 0.0) x))", scalar_registry, scalar_schema)
        tapes = []
        lower = interpreter.compile_tape

        def recording(tree, registry):
            tape = lower(tree, registry)
            tapes.append((tape, canonical_key(tree)))
            return tape

        monkeypatch.setattr(interpreter, "compile_tape", recording)
        optimize(
            ast, initial_params(ast), trace, scalar_registry, ErrorSpec(),
            OptimizeConfig(max_opt_iters=150),
        )
        bindings = [key for _, key in tapes]
        flips = sum(a != b for a, b in zip(bindings, bindings[1:]))
        assert flips >= 8
        assert len({id(tape) for tape, _ in tapes}) == len(set(bindings)) == 2

    def test_pendulum_coefficient_recovery(self, scalar_registry):
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=1.0))
        ast = parse_program("(accel (scale 0.1 x))", scalar_registry, {"x": 1, "v": 1})
        spec = ErrorSpec(max_step_error=0.01)
        cfg = OptimizeConfig(learning_rate=0.2, max_opt_iters=2000)
        out = optimize(ast, initial_params(ast), trace, scalar_registry, spec, cfg)
        assert matches_trace(out.result, spec)
        p = out.params[0][0]
        assert abs(p - (-9.8)) / 9.8 < 0.01

    def test_nothing_to_optimize_exits_after_first_pass(self):
        from tracesynth import standard_registry

        registry = standard_registry({"x": 1}, {"accel": 1})
        trace = make_trace({"x": [1.0, 2.0]}, [5.0, 6.0])
        ast = parse_program("(accel x)", registry, {"x": 1})
        spec = ErrorSpec(max_step_error=0.5)
        out = optimize(ast, {}, trace, registry, spec, OptimizeConfig())
        direct = execute(ast, {}, trace, registry, spec)
        assert out.result.loss == direct.loss
        assert canonical_key(out.ast) == "(accel x)"

    def test_already_perfect_returns_immediately(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 2.0], "v": [0, 0]}, [2.0, 4.0])
        ast = parse_program("(accel (scale 2.0 x))", scalar_registry, scalar_schema)
        spec = ErrorSpec()
        out = optimize(ast, initial_params(ast), trace, scalar_registry, spec, OptimizeConfig())
        assert out.result.loss == 0.0
        assert matches_trace(out.result, spec)
        np.testing.assert_array_equal(out.params[0], [2.0])

    def test_deterministic(self, scalar_registry, scalar_schema):
        trace = simulate_second_order(SecondOrderConfig(k1=-2.0, k2=0.0, x0=1.0, steps=40))
        spec = ErrorSpec(max_step_error=0.05)
        cfg = OptimizeConfig(max_opt_iters=300)
        outs = []
        for _ in range(2):
            ast = parse_program("(accel (scale 0.3 x))", scalar_registry, scalar_schema)
            outs.append(
                optimize(ast, initial_params(ast), trace, scalar_registry, spec, cfg)
            )
        np.testing.assert_array_equal(outs[0].params[0], outs[1].params[0])
        assert outs[0].result.loss == outs[1].result.loss

    def test_returned_gradients_belong_to_returned_state(
        self, scalar_registry, scalar_schema
    ):
        trace = make_trace({"x": [1.0, 2.0], "v": [0, 0]}, [0.5, 1.2])
        ast = parse_program("(accel (scale 0.1 x))", scalar_registry, scalar_schema)
        spec = ErrorSpec(max_step_error=0.01)
        out = optimize(
            ast, initial_params(ast), trace, scalar_registry, spec, OptimizeConfig(max_opt_iters=50)
        )
        # gradients recomputed for the returned best state
        assert set(out.grads.params) == set(out.params)
