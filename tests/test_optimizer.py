import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    standard_registry,
    SecondOrderConfig,
)
from tracesynth import interpreter, optimizer
from tracesynth.autodiff import backward
from tracesynth.optimizer import FIRST_BLOCKS, ROW_BUDGET, _same_pair, adagrad_walk
from tracesynth.program import canonical_key, initial_params, leaves
from tests import conftest
from tests.conftest import (
    _same_array_dicts,
    assert_same_optimum,
    make_trace,
    mixed_action_case,
    sequential_optimize,
)


def _grads_for(params=None, slot_rows=None):
    """Hand-built Gradients for unit tests; slot rows are one per executed
    step."""
    return Gradients(
        params={k: np.asarray(v, dtype=float) for k, v in (params or {}).items()},
        slot_reads={k: np.asarray(v, dtype=float) for k, v in (slot_rows or {}).items()},
    )


class TestAdagrad:
    def test_first_step(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 0.0 x))", scalar_registry, scalar_schema)
        cfg = OptimizeConfig(learning_rate=0.1)
        state = OptimizerState.fresh(ast, {0: np.array([0.0])}, cfg)
        grads = _grads_for(params={0: [2.0]})
        state = adagrad_step(state, grads)
        np.testing.assert_allclose(state.param_acc[0], [4.0])
        np.testing.assert_allclose(state.params[0], [-0.1], rtol=1e-6)

    def test_second_step(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 0.0 x))", scalar_registry, scalar_schema)
        cfg = OptimizeConfig(learning_rate=0.1)
        state = OptimizerState.fresh(ast, {0: np.array([0.0])}, cfg)
        state = adagrad_step(state, _grads_for(params={0: [2.0]}))
        state = adagrad_step(state, _grads_for(params={0: [1.0]}))
        np.testing.assert_allclose(state.param_acc[0], [5.0])
        np.testing.assert_allclose(
            state.params[0], [-0.1 - 0.1 / np.sqrt(5)], rtol=1e-6
        )

    def test_zero_gradient_no_change(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 0.7 x))", scalar_registry, scalar_schema)
        cfg = OptimizeConfig(learning_rate=0.1)
        state = OptimizerState.fresh(ast, {0: np.array([0.7])}, cfg)
        state = adagrad_step(state, _grads_for(params={0: [0.0]}))
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
            ast, state, _grads_for(slot_rows={nid: g}), index
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
        down = _grads_for(slot_rows={nid: [[1.0], [1.0], [1.0]]})
        up = _grads_for(slot_rows={nid: [[-1.0], [-1.0], [-1.0]]})
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
            ast, state, _grads_for(slot_rows={nid: [[0.0], [0.0]]}), index
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
            ast, state, _grads_for(slot_rows={nid: [[5.0], [5.0]]}), index
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
        step = cfg.learning_rate * g / np.sqrt(g * g + optimizer.DIV_GUARD)
        adjusted = np.array([[1.0], [0.0]]) - step
        votes = [index.names[1][j] for j in index.query_steps(1, adjusted)]
        assert votes == ["x", "v"]
        new_ast, _, changed = reassign_variables(
            ast, state, _grads_for(slot_rows={nid: g}), index
        )
        assert not changed
        assert canonical_key(new_ast) == "(accel x)"

    def test_slot_accumulator_persists_without_change(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 1.0], "v": [-5.0, -5.0]}, [0, 0])
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        state = OptimizerState.fresh(ast, {}, OptimizeConfig(learning_rate=0.01))
        (nid, _), = leaves(ast)
        g = _grads_for(slot_rows={nid: [[1.0], [1.0]]})
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
                ast, state, _grads_for(slot_rows={nid: rows}), index
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

    def test_reads_the_index_of_its_trace(self, scalar_registry, scalar_schema, index_builds):
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=20))
        ast = parse_program("(accel (sub (add v 0.0) x))", scalar_registry, scalar_schema)
        out = optimize(ast, initial_params(ast), trace, scalar_registry, ErrorSpec())
        assert out.iterations > 1
        assert index_builds == [trace.index]  # the one built with the trace

    def test_pendulum_coefficient_recovery(self, scalar_registry):
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=1.0))
        ast = parse_program("(accel (scale 0.1 x))", scalar_registry, {"x": 1, "v": 1})
        spec = ErrorSpec(max_step_error=0.01)
        cfg = OptimizeConfig(learning_rate=0.2, max_opt_iters=2000)
        out = optimize(ast, initial_params(ast), trace, scalar_registry, spec, cfg)
        assert matches_trace(out.result)
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
        assert (out.iterations, out.stop) == (1, "fixed")

    def test_already_perfect_returns_immediately(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 2.0], "v": [0, 0]}, [2.0, 4.0])
        ast = parse_program("(accel (scale 2.0 x))", scalar_registry, scalar_schema)
        spec = ErrorSpec()
        out = optimize(ast, initial_params(ast), trace, scalar_registry, spec, OptimizeConfig())
        assert out.result.loss == 0.0
        assert matches_trace(out.result)
        np.testing.assert_array_equal(out.params[0], [2.0])
        assert (out.iterations, out.stop) == (1, "matched")

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


def _pendulum_trace():
    return simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=100))


def _damped_trace():
    # the damped benchmark trace; candidates execute a step or two of it
    return simulate_second_order(SecondOrderConfig(k1=-4.0, k2=-0.25, x0=1.0, v0=2.0, steps=200))


def _same_state(a, b) -> bool:
    return all(
        _same_array_dicts(getattr(a, name), getattr(b, name))
        for name in ("params", "param_acc", "slot_acc")
    )


def _check_against_plain_loop(ahead, ast, state, cycle, blocks, trace, registry, spec):
    """Run the plain loop from the state a look-ahead started from: the
    look-ahead accepts exactly the blocks whose iterations repeat the cycle
    and re-bind nothing, and each has the loss, parameters and state after
    it, accumulators included, of that iteration, bit for bit."""
    plain = state
    for j in range(blocks):
        assert _same_array_dicts(ahead.params(state, j), plain.params)
        result = interpreter.execute(ast, plain.params, trace, registry, spec)
        grads = backward(result, spec)
        after = adagrad_step(plain, grads)
        _, after, rebound = reassign_variables(ast, after, grads, trace.index)
        pair = (grads, result.executed_len)
        if rebound or not result.terminated_early or not _same_pair(pair, cycle[j % len(cycle)]):
            assert ahead.accepted == j
            return
        assert np.float64(ahead.losses[j]).tobytes() == np.float64(result.loss).tobytes()
        assert _same_state(ahead.state(state, j + 1), after)
        plain = after
    assert ahead.accepted == blocks


@pytest.fixture
def look_aheads(monkeypatch):
    """(iterations before, blocks, blocks accepted, the cycle's executed
    lengths) of every look-ahead of one ``optimize`` call, each checked
    against the plain loop.  The iterations before a look-ahead are the
    plain ones, one ``execute`` call each, and the blocks accepted before
    it."""
    out = []
    executes = [0]
    execute, look_ahead = optimizer.execute, optimizer._look_ahead

    def counting(*args, **kwargs):
        executes[0] += 1
        return execute(*args, **kwargs)

    def recording(ast, state, cycle, blocks, *args):
        ahead = look_ahead(ast, state, cycle, blocks, *args)
        _check_against_plain_loop(ahead, ast, state, cycle, blocks, *args)
        start = executes[0] + sum(accepted for _, _, accepted, _ in out)
        out.append((start, blocks, ahead.accepted, tuple(n for _, n in cycle)))
        return ahead

    monkeypatch.setattr(optimizer, "execute", counting)
    monkeypatch.setattr(optimizer, "_look_ahead", recording)
    return out


def _in_blocks(look_aheads, out, lengths=None):
    """Iterations of ``out`` that ran in accepted blocks, of passes over a
    cycle with these executed lengths if given; a stop inside a pass ends
    its count."""
    return sum(
        min(accepted, out.iterations - start)
        for start, _, accepted, cycle in look_aheads
        if lengths is None or cycle == lengths
    )


def _both(text, registry, schema, trace, config, spec=ErrorSpec()):
    """``optimize`` and the sequential reference loop on one program,
    checked to agree bit for bit; returns the result of ``optimize``."""
    ast = parse_program(text, registry, schema)
    got = optimize(ast, initial_params(ast), trace, registry, spec, config)
    assert_same_optimum(
        got, sequential_optimize(ast, initial_params(ast), trace, registry, spec, config)
    )
    return got


class TestLookAhead:
    def test_walk_equals_repeated_single_steps(self, scalar_registry, scalar_schema):
        # update k of the walk takes gradient k % P of a cycle of period P
        ast = parse_program("(accel (scale 0.0 x))", scalar_registry, scalar_schema)
        rng = np.random.default_rng(3)
        for period, acc in itertools.product((1, 2, 3, 4), (None, np.array([0.25]))):
            state = OptimizerState.fresh(ast, {0: rng.normal(size=1)}, OptimizeConfig())
            if acc is not None:
                state.param_acc[0] = acc
            gs = rng.normal(size=(period, 1))
            walk, totals = adagrad_walk(state.params[0], acc, gs, 7, 0.2)
            assert walk[0].tobytes() == state.params[0].tobytes()
            for j in range(7):
                state = adagrad_step(state, _grads_for(params={0: gs[j % period]}))
                assert walk[j + 1].tobytes() == state.params[0].tobytes()
                assert totals[j].tobytes() == state.param_acc[0].tobytes()

    def test_batched_vote_agrees_with_reassign(self, scalar_registry, scalar_schema):
        # few steps and nearby variables, so ties and flips are common
        rng = np.random.default_rng(7)
        trace = make_trace(
            {"x": rng.normal(size=6).tolist(), "v": rng.normal(size=6).tolist()}, [0.0] * 6
        )
        index = build_variable_index(trace)
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        (nid, leaf, _, column), = optimizer.rebindable_leaves(ast, index)[1]
        cfg = OptimizeConfig()
        flips = 0
        for _ in range(300):
            n = int(rng.integers(1, 7))
            rows = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], size=(5, n, 1))
            rows[rng.random(5) < 0.2] = 0.0
            old = None if rng.random() < 0.3 else rng.random((int(rng.integers(1, 7)), 1))
            acc = optimizer._fold_slot(old, rows * rows)
            renames = optimizer._renames(index, leaf, column, rows, acc, 0.2)
            state = OptimizerState.fresh(ast, {}, cfg)
            if old is not None:
                state.slot_acc[nid] = old
            for k in range(5):
                grads = _grads_for(slot_rows={nid: rows[k]})
                _, state, changed = reassign_variables(ast, state, grads, index)
                assert bool(renames[k]) == changed
                if changed:
                    flips += 1
                    break
                folded = optimizer._with_tail(acc[k], old)
                assert folded.tobytes() == state.slot_acc[nid].tobytes()
        assert flips > 30

    def test_linear_program_runs_ahead(self, scalar_registry, scalar_schema, look_aheads):
        # (scale ? x) has a gradient that is constant while one step executes
        out = _both(
            "(accel (scale 0.0 x))", scalar_registry, scalar_schema, _pendulum_trace(),
            OptimizeConfig(max_opt_iters=1500),
        )
        accepted = sum(a for _, _, a, _ in look_aheads)
        assert accepted > 0.8 * out.iterations
        assert max(blocks for _, blocks, _, _ in look_aheads) >= 4 * FIRST_BLOCKS

    def test_nonlinear_program_gradient_changes(self, look_aheads):
        # both parameters of a product move, so no iteration repeats one of
        # the few before it and no cycle is confirmed; x has no rival, so it
        # stays bound
        pendulum = _pendulum_trace()
        trace = make_trace(
            {"x": pendulum.var_matrix("x")[:, 0].tolist()},
            pendulum.action_targets("accel", 1)[0][:, 0].tolist(),
        )
        registry = standard_registry({"x": 1}, {"accel": 1})
        out = _both(
            "(accel (scale 0.5 (scale -0.5 x)))", registry, {"x": 1}, trace,
            OptimizeConfig(max_opt_iters=300),
        )
        assert out.stop == "matched" and out.iterations > 20
        assert look_aheads == []

    def test_stagnation_stop_inside_a_block(
        self, scalar_registry, scalar_schema, look_aheads, monkeypatch
    ):
        # a coarse tolerance: after a few steps every improvement is stagnant
        monkeypatch.setattr(optimizer, "TOL", 1e-2)
        out = _both(
            "(accel (scale 0.0 x))", scalar_registry, scalar_schema, _pendulum_trace(),
            OptimizeConfig(),
        )
        assert out.stop == "stagnant"
        start, blocks, accepted, _ = look_aheads[-1]
        assert start < out.iterations < start + accepted

    def test_mixed_action_trace(self, look_aheads):
        # every execution stops at the brake step with the same gradient,
        # so look-ahead blocks run over the penalised row
        registry, trace = mixed_action_case()
        out = _both(
            "(accel (scale 1.5 x))", registry, {"x": 1}, trace, OptimizeConfig(),
            ErrorSpec(max_step_error=0.5),
        )
        assert out.result.executed_len == 3
        assert sum(accepted for _, _, accepted, _ in look_aheads) > 0

    def test_cap_inside_the_block_schedule(self, scalar_registry, scalar_schema, look_aheads):
        out = _both(
            "(accel (scale 0.0 x))", scalar_registry, scalar_schema, _pendulum_trace(),
            OptimizeConfig(max_opt_iters=37),
        )
        assert (out.iterations, out.stop) == (37, "cap")
        # two plain iterations confirm the cycle, and the cap cuts the first
        # pass short
        (start, blocks, accepted, _), = look_aheads
        assert start + blocks == start + accepted == 37
        assert blocks < FIRST_BLOCKS

    def test_rows_stay_within_budget(self, scalar_registry, scalar_schema, monkeypatch):
        rows = []
        forward = optimizer.forward

        def recording(tape, variables, params, n_rows):
            rows.append(n_rows)
            return forward(tape, variables, params, n_rows)

        monkeypatch.setattr(optimizer, "forward", recording)
        # a small step keeps one step executing for every iteration
        out = _both(
            "(accel (scale 0.0 x))", scalar_registry, scalar_schema, _pendulum_trace(),
            OptimizeConfig(learning_rate=1e-3, max_opt_iters=9000),
        )
        assert (out.iterations, out.stop) == (9000, "cap")
        assert max(rows) == ROW_BUDGET

    @pytest.mark.parametrize(
        "n, looked_ahead", [(ROW_BUDGET // 2, True), (ROW_BUDGET // 2 + 1, False)]
    )
    def test_two_blocks_must_fit_the_budget(
        self, n, looked_ahead, scalar_registry, scalar_schema, look_aheads
    ):
        # every step matches but the last, so each iteration executes n steps,
        # and all are under-predicted, so the gradient stays the same
        xs = np.linspace(0.01, 0.02, n)
        thetas = 3.0 * xs
        thetas[-1] = 100.0
        trace = make_trace({"x": xs.tolist(), "v": [0.0] * n}, thetas.tolist())
        out = _both(
            "(accel (scale 2.0 x))", scalar_registry, scalar_schema, trace,
            OptimizeConfig(max_opt_iters=5), ErrorSpec(max_step_error=0.5),
        )
        assert out.result.executed_len == n
        assert bool(look_aheads) == looked_ahead

    def test_period_two_at_one_step(self, scalar_registry, scalar_schema, look_aheads):
        # AdaGrad zig-zags across the kink of the error at the one executed
        # step: the gradient flips sign every iteration
        out = _both(
            "(accel (scale v 0.2))", scalar_registry, scalar_schema, _damped_trace(),
            OptimizeConfig(), ErrorSpec(max_step_error=0.01),
        )
        assert _in_blocks(look_aheads, out, (1, 1)) > out.iterations / 2
        assert len(look_aheads) < out.iterations / 20

    def test_cycle_of_mixed_lengths(self, scalar_registry, scalar_schema, look_aheads):
        # the zig-zag admits step 2 once in three iterations, so the blocks
        # of one pass stop at steps 2, 1, 1, 2, 1, 1, ...
        out = _both(
            "(accel (scale v 0.3))", scalar_registry, scalar_schema, _damped_trace(),
            OptimizeConfig(), ErrorSpec(max_step_error=0.01),
        )
        assert any(sorted(lengths) == [1, 1, 2] and a > 2 for _, _, a, lengths in look_aheads)
        assert _in_blocks(look_aheads, out) > out.iterations / 2

    def test_plain_loop_resumes_at_the_first_rejected_block(
        self, scalar_registry, scalar_schema, look_aheads, monkeypatch
    ):
        # every plain iteration, those after a pass that a block breaks
        # included, runs at its iteration number with the parameters of the
        # sequential loop
        runs, reference = [], []
        execute = optimizer.execute

        def recording(ast, params, *args):
            accepted = sum(a for _, _, a, _ in look_aheads)
            runs.append((len(runs) + accepted, params))
            return execute(ast, params, *args)

        def reference_run(ast, params, *args):
            reference.append(params)
            return interpreter.execute(ast, params, *args)

        monkeypatch.setattr(optimizer, "execute", recording)
        monkeypatch.setattr(conftest, "execute", reference_run)
        out = _both(
            "(accel (scale v 0.2))", scalar_registry, scalar_schema, _damped_trace(),
            OptimizeConfig(), ErrorSpec(max_step_error=0.01),
        )
        assert len(reference) == out.iterations
        breaks = {start + a for start, blocks, a, _ in look_aheads if 0 < a < blocks}
        resumed = [(i, params) for i, params in runs if i in breaks]
        assert len(resumed) >= 2
        # an ``execute`` past the last iteration evaluates the best state
        for i, params in runs:
            if i < out.iterations:
                assert params.keys() == reference[i].keys()
                assert all(params[k].tobytes() == reference[i][k].tobytes() for k in params)


def _special_rows(rng, shape):
    rows = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
    rows[rng.random(shape) < 0.1] = -0.0
    rows[rng.random(shape) < 0.02] = np.nan
    return rows


@settings(max_examples=300, deadline=None)
@given(
    blocks=st.integers(1, 9),
    width=st.integers(1, 300),
    cut=st.integers(0, 299),
    d=st.integers(0, 3),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_sums_equal_each_blocks_sum(blocks, width, cut, d, strided, seed):
    """The batched reduction of ``_look_ahead``, over the first n steps of
    every row of a (blocks, width) grid, against the per-run sum of
    ``execute`` (d = 0: step errors) and ``backward`` (parameter gradient
    rows, also as the strided views that an action's arguments get)."""
    rng = np.random.default_rng(seed)
    shape = (blocks * width,) if d == 0 else (blocks * width, d)
    rows = _special_rows(rng, shape)
    if strided and d:
        wide = np.zeros((blocks * width, d + 2))
        wide[:, 1 : d + 1] = rows
        rows = wide[:, 1 : d + 1]
    grid = rows.reshape((blocks, width) + rows.shape[1:])
    for n in {width, width - cut % width}:
        sums = np.add.reduce(grid[:, :n], axis=1)
        for k in range(blocks):
            want = rows[k * width : k * width + n].sum(axis=0)
            assert sums[k].tobytes() == want.tobytes()
