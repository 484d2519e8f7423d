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
    RunConfig,
    simulate_second_order,
    standard_registry,
    SecondOrderConfig,
)
from tracesynth import interpreter, optimizer
from tracesynth.interpreter import backward
from tracesynth.optimizer import FIRST_BLOCKS, ROW_BUDGET, _pair, adagrad_walk
from tracesynth.program import VarLeaf, canonical_key, initial_params, leaves, replace_node
from tests import conftest
from tests.conftest import (
    _same_array_dicts,
    assert_same_optimum,
    joined_oscillator_trace,
    make_trace,
    mixed_action_case,
    planar_trace,
    sequential_optimize,
    unpruned_reassign,
    unpruned_vote,
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
        ast = parse_program("(accel x)", registry, trace.schema)
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

        # ``execute`` and look-ahead passes both lower through the interpreter
        monkeypatch.setattr(interpreter, "compile_tape", recording)
        out = optimize(
            ast, initial_params(ast), trace, scalar_registry, ErrorSpec(),
            OptimizeConfig(max_opt_iters=150),
        )
        assert out.rebinds >= 8
        bindings = [key for _, key in tapes]
        assert len({id(tape) for tape, _ in tapes}) == len(set(bindings)) == 2

    def test_reads_the_index_of_its_trace(self, scalar_registry, scalar_schema, index_builds):
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=20))
        ast = parse_program("(accel (sub (add v 0.0) x))", scalar_registry, scalar_schema)
        out = optimize(ast, initial_params(ast), trace, scalar_registry, ErrorSpec())
        assert out.iterations > 1
        assert index_builds == [trace.index]  # the one built with the trace

    def test_pendulum_coefficient_recovery(self, scalar_registry):
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=1.0))
        ast = parse_program("(accel (scale 0.1 x))", scalar_registry, trace.schema)
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
        ast = parse_program("(accel x)", registry, trace.schema)
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


def _check_against_plain_loop(ahead, state, cycle, blocks, trace, registry, spec):
    """Run the plain loop from the state a look-ahead started from: the
    look-ahead accepts exactly the blocks whose iterations repeat the cycle,
    the next tree included, and each has the tree, loss, parameters and
    state after it, accumulators included, of that iteration, bit for
    bit."""
    # the cycle's trees, so that a re-binding returns the very same object
    trees = {optimizer.rebindable_leaves(t, trace.index)[0]: t for t, *_ in cycle}
    plain, tree = state, cycle[0][0]
    for j in range(blocks):
        assert ahead.tree(j) is tree
        assert _same_array_dicts(ahead.params(state, j), plain.params)
        result = interpreter.execute(tree, plain.params, trace, registry, spec)
        grads = backward(result, spec)
        after = adagrad_step(plain, grads)
        following, after, _ = reassign_variables(tree, after, grads, trace.index, trees)
        pair = _pair(tree, grads, result.executed_len)
        if (
            not result.terminated_early
            or pair[3] != cycle[j % len(cycle)][3]
            or following is not cycle[(j + 1) % len(cycle)][0]
        ):
            assert ahead.accepted == j
            return
        assert np.float64(ahead.losses[j]).tobytes() == np.float64(result.loss).tobytes()
        assert _same_state(ahead.state(state, j + 1), after)
        plain, tree = after, following
    assert ahead.accepted == blocks


@pytest.fixture
def passes(monkeypatch):
    """Every look-ahead pass of one ``optimize`` call, each checked against
    the plain loop, and every tree that ``execute`` ran, in order.  A pass
    is recorded twice: as (iterations before, blocks, blocks accepted, the
    cycle's executed lengths) in the first list, and if it is over a
    stationary pair, as (``execute`` calls before it, blocks, blocks
    accepted) in the second too.  The iterations before a pass are the
    plain ones, one ``execute`` call each, and the blocks accepted before
    it."""
    out, known_passes, runs = [], [], []
    execute, look_ahead = optimizer.execute, optimizer._look_ahead

    def counting(ast, *args, **kwargs):
        runs.append(ast)
        return execute(ast, *args, **kwargs)

    def recording(state, cycle, blocks, trace, registry, spec, known=None):
        ahead = look_ahead(state, cycle, blocks, trace, registry, spec, known)
        _check_against_plain_loop(ahead, state, cycle, blocks, trace, registry, spec)
        start = len(runs) + sum(accepted for _, _, accepted, _ in out)
        out.append((start, blocks, ahead.accepted, tuple(n for _, _, n, _ in cycle)))
        if known is not None:
            known_passes.append((len(runs), blocks, ahead.accepted))
        return ahead

    monkeypatch.setattr(optimizer, "execute", counting)
    monkeypatch.setattr(optimizer, "_look_ahead", recording)
    return out, known_passes, runs


@pytest.fixture
def look_aheads(passes):
    """(iterations before, blocks, blocks accepted, the cycle's executed
    lengths) of every look-ahead pass of one ``optimize`` call, each checked
    against the plain loop (see ``passes``)."""
    return passes[0]


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


# programs on a trace whose variables and action have dimension 2: the law
# itself, nearly, and three that miss it
PLANAR_LAW = "(accel2 (add2 (scale2 -3.9 p) (scale2 -0.2 v)))"


@pytest.mark.parametrize(
    "text",
    [
        PLANAR_LAW,
        "(accel2 (scale2 -1.0 v))",
        "(accel2 (add2 (scale2 0.1 p) p))",
        "(accel2 (sub2 v p))",
    ],
)
def test_vector_valued_trace(text):
    trace = planar_trace()
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    config = RunConfig(max_step_error=0.01)
    out = _both(
        text, registry, trace.schema, trace, config.optimize_config(), config.error_spec()
    )
    if text == PLANAR_LAW:
        assert (out.stop, out.iterations, out.result.executed_len) == ("matched", 21, 200)
        assert matches_trace(out.result)


class TestSignature:
    """The signature of ``_pair`` is equal for two iterations exactly when
    they ran the same tree, stopped at the same step and had parameter
    gradients equal bit for bit."""

    def test_what_tells_iterations_apart(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 0.5 x))", scalar_registry, scalar_schema)
        ((nid, _),) = [(nid, leaf) for nid, leaf in leaves(ast) if isinstance(leaf, VarLeaf)]
        rebound = replace_node(ast, nid, VarLeaf("v", 1))

        def signature(tree, n, params):
            return _pair(tree, _grads_for(params=params), n)[3]

        base = signature(ast, 3, {0: [0.25]})
        # fresh gradient arrays with the same bytes
        assert signature(ast, 3, {0: [0.25]}) == base
        # a re-bound tree with the same gradients, and the same tree a step on
        assert signature(rebound, 3, {0: [0.25]}) != base
        assert signature(ast, 4, {0: [0.25]}) != base
        # 0.0 == -0.0, but their bytes differ
        assert signature(ast, 3, {0: [0.0]}) != signature(ast, 3, {0: [-0.0]})
        # other parameter ids
        assert signature(ast, 3, {1: [0.25]}) != base
        assert signature(ast, 3, {0: [0.25], 1: [0.25]}) != base
        assert signature(ast, 3, {}) != base

    def test_a_nan_gradient_equals_its_own_bits(self, scalar_registry, scalar_schema):
        # NaN != NaN, but the bytes of one bit pattern are equal
        ast = parse_program("(accel (scale 0.5 x))", scalar_registry, scalar_schema)
        nan, other = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(float)
        a, b, c = (_pair(ast, _grads_for(params={0: [g]}), 3)[3] for g in (nan, nan, other))
        assert a == b
        assert a != c


class TestLookAhead:
    def test_walk_equals_repeated_single_steps(self, scalar_registry, scalar_schema):
        # update k of the walk takes gradient k % P of a cycle of period P;
        # with a reset, each update is followed by a re-binding, which
        # empties the accumulators
        ast = parse_program("(accel (scale 0.0 x))", scalar_registry, scalar_schema)
        rng = np.random.default_rng(3)
        cases = itertools.product((1, 2, 3, 4), (None, np.array([0.25])), (False, True))
        for period, acc, reset in cases:
            state = OptimizerState.fresh(ast, {0: rng.normal(size=1)}, OptimizeConfig())
            if acc is not None:
                state.param_acc[0] = acc
            gs = rng.normal(size=(period, 1))
            walk, totals = adagrad_walk(state.params[0], acc, gs, 7, 0.2, reset)
            assert walk[0].tobytes() == state.params[0].tobytes()
            for j in range(7):
                state = adagrad_step(state, _grads_for(params={0: gs[j % period]}))
                assert walk[j + 1].tobytes() == state.params[0].tobytes()
                assert totals[j].tobytes() == state.param_acc[0].tobytes()
                if reset:
                    state.param_acc.clear()

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
        for _, reset in itertools.product(range(300), (False, True)):
            n = int(rng.integers(1, 7))
            rows = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], size=(5, n, 1))
            rows[rng.random(5) < 0.2] = 0.0
            old = None if rng.random() < 0.3 else rng.random((int(rng.integers(1, 7)), 1))
            acc = optimizer._fold_slot(old, rows * rows, reset)
            columns = optimizer._vote(index, leaf, column, rows, acc, 0.2)
            state = OptimizerState.fresh(ast, {}, cfg)
            if old is not None:
                state.slot_acc[nid] = old
            for k in range(5):
                if reset and k:
                    # as after a re-binding
                    state.slot_acc.clear()
                grads = _grads_for(slot_rows={nid: rows[k]})
                rebound, state, changed = reassign_variables(ast, state, grads, index)
                assert (columns[k] != column) == changed
                if changed:
                    assert rebound.root.children[0].name == index.names[1][columns[k]]
                    flips += 1
                    break
                folded = optimizer._with_tail(acc[k], None if reset and k else old)
                assert folded.tobytes() == state.slot_acc[nid].tobytes()
        assert flips > 60

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
            pendulum.action_targets("accel", 1)[:, 0].tolist(),
        )
        registry = standard_registry({"x": 1}, {"accel": 1})
        out = _both(
            "(accel (scale 0.5 (scale -0.5 x)))", registry, trace.schema, trace,
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
            "(accel (scale 1.5 x))", registry, trace.schema, trace, OptimizeConfig(),
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
        evaluate_rows = optimizer.evaluate_rows

        def recording(ast, params, trace, registry, spec, steps):
            rows.append(len(steps))
            return evaluate_rows(ast, params, trace, registry, spec, steps)

        monkeypatch.setattr(optimizer, "evaluate_rows", recording)
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

    def test_flip_cycle_runs_ahead(
        self, scalar_registry, scalar_schema, look_aheads, monkeypatch
    ):
        # (accel (sub ? v)) from its start in the pendulum benchmark search at
        # RunConfig.seed=42: its leaf flips between v and x on every
        # iteration until the cap (bound to v it executes 25 steps, bound to
        # x one), so every block re-binds and passes follow the flips
        executes = []
        execute = optimizer.execute

        def counted(*args):
            executes.append(1)
            return execute(*args)

        monkeypatch.setattr(optimizer, "execute", counted)
        out = _both(
            "(accel (sub -0.18160687821877763 v))", scalar_registry, scalar_schema,
            _pendulum_trace(), OptimizeConfig(),
        )
        assert (out.iterations, out.stop) == (1500, "cap")
        assert out.rebinds > 1400
        assert len(executes) < 100
        assert _in_blocks(look_aheads, out) > 1400

    def test_pass_shorter_than_a_rebinding_cycle(self, scalar_registry, scalar_schema):
        # three plain iterations of the pendulum x <-> v flip (bound to x the
        # leaf executes one step, bound to v 25) and a fourth pair that runs
        # v one step further: a pass of 3 blocks runs v in block 1 only, so
        # v's grid is 25 steps wide and must not be read at step 26
        trace, spec = _pendulum_trace(), ErrorSpec()
        ast = parse_program("(accel (sub -1.1773095132529003 x))", scalar_registry, scalar_schema)
        state = OptimizerState.fresh(ast, initial_params(ast), OptimizeConfig())
        trees, cycle, tree, plain = {}, [], ast, state
        for _ in range(3):
            result = execute(tree, plain.params, trace, scalar_registry, spec)
            grads = backward(result, spec)
            cycle.append(_pair(tree, grads, result.executed_len))
            plain = adagrad_step(plain, grads)
            tree, plain, _ = reassign_variables(tree, plain, grads, trace.index, trees)
        other, grads, n, _ = cycle[1]
        cycle.append(_pair(other, grads, n + 1))
        assert [t is ast for t, *_ in cycle] == [True, False, True, False]
        assert len({n for _, _, n, _ in cycle}) == 3
        ahead = optimizer._look_ahead(state, cycle, 3, trace, scalar_registry, spec)
        _check_against_plain_loop(ahead, state, cycle, 3, trace, scalar_registry, spec)
        assert ahead.accepted == 3

    def test_short_pass_near_the_cap(self, scalar_registry, scalar_schema, look_aheads):
        # the 12th ``optimize`` call of ``induce`` on the joined oscillator
        # trace at RunConfig.seed=1: the leaf flips v <-> x, and bound to x
        # it executes 99 steps, then 101; near the cap a pass gets 3 blocks
        out = _both(
            "(accel (scale x 0.1249907045537659))", scalar_registry, scalar_schema,
            joined_oscillator_trace(), OptimizeConfig(),
        )
        assert (out.iterations, out.stop) == (1500, "cap")
        assert (3, (1, 99, 1, 101)) in {(blocks, n) for _, blocks, _, n in look_aheads}

    def test_mixed_cycle_stays_plain(
        self, scalar_registry, scalar_schema, look_aheads, monkeypatch
    ):
        # both leaves of (sub x v) flip together, and the iterations come
        # round as (A, B, B, B): a cycle that re-binds on some of its pairs
        # only, which no pass follows
        trace = make_trace(
            {"x": [1.0, 0.2, -0.3, 0.0], "v": [0.5, 1.0, -0.3, 0.5]}, [-1.0, -1.0, 1.0, 1.0]
        )
        runs = []
        execute = optimizer.execute

        def recording(ast, *args):
            runs.append("A" if canonical_key(ast).endswith("(sub x v)))") else "B")
            return execute(ast, *args)

        monkeypatch.setattr(optimizer, "execute", recording)
        out = _both(
            "(accel (scale 1.0 (sub x v)))", scalar_registry, scalar_schema, trace,
            OptimizeConfig(learning_rate=1.0), ErrorSpec(max_step_error=0.01),
        )
        assert "ABBBABBB" in "".join(runs)
        assert out.rebinds > 10
        assert all(len(lengths) == 1 for *_, lengths in look_aheads)

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


def _settled(index, slot, acc, lr) -> bool:
    _, leaf, _, column = slot
    return optimizer._settled(index, leaf, column, acc, lr)


class TestSettledVotes:
    def test_every_damped_vote_is_settled(self, scalar_registry, scalar_schema):
        # x and v lie 0.81-1.0 apart over damped steps 1-4 and 0.74 apart at
        # step 5, against twice the largest nudge, 2 * 0.2; pendulum's lie
        # 0.1 apart at step 1
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        damped, pendulum = _damped_trace(), _pendulum_trace()
        for trace, settled in ((damped, [True] * 4 + [False]), (pendulum, [False])):
            slot, = optimizer.rebindable_leaves(ast, trace.index)[1]
            steps = range(1, len(settled) + 1)
            assert [_settled(trace.index, slot, np.ones((n, 1)), 0.2) for n in steps] == settled
        # a NaN or infinite accumulator row settles nothing
        slot, = optimizer.rebindable_leaves(ast, damped.index)[1]
        for bad in (np.nan, np.inf):
            assert not _settled(damped.index, slot, np.array([[1.0], [bad]]), 0.2)

    def test_rounding_can_double_a_nudge(self):
        # b is bound, a lies 2 below it and floats near b are 1 apart: a nudge
        # of 0.75 rounds to a move of 1, halfway to a, and the tie goes to a,
        # so a gap of 1 with a learning rate of 0.75 is not settled
        b = 2.0**52 + 10
        trace = make_trace({"a": [b - 2], "b": [b]}, [0.0])
        registry = standard_registry(trace.schema.variables, {"accel": 1})
        ast = parse_program("(accel b)", registry, trace.schema)
        slot, = optimizer.rebindable_leaves(ast, trace.index)[1]
        _, leaf, _, column = slot
        g = np.ones((1, 1))
        assert trace.index.gaps[1][0, column] == 1.0 > 0.75
        assert unpruned_vote(trace.index, leaf, column, g, g * g, 0.75) != column
        assert not _settled(trace.index, slot, g * g, 0.75)


# gradient entries: zeros of both signs, NaN, infinities, extreme magnitudes
_SPECIAL_ROWS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300]
# accumulator entries carried from earlier iterations, NaN rows included
_OLD_ACC = [0.0, 0.25, 4.0, 1e-300, 1e300, np.nan, np.inf]
# a rival's distance from the first variable, in learning rates: equal or
# nearly equal, near the bound (4 * sqrt(d) learning rates), far, or any
_NEAR = [0.0, 1e-12, 1e-3, 1.0, 2.0]
_BORDER = [3.99, 4.0, 4.0 + 1e-12, 4.01, 5.65, 4 * np.sqrt(2), 4 * np.sqrt(2) + 1e-12, 5.67]
_FAR = [8.0, 40.0]
_RIVAL_DISTANCES = [_NEAR, _BORDER, _FAR, _NEAR + _BORDER + _FAR]


@st.composite
def _vote_cases(draw):
    """A trace of 2-3 variables of dimension d over n steps, a leaf bound to
    one of them, K blocks of read gradients (K, n, d), an earlier
    accumulator or None, and a learning rate in [1e-3, 10]."""
    d, m, n, blocks = (draw(st.integers(*r)) for r in ((1, 2), (2, 3), (1, 4), (1, 3)))
    lr = 10.0 ** draw(st.floats(-3, 1))
    # far from zero, rounding the nudged value moves it as much as the nudge
    scale = draw(st.sampled_from([1.0, 1e3, lr * 2**52, lr * 2**53]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.uniform(-scale, scale, size=(n, 1, d))
    ways = rng.normal(size=(n, m - 1, d))
    ways /= np.linalg.norm(ways, axis=-1, keepdims=True)
    far = lr * rng.choice(draw(st.sampled_from(_RIVAL_DISTANCES)), size=(n, m - 1, 1))
    values = np.concatenate([base, base + ways * far], axis=1)
    names = "abc"[:m]
    trace = make_trace(
        {name: values[:, j].tolist() for j, name in enumerate(names)}, [[0.0] * d] * n
    )
    bound = names[draw(st.integers(0, m - 1))]
    g = rng.normal(size=(blocks, n, d)) * 10.0 ** rng.integers(-6, 6, size=(blocks, n, d))
    if draw(st.booleans()):
        special = rng.random(g.shape) < 0.2
        g[special] = rng.choice(_SPECIAL_ROWS, size=int(special.sum()))
    old = None
    if draw(st.booleans()):
        # finite entries only, or NaN and infinite ones too
        entries = _OLD_ACC[: draw(st.sampled_from([3, len(_OLD_ACC)]))]
        old = rng.choice(entries, size=(int(rng.integers(1, 6)), d))
    return trace, bound, g, old, lr


@settings(max_examples=400, deadline=None)
@given(case=_vote_cases(), reset=st.booleans())
def test_a_settled_vote_keeps_the_binding(case, reset):
    """Wherever ``_settled`` holds, the vote that queries every nudged read
    keeps the binding, in ``_vote`` per block and in
    ``reassign_variables``; and both agree with that vote everywhere."""
    trace, bound, g, old, lr = case
    d = g.shape[-1]
    registry = standard_registry(trace.schema.variables, {"accel": d})
    ast = parse_program(f"(accel {bound})", registry, trace.schema)
    slot, = optimizer.rebindable_leaves(ast, trace.index)[1]
    # NaN and infinite rows make NumPy warn
    with np.errstate(all="ignore"):
        _check_votes(trace.index, ast, slot, g, old, lr, reset)


def _check_votes(index, ast, slot, g, old, lr, reset):
    nid, leaf, _, column = slot
    acc = optimizer._fold_slot(old, g * g, reset)
    want = [unpruned_vote(index, leaf, column, g[k], acc[k], lr) for k in range(len(g))]
    assert optimizer._vote(index, leaf, column, g, acc, lr).tolist() == want
    if _settled(index, slot, acc, lr):
        assert want == [column] * len(g)

    state = OptimizerState.fresh(ast, {}, OptimizeConfig(learning_rate=lr))
    if old is not None:
        state.slot_acc[nid] = old
    grads = _grads_for(slot_rows={nid: g[0]})
    got_ast, got_state, got = reassign_variables(ast, state, grads, index)
    want_ast, want_state, rebound = unpruned_reassign(ast, state, grads, index, {})
    assert (canonical_key(got_ast), got) == (canonical_key(want_ast), bool(rebound))
    assert _same_array_dicts(got_state.slot_acc, want_state.slot_acc)
    # the first block's accumulator is the one ``reassign_variables`` votes with
    if _settled(index, slot, acc[0], lr):
        assert not rebound


@pytest.fixture
def tails(passes):
    """Every pass over a stationary pair of one ``optimize`` call as
    (``execute`` calls before it, blocks, blocks accepted), each checked
    against the plain loop, and the trees ``execute`` ran, last."""
    return passes[1], passes[2]


def _ended_in_a_tail(tails) -> None:
    """No ``execute`` call came after the last pass over a stationary pair:
    it ended the call, and ``finish`` reuses the stationary iteration's
    result and gradient."""
    recorded, runs = tails
    assert len(runs) == recorded[-1][0]


def test_a_rounding_tie_can_hand_a_read_to_the_rival(tails):
    # a lies 2**-54 above b, half the spacing of floats in [0.5, 1): the
    # k-th iteration nudges the read of b to -0.9 / sqrt(k), strictly nearer
    # b for k = 1 and 2, but at k = 3 its distance to a rounds to its
    # distance to b, and the tie goes to a; so the pass over the stationary
    # first iteration accepts one block and the plain loop runs the third
    trace = make_trace({"a": [2.0**-54, 0.0], "b": [0.0, 0.0]}, [-5.0, 0.0])
    registry = standard_registry(trace.schema.variables, {"accel": 1})
    _both("(accel b)", registry, trace.schema, trace, OptimizeConfig(learning_rate=0.9))
    recorded, runs = tails
    assert recorded[0] == (1, optimizer.TOL_WINDOW, 1)
    assert [tree.root.children[0].name for tree in runs[:3]] == ["b", "b", "a"]


class TestStationaryTail:
    """A plain iteration that stops early, re-binds nothing and leaves every
    parameter's bytes as they were is repeated by every later one, up to
    the stagnation stop or the cap: a pass over it takes no ``execute``
    call, and a block whose vote re-binds ends the pass and runs in the
    plain loop.  Each case agrees with the plain loop."""

    @pytest.mark.parametrize(
        "trace, spec, plain",
        [
            # x re-binds to v on the first iteration; v has one rival, x,
            # 0.1 away, so no vote of the pass is settled, and each keeps v
            (_pendulum_trace(), ErrorSpec(), 2),
            # every vote is settled
            (_damped_trace(), ErrorSpec(max_step_error=0.01), 1),
        ],
        ids=["pendulum", "damped"],
    )
    def test_parameter_free_tree(self, trace, spec, plain, scalar_registry, scalar_schema, tails):
        out = _both("(accel x)", scalar_registry, scalar_schema, trace, OptimizeConfig(), spec)
        _ended_in_a_tail(tails)
        assert (out.stop, out.iterations) == ("stagnant", plain + optimizer.TOL_WINDOW)
        assert len(tails[1]) == plain

    def test_zero_parameter_gradient(self, scalar_registry, scalar_schema, tails):
        # v = 0 at step 1, so the parameter's gradient is 0; the read of v is
        # nudged away from x and keeps its binding
        out = _both(
            "(accel (scale 0.5 v))", scalar_registry, scalar_schema, _pendulum_trace(),
            OptimizeConfig(),
        )
        _ended_in_a_tail(tails)
        assert (out.stop, out.iterations) == ("stagnant", 11)

    def test_cap_inside_the_tail(self, scalar_registry, scalar_schema, tails):
        out = _both(
            "(accel x)", scalar_registry, scalar_schema, _damped_trace(),
            OptimizeConfig(max_opt_iters=5), ErrorSpec(max_step_error=0.01),
        )
        _ended_in_a_tail(tails)
        assert (out.stop, out.iterations) == ("cap", 5)
        assert tails[0] == [(1, 4, 4)]

    def _three_variables(self):
        # a leaf bound to c reads c = 0 and executes three steps; with a
        # learning rate of 1 the nudged reads vote (b, a, c) on the first
        # iteration, a tie, and (a, a, c) once the nudge has shrunk to
        # 1/sqrt(2)
        trace = make_trace(
            {"a": [0.7, 1.0, 10.0, 0.0], "b": [1.0, 5.0, -10.0, 0.0], "c": [0.0] * 4},
            [0.05, 0.05, 5.0, 0.0],
        )
        registry = standard_registry(trace.schema.variables, {"accel": 1})
        return _both(
            "(accel c)", registry, trace.schema, trace, OptimizeConfig(learning_rate=1.0),
            ErrorSpec(max_step_error=0.1),
        )

    def test_a_tail_vote_rebinds(self, tails):
        # a pass's nudges shrink as its accumulators grow, and with a third
        # variable a smaller nudge can win a vote that was a tie on the
        # stationary iteration
        out = self._three_variables()
        recorded, runs = tails
        # the first block of the first pass re-binds c to a, so the pass
        # accepts none and the plain loop runs that block: a second
        # ``execute`` of the stationary tree, then the tree bound to a
        assert recorded[0] == (1, optimizer.TOL_WINDOW, 0)
        assert runs[1] is runs[0] and runs[0].root.children[0] == VarLeaf("c", 1)
        assert runs[2].root.children[0] == VarLeaf("a", 1)
        assert out.rebinds > 1 and out.stop == "stagnant"

    def test_stagnant_when_the_tail_starts(self, tails):
        # after a pass's block re-binds, the plain loop goes on with the
        # stagnant count it had: the passes start at 0, 3, 6 and 9 stagnant
        # iterations, so each is sized to fewer blocks before the stop; the
        # last one's only block would re-bind, so the plain loop runs it, one
        # more ``execute``, and stops before its vote
        out = self._three_variables()
        recorded, runs = tails
        assert [blocks for _, blocks, _ in recorded] == [10, 7, 4, 1]
        assert len(runs) == recorded[-1][0] + 1
        assert out.stop == "stagnant"
