"""Shared fixtures and independent oracles for the test suite.

The reference evaluator here recomputes program execution with plain
per-step recursion, independently of the library's vectorised interpreter;
several suites use it as the ground truth.  ``eager_induce`` is the search
loop that optimises every proposal as soon as it is queued, the reference
for the deferred search in ``induce``.  ``sequential_optimize`` is the
optimiser loop that runs one ``execute``/``backward``/AdaGrad/re-binding
pass per iteration, with a nearest-variable query on every vote
(``unpruned_reassign``): the reference for the look-ahead blocks, the
settled votes and the stationary tail of ``optimize``.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
import pytest

from tracesynth import (
    OSCILLATOR,
    Candidate,
    ErrorSpec,
    OptimizedCandidate,
    OptimizerState,
    FunctionNode,
    ObservationTrace,
    ParamLeaf,
    ProgramAst,
    Registry,
    TraceSchema,
    TraceStep,
    VariableIndex,
    VarLeaf,
    adagrad_step,
    backward,
    canonical_key,
    complexity,
    execute,
    expand,
    expand_empty,
    leaves,
    matches_trace,
    optimizer,
    SecondOrderConfig,
    simulate_second_order,
    standard_registry,
)
from tracesynth.program import replace_node


def make_trace(
    var_values: dict[str, list],
    thetas: list,
    action: str | list[str] = "accel",
    actions: dict[str, int] | None = None,
) -> ObservationTrace:
    """Build a trace from per-variable value lists and per-step theta rows;
    ``action`` is the action name of every step, or a list of one per
    step."""
    names = sorted(var_values)
    length = len(thetas)
    variables = {}
    for name in names:
        rows = [np.atleast_1d(np.asarray(r, dtype=float)) for r in var_values[name]]
        assert len(rows) == length
        variables[name] = rows
    schema_vars = {name: variables[name][0].shape[0] for name in names}
    theta_rows = [np.atleast_1d(np.asarray(t, dtype=float)) for t in thetas]
    action_names = [action] * length if isinstance(action, str) else action
    schema_actions = actions or {action_names[0]: theta_rows[0].shape[0]}
    steps = tuple(
        TraceStep(
            t=i + 1,
            vars={name: variables[name][i] for name in names},
            action_name=action_names[i],
            theta=theta_rows[i],
        )
        for i in range(length)
    )
    return ObservationTrace(TraceSchema(schema_vars, schema_actions), steps)


def eval_program_at(
    ast: ProgramAst,
    registry: Registry,
    params: dict[int, np.ndarray],
    var_values: dict[str, np.ndarray],
    override: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Reference recursive evaluation at a single timestep.

    ``override`` replaces the value read by the variable leaf with the given
    preorder node id, enabling finite differences of a single read.
    """
    override = override or {}
    counter = [0]

    def ev(node):
        nid = counter[0]
        counter[0] += 1
        if isinstance(node, ParamLeaf):
            return np.asarray(params[node.pid], dtype=float)
        if isinstance(node, VarLeaf):
            if nid in override:
                return np.asarray(override[nid], dtype=float)
            return np.asarray(var_values[node.name], dtype=float)
        # every application, the root action included, applies its entry
        args = [ev(c).reshape(1, -1) for c in node.children]
        return registry.spec(node.name).impl(*args)[0]

    return ev(ast.root)


def reference_loss(
    ast: ProgramAst,
    registry: Registry,
    params: dict[int, np.ndarray],
    trace: ObservationTrace,
    spec: ErrorSpec,
    override: tuple[int, int, np.ndarray] | None = None,
) -> float:
    """Reference step-by-step loss with early termination.

    ``override`` = (timestep, leaf node id, value) perturbs one variable
    read at one step.
    """
    total = 0.0
    for step in trace.steps:
        ov = None
        if override is not None and override[0] == step.t:
            ov = {override[1]: override[2]}
        theta_hat = eval_program_at(ast, registry, params, step.vars, ov)
        if step.action_name != ast.root.name:
            # the flat penalty alone: the error model compares one action's
            # parameters only with the same action's
            err = spec.max_step_error + 1.0
        else:
            err = float(spec.act_error(theta_hat.reshape(1, -1), step.theta.reshape(1, -1))[0])
        total += err
        if err > spec.max_step_error:
            break
    return total


def mixed_action_case() -> tuple[Registry, ObservationTrace]:
    """A registry and a trace that records two actions: accel = 2x, then
    brake at step 3, then accel again."""
    registry = standard_registry({"x": 1}, {"accel": 1, "brake": 1})
    trace = make_trace(
        {"x": [0.5, 1.0, 1.5, 2.0]},
        [1.0, 2.0, 0.0, 4.0],
        action=["accel", "accel", "brake", "accel"],
        actions={"accel": 1, "brake": 1},
    )
    return registry, trace


def mixed_dimension_case() -> tuple[Registry, ObservationTrace]:
    """A registry and a trace with actions of two dimensions: accel (dim 1)
    at steps 1-2 and turn (dim 2) at steps 3-4; brake is declared and
    never observed."""
    actions = {"accel": 1, "turn": 2, "brake": 1}
    registry = standard_registry({"x": 1, "p": 2}, actions)
    trace = make_trace(
        {"x": [0.5, 1.0, 1.5, 2.0], "p": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]]},
        [[1.1], [2.0], [1.0, 1.2], [2.0, 2.0]],
        action=["accel", "accel", "turn", "turn"],
        actions=actions,
    )
    return registry, trace


def joined_oscillator_trace() -> ObservationTrace:
    """Two 100-step runs of the damped oscillator (k1=-4, k2=-0.25) as one
    trace: the default ``OSCILLATOR``, then a kicked run from x=-0.5,
    v=3, with ``t`` running on from 101 to 200."""
    kicked = SecondOrderConfig(k1=-4.0, k2=-0.25, x0=-0.5, v0=3.0, dt=0.01, steps=100)
    first, second = simulate_second_order(OSCILLATOR), simulate_second_order(kicked)
    steps = [
        TraceStep(t, step.vars, step.action_name, step.theta)
        for t, step in enumerate(first.steps + second.steps, start=1)
    ]
    return ObservationTrace(first.schema, tuple(steps))


def planar_trace() -> ObservationTrace:
    """A planar oscillator: ``p`` and ``v`` of dimension 2 from
    p0=(1, -0.5), v0=(0.3, 2.0), and the action ``accel2 = -4p - 0.25v``,
    integrated by semi-implicit Euler as in ``simulate_second_order``
    (dt 0.01, 200 steps)."""
    p, v = np.array([1.0, -0.5]), np.array([0.3, 2.0])
    steps = []
    for t in range(1, 201):
        theta = -4.0 * p - 0.25 * v
        steps.append(TraceStep(t, {"p": p, "v": v}, "accel2", theta))
        v = v + theta * 0.01
        p = p + v * 0.01
    return ObservationTrace(TraceSchema({"p": 2, "v": 2}, {"accel2": 2}), tuple(steps))


def eager_induce(trace, registry, config):
    """Reference search: ``induce`` as it was before proposals were deferred,
    optimising each one when it is queued.  Returns the solution (or None),
    the top-k candidates, the iteration count and the ``(structure key,
    leaf rank)`` of every popped candidate.  Calls ``optimizer.optimize``
    through the module, so a test can count its calls."""
    spec = config.error_spec()
    heap, counter, visited, scored, pops = [], itertools.count(), set(), {}, []

    def push(cand, leaf_rank=0):
        heapq.heappush(heap, (cand.score, cand.complexity, next(counter), cand, leaf_rank))

    def run_batch(protos):
        for proto in sorted(protos, key=lambda p: p.key):
            if proto.key in visited:
                continue
            visited.add(proto.key)
            opt = optimizer.optimize(
                proto.ast, proto.params, trace, registry, spec, config.optimize_config()
            )
            cost, loss = complexity(opt.ast, config.weights), opt.result.loss
            cand = Candidate(
                opt=opt,
                loss=loss,
                complexity=cost,
                score=cost + loss,
                key=canonical_key(opt.ast),
                parent_key=proto.site.parent_key,
                expansion_leaf=proto.site.leaf_id,
                seed=proto.seed,
            )
            prev = scored.get(cand.key)
            if prev is None or (cand.score, cand.complexity) < (prev.score, prev.complexity):
                scored[cand.key] = cand
            push(cand)

    run_batch(expand_empty(registry, trace.schema, config.seed))
    iterations, solution = 0, None
    while heap and iterations < config.max_iterations:
        *_, cand, leaf_rank = heapq.heappop(heap)
        iterations += 1
        pops.append((cand.key, leaf_rank))
        if matches_trace(cand.opt.result):
            solution = cand
            break
        run_batch(expand(cand, registry, trace, config.seed, leaf_rank))
        if leaf_rank == 0 and len(leaves(cand.ast)) > 1:
            push(cand, 1)
    top = sorted(scored.values(), key=lambda c: (c.score, c.complexity, c.key))
    return solution, tuple(top[: config.top_k]), iterations, pops


def unpruned_vote(index, leaf, column, g, acc, learning_rate) -> int:
    """The column of ``index.names[leaf.dim]`` that the executed reads'
    gradients ``g`` and accumulators ``acc``, both (n, d), vote a leaf
    bound to ``column`` to, querying ``index.query_steps`` whatever the
    distances.  Each read is nudged by ``lr * g / sqrt(acc + DIV_GUARD)``;
    a variable other than the bound one must win a strict majority of the
    nearest-variable votes, and an all-zero gradient keeps the binding."""
    if not g.any():
        return column
    n = g.shape[0]
    step = learning_rate * g / np.sqrt(acc + optimizer.DIV_GUARD)
    nearest = index.query_steps(leaf.dim, index.values[leaf.dim][:n, column] - step)
    votes = np.bincount(nearest, minlength=len(index.names[leaf.dim]))
    winner = int(votes.argmax())
    return winner if (votes == votes[winner]).sum() == 1 else column


def unpruned_reassign(ast, state, grads, index, trees):
    """``reassign_variables`` written from its docstring, with
    ``unpruned_vote``.  Each slot's accumulator adds the squares of its
    read gradients over the executed rows and keeps its rows past them.
    Any re-binding resets every accumulator; ``trees`` maps a tree's
    canonical key to the first tree built with it."""
    _, slots = optimizer.rebindable_leaves(ast, index)
    slot_acc = dict(state.slot_acc)
    renames = {}
    for nid, leaf, names, column in slots:
        g = grads.slot_reads.get(nid)
        if g is None:
            continue
        n = g.shape[0]
        acc = slot_acc.get(nid, np.zeros((0, leaf.dim)))
        acc = np.concatenate([acc, np.zeros((max(0, n - len(acc)), leaf.dim))])
        acc[:n] = g * g + acc[:n]
        slot_acc[nid] = acc
        winner = unpruned_vote(index, leaf, column, g, acc[:n], state.learning_rate)
        if winner != column:
            renames[nid] = VarLeaf(names[winner], leaf.dim)
    if not renames:
        return ast, OptimizerState(state.params, state.param_acc, slot_acc, state.learning_rate), 0
    for nid, leaf in renames.items():
        ast = replace_node(ast, nid, leaf)
    ast = trees.setdefault(canonical_key(ast), ast)
    return ast, OptimizerState(state.params, {}, {}, state.learning_rate), 1


def sequential_optimize(ast, params, trace, registry, spec, config):
    """Reference optimiser: the loop of ``optimize`` as it was before
    look-ahead blocks, one ``execute``, ``backward``, ``adagrad_step`` and
    ``unpruned_reassign`` per iteration.  Returns the
    ``OptimizedCandidate`` that ``optimize`` must return bit for bit."""
    state = OptimizerState.fresh(ast, params, config)
    binding, slots = optimizer.rebindable_leaves(ast, trace.index)
    free = len(binding) < len(leaves(ast)) or bool(slots)
    trees, best, stagnant, iterations, rebinds, stop = {}, None, 0, 0, 0, "cap"
    for _ in range(max(1, config.max_opt_iters)):
        result = execute(ast, state.params, trace, registry, spec)
        iterations += 1
        matched = matches_trace(result)
        key = (0 if matched else 1, -result.executed_len, result.loss)
        if best is None or key < best[0]:
            if best is not None and key[:2] == best[0][:2]:
                rel = (best[0][2] - result.loss) / max(abs(best[0][2]), 1e-300)
                stagnant = 0 if rel >= optimizer.TOL else stagnant + 1
            else:
                stagnant = 0
            best = (key, ast, dict(state.params), result)
        else:
            stagnant += 1
        if matched or not free or stagnant >= optimizer.TOL_WINDOW:
            stop = "matched" if matched else "fixed" if not free else "stagnant"
            break
        grads = backward(result, spec)
        state = adagrad_step(state, grads)
        ast, state, rebound = unpruned_reassign(ast, state, grads, trace.index, trees)
        rebinds += rebound
    _, best_ast, best_params, best_result = best
    grads = backward(best_result, spec)
    return OptimizedCandidate(
        best_ast, best_params, best_result, grads, iterations, rebinds, stop
    )


def _same_arrays(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_array_dicts(a, b) -> bool:
    return a.keys() == b.keys() and all(_same_arrays(a[k], b[k]) for k in a)


def assert_same_optimum(got, want) -> None:
    """``got`` and ``want`` are the same ``OptimizedCandidate`` bit for bit:
    tree, parameter bytes, every field of the execution result, gradients,
    iteration and re-binding counts and stop reason."""
    assert got.ast == want.ast
    assert _same_array_dicts(got.params, want.params)
    g, w = got.result, want.result
    assert g.tape == w.tape
    for name in ("observed_len", "executed_len", "terminated_early"):
        assert getattr(g, name) == getattr(w, name), name
    for name in ("loss", "theta_obs", "step_errors"):
        assert _same_arrays(getattr(g, name), getattr(w, name)), name
    assert len(g.activations) == len(w.activations)
    assert all(_same_arrays(a, b) for a, b in zip(g.activations, w.activations))
    for name in ("params", "slot_reads"):
        assert _same_array_dicts(getattr(got.grads, name), getattr(want.grads, name)), name
    assert (got.iterations, got.rebinds, got.stop) == (want.iterations, want.rebinds, want.stop)


@pytest.fixture
def index_builds(monkeypatch) -> list[VariableIndex]:
    """Every ``VariableIndex`` constructed while the test runs."""
    built = []
    init = VariableIndex.__init__

    def counting(self, trace):
        built.append(self)
        init(self, trace)

    monkeypatch.setattr(VariableIndex, "__init__", counting)
    return built


@pytest.fixture
def scalar_registry() -> Registry:
    return standard_registry({"x": 1, "v": 1}, {"accel": 1})


@pytest.fixture
def scalar_schema() -> TraceSchema:
    return TraceSchema({"x": 1, "v": 1}, {"accel": 1})
