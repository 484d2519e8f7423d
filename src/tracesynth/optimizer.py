"""Gradient-descent step over a fixed program structure.

Parameters follow AdaGrad.  Variable leaves cannot follow a gradient
directly (they are symbols), so each leaf is relaxed per iteration into a
virtual per-read value nudged along its gradient; the nearest-variable index
then votes, over the executed timesteps, on which variable those nudged
values are closest to.  Winning a strict majority of steps rebinds the leaf
and resets all gradient history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Gradients, backward
from .interpreter import ErrorSpec, ExecutionResult, execute, matches_trace
from .program import ProgramAst, Registry, VarLeaf, leaves, replace_node
from .trace import ObservationTrace, VariableIndex, build_variable_index


@dataclass(frozen=True)
class OptimizeConfig:
    learning_rate: float = 0.2
    div_guard: float = 1e-8  # added under the square root of the accumulator
    max_opt_iters: int = 1500
    tol: float = 1e-9  # relative loss improvement considered stagnant
    tol_window: int = 10  # consecutive stagnant iterations before stopping


@dataclass
class OptimizerState:
    """Mutable per-candidate optimisation state.

    ``param_acc`` holds the AdaGrad sums of squared gradients per parameter;
    ``slot_acc`` holds one accumulator per variable-leaf read time (each read
    is relaxed into its own temporary value), shaped like the per-read
    gradient rows.  An absent entry means an accumulator of zeros, so a
    fresh state and a state reset by a re-binding hold empty dicts.
    """

    params: dict[int, np.ndarray]
    param_acc: dict[int, np.ndarray]
    slot_acc: dict[int, np.ndarray]
    learning_rate: float
    div_guard: float
    iteration: int = 0

    @classmethod
    def fresh(
        cls, ast: ProgramAst, params: dict[int, np.ndarray], config: OptimizeConfig
    ) -> "OptimizerState":
        return cls(
            params={k: np.asarray(v, dtype=float).copy() for k, v in params.items()},
            param_acc={},
            slot_acc={},
            learning_rate=config.learning_rate,
            div_guard=config.div_guard,
        )


def adagrad_step(state: OptimizerState, grads: Gradients) -> OptimizerState:
    """One AdaGrad update of all parameters; returns a new state."""
    params = dict(state.params)
    acc = dict(state.param_acc)
    for pid, g in grads.params.items():
        # an absent accumulator is zero, and 0.0 + x == x bit for bit
        total = g * g if pid not in acc else acc[pid] + g * g
        acc[pid] = total
        params[pid] = params[pid] - state.learning_rate * g / np.sqrt(total + state.div_guard)
    return OptimizerState(
        params, acc, state.slot_acc, state.learning_rate, state.div_guard, state.iteration + 1
    )


Binding = tuple[str, ...]  # variable names at a tree's variable leaves, preorder
RebindSlot = tuple[int, VarLeaf, list[str], int]  # nid, leaf, candidates, column


def rebindable_leaves(ast: ProgramAst, index: VariableIndex) -> tuple[Binding, list[RebindSlot]]:
    """The tree's binding and, for every variable leaf with more than one
    candidate of its dimension, ``(node id, leaf, candidate names, column of
    the bound name)``.  Memoised on the immutable tree for the most recent
    index."""
    cached = ast.__dict__.get("_rebind_cache")
    if cached is not None and cached[0] is index:
        return cached[1], cached[2]
    var_leaves = [(nid, leaf) for nid, leaf in leaves(ast) if isinstance(leaf, VarLeaf)]
    binding = tuple(leaf.name for _, leaf in var_leaves)
    slots = []
    for nid, leaf in var_leaves:
        names = index.names.get(leaf.dim, [])
        if len(names) > 1:
            slots.append((nid, leaf, names, names.index(leaf.name)))
    object.__setattr__(ast, "_rebind_cache", (index, binding, slots))
    return binding, slots


def reassign_variables(
    ast: ProgramAst,
    state: OptimizerState,
    grads: Gradients,
    index: VariableIndex,
    trees: dict[Binding, ProgramAst] | None = None,
) -> tuple[ProgramAst, OptimizerState, bool]:
    """Gradient-guided rebinding of variable leaves.

    Every executed read of a variable leaf is relaxed into a virtual value
    nudged against that read's gradient with an AdaGrad-scaled step (one
    squared-gradient accumulator per read time), and the nearest variable of
    the same dimension is looked up per timestep.  A variable that wins a
    strict majority of the steps replaces the current one; ties keep the
    current binding.  Any rebinding resets all accumulators.

    ``trees`` is the tree table of one structure, keyed by binding (see
    ``rebindable_leaves``).  A re-binding returns the table's tree for the
    new binding and builds it with ``replace_node`` only if it is absent;
    the current tree is entered too, so flipping a leaf back returns the
    very same object.  Without a table every re-binding builds a new tree.
    """
    binding, slots = rebindable_leaves(ast, index)
    slot_acc = dict(state.slot_acc)
    renames: dict[int, VarLeaf] = {}
    for nid, leaf, names, column in slots:
        g_rows = grads.slot_reads.get(nid)
        if g_rows is None:
            continue
        n = g_rows.shape[0]
        # a fresh array; an absent accumulator is zero
        acc = g_rows * g_rows
        old = slot_acc.get(nid)
        if old is not None:
            if old.shape[0] <= n:
                acc[: old.shape[0]] += old
            else:
                # keep the rows past the executed prefix for when it grows
                old = old.copy()
                old[:n] += acc
                acc = old
        slot_acc[nid] = acc
        if not g_rows.any():
            # zero gradient leaves every virtual read at the variable itself
            continue
        values = index.values[leaf.dim][:n, column]
        adjusted = values - state.learning_rate * g_rows / np.sqrt(acc[:n] + state.div_guard)
        # votes per variable; a handful of entries, so plain lists are cheapest
        votes = np.bincount(index.query_steps(leaf.dim, adjusted)).tolist()
        top = max(votes)
        winner = votes.index(top)
        if winner != column and votes.count(top) == 1:
            renames[nid] = VarLeaf(names[winner], leaf.dim)

    if not renames:
        kept = OptimizerState(
            state.params, state.param_acc, slot_acc, state.learning_rate, state.div_guard,
            state.iteration,
        )
        return ast, kept, False
    trees = {} if trees is None else trees
    trees.setdefault(binding, ast)
    new_binding = tuple(
        renames.get(nid, leaf).name for nid, leaf in leaves(ast) if isinstance(leaf, VarLeaf)
    )
    rebound = trees.get(new_binding)
    if rebound is None:
        rebound = ast
        for nid, leaf in renames.items():
            rebound = replace_node(rebound, nid, leaf)
        trees[new_binding] = rebound
    reset = OptimizerState(
        state.params, {}, {}, state.learning_rate, state.div_guard, state.iteration
    )
    return rebound, reset, True


@dataclass(frozen=True)
class OptimizedCandidate:
    """A structure with its best found parameters, bindings and score."""

    ast: ProgramAst
    params: dict[int, np.ndarray]
    result: ExecutionResult
    grads: Gradients


def optimize(
    ast: ProgramAst,
    params: dict[int, np.ndarray],
    trace: ObservationTrace,
    registry: Registry,
    spec: ErrorSpec = ErrorSpec(),
    config: OptimizeConfig = OptimizeConfig(),
    index: VariableIndex | None = None,
) -> OptimizedCandidate:
    """Alternate forward, backward, AdaGrad and variable rebinding until the
    execution matches the trace, the loss stagnates, or the iteration cap is
    reached.  Returns the best-loss state seen (gradient steps can overshoot
    near the acceptance threshold).

    The call keeps a tree table, binding -> tree, that it passes to every
    ``reassign_variables``: each binding the leaves take is built, and its
    tape lowered, once per call.  The table is local and is dropped on
    return.
    """
    if index is None:
        index = build_variable_index(trace)
    state = OptimizerState.fresh(ast, params, config)
    # states at different executed lengths are incomparable (the loss sums
    # over more steps), so "best" prefers matching, then coverage, then loss
    best: tuple[tuple[int, int, float], ProgramAst, dict[int, np.ndarray], ExecutionResult] | None
    best = None
    binding, slots = rebindable_leaves(ast, index)
    # a parameter leaf or a variable leaf with a rival of its dimension
    free = len(binding) < len(leaves(ast)) or bool(slots)
    trees: dict[Binding, ProgramAst] = {}
    stagnant = 0
    for _ in range(max(1, config.max_opt_iters)):
        result = execute(ast, state.params, trace, registry, spec)
        matched = matches_trace(result, spec)
        key = (0 if matched else 1, -result.executed_len, result.loss)
        if best is None or key < best[0]:
            # a sub-tolerance loss improvement still updates the best state
            # but does not count as progress for the stagnation stop
            if best is not None and key[:2] == best[0][:2]:
                rel = (best[0][2] - result.loss) / max(abs(best[0][2]), 1e-300)
                stagnant = 0 if rel >= config.tol else stagnant + 1
            else:
                stagnant = 0
            # adagrad_step never updates parameter arrays in place
            best = (key, ast, dict(state.params), result)
        else:
            stagnant += 1
        if matched or not free or stagnant >= config.tol_window:
            break
        grads = backward(result, spec)
        state = adagrad_step(state, grads)
        # a re-binding keeps every leaf's kind and dimension, so ``free`` holds
        ast, state, _ = reassign_variables(ast, state, grads, index, trees)

    assert best is not None
    _, best_ast, best_params, best_result = best
    grads = backward(best_result, spec)
    return OptimizedCandidate(best_ast, best_params, best_result, grads)
