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
    gradient rows.  All accumulators reset to zero whenever any variable
    leaf is rebound.
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
            param_acc={k: np.zeros_like(np.asarray(v, dtype=float)) for k, v in params.items()},
            slot_acc={},
            learning_rate=config.learning_rate,
            div_guard=config.div_guard,
        )


def adagrad_step(state: OptimizerState, grads: Gradients) -> OptimizerState:
    """One AdaGrad update of all parameters; returns a new state."""
    params = dict(state.params)
    acc = dict(state.param_acc)
    for pid, g in grads.params.items():
        acc[pid] = acc[pid] + g * g
        params[pid] = params[pid] - state.learning_rate * g / np.sqrt(acc[pid] + state.div_guard)
    return OptimizerState(
        params, acc, state.slot_acc, state.learning_rate, state.div_guard, state.iteration + 1
    )


def reassign_variables(
    ast: ProgramAst,
    state: OptimizerState,
    grads: Gradients,
    index: VariableIndex,
    trace: ObservationTrace,
) -> tuple[ProgramAst, OptimizerState, bool]:
    """Gradient-guided rebinding of variable leaves.

    Every executed read of a variable leaf is relaxed into a virtual value
    nudged against that read's gradient with an AdaGrad-scaled step (one
    squared-gradient accumulator per read time), and the nearest variable of
    the same dimension is looked up per timestep.  A variable that wins a
    strict majority of the steps replaces the current one; ties keep the
    current binding.  Any rebinding resets all accumulators.
    """
    slot_acc = dict(state.slot_acc)
    renames: dict[int, VarLeaf] = {}
    for nid, leaf in leaves(ast):
        if not isinstance(leaf, VarLeaf) or nid not in grads.slot_reads:
            continue
        names = index.names.get(leaf.dim, ())
        if len(names) < 2:
            continue
        g_rows = grads.slot_reads[nid]
        n = g_rows.shape[0]
        acc = slot_acc.get(nid)
        if acc is None or acc.shape[0] < n:
            grown = np.zeros_like(g_rows)
            if acc is not None:
                grown[: acc.shape[0]] = acc
            acc = grown
        acc = acc.copy()
        acc[:n] += g_rows * g_rows
        slot_acc[nid] = acc
        if not g_rows.any():
            # zero gradient leaves every virtual read at the variable itself
            continue
        values = index.values[leaf.dim][:n, names.index(leaf.name)]
        adjusted = values - state.learning_rate * g_rows / np.sqrt(acc[:n] + state.div_guard)
        # votes per variable; a handful of entries, so plain lists are cheapest
        votes = np.bincount(index.query_steps(leaf.dim, adjusted)).tolist()
        top = max(votes)
        if votes.count(top) == 1 and names[votes.index(top)] != leaf.name:
            renames[nid] = VarLeaf(names[votes.index(top)], leaf.dim)

    if not renames:
        kept = OptimizerState(
            state.params, state.param_acc, slot_acc, state.learning_rate, state.div_guard,
            state.iteration,
        )
        return ast, kept, False
    for nid, leaf in renames.items():
        ast = replace_node(ast, nid, leaf)
    reset = OptimizerState(
        state.params,
        {k: np.zeros_like(v) for k, v in state.param_acc.items()},
        {k: np.zeros_like(v) for k, v in slot_acc.items()},
        state.learning_rate,
        state.div_guard,
        state.iteration,
    )
    return ast, reset, True


@dataclass(frozen=True)
class OptimizedCandidate:
    """A structure with its best found parameters, bindings and score."""

    ast: ProgramAst
    params: dict[int, np.ndarray]
    result: ExecutionResult
    grads: Gradients


def _has_free_leaves(ast: ProgramAst, index: VariableIndex) -> bool:
    for _, leaf in leaves(ast):
        if not isinstance(leaf, VarLeaf):
            return True
        if len(index.names.get(leaf.dim, [])) > 1:
            return True
    return False


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
    """
    if index is None:
        index = build_variable_index(trace)
    state = OptimizerState.fresh(ast, params, config)
    # states at different executed lengths are incomparable (the loss sums
    # over more steps), so "best" prefers matching, then coverage, then loss
    best: tuple[tuple[int, int, float], ProgramAst, dict[int, np.ndarray], ExecutionResult] | None
    best = None
    free = _has_free_leaves(ast, index)
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
        grads = backward(result, spec, registry)
        state = adagrad_step(state, grads)
        # a re-binding keeps every leaf's kind and dimension, so ``free`` holds
        ast, state, _ = reassign_variables(ast, state, grads, index, trace)

    assert best is not None
    _, best_ast, best_params, best_result = best
    grads = backward(best_result, spec, registry)
    return OptimizedCandidate(best_ast, best_params, best_result, grads)
