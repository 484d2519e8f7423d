"""The tape of a program: lower it, run it against a trace, accumulate the
action-error loss, stop early when a step exceeds the error threshold, and
back-propagate the loss through the same tape.

A program here is a per-step policy: the action expression is re-evaluated
at every timestep with the variable leaves re-read from that step's memory.
Because steps do not feed state to each other, the whole trace is evaluated
in one vectorised pass and truncated at the first offending step; the result
is identical to step-by-step execution.

Each structure is compiled once per registry into a postorder tape (a
Wengert list): one op per node, children before parents; every application,
the root action's included, is a call of its registry entry.  The tape is
run by two row-level steps.  ``evaluate_rows`` is one loop over the tape
that keeps every op's values, each row's action error and the row targets.
``row_gradients`` seeds one upstream row per row from the action-error
derivative and runs ``backprop``, the reverse loop over those values, which
applies each call's vector-Jacobian product to the stored activations of its
arguments; every node of a tree has one parent, so each op receives its
upstream gradient exactly once before it is visited.  Rows are independent
of each other, so ``execute`` and ``backward`` run the two steps over the
timesteps of one execution, and the optimiser runs them over K stacked
copies of the executed steps under K parameter settings.  ``evaluate_step``
is a separate plain recursion over the tree, kept as an independent check.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .program import (
    Impl,
    ParamLeaf,
    ProgramAst,
    ProgramError,
    Registry,
    VarLeaf,
    Vjp,
)
from .trace import MemoryState, ObservationTrace, distances


class EvaluationError(ProgramError):
    """Program cannot be evaluated against the given bindings."""


# ---------------------------------------------------------------------------
# error model


@np.errstate(over="ignore", invalid="ignore")
def euclidean_error_grad(theta_hat: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """d(error)/d(theta_hat), rows (theta_hat-theta)/||.||; the zero
    subgradient is used where the norm vanishes.  Where ``distances`` is inf
    but the difference is finite, the difference is scaled by its largest
    magnitude before it is normalised, so the row is still a unit vector;
    it is NaN only where the difference itself is inf, without a warning."""
    diff = theta_hat - theta
    norm = distances(theta_hat, theta, keepdims=True)
    grad = np.divide(diff, norm, out=np.zeros(diff.shape), where=norm > 0.0)
    # a norm is >= 0 or NaN, and fmax passes over NaN
    if np.fmax.reduce(norm, axis=None, initial=0.0) == np.inf:
        # the square of a distance from about 1.34e154 up overflows
        scaled = diff / np.abs(diff).max(axis=-1, keepdims=True)
        far = np.isinf(norm) & np.isfinite(diff).all(axis=-1, keepdims=True)
        grad = np.where(far, scaled / distances(scaled, 0.0, keepdims=True), grad)
    return grad


@dataclass(frozen=True)
class ErrorSpec:
    """User-specified equivalence between executed and observed actions.

    ``act_error``/``act_error_grad`` operate on (n, D) arrays of predicted
    and observed action parameters, row by row, and each returns a new
    array, which the interpreter may overwrite; by default they are the
    Euclidean distance, ``trace.distances``, and its gradient.
    ``max_step_error`` is the per-step threshold above which execution
    terminates.  A step whose observed action has another name than the
    program's root action has a NaN target row
    (``ObservationTrace.action_targets``): both functions see it, and
    ``evaluate_rows`` and ``row_gradients`` replace what they give there by
    the error ``max_step_error + 1`` and a zero gradient, so execution
    terminates at that step.  So ``max_step_error + 1`` must exceed
    ``max_step_error``: NaN, ±inf and magnitudes from 2**53 up raise
    ``ValueError``.

    The loss of an execution is the sum of its step errors (``prefix_sums``).
    Contract: ``act_error`` is never negative, so a loss is never negative
    and a program's complexity is a lower bound on its search score.  The
    search runs only ``RunConfig``'s two models, which keep this; a custom
    ``ErrorSpec`` reaches only ``execute``, ``backward`` and ``optimize``.  A
    NaN step error is ``+inf``: it ends execution at that step and makes the
    loss ``+inf``.
    """

    act_error: Callable[[np.ndarray, np.ndarray], np.ndarray] = distances
    act_error_grad: Callable[[np.ndarray, np.ndarray], np.ndarray] = euclidean_error_grad
    max_step_error: float = 0.05

    def __post_init__(self) -> None:
        # in floats, as the error arrays hold it: an int compares exactly
        try:
            x = float(self.max_step_error)
        except OverflowError:  # an int too large for a float
            x = math.inf
        if not x + 1.0 > x:
            raise ValueError(f"max_step_error must be finite with magnitude below 2**53, not {x!r}")


def discretized_error_spec(deadband: float, max_step_error: float) -> ErrorSpec:
    """Error model for traces whose actions are discretised to {-1, 0, +1}
    by a deadband rule.

    The per-step error is the distance from the predicted value to the
    region that discretises to the observed class (componentwise), plus
    ``max_step_error + 1`` where ``discretize_actions`` puts the prediction
    in another class, as on the ±deadband boundary, whose distance is 0.
    A step within ``max_step_error`` is therefore correctly classified.
    Correctly classified steps contribute no gradient, and every
    misclassified step, the boundary included, pulls with unit slope
    toward its class region.

    A correctly classified step has error 0 and a misclassified one more
    than ``max_step_error``, so a program matches the trace exactly when it
    classifies every step right, whatever the threshold: ``max_step_error``
    only sets the size of the misclassification penalty.
    """

    def err(theta_hat: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # distance below the +deadband boundary (theta=+1), above the
        # -deadband boundary (theta=-1), or outside the deadband (theta=0)
        gap_pos = np.maximum(0.0, deadband - theta_hat)
        gap_neg = np.maximum(0.0, theta_hat + deadband)
        gap_zero = np.maximum(0.0, np.abs(theta_hat) - deadband)
        gap = np.where(theta > 0.5, gap_pos, np.where(theta < -0.5, gap_neg, gap_zero))
        # the observed class is theta's sign where |theta| > 0.5, as above
        wrong = discretize_actions(theta_hat, deadband) != discretize_actions(theta, 0.5)
        return gap.sum(axis=1) + np.where(wrong.any(axis=1), max_step_error + 1.0, 0.0)

    def err_grad(theta_hat: np.ndarray, theta: np.ndarray) -> np.ndarray:
        grad_pos = np.where(theta_hat <= deadband, -1.0, 0.0)
        grad_neg = np.where(theta_hat >= -deadband, 1.0, 0.0)
        grad_zero = np.where(np.abs(theta_hat) > deadband, np.sign(theta_hat), 0.0)
        return np.where(theta > 0.5, grad_pos, np.where(theta < -0.5, grad_neg, grad_zero))

    return ErrorSpec(err, err_grad, max_step_error)


def discretize_actions(theta: np.ndarray, deadband: float) -> np.ndarray:
    """Map continuous action parameters to {-1, 0, +1} with a deadband."""
    out = np.sign(theta)
    out[np.abs(theta) <= deadband] = 0.0
    return out


# ---------------------------------------------------------------------------
# tape


PARAM, VAR, CALL = "param", "var", "call"


class Op(NamedTuple):
    """One node of a program lowered to a tape.

    ``args`` are the tape positions of the node's children.  ``key`` is the
    parameter id of a param op, the variable name of a var op and the
    function or action name otherwise; call ops, the root action's included,
    carry the registry's bound ``impl`` and ``vjp``, copied from the entry's
    :class:`FunctionSpec` when the tape is compiled.
    """

    kind: str
    node_id: int  # preorder index, the slot id used by leaves()
    dim: int
    args: tuple[int, ...]
    key: int | str
    impl: Impl | None
    vjp: Vjp | None


Tape = tuple[Op, ...]


def compile_tape(ast: ProgramAst, registry: Registry) -> Tape:
    """Lower a program to its postorder tape: every child precedes its
    parent and the root action is last.  Memoised on the immutable tree for
    the most recent registry."""
    cached = ast.__dict__.get("_tape_cache")
    if cached is not None and cached[0] is registry:
        return cached[1]
    ops: list[Op] = []
    ids = itertools.count()

    def lower(node) -> int:
        nid = next(ids)
        if isinstance(node, ParamLeaf):
            ops.append(Op(PARAM, nid, node.dim, (), node.pid, None, None))
        elif isinstance(node, VarLeaf):
            ops.append(Op(VAR, nid, node.dim, (), node.name, None, None))
        else:
            args = tuple(lower(child) for child in node.children)
            fn = registry.spec(node.name)
            ops.append(Op(CALL, nid, node.dim, args, fn.name, fn.impl, fn.vjp))
        return len(ops) - 1

    lower(ast.root)
    tape = tuple(ops)
    object.__setattr__(ast, "_tape_cache", (registry, tape))
    return tape


class ExecutionResult(NamedTuple):
    """Outcome of executing a program against a trace.

    ``activations`` holds the value of every tape op, in tape order, over
    every step of the trace: ``execute`` evaluates all steps before it
    finds where execution stops, so only the first ``executed_len`` rows
    belong to the execution.  ``backward`` reads those rows.  A step of
    another action than the root's has a NaN row in ``theta_obs``, and can
    only be the last executed step.
    """

    theta_obs: np.ndarray  # (T', D) observed targets over the executed prefix
    step_errors: np.ndarray  # (T',) per-step errors, never NaN
    loss: float
    observed_len: int
    executed_len: int
    terminated_early: bool
    tape: Tape
    activations: tuple[np.ndarray, ...]


# ---------------------------------------------------------------------------
# evaluation


def evaluate_step(
    ast: ProgramAst, registry: Registry, memory: MemoryState
) -> tuple[str, np.ndarray]:
    """Evaluate the program once against a single memory state by plain
    recursion, independently of the tape, applying each registry ``impl``,
    the root action's included, to one row.

    Returns the action name and its parameter vector.
    """

    def ev(node) -> np.ndarray:
        if isinstance(node, ParamLeaf):
            if node.pid not in memory.params:
                raise EvaluationError(f"unbound parameter p{node.pid}")
            return np.asarray(memory.params[node.pid], dtype=float).reshape(-1)
        if isinstance(node, VarLeaf):
            return np.asarray(memory.variables[node.name], dtype=float).reshape(-1)
        return registry.spec(node.name).impl(*[ev(c).reshape(1, -1) for c in node.children])[0]

    return ast.root.name, ev(ast.root)


@np.errstate(over="ignore", invalid="ignore")
def evaluate_rows(
    ast: ProgramAst,
    params: Mapping[int, np.ndarray],
    trace: ObservationTrace,
    registry: Registry,
    spec: ErrorSpec,
    steps: np.ndarray | None = None,
) -> tuple[Tape, list[np.ndarray], np.ndarray, np.ndarray]:
    """The program's tape over rows of trace steps: one loop over the tape,
    then each row's error against the targets of
    ``ObservationTrace.action_targets``.  This is the one place that
    decides a step's error: the error model's on every row, then
    ``max_step_error + 1`` on a row whose target is NaN (its observed action
    has another name than the root's), then ``+inf`` where the error is NaN.

    Returns the tape, every op's (rows, dim) values in tape order, the
    (rows,) errors and the (rows, D) row targets.  ``steps`` holds the
    0-based trace step of each row; None is every step in trace order,
    whose variable values are the trace's own read-only arrays.
    ``params[pid]`` is broadcast to (rows, dim): one vector for every row,
    or one vector per row.  Registry functions and both error models treat
    rows independently, so the rows may be the timesteps of one execution
    or K blocks of the same timesteps under K parameter settings.  Overflow
    gives inf or NaN without a warning, and ends ``execute`` at that step.
    """
    tape = compile_tape(ast, registry)
    rows = trace.length if steps is None else len(steps)
    values: list[np.ndarray] = []
    for kind, _, dim, args, key, impl, _ in tape:
        if kind is VAR:
            column = trace.var_matrix(key)
            values.append(column if steps is None else column.take(steps, axis=0))
        elif kind is PARAM:
            if key not in params:
                raise EvaluationError(f"unbound parameter p{key}")
            column = np.empty((rows, dim))
            column[:] = params[key]
            values.append(column)
        else:
            values.append(impl(*[values[i] for i in args]))
    out, root = values[-1], tape[-1]
    theta_obs = trace.action_targets(root.key, root.dim)
    if steps is not None:
        theta_obs = theta_obs.take(steps, axis=0)
    errors = spec.act_error(out, theta_obs)
    errors[np.isnan(theta_obs[:, 0])] = spec.max_step_error + 1.0
    # fmin takes the number where the other operand is NaN
    np.fmin(errors, np.inf, out=errors)
    return tape, values, errors, theta_obs


def prefix_sums(rows: np.ndarray, n: int) -> np.ndarray:
    """The sum of the first n steps of (..., steps, d) ``rows``: every loss
    and parameter gradient of ``execute``, ``backward`` and the look-ahead's
    blocks, which therefore agree bit for bit."""
    return np.add.reduce(rows[..., :n, :], axis=-2)


def execute(
    ast: ProgramAst,
    params: Mapping[int, np.ndarray],
    trace: ObservationTrace,
    registry: Registry,
    spec: ErrorSpec = ErrorSpec(),
) -> ExecutionResult:
    """Run the program once per timestep in trace order.

    After each step t the per-step error of ``evaluate_rows`` is computed
    from the predicted and observed action; execution stops after the first
    step whose error exceeds ``spec.max_step_error`` (that step's error is
    included in the loss).  The loss is the sum of per-step errors over the
    executed prefix; errors are never NaN, so neither is the loss.
    """
    tape, values, errors, theta_obs = evaluate_rows(ast, params, trace, registry, spec)
    T = trace.length

    over = (errors > spec.max_step_error).nonzero()[0]
    executed = int(over[0]) + 1 if over.size else T
    # a threshold cut at the final step still counts as termination
    terminated = over.size > 0

    loss = float(prefix_sums(errors[:, None], executed)[0])
    return ExecutionResult(
        theta_obs=theta_obs[:executed],
        step_errors=errors[:executed],
        loss=loss,
        observed_len=T,
        executed_len=executed,
        terminated_early=terminated,
        tape=tape,
        activations=tuple(values),
    )


def matches_trace(result: ExecutionResult) -> bool:
    """True iff execution covered the whole trace without a step error
    over the threshold, i.e. ``execute`` did not stop early."""
    return not result.terminated_early


# ---------------------------------------------------------------------------
# backward pass


class Gradients(NamedTuple):
    """Loss gradients for every leaf of the executed program.

    ``params`` maps parameter id -> gradient summed over all executed
    steps.  ``slot_reads`` maps a variable leaf's node id -> its gradient
    rows (n, d), one per executed step, i.e. per time the leaf was read.
    """

    params: dict[int, np.ndarray]
    slot_reads: dict[int, np.ndarray]


def backprop(
    tape: Tape, values: Sequence[np.ndarray], seed: np.ndarray
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The reverse loop over a tape: propagate the (n, D) ``seed`` from the
    root action through every call's vector-Jacobian product, reading the
    first n rows of each op's forward ``values``.

    Returns the gradient rows (n, dim) of every parameter leaf, by parameter
    id, and of every variable leaf, by node id, each in reverse tape order;
    a parameter's rows are not summed.
    """
    n = seed.shape[0]
    upstream: list[np.ndarray | None] = [None] * len(tape)
    upstream[-1] = seed
    params, reads = {}, {}
    for pos in range(len(tape) - 1, -1, -1):
        kind, nid, _, args, key, _, vjp = tape[pos]
        g = upstream[pos]
        if kind is CALL:
            for i, gi in zip(args, vjp(tuple(values[i][:n] for i in args), g)):
                upstream[i] = gi
        elif kind is PARAM:
            params[key] = g
        else:
            reads[nid] = g
    return params, reads


def row_gradients(
    tape: Tape,
    values: Sequence[np.ndarray],
    theta_obs: np.ndarray,
    spec: ErrorSpec,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The gradient of each of the first n rows' action error, n the rows
    of ``theta_obs``, with respect to every parameter leaf (by parameter id)
    and every variable read (by node id), one gradient row per row, from
    the ``values`` and targets of ``evaluate_rows``.

    A row whose target is NaN (another action than the root's) carries only
    the flat penalty ``max_step_error + 1``: its seed is zero, whatever the
    error model's gradient gives there.
    """
    theta_hat = values[-1][: theta_obs.shape[0]]
    seed = spec.act_error_grad(theta_hat, theta_obs)
    seed[np.isnan(theta_obs)] = 0.0
    return backprop(tape, values, seed)


@np.errstate(over="ignore", invalid="ignore")
def backward(result: ExecutionResult, spec: ErrorSpec) -> Gradients:
    """Differentiate the loss of an execution with respect to every
    parameter and variable leaf: ``row_gradients`` over its executed steps,
    each parameter's rows summed by ``prefix_sums``.

    The tape carries the VJPs of the registry it was compiled with.  Each
    parameter id names one leaf (the parser and ``expand`` number them).
    Overflow gives inf or NaN without a warning, as in ``evaluate_rows``.
    """
    params, reads = row_gradients(result.tape, result.activations, result.theta_obs, spec)
    return Gradients({pid: prefix_sums(g, result.executed_len) for pid, g in params.items()}, reads)
