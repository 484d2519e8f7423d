"""Backward pass: reverse-mode differentiation over the tape of an execution.

The loss is a sum of per-step action errors, so the backward pass seeds one
upstream gradient row per executed step and walks the tape that ``execute``
ran in reverse, applying each call's vector-Jacobian product, the root
action's included, to the stored activations of its arguments.  Every node
of a tree has one parent, so each op receives its upstream gradient exactly
once before it is visited.  A parameter op sums its rows over steps; a
variable op keeps one row per read time.  ``backprop`` is that reverse loop;
it leaves the summing to its caller, so the optimiser can run it over K
stacked blocks of steps and sum each block on its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .interpreter import CALL, PARAM, ErrorSpec, ExecutionResult, Op, Tape


class Gradients(NamedTuple):
    """Loss gradients for every leaf of the executed program.

    ``params`` maps parameter id -> gradient summed over all executed
    steps.  ``slot_reads`` maps a variable leaf's node id -> its gradient
    rows (n, d), one per executed step, i.e. per time the leaf was read.
    """

    params: dict[int, np.ndarray]
    slot_reads: dict[int, np.ndarray]


def seed_rows(
    theta_hat: np.ndarray, theta_obs: np.ndarray, name_mask: np.ndarray, spec: ErrorSpec
) -> np.ndarray:
    """Gradient of each row's action error with respect to its predicted
    action parameters.  Rows whose observed action name differs carry only
    the flat penalty, which has zero gradient."""
    if name_mask.all():
        return spec.act_error_grad(theta_hat, theta_obs)
    seed = np.zeros_like(theta_hat)
    if name_mask.any():
        seed[name_mask] = spec.act_error_grad(theta_hat[name_mask], theta_obs[name_mask])
    return seed


def backprop(
    tape: Tape, values: Sequence[np.ndarray], seed: np.ndarray
) -> list[tuple[Op, np.ndarray]]:
    """The reverse loop over a tape: propagate the (rows, D) ``seed`` from
    the root action through every call's vector-Jacobian product, reading
    the first ``rows`` rows of each op's forward ``values``.

    Returns ``(op, gradient rows)`` for every parameter and variable leaf,
    in reverse tape order.
    """
    n = seed.shape[0]
    upstream: list[np.ndarray | None] = [None] * len(tape)
    upstream[-1] = seed
    out = []
    for pos in range(len(tape) - 1, -1, -1):
        op = tape[pos]
        kind, args, vjp = op.kind, op.args, op.vjp
        g = upstream[pos]
        if kind is CALL:
            for i, gi in zip(args, vjp(tuple(values[i][:n] for i in args), g)):
                upstream[i] = gi
        else:
            out.append((op, g))
    return out


def backward(result: ExecutionResult, spec: ErrorSpec) -> Gradients:
    """Differentiate the loss of an execution with respect to every
    parameter and variable leaf.

    The gradient is seeded per executed step from the action-error
    derivative and propagated by the reverse loop over ``result.tape``.
    The tape carries the VJPs of the registry it was compiled with.  Each
    parameter id names one leaf (the parser and ``expand`` number them).
    """
    seed = seed_rows(result.theta_hat, result.theta_obs, result.name_mask, spec)
    grads = Gradients({}, {})
    for (kind, nid, _, _, key, _, _), g in backprop(result.tape, result.activations, seed):
        if kind is PARAM:
            grads.params[key] = g.sum(axis=0)
        else:
            grads.slot_reads[nid] = g
    return grads
