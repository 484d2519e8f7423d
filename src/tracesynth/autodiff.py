"""Backward pass: reverse-mode differentiation over the tape of an execution.

The loss is a sum of per-step action errors, so the backward pass seeds one
upstream gradient row per executed step and walks the tape that ``execute``
ran in reverse, applying each call's vector-Jacobian product to the stored
activations of its arguments.  Every node of a tree has one parent, so each
op receives its upstream gradient exactly once before it is visited.  A
parameter op sums its rows over steps; a variable op keeps one row per read
time and also their sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interpreter import ACTION, CALL, PARAM, ErrorSpec, ExecutionResult
from .program import FunctionSpec, ProgramError, Registry


@dataclass(frozen=True)
class Gradients:
    """Loss gradients for every leaf of the executed program.

    ``params`` maps parameter id -> gradient summed over all timesteps.
    ``slot_reads`` maps a variable leaf's node id -> per-read-time gradient
    rows (n, d), one per executed step; ``slot_totals`` is their sum.
    ``slot_names`` records which variable each slot read.
    """

    params: dict[int, np.ndarray]
    param_nodes: dict[int, int]  # pid -> node id
    slot_reads: dict[int, np.ndarray]
    slot_totals: dict[int, np.ndarray]
    slot_names: dict[int, str]

    def leaf_norms(self) -> dict[int, float]:
        """Euclidean norm of the aggregate gradient per leaf node id; the
        quantity the structure search ranks leaves by."""
        norms = {nid: float(np.linalg.norm(g)) for pid, g in self.params.items()
                 for nid in (self.param_nodes[pid],)}
        norms.update({nid: float(np.linalg.norm(g)) for nid, g in self.slot_totals.items()})
        return norms


def jacobian(registry: Registry, fn: FunctionSpec | str, args: tuple, index: int) -> np.ndarray:
    """Analytic Jacobian of a registered function with respect to one
    argument, evaluated at ``args`` (a tuple of (d_i,) vectors): row k is the
    entry's VJP applied to the k-th one-hot upstream row.

    Returns an (out_dim, arg_dim) matrix.
    """
    name = fn.name if isinstance(fn, FunctionSpec) else fn
    spec = registry.spec(name)
    if not 0 <= index < spec.arity:
        raise ProgramError(f"{name}: argument index {index} out of range")
    vals = tuple(np.asarray(a, dtype=float).reshape(1, -1) for a in args)
    vjp = registry.vjp(name)
    rows = [vjp(vals, upstream[None, :])[index][0] for upstream in np.eye(spec.out_dim)]
    return np.asarray(rows, dtype=float)


def action_error_jacobian(theta_hat: np.ndarray, theta: np.ndarray, spec: ErrorSpec) -> np.ndarray:
    """Row gradient of the per-step action error at a single step."""
    th = np.asarray(theta_hat, dtype=float).reshape(1, -1)
    t = np.asarray(theta, dtype=float).reshape(1, -1)
    return spec.act_error_grad(th, t)[0]


def backward(result: ExecutionResult, spec: ErrorSpec) -> Gradients:
    """Differentiate the loss of an execution with respect to every
    parameter and variable leaf.

    The gradient is seeded per executed step from the action-error
    derivative and propagated by the reverse loop over ``result.tape``.
    Steps whose observed action name differs contribute only the flat
    penalty, which has zero gradient.  The tape carries the VJPs of the
    registry it was compiled with.
    """
    n = result.executed_len
    tape = result.tape
    values = result.activations
    mask = result.name_mask
    if mask.all():
        seed = spec.act_error_grad(result.theta_hat, result.theta_obs)
    else:
        seed = np.zeros_like(result.theta_hat)
        if mask.any():
            seed[mask] = spec.act_error_grad(result.theta_hat[mask], result.theta_obs[mask])

    grads = Gradients({}, {}, {}, {}, {})
    upstream: list[np.ndarray | None] = [None] * len(tape)
    upstream[-1] = seed
    for pos in range(len(tape) - 1, -1, -1):
        kind, nid, _, args, key, _, vjp = tape[pos]
        g = upstream[pos]
        if kind is CALL:
            for i, gi in zip(args, vjp(tuple(values[i][:n] for i in args), g)):
                upstream[i] = gi
        elif kind is ACTION:
            # the action's parameters are its arguments concatenated
            offset = 0
            for i in args:
                d = tape[i].dim
                upstream[i] = g[:, offset : offset + d]
                offset += d
        elif kind is PARAM:
            total = g.sum(axis=0)
            if key in grads.params:
                grads.params[key] = grads.params[key] + total
            else:
                grads.params[key] = total
                grads.param_nodes[key] = nid
        else:
            grads.slot_reads[nid] = g
            grads.slot_totals[nid] = g.sum(axis=0)
            grads.slot_names[nid] = key
    return grads
