"""Gradient descent over the parameters of one program structure, with
gradient-guided re-binding of its variable leaves.

Parameters follow AdaGrad.  Variable leaves cannot follow a gradient
directly (they are symbols), so each read of a variable leaf is relaxed into
a virtual value nudged along its gradient; the nearest-variable index then
votes, over the executed timesteps, on which variable those nudged values
are closest to.  Winning a strict majority of steps rebinds the leaf and
resets all gradient history.

Most iterations repeat one of the few before them: execution stops at the
same step and the parameter gradient is the same to the bit.  Either it is
the last iteration's, while AdaGrad walks each parameter with a fixed
gradient and a shrinking step, or it comes round in a short cycle, while
AdaGrad zig-zags across a kink of the error (on the paddle trace, cycles
such as A, A, B, B are common).  Once the plain iterations confirm a cycle
(their last P (parameter gradient, executed length) pairs equal the P
before them, P <= ``MAX_PERIOD``), ``optimize`` predicts the next K
iterates on the assumption that the cycle goes on, evaluates all K in one
forward and one backward pass over K blocks of steps, and accepts the
longest prefix of blocks for which the assumption holds exactly: the block
stops at its predicted step, its parameter gradient equals the predicted
one bit for bit, and its vote re-binds no leaf.  Each accepted block counts
as one iteration, and the plain loop resumes at the first block that is not
accepted, so trees, parameter bytes, losses, re-bindings and the iteration
count are those of the plain loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Gradients, backprop, backward, seed_rows
from .interpreter import (
    PARAM,
    VAR,
    ErrorSpec,
    ExecutionResult,
    action_errors,
    compile_tape,
    execute,
    forward,
    matches_trace,
)
from .program import ProgramAst, Registry, VarLeaf, leaves, replace_node
from .trace import ObservationTrace, VariableIndex

# the longest cycle of (parameter gradient, executed length) pairs that a
# look-ahead follows; the plain loop keeps the last 2 * MAX_PERIOD pairs
MAX_PERIOD = 4
# look-ahead blocks in the first pass over a confirmed cycle; doubled while
# every block is accepted, reset when one is not
FIRST_BLOCKS = 64
# most rows (blocks x the cycle's longest executed length) in one
# look-ahead pass, which keeps its arrays to a few hundred kilobytes
ROW_BUDGET = 4096
# added under the square root of every AdaGrad accumulator
DIV_GUARD = 1e-8
# a relative loss improvement below TOL is stagnant; TOL_WINDOW stagnant
# iterations in a row stop the optimiser
TOL = 1e-9
TOL_WINDOW = 10


@dataclass(frozen=True)
class OptimizeConfig:
    learning_rate: float = 0.2
    max_opt_iters: int = 1500


@dataclass
class OptimizerState:
    """Mutable per-candidate optimisation state.

    ``params`` holds the current value of every parameter, by parameter id.
    ``param_acc`` holds the AdaGrad sums of squared gradients per parameter;
    ``slot_acc`` holds one accumulator per variable-leaf read time (each read
    is relaxed into its own temporary value), shaped like the per-read
    gradient rows.  An absent entry means an accumulator of zeros, so a
    fresh state and a state reset by a re-binding hold empty dicts.
    ``learning_rate`` is the AdaGrad step size, taken from the
    ``OptimizeConfig``.
    """

    params: dict[int, np.ndarray]
    param_acc: dict[int, np.ndarray]
    slot_acc: dict[int, np.ndarray]
    learning_rate: float

    @classmethod
    def fresh(
        cls, ast: ProgramAst, params: dict[int, np.ndarray], config: OptimizeConfig
    ) -> "OptimizerState":
        return cls(
            params={k: np.asarray(v, dtype=float).copy() for k, v in params.items()},
            param_acc={},
            slot_acc={},
            learning_rate=config.learning_rate,
        )


def adagrad_step(state: OptimizerState, grads: Gradients) -> OptimizerState:
    """One AdaGrad update of all parameters; returns a new state."""
    params = dict(state.params)
    acc = dict(state.param_acc)
    for pid, g in grads.params.items():
        # an absent accumulator is zero, and 0.0 + x == x bit for bit
        total = g * g if pid not in acc else acc[pid] + g * g
        acc[pid] = total
        params[pid] = params[pid] - state.learning_rate * g / np.sqrt(total + DIV_GUARD)
    return OptimizerState(params, acc, state.slot_acc, state.learning_rate)


def adagrad_walk(
    param: np.ndarray,
    acc: np.ndarray | None,
    gs: np.ndarray,
    steps: int,
    learning_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` AdaGrad updates of one parameter, update k with the
    gradient ``gs[k % P]`` of a (P, d) cycle, as ``adagrad_step`` makes
    them one at a time.  Returns the parameter before and after each
    update, shape (steps + 1, d), and the sum of squared gradients after
    each update, (steps, d); ``acc`` is the sum before them, None for zero.

    ``np.add.accumulate`` and ``np.subtract.accumulate`` fold along the
    first axis one row at a time, so every row is computed with the same
    operations, in the same order, as a single update.
    """
    g = gs[np.arange(steps) % len(gs)]
    totals = g * g
    # an absent accumulator is zero, and 0.0 + x == x bit for bit
    if acc is not None:
        totals[0] = acc + totals[0]
    np.add.accumulate(totals, axis=0, out=totals)
    moves = np.empty((steps + 1,) + gs.shape[1:])
    moves[0] = param
    moves[1:] = learning_rate * g / np.sqrt(totals + DIV_GUARD)
    return np.subtract.accumulate(moves, axis=0, out=moves), totals


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


def _fold_slot(old: np.ndarray | None, sq: np.ndarray) -> np.ndarray:
    """A read slot's accumulator over the first n rows after each of K
    updates by squared read gradients ``sq``, (K, n, d), as
    ``reassign_variables`` makes them one at a time; ``old`` is the
    accumulator before them, None for zero.  Its rows past n are not part
    of the result (see ``_with_tail``)."""
    if old is not None:
        m = min(old.shape[0], sq.shape[1])
        sq[0, :m] += old[:m]
    return np.add.accumulate(sq, axis=0)


def _with_tail(head: np.ndarray, old: np.ndarray | None) -> np.ndarray:
    """An accumulator updated over the executed rows, ``head``, followed
    by the rows of ``old`` past them, kept for when the executed prefix
    grows."""
    n = head.shape[0]
    return head if old is None or old.shape[0] <= n else np.concatenate([head, old[n:]])


def _renames(
    index: VariableIndex,
    leaf: VarLeaf,
    column: int,
    g_rows: np.ndarray,
    acc: np.ndarray,
    learning_rate: float,
) -> np.ndarray:
    """Whether each of K blocks of read gradients re-binds a variable leaf
    bound to ``index.names[leaf.dim][column]``, by the vote of
    ``reassign_variables``.

    ``g_rows`` and ``acc`` are (K, n, d): per block, the gradient of each
    executed read and its accumulator.  A block re-binds when its gradient
    is not all zero and a variable other than the bound one wins a strict
    majority of the nudged reads.
    """
    K, n = g_rows.shape[:2]
    values = index.values[leaf.dim][:n, column]
    adjusted = values - learning_rate * g_rows / np.sqrt(acc + DIV_GUARD)
    nearest = index.query_steps(leaf.dim, adjusted)  # (K, n)
    votes = np.add.reduce(nearest[..., None] == np.arange(len(index.names[leaf.dim])), axis=1)
    top = np.sort(votes, axis=1)
    sole = top[:, -1] > top[:, -2]
    moved = g_rows.reshape(K, -1).any(axis=1)
    return moved & sole & (votes.argmax(axis=1) != column)


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
        adjusted = values - state.learning_rate * g_rows / np.sqrt(acc[:n] + DIV_GUARD)
        # votes per variable; a handful of entries, so plain lists are cheapest
        votes = np.bincount(index.query_steps(leaf.dim, adjusted)).tolist()
        top = max(votes)
        winner = votes.index(top)
        if winner != column and votes.count(top) == 1:
            renames[nid] = VarLeaf(names[winner], leaf.dim)

    if not renames:
        kept = OptimizerState(state.params, state.param_acc, slot_acc, state.learning_rate)
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
    reset = OptimizerState(state.params, {}, {}, state.learning_rate)
    return rebound, reset, True


Pair = tuple[Gradients, int]  # parameter gradient and executed length of an iteration


def _same_pair(a: Pair, b: Pair) -> bool:
    """Whether two iterations stopped at the same step with parameter
    gradients equal bit for bit."""
    (ga, na), (gb, nb) = a, b
    return (
        na == nb
        and ga.params.keys() == gb.params.keys()
        and all(ga.params[pid].tobytes() == g.tobytes() for pid, g in gb.params.items())
    )


def _confirmed_cycle(recent: list[Pair]) -> list[Pair] | None:
    """The last P pairs of ``recent`` if they equal the P before them, for
    the longest such P up to ``MAX_PERIOD``; None if there is none."""
    for p in range(MAX_PERIOD, 0, -1):
        if len(recent) >= 2 * p and all(map(_same_pair, recent[-2 * p : -p], recent[-p:])):
            return recent[-p:]
    return None


@dataclass(frozen=True)
class _Lookahead:
    """K predicted iterates of one structure, evaluated in one pass.

    Block j ran with the parameters of ``walks[pid][0][j]``; ``accepted``
    blocks from the first one are exactly the iterations the plain loop
    would run.
    """

    losses: list[float]  # per block
    lengths: list[int]  # executed length per block
    accepted: int
    walks: dict[int, tuple[np.ndarray, np.ndarray]]  # pid -> adagrad_walk
    slot_acc: dict[int, np.ndarray]  # node id -> (K, n_max, d) folded accumulators

    def params(self, state: OptimizerState, j: int) -> dict[int, np.ndarray]:
        """The parameters block ``j`` ran with."""
        params = dict(state.params)
        params.update({pid: walk[j] for pid, (walk, _) in self.walks.items()})
        return params

    def state(self, state: OptimizerState, j: int) -> OptimizerState:
        """The state before block ``j``, after the blocks before it."""
        if j == 0:
            return state
        acc = dict(state.param_acc)
        acc.update({pid: totals[j - 1] for pid, (_, totals) in self.walks.items()})
        slot_acc = dict(state.slot_acc)
        for nid, folded in self.slot_acc.items():
            slot_acc[nid] = _with_tail(folded[j - 1], state.slot_acc.get(nid))
        return OptimizerState(self.params(state, j), acc, slot_acc, state.learning_rate)


def _look_ahead(
    ast: ProgramAst,
    state: OptimizerState,
    cycle: list[Pair],
    blocks: int,
    trace: ObservationTrace,
    registry: Registry,
    spec: ErrorSpec,
) -> _Lookahead:
    """Evaluate ``blocks`` iterates from ``state`` on the assumption that
    they repeat ``cycle``, the (parameter gradient, executed length) pairs
    of the last P iterations, none of which re-bound a leaf: block j stops
    at step n_j with the parameter gradient G_j of pair j % P.

    One forward and one backward pass run over a grid of ``blocks`` rows,
    one per predicted parameter setting, each holding the first n_max steps
    of the trace, n_max the cycle's longest length; block j is the first
    n_j steps of its row.  A block holds the assumption when its first
    error over the threshold is at its last step, its parameter gradient
    equals G_j bit for bit and its vote, with the slot accumulators folded
    over the blocks before it, re-binds no leaf.  Sums and votes over a
    block are taken over the first n steps of every row for each length n
    of the cycle, and each block keeps those of its own length.
    """
    lr = state.learning_rate
    # pair j % P of the cycle predicts block j
    phase = np.arange(blocks) % len(cycle)
    lengths = np.array([n for _, n in cycle])[phase]
    width = int(lengths.max())
    by_length = [(n, lengths == n) for n in sorted({n for _, n in cycle})]

    def per_block(of_length) -> np.ndarray:
        """``of_length(n)``, a (blocks, ...) array, for each length n of
        the cycle, each block taking the one of its length."""
        (n, _), *rest = by_length
        out = of_length(n)
        for n, at in rest:
            out = np.where(at.reshape((-1,) + (1,) * (out.ndim - 1)), of_length(n), out)
        return out

    gradients = {
        pid: np.array([g.params[pid] for g, _ in cycle]) for pid in cycle[0][0].params
    }
    walks = {
        pid: adagrad_walk(state.params[pid], state.param_acc.get(pid), gs, blocks, lr)
        for pid, gs in gradients.items()
    }
    tape = compile_tape(ast, registry)
    rows = blocks * width
    # row r of the grid is step r % width
    steps = np.arange(rows) % width

    def stacked(a: np.ndarray) -> np.ndarray:
        return a.take(steps, axis=0)

    var_values = trace.var_matrices()
    variables = {op.key: stacked(var_values[op.key]) for op in tape if op.kind is VAR}
    params = {pid: np.repeat(walk[:blocks], width, axis=0) for pid, (walk, _) in walks.items()}
    values = forward(tape, variables, params, rows)

    theta_obs, name_match, all_match = trace.action_targets(ast.root.name, ast.root.dim)
    theta_obs, name_match = stacked(theta_obs), stacked(name_match)
    out = values[-1]
    errors = action_errors(out, theta_obs, name_match, all_match, spec).reshape(blocks, width)
    # NaN fails the test, as in ``execute``
    within = errors <= spec.max_step_error
    holds = per_block(lambda n: within[:, : n - 1].all(axis=1) & ~within[:, n - 1])
    # each sum runs over a block's steps in the order ``execute`` and
    # ``backward`` sum an execution of that length
    losses = per_block(
        lambda n: np.add.reduce(errors[:, :n], axis=1) + float(spec.len_error(trace.length, n))
    )
    losses[np.isnan(losses)] = np.inf

    slot_rows: dict[int, np.ndarray] = {}
    for op, g in backprop(tape, values, seed_rows(out, theta_obs, name_match, spec)):
        g = g.reshape(blocks, width, op.dim)
        if op.kind is PARAM:
            total = per_block(lambda n: np.add.reduce(g[:, :n], axis=1))
            want = gradients[op.key][phase]
            holds &= (total.view(np.uint64) == want.view(np.uint64)).all(axis=1)
        else:
            slot_rows[op.node_id] = g
    # the steps of each row that its block executes; none past them enter
    # an accumulator
    live = None if len(by_length) == 1 else (np.arange(width) < lengths[:, None])[..., None]
    slot_acc = {}
    for nid, leaf, _, column in rebindable_leaves(ast, trace.index)[1]:
        g_rows = slot_rows[nid]
        sq = g_rows * g_rows
        if live is not None:
            # not a product with the mask: a NaN row times 0 is NaN
            sq = np.where(live, sq, 0.0)
        slot_acc[nid] = acc = _fold_slot(state.slot_acc.get(nid), sq)
        holds &= ~per_block(
            lambda n: _renames(trace.index, leaf, column, g_rows[:, :n], acc[:, :n], lr)
        )
    accepted = blocks if holds.all() else int(holds.argmin())
    return _Lookahead(losses.tolist(), lengths.tolist(), accepted, walks, slot_acc)


@dataclass(frozen=True)
class OptimizedCandidate:
    """A structure with its best found parameters, bindings and score.

    ``iterations`` counts the optimiser's iterations, accepted look-ahead
    blocks included; ``stop`` says why it ended: ``matched`` (the execution
    matches the trace), ``stagnant`` (the loss stopped improving), ``cap``
    (``max_opt_iters`` reached) or ``fixed`` (no parameter leaf and no
    variable leaf with a rival to move).
    """

    ast: ProgramAst
    params: dict[int, np.ndarray]
    result: ExecutionResult
    grads: Gradients
    iterations: int
    stop: str


def optimize(
    ast: ProgramAst,
    params: dict[int, np.ndarray],
    trace: ObservationTrace,
    registry: Registry,
    spec: ErrorSpec = ErrorSpec(),
    config: OptimizeConfig = OptimizeConfig(),
) -> OptimizedCandidate:
    """Alternate forward, backward, AdaGrad and variable rebinding until the
    execution matches the trace, the loss stagnates, or the iteration cap is
    reached.  Returns the best-loss state seen (gradient steps can overshoot
    near the acceptance threshold).

    Once the iterations since the last re-binding, each stopped at a step
    error over the threshold, end in a cycle of up to ``MAX_PERIOD`` pairs
    (see the module docstring), the next iterations are evaluated ahead in
    blocks that repeat it: ``FIRST_BLOCKS`` at first and twice as many each
    time all are accepted, within ``ROW_BUDGET`` rows and the cap.  When a
    block is not accepted, the plain loop runs it and looks for a cycle
    again.

    The call keeps a tree table, binding -> tree, that it passes to every
    ``reassign_variables``: each binding the leaves take is built, and its
    tape lowered, once per call.  The table is local and is dropped on
    return.
    """
    state = OptimizerState.fresh(ast, params, config)
    # states at different executed lengths are incomparable (the loss sums
    # over more steps), so "best" prefers matching, then coverage, then loss
    best_key: tuple[int, int, float] | None = None
    # tree, parameters and result of the best state; a look-ahead block has
    # no result yet
    best: tuple[ProgramAst, dict[int, np.ndarray], ExecutionResult | None] | None = None
    binding, slots = rebindable_leaves(ast, trace.index)
    # a parameter leaf or a variable leaf with a rival of its dimension
    free = len(binding) < len(leaves(ast)) or bool(slots)
    trees: dict[Binding, ProgramAst] = {}
    stagnant = 0

    def improves(key: tuple[int, int, float]) -> bool:
        """Whether ``key`` is a new best; counts stagnant iterations."""
        nonlocal best_key, stagnant
        if best_key is not None and not key < best_key:
            stagnant += 1
            return False
        # a sub-tolerance loss improvement still updates the best state but
        # does not count as progress for the stagnation stop
        if best_key is not None and key[:2] == best_key[:2]:
            rel = (best_key[2] - key[2]) / max(abs(best_key[2]), 1e-300)
            stagnant = 0 if rel >= TOL else stagnant + 1
        else:
            stagnant = 0
        best_key = key
        return True

    def finish(stop: str) -> OptimizedCandidate:
        assert best is not None
        best_ast, best_params, best_result = best
        if best_result is None:
            best_result = execute(best_ast, best_params, trace, registry, spec)
        grads = backward(best_result, spec)
        return OptimizedCandidate(best_ast, best_params, best_result, grads, iterations, stop)

    cap = max(1, config.max_opt_iters)
    iterations = 0
    blocks = FIRST_BLOCKS
    # (parameter gradient, executed length) of the last iterations since
    # the last re-binding, newest last, each of which stopped at a step
    # over the threshold
    recent: list[Pair] = []
    # the pairs the next iterations are predicted to repeat, once confirmed
    cycle: list[Pair] | None = None
    while iterations < cap:
        if cycle is not None:
            k = min(blocks, cap - iterations, ROW_BUDGET // max(n for _, n in cycle))
            if k < 2:
                cycle = None
                continue
            ahead = _look_ahead(ast, state, cycle, k, trace, registry, spec)
            newest = None
            for j in range(ahead.accepted):
                iterations += 1
                if improves((1, -ahead.lengths[j], ahead.losses[j])):
                    newest = j
                if stagnant >= TOL_WINDOW:
                    break
            if newest is not None:
                best = (ast, ahead.params(state, newest), None)
            if stagnant >= TOL_WINDOW:
                return finish("stagnant")
            state = ahead.state(state, ahead.accepted)
            p = len(cycle)
            done = range(max(0, ahead.accepted - 2 * MAX_PERIOD), ahead.accepted)
            recent = [*recent, *(cycle[j % p] for j in done)][-2 * MAX_PERIOD :]
            if ahead.accepted == k:
                blocks *= 2
                # the next pass starts where this one stopped in the cycle
                cycle = cycle[k % p :] + cycle[: k % p]
            else:
                blocks = FIRST_BLOCKS
                cycle = None
            continue
        result = execute(ast, state.params, trace, registry, spec)
        iterations += 1
        matched = matches_trace(result)
        if improves((0 if matched else 1, -result.executed_len, result.loss)):
            # adagrad_step never updates parameter arrays in place
            best = (ast, dict(state.params), result)
        if matched:
            return finish("matched")
        if not free:
            return finish("fixed")
        if stagnant >= TOL_WINDOW:
            return finish("stagnant")
        grads = backward(result, spec)
        state = adagrad_step(state, grads)
        # a re-binding keeps every leaf's kind and dimension, so ``free`` holds
        ast, state, rebound = reassign_variables(ast, state, grads, trace.index, trees)
        if rebound or not result.terminated_early:
            recent = []
            continue
        recent = [*recent[1 - 2 * MAX_PERIOD :], (grads, result.executed_len)]
        cycle = _confirmed_cycle(recent)
    return finish("cap")
