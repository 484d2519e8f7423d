"""Gradient descent over the parameters of one program structure, with
gradient-guided re-binding of its variable leaves.

Parameters follow AdaGrad.  Variable leaves cannot follow a gradient
directly (they are symbols), so each read of a variable leaf is relaxed into
a virtual value nudged along its gradient; the nearest-variable index then
votes, over the executed timesteps, on which variable those nudged values
are closest to.  Winning a strict majority of steps rebinds the leaf and
resets all gradient history.

Most iterations repeat one of the few before them: they run the same tree,
execution stops at the same step and the parameter gradient is the same to
the bit.  Either it is the last iteration's, while AdaGrad walks each
parameter with a fixed gradient and a shrinking step, or it comes round in
a short cycle, while AdaGrad zig-zags across a kink of the error (on the
paddle trace, cycles such as A, A, B, B are common) or a leaf flips between
two variables on every iteration (on the pendulum trace, x and v).  Each
plain iteration that stops early takes the signature of its tree, executed
length and parameter gradient once (``_pair``).  Once the plain iterations
confirm a cycle (the signatures of their last P equal those of the P before
them, P <= ``MAX_PERIOD``, and either every one of them re-binds or none
does), ``optimize`` predicts the next K iterates on the assumption that
the cycle goes on, evaluates all K in one forward and one backward pass per
tree of the cycle, and accepts the longest prefix of blocks for which the
assumption holds exactly: the block stops at its predicted step, its
parameter gradient equals the predicted one bit for bit, and its vote gives
exactly the binding of the next block's tree.  Each accepted block counts
as one iteration, and the plain loop resumes at the first block that is not
accepted, so trees, parameter bytes, losses, re-bindings and the iteration
count are those of the plain loop; a pass reuses the cycle's signatures.

Two outcomes are known without evaluating them.  A vote is settled when
no rival can win it: no nudge exceeds the learning rate lr in any
component, so when half the distance from the bound variable to its
nearest rival exceeds 2 * lr * sqrt(d) on every executed step, every
nudged read stays nearest to it (``_settled``).  A state is stationary
when a plain iteration stopped early, re-bound nothing and left every
parameter's bytes unchanged.  Every later iteration then runs the same
tree on the same bytes, so it has the same execution, loss and gradient,
and counts as stagnant; its step has the same sign and shrinks as the
accumulator grows, so the parameters stay put.  So the pair is a cycle of
one pair whose blocks are known: a pass over it takes their loss, length
and read gradients from the pair, and only their votes are taken.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .interpreter import (
    ErrorSpec,
    ExecutionResult,
    Gradients,
    backward,
    evaluate_rows,
    execute,
    matches_trace,
    prefix_sums,
    row_gradients,
)
from .program import ProgramAst, Registry, VarLeaf, leaves, replace_node
from .trace import ObservationTrace, VariableIndex

# the longest cycle of pairs (see ``_pair``) that a look-ahead follows; the
# plain loop keeps the last 2 * MAX_PERIOD pairs
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


class OptimizeConfig(NamedTuple):
    learning_rate: float = 0.2
    max_opt_iters: int = 1500


class OptimizerState(NamedTuple):
    """Per-candidate optimisation state; each update returns a new one.

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
    reset: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` AdaGrad updates of one parameter, update k with the
    gradient ``gs[k % P]`` of a (P, d) cycle, as ``adagrad_step`` makes
    them one at a time.  Returns the parameter before and after each
    update, shape (steps + 1, d), and the sum of squared gradients after
    each update, (steps, d); ``acc`` is the sum before them, None for zero.
    With ``reset`` the sum starts again after every update, as when every
    iteration re-binds a leaf.

    ``np.add.accumulate`` and ``np.subtract.accumulate`` fold along the
    first axis one row at a time, so every row is computed with the same
    operations, in the same order, as a single update.
    """
    g = gs[np.arange(steps) % len(gs)]
    totals = g * g
    # an absent accumulator is zero, and 0.0 + x == x bit for bit
    if acc is not None:
        totals[0] = acc + totals[0]
    if not reset:
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


def _fold_slot(old: np.ndarray | None, sq: np.ndarray, reset: bool) -> np.ndarray:
    """A read slot's accumulator over the first n rows after each of K
    updates by squared read gradients ``sq``, (K, n, d), as
    ``reassign_variables`` makes them one at a time; ``old`` is the
    accumulator before them, None for zero, and with ``reset`` the sum
    starts again after every update.  Its rows past n are not part of the
    result (see ``_with_tail``)."""
    if old is not None:
        m = min(old.shape[0], sq.shape[1])
        sq[0, :m] += old[:m]
    return sq if reset else np.add.accumulate(sq, axis=0)


def _with_tail(head: np.ndarray, old: np.ndarray | None) -> np.ndarray:
    """An accumulator updated over the executed rows, ``head``, followed
    by the rows of ``old`` past them, kept for when the executed prefix
    grows."""
    n = head.shape[0]
    return head if old is None or old.shape[0] <= n else np.concatenate([head, old[n:]])


def _settled(
    index: VariableIndex, leaf: VarLeaf, column: int, acc: np.ndarray, learning_rate: float
) -> bool:
    """Whether no rival of the variable in ``column`` can win a vote over
    the first n steps with the accumulator rows ``acc``, (..., n, d).

    Each row holds its read's own g*g, so while ``acc`` is finite no
    component of a nudge ``lr * g / sqrt(acc + DIV_GUARD)`` exceeds lr and
    its norm is at most lr * sqrt(d); rounding the nudged value at most
    doubles its move.  When the variable's gap (``VariableIndex.gaps``) at
    step n exceeds twice that, every nudged read is nearer its own variable
    than any rival: gaps and queries both measure with ``trace.distances``.
    The relative (d + 8) * 2**-50 covers the rounding of the nudge, the
    distances and the gap.  A NaN or infinite row fails.
    """
    d = leaf.dim
    limit = 2 * learning_rate * math.sqrt(d) * (1 + (d + 8) * 2.0**-50)
    # the rows are sums of squares, so their sum is finite only if each is
    return index.gaps[d][acc.shape[-2] - 1, column] > limit and math.isfinite(acc.sum())


def _vote(
    index: VariableIndex,
    leaf: VarLeaf,
    column: int,
    g_rows: np.ndarray,
    acc: np.ndarray,
    learning_rate: float,
) -> np.ndarray:
    """The column of ``index.names[leaf.dim]`` that each of K blocks of
    read gradients binds a variable leaf to, by the vote of
    ``reassign_variables``; ``column`` is its current binding.

    ``g_rows`` and ``acc`` are (K, n, d): per block, the gradient of each
    executed read and its accumulator.  A block re-binds when its gradient
    is not all zero and a variable other than the bound one wins a strict
    majority of the nudged reads.  A settled vote (``_settled``) keeps
    every block's binding without a query, which holds for each block whose
    rows of ``acc`` include its own squared gradients.
    """
    K, n = g_rows.shape[:2]
    if _settled(index, leaf, column, acc, learning_rate):
        return np.full(K, column)
    values = index.values[leaf.dim][:n, column]
    adjusted = values - learning_rate * g_rows / np.sqrt(acc + DIV_GUARD)
    nearest = index.query_steps(leaf.dim, adjusted)  # (K, n)
    votes = np.add.reduce(nearest[..., None] == np.arange(len(index.names[leaf.dim])), axis=1)
    top = np.sort(votes, axis=1)
    sole = top[:, -1] > top[:, -2]
    moved = g_rows.reshape(K, -1).any(axis=1)
    return np.where(moved & sole, votes.argmax(axis=1), column)


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
    current binding, and so does a leaf whose reads all have zero
    gradient.  Any rebinding resets all accumulators.  A settled vote keeps
    the binding without a query: each read's accumulator holds its own
    squared gradient, so no nudge takes it halfway to a rival (``_settled``).

    ``trees`` is the tree table of one structure, keyed by binding (see
    ``rebindable_leaves``).  A re-binding returns the table's tree for the
    new binding and builds it with ``replace_node`` only if it is absent;
    the current tree is entered too, so flipping a leaf back returns the
    very same object.  Without a table every re-binding builds a new tree.
    """
    _, slots = rebindable_leaves(ast, index)
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
        if not g_rows.any() or _settled(index, leaf, column, acc[:n], state.learning_rate):
            # zero gradient leaves every virtual read at the variable itself,
            # and no nudge of a settled vote takes a read to a rival
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
    var_leaves = [(nid, leaf) for nid, leaf in leaves(ast) if isinstance(leaf, VarLeaf)]
    trees.setdefault(tuple(leaf.name for _, leaf in var_leaves), ast)
    new_binding = tuple(renames.get(nid, leaf).name for nid, leaf in var_leaves)
    rebound = trees.get(new_binding)
    if rebound is None:
        rebound = ast
        for nid, leaf in renames.items():
            rebound = replace_node(rebound, nid, leaf)
        trees[new_binding] = rebound
    reset = OptimizerState(state.params, {}, {}, state.learning_rate)
    return rebound, reset, True


Pair = tuple[ProgramAst, Gradients, int, tuple]  # see ``_pair``


def _pair(tree: ProgramAst, grads: Gradients, n: int) -> Pair:
    """An iteration's tree, parameter gradient and executed length, and its
    signature: the tree by identity, the length and each parameter id with
    its gradient's bytes.  The pair keeps its tree alive, so no other tree
    takes its id while the pair is compared."""
    return tree, grads, n, (id(tree), n, {pid: g.tobytes() for pid, g in grads.params.items()})


def _confirmed_cycle(recent: list[Pair], ast: ProgramAst) -> list[Pair] | None:
    """The last P pairs of ``recent`` if their signatures equal those of
    the P before them, the first of them runs ``ast`` and either each
    re-binds a leaf (runs another tree than the next) or none does, for the
    longest such P up to ``MAX_PERIOD``; None if there is none."""
    signatures = [signature for *_, signature in recent]
    for p in range(MAX_PERIOD, 0, -1):
        if len(recent) >= 2 * p and signatures[-2 * p : -p] == signatures[-p:]:
            trees = [tree for tree, *_ in recent[-p:]]
            rebinds = {a is not b for a, b in zip(trees, trees[1:] + trees[:1])}
            if trees[0] is ast and len(rebinds) == 1:
                return recent[-p:]
    return None


class _Lookahead(NamedTuple):
    """K predicted iterates of one structure, from one pass.

    Block j ran the tree ``tree(j)`` with the parameters of
    ``walks[pid][0][j]``; ``accepted`` blocks from the first one are
    exactly the iterations the plain loop would run.
    """

    losses: list[float]  # per block
    lengths: list[int]  # executed length per block
    accepted: int
    walks: dict[int, tuple[np.ndarray, np.ndarray]]  # pid -> adagrad_walk
    # node id -> (K, n_max, d) folded accumulators; empty when blocks re-bind
    slot_acc: dict[int, np.ndarray]
    trees: list[ProgramAst]  # of the cycle; block j runs trees[j % P]
    rebinds: bool  # each block re-binds, which resets every accumulator

    def tree(self, j: int) -> ProgramAst:
        """The tree block ``j`` runs, after the blocks before it."""
        return self.trees[j % len(self.trees)]

    def params(self, state: OptimizerState, j: int) -> dict[int, np.ndarray]:
        """The parameters block ``j`` ran with."""
        return {**state.params, **{pid: walk[j] for pid, (walk, _) in self.walks.items()}}

    def state(self, state: OptimizerState, j: int) -> OptimizerState:
        """The state before block ``j``, after the blocks before it."""
        if j == 0:
            return state
        if self.rebinds:
            return OptimizerState(self.params(state, j), {}, {}, state.learning_rate)
        acc = {**state.param_acc, **{pid: totals[j - 1] for pid, (_, totals) in self.walks.items()}}
        slot_acc = dict(state.slot_acc)
        for nid, folded in self.slot_acc.items():
            slot_acc[nid] = _with_tail(folded[j - 1], state.slot_acc.get(nid))
        return OptimizerState(self.params(state, j), acc, slot_acc, state.learning_rate)


def _look_ahead(
    state: OptimizerState,
    cycle: list[Pair],
    blocks: int,
    trace: ObservationTrace,
    registry: Registry,
    spec: ErrorSpec,
    known: float | None = None,
) -> _Lookahead:
    """Evaluate ``blocks`` iterates from ``state`` on the assumption that
    they repeat ``cycle``, the pairs (see ``_pair``) of the last P
    iterations: block j runs the tree T_j of pair j % P and stops at step
    n_j with the parameter gradient G_j.  Either no pair re-binds a leaf,
    or each re-binds into the tree of the next; a re-binding resets every
    accumulator, so then their sums start again after each block.

    For each tree of the cycle, ``evaluate_rows`` and ``row_gradients`` run
    over a grid with one row per block of that tree, each holding the
    block's predicted parameters and the first n_max steps of the trace,
    n_max the longest length of those blocks; block j is the first n_j
    steps of its row.  A block holds the assumption when its first error over the
    threshold is at its last step, its parameter gradient equals G_j bit
    for bit and its vote, with the slot accumulators folded over the blocks
    before it, binds every leaf as T_{j+1} does.  Sums and votes over a
    block are taken over the first n steps of every row for each length n
    of the tree's blocks, and each block keeps those of its own length.
    With a ``known`` loss, ``cycle`` is a stationary pair: no grid is
    evaluated, and each block has the pair's loss, length and read gradients.
    """
    lr = state.learning_rate
    index = trace.index
    period = len(cycle)
    # pair j % P of the cycle predicts block j
    phase = np.arange(blocks) % period
    lengths = np.array([n for _, _, n, _ in cycle])[phase]
    trees = [tree for tree, *_ in cycle]
    # a confirmed cycle re-binds on every pair or on none, so the last pair
    # re-binds into the first exactly when every pair re-binds
    rebinds = trees[-1] is not trees[0]
    gradients = {pid: np.array([g.params[pid] for _, g, *_ in cycle]) for pid in cycle[0][1].params}
    walks = {
        pid: adagrad_walk(state.params[pid], state.param_acc.get(pid), gs, blocks, lr, rebinds)
        for pid, gs in gradients.items()
    }
    if rebinds:
        # row p: the column of each slot in the tree that follows pair p
        # (every tree of a structure lists its slots in the same order)
        following = np.array(
            [[c for *_, c in rebindable_leaves(t, index)[1]] for t in trees[1:] + trees[:1]]
        )
        holds, losses = np.empty(blocks, dtype=bool), np.empty(blocks)
    slot_acc = {}
    # each tree of the cycle once, by identity
    for tree in {id(t): t for t in trees}.values():
        # the blocks that run this tree
        mine = slice(blocks)
        if rebinds:
            mine = np.flatnonzero(np.array([t is tree for t in trees])[phase])
        mine_lengths, mine_phase = lengths[mine], phase[mine]
        count = len(mine_lengths)
        width = int(mine_lengths.max())
        by_length = [(n, mine_lengths == n) for n in sorted(set(mine_lengths.tolist()))]

        def per_block(of_length) -> np.ndarray:
            """``of_length(n)``, a (count, ...) array, for each length n of
            the tree's blocks, each block taking the one of its length."""
            (n, _), *rest = by_length
            out = of_length(n)
            for n, at in rest:
                out = np.where(at.reshape((-1,) + (1,) * (out.ndim - 1)), of_length(n), out)
            return out

        if known is None:
            # row r of the grid is step r % width
            steps = np.arange(count * width) % width
            params = {pid: np.repeat(w[mine], width, axis=0) for pid, (w, _) in walks.items()}
            tape, values, errors, theta_obs, name_match = evaluate_rows(
                tree, params, trace, registry, spec, steps
            )
            errors = errors.reshape(count, width, 1)
            # NaN fails the test, as in ``execute``
            within = errors[..., 0] <= spec.max_step_error
            holds_here = per_block(lambda n: within[:, : n - 1].all(axis=1) & ~within[:, n - 1])
            # each sum adds a block's steps as ``execute`` and ``backward`` do
            losses_here = per_block(lambda n: prefix_sums(errors, n))[:, 0]

            param_rows, reads = row_gradients(tape, values, theta_obs, name_match, spec)
            for pid, g in param_rows.items():
                g = g.reshape(count, width, -1)
                total = per_block(lambda n: prefix_sums(g, n))
                want = gradients[pid][mine_phase]
                holds_here &= (total.view(np.uint64) == want.view(np.uint64)).all(axis=1)
            slot_rows = {nid: g.reshape(count, width, -1) for nid, g in reads.items()}
        else:
            # every block repeats the stationary pair
            holds_here, losses_here = np.ones(count, dtype=bool), np.full(count, known)
            reads = cycle[0][1].slot_reads
            slot_rows = {nid: np.repeat(g[None], count, axis=0) for nid, g in reads.items()}
        # the steps of each row that its block executes; none past them enter
        # an accumulator
        live = (np.arange(width) < mine_lengths[:, None])[..., None] if by_length[1:] else None
        for i, (nid, leaf, _, column) in enumerate(rebindable_leaves(tree, index)[1]):
            g_rows = slot_rows[nid]
            sq = g_rows * g_rows
            if live is not None:
                # not a product with the mask: a NaN row times 0 is NaN
                sq = np.where(live, sq, 0.0)
            # a re-binding cycle starts right after a re-binding, so ``state``
            # holds no accumulator to fold into another tree's blocks
            acc = _fold_slot(state.slot_acc.get(nid), sq, rebinds)
            if not rebinds:
                slot_acc[nid] = acc
            # each block binds the leaf as the tree of its next pair does
            want = following[mine_phase, i] if rebinds else column
            holds_here &= want == per_block(
                lambda n: _vote(index, leaf, column, g_rows[:, :n], acc[:, :n], lr)
            )
        if rebinds:
            holds[mine], losses[mine] = holds_here, losses_here
        else:
            holds, losses = holds_here, losses_here
    losses[np.isnan(losses)] = np.inf
    accepted = blocks if holds.all() else int(holds.argmin())
    return _Lookahead(
        losses.tolist(), lengths.tolist(), accepted, walks, slot_acc, trees, rebinds
    )


class OptimizedCandidate(NamedTuple):
    """A structure with its best found parameters, bindings and score.

    ``iterations`` counts the optimiser's iterations and ``rebinds`` its
    variable re-bindings, accepted look-ahead blocks included; ``stop``
    says why it ended: ``matched`` (the execution matches the trace),
    ``stagnant`` (the loss stopped improving), ``cap`` (``max_opt_iters``
    reached) or ``fixed`` (no parameter leaf and no variable leaf with a
    rival to move).
    """

    ast: ProgramAst
    params: dict[int, np.ndarray]
    result: ExecutionResult
    grads: Gradients
    iterations: int
    rebinds: int
    stop: str


@np.errstate(over="ignore", invalid="ignore")
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

    Once the last iterations, each stopped at a step error over the
    threshold, end in a cycle of up to ``MAX_PERIOD`` pairs that re-bind a
    leaf on every pair or on none (see the module docstring), the next
    iterations are evaluated ahead in blocks that repeat it:
    ``FIRST_BLOCKS`` at first and twice as many each time all are accepted,
    within ``ROW_BUDGET`` rows and the cap.  When a block is not accepted,
    the plain loop runs it and looks for a cycle again.  A stationary
    iteration is a cycle of one pair whose blocks are known and stagnant:
    its pass runs to the stagnation stop or the cap.

    The call keeps a tree table, binding -> tree, for every
    ``reassign_variables``: each binding the leaves take is built, and its
    tape lowered, once per call, and the table is dropped on return.
    Overflow gives inf or NaN without a warning, as in ``evaluate_rows``.
    """
    state = OptimizerState.fresh(ast, params, config)
    # states at different executed lengths are incomparable (the loss sums
    # over more steps), so "best" prefers matching, then coverage, then loss
    best_key: tuple[int, int, float] | None = None
    # tree, parameters, result and gradient of the best state; a look-ahead
    # block has neither yet
    best: tuple[ProgramAst, dict, ExecutionResult | None, Gradients | None] | None = None
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
        best_ast, best_params, best_result, grads = best
        if best_result is None:
            best_result = execute(best_ast, best_params, trace, registry, spec)
        if grads is None:
            grads = backward(best_result, spec)
        return OptimizedCandidate(
            best_ast, best_params, best_result, grads, iterations, rebinds, stop
        )

    cap = max(1, config.max_opt_iters)
    iterations = rebinds = 0
    blocks = FIRST_BLOCKS
    # the pairs of the last iterations, newest last, each of which stopped
    # at a step over the threshold
    recent: list[Pair] = []
    # the pairs the next iterations are predicted to repeat, once confirmed,
    # and the loss of a stationary pair, whose blocks are known
    cycle: list[Pair] | None = None
    known: float | None = None
    while iterations < cap:
        if cycle is not None:
            if known is not None:
                k = min(TOL_WINDOW - stagnant, cap - iterations)
            elif (k := min(blocks, cap - iterations, ROW_BUDGET // max(p[2] for p in cycle))) < 2:
                cycle = None
                continue
            ahead = _look_ahead(state, cycle, k, trace, registry, spec, known)
            newest = None
            for j in range(ahead.accepted):
                iterations += 1
                if improves((1, -ahead.lengths[j], ahead.losses[j])):
                    newest = j
                if stagnant >= TOL_WINDOW:
                    break
            else:
                j = ahead.accepted
            # in a re-binding cycle every block re-binds, but for the one the
            # stop falls in, which runs no re-binding
            rebinds += ahead.rebinds * j
            if newest is not None:
                best = (ahead.tree(newest), ahead.params(state, newest), None, None)
            if stagnant >= TOL_WINDOW:
                return finish("stagnant")
            state, ast = ahead.state(state, ahead.accepted), ahead.tree(ahead.accepted)
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
            best = (ast, dict(state.params), result, None)
        if matched:
            return finish("matched")
        if not free:
            return finish("fixed")
        if stagnant >= TOL_WINDOW:
            return finish("stagnant")
        grads = backward(result, spec)
        if best[2] is result:
            best = (*best[:3], grads)
        before = state.params
        state = adagrad_step(state, grads)
        pair = _pair(ast, grads, result.executed_len)
        # a re-binding keeps every leaf's kind and dimension, so ``free`` holds
        ast, state, rebound = reassign_variables(ast, state, grads, trace.index, trees)
        rebinds += rebound
        if not result.terminated_early:
            recent = []
            continue
        recent = [*recent[1 - 2 * MAX_PERIOD :], pair]
        if not rebound and all(state.params[p].tobytes() == before[p].tobytes() for p in before):
            cycle, known = [pair], result.loss
        else:
            cycle, known = _confirmed_cycle(recent, ast), None
    return finish("cap")
