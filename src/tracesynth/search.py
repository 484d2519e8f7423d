"""Best-first search over program structures.

The search graph connects a tree to every tree obtained by replacing exactly
one leaf with a depth-1 application.  Candidates are scored
``complexity + loss`` and kept in an A* priority queue; the leaf to expand is
the one with the largest loss-gradient norm.

The loss is never negative, so a proposal's complexity, known before any
gradient step, is a lower bound on its score.  Each proposal is therefore
queued unoptimised, keyed by that bound, and optimised only when it reaches
the top of the queue (lazy A*); it then goes back with its true score.  The
queue pops exactly the candidates, in exactly the order, that optimising
every proposal on arrival would, while the many proposals whose bound is
never reached are never optimised.  Until it is optimised a proposal holds
its key and complexity, derived from its parent's, but not its tree or its
parameter values.

The whole procedure is deterministic for a fixed seed: every proposal
derives its own RNG seed from content (parent fingerprint, leaf,
replacement), children are merged in fingerprint order.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from time import perf_counter

import numpy as np

from .config import RunConfig
from .interpreter import ErrorSpec, matches_trace
from .optimizer import OptimizedCandidate, optimize
from .program import (
    ActionNode,
    ComplexityWeights,
    FunctionNode,
    Node,
    ParamLeaf,
    ProgramAst,
    Registry,
    VarLeaf,
    _as_variables,
    canonical_key,
    complexity,
    depth,
    initial_params,
    leaves,
    next_pid,
    replace_node,
    structural_cost,
)
from .trace import ObservationTrace, build_variable_index

_PARAM_INIT_STD = math.sqrt(0.1)  # proposals drawn from N(0, variance 0.1)


@dataclass(frozen=True)
class Candidate:
    """An optimised structure with its score components and provenance."""

    opt: OptimizedCandidate
    loss: float
    complexity: float
    score: float  # complexity + loss, the queue priority
    key: str
    parent_key: str | None
    expansion_leaf: int | None
    seed: int

    @property
    def ast(self) -> ProgramAst:
        return self.opt.ast


@dataclass(frozen=True)
class SolutionSet:
    """Outcome of one induction run: the accepted candidate (if any), the
    best-scoring candidates seen, and run counters: search iterations,
    distinct proposals queued, candidates optimised and their optimiser
    iterations."""

    solution: Candidate | None
    top: tuple[Candidate, ...]
    iterations: int
    proposed: int
    optimised: int
    opt_iters: int
    wall_time: float


@dataclass(frozen=True)
class _Deferred:
    """A queued proposal not yet optimised, with its complexity: a lower
    bound on its score, because the loss is never negative."""

    proto: _Proto
    complexity: float


class CandidateQueue:
    """Priority queue of optimised candidates and deferred proposals.

    Every entry is ordered by ``(priority, complexity, n)``: the priority of
    a candidate is its score, that of a deferred proposal its complexity,
    and ``n`` is the insertion counter.  A deferred proposal that is popped,
    optimised and pushed back with its own ``n`` thus keeps its place among
    ties.  Tracks canonical keys already queued so no structure is queued
    twice."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, float, int, Candidate | _Deferred, int]] = []
        self._counter = itertools.count()
        self.visited: set[str] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, item: Candidate | _Deferred, leaf_rank: int = 0, n: int | None = None) -> None:
        """Queue ``item``; ``n`` defaults to the next insertion counter."""
        priority = item.score if isinstance(item, Candidate) else item.complexity
        if n is None:
            n = next(self._counter)
        heapq.heappush(self._heap, (priority, item.complexity, n, item, leaf_rank))

    def pop(self) -> tuple[Candidate | _Deferred, int, int]:
        """The first entry as ``(item, leaf_rank, n)``."""
        _, _, n, item, leaf_rank = heapq.heappop(self._heap)
        return item, leaf_rank, n


def ranked_leaves(cand: Candidate) -> list[int]:
    """Leaf node ids ordered by descending norm of the leaf's loss gradient,
    summed over the executed steps; ties fall back to leftmost-first
    (preorder) order."""
    grads = cand.opt.grads

    def norm(nid: int, leaf: ParamLeaf | VarLeaf) -> float:
        if isinstance(leaf, ParamLeaf):
            return float(np.linalg.norm(grads.params[leaf.pid]))
        return float(np.linalg.norm(grads.slot_reads[nid].sum(axis=0)))

    return [nid for _, nid in sorted((-norm(nid, leaf), nid) for nid, leaf in leaves(cand.ast))]


def _derive_seed(*parts: object) -> int:
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class _Proto:
    """An unoptimised proposal: ``subtree`` in place of leaf
    ``expansion_leaf`` of the parent's tree (the whole tree when the parent
    is the empty program), with provenance, the structure key and the
    counts its complexity is computed from: depth, parameter leaves and
    variable leaves.

    The tree and its initial parameter values, the subtree's sampled values
    and the parent's optimised values for the parameters that survive, are
    built on first access, since most proposals are never optimised.
    """

    parent_ast: ProgramAst | None
    parent_params: Mapping[int, np.ndarray]
    subtree: Node
    parent_key: str
    expansion_leaf: int | None
    seed: int
    key: str
    counts: tuple[int, int, int]

    @cached_property
    def ast(self) -> ProgramAst:
        if self.parent_ast is None:
            return ProgramAst(self.subtree)
        return replace_node(self.parent_ast, self.expansion_leaf, self.subtree)

    @cached_property
    def params(self) -> dict[int, np.ndarray]:
        params = initial_params(self.ast)
        params.update({pid: v for pid, v in self.parent_params.items() if pid in params})
        return params

    def complexity(self, weights: ComplexityWeights) -> float:
        return structural_cost(*self.counts, weights)


def _build_subtree(
    head, pattern: tuple[bool, ...], variables: dict[str, int], pid_start: int, rng
) -> tuple | None:
    """Children for one replacement application: each argument becomes a
    fresh parameter (sampled) or a random variable of the required
    dimension.  Returns None when a variable slot has no candidate."""
    children = []
    pid = pid_start
    for want_var, dim in zip(pattern, head.arg_dims):
        if want_var:
            names = sorted(n for n, d in variables.items() if d == dim)
            if not names:
                return None
            children.append(VarLeaf(names[int(rng.integers(len(names)))], dim))
        else:
            init = tuple(float(x) for x in rng.normal(0.0, _PARAM_INIT_STD, size=dim))
            children.append(ParamLeaf(pid, dim, init))
            pid += 1
    return tuple(children)


def _application_key(name: str, children: tuple) -> str:
    """``canonical_key`` of one application with leaf arguments."""
    return f"({name} {' '.join('?' if isinstance(c, ParamLeaf) else c.name for c in children)})"


def expand_empty(registry: Registry, schema: object, run_seed: int) -> list[_Proto]:
    """Proposals for the empty program: one application of each action per
    argument pattern."""
    variables = _as_variables(schema)
    protos = []
    for action in registry.actions():
        for pattern in itertools.product((False, True), repeat=action.arity):
            seed = _derive_seed(run_seed, "()", -1, action.name, pattern)
            rng = np.random.default_rng(seed)
            children = _build_subtree(action, pattern, variables, 0, rng)
            if children is None:
                continue
            subtree = ActionNode(action.name, children, action.out_dim)
            key = _application_key(action.name, children)
            counts = (1, pattern.count(False), pattern.count(True))
            protos.append(_Proto(None, {}, subtree, "()", None, seed, key, counts))
    return protos


def expand(
    cand: Candidate,
    registry: Registry,
    trace: ObservationTrace,
    run_seed: int,
    leaf_rank: int = 0,
) -> list[_Proto]:
    """Proposals replacing the rank-``leaf_rank`` gradient-selected leaf of
    a candidate with every type-compatible depth-1 application.

    For a leaf of dimension d and each compatible function, all 2^arity
    parameter/variable argument patterns are proposed; surviving parameters
    keep the candidate's optimised values.  Each proposal's key is the
    parent's key with the application's text in place of the leaf's, and
    its counts follow from the parent's.
    """
    ranked = ranked_leaves(cand)
    if leaf_rank >= len(ranked):
        return []
    leaf_id = ranked[leaf_rank]
    tree_leaves = leaves(cand.ast)
    position = [nid for nid, _ in tree_leaves].index(leaf_id)
    leaf = tree_leaves[position][1]
    # leaf tokens of the key, in preorder; a function name follows "("
    spans = [
        m.span() for m in re.finditer(r"[^\s()]+", cand.key) if cand.key[m.start() - 1] != "("
    ]
    start, end = spans[position]
    prefix, suffix = cand.key[:start], cand.key[end:]
    # the leaf's depth is the number of applications still open before it
    leaf_depth = prefix.count("(") - prefix.count(")")
    tree_depth = max(depth(cand.ast), leaf_depth + 1)
    n_params = sum(isinstance(n, ParamLeaf) for _, n in tree_leaves) - isinstance(leaf, ParamLeaf)
    n_vars = len(tree_leaves) - 1 - n_params
    variables = _as_variables(trace.schema)
    pid_start = next_pid(cand.ast)
    protos = []
    for fn in registry.pure_functions():
        if fn.out_dim != leaf.dim:
            continue
        for pattern in itertools.product((False, True), repeat=fn.arity):
            seed = _derive_seed(run_seed, cand.key, leaf_id, fn.name, pattern)
            rng = np.random.default_rng(seed)
            children = _build_subtree(fn, pattern, variables, pid_start, rng)
            if children is None:
                continue
            subtree = FunctionNode(fn.name, children, fn.out_dim)
            key = prefix + _application_key(fn.name, children) + suffix
            counts = (tree_depth, n_params + pattern.count(False), n_vars + pattern.count(True))
            protos.append(
                _Proto(cand.ast, cand.opt.params, subtree, cand.key, leaf_id, seed, key, counts)
            )
    return protos


def induce(
    trace: ObservationTrace,
    registry: Registry,
    spec: ErrorSpec | None = None,
    config: RunConfig = RunConfig(),
) -> SolutionSet:
    """Search for a program whose execution matches the trace.

    Queues the expansions of the empty program, then repeatedly pops the
    first queue entry.  A deferred proposal is optimised and pushed back
    with its score; a candidate is returned if it matches, otherwise its
    highest-gradient leaf is expanded and the new proposals are queued,
    deferred.  A popped candidate with more than one leaf is re-pushed once
    so its second-best leaf also gets expanded.  Only pops of candidates
    count as iterations.

    Returns the accepted candidate (if one was found) plus the ``top_k``
    best-scoring structures among every proposal that optimising on arrival
    would have scored: once the search ends, deferred proposals are
    optimised in queue order until the next bound exceeds the k-th best
    score.
    """
    if not registry.actions():
        raise ValueError("registry must contain at least one action")
    t0 = perf_counter()
    if spec is None:
        spec = config.error_spec()
    opt_config = config.optimize_config()
    index = build_variable_index(trace)
    queue = CandidateQueue()
    # structure key -> ((score, complexity, n), best candidate); ``n`` keeps
    # the first-queued candidate on a tie, whatever order they are optimised in
    scored: dict[str, tuple[tuple[float, float, int], Candidate]] = {}
    optimised = opt_iters = 0

    def optimise(deferred: _Deferred, n: int) -> Candidate:
        nonlocal optimised, opt_iters
        optimised += 1
        proto = deferred.proto
        if canonical_key(proto.ast) != proto.key:
            raise RuntimeError(f"proposal key {proto.key} does not match its tree")
        opt = optimize(proto.ast, proto.params, trace, registry, spec, opt_config, index)
        opt_iters += opt.iterations
        loss = opt.result.loss
        if not loss >= 0.0:
            raise ValueError(f"error model gave the loss {loss!r}; losses must be >= 0")
        cost = complexity(opt.ast, config.weights)
        if cost != deferred.complexity:
            raise RuntimeError(f"re-binding changed the complexity of {proto.key}")
        cand = Candidate(
            opt=opt,
            loss=loss,
            complexity=cost,
            score=cost + loss,
            key=canonical_key(opt.ast),
            parent_key=proto.parent_key,
            expansion_leaf=proto.expansion_leaf,
            seed=proto.seed,
        )
        rank = (cand.score, cost, n)
        prev = scored.get(cand.key)
        if prev is None or rank < prev[0]:
            scored[cand.key] = (rank, cand)
        return cand

    def defer(protos: list[_Proto]) -> None:
        for proto in sorted(protos, key=lambda p: p.key):
            if proto.key not in queue.visited:
                queue.visited.add(proto.key)
                queue.push(_Deferred(proto, proto.complexity(config.weights)))

    defer(expand_empty(registry, trace.schema, config.seed))

    iterations = 0
    solution = None
    while len(queue) and iterations < config.max_iterations:
        cand, leaf_rank, n = queue.pop()
        if isinstance(cand, _Deferred):
            queue.push(optimise(cand, n), n=n)
            continue
        iterations += 1
        if matches_trace(cand.opt.result):
            solution = cand
            break
        defer(expand(cand, registry, trace, config.seed, leaf_rank))
        if leaf_rank == 0 and len(leaves(cand.ast)) > 1:
            queue.push(cand, leaf_rank=1)

    # every entry still queued has a true score >= its key, so once a bound
    # exceeds the k-th best score no later entry can enter the top k
    while len(queue):
        cand, _, n = queue.pop()
        if not isinstance(cand, _Deferred):
            continue
        if len(scored) >= config.top_k:
            kth = heapq.nsmallest(config.top_k, (rank[0] for rank, _ in scored.values()))[-1]
            if cand.complexity > kth:
                break
        optimise(cand, n)

    top = sorted((c for _, c in scored.values()), key=lambda c: (c.score, c.complexity, c.key))
    return SolutionSet(
        solution,
        tuple(top[: config.top_k]),
        iterations,
        len(queue.visited),
        optimised,
        opt_iters,
        perf_counter() - t0,
    )


def enumerate_programs(registry: Registry, schema: object, max_depth: int) -> int:
    """Exact count of distinct program structures (parameters collapsed, variable
    names distinct, argument order significant) of depth at most ``max_depth``
    under the expansion grammar."""
    variables = _as_variables(schema)
    fns = registry.pure_functions()

    def n_vars(dim: int) -> int:
        return sum(1 for d in variables.values() if d == dim)

    @lru_cache(maxsize=None)
    def slot_count(dim: int, budget: int) -> int:
        total = 1 + n_vars(dim)
        if budget >= 1:
            for fn in fns:
                if fn.out_dim != dim:
                    continue
                prod = 1
                for ad in fn.arg_dims:
                    prod *= slot_count(ad, budget - 1)
                total += prod
        return total

    if max_depth < 1:
        return 0
    total = 0
    for action in registry.actions():
        prod = 1
        for ad in action.arg_dims:
            prod *= slot_count(ad, max_depth - 1)
        total += prod
    return total
