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
never reached are never optimised.

The whole procedure is deterministic for a fixed seed: every proposal
derives its own RNG seed from content (parent fingerprint, leaf,
replacement), children are merged in fingerprint order.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter

import numpy as np

from .config import RunConfig
from .interpreter import ErrorSpec, matches_trace
from .optimizer import OptimizedCandidate, optimize
from .program import (
    ActionNode,
    FunctionNode,
    ParamLeaf,
    ProgramAst,
    Registry,
    VarLeaf,
    _as_variables,
    canonical_key,
    complexity,
    initial_params,
    leaves,
    next_pid,
    replace_node,
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
    distinct proposals queued and candidates optimised."""

    solution: Candidate | None
    top: tuple[Candidate, ...]
    iterations: int
    proposed: int
    optimised: int
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


def matches(cand: Candidate, spec: ErrorSpec) -> bool:
    """Acceptance test: the candidate's final execution covered the whole
    trace with every step error within threshold and zero length error."""
    return matches_trace(cand.opt.result, spec)


def ranked_leaves(cand: Candidate) -> list[int]:
    """Leaf node ids ordered by descending gradient norm; ties fall back to
    leftmost-first (preorder) order."""
    norms = cand.opt.grads.leaf_norms()
    ids = [nid for nid, _ in leaves(cand.ast)]
    return sorted(ids, key=lambda nid: (-norms.get(nid, 0.0), nid))


def select_expansion_leaf(cand: Candidate) -> int:
    """The leaf (parameter or variable slot) with the largest gradient
    norm."""
    ranked = ranked_leaves(cand)
    if not ranked:
        raise ValueError("candidate has no leaves to expand")
    return ranked[0]


def _derive_seed(*parts: object) -> int:
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class _Proto:
    """An unoptimised proposal: structure, initial values, provenance, and
    the structure key, computed once when the proposal is built."""

    ast: ProgramAst
    params: dict[int, np.ndarray]
    parent_key: str | None
    expansion_leaf: int | None
    seed: int
    key: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", canonical_key(self.ast))


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
            children.append(VarLeaf(str(rng.choice(names)), dim))
        else:
            init = tuple(float(x) for x in rng.normal(0.0, _PARAM_INIT_STD, size=dim))
            children.append(ParamLeaf(pid, dim, init))
            pid += 1
    return tuple(children)


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
            ast = ProgramAst(ActionNode(action.name, children, action.out_dim))
            protos.append(_Proto(ast, initial_params(ast), "()", None, seed))
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
    keep the candidate's optimised values.
    """
    ranked = ranked_leaves(cand)
    if leaf_rank >= len(ranked):
        return []
    leaf_id = ranked[leaf_rank]
    leaf = dict(leaves(cand.ast))[leaf_id]
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
            ast = replace_node(cand.ast, leaf_id, subtree)
            params = initial_params(ast)
            params.update({pid: v for pid, v in cand.opt.params.items() if pid in params})
            protos.append(_Proto(ast, params, cand.key, leaf_id, seed))
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
    optimised = 0

    def optimise(deferred: _Deferred, n: int) -> Candidate:
        nonlocal optimised
        optimised += 1
        proto = deferred.proto
        opt = optimize(proto.ast, proto.params, trace, registry, spec, opt_config, index)
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
                queue.push(_Deferred(proto, complexity(proto.ast, config.weights)))

    defer(expand_empty(registry, trace.schema, config.seed))

    iterations = 0
    solution = None
    while len(queue) and iterations < config.max_iterations:
        cand, leaf_rank, n = queue.pop()
        if isinstance(cand, _Deferred):
            queue.push(optimise(cand, n), n=n)
            continue
        iterations += 1
        if matches(cand, spec):
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
