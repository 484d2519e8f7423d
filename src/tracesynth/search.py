"""Best-first search over program structures.

The search graph connects a tree to every tree obtained by replacing exactly
one leaf with a depth-1 application.  Candidates are scored
``complexity + loss`` and kept in an A* priority queue; the leaf to expand is
the one with the largest loss-gradient norm.

The loss is never negative, so a proposal's complexity, known before any
gradient step, is a lower bound on its score.  Each proposal is therefore
queued unoptimised, keyed by that bound, and optimised only when it reaches
the top of the queue (lazy A*); it then goes back with its true score.  The
proposals of one expansion are not even drawn until then: the queue holds
one entry per expansion and complexity, and only when that entry reaches
the top are its members drawn, de-duplicated by structure key and queued
one by one.  The queue pops exactly the candidates, in exactly the order,
that drawing and optimising every proposal on arrival would, while the
many proposals whose bound is never reached are never drawn.  So only
expansion can count them, and ``proposed`` counts every proposal it
generates, duplicates included.

The whole procedure is deterministic for a fixed seed: every proposal
derives its own RNG seed from content (parent fingerprint, leaf,
replacement), children are merged in fingerprint order.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from collections.abc import Mapping
from functools import cached_property, lru_cache
from time import perf_counter
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .config import RunConfig
from .interpreter import matches_trace
from .optimizer import OptimizedCandidate, optimize
from .program import (
    ComplexityWeights,
    FunctionNode,
    FunctionSpec,
    ParamLeaf,
    ProgramAst,
    Registry,
    VarLeaf,
    canonical_key,
    complexity,
    depth,
    initial_params,
    leaves,
    next_pid,
    node_depth,
    replace_node,
    structural_cost,
)
from .trace import ObservationTrace, TraceSchema, names_by_dim

_PARAM_INIT_STD = math.sqrt(0.1)  # proposals drawn from N(0, variance 0.1)
# Python's default limit on the digits of an int converted to text
MAX_COUNT_DIGITS = 4300
_COUNT_LIMIT = 10**MAX_COUNT_DIGITS


class Candidate(NamedTuple):
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


class SolutionSet(NamedTuple):
    """Outcome of one induction run: the accepted candidate (if any), the
    best-scoring candidates seen, and run counters: search iterations,
    proposals generated by expansion (duplicate structures included, since
    most proposals are never drawn), candidates optimised and their
    optimiser iterations."""

    solution: Candidate | None
    top: tuple[Candidate, ...]
    iterations: int
    proposed: int
    optimised: int
    opt_iters: int
    wall_time: float


class _Deferred(NamedTuple):
    """A queued proposal not yet optimised, with its complexity: a lower
    bound on its score, because the loss is never negative."""

    proto: _Proto
    complexity: float


class _Group(NamedTuple):
    """The proposals of one expansion that share one complexity, queued
    undrawn as one entry; their keys are not known until they are drawn."""

    protos: list[_Proto]
    complexity: float


class CandidateQueue:
    """Priority queue of optimised candidates, deferred proposals and
    groups of undrawn proposals.

    Every entry is ordered by ``(priority, complexity, n)``: the priority of
    a candidate is its score, that of a deferred proposal or a group its
    complexity.  ``n`` is ``(event,)``, ``event`` the insertion counter,
    except for a proposal drawn from a group: it gets the group's event and
    its rank among the group's members by key, ``(event, rank)``, so it
    sorts after its group and before any later entry.  A deferred proposal
    that is popped, optimised and pushed back with its own ``n`` thus keeps
    its place among ties.  Tracks the canonical keys of the proposals drawn
    so far so that no structure is queued twice; ``proposed`` in the
    results counts every proposal generated, duplicates included."""

    def __init__(self) -> None:
        self._heap: list[
            tuple[float, float, tuple[int, ...], Candidate | _Deferred | _Group, int]
        ] = []
        self._counter = itertools.count()
        self.visited: set[str] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        item: Candidate | _Deferred | _Group,
        leaf_rank: int = 0,
        n: tuple[int, ...] | None = None,
    ) -> None:
        """Queue ``item``; ``n`` defaults to the next insertion counter."""
        priority = item.score if isinstance(item, Candidate) else item.complexity
        if n is None:
            n = (next(self._counter),)
        heapq.heappush(self._heap, (priority, item.complexity, n, item, leaf_rank))

    def pop(self) -> tuple[Candidate | _Deferred | _Group, int, tuple[int, ...]]:
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


class _Site(NamedTuple):
    """The leaf an expansion replaces and what its proposals share: the
    parent's tree, optimised parameter values and key, the first free
    parameter id, the name-sorted variables of each dimension and the run
    seed.  The first proposals have no parent tree and no leaf (None)."""

    parent_ast: ProgramAst | None
    parent_params: Mapping[int, np.ndarray]
    parent_key: str
    leaf_id: int | None
    pid_start: int
    names: Mapping[int, list[str]]
    run_seed: int


class _Proto:
    """An unoptimised proposal: an application of ``fn`` in place of its
    site's leaf, whose arguments are parameters or variables as
    ``pattern`` says (True for a variable), with the counts its complexity
    is computed from: depth, parameter leaves and variable leaves.

    Its seed, its drawn arguments, its key, its tree and its initial
    parameter values (the drawn ones, and the parent's optimised values for
    the parameters that survive) are built on first access, since most
    proposals are never drawn.  The arguments are drawn from numpy's
    ``default_rng(seed)``: a variable slot takes ``integers(len(names))``
    and a parameter slot ``normal(0.0, _PARAM_INIT_STD, dim)``.
    """

    def __init__(self, site: _Site, fn: FunctionSpec, pattern: tuple, counts: tuple) -> None:
        self.site, self.fn, self.pattern, self.counts = site, fn, pattern, counts

    @cached_property
    def seed(self) -> int:
        site = self.site
        leaf = -1 if site.leaf_id is None else site.leaf_id
        return _derive_seed(site.run_seed, site.parent_key, leaf, self.fn.name, self.pattern)

    @cached_property
    def children(self) -> tuple[ParamLeaf | VarLeaf, ...]:
        rng = default_rng(self.seed)
        children = []
        pid = self.site.pid_start
        for want_var, dim in zip(self.pattern, self.fn.arg_dims):
            if want_var:
                names = self.site.names[dim]
                children.append(VarLeaf(names[rng.integers(len(names))], dim))
            else:
                init = tuple(rng.normal(0.0, _PARAM_INIT_STD, dim).tolist())
                children.append(ParamLeaf(pid, dim, init))
                pid += 1
        return tuple(children)

    @cached_property
    def key(self) -> str:
        return canonical_key(self.ast)

    @cached_property
    def ast(self) -> ProgramAst:
        fn, site = self.fn, self.site
        node = FunctionNode(fn.name, self.children, fn.out_dim)
        if site.parent_ast is None:
            return ProgramAst(node)
        return replace_node(site.parent_ast, site.leaf_id, node)

    @cached_property
    def params(self) -> dict[int, np.ndarray]:
        params = initial_params(self.ast)
        params.update({pid: v for pid, v in self.site.parent_params.items() if pid in params})
        return params

    def complexity(self, weights: ComplexityWeights) -> float:
        return structural_cost(*self.counts, weights)


def _scored(proto: _Proto, opt: OptimizedCandidate, weights: ComplexityWeights) -> Candidate:
    """The candidate a proposal's optimum makes: scored ``complexity +
    loss``, keyed by its structure, with the proposal's provenance.  Raises
    ``RuntimeError`` if re-binding changed the proposal's complexity."""
    cost = complexity(opt.ast, weights)
    if cost != proto.complexity(weights):
        raise RuntimeError(f"re-binding changed the complexity of {proto.key}")
    loss = opt.result.loss
    return Candidate(
        opt=opt,
        loss=loss,
        complexity=cost,
        score=cost + loss,
        key=canonical_key(opt.ast),
        parent_key=proto.site.parent_key,
        expansion_leaf=proto.site.leaf_id,
        seed=proto.seed,
    )


@lru_cache(maxsize=None)
def _patterns(
    arg_dims: tuple[int, ...], var_dims: frozenset[int]
) -> tuple[tuple[tuple[bool, ...], int], ...]:
    """The argument patterns (True for a variable) whose variable slots all
    have a variable of their dimension, each with its number of variable
    slots."""
    return tuple(
        (pattern, pattern.count(True))
        for pattern in itertools.product((False, True), repeat=len(arg_dims))
        if all(dim in var_dims for want_var, dim in zip(pattern, arg_dims) if want_var)
    )


def _proposals(
    site: _Site, functions: list[FunctionSpec], tree_depth: int, n_params: int, n_vars: int
) -> list[_Proto]:
    """One undrawn proposal per function and drawable argument pattern.  The
    counts are those of the parent's tree without the replaced leaf, and
    the depth of the new tree."""
    var_dims = frozenset(site.names)
    return [
        _Proto(site, fn, pattern, (tree_depth, n_params + fn.arity - new_vars, n_vars + new_vars))
        for fn in functions
        for pattern, new_vars in _patterns(fn.arg_dims, var_dims)
    ]


def expand_empty(registry: Registry, schema: TraceSchema, run_seed: int) -> list[_Proto]:
    """The first proposals of a search: one application of each action per
    argument pattern, each a whole program of depth 1."""
    names = names_by_dim(schema.variables)
    # the parent key "()" is part of every first proposal's seed: keep it
    site = _Site(None, {}, "()", None, 0, names, run_seed)
    return _proposals(site, registry.actions(), 1, 0, 0)


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
    keep the candidate's optimised values.  Each proposal's counts follow
    from the parent's.
    """
    ranked = ranked_leaves(cand)
    if leaf_rank >= len(ranked):
        return []
    leaf_id = ranked[leaf_rank]
    tree_leaves = leaves(cand.ast)
    leaf = dict(tree_leaves)[leaf_id]
    tree_depth = max(depth(cand.ast), node_depth(cand.ast, leaf_id) + 1)
    n_params = sum(isinstance(n, ParamLeaf) for _, n in tree_leaves) - isinstance(leaf, ParamLeaf)
    n_vars = len(tree_leaves) - 1 - n_params
    names = trace.index.names
    site = _Site(cand.ast, cand.opt.params, cand.key, leaf_id, next_pid(cand.ast), names, run_seed)
    functions = [fn for fn in registry.pure_functions() if fn.out_dim == leaf.dim]
    return _proposals(site, functions, tree_depth, n_params, n_vars)


def induce(
    trace: ObservationTrace, registry: Registry, config: RunConfig = RunConfig()
) -> SolutionSet:
    """Search for a program whose execution matches the trace under
    ``config``'s error model (``RunConfig.error_spec``).

    Queues the first proposals (``expand_empty``), then repeatedly pops the
    first queue entry.  A group is drawn, and those of its proposals whose
    structure is not queued yet go back deferred; a deferred proposal is
    optimised and pushed back with its score; a candidate is returned if it
    matches, otherwise its highest-gradient leaf is expanded and the new
    proposals are queued undrawn, one group per complexity.  A popped
    candidate with more than one leaf is re-pushed once so its second-best
    leaf also gets expanded.  Only pops of candidates count as iterations.

    Returns the accepted candidate (if one was found) plus the ``top_k``
    best-scoring structures among every proposal that optimising on arrival
    would have scored: once the search ends, groups are drawn and deferred
    proposals optimised in queue order until the next bound exceeds the
    k-th best score.
    """
    if not registry.actions():
        raise ValueError("registry must contain at least one action")
    t0 = perf_counter()
    spec = config.error_spec()
    opt_config = config.optimize_config()
    queue = CandidateQueue()
    # structure key -> ((score, complexity, n), best candidate); ``n`` keeps
    # the first-queued candidate on a tie, whatever order they are optimised in
    scored: dict[str, tuple[tuple[float, float, tuple[int, ...]], Candidate]] = {}
    proposed = optimised = opt_iters = 0

    def optimise(deferred: _Deferred, n: tuple[int, ...]) -> Candidate:
        nonlocal optimised, opt_iters
        optimised += 1
        proto = deferred.proto
        opt = optimize(proto.ast, proto.params, trace, registry, spec, opt_config)
        opt_iters += opt.iterations
        cand = _scored(proto, opt, config.weights)
        rank = (cand.score, cand.complexity, n)
        prev = scored.get(cand.key)
        if prev is None or rank < prev[0]:
            scored[cand.key] = (rank, cand)
        return cand

    def defer(protos: list[_Proto]) -> None:
        nonlocal proposed
        proposed += len(protos)
        groups: dict[float, list[_Proto]] = {}
        for proto in protos:
            groups.setdefault(proto.complexity(config.weights), []).append(proto)
        for cost, members in groups.items():
            queue.push(_Group(members, cost))

    # equal keys mean equal structures, hence equal complexities, and groups
    # of one complexity pop in event order: every key is first drawn in the
    # group that would have queued it had every proposal been drawn on arrival
    def draw(group: _Group, n: tuple[int, ...]) -> None:
        rank = itertools.count()
        for proto in sorted(group.protos, key=lambda p: p.key):
            if proto.key not in queue.visited:
                queue.visited.add(proto.key)
                queue.push(_Deferred(proto, group.complexity), n=(*n, next(rank)))

    defer(expand_empty(registry, trace.schema, config.seed))

    iterations = 0
    solution = None
    while len(queue) and iterations < config.max_iterations:
        cand, leaf_rank, n = queue.pop()
        if isinstance(cand, _Group):
            draw(cand, n)
            continue
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
        if isinstance(cand, Candidate):
            continue
        if len(scored) >= config.top_k:
            kth = heapq.nsmallest(config.top_k, (rank[0] for rank, _ in scored.values()))[-1]
            if cand.complexity > kth:
                break
        if isinstance(cand, _Group):
            draw(cand, n)
        else:
            optimise(cand, n)

    top = sorted((c for _, c in scored.values()), key=lambda c: (c.score, c.complexity, c.key))
    return SolutionSet(
        solution,
        tuple(top[: config.top_k]),
        iterations,
        proposed,
        optimised,
        opt_iters,
        perf_counter() - t0,
    )


def enumerate_programs(registry: Registry, schema: TraceSchema, max_depth: int) -> int:
    """Exact count of distinct program structures (parameters collapsed, variable
    names distinct, argument order significant) of depth at most ``max_depth``
    under the expansion grammar.  Raises ``ValueError`` for a negative depth
    and once the count has more than ``MAX_COUNT_DIGITS`` digits.

    Counts one depth at a time: a slot of a dimension holds a parameter, a
    variable or an application whose slots hold one depth less.  Slot counts
    saturate at the limit, which leaves every count below it exact, and the
    count stops growing once no slot count changes."""
    if max_depth < 0:
        raise ValueError(f"depth must be >= 0, not {max_depth}")
    fns = registry.pure_functions()
    actions = registry.actions()
    dims = {d for fn in (*fns, *actions) for d in (*fn.arg_dims, fn.out_dim)}
    leaf_counts = {d: 1 + sum(1 for v in schema.variables.values() if v == d) for d in dims}
    slots = leaf_counts
    total = 0
    for _ in range(max_depth):
        total = sum(math.prod(slots[d] for d in action.arg_dims) for action in actions)
        if total >= _COUNT_LIMIT:
            raise ValueError(
                f"more than {MAX_COUNT_DIGITS} digits in the count of structures"
                f" of depth <= {max_depth}"
            )
        grown = dict(leaf_counts)
        for fn in fns:
            grown[fn.out_dim] += math.prod(slots[d] for d in fn.arg_dims)
        grown = {d: min(count, _COUNT_LIMIT) for d, count in grown.items()}
        if grown == slots:
            break
        slots = grown
    return total
