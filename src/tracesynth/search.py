"""Best-first search over program structures.

The search graph connects a tree to every tree obtained by replacing exactly
one leaf with a depth-1 application.  Candidates are optimised on arrival,
scored ``complexity + loss``, and pushed to a priority queue; the leaf to
expand is the one with the largest loss-gradient norm.  The whole procedure
is deterministic for a fixed seed: every proposal derives its own RNG seed
from content (parent fingerprint, leaf, replacement), children are merged in
fingerprint order.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass
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
    best-scoring candidates seen, and run counters."""

    solution: Candidate | None
    top: tuple[Candidate, ...]
    iterations: int
    wall_time: float


class CandidateQueue:
    """Priority queue ordered by ascending score, then lower complexity,
    then insertion order.  Tracks canonical keys already scheduled for
    optimisation so no structure is optimised twice."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, float, int, Candidate, int]] = []
        self._counter = itertools.count()
        self.visited: set[str] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, cand: Candidate, leaf_rank: int = 0) -> None:
        heapq.heappush(
            self._heap, (cand.score, cand.complexity, next(self._counter), cand, leaf_rank)
        )

    def pop(self) -> tuple[Candidate, int]:
        _, _, _, cand, leaf_rank = heapq.heappop(self._heap)
        return cand, leaf_rank


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
    """An unoptimised proposal: structure, initial values, provenance."""

    ast: ProgramAst
    params: dict[int, np.ndarray]
    parent_key: str | None
    expansion_leaf: int | None
    seed: int

    @property
    def key(self) -> str:
        return canonical_key(self.ast)


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

    Starts from the optimised expansions of the empty program; repeatedly
    pops the best-scoring candidate, returns it if it matches, otherwise
    expands its highest-gradient leaf, optimises the children and pushes
    them.  A popped candidate with more than one leaf is re-pushed once so
    its second-best leaf also gets expanded.
    Returns the accepted candidate (if one was found) plus the ``top_k``
    best-scoring structures seen.
    """
    if not registry.actions():
        raise ValueError("registry must contain at least one action")
    t0 = perf_counter()
    if spec is None:
        spec = config.error_spec()
    opt_config = config.optimize_config()
    index = build_variable_index(trace)
    queue = CandidateQueue()
    scored: dict[str, Candidate] = {}

    def optimise_proto(proto: _Proto) -> Candidate:
        opt = optimize(proto.ast, proto.params, trace, registry, spec, opt_config, index)
        loss = opt.result.loss
        cost = complexity(opt.ast, config.weights)
        return Candidate(
            opt=opt,
            loss=loss,
            complexity=cost,
            score=cost + loss,
            key=canonical_key(opt.ast),
            parent_key=proto.parent_key,
            expansion_leaf=proto.expansion_leaf,
            seed=proto.seed,
        )

    def run_batch(protos: list[_Proto]) -> list[Candidate]:
        fresh = []
        for proto in sorted(protos, key=lambda p: p.key):
            if proto.key not in queue.visited:
                queue.visited.add(proto.key)
                fresh.append(proto)
        cands = [optimise_proto(p) for p in fresh]
        for cand in cands:
            prev = scored.get(cand.key)
            if prev is None or (cand.score, cand.complexity) < (prev.score, prev.complexity):
                scored[cand.key] = cand
        return cands

    for cand in run_batch(expand_empty(registry, trace.schema, config.seed)):
        queue.push(cand)

    iterations = 0
    solution = None
    while len(queue) and iterations < config.max_iterations:
        cand, leaf_rank = queue.pop()
        iterations += 1
        if matches(cand, spec):
            solution = cand
            break
        for child in run_batch(expand(cand, registry, trace, config.seed, leaf_rank)):
            queue.push(child)
        if leaf_rank == 0 and len(leaves(cand.ast)) > 1:
            queue.push(cand, leaf_rank=1)

    top = sorted(scored.values(), key=lambda c: (c.score, c.complexity, c.key))
    return SolutionSet(solution, tuple(top[: config.top_k]), iterations, perf_counter() - t0)


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
