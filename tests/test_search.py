import dataclasses
import math
from functools import cache

import numpy as np
import pytest

import tracesynth.search as search
from tracesynth import (
    Candidate,
    CandidateQueue,
    ErrorSpec,
    Gradients,
    OptimizedCandidate,
    PaddleConfig,
    RunConfig,
    SecondOrderConfig,
    enumerate_programs,
    execute,
    induce,
    matches_trace,
    parse_program,
    simulate_paddle,
    simulate_second_order,
    standard_registry,
)
from tracesynth.program import (
    FunctionSpec,
    Registry,
    canonical_key,
    complexity,
    initial_params,
    iter_nodes,
    leaves,
    node_depth,
)
from tracesynth.search import expand, expand_empty, ranked_leaves
from tests.conftest import eager_induce, make_trace
from tests.test_program import _random_ast
from tests.test_golden import CASES as GOLDEN_CASES


def _candidate(ast, registry, trace, norms=None, params=None, spec=None):
    """Wrap a program into a Candidate with hand-specified gradient norms."""
    spec = spec or ErrorSpec(max_step_error=1e9)
    params = params if params is not None else initial_params(ast)
    result = execute(ast, params, trace, registry, spec)
    slot_leaves = leaves(ast)
    norms = norms or {}
    param_grads, slot_reads = {}, {}
    for nid, leaf in slot_leaves:
        g = np.array([norms.get(nid, 0.0)])
        if hasattr(leaf, "pid"):
            param_grads[leaf.pid] = g
        else:
            slot_reads[nid] = g.reshape(1, 1)
    grads = Gradients(param_grads, slot_reads)
    opt = OptimizedCandidate(ast, params, result, grads, iterations=0, stop="fixed")
    cost = complexity(ast)
    return Candidate(opt, result.loss, cost, cost + result.loss, canonical_key(ast), None, None, 0)


class TestLeafSelection:
    def test_argmax_norm(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        ast = parse_program("(accel (add (scale 0.1 x) v))", scalar_registry, scalar_schema)
        # leaves in preorder: param(0.1) at some id, x, v
        ids = [nid for nid, _ in leaves(ast)]
        cand = _candidate(
            ast, scalar_registry, trace, norms={ids[0]: 0.02, ids[1]: 1.4, ids[2]: 0.3}
        )
        assert ranked_leaves(cand)[0] == ids[1]

    def test_all_zero_leftmost(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        ast = parse_program("(accel (add x v))", scalar_registry, scalar_schema)
        ids = [nid for nid, _ in leaves(ast)]
        cand = _candidate(ast, scalar_registry, trace)
        assert ranked_leaves(cand)[0] == min(ids)

    def test_single_leaf(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        (nid, _), = leaves(ast)
        cand = _candidate(ast, scalar_registry, trace, norms={nid: 5.0})
        assert ranked_leaves(cand)[0] == nid


class TestExpand:
    def test_scalar_leaf_yields_12(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        ast = parse_program("(accel 0.5)", scalar_registry, scalar_schema)
        cand = _candidate(ast, scalar_registry, trace)
        protos = expand(cand, scalar_registry, trace, run_seed=0)
        assert len(protos) == 12  # 2^2 patterns x 3 functions

    def test_empty_program_expansion(self):
        registry = standard_registry({"x": 1, "v": 1}, {"accel": 1})
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        protos = expand_empty(registry, trace.schema, run_seed=0)
        keys = sorted(p.key for p in protos)
        assert len(protos) == 2  # param pattern and variable pattern
        assert keys[0] == "(accel ?)"
        assert keys[1] in ("(accel x)", "(accel v)")

    def test_no_compatible_function_empty(self):
        # only 2-dimensional functions registered; scalar leaf cannot expand
        registry = Registry()
        registry.register(
            FunctionSpec("pair", (2, 2), 2),
            lambda a, b: a + b,
            lambda args, g: (g, g),
        )
        registry.register(
            FunctionSpec("accel", (1,), 1, is_action=True),
            lambda x: x,
            lambda args, g: (g,),
        )
        trace = make_trace({"x": [1.0]}, [1.0])
        ast = parse_program("(accel 0.5)", registry, {"x": 1})
        cand = _candidate(ast, registry, trace)
        assert expand(cand, registry, trace, run_seed=0) == []

    def test_children_differ_in_exactly_one_leaf(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        ast = parse_program("(accel (add x 0.5))", scalar_registry, scalar_schema)
        ids = [nid for nid, _ in leaves(ast)]
        cand = _candidate(ast, scalar_registry, trace, norms={ids[0]: 9.0})
        selected = ranked_leaves(cand)[0]
        for proto in expand(cand, scalar_registry, trace, run_seed=1):
            # the selected leaf is replaced by a depth-1 application
            parent_nodes = dict(leaves(cand.ast))
            child_leaf_ids = {nid for nid, _ in leaves(proto.ast)}
            assert selected not in child_leaf_ids or not isinstance(
                dict(leaves(proto.ast)).get(selected), type(parent_nodes[selected])
            )
            assert proto.site.leaf_id == selected

    def test_deterministic_across_calls(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        ast = parse_program("(accel 0.5)", scalar_registry, scalar_schema)
        cand = _candidate(ast, scalar_registry, trace)
        a = [(p.key, p.seed) for p in expand(cand, scalar_registry, trace, run_seed=7)]
        b = [(p.key, p.seed) for p in expand(cand, scalar_registry, trace, run_seed=7)]
        assert a == b
        c = [(p.key, p.seed) for p in expand(cand, scalar_registry, trace, run_seed=8)]
        assert [k for k, _ in a] != [k for k, _ in c] or a != c

    def test_surviving_params_keep_values(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        ast = parse_program("(accel (add x 0.5))", scalar_registry, scalar_schema)
        ids = [nid for nid, _ in leaves(ast)]
        # select the variable leaf so the param leaf survives
        cand = _candidate(ast, scalar_registry, trace, norms={ids[0]: 9.0})
        tuned = dict(cand.opt.params)
        assert ranked_leaves(cand)[0] == ids[0]
        for proto in expand(cand, scalar_registry, trace, run_seed=1):
            for pid, val in tuned.items():
                if pid in proto.params:
                    np.testing.assert_array_equal(proto.params[pid], val)

    @pytest.mark.parametrize(
        "text",
        [
            "(accel 0.5)",
            "(accel (add x 0.5))",
            "(accel (sub (scale 0.5 (add v x)) x))",
            *range(8),  # seeds of random trees of depth budget 3
        ],
    )
    def test_key_and_complexity_without_the_tree(self, text, scalar_registry, scalar_schema):
        # complexities are counted from the parent's, at every leaf and
        # depth; nothing is drawn or built until asked for
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        if isinstance(text, str):
            ast = parse_program(text, scalar_registry, scalar_schema)
        else:
            ast = _random_ast(np.random.default_rng(text), 3)
        cand = _candidate(ast, scalar_registry, trace)
        weights = RunConfig().weights
        protos = [
            proto
            for rank in range(len(leaves(ast)))
            for proto in expand(cand, scalar_registry, trace, 5, rank)
        ]
        assert len(protos) == 12 * len(leaves(ast))
        assert not any({"seed", "key", "ast"} & proto.__dict__.keys() for proto in protos)
        for proto in protos:
            assert proto.key == canonical_key(proto.ast)
            assert proto.complexity(weights) == complexity(proto.ast, weights)
            assert _walk_depths(proto.ast) == _ancestor_counts(proto.ast.root)
        for proto in expand_empty(scalar_registry, scalar_schema, 5):
            assert proto.key == canonical_key(proto.ast)
            assert proto.complexity(weights) == complexity(proto.ast, weights)
        assert _walk_depths(ast) == _ancestor_counts(ast.root)


def _walk_depths(ast):
    """The depth of every node of the tree from the memoised walk, in preorder."""
    return [node_depth(ast, nid) for nid, _ in iter_nodes(ast)]


def _ancestor_counts(node, ancestors=0):
    """The number of ancestors of every node of the subtree, in preorder,
    counted by recursion."""
    out = [ancestors]
    for child in getattr(node, "children", ()):
        out += _ancestor_counts(child, ancestors + 1)
    return out


class TestQueue:
    def test_pop_order_score_then_complexity(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        queue = CandidateQueue()
        asts = {
            "a": parse_program("(accel (scale 1.0 x))", scalar_registry, scalar_schema),
            "b": parse_program("(accel x)", scalar_registry, scalar_schema),
            "c": parse_program("(accel 1.0)", scalar_registry, scalar_schema),
        }
        import dataclasses

        cands = {name: _candidate(ast, scalar_registry, trace) for name, ast in asts.items()}
        # force equal scores; complexities differ: b=11 < c=15 < a=26
        for name in ("a", "c", "b"):
            queue.push(dataclasses.replace(cands[name], score=26.0))
        popped = [queue.pop()[0] for _ in range(3)]
        assert [c.complexity for c in popped] == sorted(c.complexity for c in popped)

    def test_pops_monotone_in_score(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        rng = np.random.default_rng(0)
        queue = CandidateQueue()
        import dataclasses

        base = _candidate(
            parse_program("(accel x)", scalar_registry, scalar_schema),
            scalar_registry,
            trace,
        )
        for _ in range(50):
            queue.push(dataclasses.replace(base, score=float(rng.uniform(0, 100))))
        scores = [queue.pop()[0].score for _ in range(50)]
        assert scores == sorted(scores)

    def test_insertion_order_breaks_remaining_ties(self, scalar_registry, scalar_schema):
        import dataclasses

        trace = make_trace({"x": [1.0], "v": [1.0]}, [1.0])
        base = _candidate(
            parse_program("(accel x)", scalar_registry, scalar_schema),
            scalar_registry,
            trace,
        )
        queue = CandidateQueue()
        first = dataclasses.replace(base, seed=1)
        second = dataclasses.replace(base, seed=2)
        queue.push(first)
        queue.push(second)
        assert queue.pop()[0].seed == 1
        assert queue.pop()[0].seed == 2


def test_induce_refuses_a_registry_contradicting_the_schema():
    trace = simulate_second_order(SecondOrderConfig(steps=20))
    registry = standard_registry(trace.schema.variables, {"accel": 2})
    with pytest.raises(ValueError, match="accel has dimension 1 in the trace schema, not 2"):
        induce(trace, registry, config=RunConfig(max_iterations=5))


class TestMatches:
    def test_perfect(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.0, 2.0], "v": [0, 0]}, [1.0, 2.0])
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        spec = ErrorSpec()
        cand = _candidate(ast, scalar_registry, trace, spec=spec)
        assert matches_trace(cand.opt.result)

    def test_early_termination_false(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [5.0, 2.0], "v": [0, 0]}, [1.0, 2.0])
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        spec = ErrorSpec(max_step_error=0.1)
        cand = _candidate(ast, scalar_registry, trace, spec=spec)
        assert not matches_trace(cand.opt.result)

    def test_boundary_inclusive(self, scalar_registry, scalar_schema):
        trace = make_trace({"x": [1.5], "v": [0]}, [1.0])
        ast = parse_program("(accel x)", scalar_registry, scalar_schema)
        spec = ErrorSpec(max_step_error=0.5)
        cand = _candidate(ast, scalar_registry, trace, spec=spec)
        assert matches_trace(cand.opt.result)


def brute_force_structures(registry, variables, max_depth):
    """Independent enumeration oracle: explicitly build every canonical
    structure string up to the depth bound."""

    def slot_terms(dim, budget):
        terms = ["?"] + sorted(n for n, d in variables.items() if d == dim)
        if budget >= 1:
            for fn in registry.pure_functions():
                if fn.out_dim != dim:
                    continue
                child_sets = [slot_terms(d, budget - 1) for d in fn.arg_dims]
                from itertools import product

                for combo in product(*child_sets):
                    terms.append("(" + fn.name + " " + " ".join(combo) + ")")
        return terms

    out = set()
    for action in registry.actions():
        from itertools import product

        child_sets = [slot_terms(d, max_depth - 1) for d in action.arg_dims]
        if max_depth < 1:
            continue
        for combo in product(*child_sets):
            out.add("(" + action.name + " " + " ".join(combo) + ")")
    return out


class TestEnumerate:
    def test_negative_depth_raises(self, scalar_registry, scalar_schema):
        with pytest.raises(ValueError, match="depth must be >= 0, not -1"):
            enumerate_programs(scalar_registry, scalar_schema, -1)
        assert enumerate_programs(scalar_registry, scalar_schema, 0) == 0

    def test_tiny_grammar_depth1(self):
        registry = Registry()
        registry.register(
            FunctionSpec("f", (1, 1), 1), lambda a, b: a + b, lambda args, g: (g, g)
        )
        registry.register(
            FunctionSpec("a", (1,), 1, is_action=True), lambda x: x, lambda args, g: (g,)
        )
        assert enumerate_programs(registry, {"x": 1}, 1) == 2

    def test_tiny_grammar_depth2(self):
        registry = Registry()
        registry.register(
            FunctionSpec("f", (1, 1), 1), lambda a, b: a + b, lambda args, g: (g, g)
        )
        registry.register(
            FunctionSpec("a", (1,), 1, is_action=True), lambda x: x, lambda args, g: (g,)
        )
        assert enumerate_programs(registry, {"x": 1}, 2) == 6

    def test_matches_brute_force_tiny(self):
        registry = Registry()
        registry.register(
            FunctionSpec("f", (1, 1), 1), lambda a, b: a + b, lambda args, g: (g, g)
        )
        registry.register(
            FunctionSpec("a", (1,), 1, is_action=True), lambda x: x, lambda args, g: (g,)
        )
        for d in (1, 2, 3):
            want = len(brute_force_structures(registry, {"x": 1}, d))
            assert enumerate_programs(registry, {"x": 1}, d) == want

    def test_matches_brute_force_experiment_grammar(self, scalar_registry):
        variables = {"x": 1, "v": 1}
        for d in (1, 2, 3):
            want = len(brute_force_structures(scalar_registry, variables, d))
            assert enumerate_programs(scalar_registry, variables, d) == want

    def test_depth_zero(self, scalar_registry):
        assert enumerate_programs(scalar_registry, {"x": 1, "v": 1}, 0) == 0

    def test_matches_recursive_reference(self, scalar_registry):
        variables = {"x": 1, "v": 1}
        for d in range(14):
            want = _recursive_count(scalar_registry, variables, d)
            assert enumerate_programs(scalar_registry, variables, d) == want

    def test_grammar_without_functions_stops_growing(self):
        registry = Registry()
        registry.register(
            FunctionSpec("a", (1,), 1, is_action=True), lambda x: x, lambda args, g: (g,)
        )
        assert enumerate_programs(registry, {"x": 1}, 10**9) == 2


def _recursive_count(registry, variables, max_depth):
    """Reference count: a slot of dimension ``dim`` with ``budget``
    applications below it holds a parameter, a variable or a function of
    slots with one budget less."""

    @cache
    def slot_count(dim, budget):
        total = 1 + sum(1 for d in variables.values() if d == dim)
        if budget >= 1:
            for fn in registry.pure_functions():
                if fn.out_dim == dim:
                    total += math.prod(slot_count(ad, budget - 1) for ad in fn.arg_dims)
        return total

    if max_depth < 1:
        return 0
    return sum(
        math.prod(slot_count(ad, max_depth - 1) for ad in action.arg_dims)
        for action in registry.actions()
    )


class TestInduce:
    def test_constant_action_trace(self, scalar_registry):
        # theta constant 0.7: minimal program is a single parameter
        trace = make_trace(
            {"x": np.linspace(0, 1, 20).tolist(), "v": np.linspace(1, 0, 20).tolist()},
            [0.7] * 20,
        )
        config = RunConfig(seed=1, max_step_error=0.05, max_iterations=50)
        sol = induce(trace, scalar_registry, config=config)
        assert sol.solution is not None
        assert sol.solution.key == "(accel ?)"
        assert sol.solution.complexity == 15
        p = sol.solution.opt.params[0][0]
        assert abs(p - 0.7) <= 0.05

    def test_reads_the_index_of_its_trace(self, scalar_registry, index_builds):
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=100))
        sol = induce(trace, scalar_registry, config=RunConfig(max_iterations=5))
        assert sol.optimised > 1
        assert index_builds == [trace.index]  # the one built with the trace

    def test_no_action_registry_rejected(self, scalar_registry, scalar_schema):
        registry = Registry()
        registry.register(
            FunctionSpec("f", (1, 1), 1), lambda a, b: a + b, lambda args, g: (g, g)
        )
        trace = make_trace({"x": [1.0], "v": [0.0]}, [1.0])
        with pytest.raises(ValueError):
            induce(trace, registry)

    def test_unfittable_returns_top_k(self, scalar_registry):
        rng = np.random.default_rng(9)
        trace = make_trace(
            {"x": rng.normal(size=12).tolist(), "v": rng.normal(size=12).tolist()},
            rng.normal(size=12).tolist(),
        )
        config = RunConfig(seed=3, max_step_error=1e-6, max_iterations=8, max_opt_iters=60)
        sol = induce(trace, scalar_registry, config=config)
        assert sol.solution is None
        assert 1 <= len(sol.top) <= config.top_k
        assert sol.iterations == 8
        # sorted ascending by score
        scores = [c.score for c in sol.top]
        assert scores == sorted(scores)
        # keys unique (each structure optimised once)
        keys = [c.key for c in sol.top]
        assert len(set(keys)) == len(keys)


def _loss_098_trace():
    """x and v are 0 at step 1, where the observed action is 0.98: every
    parameter-free program terminates there with loss 0.98, so many
    candidates tie on score and complexity."""
    rng = np.random.default_rng(4)
    xs = [0.0] + rng.normal(size=9).tolist()
    vs = [0.0] + rng.normal(size=9).tolist()
    return make_trace({"x": xs, "v": vs}, [0.98] + rng.normal(size=9).tolist())


def _unfittable_trace():
    rng = np.random.default_rng(9)
    return make_trace(
        {"x": rng.normal(size=12).tolist(), "v": rng.normal(size=12).tolist()},
        rng.normal(size=12).tolist(),
    )


EXACTNESS_CASES = {
    **{name: (make, config) for name, (make, config, _) in GOLDEN_CASES.items()},
    "unsolved": (
        _unfittable_trace,
        RunConfig(seed=3, max_step_error=1e-6, max_iterations=8, max_opt_iters=60),
    ),
    # the search ends early, so the top 30 needs deferred proposals optimised
    "paddle_top30": (
        lambda: simulate_paddle(PaddleConfig(steps=100)),
        RunConfig(
            seed=1,
            max_iterations=3,
            max_opt_iters=100,
            max_step_error=0.02,
            error_model="discrete",
            top_k=30,
        ),
    ),
    "ties_at_098": (_loss_098_trace, RunConfig(seed=2, max_iterations=12, max_opt_iters=80)),
}


def _fingerprint(cand):
    if cand is None:
        return None
    params = tuple((pid, v.tobytes()) for pid, v in sorted(cand.opt.params.items()))
    return cand.key, params, cand.score


@pytest.fixture
def popped(monkeypatch):
    """Every candidate the queue pops, with its leaf rank, in order."""
    out = []
    pop = search.CandidateQueue.pop

    def recording_pop(queue):
        item, leaf_rank, n = pop(queue)
        if isinstance(item, Candidate):
            out.append((item, leaf_rank))
        return item, leaf_rank, n

    monkeypatch.setattr(search.CandidateQueue, "pop", recording_pop)
    return out


class TestDeferredSearch:
    @pytest.mark.parametrize("name", sorted(EXACTNESS_CASES))
    def test_same_result_as_eager_reference(self, name, popped):
        make, config = EXACTNESS_CASES[name]
        trace = make()
        registry = standard_registry(trace.schema.variables, trace.schema.actions)
        solution, top, iterations, pops = eager_induce(trace, registry, config)
        result = induce(trace, registry, config=config)
        assert _fingerprint(result.solution) == _fingerprint(solution)
        assert [_fingerprint(c) for c in result.top] == [_fingerprint(c) for c in top]
        assert result.iterations == iterations
        # completing the top k pops more candidates after the search ends
        assert [(c.key, rank) for c, rank in popped[: len(pops)]] == pops
        assert result.optimised <= result.proposed

    def test_top_k_completion_optimises_deferred_proposals(self):
        make, config = EXACTNESS_CASES["paddle_top30"]
        trace = make()
        registry = standard_registry(trace.schema.variables, trace.schema.actions)
        few = induce(trace, registry, config=dataclasses.replace(config, top_k=1))
        many = induce(trace, registry, config=config)
        assert len(many.top) == 30
        assert many.optimised > few.optimised
        assert many.iterations == few.iterations

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_undrawn_proposals_make_no_draws(self, name, monkeypatch):
        # only the proposals whose complexity group reaches the top of the
        # queue are drawn, each with its own generator
        make, config, _ = GOLDEN_CASES[name]
        trace = make()
        registry = standard_registry(trace.schema.variables, trace.schema.actions)
        counts = {"generators": 0, "expanded": 0}

        def counted(fn, key, size=len):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[key] += size(out)
                return out

            return wrapper

        monkeypatch.setattr(search, "Stream", counted(search.Stream, "generators", lambda _: 1))
        monkeypatch.setattr(search, "expand", counted(search.expand, "expanded"))
        monkeypatch.setattr(search, "expand_empty", counted(search.expand_empty, "expanded"))
        result = induce(trace, registry, config=config)
        assert result.proposed == counts["expanded"]
        assert result.optimised <= counts["generators"] <= result.proposed / 4

    def test_many_ties(self):
        make, config = EXACTNESS_CASES["ties_at_098"]
        trace = make()
        registry = standard_registry(trace.schema.variables, trace.schema.actions)
        _, top, _, _ = eager_induce(trace, registry, dataclasses.replace(config, top_k=1000))
        losses = [c.loss for c in top]
        assert losses.count(0.98) >= 10


def _nan_registry():
    registry = standard_registry({"x": 1, "v": 1}, {"accel": 1})
    registry.register(FunctionSpec("bad", (1,), 1), lambda a: a * np.nan, lambda args, g: (g,))
    return registry


class TestNonFiniteErrors:
    def test_nan_step_error_stops_at_step_one(self, scalar_schema):
        trace = make_trace({"x": [1.0, 2.0, 3.0], "v": [0.0] * 3}, [1.0, 2.0, 3.0])
        registry = _nan_registry()
        ast = parse_program("(accel (bad x))", registry, scalar_schema)
        result = execute(ast, {}, trace, registry, ErrorSpec())
        assert result.executed_len == 1
        assert result.terminated_early
        assert result.loss == float("inf")

    def test_induce_pops_in_score_order(self, popped):
        # a NaN score for (accel (bad x)) used to pop after 26.13, followed by 22.88
        trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=20))
        config = RunConfig(seed=0, max_iterations=30, max_opt_iters=150)
        result = induce(trace, _nan_registry(), config=config)
        assert result.iterations == 30
        scores = [c.score for c, _ in popped]
        assert not any(np.isnan(scores))
        assert scores == sorted(scores)

    def test_negative_loss_rejected(self, scalar_registry):
        trace = make_trace({"x": [1.0], "v": [0.0]}, [1.0])
        spec = ErrorSpec(act_error=lambda a, b: -np.ones(len(a)), max_step_error=1.0)
        with pytest.raises(ValueError, match="losses must be >= 0"):
            induce(trace, scalar_registry, spec=spec)
