import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracesynth import (
    ComplexityWeights,
    FunctionNode,
    FunctionSpec,
    ParamLeaf,
    ParseError,
    ProgramAst,
    ProgramError,
    ProgramTypeError,
    TraceFormatError,
    TraceSchema,
    VarLeaf,
    canonical_key,
    complexity,
    depth,
    enumerate_programs,
    expand_empty,
    initial_params,
    parse_program,
    print_program,
    standard_registry,
)
from tracesynth.program import leaves, next_pid, replace_node

# the ``scalar_schema`` fixture, for tests that Hypothesis runs many times
SCALAR_SCHEMA = TraceSchema({"x": 1, "v": 1}, {"accel": 1})
# a schema with variables and actions of two dimensions
MIXED_SCHEMA = TraceSchema({"x": 1, "p": 2}, {"accel": 1, "go": 2})
PARSE_CASES = [
    (schema, standard_registry(schema.variables, schema.actions))
    for schema in (SCALAR_SCHEMA, MIXED_SCHEMA)
]
# every name either schema gives program text, brackets, and literals that
# are, or are not, finite numbers
PARSE_TOKENS = sorted(
    {spec.name for _, reg in PARSE_CASES for spec in reg.actions() + reg.pure_functions()}
) + ["x", "v", "p", "(", ")", "[", "]", "1", "-2.5", "nan", "1e400", "1_0", "?", "unknown"]
TOKEN_LISTS = st.lists(st.sampled_from(PARSE_TOKENS), max_size=12)


class TestParse:
    def test_scale_program(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale -9.8 x))", scalar_registry, scalar_schema)
        root = ast.root
        assert isinstance(root, FunctionNode) and root.name == "accel"
        (fn,) = root.children
        assert isinstance(fn, FunctionNode) and fn.name == "scale"
        param, var = fn.children
        assert isinstance(param, ParamLeaf) and param.init == (-9.8,)
        assert isinstance(var, VarLeaf) and var.name == "x"

    def test_arity_mismatch(self, scalar_registry, scalar_schema):
        with pytest.raises(ProgramTypeError):
            parse_program("(accel x v)", scalar_registry, scalar_schema)

    def test_add_has_depth_two(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (add x v))", scalar_registry, scalar_schema)
        assert depth(ast) == 2

    def test_unknown_symbol(self, scalar_registry, scalar_schema):
        with pytest.raises(ProgramTypeError):
            parse_program("(accel (scale 1.0 q))", scalar_registry, scalar_schema)

    def test_malformed(self, scalar_registry, scalar_schema):
        with pytest.raises(ParseError):
            parse_program("(accel (scale 1.0 x)", scalar_registry, scalar_schema)

    def test_function_at_root_rejected(self, scalar_registry, scalar_schema):
        with pytest.raises(ProgramTypeError):
            parse_program("(add x v)", scalar_registry, scalar_schema)

    def test_empty(self, scalar_registry, scalar_schema):
        with pytest.raises(ParseError, match="a program needs an action at its root"):
            parse_program("()", scalar_registry, scalar_schema)

    @given(
        st.sampled_from(PARSE_CASES),
        st.one_of(TOKEN_LISTS, TOKEN_LISTS.map(lambda tokens: ["(", *tokens])),
    )
    @example(PARSE_CASES[1], ["(", "go", "(", "scale2", "1_0", "[", "1", "-2.5", "]", ")", ")"])
    @example(PARSE_CASES[1], ["(", "go", "(", "add2", "p", "-2.5", ")", ")"])
    @example(PARSE_CASES[0], ["(", "accel", "(", "sub", "x", "-2.5", ")", ")"])
    @settings(max_examples=500, deadline=None)
    def test_any_token_string_parses_or_raises_a_program_error(self, case, tokens):
        # a tree comes back whole, in text that reads as the same structure;
        # anything else is refused as a program error
        schema, registry = case
        try:
            ast = parse_program(" ".join(tokens), registry, schema)
        except ProgramError:
            return
        again = parse_program(print_program(ast), registry, schema)
        assert canonical_key(again) == canonical_key(ast)

    def test_non_finite_vector_literal(self):
        schema = TraceSchema({"u": 2}, {"go": 2})
        registry = standard_registry(schema.variables, schema.actions)
        with pytest.raises(ParseError, match="not finite"):
            parse_program("(go (add2 u [1.0 nan]))", registry, schema)


class TestFunctionSpec:
    def test_no_arguments_rejected(self):
        with pytest.raises(ProgramTypeError, match="at least one argument"):
            FunctionSpec("f", (), 1, lambda: np.zeros((1, 1)), lambda args, g: ())


class TestRegistry:
    def test_duplicate_name_rejected_and_first_entry_kept(self):
        registry = standard_registry({"x": 1}, {"accel": 1})
        first = registry.spec("add")
        again = FunctionSpec("add", (1, 1), 1, lambda a, b: a - b, lambda args, g: (g, -g))
        with pytest.raises(ProgramTypeError) as info:
            registry.register(again)
        assert str(info.value) == "duplicate registry name: add"
        assert registry.spec("add") is first

    def test_unknown_name_rejected(self, scalar_registry):
        with pytest.raises(ProgramTypeError) as info:
            scalar_registry.spec("neg")
        assert str(info.value) == "unknown function or action: neg"


class TestReplaceNode:
    @pytest.mark.parametrize("node_id", [-1, 4])
    def test_id_outside_the_tree_rejected(self, node_id, scalar_registry, scalar_schema):
        # four nodes: accel, scale, its parameter and x
        ast = parse_program("(accel (scale -9.8 x))", scalar_registry, scalar_schema)
        with pytest.raises(ProgramError, match="out of range"):
            replace_node(ast, node_id, VarLeaf("v", 1))

    def test_leaf_at_the_root_rejected(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale -9.8 x))", scalar_registry, scalar_schema)
        with pytest.raises(ProgramError, match="root"):
            replace_node(ast, 0, VarLeaf("v", 1))


class TestNameRule:
    """Names reach these functions in a trace schema, or, for
    ``standard_registry``, in plain mappings held to the schema's rules,
    which also refuse a dimension that is not an int."""

    def test_expand_empty_rejects_the_parameter_mark(self):
        # "?" as a variable would give (accel ?) two meanings as a structure key
        registry = standard_registry({"x": 1}, {"accel": 1})
        with pytest.raises(TraceFormatError, match="parameter mark"):
            expand_empty(registry, TraceSchema({"?": 1, "x": 1}, {"accel": 1}), 3)
        with pytest.raises(TraceFormatError, match="parameter mark"):
            standard_registry({"?": 1, "x": 1}, {"accel": 1})

    def test_parse_rejects_a_name_with_whitespace(self):
        registry = standard_registry({"x": 1}, {"accel": 1})
        with pytest.raises(TraceFormatError, match="whitespace"):
            parse_program("(accel x)", registry, TraceSchema({"a b": 1, "x": 1}, {"accel": 1}))

    def test_enumerate_rejects_a_name_with_a_parenthesis(self):
        registry = standard_registry({"x": 1}, {"accel": 1})
        with pytest.raises(TraceFormatError, match="whitespace"):
            enumerate_programs(registry, TraceSchema({"(x": 1}, {"accel": 1}), 2)

    def test_registry_rejects_an_action_name_that_reads_as_a_number(self):
        with pytest.raises(TraceFormatError, match="reads as a number"):
            standard_registry({"x": 1}, {"1e3": 1})

    def test_registry_rejects_a_dimension_that_is_not_an_int(self):
        # it would otherwise register add1.5, sub1.5 and scale1.5
        with pytest.raises(TraceFormatError, match="schema variables 'x': dimension must be an"):
            standard_registry({"x": 1.5}, {"accel": 1})


class TestPrint:
    def test_fixed_precision(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale -9.8 x))", scalar_registry, scalar_schema)
        assert print_program(ast) == "(accel (scale -9.80000 x))"

    def test_round_trip(self, scalar_registry, scalar_schema):
        text = "(accel (add (scale 1.25000 x) (scale -0.500000 v)))"
        ast = parse_program(text, scalar_registry, scalar_schema)
        assert print_program(ast) == text
        again = parse_program(print_program(ast), scalar_registry, scalar_schema)
        assert canonical_key(again) == canonical_key(ast)
        assert initial_params(again).keys() == initial_params(ast).keys()
        for pid, val in initial_params(ast).items():
            np.testing.assert_allclose(initial_params(again)[pid], val, rtol=1e-5)

    def test_missing_param_value(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 1.0 x))", scalar_registry, scalar_schema)
        with pytest.raises(ProgramError):
            print_program(ast, params={})
        # explicit value for the single parameter works
        assert "2.00000" in print_program(ast, params={0: np.array([2.0])})


class TestDepthComplexity:
    def test_depth_one(self, scalar_registry, scalar_schema):
        assert depth(parse_program("(accel 1.0)", scalar_registry, scalar_schema)) == 1

    def test_depth_three(self, scalar_registry, scalar_schema):
        ast = parse_program(
            "(accel (add (scale 1.0 x) (scale 2.0 v)))", scalar_registry, scalar_schema
        )
        assert depth(ast) == 3

    def test_complexity_single_param(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel 1.0)", scalar_registry, scalar_schema)
        assert complexity(ast) == 15  # 10*1 + 5*1 + 0

    def test_complexity_oscillator_form(self, scalar_registry, scalar_schema):
        ast = parse_program(
            "(accel (add (scale 1.0 x) (scale 2.0 v)))", scalar_registry, scalar_schema
        )
        assert complexity(ast) == 42  # 10*3 + 5*2 + 1*2

    def test_custom_weights(self, scalar_registry, scalar_schema):
        ast = parse_program("(accel (scale 1.0 x))", scalar_registry, scalar_schema)
        assert complexity(ast, ComplexityWeights(1, 1, 1)) == 4

    def test_weights_are_held_as_floats(self):
        weights = ComplexityWeights(1, 2, 3)
        assert [type(w) for w in (weights.depth, weights.params, weights.variables)] == [float] * 3
        assert (weights.depth, weights.params, weights.variables) == (1.0, 2.0, 3.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            ComplexityWeights(-1, 5, 1)

    def test_non_finite_weights_rejected(self):
        # a NaN weight would make every complexity, and so every score, NaN;
        # an int too large for a float cannot be made one
        for bad in (float("nan"), float("inf"), 10**400):
            with pytest.raises(ValueError, match="complexity weight params must be finite"):
                ComplexityWeights(10, bad, 1)

    @pytest.mark.parametrize("bad", [True, "x", None])
    def test_weight_that_is_not_a_number_rejected(self, bad):
        # true would otherwise weigh 1, and "x" reach math.isfinite
        want = f"complexity weight depth must be a number, not {type(bad).__name__}"
        with pytest.raises(ValueError) as info:
            ComplexityWeights(depth=bad)
        assert str(info.value) == want


class TestCanonicalKey:
    def test_param_values_erased(self, scalar_registry, scalar_schema):
        a = parse_program("(accel (scale -9.8 x))", scalar_registry, scalar_schema)
        b = parse_program("(accel (scale 0.3 x))", scalar_registry, scalar_schema)
        assert canonical_key(a) == canonical_key(b) == "(accel (scale ? x))"

    def test_distinct_variables(self, scalar_registry, scalar_schema):
        a = parse_program("(accel (scale 1.0 x))", scalar_registry, scalar_schema)
        b = parse_program("(accel (scale 1.0 v))", scalar_registry, scalar_schema)
        assert canonical_key(a) != canonical_key(b)

    def test_argument_order_preserved(self, scalar_registry, scalar_schema):
        a = parse_program("(accel (add x 1.0))", scalar_registry, scalar_schema)
        b = parse_program("(accel (add 1.0 x))", scalar_registry, scalar_schema)
        assert canonical_key(a) != canonical_key(b)


def _random_ast(rng: np.random.Generator, depth_budget: int) -> ProgramAst:
    pid = [0]

    def expr(budget: int) -> object:
        kind = rng.integers(0, 3 if budget > 0 else 2)
        if kind == 0:
            leaf = ParamLeaf(pid[0], 1, (float(rng.normal()),))
            pid[0] += 1
            return leaf
        if kind == 1:
            return VarLeaf(str(rng.choice(["x", "v"])), 1)
        name = str(rng.choice(["add", "sub", "scale"]))
        return FunctionNode(name, (expr(budget - 1), expr(budget - 1)), 1)

    return ProgramAst(FunctionNode("accel", (expr(depth_budget),), 1))


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, seed):
        registry = standard_registry({"x": 1, "v": 1}, {"accel": 1})
        rng = np.random.default_rng(seed)
        ast = _random_ast(rng, 2)
        text = print_program(ast)
        again = parse_program(text, registry, SCALAR_SCHEMA)
        assert canonical_key(again) == canonical_key(ast)
        got = initial_params(again)
        want = initial_params(ast)
        assert len(got) == len(want)
        if want:
            # parse renumbers pids in reading order, which is preorder here;
            # each value reads back as its 6-digit literal, exactly
            np.testing.assert_array_equal(
                np.concatenate([got[k] for k in sorted(got)]),
                [float(f"{v:#.6g}") for k in sorted(want) for v in want[k]],
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_key_collisions_only_param_values(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_ast(rng, 2)
        b = _random_ast(rng, 2)
        if canonical_key(a) == canonical_key(b):
            # identical structure: same node kinds, names and variable leaves
            nodes_a = [(type(n).__name__, getattr(n, "name", None)) for _, n in _walk(a)]
            nodes_b = [(type(n).__name__, getattr(n, "name", None)) for _, n in _walk(b)]
            assert nodes_a == nodes_b

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_nodes_equal_only_nodes_of_their_type(self, seed):
        # nodes compare and hash by value, as the tuple of their fields, and
        # a node of one type never equals a node of another
        rng = np.random.default_rng(seed)
        nodes = [n for _ in range(2) for _, n in _walk(_random_ast(rng, 1))]
        for a, b in itertools.product(nodes, repeat=2):
            assert (a == b) == (type(a) is type(b) and tuple(a) == tuple(b))
            if a == b:
                assert hash(a) == hash(b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_printed_tree_parses_to_an_equal_tree(self, seed):
        registry = standard_registry({"x": 1, "v": 1}, {"accel": 1})
        rng = np.random.default_rng(seed)
        # parameter values as 6-digit literals, so that printing is exact
        tree = parse_program(print_program(_random_ast(rng, 2)), registry, SCALAR_SCHEMA)
        again = parse_program(print_program(tree), registry, SCALAR_SCHEMA)
        assert again == tree and hash(again) == hash(tree)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_growth_never_shrinks(self, seed):
        rng = np.random.default_rng(seed)
        ast = _random_ast(rng, 1)
        slots = leaves(ast)
        nid, _ = slots[rng.integers(0, len(slots))]
        sub = FunctionNode(
            "add", (ParamLeaf(next_pid(ast), 1, (0.0,)), VarLeaf("x", 1)), 1
        )
        grown = replace_node(ast, nid, sub)
        assert depth(grown) >= depth(ast)
        assert len(leaves(grown)) >= len(leaves(ast))
        assert complexity(grown) >= complexity(ast)


def _walk(ast):
    from tracesynth.program import iter_nodes

    return iter_nodes(ast)
