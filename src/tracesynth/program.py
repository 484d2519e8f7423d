"""Typed s-expression program representation.

A program is a tree whose root applies a primitive action to argument
expressions built from pure functions, free parameters and trace
variables.  Trees are immutable; structural edits return new trees.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Union

import numpy as np

from .trace import TraceSchema


class ProgramError(Exception):
    """Base class for program construction and formatting errors."""


class ParseError(ProgramError):
    """Malformed program text."""


class ProgramTypeError(ProgramError):
    """Symbol resolution, arity or dimension violation."""


class ParamLeaf(NamedTuple):
    """Free parameter slot.  ``init`` is the value the leaf was created with
    (a source literal or a sampled proposal); optimisation state keeps the
    live value separately, keyed by ``pid``."""

    pid: int
    dim: int
    init: tuple[float, ...]


class VarLeaf(NamedTuple):
    """Reference to a trace variable, re-read at every executed timestep."""

    name: str
    dim: int


class FunctionNode(NamedTuple):
    """An application of a registry entry; a primitive action at the root."""

    name: str
    children: tuple["Node", ...]
    dim: int


Node = Union[ParamLeaf, VarLeaf, FunctionNode]


@dataclass(frozen=True)
class ProgramAst:
    """A program: a primitive action applied at the root.  A dataclass: it
    memoises its tape, walk and slots in ``__dict__``."""

    root: FunctionNode


# impl(*args) -> output, vectorised over a leading row axis: (n, d_i) -> (n, out)
Impl = Callable[..., np.ndarray]
# vjp(args, upstream) -> per-argument gradients, all vectorised over steps
Vjp = Callable[[tuple[np.ndarray, ...], np.ndarray], tuple[np.ndarray, ...]]


@dataclass(frozen=True)
class FunctionSpec:
    """A registry entry: the signature of a pure function or primitive
    action, its vectorised implementation ``impl`` and its one
    differentiation rule, the vector-Jacobian product ``vjp``.

    ``arg_dims`` lists the required dimension of each argument; the arity is
    its length.  For actions ``out_dim`` equals the action-parameter
    dimension carried in the trace.  ``impl`` and ``vjp`` take (rows, d_i)
    arrays and must treat rows independently, as ``Registry`` states.
    """

    name: str
    arg_dims: tuple[int, ...]
    out_dim: int
    impl: Impl
    vjp: Vjp
    is_action: bool = False

    @property
    def arity(self) -> int:
        return len(self.arg_dims)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ProgramTypeError(f"{self.name}: functions take at least one argument")


@dataclass(frozen=True)
class ComplexityWeights:
    """Weights of the structural cost: tree depth, parameter leaves, variable
    leaf occurrences.  An int weight is stored as a float."""

    depth: float = 10.0
    params: float = 5.0
    variables: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            weight = getattr(self, f.name)
            if not _holds(weight, float):
                raise ValueError(
                    f"complexity weight {f.name} must be a number, not {type(weight).__name__}"
                )
            if not (is_finite(weight) and weight >= 0):
                raise ValueError(f"complexity weight {f.name} must be finite and nonnegative")
            object.__setattr__(self, f.name, float(weight))


def is_finite(x: float) -> bool:
    """``math.isfinite``, except that an int too large for a float is not
    finite rather than an ``OverflowError``."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


# the annotation of a config record's field -> the type the field holds; a
# command-line flag that takes one value of the field converts its text to it
FIELD_TYPES = {"float": float, "int": int, "str": str, "ComplexityWeights": ComplexityWeights}


def _holds(value: object, kind: type) -> bool:
    """Whether ``value`` may stand in a field of type ``kind``: an int may
    stand for a float, but a bool, though an int subclass, is a mistake
    wherever a number is meant."""
    kinds = (int, float) if kind is float else kind
    return not isinstance(value, bool) and isinstance(value, kinds)


def check_fields(record: object) -> None:
    """Raise ValueError naming the first field of the dataclass ``record``
    that does not hold its annotated type, or holds a float that is not
    finite."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not _holds(value, FIELD_TYPES[f.type]):
            raise ValueError(f"{f.name} must be of type {f.type}, not {type(value).__name__}")
        # nan compares false with everything, so it would pass a record's own checks
        if f.type == "float" and not is_finite(value):
            raise ValueError(f"{f.name} must be finite")


class Registry:
    """Registry entries by name, each one :class:`FunctionSpec`.

    Every entry, action or function, carries a vectorised implementation and
    one differentiation rule, its vectorised vector-Jacobian product, and
    nothing else evaluates or differentiates it.  Both take (rows, d_i)
    arrays and must treat rows independently: each output row depends only
    on the same row of the inputs, bit for bit, whatever the other rows and
    however many there are.  The interpreter relies on this to evaluate a
    trace in one pass and to stack K copies of its steps under K parameter
    settings.
    """

    def __init__(self) -> None:
        self._specs: dict[str, FunctionSpec] = {}

    def register(self, spec: FunctionSpec) -> None:
        if spec.name in self._specs:
            raise ProgramTypeError(f"duplicate registry name: {spec.name}")
        self._specs[spec.name] = spec

    def spec(self, name: str) -> FunctionSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ProgramTypeError(f"unknown function or action: {name}") from None

    def actions(self) -> list[FunctionSpec]:
        return sorted((s for s in self._specs.values() if s.is_action), key=lambda s: s.name)

    def pure_functions(self) -> list[FunctionSpec]:
        return sorted((s for s in self._specs.values() if not s.is_action), key=lambda s: s.name)


def standard_registry(variables: Mapping[str, int], actions: Mapping[str, int]) -> Registry:
    """Registry with vector addition, subtraction and scaling at every
    dimension used by ``variables``, plus one action per entry of
    ``actions`` (both name -> dimension, as in a trace schema).

    At dimension 1 the plain names ``add``/``sub``/``scale`` are used;
    other dimensions get a numeric suffix (``add2`` ...).  Every entry is
    elementwise within a row (``scale``'s gradient sums over a row's own
    components), so rows are independent as ``Registry`` requires.
    """
    # the names and dimensions are held to the trace schema's rules, which raise here
    TraceSchema(dict(variables), dict(actions))
    reg = Registry()
    dims = sorted(set(variables.values()) | set(actions.values()))
    for d in dims:
        sfx = "" if d == 1 else str(d)
        reg.register(
            FunctionSpec(f"add{sfx}", (d, d), d, lambda a, b: a + b, lambda args, g: (g, g))
        )
        reg.register(
            FunctionSpec(f"sub{sfx}", (d, d), d, lambda a, b: a - b, lambda args, g: (g, -g))
        )
        reg.register(
            FunctionSpec(
                f"scale{sfx}",
                (1, d),
                d,
                lambda c, x: c * x,
                lambda args, g: ((g * args[1]).sum(axis=1, keepdims=True), g * args[0]),
            )
        )
    for name in sorted(actions):
        d = actions[name]
        reg.register(FunctionSpec(name, (d,), d, lambda x: x, lambda args, g: (g,), is_action=True))
    return reg


# ---------------------------------------------------------------------------
# tree utilities


def _walk(
    ast: ProgramAst,
) -> tuple[list[tuple[int, Node]], list[int], list[tuple[int, ParamLeaf | VarLeaf]]]:
    """The preorder walk of the tree: (node id, node) pairs, the depth of
    each node (its number of ancestors) by node id, and the leaves with
    their node ids; memoised on the immutable tree."""
    walk = ast.__dict__.get("_walk")
    if walk is None:
        nodes, depths, tree_leaves = [], [], []
        stack = [(ast.root, 0)]
        # explicit preorder walk; children pushed in reverse to pop left-first
        while stack:
            node, level = stack.pop()
            nid = len(nodes)
            nodes.append((nid, node))
            depths.append(level)
            if isinstance(node, FunctionNode):
                stack.extend((c, level + 1) for c in reversed(node.children))
            else:
                tree_leaves.append((nid, node))
        walk = (nodes, depths, tree_leaves)
        object.__setattr__(ast, "_walk", walk)
    return walk


def iter_nodes(ast: ProgramAst) -> list[tuple[int, Node]]:
    """(preorder index, node) pairs for every node of the tree."""
    return _walk(ast)[0]


def leaves(ast: ProgramAst) -> list[tuple[int, ParamLeaf | VarLeaf]]:
    """Leaves of the tree with their preorder node ids (stable slot ids)."""
    return _walk(ast)[2]


def node_depth(ast: ProgramAst, node_id: int) -> int:
    """Edges from the root to the node with preorder id ``node_id``."""
    return _walk(ast)[1][node_id]


def replace_node(ast: ProgramAst, node_id: int, replacement: Node) -> ProgramAst:
    """Return a copy of the tree with the node at preorder ``node_id``
    swapped for ``replacement``.  Raises :class:`ProgramError` if there is
    no such node or the root would not be an application."""
    if not 0 <= node_id < len(iter_nodes(ast)):
        raise ProgramError(f"node id {node_id} out of range")
    if node_id == 0 and not isinstance(replacement, FunctionNode):
        raise ProgramError("the root must be an application")

    counter = [0]

    def rebuild(node: Node) -> Node:
        my_id = counter[0]
        counter[0] += 1
        if my_id == node_id:
            # skip the subtree rooted here in the numbering
            counter[0] += _subtree_size(node) - 1
            return replacement
        if isinstance(node, FunctionNode):
            return FunctionNode(node.name, tuple(rebuild(c) for c in node.children), node.dim)
        return node

    return ProgramAst(rebuild(ast.root))


def _subtree_size(node: Node) -> int:
    if isinstance(node, FunctionNode):
        return 1 + sum(_subtree_size(c) for c in node.children)
    return 1


def next_pid(ast: ProgramAst) -> int:
    pids = [n.pid for _, n in iter_nodes(ast) if isinstance(n, ParamLeaf)]
    return max(pids) + 1 if pids else 0


def initial_params(ast: ProgramAst) -> dict[int, np.ndarray]:
    """Parameter values the leaves were created with."""
    return {
        n.pid: np.asarray(n.init, dtype=float)
        for _, n in iter_nodes(ast)
        if isinstance(n, ParamLeaf)
    }


def depth(ast: ProgramAst) -> int:
    """Edges on the longest root-to-leaf path."""
    return max(_walk(ast)[1])


def structural_cost(
    tree_depth: int, n_params: int, n_vars: int, weights: ComplexityWeights = ComplexityWeights()
) -> float:
    """Weighted depth + parameter count + variable-leaf count: the
    ``complexity`` of every tree with these counts."""
    return weights.depth * tree_depth + weights.params * n_params + weights.variables * n_vars


def complexity(ast: ProgramAst, weights: ComplexityWeights = ComplexityWeights()) -> float:
    """Structural cost: weighted depth + parameter count + variable-leaf count."""
    n_params = sum(1 for _, n in iter_nodes(ast) if isinstance(n, ParamLeaf))
    n_vars = sum(1 for _, n in iter_nodes(ast) if isinstance(n, VarLeaf))
    return structural_cost(depth(ast), n_params, n_vars, weights)


def canonical_key(ast: ProgramAst) -> str:
    """Structural fingerprint: the program text with every parameter leaf
    reduced to ``?``.  Equal keys mean identical structure and variable
    names."""
    return _render(ast, lambda leaf: "?")


def _render(ast: ProgramAst, param_text: Callable[[ParamLeaf], str]) -> str:
    """Program text with each parameter leaf written as ``param_text(leaf)``."""

    def render(node: Node) -> str:
        if isinstance(node, ParamLeaf):
            return param_text(node)
        if isinstance(node, VarLeaf):
            return node.name
        inner = " ".join(render(c) for c in node.children)
        return f"({node.name} {inner})"

    return render(ast.root)


# ---------------------------------------------------------------------------
# textual format


def _format_value(value: np.ndarray) -> str:
    vals = [f"{float(v):#.6g}" for v in np.atleast_1d(value)]
    if len(vals) == 1:
        return vals[0]
    return "[" + " ".join(vals) + "]"


def print_program(ast: ProgramAst, params: Mapping[int, np.ndarray] | None = None) -> str:
    """Canonical text of a program with parameter values as decimal literals
    of 6 significant digits.

    With ``params=None`` the leaves' initial values are printed; otherwise
    ``params`` must hold a value for every parameter leaf.
    """
    if params is None:
        values = initial_params(ast)
    else:
        values = {k: np.asarray(v, dtype=float) for k, v in params.items()}

    def param_text(leaf: ParamLeaf) -> str:
        if leaf.pid not in values:
            raise ProgramError(f"missing value for parameter p{leaf.pid}")
        return _format_value(values[leaf.pid])

    return _render(ast, param_text)


_TOKEN_BOUNDARIES = {"(": " ( ", ")": " ) ", "[": " [ ", "]": " ] "}


def _tokenize(text: str) -> list[str]:
    for ch, spaced in _TOKEN_BOUNDARIES.items():
        text = text.replace(ch, spaced)
    return text.split()


def _literal(token: str) -> float | None:
    """The value of a numeric literal, None if ``token`` is not a number.
    Raises :class:`ParseError` for a literal that is not finite."""
    try:
        value = float(token)
    except ValueError:
        return None
    if not math.isfinite(value):
        raise ParseError(f"parameter literal {token!r} is not finite")
    return value


class _Parser:
    def __init__(self, tokens: list[str], registry: Registry, variables: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.registry = registry
        self.variables = variables
        self.pid = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def application(self, want_dim: int | None) -> FunctionNode:
        """The application that follows a ``(``, through its ``)``: the root
        action if ``want_dim`` is None, else a pure function of output
        dimension ``want_dim``."""
        head = self.take()
        if want_dim is None and head == ")":
            raise ParseError("a program needs an action at its root")
        spec = self.registry.spec(head)
        if want_dim is None and not spec.is_action:
            raise ProgramTypeError(f"program root must be an action, got function {head}")
        if want_dim is not None and spec.is_action:
            raise ProgramTypeError(f"action {head} may only appear at the root")
        if want_dim is not None and spec.out_dim != want_dim:
            raise ProgramTypeError(f"{head} produces dimension {spec.out_dim}, expected {want_dim}")
        children = []
        for arg_dim in spec.arg_dims:
            if self.peek() == ")":
                raise ProgramTypeError(
                    f"{spec.name} takes {spec.arity} argument(s), got {len(children)}"
                )
            children.append(self.parse_expr(arg_dim))
        if self.take() != ")":
            raise ProgramTypeError(f"{spec.name} takes {spec.arity} argument(s), got more")
        return FunctionNode(spec.name, tuple(children), spec.out_dim)

    def parse_expr(self, want_dim: int) -> Node:
        tok = self.take()
        if tok == "(":
            return self.application(want_dim)
        if tok == "[":
            vals = []
            while self.peek() != "]":
                num = self.take()
                value = _literal(num)
                if value is None:
                    raise ParseError(f"expected number in vector literal, got {num!r}")
                vals.append(value)
            self.take()
            if len(vals) != want_dim:
                raise ProgramTypeError(
                    f"vector literal of length {len(vals)}, expected dimension {want_dim}"
                )
            return self.new_param(tuple(vals), want_dim)
        value = _literal(tok)
        if value is not None:
            # scalar literal broadcast across the slot dimension
            return self.new_param((value,) * want_dim, want_dim)
        if tok in (")", "]"):
            raise ParseError(f"unexpected {tok!r}")
        if tok in self.variables:
            if self.variables[tok] != want_dim:
                raise ProgramTypeError(
                    f"variable {tok} has dimension {self.variables[tok]}, expected {want_dim}"
                )
            return VarLeaf(tok, want_dim)
        raise ProgramTypeError(f"unknown symbol: {tok}")

    def new_param(self, init: tuple[float, ...], dim: int) -> ParamLeaf:
        leaf = ParamLeaf(self.pid, dim, init)
        self.pid += 1
        return leaf


def parse_program(text: str, registry: Registry, schema: TraceSchema) -> ProgramAst:
    """Parse program text against a registry and a trace schema.

    Numeric literals become parameter leaves initialised to the literal.
    Raises :class:`ParseError` for malformed text or a literal that is not
    finite, and :class:`ProgramTypeError` for unknown symbols, arity or
    dimension violations.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty program text")
    parser = _Parser(tokens, registry, schema.variables)
    first = parser.take()
    if first != "(":
        raise ParseError(f"expected '(', got {first!r}")
    root = parser.application(None)
    if parser.peek() is not None:
        raise ParseError("trailing tokens after program")
    return ProgramAst(root)
