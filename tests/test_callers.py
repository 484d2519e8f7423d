"""Every function and class defined at module level in ``tracesynth``, and
every method other than a dunder, has a caller outside its own definition:
in the package itself or in the benchmark harness under ``perfbench/``.
Tests are not callers, so API that only tests use fails here.

A reference is a name, an attribute, or an identifier inside a string
constant that is not a docstring; the harness names the functions it
wraps in strings such as ``"VariableIndex.query_steps"``.  A name
re-exported by ``tracesynth/__init__.py`` is not referenced by that.

Every parameter of a function defined with ``def`` in ``tracesynth`` is
read by its body, apart from those in ``UNREAD_PARAMETERS``.

Every name a module-level import in ``tracesynth`` binds is read by its
module.  The relative imports of ``__init__.py``, which are the package's
re-exports, and ``from __future__`` imports are exempt.

Every ``@dataclass`` in ``tracesynth`` uses a feature that a
``typing.NamedTuple`` lacks: a ``__post_init__``, a ``field(...)`` default
or a ``cached_property``, or it is a program-tree type in
``TREE_DATACLASSES``.  A record that only carries values is a NamedTuple.

Only ``interpreter.py`` knows the tape: no other module in ``tracesynth``
refers to or imports a name in ``TAPE_NAMES``.  The re-exports of
``__init__.py`` are exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracesynth"
SOURCES = sorted(
    path
    for folder in (PACKAGE, ROOT / "perfbench")
    for path in folder.rglob("*.py")
    if not path.name.startswith("test_")
)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# (module.function, parameter) -> why the body need not read it
UNREAD_PARAMETERS = {
    ("interpreter.zero_length_error", "observed_len"): "the ErrorSpec.len_error interface",
    ("interpreter.zero_length_error", "executed_len"): "the ErrorSpec.len_error interface",
    ("optimizer.fresh", "ast"): "perfbench/layers.py's probe passes it positionally",
}
# the op kinds, the forward loop, the lowering, the row errors, the
# error-model seed and the reverse loop of the tape
TAPE_NAMES = {
    "PARAM", "VAR", "CALL", "forward", "compile_tape", "action_errors", "seed_rows", "backprop"
}
# program-tree dataclasses that need no __post_init__, field(...) or
# cached_property -> why they are not NamedTuples, which equal any tuple of
# the same values and have no __dict__
TREE_DATACLASSES = {
    "program.ParamLeaf": "a leaf equals no other node type with the same values",
    "program.VarLeaf": "a leaf equals no other node type with the same values",
    "program.FunctionNode": "an application equals no ActionNode with the same values",
    "program.ActionNode": "a subclass of FunctionNode whose type marks the root",
    "program.ProgramAst": "memoises its tape, preorder walk and re-binding slots in __dict__",
}


def _docstrings(tree: ast.Module) -> set[int]:
    """``id`` of every docstring constant in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITION)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _references(tree: ast.Module) -> set[str]:
    """Names the tree refers to, leaving out those made inside the
    definition that binds the same name."""
    docstrings = _docstrings(tree)
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: tuple[str, ...]) -> None:
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [] if id(node) in docstrings else IDENTIFIER.findall(node.value)
        else:
            names = []
        found.update(name for name in names if name not in enclosing)
        if isinstance(node, DEFINITION):
            enclosing = (*enclosing, node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return found


def _definitions(path: Path, tree: ast.Module) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of the module's functions and classes and
    of their classes' methods, dunders excepted."""
    module = path.stem
    out = []
    for node in tree.body:
        if not isinstance(node, DEFINITION):
            continue
        out.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{module}.{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return out


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    defined = [
        definition
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for definition in _definitions(path, tree)
    ]
    assert defined
    uncalled = [qualified for qualified, name in defined if name not in referenced]
    assert uncalled == []


def _unread_parameters(path: Path, tree: ast.Module) -> list[tuple[str, str]]:
    """``(module.function, parameter)`` of every parameter of a ``def`` in
    the tree that no name in the function's body reads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for statement in node.body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [(f"{path.stem}.{node.name}", p) for p in params if p not in read]
    return out


def test_every_parameter_is_read():
    unread = [
        found
        for path in SOURCES
        if path.parent == PACKAGE
        for found in _unread_parameters(path, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)


def _unused_imports(path: Path, tree: ast.Module) -> list[str]:
    """``module.name`` of every name bound by a module-level import, other
    than from ``__future__`` or a relative import in ``__init__.py``, that no
    name in the module reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if path.name == "__init__.py" and node.level > 0:
                continue  # a re-export
            bound += [alias.asname or alias.name for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.stem}.{name}" for name in bound if name not in read]


def test_every_import_is_used():
    stray = "import json\nfrom os import path\nfrom .trace import load_trace\n"
    assert _unused_imports(PACKAGE / "__init__.py", ast.parse(stray)) == [
        "__init__.json",
        "__init__.path",
    ]
    unused = [
        found
        for path in SOURCES
        if path.parent == PACKAGE
        for found in _unused_imports(path, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def _named(node: ast.expr, name: str) -> bool:
    """Whether ``node`` is ``name``, ``module.name`` or a call of either."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _plain_dataclasses(path: Path, tree: ast.Module) -> list[str]:
    """``module.Class`` of every module-level ``@dataclass`` with no
    ``__post_init__``, no ``field(...)`` default and no ``cached_property``."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_named(d, "dataclass") for d in node.decorator_list):
            continue
        methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
        uses = (
            any(item.name == "__post_init__" for item in methods)
            or any(
                isinstance(item, ast.AnnAssign)
                and item.value is not None
                and _named(item.value, "field")
                for item in node.body
            )
            or any(_named(d, "cached_property") for m in methods for d in m.decorator_list)
        )
        if not uses:
            out.append(f"{path.stem}.{node.name}")
    return out


def test_every_dataclass_needs_its_features():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n"
        "@dataclass\nclass B:\n    x: int\n    def __post_init__(self): pass\n"
        "@dataclasses.dataclass\nclass C:\n    x: list = dataclasses.field(default_factory=list)\n"
        "@dataclass\nclass D:\n    @cached_property\n    def x(self): return 1\n"
        "class E(NamedTuple):\n    x: int\n"
    )
    assert _plain_dataclasses(PACKAGE / "m.py", ast.parse(source)) == ["m.A"]
    plain = [
        found
        for path in SOURCES
        if path.parent == PACKAGE
        for found in _plain_dataclasses(path, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(plain) == sorted(TREE_DATACLASSES)


def _tape_names(path: Path, tree: ast.Module) -> list[str]:
    """``module.name`` of every name in ``TAPE_NAMES`` that the module
    refers to or imports, relative imports in ``__init__.py`` apart."""
    found = _references(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not (path.name == "__init__.py" and node.level):
            found.update(alias.name for alias in node.names)
    return [f"{path.stem}.{name}" for name in sorted(TAPE_NAMES & found)]


def test_only_the_interpreter_knows_the_tape():
    stray = "from .interpreter import VAR, execute\nkind = op.kind is interpreter.PARAM\n"
    assert _tape_names(PACKAGE / "optimizer.py", ast.parse(stray)) == [
        "optimizer.PARAM",
        "optimizer.VAR",
    ]
    assert _tape_names(PACKAGE / "__init__.py", ast.parse("from .interpreter import VAR\n")) == []
    outside = [
        found
        for path in SOURCES
        if path.parent == PACKAGE and path.name != "interpreter.py"
        for found in _tape_names(path, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert outside == []
