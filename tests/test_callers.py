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

Every parameter with a default of a function defined with ``def`` in
``tracesynth`` is passed by some call in the package or in ``perfbench/``,
apart from those in ``UNSET_PARAMETERS``: an option that only tests set
goes.  A call passes a parameter by keyword, at its position (a method's
calls pass no ``self`` or ``cls``), or through ``*`` or ``**``; calls are
matched by name.

Every ``@dataclass`` in ``tracesynth`` uses a feature that a
``typing.NamedTuple`` lacks: a ``__post_init__`` or a ``field(...)``
default, or it is a program-tree type in ``TREE_DATACLASSES``.  A record
that only carries values is a NamedTuple.

Only ``interpreter.py`` knows the tape: no other module in ``tracesynth``
refers to or imports a name in ``TAPE_NAMES``.  The re-exports of
``__init__.py`` are exempt.  Only ``interpreter.py`` applies the error
model, so a step's error is decided in one place: no other module in
``tracesynth`` refers to a name in ``ERROR_MODEL_NAMES``.  Every name in
either set is defined in ``interpreter.py``, at module level or as a field
of ``ErrorSpec``, so neither rule guards a name that no longer exists.
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
    ("optimizer.fresh", "ast"): "perfbench/layers.py's probe passes it positionally",
}
# (module.function, parameter) -> why no caller passes it
UNSET_PARAMETERS = {
    ("cli.run_cli", "argv"): "tests drive the command line through it; main reads sys.argv",
}
# the op kinds, the lowering and the reverse loop of the tape
TAPE_NAMES = {"PARAM", "VAR", "CALL", "compile_tape", "backprop"}
# the two functions of an ``ErrorSpec``
ERROR_MODEL_NAMES = {"act_error", "act_error_grad"}
# program-tree dataclasses that need no __post_init__ or field(...) -> why
# they are not NamedTuples, which have no __dict__
TREE_DATACLASSES = {
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


def _calls(trees: list[ast.Module]) -> dict[str, list[ast.Call]]:
    """Every call in the trees, by the name it calls: the called name or
    attribute."""
    out: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                out.setdefault(name, []).append(node)
    return out


def _passes(call: ast.Call, positional: list[str], name: str) -> bool:
    """Whether ``call`` passes parameter ``name`` of a function whose
    positional parameters, as its calls count them, are ``positional``."""
    if any(k.arg in (name, None) for k in call.keywords):  # None is **
        return True
    if name not in positional:
        return False
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return starred or positional.index(name) < len(call.args)


def _unset_parameters(
    path: Path, tree: ast.Module, calls: dict[str, list[ast.Call]]
) -> list[tuple[str, str]]:
    """``(module.function, parameter)`` of every parameter with a default of
    a ``def`` in the tree that no call in ``calls`` passes; calls of a
    class count as calls of its ``__init__``."""
    methods = {
        id(item): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(_named(d, "staticmethod") for d in item.decorator_list)
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        defaulted = positional[len(positional) - len(args.defaults) :]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if id(node) in methods:
            positional = positional[1:]
        called = methods[id(node)] if node.name == "__init__" else node.name
        out += [
            (f"{path.stem}.{node.name}", p)
            for p in defaulted
            if not any(_passes(call, positional, p) for call in calls.get(called, ()))
        ]
    return out


def test_every_optional_parameter_is_set_by_a_caller():
    stray = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(a=1, b=2): pass\n"
        "def h(a, b=1): pass\n"
        "class K:\n"
        "    def __init__(self, x=0): pass\n"
        "    def m(self, x=0, y=0): pass\n"
        "    @staticmethod\n"
        "    def s(x=0): pass\n"
        "f(0, 1, d=2)\ng(**kw)\nh(*xs)\nK(x=1)\nk.m(0)\nK.s()\n"
    )
    assert _unset_parameters(PACKAGE / "m.py", stray, _calls([stray])) == [
        ("m.f", "c"),
        ("m.f", "e"),
        ("m.m", "y"),
        ("m.s", "x"),
    ]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    calls = _calls(list(trees.values()))
    unset = [
        found
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for found in _unset_parameters(path, tree, calls)
    ]
    assert sorted(unset) == sorted(UNSET_PARAMETERS)


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
    ``__post_init__`` and no ``field(...)`` default."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_named(d, "dataclass") for d in node.decorator_list):
            continue
        methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
        uses = any(item.name == "__post_init__" for item in methods) or any(
            isinstance(item, ast.AnnAssign)
            and item.value is not None
            and _named(item.value, "field")
            for item in node.body
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
    assert _plain_dataclasses(PACKAGE / "m.py", ast.parse(source)) == ["m.A", "m.D"]
    plain = [
        found
        for path in SOURCES
        if path.parent == PACKAGE
        for found in _plain_dataclasses(path, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(plain) == sorted(TREE_DATACLASSES)


def _names_in(names: set[str], path: Path, tree: ast.Module) -> list[str]:
    """``module.name`` of every name in ``names`` that the module refers to
    or imports, relative imports in ``__init__.py`` apart."""
    found = _references(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not (path.name == "__init__.py" and node.level):
            found.update(alias.name for alias in node.names)
    return [f"{path.stem}.{name}" for name in sorted(names & found)]


def _named_outside_the_interpreter(names: set[str]) -> list[str]:
    return [
        found
        for path in SOURCES
        if path.parent == PACKAGE and path.name != "interpreter.py"
        for found in _names_in(names, path, ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_only_the_interpreter_knows_the_tape():
    stray = "from .interpreter import VAR, execute\nkind = op.kind is interpreter.PARAM\n"
    assert _names_in(TAPE_NAMES, PACKAGE / "optimizer.py", ast.parse(stray)) == [
        "optimizer.PARAM",
        "optimizer.VAR",
    ]
    init = ast.parse("from .interpreter import VAR\n")
    assert _names_in(TAPE_NAMES, PACKAGE / "__init__.py", init) == []
    assert _named_outside_the_interpreter(TAPE_NAMES) == []


def test_only_the_interpreter_applies_the_error_model():
    stray = "errors = spec.act_error(out, theta)\nseed = getattr(spec, 'act_error_grad')\n"
    assert _names_in(ERROR_MODEL_NAMES, PACKAGE / "optimizer.py", ast.parse(stray)) == [
        "optimizer.act_error",
        "optimizer.act_error_grad",
    ]
    assert _named_outside_the_interpreter(ERROR_MODEL_NAMES) == []


def _definitions_and_fields(tree: ast.Module, record: str) -> set[str]:
    """Names the module defines at module level, by a ``def``, a ``class``
    or an assignment, and the annotated fields of its class ``record``."""
    out = set()
    for node in tree.body:
        if isinstance(node, DEFINITION):
            out.add(node.name)
            if node.name == record:
                out.update(
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def test_the_guarded_names_are_the_interpreter_s():
    stray = (
        "PARAM, VAR = 'param', 'var'\nfrom .program import CALL\ndef backprop(): pass\n"
        "class ErrorSpec:\n    act_error: int = 0\n"
        "class Other:\n    act_error_grad: int = 0\n"
    )
    assert _definitions_and_fields(ast.parse(stray), "ErrorSpec") == {
        "PARAM", "VAR", "backprop", "ErrorSpec", "Other", "act_error"
    }
    interpreter = ast.parse((PACKAGE / "interpreter.py").read_text(encoding="utf-8"))
    defined = _definitions_and_fields(interpreter, "ErrorSpec")
    assert sorted((TAPE_NAMES | ERROR_MODEL_NAMES) - defined) == []
