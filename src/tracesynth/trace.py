"""Observation traces, per-timestep memory views and the per-timestep
nearest-variable index."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, TypeVar

import numpy as np


class TraceFormatError(Exception):
    """Document does not satisfy the trace file contract, or an input file
    cannot be read as UTF-8 text or parsed (``read_input``)."""


T = TypeVar("T")


def _unwritable(name: str) -> str | None:
    """Why ``name`` cannot stand for a variable or an action in program text
    and structure keys, or None if it can."""
    if not name or any(ch.isspace() or ch in "()[]" for ch in name):
        return "must be non-empty and hold no whitespace, (, ), [ or ]"
    if name == "?":
        return "is the parameter mark of structure keys"
    try:
        float(name)
    except ValueError:
        return None
    return "reads as a number"


@dataclass(frozen=True)
class TraceSchema:
    variables: dict[str, int]  # variable name -> dimension
    actions: dict[str, int]  # action name -> parameter dimension

    def __post_init__(self) -> None:
        for section, entries in (("variables", self.variables), ("actions", self.actions)):
            for name, dim in entries.items():
                if not isinstance(name, str):
                    raise TraceFormatError(f"schema {section} {name!r}: name must be a string")
                problem = _unwritable(name)
                if problem is not None:
                    raise TraceFormatError(f"name {name!r} {problem}")
                # bool is an int subclass, and int() would truncate 1.7 and parse "1"
                if type(dim) is not int:
                    raise TraceFormatError(
                        f"schema {section} {name!r}: dimension must be an integer, got {dim!r}"
                    )
                if dim < 1:
                    raise TraceFormatError(f"{name}: dimension must be >= 1")


class TraceStep(NamedTuple):
    t: int
    vars: dict[str, np.ndarray]
    action_name: str
    theta: np.ndarray


@dataclass(frozen=True, eq=False)
class ObservationTrace:
    """A validated trace and the read-only arrays built with it: each
    variable's column, each action's targets and the nearest-variable index.
    Traces compare and hash by identity: field-wise equality would compare
    arrays, and the schema's dicts do not hash."""

    schema: TraceSchema
    steps: tuple[TraceStep, ...]
    _columns: dict[str, np.ndarray] = field(init=False, repr=False)
    _targets: dict[str, np.ndarray] = field(init=False, repr=False)
    index: VariableIndex = field(init=False, repr=False)

    @property
    def length(self) -> int:
        return len(self.steps)

    def __post_init__(self) -> None:
        if not self.steps:
            raise TraceFormatError("trace must contain at least one step")
        for i, step in enumerate(self.steps):
            if step.t != i + 1:
                raise TraceFormatError(f"timesteps must be contiguous from 1; step {i} has t={step.t}")
            for name, dim in self.schema.variables.items():
                if name not in step.vars:
                    raise TraceFormatError(f"step {step.t}: missing variable {name}")
                _require_row(step.t, f"variable {name}", step.vars[name], dim)
            for name in step.vars:
                if name not in self.schema.variables:
                    raise TraceFormatError(f"step {step.t}: undeclared variable {name}")
            if step.action_name not in self.schema.actions:
                raise TraceFormatError(f"step {step.t}: undeclared action {step.action_name}")
            _require_row(step.t, "action theta", step.theta, self.schema.actions[step.action_name])
        columns = {
            name: _read_only(np.stack([s.vars[name] for s in self.steps]))
            for name in self.schema.variables
        }
        for name, values in columns.items():
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                t = int(np.argmin(finite)) + 1
                raise TraceFormatError(f"step {t}: variable {name} is not finite")
        if not np.isfinite(np.concatenate([s.theta for s in self.steps])).all():
            t = next(s.t for s in self.steps if not np.isfinite(s.theta).all())
            raise TraceFormatError(f"step {t}: action theta is not finite")
        targets = {n: np.full((self.length, d), np.nan) for n, d in self.schema.actions.items()}
        for i, step in enumerate(self.steps):
            targets[step.action_name][i] = step.theta
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_targets", {n: _read_only(a) for n, a in targets.items()})
        object.__setattr__(self, "index", build_variable_index(self))

    def var_matrix(self, name: str) -> np.ndarray:
        """Values of one variable over all steps, shape (T, d), read-only:
        an execution's values may be this very array."""
        return self._columns[name]

    def action_targets(self, name: str, dim: int) -> np.ndarray:
        """What a program whose root is action ``name`` of dimension ``dim``
        is compared against: the observed parameters (T, dim), read-only.
        A step of another action is NaN in every column, and only such a
        step is NaN, since every observed theta is finite.  Raises
        ``ValueError`` if the schema gives ``name`` another dimension."""
        if self.schema.actions.get(name, dim) != dim:
            raise ValueError(
                f"action {name} has dimension {self.schema.actions[name]} in the trace"
                f" schema, not {dim}"
            )
        if name not in self._targets:
            # an action the schema does not declare is observed at no step
            return np.full((self.length, dim), np.nan)
        return self._targets[name]


def _require_row(t: int, what: str, value: object, dim: int) -> None:
    """Refuse a step's variable or theta that is not a NumPy array of shape (dim,)."""
    if not isinstance(value, np.ndarray):
        raise TraceFormatError(f"step {t}: {what} is a {type(value).__name__}, not a NumPy array")
    if value.shape != (dim,):
        raise TraceFormatError(f"step {t}: {what} has shape {value.shape}, not ({dim},)")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class MemoryState(NamedTuple):
    """Variable and parameter bindings visible to a program at one timestep."""

    variables: dict[str, np.ndarray]
    params: dict[int, np.ndarray]


def memory_at(
    trace: ObservationTrace, t: int, params: Mapping[int, np.ndarray] | None = None
) -> MemoryState:
    """Memory view at 1-based timestep ``t``; raises IndexError out of range."""
    if not 1 <= t <= trace.length:
        raise IndexError(f"timestep {t} outside 1..{trace.length}")
    step = trace.steps[t - 1]
    return MemoryState(dict(step.vars), dict(params or {}))


@np.errstate(over="ignore")
def distances(a: np.ndarray, b: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean distances between ``a`` and ``b`` along the last axis, the
    arithmetic of ``np.linalg.norm(a - b, axis=-1)`` without its dispatch
    overhead.  A distance from sqrt(float max), about 1.34e154, up is inf,
    without a warning, because its square overflows."""
    diff = a - b
    return np.sqrt(np.add.reduce(diff * diff, axis=-1, keepdims=keepdims))


class VariableIndex:
    """Exact nearest-neighbour lookup over variable values, per timestep and
    per dimension.

    The candidate sets are the handful of schema variables sharing a
    dimension, so the index stores them as dense (T, n_vars, d) arrays and
    answers queries by a vectorised scan: exact, and deterministic because
    candidates are ordered by variable name (argmin takes the first, i.e.
    lexicographically smallest, on ties).

    ``gaps[dim]`` is read-only, (T, n_vars): row t - 1 holds, for each
    variable, half its distance to the nearest other variable of its
    dimension, at the step where that is least among steps 1..t.  Gaps and
    queries both measure distances with ``distances``.  A gap below 2**-500
    is 0 and one above 2**500 is 2**500, so that the squares of distances
    up to a few gaps are normal floats; a lone variable's gap is 2**500.  A
    query point nearer to a variable than its gap is nearest to it
    (``optimizer._settled`` relies on this).
    """

    def __init__(self, trace: ObservationTrace):
        self.names = names_by_dim(trace.schema.variables)
        self.values = {
            dim: _read_only(np.stack([trace.var_matrix(n) for n in names], axis=1))
            for dim, names in self.names.items()
        }
        self.gaps = {dim: _rival_gaps(values) for dim, values in self.values.items()}

    def query_steps(self, dim: int, points: np.ndarray) -> np.ndarray:
        """Vectorised query for timesteps 1..n: ``points`` has shape
        (..., n, d), any leading axes holding more queries for the same
        steps; returns the winning variable's index into ``names[dim]`` per
        query, shape (..., n)."""
        if dim not in self.names:
            raise KeyError(f"no variable of dimension {dim}")
        n = points.shape[-2]
        return distances(self.values[dim][:n], points[..., None, :]).argmin(axis=-1)


def _rival_gaps(values: np.ndarray) -> np.ndarray:
    """``VariableIndex.gaps`` of one dimension's (T, n_vars, d) values."""
    gaps = np.empty(values.shape[:2])
    # one variable at a time keeps the arrays (T, n_vars, d); a distance
    # that overflows to inf is clamped below with the rest
    for j in range(values.shape[1]):
        dist = distances(values, values[:, j : j + 1])
        dist[:, j] = np.inf
        gaps[:, j] = 0.5 * dist.min(axis=1)
    gaps = np.minimum.accumulate(gaps, axis=0)
    # NaN compares false, so it becomes 0 too
    return _read_only(np.where(gaps >= 2.0**-500, np.minimum(gaps, 2.0**500), 0.0))


def names_by_dim(variables: Mapping[str, int]) -> dict[int, list[str]]:
    """The variable names of each dimension, sorted by name."""
    by_dim: dict[int, list[str]] = {}
    for name, dim in sorted(variables.items()):
        by_dim.setdefault(dim, []).append(name)
    return by_dim


def build_variable_index(trace: ObservationTrace) -> VariableIndex:
    """Build the per-timestep nearest-variable index for a trace; a trace
    builds its own ``index`` with this once, when it is made."""
    return VariableIndex(trace)


# ---------------------------------------------------------------------------
# file format


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise TraceFormatError(msg)


def trace_from_dict(doc: dict) -> ObservationTrace:
    _require(isinstance(doc, dict), "trace document must be an object")
    _require("schema" in doc and "steps" in doc, "trace document needs schema and steps")
    sch = doc["schema"]
    _require(
        isinstance(sch, dict) and "variables" in sch and "actions" in sch,
        "schema needs variables and actions",
    )
    for section in ("variables", "actions"):
        _require(isinstance(sch[section], dict), f"schema {section} must be an object")
    schema = TraceSchema(
        {str(k): v for k, v in sch["variables"].items()},
        {str(k): v for k, v in sch["actions"].items()},
    )
    steps = []
    _require(isinstance(doc["steps"], list), "steps must be an array")
    for raw in doc["steps"]:
        _require(isinstance(raw, dict), "each step must be an object")
        for key in ("t", "vars", "action"):
            _require(key in raw, f"step missing field {key!r}")
        # bool is an int subclass, but JSON true is not a timestep
        _require(
            type(raw["t"]) is int, f"step field 't' must be an integer, got {raw['t']!r}"
        )
        t, action = raw["t"], raw["action"]
        _require(isinstance(raw["vars"], dict), f"step {t}: vars must be an object")
        _require(
            isinstance(action, dict) and "name" in action and "theta" in action,
            "step action needs name and theta",
        )
        step = TraceStep(
            t=t,
            vars={k: _json_row(t, f"variable {k}", v) for k, v in raw["vars"].items()},
            action_name=str(action["name"]),
            theta=_json_row(t, "action theta", action["theta"]),
        )
        steps.append(step)
    return ObservationTrace(schema, tuple(steps))


# the types json.loads gives a number; bool is an int subclass, not an int
_JSON_NUMBERS = frozenset({int, float})


def _json_row(t: int, what: str, value: object) -> np.ndarray:
    """A step's variable or theta from its JSON value, which must be a flat
    array of numbers: a string, true or false, a nested array or a bare
    number is refused, not converted."""
    if not (type(value) is list and _JSON_NUMBERS.issuperset(map(type, value))):
        raise TraceFormatError(
            f"step {t}: {what} must be a flat array of numbers, not {value!r:.40}"
        )
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise TraceFormatError(f"step {t}: {what} holds an integer too large for a float") from None


def trace_to_dict(trace: ObservationTrace) -> dict:
    return {
        "schema": {
            "variables": dict(trace.schema.variables),
            "actions": dict(trace.schema.actions),
        },
        "steps": [
            {
                "t": s.t,
                "vars": {k: v.tolist() for k, v in s.vars.items()},
                "action": {"name": s.action_name, "theta": s.theta.tolist()},
            }
            for s in trace.steps
        ],
    }


def read_input(path: str | Path, parse: Callable[[str], T] = json.loads) -> T:
    """``parse`` of the text of an input file, a trace, a run config or a
    program, which must be UTF-8; by default the text is parsed as JSON.
    Raises :class:`TraceFormatError` naming the file where the text is not
    UTF-8, not valid JSON or nested too deeply to parse."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise TraceFormatError(f"{path}: nested too deeply") from None


def load_trace(path: str | Path) -> ObservationTrace:
    """Load and validate a trace file (JSON, UTF-8)."""
    return trace_from_dict(read_input(path))


def save_trace(trace: ObservationTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace), indent=1), encoding="utf-8")
