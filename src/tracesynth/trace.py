"""Observation traces, per-timestep memory views and the per-timestep
nearest-variable index."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np


class TraceFormatError(Exception):
    """Document does not satisfy the trace file contract."""


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
        for section in (self.variables, self.actions):
            for name, dim in section.items():
                problem = _unwritable(name)
                if problem is not None:
                    raise TraceFormatError(f"name {name!r} {problem}")
                if dim < 1:
                    raise TraceFormatError(f"{name}: dimension must be >= 1")


@dataclass(frozen=True)
class TraceStep:
    t: int
    vars: dict[str, np.ndarray]
    action_name: str
    theta: np.ndarray


@dataclass(frozen=True)
class ObservationTrace:
    schema: TraceSchema
    steps: tuple[TraceStep, ...]

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
                if step.vars[name].shape != (dim,):
                    raise TraceFormatError(f"step {step.t}: variable {name} has wrong dimension")
            for name in step.vars:
                if name not in self.schema.variables:
                    raise TraceFormatError(f"step {step.t}: undeclared variable {name}")
            if step.action_name not in self.schema.actions:
                raise TraceFormatError(f"step {step.t}: undeclared action {step.action_name}")
            want = self.schema.actions[step.action_name]
            if step.theta.shape != (want,):
                raise TraceFormatError(
                    f"step {step.t}: action {step.action_name} expects theta of dimension {want}"
                )
        for name, values in self.var_matrices().items():
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                t = int(np.argmin(finite)) + 1
                raise TraceFormatError(f"step {t}: variable {name} is not finite")
        if not np.isfinite(np.concatenate([s.theta for s in self.steps])).all():
            t = next(s.t for s in self.steps if not np.isfinite(s.theta).all())
            raise TraceFormatError(f"step {t}: action theta is not finite")

    def _cache(self) -> dict:
        # dense views are rebuilt on demand and memoised; the trace is
        # immutable so the cache never invalidates
        cache = self.__dict__.get("_dense_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_dense_cache", cache)
        return cache

    def var_matrix(self, name: str) -> np.ndarray:
        """Values of one variable over all steps, shape (T, d), read-only:
        an execution's values may be this very array."""
        cache = self._cache()
        key = ("var", name)
        if key not in cache:
            cache[key] = np.stack([s.vars[name] for s in self.steps])
            cache[key].flags.writeable = False
        return cache[key]

    def var_matrices(self) -> dict[str, np.ndarray]:
        """``var_matrix`` of every schema variable, keyed by name."""
        cache = self._cache()
        if "vars" not in cache:
            cache["vars"] = {name: self.var_matrix(name) for name in self.schema.variables}
        return cache["vars"]

    def theta_matrix(self) -> np.ndarray:
        """Observed action parameters over all steps, shape (T, D).

        Only meaningful when every step uses the same action (padded with
        NaN where dimensions differ otherwise)."""
        cache = self._cache()
        if "theta" not in cache:
            dmax = max(s.theta.shape[0] for s in self.steps)
            out = np.full((self.length, dmax), np.nan)
            for i, s in enumerate(self.steps):
                out[i, : s.theta.shape[0]] = s.theta
            cache["theta"] = out
        return cache["theta"]

    def action_targets(self, name: str, dim: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """What a program whose root is action ``name`` of dimension ``dim``
        is compared against: the observed parameters (T, dim), the mask of
        steps whose observed action is ``name``, and whether that is every
        step.  Raises ``ValueError`` if the schema gives ``name`` another
        dimension."""
        cache = self._cache()
        key = ("targets", name, dim)
        targets = cache.get(key)
        if targets is None:
            if self.schema.actions.get(name, dim) != dim:
                raise ValueError(
                    f"action {name} has dimension {self.schema.actions[name]} in the trace"
                    f" schema, not {dim}"
                )
            name_match = np.array([s.action_name == name for s in self.steps])
            targets = (self.theta_matrix()[:, :dim], name_match, bool(name_match.all()))
            cache[key] = targets
        return targets


@dataclass(frozen=True)
class MemoryState:
    """Variable and parameter bindings visible to a program at one timestep."""

    t: int
    variables: dict[str, np.ndarray]
    params: dict[int, np.ndarray] = field(default_factory=dict)


def memory_at(
    trace: ObservationTrace, t: int, params: Mapping[int, np.ndarray] | None = None
) -> MemoryState:
    """Memory view at 1-based timestep ``t``; raises IndexError out of range."""
    if not 1 <= t <= trace.length:
        raise IndexError(f"timestep {t} outside 1..{trace.length}")
    step = trace.steps[t - 1]
    return MemoryState(t, dict(step.vars), dict(params or {}))


class VariableIndex:
    """Exact nearest-neighbour lookup over variable values, per timestep and
    per dimension.

    The candidate sets are the handful of schema variables sharing a
    dimension, so the index stores them as dense (T, n_vars, d) arrays and
    answers queries by a vectorised scan: exact, and deterministic because
    candidates are ordered by variable name (argmin takes the first, i.e.
    lexicographically smallest, on ties).
    """

    def __init__(self, trace: ObservationTrace):
        self.names = names_by_dim(trace.schema.variables)
        self.values = {
            dim: np.stack([trace.var_matrix(n) for n in names], axis=1)
            for dim, names in self.names.items()
        }

    def query_steps(self, dim: int, points: np.ndarray) -> np.ndarray:
        """Vectorised query for timesteps 1..n: ``points`` has shape
        (..., n, d), any leading axes holding more queries for the same
        steps; returns the winning variable's index into ``names[dim]`` per
        query, shape (..., n)."""
        if dim not in self.names:
            raise KeyError(f"no variable of dimension {dim}")
        n = points.shape[-2]
        diff = self.values[dim][:n] - points[..., None, :]  # (..., n, n_vars, d)
        # the arithmetic of np.linalg.norm(diff, axis=-1) without its dispatch overhead
        return np.sqrt(np.add.reduce(diff * diff, axis=-1)).argmin(axis=-1)


def names_by_dim(variables: Mapping[str, int]) -> dict[int, list[str]]:
    """The variable names of each dimension, sorted by name."""
    by_dim: dict[int, list[str]] = {}
    for name, dim in sorted(variables.items()):
        by_dim.setdefault(dim, []).append(name)
    return by_dim


def build_variable_index(trace: ObservationTrace) -> VariableIndex:
    """Build the per-timestep nearest-variable index for a trace.  The trace
    is immutable during induction, so all timesteps are indexed once."""
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
        for name, dim in sch[section].items():
            # bool is an int subclass, and int() would truncate 1.7 and parse "1"
            _require(
                type(dim) is int,
                f"schema {section} {name!r}: dimension must be an integer, got {dim!r}",
            )
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
        action = raw["action"]
        _require(
            isinstance(action, dict) and "name" in action and "theta" in action,
            "step action needs name and theta",
        )
        try:
            step = TraceStep(
                t=raw["t"],
                vars={k: np.asarray(v, dtype=float).reshape(-1) for k, v in raw["vars"].items()},
                action_name=str(action["name"]),
                theta=np.asarray(action["theta"], dtype=float).reshape(-1),
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise TraceFormatError(f"bad step: {exc}") from None
        steps.append(step)
    return ObservationTrace(schema, tuple(steps))


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


def load_trace(path: str | Path) -> ObservationTrace:
    """Load and validate a trace file (JSON, UTF-8)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from None
    return trace_from_dict(doc)


def save_trace(trace: ObservationTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace), indent=1), encoding="utf-8")
