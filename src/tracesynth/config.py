"""Run configuration shared by the optimiser, the structure search and the
command-line surface."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .interpreter import ErrorSpec, discretized_error_spec
from .optimizer import OptimizeConfig
from .program import ComplexityWeights, check_fields


@dataclass(frozen=True)
class RunConfig:
    max_step_error: float = 0.05
    learning_rate: float = 0.2
    max_opt_iters: int = 1500
    max_iterations: int = 1000
    weights: ComplexityWeights = field(default_factory=ComplexityWeights)
    top_k: int = 3
    seed: int = 0
    error_model: str = "euclidean"  # "euclidean" or "discrete"
    deadband: float = 0.05  # discrete error model: classification deadband

    def __post_init__(self) -> None:
        check_fields(self)
        positive = {
            "max_step_error": self.max_step_error,
            "learning_rate": self.learning_rate,
            "max_opt_iters": self.max_opt_iters,
            "max_iterations": self.max_iterations,
            "top_k": self.top_k,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.deadband < 0:
            # a negative deadband makes the discrete model reward the wrong class
            raise ValueError("deadband must be >= 0")
        if self.error_model not in ("euclidean", "discrete"):
            raise ValueError(f"unknown error model: {self.error_model}")
        if self.error_model == "discrete" and self.deadband == 0:
            # a prediction of 0 would then be within 0 of both class +1 and class -1
            raise ValueError("deadband must be > 0 for the discrete error model")
        self.error_spec()  # which refuses a threshold it cannot add its penalty to

    def optimize_config(self) -> OptimizeConfig:
        return OptimizeConfig(learning_rate=self.learning_rate, max_opt_iters=self.max_opt_iters)

    def error_spec(self) -> ErrorSpec:
        if self.error_model == "discrete":
            return discretized_error_spec(self.deadband, self.max_step_error)
        return ErrorSpec(max_step_error=self.max_step_error)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ComplexityWeights):
                value = [value.depth, value.params, value.variables]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, not {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(doc)
        if "weights" in kwargs:
            kwargs["weights"] = _as_weights(kwargs["weights"])
        return cls(**kwargs)

    def override(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        if "weights" in kwargs:
            kwargs["weights"] = _as_weights(kwargs["weights"])
        return replace(self, **kwargs)


def _as_weights(value: object) -> ComplexityWeights:
    """Complexity weights from a ``[depth, params, variables]`` list, each
    weight held to ``ComplexityWeights``' own rule."""
    if isinstance(value, ComplexityWeights):
        return value
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ValueError("weights must be three numbers: depth, params, variables")
    return ComplexityWeights(*value)
