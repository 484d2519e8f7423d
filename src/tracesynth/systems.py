"""Deterministic trace generators: second-order mechanical systems and a
synthetic paddle controller with discretised actions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .interpreter import discretize_actions
from .program import check_fields
from .trace import ObservationTrace, TraceSchema, TraceStep


@dataclass(frozen=True)
class SecondOrderConfig:
    """Linear second-order system: acceleration = k1 * position + k2 * velocity."""

    k1: float = -9.8  # 1/s^2
    k2: float = 0.0  # 1/s
    x0: float = 0.1
    v0: float = 0.0
    dt: float = 0.01
    steps: int = 100

    def __post_init__(self) -> None:
        check_fields(self)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


PENDULUM = SecondOrderConfig(k1=-9.8, k2=0.0)
OSCILLATOR = SecondOrderConfig(k1=-4.0, k2=-0.25)


def simulate_second_order(cfg: SecondOrderConfig) -> ObservationTrace:
    """Simulate with semi-implicit Euler and record vars {x, v} and action
    accel(theta) with theta the instantaneous law value k1*x + k2*v.

    The recorded relation theta_t = k1*x_t + k2*v_t holds exactly by
    construction, so induction targets it independently of the integrator.
    """
    schema = TraceSchema({"x": 1, "v": 1}, {"accel": 1})
    x, v = cfg.x0, cfg.v0
    steps = []
    for _ in range(cfg.steps):
        theta = cfg.k1 * x + cfg.k2 * v
        steps.append(
            TraceStep({"x": np.array([x]), "v": np.array([v])}, "accel", np.array([theta]))
        )
        v = v + theta * cfg.dt
        x = x + v * cfg.dt
    return ObservationTrace(schema, tuple(steps))


@dataclass(frozen=True)
class PaddleConfig:
    """Synthetic paddle controller.

    The ball bounces vertically across a field of the given height; the
    agent paddle obeys the discretised proportional law
    u = c_ball * ball_y - c_agent * agent_y, moving by sign(u) (zero inside
    the deadband) times its speed per step.  A third, sinusoidally
    patrolling opponent paddle is recorded as a distractor variable.
    """

    height: float = 4.0
    ball_speed: float = 0.7  # units per step, reflecting at 0 and height
    paddle_speed: float = 0.25  # units per step per unit action
    deadband: float = 0.05
    c_agent: float = 0.35
    c_ball: float = 0.30
    steps: int = 400
    seed: int = 7

    def __post_init__(self) -> None:
        check_fields(self)
        if self.deadband < 0:
            raise ValueError("deadband must be nonnegative")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.height <= 0 or self.ball_speed <= 0 or self.paddle_speed <= 0:
            raise ValueError("height and speeds must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def simulate_paddle(cfg: PaddleConfig) -> ObservationTrace:
    """Generate a discretised-control trace: vars {agent_y, ball_y,
    opponent_y} and action move(theta) with theta in {-1, 0, +1}."""
    schema = TraceSchema({"agent_y": 1, "ball_y": 1, "opponent_y": 1}, {"move": 1})
    rng = default_rng(cfg.seed)
    ball = rng.uniform(0.1, 0.9) * cfg.height
    ball_v = cfg.ball_speed * (1.0 if rng.random() < 0.5 else -1.0)
    agent = rng.uniform(0.2, 0.8) * cfg.height
    opp_phase = rng.uniform(0.0, 2.0 * math.pi)
    steps = []
    for t in range(1, cfg.steps + 1):
        opponent = cfg.height * (0.5 + 0.35 * math.sin(0.11 * t + opp_phase))
        u = cfg.c_ball * ball - cfg.c_agent * agent
        theta = discretize_actions(np.array([u]), cfg.deadband)
        rows = {
            "agent_y": np.array([agent]),
            "ball_y": np.array([ball]),
            "opponent_y": np.array([opponent]),
        }
        steps.append(TraceStep(rows, "move", theta))
        agent = float(np.clip(agent + theta[0] * cfg.paddle_speed, 0.0, cfg.height))
        ball += ball_v
        if ball < 0.0:
            ball, ball_v = -ball, -ball_v
        elif ball > cfg.height:
            ball, ball_v = 2.0 * cfg.height - ball, -ball_v
    return ObservationTrace(schema, tuple(steps))
