import numpy as np
import pytest

from tracesynth import (
    OSCILLATOR,
    PENDULUM,
    PaddleConfig,
    SecondOrderConfig,
    load_trace,
    save_trace,
    simulate_paddle,
    simulate_second_order,
)
from tracesynth.interpreter import discretize_actions


class TestSecondOrder:
    def test_pendulum_first_action(self):
        trace = simulate_second_order(PENDULUM)
        np.testing.assert_allclose(trace.steps[0].theta, [-0.98])

    def test_pendulum_semi_implicit_euler_step(self):
        trace = simulate_second_order(PENDULUM)
        np.testing.assert_allclose(trace.steps[1].vars["v"], [-0.0098])
        np.testing.assert_allclose(trace.steps[1].vars["x"], [0.099902])

    def test_zero_force(self):
        cfg = SecondOrderConfig(k1=0.0, k2=0.0, x0=0.3, v0=0.5, steps=10)
        trace = simulate_second_order(cfg)
        for i, step in enumerate(trace.steps):
            np.testing.assert_allclose(step.theta, [0.0])
            np.testing.assert_allclose(step.vars["v"], [0.5])
            np.testing.assert_allclose(step.vars["x"], [0.3 + 0.5 * cfg.dt * i])

    def test_recurrence_self_consistency(self):
        cfg = SecondOrderConfig(k1=-4.0, k2=-0.25, x0=1.0, v0=0.5, dt=0.02, steps=50)
        trace = simulate_second_order(cfg)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            x, v = prev.vars["x"][0], prev.vars["v"][0]
            theta = cfg.k1 * x + cfg.k2 * v
            np.testing.assert_allclose(prev.theta, [theta], rtol=1e-12)
            v_next = v + theta * cfg.dt
            x_next = x + v_next * cfg.dt
            np.testing.assert_allclose(cur.vars["v"], [v_next], rtol=1e-12)
            np.testing.assert_allclose(cur.vars["x"], [x_next], rtol=1e-12)

    def test_action_is_exact_law_value(self):
        trace = simulate_second_order(OSCILLATOR)
        x = trace.var_matrix("x")[:, 0]
        v = trace.var_matrix("v")[:, 0]
        theta = trace.action_targets("accel", 1)[0][:, 0]
        np.testing.assert_allclose(theta, -4.0 * x - 0.25 * v, rtol=1e-12)

    def test_defaults(self):
        trace = simulate_second_order(SecondOrderConfig())
        assert trace.length == 100

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SecondOrderConfig(dt=0.0)
        with pytest.raises(ValueError):
            SecondOrderConfig(steps=0)

    def test_bit_identical(self):
        a = simulate_second_order(OSCILLATOR)
        b = simulate_second_order(OSCILLATOR)
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_array_equal(sa.theta, sb.theta)
            np.testing.assert_array_equal(sa.vars["x"], sb.vars["x"])

    def test_round_trip_validates(self, tmp_path):
        trace = simulate_second_order(PENDULUM)
        path = tmp_path / "p.trace"
        save_trace(trace, path)
        assert load_trace(path).length == trace.length


class TestPaddle:
    def test_control_law_positive(self):
        # u = 0.30*1 - 0.35*0 = 0.30 > deadband -> move(+1)
        u = 0.30 * 1.0 - 0.35 * 0.0
        assert u == pytest.approx(0.30)
        assert discretize_actions(np.array([[u]]), 0.05)[0, 0] == 1.0

    def test_control_law_deadband(self):
        u = 0.30 * 1.0 - 0.35 * (1.0 * 0.30 / 0.35)
        assert abs(u) < 1e-12
        assert discretize_actions(np.array([[u]]), 0.05)[0, 0] == 0.0

    def test_control_law_negative(self):
        assert discretize_actions(np.array([[-0.2]]), 0.05)[0, 0] == -1.0

    def test_trace_obeys_generating_law(self):
        cfg = PaddleConfig(deadband=0.3)
        trace = simulate_paddle(cfg)
        ball = trace.var_matrix("ball_y")[:, 0]
        agent = trace.var_matrix("agent_y")[:, 0]
        theta = trace.action_targets("move", 1)[0][:, 0]
        u = cfg.c_ball * ball - cfg.c_agent * agent
        want = discretize_actions(u.reshape(-1, 1), cfg.deadband)[:, 0]
        np.testing.assert_array_equal(theta, want)

    def test_agent_integrates_actions(self):
        cfg = PaddleConfig()
        trace = simulate_paddle(cfg)
        agent = trace.var_matrix("agent_y")[:, 0]
        theta = trace.action_targets("move", 1)[0][:, 0]
        for i in range(len(agent) - 1):
            expected = np.clip(agent[i] + theta[i] * cfg.paddle_speed, 0, cfg.height)
            np.testing.assert_allclose(agent[i + 1], expected, rtol=1e-12)

    def test_ball_stays_in_field(self):
        cfg = PaddleConfig(steps=1000)
        trace = simulate_paddle(cfg)
        ball = trace.var_matrix("ball_y")[:, 0]
        assert ball.min() >= 0.0 and ball.max() <= cfg.height

    def test_actions_discrete(self):
        trace = simulate_paddle(PaddleConfig())
        theta = trace.action_targets("move", 1)[0][:, 0]
        assert set(np.unique(theta)) <= {-1.0, 0.0, 1.0}

    def test_bit_identical_with_seed(self):
        a = simulate_paddle(PaddleConfig(seed=11))
        b = simulate_paddle(PaddleConfig(seed=11))
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_array_equal(sa.theta, sb.theta)
            np.testing.assert_array_equal(sa.vars["agent_y"], sb.vars["agent_y"])

    def test_seed_changes_trace(self):
        a = simulate_paddle(PaddleConfig(seed=1))
        b = simulate_paddle(PaddleConfig(seed=2))
        assert any(
            not np.array_equal(sa.vars["ball_y"], sb.vars["ball_y"])
            for sa, sb in zip(a.steps, b.steps)
        )

    def test_bad_config(self):
        with pytest.raises(ValueError):
            PaddleConfig(deadband=-0.1)
        with pytest.raises(ValueError):
            PaddleConfig(steps=0)
        with pytest.raises(ValueError):
            PaddleConfig(c_agent=float("inf"))

    def test_round_trip_validates(self, tmp_path):
        trace = simulate_paddle(PaddleConfig())
        path = tmp_path / "pd.trace"
        save_trace(trace, path)
        assert load_trace(path).schema.variables == {
            "agent_y": 1,
            "ball_y": 1,
            "opponent_y": 1,
        }
