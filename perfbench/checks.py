"""Checks of what ``induce`` returns, made without the code under test, and
the quality figures of the top-1 program.

Every program is re-evaluated with one ``evaluate_step`` call per step of
the full trace, so neither the vectorised interpreter nor ``matches_trace``
takes part in judging it.
"""

from __future__ import annotations

import hashlib

import numpy as np


def program_outputs(ts, ast, params, trace, registry) -> tuple[list[str], np.ndarray]:
    """Action name and action parameters the program gives at every step."""
    names, thetas = [], []
    for t in range(1, trace.length + 1):
        name, theta, *_ = ts.evaluate_step(ast, registry, ts.memory_at(trace, t, params))
        names.append(name)
        thetas.append(np.asarray(theta, dtype=float).reshape(-1))
    return names, np.stack(thetas)


def observed(trace) -> tuple[list[str], np.ndarray]:
    return [s.action_name for s in trace.steps], np.stack([s.theta for s in trace.steps])


def step_errors(names, theta_hat, trace, config) -> np.ndarray:
    """Per-step error under the run's own error model; a step whose action
    name differs from the observed one is an infinite error."""
    obs_names, theta = observed(trace)
    errors = np.asarray(config.error_spec().act_error(theta_hat, theta), dtype=float)
    errors[np.array(names) != np.array(obs_names)] = np.inf
    return errors


def prefix_loss(errors: np.ndarray, max_step_error: float) -> float:
    """Loss of the executed prefix: every step up to and including the first
    one whose error exceeds the threshold."""
    over = np.nonzero(errors > max_step_error)[0]
    return float(errors[: int(over[0]) + 1 if over.size else len(errors)].sum())


def accepted_problems(ts, names, theta_hat, trace, config) -> list[str]:
    """Why an accepted program does not reproduce the trace; empty if it
    does.  On the discrete model every step must also land in the observed
    action class, not merely within ``max_step_error`` of it."""
    problems = []
    errors = step_errors(names, theta_hat, trace, config)
    miss = np.nonzero(errors > config.max_step_error)[0]
    if miss.size:
        problems.append(
            f"accepted program misses {miss.size} of {trace.length} steps (first t={miss[0] + 1})"
        )
    if config.error_model == "discrete":
        _, theta = observed(trace)
        wrong = np.nonzero(np.any(ts.discretize_actions(theta_hat, config.deadband) != theta, axis=1))[0]
        if wrong.size:
            problems.append(
                f"accepted program picks the wrong action class on {wrong.size} of "
                f"{trace.length} steps (first t={wrong[0] + 1})"
            )
    return problems


def law_error(workload, theta_hat, trace) -> float:
    """Distance of the program from the second-order law that generated the
    trace: least-squares fit of the program's output onto [x, v], as
    ||fit - (k1, k2)|| / ||(k1, k2)||."""
    basis = np.column_stack([trace.var_matrix("x")[:, 0], trace.var_matrix("v")[:, 0]])
    fit = np.linalg.lstsq(basis, theta_hat[:, 0], rcond=None)[0]
    law = np.array([workload.system_args["k1"], workload.system_args["k2"]])
    return float(np.linalg.norm(fit - law) / np.linalg.norm(law))


def programs_digest(report: str) -> str:
    """SHA-256 of the ``programs`` section of an induce report, the part
    that must be byte-identical for a fixed trace, config and seed."""
    start = report.index("\nprograms\n")
    end = report.index("\nstats\n", start)
    return hashlib.sha256(report[start:end].encode()).hexdigest()
