"""Golden digests of the ``programs`` section of the induce report.

Each case runs ``induce`` on a fixed small trace with a fixed seed and
budget and compares the SHA-256 of the report's ``programs`` section with a
recorded value, so a refactor of the interpreter, the backward pass or the
optimiser loop can show it leaves the search byte-identical.  The digests
were recorded before the tape-based interpreter replaced the recursive one.

The same runs also pin the optimiser's trajectory, not only its output:
the number of optimiser iterations, of variable re-bindings and of
``execute`` calls.  The iteration and re-binding totals of the reference
search that optimises every proposal on arrival were recorded before the
optimiser kept one tree per binding; those of ``induce``, which defers each
proposal until it reaches the top of the queue, after that change.  The
damped case was recorded, digest and totals, before the optimiser began to
follow cycles of up to four iterations in look-ahead blocks, and the
``pendulum_seed42`` case before those cycles could re-bind a leaf; both
changes leave every total but the ``execute`` counts as it was.  The
``execute`` counts were recorded after cycles could re-bind, and again
once settled votes and stationary tails were decided without one.  Every
proposal ``induce`` optimises must take exactly the steps it takes in the
reference run.  The paddle values were recorded again when the
discrete error model began to add ``max_step_error + 1`` to a misclassified
step.
"""

from __future__ import annotations

import hashlib

import pytest

import tracesynth.optimizer as optimizer
import tracesynth.search as search_module
from tracesynth import (
    PaddleConfig,
    RunConfig,
    SecondOrderConfig,
    canonical_key,
    induce,
    simulate_paddle,
    simulate_second_order,
    standard_registry,
)
from tracesynth.cli import render_report
from tests.conftest import assert_same_optimum, eager_induce, sequential_optimize

CASES = {
    # depth-2 structures and ~170 variable re-bindings on the Euclidean model
    "pendulum": (
        lambda: simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=20)),
        RunConfig(seed=1, max_iterations=5, max_opt_iters=150),
        "c49b86879098a5d0b6117f5af6a0e40cc46182b88fb6d1feb28608391c47fde6",
    ),
    # three rebindable variables on the discrete error model
    "paddle": (
        lambda: simulate_paddle(PaddleConfig(steps=100)),
        RunConfig(
            seed=1, max_iterations=3, max_opt_iters=100, max_step_error=0.02, error_model="discrete"
        ),
        "36d51cd98a490f1b4f86173fd20626ae8692f3edf9c52c150e5bf267add54f39",
    ),
    # the damped benchmark workload at one of its seeds: candidates execute a
    # step or two, and most optimiser iterations come round in short cycles
    "damped_seed5": (
        lambda: simulate_second_order(
            SecondOrderConfig(k1=-4.0, k2=-0.25, x0=1.0, v0=2.0, steps=200)
        ),
        RunConfig(seed=5, max_iterations=12, max_step_error=0.01),
        "e40ed1a1ec90e1dc6754ecc8da02956d6e2081b89368a86ba529e396d091a412",
    ),
    # the pendulum benchmark workload at one of its seeds: (accel (sub ? v))
    # runs to the optimiser's cap while its leaf flips between x and v
    "pendulum_seed42": (
        lambda: simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=100)),
        RunConfig(seed=42, max_iterations=40),
        "346dce3f6ab4c1189cba05f7db3dc646621d8a6371967a070216227a664de5df",
    ),
}


# name -> (optimiser iterations, re-bindings) over the whole run, by the
# search that optimises every proposal on arrival (the reference loop) and
# by ``induce``, which optimises a proposal only when it reaches the top of
# the queue
REFERENCE_TRAJECTORIES = {
    "pendulum": (1391, 170),
    "paddle": (1654, 8),
    "damped_seed5": (16204, 0),
    "pendulum_seed42": (24695, 8383),
}
TRAJECTORIES = {
    "pendulum": (123, 4),
    "paddle": (109, 3),
    "damped_seed5": (2210, 0),
    "pendulum_seed42": (2264, 1534),
}
# name -> ``execute`` calls of the same runs: look-ahead blocks evaluate
# most iterations without one
REFERENCE_EXECUTES = {"pendulum": 269, "paddle": 466, "damped_seed5": 2462, "pendulum_seed42": 1515}
EXECUTES = {"pendulum": 40, "paddle": 26, "damped_seed5": 75, "pendulum_seed42": 66}


# the golden runs, a damped oscillator whose coverage grows slowly and
# another pendulum benchmark problem with a leaf that flips until the cap
EXACTNESS_CASES = {
    **{name: (make, config) for name, (make, config, _) in CASES.items()},
    "damped": (
        lambda: simulate_second_order(
            SecondOrderConfig(k1=-4.0, k2=-0.25, x0=1.0, v0=2.0, steps=200)
        ),
        RunConfig(seed=0, max_iterations=12, max_step_error=0.01),
    ),
    "pendulum_seed100": (
        CASES["pendulum_seed42"][0],
        RunConfig(seed=100, max_iterations=40),
    ),
}


def programs_digest(report: str) -> str:
    start = report.index("\nprograms\n")
    end = report.index("\nstats\n", start)
    return hashlib.sha256(report[start:end].encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_programs_section_digest(name):
    make_trace, config, want = CASES[name]
    trace = make_trace()
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    report = render_report(induce(trace, registry, config=config), config, name)
    assert programs_digest(report) == want


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_optimiser_trajectory(name, monkeypatch):
    """Whole-run totals of both searches, and each proposal that ``induce``
    optimises takes the same trajectory as in the reference run."""
    make_trace, config, _ = CASES[name]
    counts = {"execute": 0, "rebind": 0, "iterations": 0}
    per_proposal: dict[str, tuple[int, int, int]] = {}
    execute, optimize = optimizer.execute, optimizer.optimize

    def counted_execute(*args, **kwargs):
        counts["execute"] += 1
        return execute(*args, **kwargs)

    def counted_optimize(ast, *args, **kwargs):
        before = dict(counts)
        out = optimize(ast, *args, **kwargs)
        counts["iterations"] += out.iterations
        counts["rebind"] += out.rebinds
        per_proposal[canonical_key(ast)] = tuple(counts[k] - before[k] for k in sorted(counts))
        return out

    def run(search) -> tuple[dict[str, int], dict[str, tuple[int, int, int]]]:
        counts.update(execute=0, rebind=0, iterations=0)
        per_proposal.clear()
        search()
        return dict(counts), dict(per_proposal)

    monkeypatch.setattr(optimizer, "execute", counted_execute)
    monkeypatch.setattr(optimizer, "optimize", counted_optimize)
    monkeypatch.setattr(search_module, "optimize", counted_optimize)
    trace = make_trace()
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    totals, deferred = run(lambda: induce(trace, registry, config=config))
    ref_totals, eager = run(lambda: eager_induce(trace, registry, config))
    assert (ref_totals["iterations"], ref_totals["rebind"]) == REFERENCE_TRAJECTORIES[name]
    assert (totals["iterations"], totals["rebind"]) == TRAJECTORIES[name]
    assert ref_totals["execute"] == REFERENCE_EXECUTES[name]
    assert totals["execute"] == EXECUTES[name]
    assert deferred and all(eager[key] == steps for key, steps in deferred.items())


@pytest.mark.parametrize("name", sorted(EXACTNESS_CASES))
def test_every_optimize_call_equals_the_sequential_loop(name, monkeypatch):
    """Each ``optimize`` call of a whole search returns, bit for bit, what
    the loop without look-ahead blocks returns, and most of the iterations
    run in blocks."""
    make_trace, config = EXACTNESS_CASES[name]
    optimize, execute = optimizer.optimize, optimizer.execute
    iterations, executes = [], []

    def counted_execute(*args, **kwargs):
        executes.append(1)
        return execute(*args, **kwargs)

    def checked(*args):
        got = optimize(*args)
        assert_same_optimum(got, sequential_optimize(*args))
        iterations.append(got.iterations)
        return got

    monkeypatch.setattr(optimizer, "execute", counted_execute)
    monkeypatch.setattr(search_module, "optimize", checked)
    trace = make_trace()
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    result = induce(trace, registry, config=config)
    assert len(iterations) == result.optimised
    assert sum(iterations) == result.opt_iters
    assert len(executes) < sum(iterations) / 2
