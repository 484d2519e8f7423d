"""Golden digests of the ``programs`` section of the induce report.

Each case runs ``induce`` on a fixed small trace with a fixed seed and
budget and compares the SHA-256 of the report's ``programs`` section with a
recorded value, so a refactor of the interpreter, the backward pass or the
optimiser loop can show it leaves the search byte-identical.  The digests
were recorded before the tape-based interpreter replaced the recursive one.

The same runs also pin the optimiser's trajectory, not only its output: the
number of ``execute`` calls and of variable re-bindings.  The totals of the
reference search that optimises every proposal on arrival were recorded
before the optimiser kept one tree per binding; those of ``induce``, which
defers each proposal until it reaches the top of the queue, after that
change.  Every proposal ``induce`` optimises must take exactly the steps it
takes in the reference run.
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
from tests.conftest import eager_induce

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
        "0441fa1bff34b4237bff37987ee609ee904d3cffeb24b66dce82e393467edbff",
    ),
}


# name -> (execute calls, re-bindings) over the whole run, by the search
# that optimises every proposal on arrival (the reference loop) and by
# ``induce``, which optimises a proposal only when it reaches the top of
# the queue
REFERENCE_TRAJECTORIES = {"pendulum": (1391, 170), "paddle": (1198, 7)}
TRAJECTORIES = {"pendulum": (123, 4), "paddle": (145, 3)}


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
    counts = {"execute": 0, "rebind": 0}
    per_proposal: dict[str, tuple[int, int]] = {}
    execute, reassign = optimizer.execute, optimizer.reassign_variables
    optimize = optimizer.optimize

    def counted_execute(*args, **kwargs):
        counts["execute"] += 1
        return execute(*args, **kwargs)

    def counted_reassign(*args, **kwargs):
        out = reassign(*args, **kwargs)
        counts["rebind"] += out[2]
        return out

    def counted_optimize(ast, *args, **kwargs):
        before = (counts["execute"], counts["rebind"])
        out = optimize(ast, *args, **kwargs)
        per_proposal[canonical_key(ast)] = (
            counts["execute"] - before[0],
            counts["rebind"] - before[1],
        )
        return out

    def run(search) -> tuple[tuple[int, int], dict[str, tuple[int, int]]]:
        counts.update(execute=0, rebind=0)
        per_proposal.clear()
        search()
        return (counts["execute"], counts["rebind"]), dict(per_proposal)

    monkeypatch.setattr(optimizer, "execute", counted_execute)
    monkeypatch.setattr(optimizer, "reassign_variables", counted_reassign)
    monkeypatch.setattr(optimizer, "optimize", counted_optimize)
    monkeypatch.setattr(search_module, "optimize", counted_optimize)
    trace = make_trace()
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    totals, deferred = run(lambda: induce(trace, registry, config=config))
    ref_totals, eager = run(lambda: eager_induce(trace, registry, config))
    assert ref_totals == REFERENCE_TRAJECTORIES[name]
    assert totals == TRAJECTORIES[name]
    assert deferred and all(eager[key] == steps for key, steps in deferred.items())
