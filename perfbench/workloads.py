"""The benchmark's workloads: which trace each run induces on, with which
run configuration, and how the run seed selects the panel of problems.

A run induces a fixed-size panel of problems rather than one, because a
single search path depends on its seed: one pendulum solve takes 19-40
search iterations and 3-9 s of CPU time depending on ``RunConfig.seed``.
Averaging over a panel keeps run-to-run spread inside the benchmark's
bounds; each panel is sized to take 40-55 s.  Both traces
are second-order systems and do not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    system_args: dict  # fields of SecondOrderConfig
    config: dict  # RunConfig fields; everything else keeps its default
    panel: int  # problems induced per run, each in its own process


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pendulum",
            system_args=dict(k1=-9.8, k2=0.0, x0=0.1, v0=0.0, dt=0.01, steps=100),
            # a budget even here: about one seed in eight never solves
            # (RunConfig.seed=23 is still unsolved after 200 iterations)
            config=dict(max_iterations=40),
            panel=8,
        ),
        Workload(
            name="damped",
            system_args=dict(k1=-4.0, k2=-0.25, x0=1.0, v0=2.0, dt=0.01, steps=200),
            config=dict(max_step_error=0.01, max_iterations=12),
            panel=8,
        ),
    )
}


def problem_seeds(workload: Workload, seed: int) -> list[int]:
    """``RunConfig.seed`` of each problem in the panel of run ``seed``.
    Panels of different run seeds are disjoint, and problem 0 of run seed 0
    is the workload at ``RunConfig.seed=0``."""
    return [seed * workload.panel + k for k in range(workload.panel)]


def run_config_fields(workload: Workload, run_seed: int, budget: int | None) -> dict:
    """RunConfig fields of one problem; ``budget`` overrides the search
    iteration budget (the benchmark's own tests use tiny budgets)."""
    fields = dict(workload.config, seed=run_seed)
    if budget is not None:
        fields["max_iterations"] = budget
    return fields


def make_trace(ts, workload: Workload):
    """Generate the workload's trace with the ``tracesynth`` module ``ts``."""
    return ts.simulate_second_order(ts.SecondOrderConfig(**workload.system_args))
