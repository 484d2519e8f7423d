"""The benchmark's layer timers still find what they wrap.

``perfbench/layers.py`` replaces ``tracesynth`` functions at the names their
callers bind, and its ``install`` skips a name that is gone, which then
reports zero calls.  These tests fail instead when a renamed or moved
function leaves a layer unwrapped.
"""

from __future__ import annotations

import importlib

import tracesynth
from perfbench import layers
from tracesynth import (
    RunConfig,
    SecondOrderConfig,
    induce,
    simulate_second_order,
    standard_registry,
)


def test_every_target_resolves():
    for layer, module_name, attr in layers.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{layer}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{layer}: {module_name}.{attr} is not callable"


def test_traced_induce_counts_expansion_and_queue():
    trace = simulate_second_order(SecondOrderConfig(k1=-9.8, k2=0.0, x0=0.1, steps=100))
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    config = RunConfig(seed=0, max_iterations=2)
    timer = layers.LayerTimer(config.max_opt_iters)
    timer.install()
    try:
        timer.wrap(layers.ROOT, induce)(trace, registry, config=config)
    finally:
        timer.uninstall()
    metrics = timer.metrics()
    assert metrics["search.expand.proposals_per_call"] > 0
    assert metrics["search.queue.calls"] > 0


def test_probe_reports_every_layer_at_every_length():
    # the probe calls library signatures directly (a schema passed to
    # parse_program, OptimizerState.fresh by position) and drops the
    # keyword arguments a signature no longer takes, so a changed
    # signature shows here as an error or a missing metric
    metrics = layers.probe(tracesynth)
    want = {
        f"probe.{layer}.T{length}.us"
        for length in layers.PROBE_CALLS
        for layer in layers.PROBE_LAYERS
    }
    assert len(want) == 12 and metrics.keys() == want
    assert all(value > 0 for value in metrics.values())
