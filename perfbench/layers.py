"""Per-layer timing from outside the program.

``LayerTimer`` replaces public functions, at the names their callers bind,
with wrappers that time each call and keep layer counters; nothing in
``src/`` changes and the originals are put back afterwards.  Spans nest, so
each layer's self time excludes the wrapped layers it calls.  ``probe``
times the four inner layers on one fixed program at three trace lengths.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict

# (layer, module, attribute): the attribute is looked up where its caller
# binds it, e.g. ``optimize`` calls ``tracesynth.optimizer.execute``
TARGETS = (
    ("interpreter.execute", "tracesynth.optimizer", "execute"),
    ("autodiff.backward", "tracesynth.optimizer", "backward"),
    ("optimizer.adagrad_step", "tracesynth.optimizer", "adagrad_step"),
    ("optimizer.reassign_variables", "tracesynth.optimizer", "reassign_variables"),
    ("trace.VariableIndex.query_steps", "tracesynth.trace", "VariableIndex.query_steps"),
    ("optimizer.optimize", "tracesynth.search", "optimize"),
    ("search.expand", "tracesynth.search", "expand"),
    ("search.expand", "tracesynth.search", "expand_empty"),
    ("search.queue", "tracesynth.search", "CandidateQueue.push"),
    ("search.queue", "tracesynth.search", "CandidateQueue.pop"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
ROOT = "search"  # the induce call itself

PROBE_PROGRAM = "(accel (add (scale -3.9 x) (scale -0.2 v)))"
PROBE_CALLS = {100: 400, 400: 200, 4000: 40}  # trace length -> timed iterations
PROBE_LAYERS = ("execute", "backward", "adagrad_step", "reassign_variables")


class LayerTimer:
    def __init__(self, max_opt_iters: int) -> None:
        self.max_opt_iters = max_opt_iters
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[float] = []  # time spent in child spans, per open span
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            executes_before = self.calls["interpreter.execute"]
            self._open.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += spent
                self.calls[layer] += 1
                self.total[layer] += spent
                self.self_time[layer] += spent - children
            self._count(layer, result, self.calls["interpreter.execute"] - executes_before)
            return result

        return timed

    def _count(self, layer: str, result, executes: int) -> None:
        if layer == "interpreter.execute":
            self.counts["executed_steps"] += result.executed_len
            self.counts["observed_steps"] += result.observed_len
        elif layer == "optimizer.reassign_variables":
            self.counts["rebinds"] += bool(result[2])
        elif layer == "optimizer.optimize":
            self.counts["opt_iters"] += executes
            self.counts["capped"] += executes >= self.max_opt_iters
        elif layer == "search.expand":
            self.counts["proposals"] += len(result)

    def install(self) -> None:
        """Wrap every target that exists; a layer whose function is gone
        reports zero calls."""
        for layer, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name, None)
            if original is None:
                continue
            setattr(owner, name, self.wrap(layer, original))
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per layer: calls, microseconds per call (inclusive) and self-time
        share of the induce call; plus each layer's useful-work ratios."""
        wall = self.total[ROOT]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.us_per_call"] = ratio(self.total[layer], self.calls[layer]) * 1e6
            out[f"{layer}.share"] = ratio(self.self_time[layer], wall)
        c = self.counts
        out["interpreter.execute.coverage"] = ratio(c["executed_steps"], c["observed_steps"])
        out["optimizer.reassign_variables.rebind_ratio"] = ratio(
            c["rebinds"], self.calls["optimizer.reassign_variables"]
        )
        out["optimizer.optimize.iters_per_call"] = ratio(c["opt_iters"], self.calls["optimizer.optimize"])
        out["optimizer.optimize.cap_share"] = ratio(c["capped"], self.calls["optimizer.optimize"])
        out["search.expand.proposals_per_call"] = ratio(c["proposals"], self.calls["search.expand"])
        out["search.expand.dedup_ratio"] = 1.0 - ratio(self.calls["optimizer.optimize"], c["proposals"])
        out["search.share"] = ratio(self.self_time[ROOT], wall)
        return out


def _call(fn, **kwargs):
    """Call ``fn`` with the keyword arguments its signature still accepts, so
    the probe survives the removal of an unused parameter."""
    accepted = inspect.signature(fn).parameters
    return fn(**{k: v for k, v in kwargs.items() if k in accepted})


def probe(ts) -> dict[str, float]:
    """Median microseconds per call of execute, backward, adagrad_step and
    reassign_variables on ``PROBE_PROGRAM`` over damped traces of each
    length in ``PROBE_CALLS``.  The error threshold is loose enough that
    every call covers the whole trace, which is checked."""
    out = {}
    for length, iterations in PROBE_CALLS.items():
        trace = ts.simulate_second_order(
            ts.SecondOrderConfig(k1=-4.0, k2=-0.25, x0=1.0, v0=2.0, steps=length)
        )
        registry = ts.standard_registry(trace.schema.variables, trace.schema.actions)
        ast = ts.parse_program(PROBE_PROGRAM, registry, trace.schema)
        spec = ts.ErrorSpec(max_step_error=1.0)
        index = ts.build_variable_index(trace)
        state = ts.OptimizerState.fresh(ast, ts.initial_params(ast), ts.OptimizeConfig())
        samples = {layer: [] for layer in PROBE_LAYERS}
        clock = time.perf_counter
        for _ in range(iterations):
            t0 = clock()
            result = _call(
                ts.execute, ast=ast, params=state.params, trace=trace, registry=registry, spec=spec
            )
            t1 = clock()
            grads = _call(ts.backward, call_trace=None, result=result, spec=spec, registry=registry)
            t2 = clock()
            state = ts.adagrad_step(state, grads)
            t3 = clock()
            _, state, _ = _call(
                ts.reassign_variables, ast=ast, state=state, grads=grads, index=index, trace=trace
            )
            t4 = clock()
            if result.executed_len != length:
                raise RuntimeError(f"probe covered {result.executed_len} of {length} steps")
            for layer, spent in zip(PROBE_LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                samples[layer].append(spent)
        for layer in PROBE_LAYERS:
            out[f"probe.{layer}.T{length}.us"] = statistics.median(samples[layer]) * 1e6
    return out
