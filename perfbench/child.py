"""One benchmark repetition, run by ``run.py`` in a fresh process.

    python3 perfbench/child.py --workload NAME --run-seed N --trace-file PATH
                               [--traced] [--budget N]

It times set-up (import ``tracesynth``, ``load_trace``,
``standard_registry``) and one ``induce`` call on the trace, then checks the
result and prints one JSON line.  Both are timed in process CPU time, and
``induce`` in wall time too: it runs on one thread, so the two agree on an
idle core, but CPU time grows far less than wall time when other processes
take the core away.  ``--traced`` also installs the layer timers around
``induce`` and runs the fixed-program probe after removing them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run-seed", type=int, required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--budget", type=int)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    start = time.process_time()
    import tracesynth as ts

    trace = ts.load_trace(args.trace_file)
    registry = ts.standard_registry(trace.schema.variables, trace.schema.actions)
    setup_s = time.process_time() - start
    print(json.dumps({"setup_s": setup_s, **induce_once(ts, trace, registry, args)}))


def induce_once(ts, trace, registry, args) -> dict:
    from tracesynth.cli import render_report
    from tracesynth.config import RunConfig

    # these import numpy; importing them only now keeps that cost inside the timed set-up
    import checks
    import layers
    from workloads import WORKLOADS, run_config_fields

    workload = WORKLOADS[args.workload]
    config = RunConfig(**run_config_fields(workload, args.run_seed, args.budget))
    timer = layers.LayerTimer(config.max_opt_iters) if args.traced else None
    induce = ts.induce
    if timer is not None:
        timer.install()
        induce = timer.wrap(layers.ROOT, induce)
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        result = induce(trace, registry, config=config)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    finally:
        if timer is not None:
            timer.uninstall()
    report = render_report(result, config, args.trace_file)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    top = result.solution if result.solution is not None else result.top[0]
    names, theta_hat = checks.program_outputs(ts, top.ast, top.opt.params, trace, registry)
    errors = checks.step_errors(names, theta_hat, trace, config)
    problems = []
    if result.solution is not None:
        problems += checks.accepted_problems(ts, names, theta_hat, trace, config)
    recomputed = checks.prefix_loss(errors, config.max_step_error)
    if abs(recomputed - top.loss) > 1e-9 * max(1.0, abs(top.loss)):
        problems.append(f"top-1 loss {top.loss!r} but re-evaluation gives {recomputed!r}")

    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss_mb,
        "search_iters": result.iterations,
        "solved": int(result.solution is not None),
        "law_err": checks.law_error(workload, theta_hat, trace),
        "step_miss": float((errors > config.max_step_error).mean()),
        "digest": checks.programs_digest(report),
        "program": ts.print_program(top.ast, top.opt.params),
        "problems": problems,
    }
    if timer is not None:
        out["layers"] = timer.metrics()
        out["probe"] = layers.probe(ts)
    return out


if __name__ == "__main__":
    main()
