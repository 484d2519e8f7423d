"""Command-line surface: generate traces, run induction, evaluate a program
against a trace, and count the structure space.

Exit codes: 0 success, 1 usage error, 2 input/format error, 3 induction
finished without an accepted solution (the top-k report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import fields, replace
from pathlib import Path

from .config import RunConfig
from .interpreter import execute, matches_trace
from .program import (
    FIELD_TYPES,
    ProgramError,
    initial_params,
    parse_program,
    print_program,
    standard_registry,
)
from .search import Candidate, SolutionSet, enumerate_programs, induce
from .systems import OSCILLATOR, PENDULUM, PaddleConfig, simulate_paddle, simulate_second_order
from .trace import TraceFormatError, load_trace, read_input, save_trace

USAGE_ERROR = 1
INPUT_ERROR = 2
NO_SOLUTION = 3

# system name -> (base config, simulator); each field of a base config is a
# ``simulate`` flag, typed by its annotation
SYSTEMS = {
    "pendulum": (PENDULUM, simulate_second_order),
    "oscillator": (OSCILLATOR, simulate_second_order),
    "paddle": (PaddleConfig(), simulate_paddle),
}
SYSTEM_FIELDS = {f.name: f.type for base, _ in SYSTEMS.values() for f in fields(base)}
# one line of help per system field; the help of its flag names the systems
# that take it
SYSTEM_FIELD_HELP = {
    "k1": "position coefficient of the law accel = k1*x + k2*v",
    "k2": "velocity coefficient of the law accel = k1*x + k2*v",
    "x0": "initial position",
    "v0": "initial velocity",
    "dt": "integration time step",
    "steps": "number of trace steps",
    "height": "height of the field the ball bounces across",
    "ball_speed": "distance the ball moves per step",
    "paddle_speed": "distance the paddle moves per step per unit action",
    "deadband": "the paddle moves only when |u| exceeds this",
    "c_agent": "agent coefficient of the law u = c_ball*ball_y - c_agent*agent_y",
    "c_ball": "ball coefficient of the law u = c_ball*ball_y - c_agent*agent_y",
    "seed": "seed of the random start positions and opponent phase",
}
# each field of ``RunConfig`` is an ``induce`` flag, typed by its annotation
CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig)}
CONFIG_FIELD_HELP = {
    "max_step_error": "largest error a matched step may have; under the discrete model it only"
    " sizes the penalty of a misclassified step",
    "learning_rate": "AdaGrad learning rate",
    "max_opt_iters": "optimiser iterations allowed per candidate structure",
    "max_iterations": "search iterations before giving up without a match",
    "weights": "complexity cost per unit of tree depth, parameter leaf and variable leaf",
    "top_k": "how many best candidates the report lists",
    "seed": "seed of the search's random draws",
    "error_model": "euclidean: distance to the observed action; discrete: a match needs every"
    " step classified right into {-1, 0, +1}, whatever --max-step-error",
    "deadband": "discrete model: a prediction within this of 0 is class 0",
}
# the flags that take other than one value of their field's type
CONFIG_FIELD_SHAPE = {
    "error_model": {"choices": ["euclidean", "discrete"]},
    "weights": {"type": float, "nargs": 3, "metavar": ("DEPTH", "PARAMS", "VARS")},
}
# the fields that decide whether a program matches a trace: ``eval`` takes
# these, so that ``induce`` and ``eval`` judge a program by the same rule
MATCH_FIELDS = ("max_step_error", "error_model", "deadband")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracesynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a generated trace file")
    sim.add_argument("system", choices=list(SYSTEMS), help="system to simulate")
    sim.add_argument("--out", required=True, help="trace file to write")
    for name, annotation in SYSTEM_FIELDS.items():
        systems = ", ".join(s for s, (base, _) in SYSTEMS.items() if hasattr(base, name))
        sim.add_argument(
            "--" + name.replace("_", "-"),
            type=FIELD_TYPES[annotation],
            help=f"{SYSTEM_FIELD_HELP[name]} ({systems})",
        )

    ind = sub.add_parser("induce", help="induce a program reproducing a trace")
    ind.add_argument("--trace", required=True, help="trace file to induce a program from")
    ind.add_argument("--out", default=None, help="write the report here, not to stdout")
    _add_config_flags(ind, CONFIG_FIELDS)

    ev = sub.add_parser("eval", help="evaluate a program file against a trace")
    ev.add_argument("--program", required=True, help="file holding one program's text")
    ev.add_argument("--trace", required=True, help="trace file to evaluate it on")
    _add_config_flags(ev, MATCH_FIELDS)

    enum = sub.add_parser("enumerate", help="count program structures up to a depth")
    enum.add_argument("--depth", type=int, required=True, help="largest tree depth to count")
    enum.add_argument(
        "--trace", required=True, help="trace file whose schema gives the variables and actions"
    )
    return parser


def _add_config_flags(cmd: argparse.ArgumentParser, names: Iterable[str]) -> None:
    """``--config`` and one flag per ``RunConfig`` field in ``names``, typed
    by its annotation unless ``CONFIG_FIELD_SHAPE`` shapes it."""
    cmd.add_argument("--config", default=None, help="JSON file of run-config fields")
    for name in names:
        shape = CONFIG_FIELD_SHAPE.get(name) or {"type": FIELD_TYPES[CONFIG_FIELDS[name]]}
        cmd.add_argument("--" + name.replace("_", "-"), help=CONFIG_FIELD_HELP[name], **shape)


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        config = RunConfig.from_dict(read_input(args.config))
    # a flag a command lacks, or one not given, is absent or None: no override
    config = config.override(**{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})
    # a config file may hold a deadband under any model, as every report's does
    if args.deadband is not None and config.error_model != "discrete":
        raise ValueError("--deadband needs the discrete error model (--error-model discrete)")
    return config


def _cmd_simulate(args: argparse.Namespace) -> int:
    base, simulate = SYSTEMS[args.system]
    given = {name: getattr(args, name) for name in SYSTEM_FIELDS if getattr(args, name) is not None}
    foreign = sorted(given.keys() - {f.name for f in fields(base)})
    if foreign:
        flags = ", ".join("--" + name.replace("_", "-") for name in foreign)
        raise ValueError(f"simulate {args.system} does not take {flags}")
    trace = simulate(replace(base, **given))
    save_trace(trace, args.out)
    print(f"wrote {trace.length}-step trace to {args.out}")
    return 0


def render_report(result: SolutionSet, config: RunConfig, trace_path: str) -> str:
    """Text report.  Its ``programs`` and ``stats`` sections restate the
    JSON document that ends it; the ``programs`` section is a pure function
    of (trace, config, seed), byte-identical across runs."""
    doc = {
        "trace": trace_path,
        "config": config.to_dict(),
        "status": "accepted" if result.solution else "no-solution",
        "solution": _cand_dict(result.solution) if result.solution else None,
        "top": [_cand_dict(c) for c in result.top],
        "iterations": result.iterations,
        "proposed": result.proposed,
        "optimised": result.optimised,
        "opt_iters": result.opt_iters,
        "wall_time_s": round(result.wall_time, 3),
    }

    def line(tag: str, entry: dict) -> str:
        return (
            f"{tag}: {entry['program']}\n"
            f"    loss={entry['loss']:.9g} complexity={entry['complexity']:.9g} "
            f"f_total={entry['f_total']:.9g}"
        )

    parts = ["tracesynth induction report", "===========================", ""]
    parts.append(f"trace: {trace_path}")
    parts.append("config: " + json.dumps(doc["config"], sort_keys=True))
    parts += ["", "programs", "--------"]
    if doc["solution"] is not None:
        parts += ["status: accepted", line("solution", doc["solution"])]
    else:
        parts.append("status: no accepted solution")
    parts += [line(f"top[{i}]", entry) for i, entry in enumerate(doc["top"], start=1)]
    parts += ["", "stats", "-----"]
    for name in ("iterations", "proposed", "optimised", "opt_iters"):
        parts.append(f"{name}: {doc[name]}")
    # the text keeps three decimals, the document the rounded value
    parts.append(f"wall_time_s: {result.wall_time:.3f}")
    parts += ["", "json", "----", json.dumps(doc, indent=1, sort_keys=True), ""]
    return "\n".join(parts)


def _cand_dict(cand: Candidate) -> dict:
    return {
        "program": print_program(cand.ast, cand.opt.params),
        "structure": cand.key,
        "loss": cand.loss,
        "complexity": cand.complexity,
        "f_total": cand.score,
    }


def _cmd_induce(args: argparse.Namespace) -> int:
    config = _load_config(args)
    trace = load_trace(args.trace)
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    result = induce(trace, registry, config=config)
    report = render_report(result, config, args.trace)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
        print(f"wrote report to {args.out}")
    else:
        print(report, end="")
    if result.solution is None:
        return NO_SOLUTION
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    text = read_input(args.program, str)
    spec = _load_config(args).error_spec()
    # parsing, compiling and printing a program all recurse on its depth
    try:
        ast = parse_program(text, registry, trace.schema)
        result = execute(ast, initial_params(ast), trace, registry, spec)
        shown = print_program(ast)
    except RecursionError:
        raise ProgramError(f"{args.program}: nested too deeply") from None
    errors = result.step_errors
    print(f"program: {shown}")
    print(f"loss: {result.loss:.9g}")
    print(f"executed: {result.executed_len} of {result.observed_len} steps")
    if len(errors):
        print(
            "step errors: "
            f"max={errors.max():.9g} mean={errors.mean():.9g} last={errors[-1]:.9g}"
        )
    print(f"matches: {'true' if matches_trace(result) else 'false'}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    registry = standard_registry(trace.schema.variables, trace.schema.actions)
    count = enumerate_programs(registry, trace.schema, args.depth)
    print(f"structures with depth <= {args.depth}: {count}")
    return 0


# the sub-parser is required, so every parsed command is a key here
COMMANDS = {
    "simulate": _cmd_simulate,
    "induce": _cmd_induce,
    "eval": _cmd_eval,
    "enumerate": _cmd_enumerate,
}


def run_cli(argv: list[str] | None = None) -> int:
    """Run one command; returns the exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        return COMMANDS[args.command](args)
    except (TraceFormatError, ProgramError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
