import argparse
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from tracesynth import (
    PaddleConfig,
    RunConfig,
    execute,
    load_trace,
    parse_program,
    simulate_paddle,
    standard_registry,
    trace_to_dict,
)
from tracesynth.cli import SYSTEMS, _build_parser, _load_config, run_cli
from tracesynth.program import ComplexityWeights, initial_params
from tracesynth.search import MAX_COUNT_DIGITS

# an int too large for a float, which a JSON document can hold
HUGE_INT = pytest.param(10**400, id="huge-int")


def _extract_programs_section(report: str) -> str:
    m = re.search(r"programs\n--------\n(.*?)\n\nstats\n", report, re.S)
    assert m, "report missing programs section"
    return m.group(1)


class TestSimulate:
    def test_pendulum(self, tmp_path, capsys):
        out = tmp_path / "p.trace"
        assert run_cli(["simulate", "pendulum", "--out", str(out)]) == 0
        trace = load_trace(out)
        assert trace.length == 100
        np.testing.assert_allclose(trace.steps[0].theta, [-0.98])

    def test_oscillator_flags(self, tmp_path):
        out = tmp_path / "o.trace"
        code = run_cli(
            ["simulate", "oscillator", "--out", str(out), "--steps", "50", "--x0", "1.0"]
        )
        assert code == 0
        assert load_trace(out).length == 50

    def test_paddle(self, tmp_path):
        out = tmp_path / "pd.trace"
        assert run_cli(["simulate", "paddle", "--out", str(out), "--steps", "30"]) == 0
        trace = load_trace(out)
        assert trace.length == 30
        assert set(trace.schema.variables) == {"agent_y", "ball_y", "opponent_y"}

    def test_paddle_flags_reach_the_config(self, tmp_path):
        out = tmp_path / "pd.trace"
        flags = ["--c-agent", "0.4", "--ball-speed", "0.5", "--seed", "3", "--steps", "40"]
        assert run_cli(["simulate", "paddle", "--out", str(out), *flags]) == 0
        want = simulate_paddle(PaddleConfig(c_agent=0.4, ball_speed=0.5, seed=3, steps=40))
        assert json.loads(out.read_text()) == trace_to_dict(want)

    @pytest.mark.parametrize(
        "system, flag",
        [("pendulum", "--deadband"), ("oscillator", "--c-agent"), ("paddle", "--k1")],
    )
    def test_flag_of_another_system_rejected(self, tmp_path, capsys, system, flag):
        out = tmp_path / "t.trace"
        assert run_cli(["simulate", system, "--out", str(out), flag, "0.3"]) == 2
        assert f"simulate {system} does not take {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_paddle_seed_named(self, tmp_path, capsys):
        out = tmp_path / "t.trace"
        assert run_cli(["simulate", "paddle", "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "system, field",
        [
            (system, f.name)
            for system, (base, _) in SYSTEMS.items()
            for f in fields(base)
            if f.type == "float"
        ],
    )
    def test_non_finite_setting_rejected(self, tmp_path, capsys, system, field, value):
        out = tmp_path / "t.trace"
        flag = "--" + field.replace("_", "-")
        assert run_cli(["simulate", system, "--out", str(out), flag, value]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error(self):
        assert run_cli(["simulate", "unknown-system", "--out", "x"]) == 1
        assert run_cli(["simulate"]) == 1
        assert run_cli([]) == 1


class TestEval:
    def test_ground_truth_matches(self, tmp_path, capsys):
        trace_path = tmp_path / "p.trace"
        run_cli(["simulate", "pendulum", "--out", str(trace_path)])
        prog = tmp_path / "prog.sexp"
        prog.write_text("(accel (scale -9.8 x))")
        code = run_cli(["eval", "--program", str(prog), "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "matches: true" in out
        assert "loss: 0" in out

    @pytest.mark.parametrize(
        "flags, config, verdict",
        [
            (["--error-model", "discrete", "--max-step-error", "0.02"], None, "true"),
            ([], {"error_model": "discrete", "max_step_error": 0.02}, "true"),
            ([], None, "false"),
            (["--deadband", "0.05"], {"error_model": "discrete"}, "true"),
            (["--error-model", "discrete", "--deadband", "0.9"], None, "false"),
            ([], {"deadband": 0.3}, "false"),
        ],
    )
    def test_error_model_options(self, tmp_path, capsys, flags, config, verdict):
        trace_path = tmp_path / "pd.trace"
        run_cli(["simulate", "paddle", "--out", str(trace_path)])
        prog = tmp_path / "prog.sexp"
        prog.write_text("(move (sub (scale 0.30 ball_y) (scale 0.35 agent_y)))")
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", str(cfg), *flags]
        capsys.readouterr()
        code = run_cli(["eval", "--program", str(prog), "--trace", str(trace_path), *flags])
        assert code == 0
        assert f"matches: {verdict}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--deadband", "0.3"], None),
            (["--error-model", "euclidean", "--deadband", "0.3"], {"error_model": "discrete"}),
        ],
    )
    def test_deadband_without_the_discrete_model_rejected(self, tmp_path, capsys, flags, config):
        trace_path = tmp_path / "pd.trace"
        run_cli(["simulate", "paddle", "--out", str(trace_path)])
        prog = tmp_path / "prog.sexp"
        prog.write_text("(move ball_y)")
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", str(cfg), *flags]
        capsys.readouterr()
        code = run_cli(["eval", "--program", str(prog), "--trace", str(trace_path), *flags])
        assert code == 2
        assert "--deadband needs the discrete error model" in capsys.readouterr().err

    def test_nan_step_error_prints_as_inf(self, tmp_path, capsys):
        # 1e308 * 10 overflows in both terms, and inf - inf is NaN: the step
        # error is inf, as the loss is
        trace_path = tmp_path / "big.trace"
        step = {"t": 1, "vars": {"x": [10.0]}, "action": {"name": "accel", "theta": [0.0]}}
        doc = {"schema": {"variables": {"x": 1}, "actions": {"accel": 1}}, "steps": [step]}
        trace_path.write_text(json.dumps(doc))
        prog = tmp_path / "prog.sexp"
        prog.write_text("(accel (sub (scale 1e308 x) (scale 1e308 x)))")
        code = run_cli(["eval", "--program", str(prog), "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "loss: inf\n" in out
        assert "step errors: max=inf mean=inf last=inf\n" in out
        assert "matches: false" in out

    def test_bad_program_file(self, tmp_path, capsys):
        trace_path = tmp_path / "p.trace"
        run_cli(["simulate", "pendulum", "--out", str(trace_path)])
        prog = tmp_path / "prog.sexp"
        prog.write_text("(accel (scale -9.8 nosuchvar))")
        assert run_cli(["eval", "--program", str(prog), "--trace", str(trace_path)]) == 2

    @pytest.mark.parametrize("literal", ["nan", "inf", "-1e999"])
    def test_non_finite_literal_rejected(self, tmp_path, capsys, literal):
        trace_path = tmp_path / "p.trace"
        run_cli(["simulate", "pendulum", "--out", str(trace_path)])
        prog = tmp_path / "prog.sexp"
        prog.write_text(f"(accel (scale {literal} x))")
        capsys.readouterr()
        assert run_cli(["eval", "--program", str(prog), "--trace", str(trace_path)]) == 2
        assert "is not finite" in capsys.readouterr().err

    def test_missing_trace_file(self, tmp_path):
        prog = tmp_path / "prog.sexp"
        prog.write_text("(accel x)")
        assert run_cli(["eval", "--program", str(prog), "--trace", "/nonexistent"]) == 2

    def test_empty_program_rejected(self, tmp_path, capsys):
        trace_path = tmp_path / "p.trace"
        run_cli(["simulate", "pendulum", "--out", str(trace_path)])
        prog = tmp_path / "prog.sexp"
        prog.write_text("()")
        capsys.readouterr()
        assert run_cli(["eval", "--program", str(prog), "--trace", str(trace_path)]) == 2
        assert capsys.readouterr().err == "error: a program needs an action at its root\n"


# input nested deeper than the JSON decoder or the program parser can recurse
@pytest.mark.parametrize(
    "argv, text",
    [
        (["induce", "--trace", "{deep}"], "[" * 200_000),
        (["induce", "--trace", "{trace}", "--config", "{deep}"], "[" * 200_000),
        (
            ["eval", "--program", "{deep}", "--trace", "{trace}"],
            "(accel " + "(add x " * 5000 + "x" + ")" * 5001,
        ),
        # parsed, but too deep to compile or print
        (
            ["eval", "--program", "{deep}", "--trace", "{trace}"],
            "(accel " + "(add x " * 450 + "x" + ")" * 451,
        ),
    ],
    ids=["trace", "config", "program", "program-parsed"],
)
def test_deeply_nested_input_rejected(tmp_path, capsys, argv, text):
    trace_path = tmp_path / "p.trace"
    run_cli(["simulate", "pendulum", "--out", str(trace_path)])
    deep = tmp_path / "deep"
    deep.write_text(text)
    capsys.readouterr()
    assert run_cli([a.format(deep=deep, trace=trace_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {deep}: nested too deeply\n"


# a file that is not valid JSON, as the trace or as the config
@pytest.mark.parametrize(
    "argv",
    [
        ["induce", "--trace", "{bad}"],
        ["induce", "--trace", "{trace}", "--config", "{bad}"],
        ["eval", "--program", "{program}", "--trace", "{trace}", "--config", "{bad}"],
    ],
    ids=["trace", "config", "eval-config"],
)
def test_malformed_json_input_rejected(tmp_path, capsys, argv):
    trace_path = tmp_path / "p.trace"
    run_cli(["simulate", "pendulum", "--out", str(trace_path)])
    program = tmp_path / "prog.sexp"
    program.write_text("(accel (scale -9.8 x))")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    capsys.readouterr()
    assert run_cli([a.format(bad=bad, program=program, trace=trace_path) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: not valid JSON: Expecting property name enclosed in double quotes:"
        " line 1 column 2 (char 1)\n"
    )


# a file that is not UTF-8, as the trace, the config or the program
@pytest.mark.parametrize(
    "argv",
    [
        ["induce", "--trace", "{bad}"],
        ["induce", "--trace", "{trace}", "--config", "{bad}"],
        ["eval", "--program", "{bad}", "--trace", "{trace}"],
    ],
    ids=["trace", "config", "program"],
)
def test_input_not_utf8_rejected(tmp_path, capsys, argv):
    trace_path = tmp_path / "p.trace"
    run_cli(["simulate", "pendulum", "--out", str(trace_path)])
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff{}")
    capsys.readouterr()
    assert run_cli([a.format(bad=bad, trace=trace_path) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0:"
        " invalid start byte\n"
    )


@pytest.mark.parametrize("command", ["induce", "eval", "simulate", "enumerate"])
def test_every_flag_has_help(command):
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = commands.choices[command]._actions
    assert [a.option_strings for a in actions if not a.help] == []
    assert all("\n" not in a.help for a in actions)
    if command in ("induce", "eval"):
        threshold = next(a for a in actions if "--max-step-error" in a.option_strings)
        assert "discrete model it only sizes the penalty" in threshold.help


def _flags(command: str) -> set[str]:
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for a in commands.choices[command]._actions for flag in a.option_strings}


def test_every_config_field_is_an_induce_flag():
    names = [f.name for f in fields(RunConfig)]
    assert {"--" + name.replace("_", "-") for name in names} <= _flags("induce")
    # each flag reaches its field: every value below differs from the default
    given = RunConfig(
        max_step_error=0.5,
        learning_rate=0.3,
        max_opt_iters=7,
        max_iterations=9,
        weights=ComplexityWeights(2.0, 3.0, 4.0),
        top_k=2,
        seed=11,
        error_model="discrete",
        deadband=0.25,
    )
    assert all(getattr(given, name) != getattr(RunConfig(), name) for name in names)
    argv = ["induce", "--trace", "t"]
    for name, value in given.to_dict().items():
        argv += ["--" + name.replace("_", "-"), *map(str, np.atleast_1d(value).tolist())]
    assert _load_config(_build_parser().parse_args(argv)) == given


def test_eval_takes_only_the_matching_rule():
    rule = {"--config", "--max-step-error", "--error-model", "--deadband"}
    assert _flags("eval") == {"-h", "--help", "--program", "--trace"} | rule


class TestEnumerate:
    def test_counts(self, tmp_path, capsys):
        trace_path = tmp_path / "p.trace"
        run_cli(["simulate", "pendulum", "--out", str(trace_path)])
        assert run_cli(["enumerate", "--depth", "2", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "30" in out  # 3 leaves + 3 functions x 9 leaf pairs

    def test_largest_printable_count(self, tmp_path, capsys):
        trace_path = tmp_path / "p.trace"
        run_cli(["simulate", "pendulum", "--out", str(trace_path)])
        capsys.readouterr()
        assert run_cli(["enumerate", "--depth", "13", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"structures with depth <= 13: 20203416075\d{3992}\n", out)

    @pytest.mark.parametrize(
        "depth, code, out", [(0, 0, "structures with depth <= 0: 0\n"), (-5, 2, "")]
    )
    def test_depth_zero_counts_nothing_and_negative_is_refused(
        self, tmp_path, capsys, depth, code, out
    ):
        trace_path = tmp_path / "p.trace"
        run_cli(["simulate", "pendulum", "--out", str(trace_path)])
        capsys.readouterr()
        assert run_cli(["enumerate", "--depth", str(depth), "--trace", str(trace_path)]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == ("" if code == 0 else f"error: depth must be >= 0, not {depth}\n")

    @pytest.mark.parametrize("depth", [14, 40, 1200])
    def test_count_too_long_to_print_refused(self, tmp_path, capsys, depth):
        trace_path = tmp_path / "p.trace"
        run_cli(["simulate", "pendulum", "--out", str(trace_path)])
        capsys.readouterr()
        assert run_cli(["enumerate", "--depth", str(depth), "--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: more than {MAX_COUNT_DIGITS} digits in the count of structures"
            f" of depth <= {depth}\n"
        )


class TestInduce:
    @pytest.fixture(scope="class")
    def small_trace(self, tmp_path_factory):
        # constant-action trace keeps induction fast
        path = tmp_path_factory.mktemp("tr") / "const.trace"
        from tests.conftest import make_trace
        from tracesynth import save_trace

        trace = make_trace(
            {"x": np.linspace(0, 1, 15).tolist(), "v": np.linspace(1, 0, 15).tolist()},
            [0.7] * 15,
        )
        save_trace(trace, path)
        return path

    def test_writes_report(self, small_trace, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run_cli(
            [
                "induce",
                "--trace",
                str(small_trace),
                "--seed",
                "5",
                "--max-iterations",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = out.read_text()
        assert "status: accepted" in report
        assert "(accel " in report
        doc = json.loads(report.split("json\n----\n", 1)[1])
        assert doc["status"] == "accepted"
        assert doc["solution"]["complexity"] == 15
        assert 0 < doc["optimised"] <= doc["proposed"]
        stats = report.split("\nstats\n", 1)[1].split("\njson\n", 1)[0]
        assert doc["opt_iters"] >= doc["optimised"]
        assert (
            f"proposed: {doc['proposed']}\noptimised: {doc['optimised']}\n"
            f"opt_iters: {doc['opt_iters']}\n"
        ) in stats

    def test_exit_3_without_solution(self, tmp_path, capsys):
        from tests.conftest import make_trace
        from tracesynth import save_trace

        rng = np.random.default_rng(4)
        path = tmp_path / "noise.trace"
        save_trace(
            make_trace(
                {"x": rng.normal(size=10).tolist(), "v": rng.normal(size=10).tolist()},
                rng.normal(size=10).tolist(),
            ),
            path,
        )
        out = tmp_path / "report.txt"
        code = run_cli(
            [
                "induce",
                "--trace",
                str(path),
                "--seed",
                "5",
                "--max-iterations",
                "5",
                "--max-opt-iters",
                "50",
                "--max-step-error",
                "1e-06",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        report = out.read_text()
        assert "no accepted solution" in report
        assert "top[1]" in report

    def test_joined_trace_runs(self, tmp_path, capsys):
        # at seed 1 the search reaches, within 15 iterations, the optimiser
        # call whose short look-ahead pass once read past its grid
        from tests.conftest import joined_oscillator_trace
        from tracesynth import save_trace

        path = tmp_path / "joined.trace"
        save_trace(joined_oscillator_trace(), path)
        code = run_cli(["induce", "--trace", str(path), "--seed", "1", "--max-iterations", "15"])
        assert code in (0, 3)
        assert "iterations: 15\n" in capsys.readouterr().out

    def test_config_file_and_flag_override(self, small_trace, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5, "max_iterations": 7, "top_k": 2}))
        out = tmp_path / "report.txt"
        code = run_cli(
            [
                "induce",
                "--trace",
                str(small_trace),
                "--config",
                str(cfg_path),
                "--max-iterations",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text().split("json\n----\n", 1)[1])
        assert doc["config"]["max_iterations"] == 40  # flag wins
        assert doc["config"]["top_k"] == 2  # file survives

    def test_bad_config_field(self, small_trace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        # the optimiser's div_guard, tol and tol_window are not run settings
        for field in ("no_such_field", "div_guard", "tol", "tol_window"):
            cfg_path.write_text(json.dumps({field: 1}))
            assert (
                run_cli(["induce", "--trace", str(small_trace), "--config", str(cfg_path)])
                == 2
            )

    @pytest.mark.parametrize("text", ["5", "null", "[]"])
    def test_config_that_is_not_an_object_rejected(self, small_trace, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run_cli(["induce", "--trace", str(small_trace), "--config", str(cfg_path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_report_programs_reparse_to_reported_loss(self, small_trace, tmp_path):
        out = tmp_path / "report.txt"
        run_cli(
            [
                "induce",
                "--trace",
                str(small_trace),
                "--seed",
                "5",
                "--max-iterations",
                "40",
                "--out",
                str(out),
            ]
        )
        doc = json.loads(out.read_text().split("json\n----\n", 1)[1])
        trace = load_trace(small_trace)
        registry = standard_registry(trace.schema.variables, trace.schema.actions)
        spec = RunConfig.from_dict(doc["config"]).error_spec()
        for entry in [doc["solution"], *doc["top"]]:
            if entry is None:
                continue
            ast = parse_program(entry["program"], registry, trace.schema)
            res = execute(ast, initial_params(ast), trace, registry, spec)
            np.testing.assert_allclose(res.loss, entry["loss"], rtol=1e-5, atol=1e-9)

    def test_deterministic_program_sections(self, small_trace, tmp_path):
        reports = []
        for i in range(2):
            out = tmp_path / f"report{i}.txt"
            run_cli(
                [
                    "induce",
                    "--trace",
                    str(small_trace),
                    "--seed",
                    "5",
                    "--max-iterations",
                    "40",
                    "--out",
                    str(out),
                ]
            )
            reports.append(out.read_bytes())
        a = _extract_programs_section(reports[0].decode())
        b = _extract_programs_section(reports[1].decode())
        assert a.encode() == b.encode()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["vars", "theta"])
    def test_non_finite_trace_values_rejected(self, small_trace, tmp_path, capsys, token, field):
        doc = json.loads(small_trace.read_text())
        step = doc["steps"][3]
        if field == "vars":
            step["vars"]["x"] = [token]
        else:
            step["action"]["theta"] = [token]
        path = tmp_path / "bad.trace"
        # json.dumps cannot write these tokens from strings; splice them in
        path.write_text(json.dumps(doc).replace(f'"{token}"', token))
        assert run_cli(["induce", "--trace", str(path)]) == 2
        assert "step 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, problem",
        [
            (["0.5"], "must be a flat array of numbers"),
            ([True], "must be a flat array of numbers"),
            ([[0.5]], "must be a flat array of numbers"),
            (0.5, "must be a flat array of numbers"),
            ([10**400], "holds an integer too large for a float"),
        ],
        ids=["string", "true", "nested", "scalar", "huge-int"],
    )
    @pytest.mark.parametrize("field", ["variable x", "action theta"])
    def test_trace_value_that_is_not_an_array_of_numbers_rejected(
        self, small_trace, tmp_path, capsys, field, value, problem
    ):
        doc = json.loads(small_trace.read_text())
        step = doc["steps"][3]
        if field == "variable x":
            step["vars"]["x"] = value
        else:
            step["action"]["theta"] = value
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps(doc))
        assert run_cli(["induce", "--trace", str(path)]) == 2
        assert f"error: step 4: {field} {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-step-error", "nan"], "max_step_error must be finite"),
            (["--learning-rate", "inf"], "learning_rate must be finite"),
            (["--error-model", "discrete", "--deadband", "-0.5"], "deadband must be >= 0"),
        ],
    )
    def test_bad_error_model_numbers_rejected(self, small_trace, capsys, flags, message):
        assert run_cli(["induce", "--trace", str(small_trace), *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["max_step_error", "learning_rate", "deadband"])
    def test_non_finite_config_field_rejected(self, small_trace, tmp_path, capsys, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: float("nan")}))
        assert run_cli(["induce", "--trace", str(small_trace), "--config", str(cfg_path)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), HUGE_INT])
    @pytest.mark.parametrize("field", [f.name for f in fields(RunConfig) if f.type == "float"])
    def test_every_float_config_field_must_be_finite(
        self, small_trace, tmp_path, capsys, field, value
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        assert run_cli(["induce", "--trace", str(small_trace), "--config", str(cfg_path)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), HUGE_INT])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_every_config_weight_must_be_finite(
        self, small_trace, tmp_path, capsys, position, value
    ):
        weights = [10, 5, 1]
        weights[position] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"weights": weights}))
        assert run_cli(["induce", "--trace", str(small_trace), "--config", str(cfg_path)]) == 2
        name = ("depth", "params", "variables")[position]
        want = f"error: complexity weight {name} must be finite and nonnegative"
        assert want in capsys.readouterr().err

    def test_integer_config_weights_reported_as_floats(self, small_trace, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"weights": [10, 5, 1], "max_iterations": 2}))
        assert run_cli(["induce", "--trace", str(small_trace), "--config", str(cfg_path)]) in (0, 3)
        assert '"weights": [10.0, 5.0, 1.0]' in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", "x", "learning_rate must be of type float, not str"),
            ("max_iterations", 2.5, "max_iterations must be of type int, not float"),
            ("top_k", True, "top_k must be of type int, not bool"),
            ("error_model", 1, "error_model must be of type str, not int"),
            ("weights", 5, "weights must be three numbers"),
            # true would otherwise weigh 1, and "x" reach the finiteness check
            ("weights", [True, 1, 1], "complexity weight depth must be a number, not bool"),
            ("weights", ["x", 1, 1], "complexity weight depth must be a number, not str"),
        ],
    )
    def test_config_field_of_wrong_type_rejected(
        self, small_trace, tmp_path, capsys, field, value, message
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        assert run_cli(["induce", "--trace", str(small_trace), "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["9007199254740992", "1e20"])
    @pytest.mark.parametrize("model", ["euclidean", "discrete"])
    def test_threshold_too_large_for_the_penalty_rejected(
        self, small_trace, capsys, model, threshold
    ):
        flags = ["--error-model", model, "--max-step-error", threshold]
        assert run_cli(["induce", "--trace", str(small_trace), *flags]) == 2
        assert "max_step_error must be finite with magnitude below 2**53" in capsys.readouterr().err

    def test_deadband_without_the_discrete_model_rejected(self, small_trace, capsys):
        assert run_cli(["induce", "--trace", str(small_trace), "--deadband", "0.3"]) == 2
        assert "--deadband needs the discrete error model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config",
        [
            # every report's config holds a deadband, the euclidean model's too
            ([], {"deadband": 0.3}),
            (["--deadband", "0.3"], {"error_model": "discrete"}),
        ],
    )
    def test_deadband_accepted(self, small_trace, tmp_path, capsys, flags, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**config, "max_iterations": 2}))
        flags = ["--config", str(cfg_path), *flags]
        assert run_cli(["induce", "--trace", str(small_trace), *flags]) in (0, 3)
        assert "error:" not in capsys.readouterr().err

    def test_zero_deadband_rejected_for_discrete_model(self, small_trace, capsys):
        flags = ["--error-model", "discrete", "--deadband", "0"]
        assert run_cli(["induce", "--trace", str(small_trace), *flags]) == 2
        assert "deadband must be > 0" in capsys.readouterr().err

    # each value would pass the contiguity check if it were truncated to an int
    @pytest.mark.parametrize("step, t", [(0, 1.7), (1, "2"), (0, True)])
    def test_non_integer_timestep_rejected(self, small_trace, tmp_path, capsys, step, t):
        doc = json.loads(small_trace.read_text())
        doc["steps"][step]["t"] = t
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps(doc))
        assert run_cli(["induce", "--trace", str(path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    # int() would load each of these as dimension 1
    @pytest.mark.parametrize("dim", [1.7, "1", True])
    @pytest.mark.parametrize("section, name", [("variables", "x"), ("actions", "accel")])
    def test_non_integer_schema_dimension_rejected(
        self, small_trace, tmp_path, capsys, section, name, dim
    ):
        doc = json.loads(small_trace.read_text())
        doc["schema"][section][name] = dim
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps(doc))
        assert run_cli(["induce", "--trace", str(path)]) == 2
        assert "dimension must be an integer" in capsys.readouterr().err

    # names that program text and structure keys cannot carry: "(x" and ""
    # broke the key splicing of expand, a variable "?" collided with the
    # parameter mark of keys, and "1.5" printed as a parameter literal
    @pytest.mark.parametrize("name", ["", "a b", "\tx", "(x", "x)", "[x", "x]", "?", "1.5", "nan"])
    @pytest.mark.parametrize("section, old", [("variables", "x"), ("actions", "accel")])
    def test_name_that_programs_cannot_carry_rejected(
        self, small_trace, tmp_path, capsys, section, old, name
    ):
        doc = json.loads(small_trace.read_text())
        schema = doc["schema"][section]
        schema[name] = schema.pop(old)
        for step in doc["steps"]:
            if section == "variables":
                step["vars"][name] = step["vars"].pop(old)
            else:
                step["action"]["name"] = name
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps(doc))
        flags = ["--max-iterations", "5"]
        assert run_cli(["induce", "--trace", str(path), *flags]) == 2
        assert f"name {name!r}" in capsys.readouterr().err
