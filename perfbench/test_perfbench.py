"""Tests of the benchmark itself, with tiny search budgets.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracesynth as ts  # noqa: E402
from tracesynth.config import RunConfig  # noqa: E402

import checks  # noqa: E402
from run import check_digests  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (".calls", ".coverage", ".rebind_ratio", ".iters_per_call", ".cap_share",
          ".proposals_per_call", ".dedup_ratio")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace, "--budget", "2")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def paddle_outputs(text: str):
    trace = ts.simulate_paddle(ts.PaddleConfig())
    registry = ts.standard_registry(trace.schema.variables, trace.schema.actions)
    ast = ts.parse_program(text, registry, trace.schema)
    return (trace, *checks.program_outputs(ts, ast, ts.initial_params(ast), trace, registry))


def test_check_rejects_constant_zero_paddle_program():
    config = RunConfig(error_model="discrete")
    trace, names, theta_hat = paddle_outputs("(move (sub opponent_y opponent_y))")
    problems = checks.accepted_problems(ts, names, theta_hat, trace, config)
    assert any("wrong action class" in p for p in problems)


def test_check_accepts_generating_paddle_law():
    config = RunConfig(error_model="discrete")
    trace, names, theta_hat = paddle_outputs(
        "(move (sub (scale 0.30 ball_y) (scale 0.35 agent_y)))"
    )
    assert checks.accepted_problems(ts, names, theta_hat, trace, config) == []


def test_digest_mismatch_fails_the_repetition():
    records = [{"digest": "a", "problems": []}, {"digest": "b", "problems": []}]
    check_digests(records)
    assert records[0]["problems"] == [] and len(records[1]["problems"]) == 1


def test_pendulum_seed_0_is_solved_in_31_iterations(tmp_path):
    path = tmp_path / "trace.json"
    ts.save_trace(ts.simulate_second_order(ts.SecondOrderConfig(**WORKLOADS["pendulum"].system_args)), path)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "pendulum", "--run-seed", "0",
         "--trace-file", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert (record["solved"], record["search_iters"], record["problems"]) == (1, 31, [])
    assert record["law_err"] == pytest.approx(0.0506, abs=1e-3)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_prints_with_its_unit(workload, trace):
    out = result(workload, trace)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_traced_counts_repeat_and_overhead_is_reported():
    first, second = result("pendulum", 1), result("pendulum", 1)
    counts = [name for name in first["metrics"] if name.endswith(COUNTS)]
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["interpreter.execute.calls"]["value"] > 0
    assert "trace.overhead" in first["metrics"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("pendulum", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
