"""Benchmark of ``tracesynth induce`` on generated traces.

    python3 perfbench/run.py --workload {pendulum,damped} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``tracesynth`` from ``src/``
and exits with code 2 when that is missing.  It drives the public API the
way ``tracesynth induce`` does (``load_trace``, ``standard_registry``,
``induce``, ``render_report``): one closed-loop client, one ``induce`` at a
time, each in a fresh process (``child.py``).

``--trace 0`` induces every problem of the seed's panel once, re-runs the
cheapest to check that the ``programs`` section repeats byte for byte, and
keeps re-running problems while ``--seconds`` allows.  ``cpu_s`` and
``search_iters`` are the mean over the panel of each problem's median, the
other end-to-end metrics the median over the panel; ``setup_s`` is the
median over every process.  ``--trace 1`` runs problem 0 once plain and
once with layer timers, then the fixed-program probe.  Summary lines go to
stdout; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_trace, problem_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "search_iters": "count",
    "law_err": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith((".us", ".us_per_call")):
        return "us"
    if name.endswith((".calls", ".iters_per_call", ".proposals_per_call")):
        return "count"
    if name == "trace.wall_s":
        return "s"
    return "share"


class Run:
    def __init__(self, args: argparse.Namespace, problems: list[tuple[int, int, Path]]) -> None:
        self.args = args
        self.problems = problems  # (index in panel, RunConfig.seed, trace file)
        self.start = time.monotonic()
        self.children: list[dict] = []

    def child(self, problem: tuple[int, int, Path], traced: bool = False) -> dict:
        _, run_seed, path = problem
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.args.workload,
               "--run-seed", str(run_seed), "--trace-file", str(path)]
        if traced:
            cmd.append("--traced")
        if self.args.budget is not None:
            cmd += ["--budget", str(self.args.budget)]
        started = time.monotonic()
        remaining = self.start + TIME_LIMIT_S - started
        if remaining <= 1.0:
            record = {"problems": ["no time left in the run"]}
        else:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
            except subprocess.TimeoutExpired:
                record = {"problems": [f"timed out after {remaining:.0f} s"]}
            else:
                if proc.returncode == 0:
                    record = json.loads(proc.stdout.splitlines()[-1])
                else:
                    tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
                    record = {"problems": [f"exit code {proc.returncode}: {tail[0]}"]}
        record.setdefault("problems", [])
        record["problem"] = problem[0]
        record["elapsed_s"] = time.monotonic() - started
        self.children.append(record)
        return record

    def untraced(self) -> dict | None:
        runs: dict[int, list[dict]] = {p[0]: [self.child(p)] for p in self.problems}
        # re-run the cheapest problem first: it checks determinism at the least cost
        done = [p for p in self.problems if not runs[p[0]][0]["problems"]]
        done.sort(key=lambda p: runs[p[0]][0]["wall_s"])
        i = 0
        while done:
            p = done[i % len(done)]
            elapsed = statistics.median(r["elapsed_s"] for r in runs[p[0]])
            if i and time.monotonic() - self.start + elapsed > self.args.seconds:
                break
            runs[p[0]].append(self.child(p))
            i += 1
        for records in runs.values():
            check_digests(records)

        good = {k: [r for r in rs if not r["problems"]] for k, rs in runs.items()}
        good = {k: rs for k, rs in good.items() if rs}
        if not good:
            return None

        def panel(key: str, over=statistics.median) -> float:
            return over([statistics.median(r[key] for r in rs) for rs in good.values()])

        metrics = {
            # the mean, not the median: the search work of one problem varies
            # with its seed by a fifth, and the mean of a panel varies least
            "cpu_s": panel("cpu_s", statistics.mean),
            "setup_s": statistics.median(r["setup_s"] for r in sum(good.values(), [])),
            "peak_rss_mb": panel("rss_mb"),
            "search_iters": panel("search_iters", statistics.mean),
            "law_err": panel("law_err"),
        }
        for k, rs in sorted(good.items()):
            r = rs[0]
            print(
                f"problem {self.args.workload}[{k}] run_seed={self.problems[k][1]}: "
                f"solved={r['solved']} search_iters={r['search_iters']} "
                f"cpu_s={statistics.median(x['cpu_s'] for x in rs):.3f} "
                f"wall_s={statistics.median(x['wall_s'] for x in rs):.3f} runs={len(rs)} "
                f"law_err={r['law_err']:.6g} step_miss={r['step_miss']:.6g} "
                f"digest={r['digest'][:16]} program={r['program']}"
            )
        attempted, failed = self.counts()
        print(
            f"{self.args.workload} seed={self.args.seed}: "
            + " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
            + f" wall_s={panel('wall_s', statistics.mean):.6g}"
            f" solved={statistics.mean(rs[0]['solved'] for rs in good.values()):.6g}"
            f" step_miss={panel('step_miss'):.6g}"
            f" fail_rate={failed / attempted:.6g}"
        )
        return self.result({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})

    def traced(self) -> dict | None:
        problem = self.problems[0]
        plain = self.child(problem)
        traced = self.child(problem, traced=True)
        check_digests([plain, traced])
        if "wall_s" not in plain or "layers" not in traced:
            return None
        values = {**traced["layers"], **traced["probe"]}
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
        print(
            f"{self.args.workload} seed={self.args.seed} traced: wall_s={traced['wall_s']:.3f} "
            f"untraced wall_s={plain['wall_s']:.3f} digest={traced['digest'][:16]}"
        )
        return self.result({k: (v, layer_unit(k)) for k, v in values.items()})

    def counts(self) -> tuple[int, int]:
        return len(self.children), sum(1 for r in self.children if r["problems"])

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        attempted, failed = self.counts()
        for r in self.children:
            for problem in r["problems"]:
                print(f"FAILED {self.args.workload}[{r['problem']}]: {problem}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def check_digests(records: list[dict]) -> None:
    """Every successful repetition of one problem must print the same
    ``programs`` section; a repetition that differs from the first fails."""
    good = [r for r in records if not r["problems"]]
    for r in good[1:]:
        if r["digest"] != good[0]["digest"]:
            r["problems"].append(f"programs digest {r['digest'][:16]} != {good[0]['digest'][:16]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--budget", type=int, help="override the search iteration budget")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tracesynth" / "__init__.py").is_file():
        print(f"error: no tracesynth sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import tracesynth as ts

    print(
        f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        path = work / "trace.json"
        ts.save_trace(make_trace(ts, workload), path)
        problems = [(k, s, path) for k, s in enumerate(problem_seeds(workload, args.seed))]
        run = Run(args, problems)
        result = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if result is None:
        print("error: no repetition succeeded", file=sys.stderr)
        for r in run.children:
            for problem in r["problems"]:
                print(f"  {args.workload}[{r['problem']}]: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
