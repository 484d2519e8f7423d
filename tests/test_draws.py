"""``draws.Stream`` against ``numpy.random.default_rng``, the stream it copies
bit for bit, and checks that nothing in ``tracesynth`` imports
``numpy.random``, and that importing ``tracesynth`` starts no BLAS worker
thread and leaves ``os.environ`` as it was.

Floats are compared by ``float.hex``, so a sign of zero counts.  A few draws
are also pinned as literals: NEP 19 does not promise that numpy's
``Generator`` streams stay the same across releases, and the search results
depend on this one.
"""

from __future__ import annotations

import ast
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tracesynth import draws
from tracesynth.draws import Stream

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracesynth"
M32 = (1 << 32) - 1

# one and two 32-bit entropy words, and _derive_seed's largest seed
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
RANDOM_SEEDS = [random.Random(k).getrandbits(63) for k in range(12)]


def _value(out) -> object:
    """A draw as something that compares bit for bit."""
    if isinstance(out, (list, np.ndarray)):
        return [_value(x) for x in out]
    if isinstance(out, (float, np.floating)):
        return float(out).hex()
    return int(out)


def _draws(gen, ops) -> list:
    return [_value(getattr(gen, name)(*args)) for name, *args in ops]


def _same_stream(seed: int, ops) -> None:
    assert _draws(Stream(seed), ops) == _draws(np.random.default_rng(seed), ops)


SEQUENCES = {
    "two integers in a row": [("integers", 3), ("integers", 5)],
    "integer normal integer": [("integers", 4), ("normal", 0.0, 0.5, 1), ("integers", 2)],
    "integers(1) draws nothing": [("integers", 1), ("integers", 3), ("integers", 1)],
    "odd count of halves": [("integers", 5)] * 3 + [("random",), ("integers", 5)] * 2,
    "vector normal": [("normal", 0.0, 0.5, 3), ("integers", 2), ("normal", 0.0, 2.0, 2)],
    "paddle": [("uniform", 0.1, 0.9), ("random",), ("uniform", 0.2, 0.8)],
}


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_sequences(seed, name):
    _same_stream(seed, SEQUENCES[name])


def _interleaving(rng: random.Random, length: int) -> list[tuple]:
    """Integer draws with n in 1-5, normals of 1-3 values, uniforms and
    doubles in a random order."""
    ops = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            ops.append(("integers", rng.randint(1, 5)))
        elif kind == 1:
            ops.append(("normal", 0.0, 0.5, rng.randint(1, 3)))
        elif kind == 2:
            ops.append(("uniform", -1.5, 2.0))
        else:
            ops.append(("random",))
    return ops


@pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
def test_random_interleavings(seed):
    rng = random.Random(seed)
    for _ in range(20):
        _same_stream(seed, _interleaving(rng, 30))


@pytest.mark.parametrize("seed", [0, 2**63 - 1])
def test_lemire_rejection(seed):
    # about half of the 32-bit words are rejected for n = 2**31 + 1
    n = 2**31 + 1
    count = 2000
    _same_stream(seed, [("integers", n)] * count)
    threshold = ((1 << 32) - n) % n
    halves = (
        half
        for word in np.random.PCG64(seed).random_raw(2 * count).tolist()
        for half in (word & M32, word >> 32)
    )
    rejected = 0
    for _ in range(count):
        while next(halves) * n & M32 < threshold:
            rejected += 1
    assert rejected > count // 4


def _ziggurat_paths(words, count: int) -> tuple[int, int]:
    """How many times the first ``count`` standard normals drawn from the raw
    64-bit ``words`` leave the ziggurat's fast path through a wedge and
    through the tail (``idx == 0``)."""
    words = iter(words)

    def uniform() -> float:
        return (next(words) >> 11) * 2.0**-53

    wedge = tail = 0
    for _ in range(count):
        while True:
            word = next(words)
            idx, rabs = word & 0xFF, word >> 9 & ((1 << 52) - 1)
            if rabs < draws._KI[idx]:
                break
            if idx == 0:
                tail += 1
                while True:
                    xx = -draws._ZIG_INV_R * math.log1p(-uniform())
                    yy = -math.log1p(-uniform())
                    if yy + yy > xx * xx:
                        break
                break
            wedge += 1
            x = rabs * draws._WI[idx]
            fi = draws._FI
            if (fi[idx - 1] - fi[idx]) * uniform() + fi[idx] < math.exp(-0.5 * x * x):
                break
    return wedge, tail


def test_bulk_normals_take_every_path():
    seed, count = 2**63 - 1, 200_000
    ours = np.array(Stream(seed).normal(0.0, 1.0, count))
    theirs = np.random.default_rng(seed).normal(0.0, 1.0, count)
    assert np.array_equal(ours, theirs)
    assert np.array_equal(np.signbit(ours), np.signbit(theirs))
    wedge, tail = _ziggurat_paths(np.random.PCG64(seed).random_raw(count + 10_000).tolist(), count)
    assert wedge > 100
    assert tail > 10


def test_negative_zero_comes_out_positive():
    # numpy returns loc + scale * z, and 0.0 + -0.0 is 0.0
    class NegativeZero(Stream):
        def _standard_normal(self) -> float:
            return -0.0

    assert [x.hex() for x in NegativeZero(0).normal(0.0, 0.5, 2)] == ["0x0.0p+0"] * 2


# seed -> integers(5) four times, normal(0.0, 1.0, 3), uniform(0.1, 0.9),
# random(), recorded from numpy 2.4.6
PINNED = {
    0: [
        4, 3, 2, 1,
        ["0x1.47e57a468b06dp-1", "0x1.adabbec84d4f0p-4", "-0x1.1243418e643edp-1"],
        "0x1.a9108f290a003p-1",
        "0x1.3698f6e301db6p-1",
    ],
    2**63 - 1: [
        2, 0, 1, 2,
        ["0x1.e8af88489bc42p-1", "-0x1.89c6111e036b8p-3", "0x1.c0ea25be4bd4ep+0"],
        "0x1.7c8ffc4956bc7p-1",
        "0x1.27d8332357008p-1",
    ],
}  # fmt: skip
PINNED_OPS = [("integers", 5)] * 4 + [("normal", 0.0, 1.0, 3), ("uniform", 0.1, 0.9), ("random",)]


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_draws(seed):
    assert _draws(Stream(seed), PINNED_OPS) == PINNED[seed]


def test_bad_arguments():
    with pytest.raises(ValueError, match="non-negative"):
        Stream(-1)
    for n in (0, 2**32 + 1):
        with pytest.raises(ValueError):
            Stream(0).integers(n)


def _numpy_random_references(tree: ast.Module) -> list[int]:
    """Line numbers of the tree's references to ``numpy.random`` in code."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found = (
                node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
        elif isinstance(node, ast.Import):
            found = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return lines


def test_no_numpy_random_in_source():
    assert _numpy_random_references(ast.parse("import numpy as np\nnp.random.default_rng(0)"))
    found = {
        path.name: lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := _numpy_random_references(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


FRESH_PROCESS = """
import json, sys
import tracesynth as ts
trace = ts.simulate_second_order(ts.SecondOrderConfig())
registry = ts.standard_registry(trace.schema.variables, trace.schema.actions)
result = ts.induce(trace, registry, config=ts.RunConfig(max_iterations=2))
ts.simulate_paddle(ts.PaddleConfig())
loaded = sorted(name for name in sys.modules if name.startswith("numpy.random"))
print(json.dumps({"optimised": result.optimised, "loaded": loaded}))
"""


def test_induce_and_paddle_leave_numpy_random_unimported():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimised"] > 0
    assert out["loaded"] == []


BLAS_PROCESS = """
import json, os
before = dict(os.environ)
import tracesynth as ts
kept = dict(os.environ) == before
trace = ts.simulate_second_order(ts.SecondOrderConfig())
registry = ts.standard_registry(trace.schema.variables, trace.schema.actions)
ts.induce(trace, registry, config=ts.RunConfig(max_iterations=2))
print(json.dumps({
    "threads": len(os.listdir("/proc/self/task")),
    "environ_kept": kept,
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


@pytest.mark.parametrize(
    "caller",
    [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
    ids=["unset", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"],
)
def test_import_starts_no_blas_worker_and_keeps_the_environment(caller):
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update(caller, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_PROCESS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["environ_kept"]
    assert out["openblas"] == caller.get("OPENBLAS_NUM_THREADS")
    # OpenBLAS runs the caller's thread count, the main thread included,
    # capped by the CPUs the process may run on; with no count, one thread
    wanted = int(next(iter(caller.values()), 1))
    assert out["threads"] == min(wanted, len(os.sched_getaffinity(0)))
