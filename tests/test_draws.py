"""The random stream that the search and the paddle simulator draw from,
``numpy.random.default_rng(seed)``, and what importing it costs.

NEP 19 does not promise that numpy's ``Generator`` streams stay the same
across releases, and the search results, golden digests included, depend on
this one.  So the draws are pinned as recorded from numpy 2.4.6, along every
path of the stream that the program's calls reach: seeds of one and of two
32-bit entropy words up to ``_derive_seed``'s largest, the left-over half of
a 64-bit word after a 32-bit integer, ``integers(1)``, which draws nothing,
Lemire's rejection loop, and the ziggurat's wedge and tail.  A few draws are
pinned as literals, the others by the first 16 hex digits of the SHA-256 of
their values.  Floats are written by ``float.hex``, so a sign of zero counts.

The tests also check that ``default_rng``, imported at module level, is the
only use of ``numpy.random`` in ``tracesynth``: its import falls when
``tracesynth`` is imported, and ``induce`` and the paddle import none of it.
Importing ``tracesynth`` starts no BLAS worker thread and leaves
``os.environ`` as it was.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from tracesynth import PaddleConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracesynth"
M32 = (1 << 32) - 1
M128 = (1 << 128) - 1
# PCG64's multiplier: each 64-bit word takes state -> state * PCG_MULT + inc
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the ziggurat's rightmost layer edge: only the tail draws beyond it
ZIG_R = 3.6541528853610088

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


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


SEQUENCES = {
    "two integers in a row": [("integers", 3), ("integers", 5)],
    "integer normal integer": [("integers", 4), ("normal", 0.0, 0.5, 1), ("integers", 2)],
    "integers(1) draws nothing": [("integers", 1), ("integers", 3), ("integers", 1)],
    "odd count of halves": [("integers", 5)] * 3 + [("random",), ("integers", 5)] * 2,
    "vector normal": [("normal", 0.0, 0.5, 3), ("integers", 2), ("normal", 0.0, 2.0, 2)],
    "paddle": [("uniform", 0.1, 0.9), ("random",), ("uniform", 0.2, 0.8)],
}
SEQUENCE_DIGESTS = {
    ("integer normal integer", 0): "f2707b96a8cb762a",
    ("integer normal integer", 1): "849a9b97c7c311ca",
    ("integer normal integer", 4294967295): "f2317535f84483a8",
    ("integer normal integer", 4294967296): "4c8501312d419d8a",
    ("integer normal integer", 9223372036854775807): "1c978ab573a4b6e7",
    ("integers(1) draws nothing", 0): "0bf98bd6de5c7ad6",
    ("integers(1) draws nothing", 1): "1c6b98687a07a54a",
    ("integers(1) draws nothing", 4294967295): "ef07a1fd1a788f2e",
    ("integers(1) draws nothing", 4294967296): "1c6b98687a07a54a",
    ("integers(1) draws nothing", 9223372036854775807): "1c6b98687a07a54a",
    ("odd count of halves", 0): "b30d7a0165e95156",
    ("odd count of halves", 1): "2f468549a086b059",
    ("odd count of halves", 4294967295): "815de8c4f45ef445",
    ("odd count of halves", 4294967296): "1d7f91a2621dcbd0",
    ("odd count of halves", 9223372036854775807): "eccb013b776139c8",
    ("paddle", 0): "6cccd14437848174",
    ("paddle", 1): "76d618cc95c08ef4",
    ("paddle", 4294967295): "303df6a644dd2aae",
    ("paddle", 4294967296): "28aa60308b05d52c",
    ("paddle", 9223372036854775807): "00a08fc33b523990",
    ("two integers in a row", 0): "5bf775530e2e5fcd",
    ("two integers in a row", 1): "3a316d6d3226f84c",
    ("two integers in a row", 4294967295): "923682bea6d517dc",
    ("two integers in a row", 4294967296): "2532a3f9cc1e9e71",
    ("two integers in a row", 9223372036854775807): "fad748aa45cceb71",
    ("vector normal", 0): "9e2f0278530f4292",
    ("vector normal", 1): "e63a2f055cd89cd0",
    ("vector normal", 4294967295): "d399bc70248cb31b",
    ("vector normal", 4294967296): "941ec1a3206477cd",
    ("vector normal", 9223372036854775807): "c355e181fb17f6a9",
}


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_sequences(seed, name):
    assert _digest(_draws(default_rng(seed), SEQUENCES[name])) == SEQUENCE_DIGESTS[name, seed]


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


INTERLEAVING_DIGESTS = {
    0: "c6dcef6356679d55",
    1: "f55bb1021a1f88ee",
    4294967295: "7098c16b81a69d6a",
    4294967296: "82cf8ea34c8b7bb0",
    9223372036854775807: "fc27c6394d2ec9a7",
    3553260803050964941: "554696d37c3e40fe",
    5249979066121302517: "73ccf99631a7ffc4",
    7960778426191620467: "f574f9a49d5197ae",
    5466147605252358141: "54ec80cdd804625f",
    2797435749927855575: "646330b09d459510",
    2356064425258417221: "bc8e699cae5feaec",
    5292556346772182526: "ce51cef8cb3e4828",
    8742514861359412280: "7a30cd7d89b3c6e4",
    3416446451134850355: "def3a3a8b93d7673",
    5655912240747357806: "7e38a6f0ba0f5b1d",
    300544187282452691: "1aaa4290c489aec4",
    7985063174142371181: "5d356bd246af5b4f",
}


@pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
def test_random_interleavings(seed):
    rng = random.Random(seed)
    draws = [_draws(default_rng(seed), _interleaving(rng, 30)) for _ in range(20)]
    assert _digest(draws) == INTERLEAVING_DIGESTS[seed]


LEMIRE_DIGESTS = {
    0: "0ce4481d4af1d4bd",
    9223372036854775807: "c2fbb3cc2bcee452",
}


@pytest.mark.parametrize("seed", [0, 2**63 - 1])
def test_lemire_rejection(seed):
    # about half of the 32-bit words are rejected for n = 2**31 + 1
    n = 2**31 + 1
    count = 2000
    assert _digest(_draws(default_rng(seed), [("integers", n)] * count)) == LEMIRE_DIGESTS[seed]
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


def _words_per_normal(seed: int, count: int) -> list[int]:
    """How many 64-bit words each of the first ``count`` standard normals of
    ``default_rng(seed)`` takes: one on the ziggurat's fast path, more
    through a wedge or the tail."""
    gen = default_rng(seed)
    state = gen.bit_generator.state["state"]
    now, inc = state["state"], state["inc"]
    words = []
    for _ in range(count):
        gen.standard_normal()
        after = gen.bit_generator.state["state"]["state"]
        taken = 0
        while now != after:
            now = (now * PCG_MULT + inc) & M128
            taken += 1
        words.append(taken)
    return words


BULK_DIGEST = "52400bd42ee7ebbb"


def test_bulk_normals_take_every_path():
    seed, count = 2**63 - 1, 200_000
    bulk = default_rng(seed).normal(0.0, 1.0, count)
    assert _digest(_value(bulk)) == BULK_DIGEST
    assert np.array_equal(bulk, default_rng(seed).standard_normal(count))
    words = np.array(_words_per_normal(seed, count))
    tail = np.abs(bulk) > ZIG_R
    assert (words[tail] > 1).all()
    assert tail.sum() > 10
    assert (~tail & (words > 1)).sum() > 100  # through a wedge


# seed -> integers(5) four times, normal(0.0, 1.0, 3), uniform(0.1, 0.9),
# random()
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
    assert _draws(default_rng(seed), PINNED_OPS) == PINNED[seed]


def test_bad_arguments():
    # the paddle refuses a negative seed before it draws; default_rng would too
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PaddleConfig(seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        default_rng(-1)
    with pytest.raises(ValueError):
        default_rng(0).integers(0)


def _numpy_random_references(tree: ast.Module) -> list[tuple[int, str]]:
    """The line and source of each of the tree's references to
    ``numpy.random`` in code."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (
                node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
        elif isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        else:
            hit = False
        if hit:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_numpy_random_in_source():
    """No code reaches ``numpy.random`` but a module-level import of
    ``default_rng``: no global state, no other generator."""
    probe = "import numpy as np\nnp.random.default_rng(0)"
    assert _numpy_random_references(ast.parse(probe)) == [(2, "np.random")]
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {node.lineno for node in tree.body}
        if refs := _numpy_random_references(tree):
            found[path.name] = [(line in top, source) for line, source in refs]
    import_at_top = [(True, "from numpy.random import default_rng")]
    assert found == {"search.py": import_at_top, "systems.py": import_at_top}


FRESH_PROCESS = """
import json, sys
import tracesynth as ts
def loaded():
    return sorted(name for name in sys.modules if name.startswith("numpy.random"))
at_import = loaded()
trace = ts.simulate_second_order(ts.SecondOrderConfig())
registry = ts.standard_registry(trace.schema.variables, trace.schema.actions)
result = ts.induce(trace, registry, config=ts.RunConfig(max_iterations=2))
ts.simulate_paddle(ts.PaddleConfig())
print(json.dumps({"optimised": result.optimised, "at_import": at_import, "after": loaded()}))
"""


def test_induce_and_paddle_leave_numpy_random_unimported():
    """``numpy.random`` is imported with ``tracesynth``, in set-up, and
    ``induce`` and the paddle import none of it themselves."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimised"] > 0
    assert "numpy.random" in out["at_import"]
    assert out["after"] == out["at_import"]


# a fresh process, as the command line is, that imports tracesynth before numpy
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
