"""tracesynth: induce short typed s-expression programs that reproduce
observed state-action traces, via gradient descent inside a best-first
structure search.

Importing tracesynth before numpy loads numpy with a one-thread BLAS pool.
numpy's bundled OpenBLAS otherwise starts a worker per extra CPU when it
loads, and each worker spins for a while before it sleeps.  tracesynth
gives them no work (its only BLAS call is the norm of a few numbers), yet
the spin is CPU time charged to every short ``induce`` process.  OpenBLAS
reads its thread count once, when it loads, so ``OPENBLAS_NUM_THREADS`` is
set to 1 for that moment only and ``os.environ`` is left as it was.  Where
the caller has set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS``, or numpy is already loaded, nothing changes.  The
trade-off: a host that imports tracesynth first and then runs large BLAS
work gets one BLAS thread, unless it sets one of those variables itself or
imports numpy first.
"""

import os
import sys

_BLAS_THREAD_VARIABLES = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in sys.modules and not _BLAS_THREAD_VARIABLES & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .config import RunConfig
from .interpreter import (
    ErrorSpec,
    EvaluationError,
    ExecutionResult,
    Gradients,
    backward,
    compile_tape,
    discretize_actions,
    discretized_error_spec,
    evaluate_step,
    execute,
    matches_trace,
)
from .optimizer import (
    OptimizeConfig,
    OptimizedCandidate,
    OptimizerState,
    adagrad_step,
    optimize,
    reassign_variables,
)
from .program import (
    ActionNode,
    ComplexityWeights,
    EMPTY_PROGRAM,
    FunctionNode,
    FunctionSpec,
    ParamLeaf,
    ParseError,
    ProgramAst,
    ProgramError,
    ProgramTypeError,
    Registry,
    VarLeaf,
    canonical_key,
    complexity,
    depth,
    initial_params,
    leaves,
    parse_program,
    print_program,
    standard_registry,
)
from .search import (
    Candidate,
    CandidateQueue,
    SolutionSet,
    enumerate_programs,
    expand,
    expand_empty,
    induce,
)
from .systems import (
    OSCILLATOR,
    PENDULUM,
    PaddleConfig,
    SecondOrderConfig,
    simulate_paddle,
    simulate_second_order,
)
from .trace import (
    MemoryState,
    ObservationTrace,
    TraceFormatError,
    TraceSchema,
    TraceStep,
    VariableIndex,
    build_variable_index,
    load_trace,
    memory_at,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)

__version__ = "0.1.0"
