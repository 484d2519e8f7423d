"""tracesynth: induce short typed s-expression programs that reproduce
observed state-action traces, via gradient descent inside a best-first
structure search."""

from .autodiff import Gradients, backward
from .config import RunConfig
from .interpreter import (
    ErrorSpec,
    EvaluationError,
    ExecutionResult,
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
