"""Set optimization of finite vector-function families.

Trust-region solvers with monotone and non-monotone step acceptance,
first-order baselines, a test-problem registry, and a benchmark harness
with performance profiles.
"""

from .cone import Cone, ConeError, k2prime, orthant, preset
from .partition import (
    MinimalStructure,
    PartitionCapError,
    partition_iter,
    structure_from_values,
)
from .problems import (
    DerivativeTable,
    DomainError,
    SetValuedProblem,
    UnknownProblemError,
    from_functions,
    problem_ids,
    registry,
)
from .solvers import (
    IterationRecord,
    NonMonotoneMemory,
    RunResult,
    SolverConfig,
    SolverInternalError,
    StepMemo,
    accept_and_update,
    predicted_reductions,
    reduction_ratios,
    run,
)
from .subproblem import (
    InnerSolveFailure,
    ModelSet,
    SubproblemSolution,
    criticality_value,
    inner_minimax,
    theta_and_step,
)

__all__ = [
    "Cone", "ConeError", "orthant", "k2prime", "preset",
    "MinimalStructure", "PartitionCapError",
    "structure_from_values", "partition_iter",
    "SetValuedProblem", "DerivativeTable", "DomainError",
    "UnknownProblemError", "from_functions", "problem_ids", "registry",
    "ModelSet", "SubproblemSolution", "InnerSolveFailure", "inner_minimax",
    "theta_and_step", "criticality_value",
    "SolverConfig", "RunResult", "IterationRecord", "NonMonotoneMemory",
    "SolverInternalError", "StepMemo", "accept_and_update",
    "predicted_reductions", "reduction_ratios", "run",
]

__version__ = "0.1.0"
