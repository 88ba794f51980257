"""Conflict-free joint selection probabilities for players with probabilistic preferences.

Two players (or more, see `multiplayer`) each want to pick one of N arms
according to their own preference distribution, but must never pick the
same arm at the same time. This package constructs the joint selection
matrix that satisfies both sets of preferences exactly whenever that is
possible (no arm's combined popularity exceeds the total), and the
provably loss-minimal matrix when it is not; reference baselines, an
independent convex-QP oracle, a benchmark sweep, and a CLI round it out.
"""

from .baselines import (
    random_order,
    random_order_degeneracies,
    simultaneous_renormalization,
    uniform_random,
)
from .bench import (
    FAMILIES,
    FULL_RANGE,
    METHODS,
    BenchmarkRecord,
    preference_family,
    run_benchmark,
    summary_table,
    write_csv,
)
from .core import (
    JointSelectionMatrix,
    ProblemInstance,
    instance_from_json,
    instance_to_json,
    loss,
    loss_gradient,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    sample_joint,
    satisfied_preferences,
    validate_instance,
)
from .errors import (
    DegenerateProductError,
    DimensionMismatchError,
    InfeasibleTwoArmError,
    InternalInvariantError,
    InvalidArmCountError,
    JointSelectError,
    LengthMismatchError,
    NegativeWeightError,
    NonDistinctKeyError,
    NotApplicableError,
    PopularityExceedsTotalError,
    TooFewArmsError,
    TotalMismatchError,
    TotalNotOneError,
    ValidationError,
)
from .minloss import (
    convexity_check,
    kkt_verify,
    loss_hessian,
    min_loss_matrix,
    min_loss_value,
    optimal_satisfaction_matrix,
)
from .multiplayer import (
    Feasibility,
    JointTensorSparse,
    feasibility_verdict,
    multi_loss,
    solve_multi_min_loss,
    tensor_from_matrix,
    tensor_marginals,
    validate_multi,
)
from .oracle import project_simplex, solve_min_loss
from .zeroloss import (
    base_case_interval,
    base_case_three,
    construct_zero_loss,
    fill_row_col,
    reduce_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRecord",
    "DegenerateProductError",
    "DimensionMismatchError",
    "FAMILIES",
    "FULL_RANGE",
    "Feasibility",
    "InfeasibleTwoArmError",
    "InternalInvariantError",
    "InvalidArmCountError",
    "JointSelectError",
    "JointSelectionMatrix",
    "JointTensorSparse",
    "LengthMismatchError",
    "METHODS",
    "NegativeWeightError",
    "NonDistinctKeyError",
    "NotApplicableError",
    "PopularityExceedsTotalError",
    "ProblemInstance",
    "TooFewArmsError",
    "TotalMismatchError",
    "TotalNotOneError",
    "ValidationError",
    "base_case_interval",
    "base_case_three",
    "construct_zero_loss",
    "convexity_check",
    "feasibility_verdict",
    "fill_row_col",
    "instance_from_json",
    "instance_to_json",
    "kkt_verify",
    "loss",
    "loss_gradient",
    "loss_hessian",
    "matrix_from_json",
    "matrix_to_csv",
    "matrix_to_json",
    "min_loss_matrix",
    "min_loss_value",
    "multi_loss",
    "optimal_satisfaction_matrix",
    "preference_family",
    "project_simplex",
    "random_order",
    "random_order_degeneracies",
    "reduce_instance",
    "run_benchmark",
    "sample_joint",
    "satisfied_preferences",
    "simultaneous_renormalization",
    "solve_min_loss",
    "solve_multi_min_loss",
    "summary_table",
    "tensor_from_matrix",
    "tensor_marginals",
    "uniform_random",
    "validate_instance",
    "validate_multi",
    "write_csv",
]
