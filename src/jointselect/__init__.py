"""Conflict-free joint selection probabilities for players with probabilistic preferences.

Two players (or more, see `multiplayer`) each want to pick one of N arms
according to their own preference distribution, but must never pick the
same arm at the same time. This package constructs the joint selection
matrix that satisfies both sets of preferences exactly whenever that is
possible (no arm's combined popularity exceeds the total), and the
provably loss-minimal matrix when it is not; reference baselines, an
independent convex-QP oracle, a benchmark sweep, and a CLI round it out.

Names load on first use (PEP 562): ``import jointselect`` imports no
submodule, and reading ``jointselect.min_loss_matrix`` first imports
``minloss``. So a command-line process loads only what its command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "baselines": (
        "random_order",
        "random_order_degeneracies",
        "simultaneous_renormalization",
        "uniform_random",
    ),
    "bench": (
        "FAMILIES",
        "FULL_RANGE",
        "METHODS",
        "BenchmarkRecord",
        "preference_family",
        "run_benchmark",
        "summary_table",
        "write_csv",
    ),
    "core": (
        "JointSelectionMatrix",
        "ProblemInstance",
        "instance_from_json",
        "instance_to_json",
        "loss",
        "matrix_from_json",
        "matrix_to_csv",
        "matrix_to_json",
        "sample_joint",
        "validate_instance",
    ),
    "errors": (
        "DegenerateProductError",
        "DimensionMismatchError",
        "InternalInvariantError",
        "InvalidArmCountError",
        "JointSelectError",
        "LengthMismatchError",
        "NegativeWeightError",
        "NonDistinctKeyError",
        "NotApplicableError",
        "PopularityExceedsTotalError",
        "TooFewArmsError",
        "TotalMismatchError",
        "TotalNotOneError",
        "ValidationError",
    ),
    "minloss": (
        "convexity_check",
        "kkt_verify",
        "loss_hessian",
        "min_loss_matrix",
        "min_loss_value",
        "optimal_satisfaction_matrix",
    ),
    "multiplayer": (
        "Feasibility",
        "JointTensorSparse",
        "feasibility_verdict",
        "multi_loss",
        "solve_multi_min_loss",
        "tensor_from_matrix",
        "tensor_marginals",
        "validate_multi",
    ),
    "oracle": ("project_simplex", "solve_min_loss"),
    "zeroloss": (
        "base_case_three",
        "construct_zero_loss",
        "fill_row_col",
        "reduce_instance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
