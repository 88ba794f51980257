"""The package namespace: every public name, loaded on first use.

``import jointselect`` imports no submodule; a name imports its submodule
when it is first read. The command line imports only what the core
commands use, so ``bench``, ``baselines`` and ``multiplayer`` stay
unloaded until a command that needs them runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jointselect

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

PUBLIC_NAMES = [
    "BenchmarkRecord",
    "DegenerateProductError",
    "DimensionMismatchError",
    "FAMILIES",
    "FULL_RANGE",
    "Feasibility",
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
    "base_case_three",
    "construct_zero_loss",
    "convexity_check",
    "feasibility_verdict",
    "fill_row_col",
    "instance_from_json",
    "instance_to_json",
    "kkt_verify",
    "loss",
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

SUBMODULES = ("baselines", "bench", "core", "errors", "minloss", "multiplayer", "oracle",
              "zeroloss")


def fresh_python(code: str) -> str:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    return proc.stdout.strip()


def test_all_lists_the_fifty_six_public_names():
    assert sorted(jointselect.__all__) == PUBLIC_NAMES
    assert len(set(jointselect.__all__)) == 56


def test_every_public_name_resolves_to_its_definition():
    for name in PUBLIC_NAMES:
        module = getattr(jointselect, jointselect._MODULE_OF[name])
        assert getattr(jointselect, name) is getattr(module, name), name
        assert name in dir(jointselect)


def test_submodule_names_resolve():
    for name in SUBMODULES:
        assert getattr(jointselect, name) is sys.modules[f"jointselect.{name}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        jointselect.no_such_name  # noqa: B018
    assert not hasattr(jointselect, "cmd_bench")


def test_star_import_gives_every_public_name():
    namespace: dict = {}
    exec("from jointselect import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_import_loads_no_submodule():
    loaded = fresh_python(
        "import jointselect, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('jointselect') or m == 'numpy'))"
    )
    assert loaded == "['jointselect']"


def test_cli_leaves_bench_baselines_and_multiplayer_unloaded():
    loaded = fresh_python(
        "import jointselect.cli, sys; "
        "print(sorted(m for m in ('jointselect.bench', 'jointselect.baselines', "
        "'jointselect.multiplayer') if m in sys.modules))"
    )
    assert loaded == "[]"


def test_readme_library_quick_start_runs():
    # The block imports public names and asserts that no draw is a conflict.
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
