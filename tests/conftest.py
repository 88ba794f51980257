"""Shared fixtures and independent check helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from jointselect import validate_instance

# The repository root, so that tests can import ``perfbench`` (the
# benchmark's answer checker and traced bindings) next to the package.
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# The running example used throughout: A favors the last arm, B the first,
# and every popularity stays at or below 1.
TABLE1_A = [0.3, 0.25, 0.45]
TABLE1_B = [0.5, 0.2, 0.3]

# Reference baselines computed by hand from their definitions (see the
# module tests for the arithmetic); frozen to 4 decimals as printed.
RENORM_TABLE1 = np.array(
    [
        [0.0, 0.0902, 0.1353],
        [0.1880, 0.0, 0.1128],
        [0.3383, 0.1353, 0.0],
    ]
)
ORDER_TABLE1 = np.array(
    [
        [0.0, 0.1, 0.1718],
        [0.1674, 0.0, 0.1151],
        [0.3214, 0.1243, 0.0],
    ]
)


@pytest.fixture
def table1():
    return validate_instance(TABLE1_A, TABLE1_B)


def random_feasible_instance(rng: np.random.Generator, n: int):
    """Uniform-simplex pair conditioned on max popularity <= 1.

    Two arms are feasible only when both popularities are 1, which a draw
    never hits, so for n = 2 this is the one feasible family
    a = (p, 1 - p), b = (1 - p, p), with p uniform.
    """
    if n == 2:
        p = rng.random()
        return validate_instance([p, 1.0 - p], [1.0 - p, p])
    while True:
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        if float((a + b).max()) <= 1.0:
            return validate_instance(a, b)


def random_hot_instance(rng: np.random.Generator, n: int):
    """Uniform-simplex pair conditioned on some popularity > 1."""
    while True:
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        if float((a + b).max()) > 1.0 + 1e-9:
            return validate_instance(a, b)


def raw_loss(entries: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Loss evaluated on a plain array, bypassing the matrix type entirely
    (used to finite-difference without tripping sum invariants)."""
    ga = entries.sum(axis=1) - a
    gb = entries.sum(axis=0) - b
    return float(ga @ ga + gb @ gb)


def fd_gradient(entries: np.ndarray, a: np.ndarray, b: np.ndarray, h: float = 1e-6):
    """Central-difference gradient over the off-diagonal entries."""
    n = entries.shape[0]
    g = np.zeros_like(entries)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            plus = entries.copy()
            minus = entries.copy()
            plus[i, j] += h
            minus[i, j] -= h
            g[i, j] = (raw_loss(plus, a, b) - raw_loss(minus, a, b)) / (2 * h)
    return g
