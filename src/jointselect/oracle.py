"""Independent minimum-loss solver used to certify the constructions.

Minimizing the loss over conflict-free joint selections is a convex QP:
the feasible set is the probability simplex over the tuples of pairwise
distinct arms (tuples that repeat an arm are excluded from the variable
vector entirely, so conflict-freedom holds exactly), and the objective is
a convex quadratic. `descend` runs projected gradient descent over that
simplex for M players and N arms with the fixed step
1/(2 M perm(N-1, M-1)). That is one over a bound on the Hessian spectral
norm: the Hessian sums one term per player, and each term is block
diagonal with blocks 2 * ones over the perm(N-1, M-1) tuples that give
that player the same arm, so each contributes eigenvalues at most
2 perm(N-1, M-1). The descent is therefore monotone and its fixed points
are global minima.

`solve_min_loss` is the two-player case: the N^2 - N off-diagonal entries
in row-major order, and the step 1/(4(N-1)). `multiplayer` runs the same
loop over M-tuples.

This solver deliberately shares no code path with the closed-form
constructions it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from numpy.typing import NDArray

from .core import JointSelectionMatrix, ProblemInstance, Vec, _require_unit_total, loss
from .errors import DimensionTooLargeError

MAX_ORACLE_ARMS = 12


@dataclass(frozen=True)
class OracleResult:
    matrix: JointSelectionMatrix
    loss: float
    iterations: int
    gradient_mapping_norm: float
    converged: bool


def project_simplex(y: Vec) -> Vec:
    """Euclidean projection onto {x >= 0, sum x = 1} by sort and threshold."""
    u = np.sort(y)[::-1]
    thresholds = (np.cumsum(u) - 1.0) / np.arange(1, y.size + 1)
    k = np.nonzero(u > thresholds)[0][-1]
    return np.maximum(y - thresholds[k], 0.0)


def descend(
    idx: NDArray[np.intp], w: NDArray[np.float64], tol: float, max_iter: int
) -> tuple[Vec, int, float]:
    """Projected gradient descent over the simplex of the tuples in ``idx``.

    ``idx`` is d x M: row r is the arm each of the M players gets under
    coordinate r. ``w`` is the M x N matrix of desired preferences. Starts
    from the uniform point and stops when the gradient-mapping displacement
    ||p - Proj(p - step grad)||_inf drops to ``tol`` or ``max_iter`` runs
    out. Returns the last iterate, the iterations run and that displacement.
    """
    d, m = idx.shape
    n = w.shape[1]
    step = 1.0 / (2.0 * m * math.perm(n - 1, m - 1))
    # (arm in each tuple, desired weights) per player, first player apart
    (arms0, w0), *rest = zip(np.ascontiguousarray(idx.T), w)

    p = np.full(d, 1.0 / d)
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # dL/dp_r = sum over players x of 2 (pi_x - w_x)[arm of x in tuple r]
        grad = 2.0 * (np.bincount(arms0, weights=p, minlength=n) - w0)[arms0]
        for arms, w_x in rest:
            grad += 2.0 * (np.bincount(arms, weights=p, minlength=n) - w_x)[arms]
        q = project_simplex(p - step * grad)
        gap = float(np.abs(q - p).max())
        p = q
        if gap <= tol:
            break
    return p, iterations, gap


def solve_min_loss(
    inst: ProblemInstance, tol: float = 1e-10, max_iter: int = 200_000
) -> OracleResult:
    """Projected gradient descent from the uniform point over the off-diagonal entries.

    Stops when the gradient-mapping displacement ||p - Proj(p - step grad)||_inf
    drops to ``tol``; if ``max_iter`` runs out first the best (latest) iterate
    is returned with ``converged=False``. By convexity a converged result is
    globally optimal to within the tolerance.
    """
    _require_unit_total(inst.total, "oracle")
    n = inst.n
    if n > MAX_ORACLE_ARMS:
        raise DimensionTooLargeError(
            f"oracle is desk-scale (N <= {MAX_ORACLE_ARMS}), got {n}"
        )
    idx = np.array(list(permutations(range(n), 2)), dtype=np.intp)
    p, iterations, gap = descend(idx, np.stack([inst.a, inst.b]), tol, max_iter)

    entries = np.zeros((n, n))
    entries[idx[:, 0], idx[:, 1]] = p
    entries.setflags(write=False)
    matrix = JointSelectionMatrix(entries, 1.0)
    return OracleResult(matrix, loss(matrix, inst), iterations, gap, gap <= tol)


__all__ = ["MAX_ORACLE_ARMS", "OracleResult", "descend", "project_simplex", "solve_min_loss"]
