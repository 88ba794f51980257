"""Minimum-loss construction when one arm is too popular, plus certificates.

With unit total, at most one arm can have popularity S_i > 1 (popularities
sum to 2). When that happens zero loss is impossible, and the minimum

    L_min = N/(2(N-1)) * (S_max - 1)^2

is attained by a matrix that routes everything through the hot arm: with
eps = (S_max - 1)/(2(N-1)), its column holds A_i + eps, its row B_j + eps,
and every entry avoiding the hot arm is 0. Optimality is certified two
independent ways: explicit KKT multipliers (mu = 2(N-2) eps on the sum
constraint, lambda_{i,j} = 2N eps on the inactive-region nonnegativity
constraints) whose four residuals a verifier can check numerically, and
the fact that the loss is a convex quadratic, whose Hessian over the
off-diagonal coordinates is H[(i,j),(k,l)] = 2(delta_ik + delta_jl).
`kkt_verify` measures the residuals from the matrix's marginals, its
minimum and total, and the largest cell off the hot row and column, in
O(N) extra memory and without reading the dense entries; the dense lambda
is built only when a caller reads `KktCertificate.lam`. The hot-arm
matrix is handed to `JointSelectionMatrix` as its 2N - 2 cells and forms
no N x N array: its validation, marginals and certificate read O(N)
values, and the dense-order total to which the primal residual is pinned
bit for bit is computed from the cells, in O(N + N^2/64) scratch (one
float per summation node of 64 to 128 entries) besides the summation
layout kept for the last N (8 bytes per node: 64 KB at N = 1024, 8 MB at
N = 10^4). The dense entries are scattered only when a caller reads them.

`optimal_satisfaction_matrix` is the top-level dispatch: exact zero-loss
construction when max S <= 1 (+1e-9), the hot-arm matrix with its KKT
certificate otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    SUM_RTOL,
    Cells,
    JointSelectionMatrix,
    Mat,
    ProblemInstance,
    Vec,
    _gradient_terms,
    _require_unit_total,
    loss,
)
from .errors import (
    DimensionTooLargeError,
    NotApplicableError,
    ValidationError,
)
from .zeroloss import construct_zero_loss

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    slackness: float
    dual: float
    primal: float

    def max(self) -> float:
        return max(self.stationarity, self.slackness, self.dual, self.primal)


@dataclass(frozen=True, eq=False)
class KktCertificate:
    """Closed-form multipliers for the hot-arm matrix and their residuals.

    epsilon = (S_max - 1)/(2(N-1)); mu = 2(N-2) epsilon multiplies the
    total-sum constraint; lam[i, j] = 2N epsilon on off-diagonal entries
    whose row and column both avoid arm ``hot`` (the entries pinned at
    zero), 0 elsewhere. The residuals were measured from the matrix's
    marginals and read-only reductions of its entries; the dense N x N
    ``lam`` is built on first access. ``==`` and ``hash`` go by identity.
    """

    epsilon: float
    mu: float
    residuals: KktResiduals
    n: int
    hot: int

    @cached_property
    def lam(self) -> Mat:
        lam = np.zeros((self.n, self.n))
        cold = np.arange(self.n) != self.hot
        lam[np.ix_(cold, cold)] = 2.0 * self.n * self.epsilon
        np.fill_diagonal(lam, 0.0)
        lam.setflags(write=False)
        return lam

    @property
    def valid(self) -> bool:
        return self.residuals.max() <= RESIDUAL_TOL


@dataclass(frozen=True)
class ConvexityReport:
    n: int
    dimension: int
    trials: int
    min_quadratic_form: float
    min_eigenvalue: float | None
    passed: bool


@dataclass(frozen=True)
class OptimalResult:
    """Output of the top-level dispatch: matrix, its loss, branch taken.

    ``certificate`` is present exactly when the min-loss branch ran
    (zero loss needs no multipliers; the construction is its own witness).
    """

    matrix: JointSelectionMatrix
    loss: float
    certificate: KktCertificate | None
    branch: str  # "zero-loss" | "min-loss"


def min_loss_value(inst: ProblemInstance) -> float:
    """Closed-form minimum loss: 0 if max S <= 1, else N/(2(N-1)) (S_max-1)^2."""
    _require_unit_total(inst.total, "minimum loss")
    s_max = float(inst.popularity.max())
    if s_max <= 1.0 + SUM_RTOL:
        return 0.0
    n = inst.n
    return n / (2.0 * (n - 1)) * (s_max - 1.0) ** 2


def min_loss_matrix(inst: ProblemInstance, hot: int) -> JointSelectionMatrix:
    """Hot-arm matrix: column ``hot`` holds A_i + eps, row ``hot`` holds B_j + eps.

    Requires S_hot > 1 (+1e-9), which with unit total also makes ``hot``
    the unique most popular arm.
    """
    _require_unit_total(inst.total, "hot-arm matrix")
    n = inst.n
    s = inst.popularity
    if not 0 <= hot < n:
        raise ValidationError(f"hot arm index {hot} out of range for N={n}")
    if s[hot] <= 1.0 + SUM_RTOL:
        raise NotApplicableError(
            f"arm {hot} has popularity {s[hot]:.17g} <= 1; use the zero-loss construction"
        )
    eps = (float(s[hot]) - 1.0) / (2.0 * (n - 1))
    # Row-major cells: (i, hot) for i < hot, the hot row, (i, hot) for i > hot.
    below = hot + n - 1  # where the cells below the hot row start
    rows = np.empty(2 * n - 2, dtype=np.intp)
    cols = np.empty(2 * n - 2, dtype=np.intp)
    vals = np.empty(2 * n - 2)
    rows[:hot] = cols[hot:2 * hot] = np.arange(hot)
    rows[below:] = cols[2 * hot:below] = np.arange(hot + 1, n)
    rows[hot:below] = cols[:hot] = cols[below:] = hot
    vals[:hot], vals[hot:2 * hot] = inst.a[:hot], inst.b[:hot]
    vals[2 * hot:below], vals[below:] = inst.b[hot + 1:], inst.a[hot + 1:]
    vals += eps
    return JointSelectionMatrix(Cells(n, rows, cols, vals), 1.0)


def _extremes(v: Vec, skip: int) -> list[int]:
    """Positions of v but ``skip`` that hold the two smallest and the two
    largest entries off ``skip``, and perhaps one or two more: those of the
    three smallest and three largest entries of v (all of v if short)."""
    picks = range(v.size)
    if v.size > 6:
        picks = np.argpartition(v, (2, v.size - 3))[[0, 1, 2, -3, -2, -1]].tolist()
    return [i for i in picks if i != skip]


def kkt_verify(inst: ProblemInstance, m: JointSelectionMatrix) -> KktCertificate:
    """Build the closed-form multipliers and measure all four KKT residuals on m.

    Stationarity: dL/dP[i,j] - lam[i,j] + mu = 0 on every off-diagonal entry.
    Slackness: lam[i,j] * P[i,j] = 0. Dual: lam >= 0. Primal: P on the
    conflict-free simplex. Residuals are max-norm; all <= 1e-9 on the
    genuine hot-arm matrix, order-1 on anything else.

    No N x N array is formed. The gradient is ga[i] + gb[j] and lam is
    constant on each block (hot row, hot column, cold x cold), and float
    rounding is monotone, so each block's largest stationarity term sits
    at an extreme pair: the two largest or two smallest ga and gb over its
    rows and columns, i != j. A few more pairs are taken in, which leaves
    the max as it is. Slackness needs only the largest cell off the hot
    row and column. Each term is computed with the same float operations
    as the dense form, so the residuals equal it bit for bit.
    The marginals, minimum and total are the matrix's own, taken once; the
    dense entries are not read.
    """
    _require_unit_total(inst.total, "KKT certificate")
    n = inst.n
    s = inst.popularity
    hot = int(np.argmax(s))
    s_max = float(s[hot])
    if s_max <= 1.0 + SUM_RTOL:
        raise NotApplicableError("KKT certificate only applies when max S > 1")
    eps = (s_max - 1.0) / (2.0 * (n - 1))
    mu = 2.0 * (n - 2) * eps
    lam_cold = 2.0 * n * eps
    ga, gb = _gradient_terms(m, inst)

    rows, cols = [hot, *_extremes(ga, hot)], [hot, *_extremes(gb, hot)]
    stationarity = max(
        abs(x + y - (lam_cold if i != hot and j != hot else 0.0) + mu)
        for i, x in zip(rows, ga[rows].tolist())
        for j, y in zip(cols, gb[cols].tolist())
        if i != j
    )

    # Cells are positive, and the region off the hot row and column also
    # holds zeros (its diagonal at least), so 0 starts the max.
    off_hot = (m.rows != hot) & (m.cols != hot)
    slackness = abs(lam_cold * float(m.vals.max(where=off_hot, initial=0.0)))
    dual = max(0.0, -min(0.0, lam_cold))  # lam takes only the values 0 and lam_cold
    # The diagonal is exactly 0 by validation, so it adds no primal term.
    primal = max(max(0.0, -m.min_entry), abs(m.entry_sum - 1.0))
    return KktCertificate(eps, mu, KktResiduals(stationarity, slackness, dual, primal), n, hot)


def loss_hessian(n: int) -> Mat:
    """Exact Hessian of the loss over the N^2 - N off-diagonal coordinates."""
    idx = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = np.array([i for i, _ in idx])
    cols = np.array([j for _, j in idx])
    same_row = (rows[:, None] == rows[None, :]).astype(np.float64)
    same_col = (cols[:, None] == cols[None, :]).astype(np.float64)
    return 2.0 * (same_row + same_col)


def convexity_check(n: int, trials: int = 1000, seed: int = 0) -> ConvexityReport:
    """Numerical PSD check of the loss Hessian: random quadratic forms, and
    an exact eigenvalue floor for N <= 6 where the dense solve is instant."""
    if n < 2:
        raise ValidationError(f"need at least 2 arms, got {n}")
    if n > 8:
        raise DimensionTooLargeError(f"convexity check is desk-scale (N <= 8), got {n}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    h = loss_hessian(n)
    d = h.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    forms = np.einsum("td,de,te->t", x, h, x)
    min_form = float(forms.min())
    min_eig = float(np.linalg.eigvalsh(h).min()) if n <= 6 else None
    passed = min_form >= -RESIDUAL_TOL and (min_eig is None or min_eig >= -RESIDUAL_TOL)
    return ConvexityReport(n, d, trials, min_form, min_eig, passed)


def optimal_satisfaction_matrix(inst: ProblemInstance) -> OptimalResult:
    """Best conflict-free matrix for a unit-total instance.

    max S <= 1 (+1e-9): zero-loss construction, no certificate.
    max S  > 1: hot-arm matrix with its KKT certificate; achieved loss
    equals N/(2(N-1)) (S_max-1)^2 to float accuracy.
    """
    _require_unit_total(inst.total, "optimal satisfaction matrix")
    hot = int(np.argmax(inst.popularity))
    if inst.popularity[hot] <= 1.0 + SUM_RTOL:
        m = construct_zero_loss(inst)
        return OptimalResult(m, loss(m, inst), None, "zero-loss")
    m = min_loss_matrix(inst, hot)
    cert = kkt_verify(inst, m)
    return OptimalResult(m, loss(m, inst), cert, "min-loss")


__all__ = [
    "ConvexityReport",
    "KktCertificate",
    "KktResiduals",
    "OptimalResult",
    "RESIDUAL_TOL",
    "convexity_check",
    "kkt_verify",
    "loss_hessian",
    "min_loss_matrix",
    "min_loss_value",
    "optimal_satisfaction_matrix",
]
