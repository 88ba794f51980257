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
`kkt_verify` measures stationarity, slackness and dual feasibility from
the matrix's marginals and the largest cell off the hot row and column,
in O(N) extra memory and without reading the dense entries. The hot-arm
matrix is handed to `JointSelectionMatrix` as its 2N - 2 cells and forms
no N x N array, so building and certifying it reads O(N) values. Primal
feasibility needs no measurement to decide the verdict: a matrix of
total 1 was proved on construction to sum to within 1e-9 of 1, with no
negative entry. The exact primal residual, pinned bit for bit to the
total in numpy's dense order, is computed only when a caller reads
`KktCertificate.residuals`; that replays numpy's pairwise summation from
the cells, in O(N) scratch and with no kept state. No dense lambda is
formed, and the dense entries are built only when read.

`optimal_satisfaction_matrix` is the top-level dispatch: exact zero-loss
construction when max S <= 1 (+1e-9), the hot-arm matrix with its KKT
certificate otherwise. Either answer is checked before it is returned,
and a failed check raises InternalInvariantError. That bound is one decision,
`core._zero_loss_reachable`, which `min_loss_value`, `min_loss_matrix`
and `kkt_verify` read too, on the instance's own most popular arm
(`_hot`), so each of them either applies or leaves the input to the
zero-loss branch. The hot-arm cells are built by
`zeroloss._hot_arm_cells`, which also answers inside the band
1 < max S <= 1 + 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isnan, nan

import numpy as np

from .core import (
    JointSelectionMatrix,
    Mat,
    ProblemInstance,
    Vec,
    _gradient_terms,
    _require_unit_total,
    _tol,
    _zero_loss_reachable,
    loss,
)
from .errors import (
    DimensionTooLargeError,
    InternalInvariantError,
    NotApplicableError,
    ValidationError,
)
from .zeroloss import _hot_arm_cells, construct_zero_loss

RESIDUAL_TOL = 1e-9

# convexity_check is desk-scale: at most this many arms, so the dense
# Hessian it decomposes has at most 56 x 56 entries.
CONVEXITY_MAX_N = 8


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    slackness: float
    dual: float
    primal: float

    def max(self) -> float:
        """The largest residual, or NaN when any residual is NaN."""
        values = (self.stationarity, self.slackness, self.dual, self.primal)
        return nan if any(map(isnan, values)) else max(values)


@dataclass(frozen=True, eq=False)
class KktCertificate:
    """Closed-form multipliers for the hot-arm matrix and their residuals.

    The multipliers are given by ``epsilon``, ``mu`` and ``hot``, with N =
    ``matrix.n``: epsilon = (S_max - 1)/(2(N-1)); mu = 2(N-2) epsilon
    multiplies the total-sum constraint; lam[i, j] = 2N epsilon on
    off-diagonal entries whose row and column both avoid arm ``hot`` (the
    entries pinned at zero), 0 elsewhere. Stationarity, slackness and dual
    feasibility were measured when the certificate was made; ``residuals``
    adds the primal residual on first read, which takes the matrix's
    dense-order total. ``valid`` reads it only for a matrix whose declared
    total is not 1. ``==`` and ``hash`` go by identity.
    """

    epsilon: float
    mu: float
    hot: int
    matrix: JointSelectionMatrix = field(repr=False)
    # The stationarity, slackness and dual residuals, in that order.
    _measured: tuple[float, float, float] = field(repr=False)

    @cached_property
    def residuals(self) -> KktResiduals:
        m = self.matrix
        # Validation leaves no negative entry and a diagonal of exactly 0, so
        # only the total adds a primal term.
        primal = abs(m.entry_sum - 1.0)
        return KktResiduals(*self._measured, primal)

    @property
    def valid(self) -> bool:
        if not all(r <= RESIDUAL_TOL for r in self._measured):  # NaN fails too
            return False
        # A matrix of total 1 has no negative entry and, as its construction
        # proved, a dense-order sum within SUM_RTOL of 1: its primal residual
        # is at most SUM_RTOL, which is no more than RESIDUAL_TOL.
        if self.matrix.total == 1.0:
            return True
        return self.residuals.max() <= RESIDUAL_TOL


@dataclass(frozen=True)
class ConvexityReport:
    n: int
    dimension: int
    min_eigenvalue: float
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


def _hot(inst: ProblemInstance, what: str) -> tuple[int, float]:
    """The unit-total check, then the most popular arm and its popularity."""
    _require_unit_total(inst.total, what)
    hot = int(np.argmax(inst.popularity))
    return hot, float(inst.popularity[hot])


def _reach(total: float) -> str:
    """The bound of `_zero_loss_reachable` at ``total``, as messages state it."""
    return f"{total:.17g} + {_tol(total):g}"


def min_loss_value(inst: ProblemInstance) -> float:
    """Closed-form minimum loss: 0 if max S <= 1 (+1e-9), else N/(2(N-1)) (S_max-1)^2."""
    _, s_max = _hot(inst, "minimum loss")
    if _zero_loss_reachable(s_max, inst.total):
        return 0.0
    n = inst.n
    return n / (2.0 * (n - 1)) * (s_max - 1.0) ** 2


def min_loss_matrix(inst: ProblemInstance) -> JointSelectionMatrix:
    """Hot-arm matrix: column ``hot`` holds A_i + eps, row ``hot`` holds B_j + eps.

    ``hot`` is the most popular arm, which must have S_hot > 1 (+1e-9);
    with unit total it is then the only such arm. The cells are
    `zeroloss._hot_arm_cells`.
    """
    hot, s_hot = _hot(inst, "hot-arm matrix")
    if _zero_loss_reachable(s_hot, inst.total):
        raise NotApplicableError(
            f"arm {hot} has popularity {s_hot:.17g} <= {_reach(inst.total)}; "
            "use the zero-loss construction"
        )
    return JointSelectionMatrix(_hot_arm_cells(inst, hot, 1.0), 1.0)


def _extremes(v: Vec, skip: int) -> list[int]:
    """Positions of the two largest and the two smallest entries of v off
    ``skip``, by arg-reductions on one copy: argmax with ``skip`` masked by
    -inf, then again with that pick masked too; then, with that pick
    restored and ``skip`` masked by +inf, the same by argmin. Positions may
    repeat, and with one entry off ``skip`` each second pick is any position."""
    w = v.copy()
    w[skip] = -np.inf
    top = int(w.argmax())
    w[top] = -np.inf
    second = int(w.argmax())
    w[top], w[skip] = v[top], np.inf
    low = int(w.argmin())
    w[low] = np.inf
    return [top, second, low, int(w.argmin())]


def kkt_verify(inst: ProblemInstance, m: JointSelectionMatrix) -> KktCertificate:
    """Build the closed-form multipliers and certify m by its four KKT residuals.

    Stationarity: dL/dP[i,j] - lam[i,j] + mu = 0 on every off-diagonal entry.
    Slackness: lam[i,j] * P[i,j] = 0. Dual: lam >= 0. Primal: P on the
    conflict-free simplex. Residuals are max-norm; all <= 1e-9 on the
    genuine hot-arm matrix, order-1 on anything else.

    No N x N array is formed. The gradient is ga[i] + gb[j] and lam is
    constant on each block (hot row, hot column, cold x cold), and float
    rounding is monotone, so each block's largest stationarity term sits
    at an extreme pair: the two largest or two smallest ga and gb over its
    rows and columns, i != j. `_extremes` finds them off the hot arm by
    argmax and argmin, each pick masked for the next, with no partition or
    sort; with the hot arm that makes five candidates a side. Any repeated
    or extra pair is a term of the dense form too, which leaves the max as
    it is. Slackness needs only the largest cell off the hot row and
    column. Each term is computed with the same float operations
    as the dense form, so the residuals equal it bit for bit.
    The marginals are the matrix's own, taken once. The primal residual
    reads the matrix's dense-order total, and is computed on the first
    read of ``residuals``. The dense entries are not read.
    """
    hot, s_max = _hot(inst, "KKT certificate")
    if _zero_loss_reachable(s_max, inst.total):
        raise NotApplicableError(
            f"KKT certificate only applies when max S > {_reach(inst.total)}"
        )
    n = inst.n
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
    # lam takes only the values 0 and lam_cold, and lam_cold = 2N eps > 0 here,
    # since this branch has S_max > 1 + 1e-9; so no multiplier is negative.
    dual = 0.0
    return KktCertificate(eps, mu, hot, m, (stationarity, slackness, dual))


def loss_hessian(n: int) -> Mat:
    """Exact Hessian of the loss over the N^2 - N off-diagonal coordinates."""
    idx = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = np.array([i for i, _ in idx])
    cols = np.array([j for _, j in idx])
    same_row = (rows[:, None] == rows[None, :]).astype(np.float64)
    same_col = (cols[:, None] == cols[None, :]).astype(np.float64)
    return 2.0 * (same_row + same_col)


def convexity_check(n: int) -> ConvexityReport:
    """PSD check of the loss Hessian by its exact smallest eigenvalue.

    For N >= 3 the Hessian is singular, so the floor is 0 up to rounding;
    the check passes when it is at least -RESIDUAL_TOL."""
    if n < 2:
        raise ValidationError(f"need at least 2 arms, got {n}")
    if n > CONVEXITY_MAX_N:
        raise DimensionTooLargeError(
            f"convexity check is desk-scale (N <= {CONVEXITY_MAX_N}), got {n}"
        )
    h = loss_hessian(n)
    min_eig = float(np.linalg.eigvalsh(h).min())
    return ConvexityReport(n, h.shape[0], min_eig, min_eig >= -RESIDUAL_TOL)


def optimal_satisfaction_matrix(inst: ProblemInstance) -> OptimalResult:
    """Best conflict-free matrix for a unit-total instance.

    max S <= 1 (+1e-9): zero-loss construction, no certificate.
    max S  > 1: hot-arm matrix with its KKT certificate; achieved loss
    equals N/(2(N-1)) (S_max-1)^2 to float accuracy. A certificate that
    fails raises InternalInvariantError, as a zero-loss marginal miss does.
    """
    _, s_max = _hot(inst, "optimal satisfaction matrix")
    if _zero_loss_reachable(s_max, inst.total):
        m = construct_zero_loss(inst)
        return OptimalResult(m, loss(m, inst), None, "zero-loss")
    m = min_loss_matrix(inst)
    cert = kkt_verify(inst, m)
    if not cert.valid:
        raise InternalInvariantError(
            f"hot-arm KKT certificate fails: largest residual {cert.residuals.max():.3e}"
        )
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
