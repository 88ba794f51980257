"""Core types and operations for two-player conflict-free joint selection.

Two players share N arms. Player A wants to play arm i with probability
A_i, player B with probability B_j; a coordinator draws the pair (i, j)
from a joint selection matrix P with zero diagonal, so the players never
collide. The row sums of P are the preferences actually granted to A,
the column sums those granted to B:

    pi_A(i) = sum_j P[i, j],      pi_B(j) = sum_i P[i, j]

and the quality of a matrix is the squared mismatch

    L(P) = sum_i (pi_A(i) - A_i)^2 + sum_j (pi_B(j) - B_j)^2.

The popularity of arm i is S_i = A_i + B_i; since both preference vectors
sum to the total T, popularities always sum to 2T. Whether zero loss is
achievable depends only on whether any arm has S_i > T.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatchError,
    LengthMismatchError,
    NegativeWeightError,
    TotalMismatchError,
    TotalNotOneError,
    ValidationError,
)

Vec = NDArray[np.float64]
Mat = NDArray[np.float64]

# Entries this far below zero are treated as floating-point noise and
# clamped; anything more negative is a hard validation error.
ENTRY_CLAMP = 1e-12

# Sums (of weights, of matrix entries) must match their declared totals to
# this relative tolerance, floored at the same absolute value so that
# reduced sub-instances with tiny totals do not reject honest float noise.
SUM_RTOL = 1e-9

# sample_joint draws its uniforms this many at a time, so its working
# memory stays the same however many draws are asked for.
SAMPLE_CHUNK = 1 << 18


def _tol(total: float) -> float:
    return SUM_RTOL * max(1.0, abs(total))


def _clean_weights(w: NDArray[np.float64], what: str) -> Vec:
    """The value checks every weight array passes; callers check its shape.

    Values must be finite and no lower than -1e-12; what remains below zero
    (including -0.0) is clamped to +0.0. The result is read-only.
    """
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"{what} contains non-finite values")
    if np.any(w < -ENTRY_CLAMP):
        raise NegativeWeightError(
            f"{what} has negative entries beyond the {-ENTRY_CLAMP:g} clamp: "
            f"min = {w.min():.3e}"
        )
    w = np.where(w <= 0.0, 0.0, w)
    w.setflags(write=False)
    return w


def _require_unit_total(total: float, what: str) -> None:
    if abs(total - 1.0) > SUM_RTOL:
        raise TotalNotOneError(f"{what} needs total = 1, got {total:.17g}")


# --------------------------------------------------------------------------
# value types
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Two players' desired selection probabilities over the same N >= 2 arms.

    Weights are nonnegative (tiny negatives within -1e-12 are clamped to 0)
    and each vector sums to ``total`` within 1e-9 relative tolerance.
    ``total`` is 1 for user-facing instances; reduced sub-instances carry
    smaller totals. ``popularity`` is S = A + B, computed here.
    ``==`` and ``hash`` go by identity, as the fields are arrays.
    """

    a: Vec
    b: Vec
    total: float = 1.0
    popularity: Vec = field(init=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.shape != b.shape:
            raise LengthMismatchError(f"preference lengths differ: {a.shape} vs {b.shape}")
        if a.ndim != 1:
            raise ValidationError(
                f"preference weights must be a 1-D vector, got shape {a.shape}"
            )
        if a.size < 2:
            raise ValidationError(f"preference weights needs at least 2 arms, got {a.size}")
        for name, w in (("a", a), ("b", b)):
            w = _clean_weights(w, "preference weights")
            if self.total < -ENTRY_CLAMP:
                raise ValidationError(f"total must be nonnegative, got {self.total}")
            if abs(float(w.sum()) - self.total) > _tol(self.total):
                raise TotalMismatchError(
                    f"weights sum to {w.sum():.17g}, declared total is {self.total:.17g}"
                )
            object.__setattr__(self, name, w)
        s = self.a + self.b
        s.setflags(write=False)
        object.__setattr__(self, "total", float(self.total))
        object.__setattr__(self, "popularity", s)

    @property
    def n(self) -> int:
        return int(self.a.size)


def validate_instance(a, b, total: float = 1.0) -> ProblemInstance:
    """Build a validated instance from raw weight vectors.

    Raises LengthMismatchError / NegativeWeightError / TotalMismatchError
    on bad input. Popularity S = A + B is computed here; its entries sum
    to 2 * total by construction.
    """
    return ProblemInstance(a, b, total)


@dataclass(frozen=True, eq=False)
class JointSelectionMatrix:
    """An N x N joint selection probability matrix with zero diagonal.

    Entries are nonnegative (clamped within -1e-12) and sum to ``total``
    within 1e-9 relative tolerance. Entry (i, j) is the probability that
    player A is assigned arm i while player B is assigned arm j; the zero
    diagonal is what makes the assignment conflict-free. The matrix keeps
    a private read-only copy of the entries; ``==`` and ``hash`` go by
    identity.
    """

    entries: Mat
    total: float = 1.0

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {e.shape}")
        if e.shape[0] < 2:
            raise ValidationError("matrix needs at least 2 arms")
        lo, hi = float(e.min()), float(e.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValidationError("matrix contains non-finite entries")
        if lo < -ENTRY_CLAMP:
            raise ValidationError(
                f"matrix entries below the {-ENTRY_CLAMP:g} clamp: min = {lo:.3e}"
            )
        if lo < 0.0:
            e[e < 0.0] = 0.0
        if np.any(np.diagonal(e) != 0.0):
            raise ValidationError("diagonal entries must be exactly 0 (conflict-freedom)")
        entry_sum = float(e.sum())
        if abs(entry_sum - self.total) > _tol(self.total):
            raise TotalMismatchError(
                f"entries sum to {entry_sum:.17g}, declared total is {self.total:.17g}"
            )
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "total", float(self.total))

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class SatisfiedPreferences:
    """Marginals of a joint selection matrix: pi_a = row sums, pi_b = column sums."""

    pi_a: Vec
    pi_b: Vec


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def satisfied_preferences(m: JointSelectionMatrix) -> SatisfiedPreferences:
    """Row and column sums of the matrix: the preferences each player actually gets."""
    return SatisfiedPreferences(m.entries.sum(axis=1), m.entries.sum(axis=0))


def _check_dims(m: JointSelectionMatrix, inst: ProblemInstance) -> None:
    if m.n != inst.n:
        raise DimensionMismatchError(f"matrix has {m.n} arms, instance has {inst.n}")


def loss(m: JointSelectionMatrix, inst: ProblemInstance) -> float:
    """Squared mismatch between satisfied and desired preferences.

    L = sum_i (pi_A(i) - A_i)^2 + sum_j (pi_B(j) - B_j)^2 >= 0, and L = 0
    exactly when the matrix reproduces both preference vectors.
    """
    _check_dims(m, inst)
    sp = satisfied_preferences(m)
    ga = sp.pi_a - inst.a
    gb = sp.pi_b - inst.b
    return float(ga @ ga + gb @ gb)


def _gradient_terms(m: JointSelectionMatrix, inst: ProblemInstance) -> tuple[Vec, Vec]:
    """The row and column parts of the loss gradient: 2 (pi_A - A), 2 (pi_B - B).

    dL/dP[i, j] is their sum ga[i] + gb[j]; this is the O(N) form of it.
    """
    _check_dims(m, inst)
    sp = satisfied_preferences(m)
    return 2.0 * (sp.pi_a - inst.a), 2.0 * (sp.pi_b - inst.b)


def loss_gradient(m: JointSelectionMatrix, inst: ProblemInstance) -> Mat:
    """Gradient of the loss in the off-diagonal entries.

    dL/dP[i, j] = 2 (pi_A(i) - A_i) + 2 (pi_B(j) - B_j) for i != j; the
    diagonal is not a decision variable and is reported as 0.
    """
    ga, gb = _gradient_terms(m, inst)
    g = ga[:, None] + gb[None, :]
    np.fill_diagonal(g, 0.0)
    return g


def sample_joint(m: JointSelectionMatrix, seed: int, draws: int) -> NDArray[np.int64]:
    """Draw arm pairs from the matrix; returns an N x N count matrix.

    Sampling is inverse-CDF over the off-diagonal entries flattened in
    row-major order, driven by numpy's PCG64 generator, so identical
    (matrix, seed, draws) triples reproduce identical counts. Uniforms are
    drawn SAMPLE_CHUNK at a time, which continues the same stream, so the
    counts equal a one-shot draw while memory stays O(N^2 + SAMPLE_CHUNK).
    Requires a unit total; the diagonal of the result is always 0.
    """
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    _require_unit_total(m.total, "sampling")
    n = m.n
    off = ~np.eye(n, dtype=bool)
    weights = m.entries[off]
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    picked = np.zeros(weights.size, dtype=np.int64)
    for start in range(0, draws, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, draws - start))
        picked += np.bincount(np.searchsorted(cdf, u, side="right"), minlength=weights.size)
    counts = np.zeros((n, n), dtype=np.int64)
    counts[off] = picked
    return counts


# --------------------------------------------------------------------------
# external formats
# --------------------------------------------------------------------------

def instance_from_json(obj: dict) -> ProblemInstance:
    """Parse the preference input format {"a": [...], "b": [...], "total": 1.0}."""
    if not isinstance(obj, dict):
        raise ValidationError("preference input must be a JSON object")
    for key in ("a", "b"):
        if key not in obj:
            raise ValidationError(f'preference input is missing key "{key}"')
    total = obj.get("total", 1.0)
    if not isinstance(total, (int, float)) or isinstance(total, bool):
        raise ValidationError('"total" must be a number')
    return validate_instance(obj["a"], obj["b"], float(total))


def instance_to_json(inst: ProblemInstance) -> dict:
    return {"a": inst.a.tolist(), "b": inst.b.tolist(), "total": inst.total}


def matrix_to_json(m: JointSelectionMatrix) -> dict:
    """Matrix output format: {"n": N, "total": t, "entries": row-major N*N reals}."""
    return {"n": m.n, "total": m.total, "entries": m.entries.ravel().tolist()}


def matrix_from_json(obj: dict) -> JointSelectionMatrix:
    """Inverse of matrix_to_json; extra keys are ignored so enriched outputs round-trip."""
    if not isinstance(obj, dict):
        raise ValidationError("matrix input must be a JSON object")
    for key in ("n", "entries"):
        if key not in obj:
            raise ValidationError(f'matrix input is missing key "{key}"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValidationError(f'"n" must be an integer >= 2, got {n!r}')
    entries = np.asarray(obj["entries"], dtype=np.float64)
    if entries.size != n * n:
        raise ValidationError(
            f'"entries" must hold n*n = {n * n} reals, got {entries.size}'
        )
    total = obj.get("total", 1.0)
    return JointSelectionMatrix(entries.reshape(n, n), float(total))


def matrix_to_csv(m: JointSelectionMatrix) -> str:
    """N rows of N comma-separated entries; diagonal prints as 0."""
    return "\n".join(",".join(repr(x) for x in row) for row in m.entries.tolist()) + "\n"


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2)
