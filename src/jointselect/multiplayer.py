"""M-player generalization: joint tensors, popularity, and feasibility.

With M >= 2 players on N arms, a conflict-free joint selection is a
distribution over M-tuples of pairwise-distinct arms, stored as tuple
arrays (`JointTensorSparse`). Player x's satisfied preference pi_x(i) sums
the values whose x-th arm is i, one bincount per player; the loss is the
squared mismatch summed over players.

Each player's row is checked, and scaled, as a two-player instance's
weights are. Popularity is S_i = sum over players of their weight on
arm i. If some S_i > 1, zero loss is impossible for every M (each unit
of probability feeds arm i through at most one player). The converse is
proven only for M = 2, so for M >= 3 the verdict says "conjectured".
The verdict reads the one zero-loss decision that the two-player dispatch
reads, `core._zero_loss_reachable` (S <= 1 up to 1e-9), so at M = 2 it is
"feasible" exactly when the dispatch takes the zero-loss branch.
`solve_multi_min_loss` runs the package's projected-gradient loop
(`oracle.descend`) over the tuple simplex, up to `oracle.MAX_TUPLES`
tuples; at M = 2 it is the two-player oracle. The loss and marginals
work at any size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .core import (SUM_RTOL, JointSelectionMatrix, Vec, _clean_weights, _floats, _positions,
                   _sum, _weight_rows, _zero_loss_reachable)
from .errors import (
    DimensionMismatchError,
    NonDistinctKeyError,
    TooFewArmsError,
    TotalMismatchError,
    ValidationError,
)
from .oracle import _tuples, descend


class Feasibility(str, Enum):
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"
    CONJECTURED_FEASIBLE = "conjectured-feasible"


@dataclass(frozen=True, eq=False)
class MultiPreferences:
    """M x N preference weights, one unit-sum row per player, checked (a row
    1e-12 to 1e-9 off scaled to 1) by the rule `ProblemInstance` applies.
    ``==`` and ``hash`` go by identity, as the fields are arrays.
    """

    weights: NDArray[np.float64]
    popularity: Vec = field(init=False)

    def __post_init__(self) -> None:
        w = _floats(self.weights, "multi-player weights")
        if w.ndim != 2:
            raise ValidationError(f"multi-player weights must be M x N, got shape {w.shape}")
        m, n = w.shape
        if m < 2:
            raise ValidationError(f"need at least 2 players, got {m}")
        if n < 2:
            raise ValidationError(f"need at least 2 arms, got {n}")
        w, _, pop = _weight_rows(w, 1.0, "multi-player weights")
        vars(self).update(weights=w, popularity=pop)

    @property
    def n_players(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_arms(self) -> int:
        return int(self.weights.shape[1])


def validate_multi(rows) -> MultiPreferences:
    """Build validated multi-player preferences from an M x N array-like."""
    return MultiPreferences(rows)


def _dimension(x, what: str) -> int:
    """A tensor dimension: an int (not a bool) of at least 2."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValidationError(f"number of {what} must be an integer, got {x!r}")
    if x < 2:
        raise ValidationError(f"need at least 2 {what}, got {x}")
    return int(x)


@dataclass(frozen=True, eq=False, init=False)
class JointTensorSparse:
    """A distribution over M-tuples of pairwise-distinct arms, as tuple arrays.

    Built from a ``{tuple: value}`` mapping or an ``(arms, vals)`` pair, kept
    read-only in that order: ``arms`` K x M intp, ``vals`` K floats. Tuples
    are distinct, with no arm twice (NonDistinctKeyError); values pass the
    weight checks, sum to 1. ``n_arms`` and ``n_players`` are ints of at
    least 2. ``entries`` is a mapping view; ``==`` is ``is``.
    """

    arms: NDArray[np.intp] = field(repr=False)
    vals: Vec = field(repr=False)
    n_arms: int
    n_players: int

    def __init__(self, entries, n_arms: int, n_players: int) -> None:
        n_arms, n_players = _dimension(n_arms, "arms"), _dimension(n_players, "players")
        if isinstance(entries, Mapping):
            entries = list(entries), list(entries.values())
        arms, vals = entries
        vals = _floats(vals, "tensor values")
        if not vals.size:  # the value checks need a value
            raise TotalMismatchError("tensor entries sum to 0, need 1")
        try:
            arms = np.asarray(arms)
        except ValueError:  # keys of different lengths, which fail the shape check
            arms = np.zeros(0, np.intp)
        arms = _positions(arms, n_arms)
        if vals.ndim != 1 or arms.shape != (vals.size, n_players):
            raise ValidationError(f"tensor needs one {n_players}-tuple of arms per value")
        repeats = (np.diff(np.sort(arms, axis=1), axis=1) == 0).any(axis=1)
        if repeats.any():
            raise NonDistinctKeyError(f"key {arms[repeats.argmax()].tolist()} repeats an arm")
        if len(np.unique(arms, axis=0)) < len(arms):
            raise ValidationError("tensor keys must be distinct")
        vals, hi = _clean_weights(vals, "tensor values")
        total = float(_sum(vals, hi))
        if abs(total - 1.0) > SUM_RTOL:
            raise TotalMismatchError(f"tensor entries sum to {total:.17g}, need 1")
        arms.setflags(write=False)
        vars(self).update(arms=arms, vals=vals, n_arms=n_arms, n_players=n_players)

    @cached_property
    def entries(self) -> Mapping[tuple[int, ...], float]:
        """The ``{tuple: value}`` mapping, read-only, in the order given."""
        return MappingProxyType(dict(zip(map(tuple, self.arms.tolist()), self.vals.tolist())))


def tensor_from_matrix(m: JointSelectionMatrix) -> JointTensorSparse:
    """Two-player bridge: the matrix's cells, in row-major order, as a tensor."""
    return JointTensorSparse((np.column_stack((m.rows, m.cols)), m.vals), m.n, 2)


def feasibility_verdict(prefs: MultiPreferences) -> Feasibility:
    """Can the loss be driven to zero?

    Infeasible when some popularity exceeds 1 (proven for every M);
    Feasible when M = 2 and none does (proven constructively);
    ConjecturedFeasible when M >= 3 and none does (stated but unproven —
    the verdict deliberately does not overclaim).
    """
    if prefs.n_arms < prefs.n_players:
        raise TooFewArmsError(
            f"{prefs.n_players} players need at least that many arms, got {prefs.n_arms}"
        )
    if not _zero_loss_reachable(float(prefs.popularity.max()), 1.0):
        return Feasibility.INFEASIBLE
    if prefs.n_players == 2:
        return Feasibility.FEASIBLE
    return Feasibility.CONJECTURED_FEASIBLE


def tensor_marginals(prefs: MultiPreferences, tensor: JointTensorSparse) -> NDArray[np.float64]:
    """Satisfied preferences: pi[x, i] sums entries whose x-th component is i."""
    if tensor.n_arms != prefs.n_arms or tensor.n_players != prefs.n_players:
        raise DimensionMismatchError(
            f"tensor is {tensor.n_players} players x {tensor.n_arms} arms, "
            f"preferences are {prefs.n_players} x {prefs.n_arms}"
        )
    # bincount adds the values in entry order, as a loop over the entries would
    return np.array([np.bincount(arms, tensor.vals, prefs.n_arms) for arms in tensor.arms.T])


def multi_loss(prefs: MultiPreferences, tensor: JointTensorSparse) -> float:
    """Sum over players of the squared marginal mismatch."""
    pi = tensor_marginals(prefs, tensor)
    gaps = pi - prefs.weights
    return float((gaps * gaps).sum())


@dataclass(frozen=True)
class MultiOracleResult:
    tensor: JointTensorSparse
    loss: float
    iterations: int
    gradient_mapping_norm: float
    converged: bool


def solve_multi_min_loss(
    prefs: MultiPreferences, tol: float = 1e-10, max_iter: int = 200_000
) -> MultiOracleResult:
    """Projected gradient descent over the full tuple simplex (`oracle.descend`).

    Variables are all N (N-1) ... (N-M+1) distinct-component tuples in
    lexicographic order, and the step is 1/(2 M perm(N-1, M-1)). At M = 2
    this is exactly `oracle.solve_min_loss`: the same coordinates, the step
    1/(4(N-1)), and the same iterates.
    """
    m, n = prefs.n_players, prefs.n_arms
    if n < m:
        raise TooFewArmsError(f"{m} players need at least {m} arms, got {n}")
    coords = _tuples(n, m)
    p, iterations, gap = descend(coords, prefs.weights, tol, max_iter)
    tensor = JointTensorSparse((coords, p), n, m)
    return MultiOracleResult(tensor, multi_loss(prefs, tensor), iterations, gap, gap <= tol)


__all__ = [
    "Feasibility",
    "JointTensorSparse",
    "MultiOracleResult",
    "MultiPreferences",
    "feasibility_verdict",
    "multi_loss",
    "solve_multi_min_loss",
    "tensor_from_matrix",
    "tensor_marginals",
    "validate_multi",
]
