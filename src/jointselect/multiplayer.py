"""M-player generalization: joint tensors, popularity, and feasibility.

With M >= 2 players sharing N arms, a conflict-free joint selection is a
probability distribution over M-tuples of pairwise-distinct arms, stored
sparsely since that support is factorially smaller than the dense tensor.
Player x's satisfied preference pi_x(i) sums the entries whose x-th
component is i, and the loss is the squared mismatch summed over players.

Popularity generalizes to S_i = sum over players of their weight on arm i.
If any S_i > 1, zero loss is impossible (each unit of probability feeds
arm i through at most one player, so the satisfied popularity of any arm
is at most 1). The converse is proven only for M = 2; for M >= 3 it is an
open conjecture, and the feasibility verdict says "conjectured" rather
than overclaiming. `solve_multi_min_loss` runs the package's one
projected-gradient loop (`oracle.descend`) over the tuple simplex to gather
empirical evidence at desk scale; at M = 2 it is the two-player oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import permutations
from types import MappingProxyType
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .core import ENTRY_CLAMP, SUM_RTOL, JointSelectionMatrix, Vec, _clean_weights, _floats
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NonDistinctKeyError,
    TooFewArmsError,
    TotalMismatchError,
    ValidationError,
)
from .oracle import descend

MAX_ARMS = 8
MAX_PLAYERS = 4


class Feasibility(str, Enum):
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"
    CONJECTURED_FEASIBLE = "conjectured-feasible"


@dataclass(frozen=True, eq=False)
class MultiPreferences:
    """M x N preference weights, one unit-sum row per player.

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
        w = _clean_weights(w, "multi-player weights")
        sums = w.sum(axis=1)
        bad = np.abs(sums - 1.0) > SUM_RTOL
        if np.any(bad):
            x = int(np.argmax(bad))
            raise TotalMismatchError(f"player {x} weights sum to {sums[x]:.17g}, need 1")
        pop = w.sum(axis=0)
        pop.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "popularity", pop)

    @property
    def n_players(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_arms(self) -> int:
        return int(self.weights.shape[1])


def validate_multi(rows) -> MultiPreferences:
    """Build validated multi-player preferences from an M x N array-like."""
    return MultiPreferences(rows)


@dataclass(frozen=True)
class JointTensorSparse:
    """Sparse joint distribution over M-tuples of pairwise-distinct arms."""

    entries: Mapping[tuple[int, ...], float]
    n_arms: int
    n_players: int

    def __post_init__(self) -> None:
        clean: dict[tuple[int, ...], float] = {}
        total = 0.0
        for key, value in self.entries.items():
            key = tuple(int(c) for c in key)
            if len(key) != self.n_players:
                raise ValidationError(
                    f"key {key} has {len(key)} components, need {self.n_players}"
                )
            if any(c < 0 or c >= self.n_arms for c in key):
                raise ValidationError(f"key {key} has arm indices outside 0..{self.n_arms - 1}")
            if len(set(key)) != len(key):
                raise NonDistinctKeyError(
                    f"key {key} repeats an arm: joint selections must be conflict-free"
                )
            v = float(value)
            if v < -ENTRY_CLAMP:
                raise ValidationError(f"entry {key} is negative: {v:.3e}")
            v = max(v, 0.0)
            clean[key] = v
            total += v
        if abs(total - 1.0) > SUM_RTOL:
            raise TotalMismatchError(f"tensor entries sum to {total:.17g}, need 1")
        object.__setattr__(self, "entries", MappingProxyType(clean))


def tensor_from_matrix(m: JointSelectionMatrix) -> JointTensorSparse:
    """Two-player bridge: a joint selection matrix as a sparse tensor.

    The tensor's entries are the matrix's cells, its nonzero off-diagonal
    entries in row-major order.
    """
    entries = dict(zip(zip(m.rows.tolist(), m.cols.tolist()), m.vals.tolist()))
    return JointTensorSparse(entries, m.n, 2)


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
    if float(prefs.popularity.max()) > 1.0 + SUM_RTOL:
        return Feasibility.INFEASIBLE
    if prefs.n_players == 2:
        return Feasibility.FEASIBLE
    return Feasibility.CONJECTURED_FEASIBLE


def _check_desk_scale(prefs: MultiPreferences) -> None:
    if prefs.n_arms > MAX_ARMS or prefs.n_players > MAX_PLAYERS:
        raise DimensionTooLargeError(
            f"desk scale is N <= {MAX_ARMS}, M <= {MAX_PLAYERS}; "
            f"got N={prefs.n_arms}, M={prefs.n_players}"
        )


def tensor_marginals(prefs: MultiPreferences, tensor: JointTensorSparse) -> NDArray[np.float64]:
    """Satisfied preferences: pi[x, i] sums entries whose x-th component is i."""
    if tensor.n_arms != prefs.n_arms or tensor.n_players != prefs.n_players:
        raise DimensionMismatchError(
            f"tensor is {tensor.n_players} players x {tensor.n_arms} arms, "
            f"preferences are {prefs.n_players} x {prefs.n_arms}"
        )
    pi = np.zeros((prefs.n_players, prefs.n_arms))
    for key, value in tensor.entries.items():
        for x, arm in enumerate(key):
            pi[x, arm] += value
    return pi


def multi_loss(prefs: MultiPreferences, tensor: JointTensorSparse) -> float:
    """Sum over players of the squared marginal mismatch."""
    _check_desk_scale(prefs)
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
    _check_desk_scale(prefs)
    m, n = prefs.n_players, prefs.n_arms
    if n < m:
        raise TooFewArmsError(f"{m} players need at least {m} arms, got {n}")
    coords = list(permutations(range(n), m))
    p, iterations, gap = descend(np.array(coords, dtype=np.intp), prefs.weights, tol, max_iter)
    tensor = JointTensorSparse(
        {coord: float(v) for coord, v in zip(coords, p)}, n, m
    )
    return MultiOracleResult(
        tensor, multi_loss(prefs, tensor), iterations, gap, gap <= tol
    )


__all__ = [
    "Feasibility",
    "JointTensorSparse",
    "MAX_ARMS",
    "MAX_PLAYERS",
    "MultiOracleResult",
    "MultiPreferences",
    "feasibility_verdict",
    "multi_loss",
    "solve_multi_min_loss",
    "tensor_from_matrix",
    "tensor_marginals",
    "validate_multi",
]
