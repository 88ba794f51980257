"""Reference mechanisms the optimal construction is compared against.

Three simple ways to pick a conflict-free pair without solving anything:
ignore preferences entirely (uniform off-diagonal), renormalize the
product A_i B_j over the off-diagonal cells, or let one player draw first
and the other renormalize over what is left, averaging both orders with
probability 1/2 each.
"""

from __future__ import annotations

import numpy as np

from .core import JointSelectionMatrix, ProblemInstance, _require_unit_total
from .errors import DegenerateProductError, ValidationError

# Remaining-mass denominators at or below this are treated as exhausted and
# trigger the uniform-remainder rule in random_order.
DEGENERATE_TOL = 1e-12


def uniform_random(n: int) -> JointSelectionMatrix:
    """Every off-diagonal cell 1/(N(N-1)): preferences play no role."""
    if n < 2:
        raise ValidationError(f"need at least 2 arms, got {n}")
    entries = np.full((n, n), 1.0 / (n * (n - 1)))
    np.fill_diagonal(entries, 0.0)
    entries.setflags(write=False)
    return JointSelectionMatrix(entries, 1.0)


def simultaneous_renormalization(inst: ProblemInstance) -> JointSelectionMatrix:
    """p_{i,j} proportional to A_i B_j over the off-diagonal cells.

    Raises DegenerateProductError when every off-diagonal product vanishes
    (both players deterministic on the same arm); callers may fall back to
    uniform_random, but never silently.
    """
    products = np.outer(inst.a, inst.b)
    np.fill_diagonal(products, 0.0)
    denom = float(products.sum())
    if denom <= DEGENERATE_TOL:
        raise DegenerateProductError(
            "all off-diagonal preference products vanish; renormalization undefined"
        )
    products /= denom
    products.setflags(write=False)
    return JointSelectionMatrix(products, 1.0)


def random_order(inst: ProblemInstance) -> JointSelectionMatrix:
    """Average of the two draw orders, each renormalizing the second player.

    p_{i,j} = 1/2 [ A_i B_j/(1-B_i) + B_j A_i/(1-A_j) ]. When the first
    draw leaves the second player with zero remaining mass (their whole
    preference sat on the drawn arm), the second player picks uniformly
    among the remaining N-1 arms; `random_order_degeneracies` reports
    where that rule fired.
    """
    _require_unit_total(inst.total, "random order")
    n = inst.n
    a, b = inst.a, inst.b
    first_a = np.empty((n, n))
    for i in range(n):
        rest = 1.0 - b[i]
        first_a[i, :] = b / rest if rest > DEGENERATE_TOL else 1.0 / (n - 1)
    first_a *= a[:, None]

    first_b = np.empty((n, n))
    for j in range(n):
        rest = 1.0 - a[j]
        first_b[:, j] = a / rest if rest > DEGENERATE_TOL else 1.0 / (n - 1)
    first_b *= b[None, :]

    entries = 0.5 * (first_a + first_b)
    np.fill_diagonal(entries, 0.0)
    entries.setflags(write=False)
    return JointSelectionMatrix(entries, 1.0)


def random_order_degeneracies(inst: ProblemInstance) -> tuple[tuple[str, int], ...]:
    """Arms where the uniform-remainder rule shaped the random_order matrix.

    Each item is (first_player, arm): ("a", i) means player A draws arm i
    with positive probability while B's entire preference sits on arm i.
    Empty for every instance the mechanism's formula covers directly.
    """
    hits: list[tuple[str, int]] = []
    for i in range(inst.n):
        if inst.a[i] > 0.0 and 1.0 - inst.b[i] <= DEGENERATE_TOL:
            hits.append(("a", i))
        if inst.b[i] > 0.0 and 1.0 - inst.a[i] <= DEGENERATE_TOL:
            hits.append(("b", i))
    return tuple(hits)


__all__ = [
    "DEGENERATE_TOL",
    "random_order",
    "random_order_degeneracies",
    "simultaneous_renormalization",
    "uniform_random",
]
