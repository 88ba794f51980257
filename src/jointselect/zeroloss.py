"""Zero-loss construction: exact marginals whenever no arm is too popular.

If every popularity satisfies S_i <= T, a conflict-free matrix reproducing
both preference vectors exactly exists, by induction on the number of
arms: peel off the least popular arm K by filling its row and column,
which reduces the problem to N-1 arms with total T - S_K, and bottom out
at an explicit three-arm solution. Two arms are handled as a direct input
case only (the peel never goes below three).

`construct_zero_loss` runs that induction as one flat loop over the
original arm indices. Heaps keyed (S_i, i) and (-S_i, i), with stale
entries dropped when they surface, pick K and V with ties going to the
lowest index. Each peel writes one row and one column of (i, j, value)
cells and updates only the weights and popularities of the arms it
touched, so an N-arm instance costs O(N log N). The result is a basic
feasible solution of a transportation problem: at most 2N - 1 nonzero
entries, beyond float dust. The peeled cells and the six off-diagonal
entries of the three-arm block are sorted into row-major order and
handed to `JointSelectionMatrix` as cells, and no N x N array is formed
until its entries are read.

The induction is its own witness, so the loop re-checks none of its
steps: feasibility is checked once before it, and the answer once, as a
whole, after it. `JointSelectionMatrix` validates the cells and their
total, and the marginals (from the cells, each row with three or more
cells summed by numpy from a block of those rows alone) must match A and
B. `fill_row_col`, `reduce_instance` and `base_case_three` expose the
single steps on validated instances, each checked on its own.

The three-arm solution is a one-parameter family in p = P[0, 1]:

    [ 0              p          A_0 - p      ]
    [ T - p - A_2 - B_2   0     p - A_0 + B_2 ]
    [ p + A_2 - B_1    B_1 - p       0        ]

nonnegative exactly when p lies in
[max{0, A_0 - B_2, B_1 - A_2}, min{A_0, B_1, T - A_2 - B_2}], an interval
that is nonempty whenever all S_i <= T. We always pick the lower end.

For N >= 4 the row/column fill of arm K splits into three exhaustive cases
driven by the least popular arm K and the most popular arm V: either both
of K's preferences fit opposite V (case 1), or A_K overflows B_V and spills
across the other arms' B-weights in ascending index order (case 2), or
symmetrically B_K overflows A_V (case 3). A spill uses up every arm before
the one it cuts, so each player keeps one spill pointer: arms before it
have nothing left to give.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import (
    Cells,
    JointSelectionMatrix,
    ProblemInstance,
    Vec,
    _tol,
    validate_instance,
)
from .errors import (
    InfeasibleTwoArmError,
    InternalInvariantError,
    PopularityExceedsTotalError,
    ValidationError,
)


@dataclass(frozen=True)
class RowColFill:
    """Row and column of the peeled arm K, plus which case produced them.

    ``row_k[j]`` is the entry at (K, j) and ``col_k[i]`` the entry at (i, K);
    both are zero at position K itself. ``cut`` is the arm that received the
    partial remainder in case 2/3 fills (None for case 1).
    """

    arm_k: int
    row_k: Vec
    col_k: Vec
    case: int
    cut: int | None = None


def _require_feasible(s_max: float, total: float) -> None:
    if s_max > total + _tol(total):
        raise PopularityExceedsTotalError(
            f"max popularity {s_max:.17g} exceeds total {total:.17g}; "
            "zero loss is unattainable (use the minimum-loss construction)"
        )


def base_case_interval(inst: ProblemInstance) -> tuple[float, float]:
    """Feasible range of the free entry P[0, 1] in the three-arm solution."""
    if inst.n != 3:
        raise ValidationError(f"three-arm interval needs N=3, got {inst.n}")
    a, b, t = inst.a, inst.b, inst.total
    lo = max(0.0, a[0] - b[2], b[1] - a[2])
    hi = min(a[0], b[1], t - a[2] - b[2])
    return lo, hi


# The off-diagonal positions of a 3 x 3 matrix in row-major order.
_BASE_ROWS = (0, 0, 1, 1, 2, 2)
_BASE_COLS = (1, 2, 0, 2, 0, 1)


def _base_values(inst: ProblemInstance) -> list[float]:
    """The three-arm solution's entries at _BASE_ROWS, _BASE_COLS."""
    _require_feasible(float(inst.popularity.max()), inst.total)
    a, b, t = inst.a, inst.b, inst.total
    p, _ = base_case_interval(inst)
    vals = [p, a[0] - p, t - p - a[2] - b[2], p - a[0] + b[2], p + a[2] - b[1], b[1] - p]
    # cancellation can leave -1e-17-ish dust on entries that are exactly 0
    return [0.0 if x < 0.0 else float(x) for x in vals]


def base_case_three(inst: ProblemInstance) -> JointSelectionMatrix:
    """Explicit zero-loss matrix for three arms, free entry at its lower bound."""
    if inst.n != 3:
        raise ValidationError(f"base case needs N=3, got {inst.n}")
    vals = _base_values(inst)
    return JointSelectionMatrix(Cells(3, _BASE_ROWS, _BASE_COLS, vals), inst.total)


def _spill(w, rem: float, k: int, v: int, alive, start: int, tol: float, case: int):
    """Spend ``rem`` on the weights ``w`` of live arms other than K and V.

    Arms are taken in ascending index order from ``start``; each gives all
    its weight until one can cover what is left and takes the partial
    remainder. Returns the (arm, value) cells, that cut arm (None if the
    weights ran out first) and the budget left over (0 after a cut).
    """
    cells = []
    for j in range(start, len(w)):
        if j == k or j == v or not alive[j]:
            continue
        if rem <= w[j]:
            cells.append((j, rem))
            return cells, j, 0.0
        cells.append((j, w[j]))
        rem -= w[j]
    # feasibility guarantees the budget is consumed; anything left is
    # float dust, parked opposite V to keep the row (column) sum exact
    if rem > tol:
        raise InternalInvariantError(f"case-{case} fill left budget {rem:.3e}")
    return cells, None, rem


def _fill_cells(a, b, k: int, v: int, tol: float, alive, start_a: int, start_b: int):
    """The three fill cases, on weights indexed by arm.

    Returns (case, cut, row, col): ``row`` holds the (j, value) cells of
    entries (K, j), ``col`` the (i, value) cells of entries (i, K). Case 2
    spills over B from arm ``start_b`` on, case 3 over A from ``start_a``.
    """
    ak, bk, av, bv = a[k], b[k], a[v], b[v]
    if ak > bv:
        if bk > av:
            raise InternalInvariantError("cases 2 and 3 cannot hold together (S_K > S_V)")
        spill, cut, rem = _spill(b, ak - bv, k, v, alive, start_b, tol, 2)
        return 2, cut, [(v, bv + rem), *spill], [(v, bk)]
    if bk > av:
        spill, cut, rem = _spill(a, bk - av, k, v, alive, start_a, tol, 3)
        return 3, cut, [(v, ak)], [(v, av + rem), *spill]
    return 1, None, [(v, ak)], [(v, bk)]


def fill_row_col(inst: ProblemInstance, k: int, v: int) -> RowColFill:
    """Fill row and column of the least popular arm K against the most popular V.

    Case 1 (A_K <= B_V and B_K <= A_V): all of K's weight sits opposite V.
    Case 2 (A_K > B_V): row K takes B_V at V, then consumes B_j over the
    remaining arms in ascending index order until A_K is exhausted, with a
    partial remainder on the cut arm; column K is B_K at V.
    Case 3 (B_K > A_V): the mirror image with players swapped.
    """
    n, t = inst.n, inst.total
    s = inst.popularity
    if n < 4:
        raise ValidationError(f"row/column fill is an induction step for N >= 4, got {n}")
    if k == v:
        raise ValidationError("K and V must be distinct arms")
    tol = _tol(t)
    if s[k] > s.min() + tol or s[v] < np.delete(s, k).max() - tol:
        raise ValidationError("K must be the least popular arm and V the most popular")
    _require_feasible(float(s.max()), t)

    # At most one arm can violate S_i <= T - S_K, and only the most popular
    # one (a second violator would push the popularity sum past 2T).
    headroom = t - s[k]
    violators = [i for i in range(n) if i != k and s[i] > headroom + tol]
    if violators and violators != [v]:
        raise InternalInvariantError(
            f"popularity violators {violators} are not limited to the argmax arm {v}"
        )

    case, cut, row_cells, col_cells = _fill_cells(inst.a, inst.b, k, v, tol, [True] * n, 0, 0)
    row = np.zeros(n)
    col = np.zeros(n)
    for j, x in row_cells:
        row[j] = x
    for i, x in col_cells:
        col[i] = x
    row.setflags(write=False)
    col.setflags(write=False)
    return RowColFill(k, row, col, case, cut)


def reduce_instance(inst: ProblemInstance, fill: RowColFill) -> ProblemInstance:
    """Subtract the fill from both players and drop arm K; total shrinks by S_K."""
    k = fill.arm_k
    a_rest = np.delete(inst.a - fill.col_k, k)
    b_rest = np.delete(inst.b - fill.row_k, k)
    new_total = inst.total - float(inst.popularity[k])
    reduced = validate_instance(a_rest, b_rest, new_total)
    if reduced.popularity.max() > new_total + _tol(inst.total):
        raise InternalInvariantError(
            "reduction produced an arm more popular than the reduced total"
        )
    return reduced


def _take(w: list, cells) -> None:
    """Subtract the cells from the weights in place, clamping at 0.

    Only the float dust that a spill parks opposite V can take a weight
    below 0, and `_spill` bounds it by the tolerance.
    """
    for i, x in cells:
        new = w[i] - x
        w[i] = 0.0 if new < 0.0 else new


def _top(heap: list, sign: float, s: list, alive: list) -> int:
    """Arm at the top of a lazy popularity heap, dropping stale entries first.

    Popularities only fall, and an arm is pushed again only when its value
    changed, so an entry is current exactly when it still equals S_i.
    """
    while True:
        key, i = heap[0]
        if alive[i] and sign * key == s[i]:
            return i
        heapq.heappop(heap)


def construct_zero_loss(inst: ProblemInstance) -> JointSelectionMatrix:
    """Matrix with row sums A and column sums B; requires all S_i <= T.

    Raises PopularityExceedsTotalError when some arm is too popular, and
    InfeasibleTwoArmError for two-arm instances whose popularities are not
    both equal to the total (the only two-arm case with a zero-loss matrix).
    The answer is checked once, as a whole, not peel by peel: its cells and
    total by `JointSelectionMatrix`, then its marginals against A and B;
    a miss raises InternalInvariantError.
    """
    n, t = inst.n, inst.total
    if n == 2:
        if abs(float(inst.popularity[0]) - t) > _tol(t):
            raise InfeasibleTwoArmError(
                f"two arms admit zero loss only when S = ({t:.17g}, {t:.17g}); "
                f"got S = ({inst.popularity[0]:.17g}, {inst.popularity[1]:.17g})"
            )
        return JointSelectionMatrix(Cells(2, [0, 1], [1, 0], inst.a), t)
    _require_feasible(float(inst.popularity.max()), t)
    if n == 3:
        return base_case_three(inst)

    a, b, s = inst.a.tolist(), inst.b.tolist(), inst.popularity.tolist()
    alive = [True] * n
    low = [(x, i) for i, x in enumerate(s)]
    high = [(-x, i) for i, x in enumerate(s)]
    heapq.heapify(low)
    heapq.heapify(high)
    start_a = start_b = 0
    cells: list[tuple[int, int, float]] = []  # (i, j, P[i, j]) of every peeled row and column
    total = t
    for _ in range(n - 3):
        k = _top(low, 1.0, s, alive)
        heapq.heappop(low)
        alive[k] = False
        v = _top(high, -1.0, s, alive)
        case, cut, row, col = _fill_cells(a, b, k, v, _tol(total), alive, start_a, start_b)
        if case == 2:
            start_b = n if cut is None else cut
        elif case == 3:
            start_a = n if cut is None else cut

        cells.extend((k, j, x) for j, x in row)
        cells.extend((i, k, x) for i, x in col)
        _take(a, col)
        _take(b, row)
        for i, _ in row + col:
            popularity = a[i] + b[i]
            if popularity != s[i]:
                s[i] = popularity
                heapq.heappush(low, (popularity, i))
                heapq.heappush(high, (-popularity, i))
        total -= s[k]

    live = [i for i in range(n) if alive[i]]
    base = validate_instance([a[i] for i in live], [b[i] for i in live], total)
    # The base block goes in whole, zeros too, as the peel's cells do.
    rows = [live[i] for i in _BASE_ROWS]
    cols = [live[j] for j in _BASE_COLS]
    cells.extend(zip(rows, cols, _base_values(base)))
    cells.sort()  # row-major: positions are distinct, so values are never compared
    m = JointSelectionMatrix(Cells(n, *zip(*cells)), t)
    pi_a, pi_b = m.marginals
    miss = max(float(np.abs(pi_a - inst.a).max()), float(np.abs(pi_b - inst.b).max()))
    if miss > _tol(t):
        raise InternalInvariantError(f"assembled marginals miss the preferences by {miss:.3e}")
    return m


__all__ = [
    "RowColFill",
    "base_case_interval",
    "base_case_three",
    "construct_zero_loss",
    "fill_row_col",
    "reduce_instance",
]
