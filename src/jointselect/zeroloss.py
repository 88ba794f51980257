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
touched, so an N-arm instance costs O(N log N) outside the final dense
scatter. The result is a basic feasible solution of a transportation
problem: at most 2N - 1 nonzero entries. Row and column marginals are
checked once, at the end. `fill_row_col`, `reduce_instance` and
`base_case_three` expose the single steps on validated instances.

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
    ENTRY_CLAMP,
    JointSelectionMatrix,
    ProblemInstance,
    Vec,
    _tol,
    validate_instance,
)
from .errors import (
    CaseDispatchError,
    InfeasibleTwoArmError,
    InternalInvariantError,
    NegativeWeightError,
    PopularityExceedsTotalError,
    TotalMismatchError,
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


def base_case_three(inst: ProblemInstance) -> JointSelectionMatrix:
    """Explicit zero-loss matrix for three arms, free entry at its lower bound."""
    if inst.n != 3:
        raise ValidationError(f"base case needs N=3, got {inst.n}")
    _require_feasible(float(inst.popularity.max()), inst.total)
    a, b, t = inst.a, inst.b, inst.total
    p, _ = base_case_interval(inst)
    entries = np.array(
        [
            [0.0, p, a[0] - p],
            [t - p - a[2] - b[2], 0.0, p - a[0] + b[2]],
            [p + a[2] - b[1], b[1] - p, 0.0],
        ]
    )
    # cancellation can leave -1e-17-ish dust on entries that are exactly 0
    entries[entries < 0.0] = 0.0
    np.fill_diagonal(entries, 0.0)
    return JointSelectionMatrix(entries, t)


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
    case_one = ak <= bv and bk <= av
    case_two = ak > bv
    case_three = bk > av
    if case_two and case_three:
        raise InternalInvariantError("cases 2 and 3 cannot hold together (S_K > S_V)")
    if not (case_one or case_two or case_three):
        raise CaseDispatchError(f"no fill case applies at K={k}, V={v}")
    if case_one:
        return 1, None, [(v, ak)], [(v, bk)]
    if case_two:
        spill, cut, rem = _spill(b, ak - bv, k, v, alive, start_b, tol, 2)
        return 2, cut, [(v, bv + rem), *spill], [(v, bk)]
    spill, cut, rem = _spill(a, bk - av, k, v, alive, start_a, tol, 3)
    return 3, cut, [(v, ak)], [(v, av + rem), *spill]


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


def _take(w: list, cells, total: float, w_sum: float) -> float:
    """Subtract the cells from the weights in place; returns their new sum.

    The same checks a reduced instance passes: entries below -1e-12 are an
    error, smaller negatives clamp to 0, and the weights must still sum to
    the reduced total.
    """
    for i, x in cells:
        old = w[i]
        new = old - x
        if new < -ENTRY_CLAMP:
            raise NegativeWeightError(
                f"preference weights has negative entries beyond the {-ENTRY_CLAMP:g} "
                f"clamp: min = {new:.3e}"
            )
        if new < 0.0:
            new = 0.0
        w[i] = new
        w_sum += new - old
    if abs(w_sum - total) > _tol(total):
        raise TotalMismatchError(
            f"weights sum to {w_sum:.17g}, declared total is {total:.17g}"
        )
    return w_sum


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


def _runner_up(high: list, s: list, alive: list) -> float:
    """Second-highest live popularity, for a max-heap whose top is current."""
    top = heapq.heappop(high)
    second = s[_top(high, -1.0, s, alive)]
    heapq.heappush(high, top)
    return second


def construct_zero_loss(inst: ProblemInstance) -> JointSelectionMatrix:
    """Matrix with row sums A and column sums B; requires all S_i <= T.

    Raises PopularityExceedsTotalError when some arm is too popular, and
    InfeasibleTwoArmError for two-arm instances whose popularities are not
    both equal to the total (the only two-arm case with a zero-loss matrix).
    """
    n, t = inst.n, inst.total
    if n == 2:
        if abs(float(inst.popularity[0]) - t) > _tol(t):
            raise InfeasibleTwoArmError(
                f"two arms admit zero loss only when S = ({t:.17g}, {t:.17g}); "
                f"got S = ({inst.popularity[0]:.17g}, {inst.popularity[1]:.17g})"
            )
        return JointSelectionMatrix(np.array([[0.0, inst.a[0]], [inst.a[1], 0.0]]), t)
    _require_feasible(float(inst.popularity.max()), t)
    if n == 3:
        return base_case_three(inst)

    a, b, s = inst.a.tolist(), inst.b.tolist(), inst.popularity.tolist()
    alive = [True] * n
    low = [(x, i) for i, x in enumerate(s)]
    high = [(-x, i) for i, x in enumerate(s)]
    heapq.heapify(low)
    heapq.heapify(high)
    sum_a, sum_b = float(inst.a.sum()), float(inst.b.sum())
    start_a = start_b = 0
    cells: list[tuple[int, int, float]] = []  # (i, j, P[i, j]) of every peeled row and column
    total = t
    for _ in range(n - 3):
        tol = _tol(total)
        k = _top(low, 1.0, s, alive)
        heapq.heappop(low)
        alive[k] = False
        v = _top(high, -1.0, s, alive)
        _require_feasible(s[v], total)

        # At most one arm can violate S_i <= T - S_K, and only the most
        # popular one (a second violator would push the sum past 2T).
        headroom = total - s[k]
        if s[v] > headroom + tol and _runner_up(high, s, alive) > headroom + tol:
            violators = [i for i in range(n) if alive[i] and s[i] > headroom + tol]
            raise InternalInvariantError(
                f"popularity violators {violators} are not limited to the argmax arm {v}"
            )

        case, cut, row, col = _fill_cells(a, b, k, v, tol, alive, start_a, start_b)
        if case == 2:
            start_b = n if cut is None else cut
        elif case == 3:
            start_a = n if cut is None else cut

        cells.extend((k, j, x) for j, x in row)
        cells.extend((i, k, x) for i, x in col)
        new_total = total - s[k]
        sum_a = _take(a, col, new_total, sum_a - a[k])
        sum_b = _take(b, row, new_total, sum_b - b[k])
        for i, _ in row + col:
            popularity = a[i] + b[i]
            if popularity != s[i]:
                s[i] = popularity
                heapq.heappush(low, (popularity, i))
                heapq.heappush(high, (-popularity, i))
        if s[_top(high, -1.0, s, alive)] > new_total + tol:
            raise InternalInvariantError(
                "reduction produced an arm more popular than the reduced total"
            )
        total = new_total

    live = [i for i in range(n) if alive[i]]
    base = base_case_three(validate_instance([a[i] for i in live], [b[i] for i in live], total))
    entries = np.zeros((n, n))
    rows, cols, vals = zip(*cells)
    entries[rows, cols] = vals
    entries[np.ix_(live, live)] = base.entries
    miss = max(
        float(np.abs(entries.sum(axis=1) - inst.a).max()),
        float(np.abs(entries.sum(axis=0) - inst.b).max()),
    )
    if miss > _tol(t):
        raise InternalInvariantError(f"assembled marginals miss the preferences by {miss:.3e}")
    return JointSelectionMatrix(entries, t)


__all__ = [
    "RowColFill",
    "base_case_interval",
    "base_case_three",
    "construct_zero_loss",
    "fill_row_col",
    "reduce_instance",
]
