"""Zero-loss construction: exact marginals whenever no arm is too popular.

If every popularity satisfies S_i <= T, a conflict-free matrix reproducing
both preference vectors exactly exists, by induction on the number of
arms: peel off the least popular arm K by filling its row and column,
which reduces the problem to N-1 arms with total T - S_K, and bottom out
at an explicit three-arm solution. Two arms have S_0 = S_1 = T as their
only zero-loss case, and the matrix there is its two cells (0, 1) = A_0
and (1, 0) = A_1; they read the same decision, band rule and final check
as any N (the peel never goes below three).

`construct_zero_loss` runs that induction as one flat loop over the
original arm indices, on Python floats and ints. A heap keyed (S_i, i),
stale entries dropped when they surface, picks K; a heap keyed (-S_i, i),
one entry per live arm lowered in place when it surfaces stale, picks V.
Ties go to the lowest index. Each peel is one call of `_fill`, the one
home of the three fill cases: it writes row and column K as flat keys
i * N + j beside their values and takes each value off the weight it
fills in the same pass. Only V and the arms a spill passed are re-keyed,
so an N-arm instance costs O(N log N). The result is a basic feasible
solution of a transportation problem: at most 2N - 1 nonzero entries,
beyond float dust. The last three arms' block is solved from their six
weights, with the checks and scaling an instance of them would get but
without building one, so a call validates only the instance it is
given. The nonzero cells of the peel and of that block are sorted once,
by key, into row-major order and handed over; no N x N array is formed
until the entries are read.

Whether zero loss is in reach is one decision, `core._zero_loss_reachable`
(S_max <= T up to the sums' 1e-9 tolerance), which the dispatch and the
feasibility verdict read too. Inside that tolerance band, T < S_max, the
peel's last block would be empty by S_max - T; the answer there is the
hot-arm matrix of `minloss` at total T (`_hot_arm_cells`, the one builder
of those cells), whose marginals miss A and B by at most (S_max - T)/2.

The induction is its own witness, so the loop re-checks none of its
steps: feasibility is checked once before it, and the answer once, as a
whole, after it. `JointSelectionMatrix` validates the cells and their
total, and the marginals it computes from them must match A and B.
`fill_row_col`, `reduce_instance` and `base_case_three` expose the
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
    _rescale,
    _tol,
    _zero_loss_reachable,
    validate_instance,
)
from .errors import InternalInvariantError, PopularityExceedsTotalError, ValidationError


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
    if not _zero_loss_reachable(s_max, total):
        raise PopularityExceedsTotalError(
            f"max popularity {s_max:.17g} exceeds total {total:.17g}; "
            "zero loss is unattainable (use the minimum-loss construction)"
        )


def _interval(a, b, t: float) -> tuple[float, float]:
    """The range of p = P[0, 1] over which the three-arm solution is nonnegative.

    ``a`` and ``b`` are the three weights of each player and ``t`` their total.
    """
    lo = max(0.0, a[0] - b[2], b[1] - a[2])
    hi = min(a[0], b[1], t - a[2] - b[2])
    return lo, hi


# The off-diagonal positions of a 3 x 3 matrix in row-major order.
_BASE_ROWS = (0, 0, 1, 1, 2, 2)
_BASE_COLS = (1, 2, 0, 2, 0, 1)


def _base_values(a: list, b: list, t: float) -> list[float]:
    """The three-arm solution's entries at _BASE_ROWS, _BASE_COLS.

    ``a`` and ``b`` are the three weights of each player, already checked
    and scaled to ``t`` as ProblemInstance does.
    """
    _require_feasible(max(a[0] + b[0], a[1] + b[1], a[2] + b[2]), t)
    p, _ = _interval(a, b, t)
    vals = [p, a[0] - p, t - p - a[2] - b[2], p - a[0] + b[2], p + a[2] - b[1], b[1] - p]
    # cancellation can leave -1e-17-ish dust on entries that are exactly 0
    return [0.0 if x < 0.0 else x for x in vals]


def _base_weights(w: list, total: float) -> list:
    """ProblemInstance's sum check and scaling, on the three live weights of a player.

    The peel keeps weights nonnegative and the total positive, and numpy
    sums three values one by one from +0.0, so the sum and the scaled
    weights have the bits an instance built from them would have.
    """
    scale = _rescale(w[0] + w[1] + w[2], total)
    return w if scale is None else [x * scale for x in w]


def base_case_three(inst: ProblemInstance) -> JointSelectionMatrix:
    """Explicit zero-loss matrix for three arms, free entry at its lower bound."""
    if inst.n != 3:
        raise ValidationError(f"base case needs N=3, got {inst.n}")
    vals = _base_values(inst.a.tolist(), inst.b.tolist(), inst.total)
    return JointSelectionMatrix(Cells(3, _BASE_ROWS, _BASE_COLS, vals), inst.total)


def _fill(a, b, k: int, v: int, n: int, alive, start_a: int, start_b: int, tol: float, keys, vals):
    """Fill row and column K against V, in place, on weights indexed by arm.

    Appends each nonzero cell (i, j) as its key i * n + j to ``keys`` and
    its value to ``vals``, and takes the value off the weight it fills: B_j
    for (K, j), A_i for (i, K). Case 2 spills A_K over B from arm ``start_b``
    on, case 3 B_K over A from ``start_a``, past V and the dead arms (K
    among them). Returns (case, cut): cut took a spill's partial remainder,
    None if the weights ran out first; the float dust left then is parked
    opposite V, and a weight it takes below 0 is clamped there. A_K > B_V
    and B_K > A_V together would mean S_K > S_V, so they hold together only
    by rounding, when S_K and S_V round to one float; case 2 runs then, and
    its sub-ulp spill is dust that the final check bounds.
    """
    ak, bk, av, bv = a[k], b[k], a[v], b[v]
    kv, vk = ak, bk  # the cells (K, V) and (V, K)
    case, cut = 1, None
    if ak > bv:  # row K takes B_V at V, then spills over B: keys k * n + j
        case, w, rem, start, base, step = 2, b, ak - bv, start_b, k * n, 1
    elif bk > av:  # the mirror image down column K: keys j * n + k
        case, w, rem, start, base, step = 3, a, bk - av, start_a, k, n
    if case != 1:
        for j in range(start, n):
            if j == v or not alive[j]:
                continue
            x = w[j]
            if rem <= x:  # rem stays above 0, as it loses only smaller x
                keys.append(base + j * step)
                vals.append(rem)
                w[j] = x - rem
                cut, rem = j, 0.0
                break
            if x:  # a spill across a zero weight leaves no cell
                keys.append(base + j * step)
                vals.append(x)
                w[j] = 0.0
                rem -= x
        else:
            if rem > tol:
                raise InternalInvariantError(f"case-{case} fill left budget {rem:.3e}")
        if case == 2:
            kv = bv + rem
        else:
            vk = av + rem
    if kv and vk:
        keys += (k * n + v, v * n + k)
        vals += (kv, vk)
    elif kv:  # B_K is 0 opposite V
        keys.append(k * n + v)
        vals.append(kv)
    elif vk:  # A_K is 0 opposite V
        keys.append(v * n + k)
        vals.append(vk)
    x, y = bv - kv, av - vk
    b[v] = 0.0 if x < 0.0 else x
    a[v] = 0.0 if y < 0.0 else y
    return case, cut


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
    alive = [j != k for j in range(n)]
    keys, vals = [], []
    case, cut = _fill(inst.a.tolist(), inst.b.tolist(), k, v, n, alive, 0, 0, tol, keys, vals)
    # Row K holds the cells (K, j), column K the cells (i, K); there may be none.
    i, j = np.divmod(np.array(keys, dtype=np.intp), n)
    row, col = np.zeros(n), np.zeros(n)
    row[j[i == k]] = np.array(vals)[i == k]
    col[i[i != k]] = np.array(vals)[i != k]
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


def _hot_arm_cells(inst: ProblemInstance, hot: int, total: float) -> Cells:
    """The 2N - 2 cells that route everything through arm ``hot``, S_hot >= total.

    Column ``hot`` holds A_i + eps and row ``hot`` holds B_j + eps, with
    eps = (S_hot - total)/(2(N - 1)), so the cells sum to ``total`` and no
    cell avoids the hot arm. Row and column sums miss A and B by eps off
    the hot arm and by (S_hot - total)/2 at it.
    """
    n = inst.n
    eps = (float(inst.popularity[hot]) - total) / (2.0 * (n - 1))
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
    return Cells(n, rows, cols, vals)


def _peel_cells(inst: ProblemInstance) -> Cells:
    """The peel's nonzero cells in row-major order, N >= 3 and every S_i <= T."""
    n, t = inst.n, inst.total
    a, b, s = inst.a.tolist(), inst.b.tolist(), inst.popularity.tolist()
    alive = [True] * n
    # Popularities only fall. `low` gets an entry per change, so an entry is
    # current exactly when it equals S_i (a dead arm's current entry picked
    # it). `high` keeps one entry per arm, never below its S_i: a stale live
    # top is lowered in place and a dead one dropped, so a current top is V.
    low = [(x, i) for i, x in enumerate(s)]
    high = [(-x, i) for i, x in enumerate(s)]
    heapq.heapify(low)
    heapq.heapify(high)
    start_a = start_b = 0
    keys: list[int] = []  # i * n + j of every peeled cell (i, j)
    vals: list[float] = []  # and its value P[i, j]
    total, tol = t, _tol(t)
    pop, push, replace = heapq.heappop, heapq.heappush, heapq.heapreplace
    for _ in range(n - 3):
        key, k = pop(low)
        while key != s[k]:
            key, k = pop(low)
        alive[k] = False
        key, v = high[0]
        while -key != s[v] or not alive[v]:
            if alive[v]:
                replace(high, (-s[v], v))
            else:
                pop(high)
            key, v = high[0]
        case, cut = _fill(a, b, k, v, n, alive, start_a, start_b, tol, keys, vals)
        # Re-key V, then the arms a spill passed: no other weight changed.
        popularity = a[v] + b[v]
        if popularity != s[v]:
            s[v] = popularity
            push(low, (popularity, v))
        if case != 1:
            stop = n if cut is None else cut
            if case == 2:
                start_b, passed = stop, range(start_b, min(stop + 1, n))
            else:
                start_a, passed = stop, range(start_a, min(stop + 1, n))
            for i in passed:
                popularity = a[i] + b[i]
                if popularity != s[i]:
                    s[i] = popularity
                    push(low, (popularity, i))
        total -= s[k]

    live = [i for i in range(n) if alive[i]]
    a3 = _base_weights([a[i] for i in live], total)
    b3 = _base_weights([b[i] for i in live], total)
    for i, j, x in zip(_BASE_ROWS, _BASE_COLS, _base_values(a3, b3, total)):
        if x:  # the base block's zeros are no cells, as the peel's are not
            keys.append(live[i] * n + live[j])
            vals.append(x)
    flat = np.array(keys, dtype=np.intp)
    order = np.argsort(flat, kind="stable")  # row-major; positions are distinct
    rows, cols = np.divmod(flat[order], n)
    return Cells(n, rows, cols, np.array(vals)[order])


def construct_zero_loss(inst: ProblemInstance) -> JointSelectionMatrix:
    """Matrix with row sums A and column sums B; requires all S_i <= T.

    Raises PopularityExceedsTotalError when some arm is too popular; at
    N = 2 that is every instance but S = (T, T). An arm inside the band
    T < S_i <= T + 1e-9 (relative) gets the hot-arm matrix, whose
    marginals miss A and B by at most (S_i - T)/2. Otherwise two arms get
    the cells (0, 1) = A_0 and (1, 0) = A_1, and more arms the peel.
    Every answer is checked once, as a whole, not peel by peel: its cells
    and total by `JointSelectionMatrix`, then its marginals against A and
    B; a miss raises InternalInvariantError.
    """
    n, t = inst.n, inst.total
    s_max = float(inst.popularity.max())
    _require_feasible(s_max, t)
    if s_max > t:  # inside the band, where the peel's last block would be empty
        cells = _hot_arm_cells(inst, int(inst.popularity.argmax()), t)
    elif n == 2:
        cells = Cells(2, [0, 1], [1, 0], inst.a)
    else:
        cells = _peel_cells(inst)
    m = JointSelectionMatrix(cells, t)
    pi_a, pi_b = m.marginals
    miss = max(float(np.abs(pi_a - inst.a).max()), float(np.abs(pi_b - inst.b).max()))
    if miss > _tol(t):
        raise InternalInvariantError(f"assembled marginals miss the preferences by {miss:.3e}")
    return m


__all__ = [
    "RowColFill",
    "base_case_three",
    "construct_zero_loss",
    "fill_row_col",
    "reduce_instance",
]
