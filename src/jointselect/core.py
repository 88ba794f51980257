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

A JointSelectionMatrix is stored as its nonzero off-diagonal cells
(rows, cols, vals) in row-major order: the package's builders hand over
the cells they already know (a `Cells` value), and validation, marginals,
certificates and sampling read those. Dense entries, given instead, enter
as the cells of every nonzero entry and are not kept, so one validator
(`_cell_store`) checks every matrix, its values by the check every
weight array passes (`_clean_weights`). A matrix forms no N x N
array: its dense `entries` is scattered on first read, for the output
formats. Its total in numpy's dense order is computed from the cells by
a replica of numpy's pairwise summation (`_pairwise_sums`), in O(cells)
scratch and with no kept state, and so are its rows of many cells when a
dense block of them would be large. Its other marginals are summed from
the cells by bincount; only a matrix of at most DENSE_MARGINALS entries
(N <= 128) sums its rows from a dense copy, which it does not keep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

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

# Weights whose sum misses the total by more than this (relative, floored
# like SUM_RTOL), more than summation rounding, are scaled to the total.
_RESCALE_RTOL = 1e-12

# sample_joint draws its uniforms this many at a time, so its working
# memory stays the same however many draws are asked for.
SAMPLE_CHUNK = 1 << 16

# sample_joint adds its counts in floats, which count exactly up to 2**53.
MAX_DRAWS = 1 << 53

# JointSelectionMatrix.marginals sums its rows of three or more cells as
# one dense block of those rows when the block holds at most this many
# entries, and by the pairwise-sum replica otherwise, so that its working
# memory stays O(cells). The block is the faster for a few rows, the
# replica for many.
ROW_SLAB = 1 << 20

# A matrix of at most this many entries (N <= 128) sums its rows in
# marginals from one dense copy of itself, in one call, rather than
# finding and scattering its rows of three or more cells.
DENSE_MARGINALS = 1 << 14

# The fewest buckets of sample_joint's guide table. The table grows to at
# least 8 buckets per cell, so that at most one draw in 8 needs a search.
_MIN_BUCKETS = 1 << 12

_DIAGONAL_ERROR = "diagonal entries must be exactly 0 (conflict-freedom)"

# Two sums of the same nonnegative values in different orders, each by a
# tree at most 90 additions deep (numpy's pairwise sums of any length
# below 2**63 are), differ by at most 2 * 90 * 2**-53 of their sum
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2).
# This band covers that and the rounding of the band's own edges.
_SUM_BAND = 256 * 2.0**-53

# Sums of nonnegative values whose count times their largest stays below
# this, half the largest float, cannot overflow, rounding included.
_NO_OVERFLOW = 2.0**1023


def _tol(total: float) -> float:
    return SUM_RTOL * max(1.0, abs(total))


def _zero_loss_reachable(s: float, total: float) -> bool:
    """The one zero-loss decision: whether popularity ``s`` leaves zero loss
    within reach of ``total``, S <= T up to the sums' tolerance. Inside the
    band T < S <= T + _tol(T) zero loss is reached up to (S - T)/2 on the
    marginals. NaN is out of reach."""
    return s <= total + _tol(total)


def _run_starts(key: NDArray[np.intp]) -> NDArray[np.bool_]:
    """Where each run of equal keys in ``key`` (not empty) begins."""
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _pairwise_sums(
    length: int, seg: NDArray[np.intp] | int, pos: NDArray[np.intp], vals: Vec, count: int
) -> Vec:
    """``a.sum(axis=1)`` of the ``count`` x ``length`` float64 array ``a``
    that holds ``vals`` at rows ``seg`` and columns ``pos``, and 0 elsewhere.
    ``seg`` is nondecreasing (or one int for every cell), and ``pos`` is
    strictly increasing within each row.

    Each row sum is numpy's pairwise summation of the row (``pairwise_sum``
    in numpy's umath loops), replayed without forming ``a``. numpy adds an
    array of fewer than 8 elements one by one, starting from +0.0. A block
    of 8 to 128 elements is summed in 8 lanes, lane j adding elements j,
    j + 8, ... in order; then the lanes are added as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then the
    length % 8 elements left over, one by one. A longer run is split at
    8 * floor(length / 16) and its two halves are added. A zero leaves a
    nonzero partial sum as it is, and numpy's result starts from +0.0, so
    the zeros of ``a`` are left out: each cell finds its block by walking
    that split tree down from the root, and the block sums are added
    upward, level by level, over the nodes that hold cells. The tree
    depends only on ``length``, so one walk serves every row. It keeps no
    state and needs O(pos.size + count) scratch.
    """
    sums = np.zeros(count)
    if pos.size == 0:
        return sums
    # The last node of each level is the largest, so the deepest block is
    # on the last path: it takes `levels` splits to reach.
    levels, last = 0, length
    while last > 128:
        last -= 8 * (last >> 4)
        levels += 1
    # Walk each cell down: `node` is its node at the level reached, `at` its
    # position in that node and `size` the node's length. A node of at most
    # 128 elements is a block and splits no further. That happens at the
    # last split alone: the nodes of a level differ by at most a chunk and
    # the tail, so at the last split level all hold 15 chunks or more, and
    # each node above it has two such children. A block stays the left
    # child, so that at the last level each block is its first node, and
    # the nodes grow with the positions. The walk starts from the row, so
    # that a node is keyed (row << levels) | node, and the keys grow too.
    node = np.zeros(pos.size, dtype=np.intp)
    node += seg
    at = pos.copy()
    size = np.full(pos.size, length, dtype=np.intp)
    for level in range(levels):
        half = size >> 4
        half <<= 3
        right = at >= half
        if level == levels - 1:
            right &= size > 128
        np.subtract(at, half, out=at, where=right)
        size = np.where(right, size - half, half)
        node <<= 1
        node += right
    first = _run_starts(node)
    live = node[first]
    rank = np.add.accumulate(first, dtype=np.intp)  # 1 + the block of each cell
    # The elements past the last multiple of 8 are the tail of a row's last block.
    inner = pos < (length & ~7)
    # bincount adds the weights of one bin in input order, from +0.0; its
    # first 8 bins, those of rank 0, are empty. Blocks start at multiples
    # of 8, so a cell's lane is its position mod 8.
    lanes = np.bincount(8 * rank[inner] + (pos[inner] & 7), vals[inner], 8 * live.size + 8)[8:]
    lanes = lanes.astype(np.float64, copy=False).reshape(-1, 8)  # bincount of nothing is int
    for _ in range(3):
        lanes = lanes[:, 0::2] + lanes[:, 1::2]
    block = lanes.ravel()
    tail = ~inner
    np.add.at(block, rank[tail] - 1, vals[tail])  # one by one, in order
    # No sum is -0.0, so a node with one child holding cells takes its sum
    # as it is, the bits of that sum plus the other child's +0.0.
    for _ in range(levels):
        live >>= 1
        first = _run_starts(live)
        block = np.add.reduceat(block, np.flatnonzero(first))
        live = live[first]
    sums[live] = block
    return sums


def _dense_order_sum(length: int, pos: NDArray[np.intp], vals: Vec) -> float:
    """``float(a.sum())`` of the float64 array ``a`` of this length that holds
    ``vals`` at the strictly increasing positions ``pos`` and 0 elsewhere:
    the one-row case of `_pairwise_sums`."""
    return float(_pairwise_sums(length, 0, pos, vals, 1)[0])


def _floats(x, what: str) -> NDArray[np.float64]:
    """``np.array(x, dtype=np.float64)``, or ValidationError where numpy reads no reals."""
    try:
        return np.array(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an array of real numbers: {exc}") from None


def _json_reals(x, what: str) -> NDArray[np.float64]:
    """``_floats(x, what)`` for a value read from JSON: ValidationError for
    true, false and strings, which numpy reads as 1.0, 0.0 and numbers."""
    arr = _floats(x, what)
    leaves = [x]
    for _ in range(arr.ndim):
        leaves = [v for row in leaves for v in row]
    if not {bool, str}.isdisjoint(map(type, leaves)):
        bad = next(v for v in leaves if isinstance(v, (bool, str)))
        raise ValidationError(f"{what} must be numbers, got {bad!r}")
    return arr


def _json_total(obj: dict) -> float:
    total = obj.get("total", 1.0)
    if not isinstance(total, (int, float)) or isinstance(total, bool):
        raise ValidationError('"total" must be a number')
    return total


def _finite_total(total: float) -> float:
    """``float(total)``, or ValidationError for NaN, +-inf or an int past the float range."""
    try:
        if isfinite(total):  # json reads NaN and Infinity
            return float(total)
    except OverflowError:
        pass
    raise ValidationError("total must be a finite number")


def _clean_weights(w: NDArray[np.float64], what: str) -> tuple[Vec, float]:
    """The value checks every array of weights, tensor values or matrix
    cells passes; callers check its shape and hand over a nonempty array
    of their own, which is made read-only.

    Values must be finite and no lower than -1e-12; what remains below zero
    (including -0.0) is clamped to +0.0, in a copy. The min shows NaN and
    -inf, and the max +inf. Returns the weights and their largest value.
    """
    lo, hi = float(w.min()), float(w.max())
    if not (isfinite(lo) and isfinite(hi)):
        raise ValidationError(f"{what} contains non-finite values")
    if lo < -ENTRY_CLAMP:
        raise NegativeWeightError(
            f"{what} has negative entries beyond the {-ENTRY_CLAMP:g} clamp: min = {lo:.3e}"
        )
    if lo <= 0.0:
        w = np.where(w <= 0.0, 0.0, w)
    w.setflags(write=False)
    return w, hi


def _sum(x: NDArray[np.float64], hi: float, axis: int | None = None):
    """``x.sum(axis)`` of nonnegative values no larger than ``hi``.

    A sum past the float range misses any finite total, so it is inf
    without numpy's overflow warning. The warning is switched off only
    where a sum could overflow, as switching it costs more than the sum.
    """
    if hi * (x.size if axis is None else x.shape[axis]) < _NO_OVERFLOW:
        return x.sum(axis)
    with np.errstate(over="ignore"):
        return x.sum(axis)


def _rescale(w_sum: float, total: float) -> float | None:
    """The factor that scales weights summing to ``w_sum`` to ``total``.

    None when the sum is within _RESCALE_RTOL of the total (or either is
    0); TotalMismatchError when it misses by more than SUM_RTOL.
    """
    miss = abs(w_sum - total)
    if miss > _tol(total):
        raise TotalMismatchError(f"weights sum to {w_sum:.17g}, declared total is {total:.17g}")
    if total > 0.0 and w_sum > 0.0 and miss > _RESCALE_RTOL * max(1.0, total):
        return total / w_sum
    return None


def _weight_rows(w: Mat, total: float, what: str) -> tuple[Mat, Mat, Vec]:
    """The one rule for preference rows, those of the M x N array ``w`` (the
    caller's own, its shape checked): the value checks (`_clean_weights`),
    then each row's sum against ``total`` (`_rescale`, which scales a row),
    then the popularity as column sums. Returns the rows, the rows before
    scaling (the same array when none was scaled) and the popularity.
    """
    given, hi = _clean_weights(w, what)
    scales = [_rescale(x, total) or 1.0 for x in _sum(given, hi, axis=1).tolist()]
    w = given if set(scales) == {1.0} else given * np.array(scales)[:, None]
    w.setflags(write=False)
    s = _sum(w, hi, axis=0)  # a scale within 1 + 1e-9 stays inside _sum's margin
    s.setflags(write=False)
    return w, given, s


def _require_unit_total(total: float, what: str) -> None:
    if not abs(total - 1.0) <= SUM_RTOL:  # NaN fails too
        raise TotalNotOneError(f"{what} needs total = 1, got {total:.17g}")


# --------------------------------------------------------------------------
# value types
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Two players' desired selection probabilities over the same N >= 2 arms.

    Both vectors pass, as the rows of one 2 x N array, the rule that M
    players' rows pass too (`_weight_rows`). Weights are nonnegative (tiny
    negatives within -1e-12 are clamped to 0) and each vector sums to
    ``total`` within 1e-9 relative tolerance. A vector whose sum misses
    ``total`` by more than 1e-12 (relative) is scaled to it, so both
    vectors sum to ``total`` up to rounding. ``total``, finite and
    nonnegative, is 1 for user-facing instances; reduced sub-instances
    carry smaller totals. ``popularity`` is S = A + B. ``given`` is (a, b)
    after the clamp and before any scaling: the same arrays as ``a`` and
    ``b`` when neither was scaled.
    ``==`` and ``hash`` go by identity, as the fields are arrays.
    """

    a: Vec
    b: Vec
    total: float = 1.0
    popularity: Vec = field(init=False)
    given: tuple[Vec, Vec] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            w = np.array((self.a, self.b), dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            w = None
        if w is None or w.ndim != 2:  # each vector on its own words the error
            a, b = _floats(self.a, "preference weights"), _floats(self.b, "preference weights")
            if a.shape != b.shape:
                raise LengthMismatchError(f"preference lengths differ: {a.shape} vs {b.shape}")
            raise ValidationError(f"preference weights must be a 1-D vector, got shape {a.shape}")
        if w.shape[1] < 2:
            raise ValidationError(f"preference weights needs at least 2 arms, got {w.shape[1]}")
        total = _finite_total(self.total)
        if total < -ENTRY_CLAMP:
            raise ValidationError(f"total must be nonnegative, got {total}")
        rows, given, s = _weight_rows(w, total, "preference weights")
        a, b = rows
        given = (a, b) if given is rows else tuple(given)
        vars(self).update(a=a, b=b, total=total, popularity=s, given=given)

    @property
    def n(self) -> int:
        return int(self.a.size)


def validate_instance(a, b, total: float = 1.0) -> ProblemInstance:
    """Build a validated instance (a ProblemInstance) from raw weight vectors.

    Raises LengthMismatchError / NegativeWeightError / TotalMismatchError
    on bad input."""
    return ProblemInstance(a, b, total)


class Cells(NamedTuple):
    """The off-diagonal cells of an N x N matrix; every other entry is 0.

    Cell k holds ``vals[k]`` at ``(rows[k], cols[k])``. Cells are distinct
    and in row-major order; a cell on the diagonal must be 0 after the
    clamp. Pass one to JointSelectionMatrix in place of the dense entries.
    """

    n: int
    rows: ArrayLike
    cols: ArrayLike
    vals: ArrayLike


def _dense_cells(e) -> Cells:
    """Dense entries as the cells of every nonzero entry: NaN stays a cell
    for the validator to see."""
    e = np.asarray(e, dtype=np.float64, order="C")
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {e.shape}")
    key = np.flatnonzero(e)
    return Cells(e.shape[0], *np.divmod(key, e.shape[0]), e.ravel()[key])


def _positions(x, n: int) -> NDArray[np.intp]:
    x = np.asarray(x)
    if x.size and x.dtype.kind not in "iu":
        raise ValidationError(f"cell positions must be integers, got {x.dtype}")
    x = x.astype(np.intp)
    # Viewed as unsigned, a negative position is out of range too.
    if x.size and x.view(np.uintp).max() >= n:
        raise ValidationError(f"cell positions out of range for n = {n}")
    return x


def _cell_store(c: Cells) -> tuple[int, float, tuple]:
    """Validate the cells of a matrix: every JointSelectionMatrix goes through here.

    The checks run in a fixed order: the positions, the values by the
    weights' check (`_clean_weights`: non-finite values, then the clamp),
    the diagonal (a cell on it must be 0 after the clamp); the total is
    checked by the caller. Returns n, the largest entry and the (rows,
    cols, vals) of the nonzero off-diagonal cells.
    """
    n = c.n
    if not isinstance(n, (int, np.integer)):
        raise ValidationError(f"cells need an integer n, got {n!r}")
    if n < 2:
        raise ValidationError("matrix needs at least 2 arms")
    n = int(n)
    rows, cols = _positions(c.rows, n), _positions(c.cols, n)
    vals = np.array(c.vals, dtype=np.float64)
    if not (rows.ndim == cols.ndim == vals.ndim == 1 and rows.size == cols.size == vals.size):
        raise ValidationError("cells need 1-D rows, cols and vals of one length")
    key = rows * n + cols
    if np.count_nonzero(key[1:] <= key[:-1]):
        raise ValidationError("cells must be distinct and in row-major order")
    hi = 0.0  # every entry outside the cells is 0
    if vals.size:
        vals, hi = _clean_weights(vals, "matrix")
    if np.count_nonzero(vals[rows == cols]):
        raise ValidationError(_DIAGONAL_ERROR)
    if np.count_nonzero(vals) < vals.size:  # zeros, the diagonal's among them
        nonzero = vals != 0.0
        rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    return n, hi, (rows, cols, vals)


def _surely_within(rough: float, total: float) -> bool:
    """Whether the total check passes for every sum within _SUM_BAND of ``rough``.

    The check |x - total| <= tol passes on an interval of x, as float
    subtraction is monotone, so it is enough that both edges of the band
    pass. False for a non-finite ``rough``.
    """
    band = _SUM_BAND * abs(rough)
    tol = _tol(total)
    return abs(rough - band - total) <= tol and abs(rough + band - total) <= tol


@dataclass(frozen=True, eq=False, init=False)
class JointSelectionMatrix:
    """An N x N joint selection probability matrix with zero diagonal.

    Entries are nonnegative (clamped within -1e-12) and sum to a finite
    ``total`` within 1e-9 relative tolerance. Entry (i, j) is the probability that
    player A is assigned arm i while player B is assigned arm j; the zero
    diagonal is what makes the assignment conflict-free.

    The matrix is stored as ``rows``, ``cols`` and ``vals``: its nonzero
    off-diagonal cells in row-major order, as read-only arrays. Give it
    either those cells, as a ``Cells(n, rows, cols, vals)`` value, or the
    dense entries, which enter as the cells of every nonzero entry (NaN
    among them) and are not kept. One validator (`_cell_store`) checks
    both, in one order: the values by the weights' check (non-finite
    values, then the clamp, where -0.0 and what is clamped become +0.0),
    the diagonal, the total. After the clamp every diagonal entry must be
    exactly 0; cells of value 0, on the diagonal or off it, are then
    dropped.

    ``entries`` is the dense read-only array. No N x N array is formed
    until it is first read; it is then scattered from the cells and kept.

    ``entry_sum`` is ``float(entries.sum())``, the total in numpy's dense
    order, computed on first read by a replica of numpy's pairwise
    summation that needs no dense array. The total check passes on the
    cells' own sum when every sum within a proven error band of it
    (_SUM_BAND) would pass; otherwise it computes ``entry_sum`` and
    decides, and words its message, on that. ``marginals`` (row sums,
    column sums) is computed from the cells on first read and kept. ``==``
    and ``hash`` go by identity.
    """

    n: int
    total: float
    rows: NDArray[np.intp] = field(repr=False)
    cols: NDArray[np.intp] = field(repr=False)
    vals: Vec = field(repr=False)

    def __init__(self, entries: Mat | Cells, total: float = 1.0) -> None:
        if not isinstance(entries, Cells):
            entries = _dense_cells(entries)
        n, hi, (rows, cols, vals) = _cell_store(entries)
        total = _finite_total(total)
        if not _surely_within(float(_sum(vals, hi)), total):  # the cells in their own order
            with np.errstate(over="ignore"):  # it overflows where the cells' sum did
                entry_sum = _dense_order_sum(n * n, rows * n + cols, vals)
            if abs(entry_sum - total) > _tol(total):
                raise TotalMismatchError(
                    f"entries sum to {entry_sum:.17g}, declared total is {total:.17g}"
                )
            object.__setattr__(self, "entry_sum", entry_sum)
        for name, x in zip(("rows", "cols", "vals"), (rows, cols, vals)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "total", total)

    @cached_property
    def entries(self) -> Mat:
        """The dense N x N entries, read-only; from cells, scattered on first read."""
        e = np.zeros((self.n, self.n))
        e[self.rows, self.cols] = self.vals
        e.setflags(write=False)
        return e

    @cached_property
    def entry_sum(self) -> float:
        """``float(entries.sum())``, computed from the cells without the entries."""
        return _dense_order_sum(self.n * self.n, self.rows * self.n + self.cols, self.vals)

    @cached_property
    def marginals(self) -> tuple[Vec, Vec]:
        """(row sums, column sums) of the entries, read-only, computed once.

        Both equal ``entries.sum(axis=1)`` and ``entries.sum(axis=0)`` bit
        for bit. Numpy sums a column down the rows in order, as bincount
        sums the row-major cells. A row is summed pairwise, which differs
        from bincount's order only when it holds three or more nonzero
        cells (x + y is one rounding either way), so those rows alone are
        summed pairwise: by numpy from one dense block of them if it holds
        at most ROW_SLAB entries (zeros do not change a sum of positive
        cells), and otherwise by `_pairwise_sums`, numpy's pairwise
        summation replayed from their cells. A matrix of at most
        DENSE_MARGINALS entries scatters its cells into one local dense copy
        and sums its rows in one call, which costs less than finding those
        rows; ``entries`` stays unformed.
        tests/test_cells.py and tests/test_dense_order_sum.py hold numpy to
        this, so a numpy upgrade that changes its summation order fails
        there.
        """
        n = self.n
        if n * n <= DENSE_MARGINALS:
            dense = np.zeros((n, n))
            dense[self.rows, self.cols] = self.vals
            pi_a = dense.sum(axis=1)
        else:
            pi_a = np.bincount(self.rows, self.vals, n)
            heavy = np.bincount(self.rows, minlength=n) >= 3
            which = np.flatnonzero(heavy)
            if which.size:
                take = heavy[self.rows]
                rows, cols, vals = self.rows[take], self.cols[take], self.vals[take]
                if which.size * n <= ROW_SLAB:
                    block = np.zeros((which.size, n))
                    block[np.searchsorted(which, rows), cols] = vals
                    pi_a[which] = block.sum(axis=1)
                else:
                    pi_a[which] = _pairwise_sums(n, rows, cols, vals, n)[which]
        pi_b = np.bincount(self.cols, self.vals, n)
        pi_a.setflags(write=False)
        pi_b.setflags(write=False)
        return pi_a, pi_b


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def _check_dims(m: JointSelectionMatrix, inst: ProblemInstance) -> None:
    if m.n != inst.n:
        raise DimensionMismatchError(f"matrix has {m.n} arms, instance has {inst.n}")


def loss(m: JointSelectionMatrix, inst: ProblemInstance) -> float:
    """Squared mismatch between satisfied and desired preferences.

    L = sum_i (pi_A(i) - A_i)^2 + sum_j (pi_B(j) - B_j)^2 >= 0, and L = 0
    exactly when the matrix reproduces both preference vectors.
    """
    _check_dims(m, inst)
    return _squared_miss(m, inst.a, inst.b)


def given_loss(m: JointSelectionMatrix, inst: ProblemInstance) -> float:
    """The loss against the weights as given, before the instance scaled them.

    Equal to ``loss(m, inst)`` bit for bit when no weight vector was scaled.
    """
    _check_dims(m, inst)
    return _squared_miss(m, *inst.given)


def _squared_miss(m: JointSelectionMatrix, a: Vec, b: Vec) -> float:
    pi_a, pi_b = m.marginals
    ga = pi_a - a
    gb = pi_b - b
    return float(ga @ ga + gb @ gb)


def _gradient_terms(m: JointSelectionMatrix, inst: ProblemInstance) -> tuple[Vec, Vec]:
    """The row and column parts of the loss gradient: 2 (pi_A - A), 2 (pi_B - B).

    dL/dP[i, j] is their sum ga[i] + gb[j]; this is the O(N) form of it.
    """
    _check_dims(m, inst)
    pi_a, pi_b = m.marginals
    return 2.0 * (pi_a - inst.a), 2.0 * (pi_b - inst.b)


def _guide_table(cdf: Vec) -> tuple[int, NDArray[np.intp], NDArray[np.bool_]]:
    """Chen and Asau's guide table for inverse-CDF search over ``cdf``.

    [0, 1) is split into B buckets, B a power of two with at least
    _MIN_BUCKETS buckets and 8 per cell. ``first[k]`` is the index a
    right-sided search gives at k / B. The index is monotone in u, and no
    u in [k / B, (k + 1) / B) can pass a cdf value that is >= (k + 1) / B,
    so bucket k is clean (every u in it has index ``first[k]``) unless a
    cdf value falls strictly inside it; then ``mixed[k]`` is set. k / B is
    exact, B being a power of two.
    """
    buckets = max(_MIN_BUCKETS, 1 << (8 * cdf.size - 1).bit_length())
    edges = np.arange(buckets + 1) / buckets
    first = np.searchsorted(cdf, edges[:-1], side="right")
    mixed = first != np.searchsorted(cdf, edges[1:], side="left")
    return buckets, first, mixed


def sample_joint(m: JointSelectionMatrix, seed: int, draws: int) -> NDArray[np.int64]:
    """Draw arm pairs from the matrix; returns an N x N count matrix.

    Sampling is inverse-CDF over the matrix's cells (its nonzero
    off-diagonal entries in row-major order), driven by numpy's PCG64
    generator, so identical (matrix, seed, draws) triples reproduce
    identical counts. Leaving out the zero cells changes no count: the
    cumulative sum adds them exactly, and a right-sided search never lands
    on a cell of zero weight. The search goes through a guide table
    (`_guide_table`; Devroye, Non-Uniform Random Variate Generation,
    III.2.4): a draw u in a clean bucket takes its bucket's cell, and only
    draws in mixed buckets are searched, so every draw gets the index a
    full search gives. Scaling u by the power-of-two bucket count is
    exact, so its floor is the bucket and dividing back restores u.
    Uniforms are drawn SAMPLE_CHUNK at a time, which continues the same
    stream, so the counts equal a one-shot draw while the working memory
    stays O(cells + buckets + SAMPLE_CHUNK) besides the N x N result.
    Requires a unit total, a seed >= 0, as PCG64 takes, and at most
    MAX_DRAWS = 2**53 draws; the diagonal of the result is always 0.
    """
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    if draws > MAX_DRAWS:
        raise ValidationError(f"draws must be <= 2**53, got {draws}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    _require_unit_total(m.total, "sampling")
    n = m.n
    cdf = np.cumsum(m.vals)
    cdf /= cdf[-1]
    buckets, first, mixed = _guide_table(cdf)
    rng = np.random.default_rng(seed)
    picked = np.zeros(cdf.size, dtype=np.int64)
    hits = np.zeros(buckets, dtype=np.int64)
    for start in range(0, draws, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, draws - start))
        u *= buckets
        bucket = u.astype(np.intp)
        hits += np.bincount(bucket, minlength=buckets)
        u = u[mixed[bucket]]
        del bucket  # so that two chunks' bucket arrays are never held at once
        u /= buckets
        picked += np.bincount(np.searchsorted(cdf, u, side="right"), minlength=cdf.size)
    clean = ~mixed
    # float sums of counts are exact integers up to MAX_DRAWS draws
    picked += np.bincount(first[clean], hits[clean], cdf.size).astype(np.int64)
    counts = np.zeros((n, n), dtype=np.int64)
    counts[m.rows, m.cols] = picked
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
    a, b = (_json_reals(obj[key], "preference weights") for key in ("a", "b"))
    return validate_instance(a, b, _json_total(obj))


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
    entries = _json_reals(obj["entries"], '"entries"')
    if entries.ndim != 1:
        raise ValidationError(
            f'"entries" must be a flat row-major list, got shape {entries.shape}'
        )
    if entries.size != n * n:
        raise ValidationError(
            f'"entries" must hold n*n = {n * n} reals, got {entries.size}'
        )
    return JointSelectionMatrix(entries.reshape(n, n), _json_total(obj))


def _csv_rows(rows) -> str:
    """One line of comma-separated ``repr``s per row."""
    return "".join(",".join(repr(x) for x in row) + "\n" for row in rows)


def matrix_to_csv(m: JointSelectionMatrix) -> str:
    """N rows of N comma-separated entries; diagonal prints as 0."""
    return _csv_rows(m.entries.tolist())


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2)
