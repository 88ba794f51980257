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
as the cells of their entries that are not 0, so one validator
(`_cell_store`) checks every matrix. A matrix built from cells forms no
N x N array: its dense `entries` is scattered on first read, for the
output formats, and its total in numpy's dense order is computed from the
cells by a replica of numpy's pairwise summation (`_dense_order_sum`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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

# bitrev_8(k) for k = 0 .. 255: the 8 bits of k in reverse order.
_BITREV8 = np.array([int(f"{k:08b}"[::-1], 2) for k in range(256)], dtype=np.intp)


def _tol(total: float) -> float:
    return SUM_RTOL * max(1.0, abs(total))


def _bit_reversed(d: int) -> NDArray[np.intp]:
    """bitrev_d(k) for k = 0 .. 2**d - 1: the d low bits of k in reverse order."""
    s = min(d, 8)
    low = _BITREV8[: 1 << s] >> (8 - s)  # of the s low bits of k
    if d == s:
        return low
    return ((low << (d - s))[None, :] | _bit_reversed(d - s)[:, None]).ravel()


class _Layout(NamedTuple):
    """The blocks of numpy's pairwise summation of an array of one length."""

    depth: int  # the tree depth of the nodes that hold the blocks
    ends: NDArray[np.intp]  # the end of each node, counted in chunks of 8
    whole: NDArray[np.bool_] | None  # which node pairs are one block of 8 + 8 chunks
    split: bool  # whether the last node is split in two blocks


@lru_cache(maxsize=1)
def _layout(length: int) -> _Layout:
    """The layout `_dense_order_sum` replays, for arrays of this length.

    It depends on the length alone, so the last one is kept: its arrays,
    read-only, take about 8 bytes per node, 2**depth nodes of 64 to 128
    elements each (64 KB for length 1024**2, 8 MB for 10**8). It is held
    until a call with another length replaces it; ``_layout.cache_clear()``
    frees it.
    """
    chunks, tail = divmod(length, 8)
    # Counted in chunks of 8 elements, a run of c chunks splits into c >> 1
    # and (c + 1) >> 1 and the tail stays in the last run, so node k at
    # depth d holds (chunks + bitrev_d(k)) >> d chunks. The blocks are the
    # nodes at `depth`, the first depth at which none holds more than 16
    # chunks, with two exceptions: a node of 16 chunks one level up is a
    # block already, and a last node of 16 chunks that also holds the tail
    # is split once more, into 8 chunks and 8 chunks plus the tail.
    depth = ((chunks - 1) >> 4).bit_length() if chunks else 0
    q, t = chunks >> depth, chunks & ((1 << depth) - 1)
    big = _bit_reversed(depth) >= (1 << depth) - t  # nodes of q + 1 chunks; the rest hold q
    ends = np.cumsum(q + big)
    whole = ~(big[0::2] | big[1::2]) if depth and q == 8 else None  # pairs of 8 + 8 chunks
    for x in (ends, whole):
        if x is not None:
            x.setflags(write=False)
    return _Layout(depth, ends, whole, bool(tail) and q + big[-1] == 16)


def _dense_order_sum(length: int, pos: NDArray[np.intp], vals: Vec) -> float:
    """``float(a.sum())`` of the float64 array ``a`` of this length that holds
    ``vals`` at the strictly increasing positions ``pos`` and 0 elsewhere.

    The sum is numpy's pairwise summation of ``a`` (``pairwise_sum`` in
    numpy's umath loops), replayed without forming ``a``. numpy adds an
    array of fewer than 8 elements one by one, starting from +0.0. A block
    of 8 to 128 elements is summed in 8 lanes, lane j adding elements j,
    j + 8, ... in order; then the lanes are added as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then the
    length % 8 elements left over, one by one. A longer run is split at
    8 * floor(length / 16) and its two halves are added. A zero leaves a
    nonzero partial sum as it is, and numpy's result starts from +0.0, so
    the zeros of ``a`` are left out. Scratch memory is O(pos.size +
    length / 64). The blocks of a length are its `_layout`, which is kept
    for the last length: about length / 8 bytes.
    """
    if pos.size == 0:
        return 0.0
    depth, ends, whole, split = _layout(length)
    chunks, tail = divmod(length, 8)
    # the cells before the tail
    inner = int(np.searchsorted(pos, 8 * chunks)) if tail else pos.size
    chunk = pos[:inner] >> 3
    node = np.searchsorted(ends, chunk, side="right")
    # Each block gets a key that grows with position: 2k for node k, 4j for
    # a block of the two nodes 2j and 2j + 1, and 2k + 1 for the second half
    # of a split node k. The key // 2 is the node the block's sum lands in.
    key = np.empty(pos.size, dtype=np.intp)
    block = key[:inner]
    np.left_shift(node, 1, out=block)
    if whole is not None:
        block[whole[node >> 1]] &= ~3
    if split:
        block += chunk >= chunks - 8
    key[inner:] = (2 << depth) - 2 + split
    first = np.empty(pos.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    live = key[first]
    rank = np.add.accumulate(first, dtype=np.intp)  # 1 + the block of each cell
    # bincount adds the weights of one bin in input order, from +0.0; its
    # first 8 bins, those of rank 0, are empty.
    lanes = np.bincount(8 * rank[:inner] + (pos[:inner] & 7), vals[:inner], 8 * live.size + 8)[8:]
    lanes = lanes.astype(np.float64, copy=False).reshape(-1, 8)  # bincount of nothing is int
    for _ in range(3):
        lanes = lanes[:, 0::2] + lanes[:, 1::2]
    sums = lanes.ravel()
    for x in vals[inner:].tolist():  # the tail, in the last block
        sums[-1] += x
    nodes = np.bincount(live >> 1, sums, 1 << depth)
    for _ in range(depth):
        nodes = nodes[0::2] + nodes[1::2]
    return float(nodes[0])


def _floats(x, what: str) -> NDArray[np.float64]:
    """``np.array(x, dtype=np.float64)``, or ValidationError where numpy reads no reals."""
    try:
        return np.array(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an array of real numbers: {exc}") from None


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
    """The value checks every weight array passes; callers check its shape
    and hand over an array of their own, which is made read-only.

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


def _require_unit_total(total: float, what: str) -> None:
    if not abs(total - 1.0) <= SUM_RTOL:  # NaN fails too
        raise TotalNotOneError(f"{what} needs total = 1, got {total:.17g}")


# --------------------------------------------------------------------------
# value types
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Two players' desired selection probabilities over the same N >= 2 arms.

    Weights are nonnegative (tiny negatives within -1e-12 are clamped to 0)
    and each vector sums to ``total`` within 1e-9 relative tolerance. A
    vector whose sum misses ``total`` by more than 1e-12 (relative) is
    scaled to it, so both vectors sum to ``total`` up to rounding.
    ``total``, finite and nonnegative, is 1 for user-facing instances;
    reduced sub-instances carry smaller totals. ``popularity`` is
    S = A + B, computed here. ``given`` is (a, b) as given, after the clamp
    and before any scaling: the same arrays as ``a`` and ``b`` when
    neither was scaled.
    ``==`` and ``hash`` go by identity, as the fields are arrays.
    """

    a: Vec
    b: Vec
    total: float = 1.0
    popularity: Vec = field(init=False)
    given: tuple[Vec, Vec] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = _floats(self.a, "preference weights")
        b = _floats(self.b, "preference weights")
        if a.shape != b.shape:
            raise LengthMismatchError(f"preference lengths differ: {a.shape} vs {b.shape}")
        if a.ndim != 1:
            raise ValidationError(
                f"preference weights must be a 1-D vector, got shape {a.shape}"
            )
        if a.size < 2:
            raise ValidationError(f"preference weights needs at least 2 arms, got {a.size}")
        total = _finite_total(self.total)
        if total < -ENTRY_CLAMP:
            raise ValidationError(f"total must be nonnegative, got {total}")
        given = []
        for name, w in (("a", a), ("b", b)):
            w, hi = _clean_weights(w, "preference weights")
            given.append(w)
            scale = _rescale(float(_sum(w, hi)), total)
            if scale is not None:
                w = w * scale
                w.setflags(write=False)
            object.__setattr__(self, name, w)
        s = self.a + self.b
        s.setflags(write=False)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "popularity", s)
        object.__setattr__(self, "given", tuple(given))

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


def _square(e) -> Mat:
    """Dense entries as a square read-only float64 array: adopted if already one
    that owns its data and is C-contiguous, else copied."""
    adopted = (
        type(e) is np.ndarray
        and e.dtype == np.float64
        and e.flags.c_contiguous
        and e.base is None
        and not e.flags.writeable
    )
    if not adopted:
        e = np.array(e, dtype=np.float64)
        e.setflags(write=False)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {e.shape}")
    return e


def _positions(x, n: int) -> NDArray[np.intp]:
    x = np.asarray(x)
    if x.size and x.dtype.kind not in "iu":
        raise ValidationError(f"cell positions must be integers, got {x.dtype}")
    x = x.astype(np.intp)
    # Viewed as unsigned, a negative position is out of range too.
    if x.size and x.view(np.uintp).max() >= n:
        raise ValidationError(f"cell positions out of range for n = {n}")
    return x


def _cell_store(c: Cells) -> tuple[int, float, float, tuple, tuple]:
    """Validate the cells of a matrix: every JointSelectionMatrix goes through here.

    The checks run in a fixed order: the positions, non-finite values, the
    clamp, the diagonal (a cell on it must be 0 after the clamp); the total
    is checked by the caller. Returns n, the minimum and the maximum entry,
    the (rows, cols, vals) of the nonzero off-diagonal cells, and the flat
    positions and values of all the cells as validated: zeros of either
    sign included, clamped cells at +0.0.
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
    # Every entry outside the cells is +0.0, the diagonal at least. min
    # shows NaN and -inf, and max +inf.
    lo, hi = float(vals.min(initial=0.0)), float(vals.max(initial=0.0))
    if not (isfinite(lo) and isfinite(hi)):
        raise ValidationError("matrix contains non-finite entries")
    if lo < -ENTRY_CLAMP:
        raise ValidationError(f"matrix entries below the {-ENTRY_CLAMP:g} clamp: min = {lo:.3e}")
    if lo < 0.0:
        vals[vals < 0.0] = 0.0
        lo = 0.0
    if np.count_nonzero(vals[rows == cols]):
        raise ValidationError(_DIAGONAL_ERROR)
    placed = (key, vals)
    if np.count_nonzero(vals) < vals.size:  # zeros, the diagonal's among them
        nonzero = vals != 0.0
        rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    return n, lo, hi, (rows, cols, vals), placed


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
    dense entries, which enter as the cells of their entries that are not
    0 (NaN among them). One validator (`_cell_store`) checks both, in one
    order: non-finite values, the clamp, the diagonal, the total. After
    the clamp every diagonal entry must be exactly 0; cells of value 0,
    on the diagonal or off it, are then dropped.

    ``entries`` is the dense read-only array. Dense input is kept as it
    is: a float64, C-contiguous ndarray that owns its data and is already
    read-only is adopted (the owner must not make it writable again), and
    any other is copied; where the clamp changed an entry, a copy holds
    +0.0 there. From cells, no N x N array is formed until ``entries`` is
    first read; it is then scattered from the cells as validated, zero
    cells included (a -0.0 cell stays -0.0, a clamped one is +0.0), and
    kept.

    ``min_entry`` is the minimum entry. ``entry_sum`` is
    ``float(entries.sum())``, the total in numpy's dense order: dense
    input takes it from the entries, and cells get it on first read from a
    replica of numpy's pairwise summation that needs no dense array. The
    total check passes cells on their own sum when every sum within a
    proven error band of it (_SUM_BAND) would pass; otherwise it computes
    ``entry_sum`` and decides, and words its message, on that, as it does
    for dense input. ``marginals`` (row sums, column sums) is computed from
    the cells on first read and kept. ``==`` and ``hash`` go by identity.
    """

    n: int
    total: float
    min_entry: float = field(repr=False)
    rows: NDArray[np.intp] = field(repr=False)
    cols: NDArray[np.intp] = field(repr=False)
    vals: Vec = field(repr=False)
    # The flat positions and values of the validated cells, zeros included.
    _placed: tuple[NDArray[np.intp], Vec] = field(repr=False)

    def __init__(self, entries: Mat | Cells, total: float = 1.0) -> None:
        dense = None
        if not isinstance(entries, Cells):
            dense = _square(entries)
            n = dense.shape[0]
            key = np.flatnonzero(dense)  # NaN is not 0, so it stays a cell
            entries = Cells(n, *np.divmod(key, n), dense.ravel()[key])
        n, lo, hi, cells, placed = _cell_store(entries)
        total = _finite_total(total)
        entry_sum = None
        if dense is not None:
            if np.count_nonzero(entries.vals < 0.0):  # clamped: copy, then write +0.0
                dense = dense.copy()
                dense.ravel()[placed[0]] = placed[1]
                dense.setflags(write=False)
            object.__setattr__(self, "entries", dense)
            entry_sum = float(_sum(dense, hi))
        elif not _surely_within(float(_sum(placed[1], hi)), total):  # the cells in their own order
            with np.errstate(over="ignore"):  # it overflows where the cells' sum did
                entry_sum = _dense_order_sum(n * n, *placed)
        if entry_sum is not None and abs(entry_sum - total) > _tol(total):
            raise TotalMismatchError(
                f"entries sum to {entry_sum:.17g}, declared total is {total:.17g}"
            )
        for name, x in zip(("rows", "cols", "vals"), cells):
            x.setflags(write=False)
            object.__setattr__(self, name, x)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "min_entry", lo)
        object.__setattr__(self, "_placed", placed)
        if entry_sum is not None:
            object.__setattr__(self, "entry_sum", entry_sum)

    @cached_property
    def entries(self) -> Mat:
        """The dense N x N entries, read-only; from cells, scattered on first read."""
        key, vals = self._placed
        e = np.zeros((self.n, self.n))
        e.ravel()[key] = vals
        e.setflags(write=False)
        return e

    @cached_property
    def entry_sum(self) -> float:
        """``float(entries.sum())``, computed from the cells without the entries."""
        return _dense_order_sum(self.n * self.n, *self._placed)

    @cached_property
    def marginals(self) -> tuple[Vec, Vec]:
        """(row sums, column sums) of the entries, read-only, computed once.

        Both equal ``entries.sum(axis=1)`` and ``entries.sum(axis=0)`` bit
        for bit. Numpy sums a column down the rows in order, as bincount
        sums the row-major cells. A row is summed pairwise, which differs
        from bincount's order only when it holds three or more nonzero
        cells (x + y is one rounding either way), so those rows alone are
        scattered into a block of their own and summed by numpy; zeros do
        not change a sum of positive cells. tests/test_cells.py holds numpy
        to this, so a numpy upgrade that changes its summation order fails
        there.
        """
        n = self.n
        pi_a = np.bincount(self.rows, self.vals, n)
        heavy = np.bincount(self.rows, minlength=n) >= 3
        if np.count_nonzero(heavy):
            which = np.flatnonzero(heavy)
            take = heavy[self.rows]
            block = np.zeros((which.size, n))
            block[np.searchsorted(which, self.rows[take]), self.cols[take]] = self.vals[take]
            pi_a[which] = block.sum(axis=1)
        pi_b = np.bincount(self.cols, self.vals, n)
        pi_a.setflags(write=False)
        pi_b.setflags(write=False)
        return pi_a, pi_b


@dataclass(frozen=True)
class SatisfiedPreferences:
    """Marginals of a joint selection matrix: pi_a = row sums, pi_b = column sums."""

    pi_a: Vec
    pi_b: Vec


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def satisfied_preferences(m: JointSelectionMatrix) -> SatisfiedPreferences:
    """Row and column sums of the matrix: the preferences each player actually gets.

    The arrays are the matrix's cached marginals and are read-only.
    """
    return SatisfiedPreferences(*m.marginals)


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


def loss_gradient(m: JointSelectionMatrix, inst: ProblemInstance) -> Mat:
    """Gradient of the loss in the off-diagonal entries.

    dL/dP[i, j] = 2 (pi_A(i) - A_i) + 2 (pi_B(j) - B_j) for i != j; the
    diagonal is not a decision variable and is reported as 0.
    """
    ga, gb = _gradient_terms(m, inst)
    g = ga[:, None] + gb[None, :]
    np.fill_diagonal(g, 0.0)
    return g


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
    Requires a unit total; the diagonal of the result is always 0.
    """
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
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
    # float sums of counts are exact integers below 2**53 draws
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
    return validate_instance(obj["a"], obj["b"], _json_total(obj))


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
    entries = _floats(obj["entries"], '"entries"')
    if entries.size != n * n:
        raise ValidationError(
            f'"entries" must hold n*n = {n * n} reals, got {entries.size}'
        )
    # Reshaped in place, the array still owns its data, so the matrix
    # adopts it instead of copying.
    entries.resize((n, n))
    entries.setflags(write=False)
    return JointSelectionMatrix(entries, _json_total(obj))


def matrix_to_csv(m: JointSelectionMatrix) -> str:
    """N rows of N comma-separated entries; diagonal prints as 0."""
    return "\n".join(",".join(repr(x) for x in row) for row in m.entries.tolist()) + "\n"


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2)
