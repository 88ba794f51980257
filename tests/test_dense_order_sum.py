"""The replica of numpy's pairwise summation that gives a cell-built matrix
its dense-order total and row sums without the dense array
(core._pairwise_sums, and core._dense_order_sum, its one-row case).

It is checked against a plain-Python transcription of numpy's
``pairwise_sum`` kept here, and against numpy's own ``sum`` of the dense
array. It also pins the row and column sums of weight rows that
core._weight_rows takes from numpy. A numpy that changes its summation
order fails here first.
"""

from __future__ import annotations

import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointselect.core as core
from jointselect import construct_zero_loss
from jointselect.core import Cells, JointSelectionMatrix, _dense_order_sum, _pairwise_sums

from conftest import random_feasible_instance


def pairwise(a: dict[int, float], live: list[int], lo: int, n: int) -> float:
    """numpy's pairwise_sum of a[lo:lo + n] (numpy's umath loops_utils.h.src).

    ``a`` maps positions to values and every other element is 0; ``live``
    is its sorted keys. A run without a key sums to 0 at once: zeros change
    no nonzero sum, and the result's +0.0 start settles a zero's sign.
    """
    if bisect_left(live, lo) == bisect_left(live, lo + n):
        return 0.0
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a.get(i, 0.0)
        return res
    if n <= 128:
        r = [a.get(lo + j, 0.0) for j in range(8)]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += a.get(lo + i + j, 0.0)
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        while i < n:
            res += a.get(lo + i, 0.0)
            i += 1
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise(a, live, lo, n2) + pairwise(a, live, lo + n2, n - n2)


def transcribed_sum(length: int, pos, vals) -> float:
    """np.add.reduce of the implicit array: +0.0 plus its pairwise sum."""
    a = dict(zip(np.asarray(pos).tolist(), np.asarray(vals).tolist()))
    return 0.0 + pairwise(a, sorted(a), 0, length)


def dense(length: int, pos, vals) -> np.ndarray:
    a = np.zeros(length)
    a[pos] = vals
    return a


def spread_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Positive values over eight decades, so that any change of order shows
    in the last bits of the sum."""
    return rng.random(size) * 10.0 ** rng.integers(-8, 1, size=size)


def assert_same_float(x: float, y: float) -> None:
    assert np.array_equal(x, y) and np.signbit(x) == np.signbit(y), (x, y)


def test_every_length_up_to_4096_with_every_element_set():
    # Every element nonzero, so no run is skipped: each block, lane and
    # split of the layout takes part.
    rng = np.random.default_rng(41)
    for length in range(1, 4097):
        vals = spread_values(rng, length)
        pos = np.arange(length)
        got = _dense_order_sum(length, pos, vals)
        assert_same_float(got, float(vals.sum()))
        if length <= 1100 or length % 97 == 0:
            assert_same_float(got, transcribed_sum(length, pos, vals))


@pytest.mark.parametrize("length", range(129, 136))
def test_a_last_block_of_16_chunks_with_a_tail_splits_once_more(length):
    # 128 + tail elements split into 64 and 64 + tail. As one block, lane 0
    # would add 2**-53 to 1.0 twice and lose both; split, the two meet
    # first and survive.
    pos = np.array([0, 64, 72, length - 1])
    vals = np.array([1.0, 2.0**-53, 2.0**-53, 0.0])
    got = _dense_order_sum(length, pos, vals)
    assert got == 1.0 + 2.0**-52
    assert_same_float(got, float(dense(length, pos, vals).sum()))
    assert_same_float(got, transcribed_sum(length, pos, vals))


def hot_arm_positions(n: int, hot: int) -> np.ndarray:
    """Flat positions of the hot-arm matrix's cells: its row and column."""
    off = np.delete(np.arange(n), hot)
    return np.sort(np.concatenate([off * n + hot, hot * n + off]))


def test_square_lengths_up_to_3000_squared():
    rng = np.random.default_rng(43)
    zeros = np.zeros(3000 * 3000)  # one buffer: its slices hold each array
    for n in [*range(2, 64), *range(64, 3001, 67), 1024, 2048, 3000]:
        length = n * n
        scattered = [np.sort(rng.choice(length, size=k, replace=False)) for k in (1, min(n, 256))]
        for pos in [*scattered, hot_arm_positions(n, int(rng.integers(n)))]:
            vals = spread_values(rng, pos.size)
            got = _dense_order_sum(length, pos, vals)
            if pos.size <= 256:
                assert_same_float(got, transcribed_sum(length, pos, vals))
            zeros[pos] = vals
            assert_same_float(got, float(zeros[:length].sum()))
            zeros[pos] = 0.0


@st.composite
def sparse_matrices(draw):
    """An n x n matrix given as row-major cells: 0..n cells per row,
    values over eight decades, zeros of both signs, and sometimes values
    near the float64 maximum whose sums overflow."""
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_row = rng.integers(0, n + 1, size=n) * (rng.random(n) < draw(st.floats(0.05, 1.0)))
    rows = np.repeat(np.arange(n), per_row)
    cols = np.concatenate([np.sort(rng.choice(n, size=k, replace=False)) for k in per_row])
    vals = spread_values(rng, rows.size)
    kind = rng.random(rows.size)
    vals[kind < 0.1] = 0.0
    vals[(kind >= 0.1) & (kind < 0.2)] = -0.0
    if draw(st.booleans()):
        vals[kind > 0.97] = 1e308 * rng.random(int(np.count_nonzero(kind > 0.97)))
    return n, rows, cols.astype(np.intp), vals


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(sparse_matrices())
def test_totals_and_row_sums_equal_numpy_bit_for_bit(matrix):
    n, rows, cols, vals = matrix
    pos = rows * n + cols
    e = dense(n * n, pos, vals).reshape(n, n)
    total = _dense_order_sum(n * n, pos, vals)
    assert_same_float(total, float(e.sum()))
    assert_same_float(total, transcribed_sum(n * n, pos, vals))
    want = e.sum(axis=1)
    for i in range(n):
        row = rows == i
        assert_same_float(_dense_order_sum(n, cols[row], vals[row]), want[i])
    assert _pairwise_sums(n, rows, cols, vals, n).tobytes() == want.tobytes()


# A length whose nodes hold 8 chunks (pairs of them are one block), and one
# whose last node of 16 chunks also holds the tail and is split.
PAIRED_LENGTH = 46 * 46
SPLIT_LENGTH = 128 * 1024 + 5


def test_paired_and_split_lengths_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(47)
    for length in (PAIRED_LENGTH, SPLIT_LENGTH):
        n = int(round(length**0.5))
        scattered = np.sort(rng.choice(length, size=300, replace=False))
        for pos in (hot_arm_positions(n, int(rng.integers(n))) % length, scattered,
                    np.arange(length - 9, length)):
            pos = np.unique(pos)  # hot-arm positions past a length that is not square wrap
            vals = spread_values(rng, pos.size)
            got = _dense_order_sum(length, pos, vals)
            assert_same_float(got, float(dense(length, pos, vals).sum()))
            assert_same_float(got, transcribed_sum(length, pos, vals))


def traced_hot_arm_total(n: int) -> int:
    """The traced peak of the hot-arm matrix's first entry_sum."""
    pos = hot_arm_positions(n, n // 3)
    vals = spread_values(np.random.default_rng(n), pos.size)
    m = JointSelectionMatrix(Cells(n, *np.divmod(pos, n), vals / vals.sum()))
    tracemalloc.start()
    try:
        assert m.entry_sum > 0.0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_total_of_a_hot_arm_matrix_needs_scratch_linear_in_its_cells():
    # Growth pin, not a timing gate: 4 times the cells, 16 times the
    # entries. Scratch that followed the entries (a node table of numpy's
    # blocks, about N^2/64 nodes) would grow 16 times.
    small, large = traced_hot_arm_total(2500), traced_hot_arm_total(10_000)
    assert large <= 6 * small


def random_matrix_cells(rng: np.random.Generator, n: int, full: bool) -> Cells:
    """Every off-diagonal cell, or a share of each row drawn anew per row,
    with values over eight decades."""
    keep = ~np.eye(n, dtype=bool)
    if not full:
        keep &= rng.random((n, n)) < rng.random((n, 1))
    rows, cols = np.nonzero(keep)
    vals = spread_values(rng, rows.size)
    return Cells(n, rows, cols, vals / vals.sum())


@pytest.mark.parametrize("n", [129, 200, 1025])
def test_both_heavy_row_routes_equal_the_dense_row_sums_bit_for_bit(monkeypatch, n):
    # marginals sums the rows of three or more cells as one dense block
    # when those rows hold at most ROW_SLAB entries, and by _pairwise_sums
    # otherwise. A bound of 0 sends every such row to the replica, one of
    # n * n every one to the block; neither forms the entries.
    rng = np.random.default_rng(67 + n)
    answer = construct_zero_loss(random_feasible_instance(rng, n))
    hot = hot_arm_positions(n, n // 3)
    hot_vals = spread_values(rng, hot.size)
    cells = [
        Cells(n, answer.rows, answer.cols, answer.vals),
        Cells(n, *np.divmod(hot, n), hot_vals / hot_vals.sum()),
        random_matrix_cells(rng, n, full=False),
        random_matrix_cells(rng, n, full=True),
    ]
    for bound in (0, n * n):
        monkeypatch.setattr(core, "ROW_SLAB", bound)
        ms = [JointSelectionMatrix(c) for c in cells]
        sums = [m.marginals[0].tobytes() for m in ms]
        assert not any("entries" in vars(m) for m in ms)
        assert sums == [m.entries.sum(axis=1).tobytes() for m in ms]


def test_the_row_sums_of_a_zero_loss_answer_need_little_scratch():
    # The Dirichlet(1) answer at N = 10**4 has about 2,200 rows of three or
    # more cells. Dense copies of them, even ROW_SLAB entries at a time,
    # peak at about 17 MB; the replica needs O(cells), about 2 MB.
    n = 10_000
    answer = construct_zero_loss(random_feasible_instance(np.random.default_rng(71), n))
    m = JointSelectionMatrix(Cells(n, answer.rows, answer.cols, answer.vals))
    tracemalloc.start()
    try:
        m.marginals
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("length", [2, 3, 7, 8, 9, 127, 128, 129, 1023, 1024, 1025, 4099, 10**5 + 3])
def test_weight_rows_sum_as_one_row_does(length):
    # core._weight_rows sums the rows of a C-contiguous M x N array with
    # sum(axis=1), and takes a popularity by sum(axis=0): the same bits as
    # each row's own sum and, for two players, as A + B.
    rng = np.random.default_rng(length)
    for m in (2, 3, 5):
        w = rng.dirichlet(np.full(length, 0.3), size=m)
        w[:, rng.integers(length, size=length // 3)] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        w[0] *= 1 + 3e-10  # a row that _weight_rows scales
        assert w.flags.c_contiguous
        assert w.sum(axis=1).tobytes() == np.array([row.sum() for row in w]).tobytes()
        rows, given, pop = core._weight_rows(w.copy(), 1.0, "weights")
        assert given.tobytes() == w.tobytes() and rows is not given
        if m == 2:
            assert w.sum(axis=0).tobytes() == (w[0] + w[1]).tobytes()
            assert pop.tobytes() == (rows[0] + rows[1]).tobytes()
