"""The replica of numpy's pairwise summation that gives a cell-built matrix
its dense-order total without the dense array (core._dense_order_sum).

It is checked against a plain-Python transcription of numpy's
``pairwise_sum`` kept here, and against numpy's own ``sum`` of the dense
array. A numpy that changes its summation order fails here first.
"""

from __future__ import annotations

import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointselect.core import _dense_order_sum, _layout


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


# A length whose nodes hold 8 chunks (pairs of them are one block), and one
# whose last node of 16 chunks also holds the tail and is split.
PAIRED_LENGTH = 46 * 46
SPLIT_LENGTH = 128 * 1024 + 5


def test_the_kept_layout_is_read_only():
    for length in (1024 * 1024, PAIRED_LENGTH):
        layout = _layout(length)
        for x in (layout.ends, layout.whole):
            if x is not None:
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0] = x[0]


def test_a_kept_layout_gives_the_bits_of_a_fresh_one():
    assert _layout(PAIRED_LENGTH).whole is not None
    assert _layout(SPLIT_LENGTH).split
    rng = np.random.default_rng(47)
    lengths = [1024 * 1024, 1000 * 1000, 1024 * 1024, PAIRED_LENGTH, SPLIT_LENGTH,
               SPLIT_LENGTH, PAIRED_LENGTH]
    cases = []
    for length in lengths:
        n = int(round(length**0.5))
        scattered = np.sort(rng.choice(length, size=300, replace=False))
        for pos in (hot_arm_positions(n, int(rng.integers(n))) % length, scattered,
                    np.arange(length - 9, length)):
            pos = np.unique(pos)  # hot-arm positions past a length that is not square wrap
            cases.append((length, pos, spread_values(rng, pos.size)))
    kept = [_dense_order_sum(*case) for case in cases]
    fresh = []
    for case in cases:
        _layout.cache_clear()
        fresh.append(_dense_order_sum(*case))
    for (length, pos, vals), x, y in zip(cases, kept, fresh):
        assert_same_float(x, y)
        assert_same_float(x, float(dense(length, pos, vals).sum()))


def _traced_peak(*args) -> tuple[float, int]:
    tracemalloc.start()
    try:
        x = _dense_order_sum(*args)
        return x, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_second_call_at_one_length_does_not_rebuild_the_layout():
    # Building a layout peaks at 20 to 25 bytes per node (the bit-reversed
    # indices and the cumsum); a call on a kept one needs its node sums, 8
    # bytes per node, and their first halving, 4 more.
    length = 1024 * 1024
    pos, vals = np.array([5, 70_000, 900_001]), np.array([0.25, 0.5, 0.25])
    _layout.cache_clear()
    nodes = 1 << _layout(length).depth
    _layout.cache_clear()
    first, built = _traced_peak(length, pos, vals)
    second, kept = _traced_peak(length, pos, vals)
    assert_same_float(first, second)
    assert kept < 16 * nodes < built
