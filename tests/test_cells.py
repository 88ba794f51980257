"""The cell store of JointSelectionMatrix: the Cells constructor, exact marginals, sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointselect import (
    JointSelectionMatrix,
    TotalMismatchError,
    ValidationError,
    construct_zero_loss,
    min_loss_matrix,
    sample_joint,
    validate_instance,
)
from jointselect.core import SAMPLE_CHUNK, SUM_RTOL, Cells

from conftest import random_feasible_instance


def cells_of(entries) -> Cells:
    """Every position of a dense array that is not +0.0, the diagonal included, as cells."""
    e = np.asarray(entries, dtype=np.float64)
    n = e.shape[0]
    key = np.flatnonzero((e != 0.0) | np.signbit(e))
    return Cells(n, key // n, key % n, e.ravel()[key])


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "entries, error",
    [
        ([[0.0, -np.inf], [1.0, 0.0]], ValidationError),
        ([[0.0, -np.inf], [np.inf, 0.0]], ValidationError),
        ([[0.0, np.inf], [1.0, 0.0]], ValidationError),
        ([[0.0, np.inf], [-1.0, 0.0]], ValidationError),
        ([[0.0, np.nan], [1.0, 0.0]], ValidationError),
        ([[np.nan, 0.0], [1.0, 0.0]], ValidationError),
        ([[0.0, np.nan], [-1.0, 0.0]], ValidationError),
        ([[0.0, 1e308], [1e308, 0.0]], TotalMismatchError),
        ([[1.0, 1e308], [1e308, 0.0]], ValidationError),
        ([[0.0, 1e308], [1e308, -1e-6]], ValidationError),
        ([[1.0, -1e-6], [1.0, 0.0]], ValidationError),
        ([[1.0, -1e-13], [1.0, 0.0]], ValidationError),
        ([[0.0, -1e-13], [0.9, 0.0]], TotalMismatchError),
        ([[1e-15, 0.5 - 1e-15], [0.5, 0.0]], ValidationError),
        ([[0.0, -1e-13], [1.0, 0.0]], None),
        ([[0.0, 0.5, -1e-13], [0.25, 0.0, -0.0], [0.25, 1e-16, 0.0]], None),
    ],
)
def test_cells_validate_as_the_dense_entries_do(entries, error):
    # Same error type, message and check order (non-finite, clamp, diagonal,
    # total) from the cells as from the dense entries; the same matrix if valid.
    outcomes = []
    for given in (np.array(entries), cells_of(entries)):
        try:
            m = JointSelectionMatrix(given)
        except ValidationError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((m.entries.tobytes(), m.min_entry, m.entry_sum))
    assert outcomes[0] == outcomes[1]
    if error is not None:
        assert outcomes[0][0] is error


@pytest.mark.parametrize(
    "cells, match",
    [
        (Cells(3, [0, 0], [1, 1], [0.5, 0.5]), "distinct"),
        (Cells(3, [1, 0], [0, 1], [0.5, 0.5]), "row-major"),
        (Cells(3, [0, 0], [2, 1], [0.5, 0.5]), "row-major"),
        (Cells(3, [0, 3], [1, 0], [0.5, 0.5]), "out of range"),
        (Cells(3, [0, 1], [1, -1], [0.5, 0.5]), "out of range"),
        (Cells(3, [0, 1], [1], [0.5, 0.5]), "one length"),
        (Cells(3, [0.0, 1.0], [1, 0], [0.5, 0.5]), "integers"),
        (Cells(2.0, [0, 1], [1, 0], [0.5, 0.5]), "integer n"),
        (Cells(1, [], [], []), "at least 2 arms"),
    ],
)
def test_cells_reject_malformed_positions(cells, match):
    with pytest.raises(ValidationError, match=match):
        JointSelectionMatrix(cells)


def test_cell_built_matrix_equals_the_dense_built_one():
    # Cells of value 0 (either sign) and clamped cells are dropped from the
    # store, as the dense form's nonzero scan leaves them out.
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        e = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(e, 0.0)
        e[0, 1] += 1e-3
        e /= e.sum()
        off = ~np.eye(n, dtype=bool)
        dust = off & (e == 0.0) & (rng.random((n, n)) < 0.3)
        e[dust] = rng.choice([0.0, -0.0, -1e-13, -1e-16, 1e-300], size=int(dust.sum()))
        rows, cols = np.nonzero(off)  # every off-diagonal position, zeros included
        from_cells = JointSelectionMatrix(Cells(n, rows, cols, e[rows, cols]))
        from_dense = JointSelectionMatrix(e)
        assert from_cells.entries.tobytes() == from_dense.entries.tobytes()
        assert from_cells.min_entry == from_dense.min_entry
        assert from_cells.entry_sum == from_dense.entry_sum
        for name in ("rows", "cols", "vals"):
            x, y = getattr(from_cells, name), getattr(from_dense, name)
            assert x.tobytes() == y.tobytes()
            assert not x.flags.writeable and not y.flags.writeable
        assert (from_cells.vals > 0.0).all()


def test_builders_store_only_their_cells():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 17, 100):
        hot = validate_instance(
            np.append(0.1 * rng.dirichlet(np.ones(n - 1)), 0.9),
            np.append(0.5 * rng.dirichlet(np.ones(n - 1)), 0.5),
        )
        assert min_loss_matrix(hot, n - 1).vals.size == 2 * n - 2
        if n >= 3:
            m = construct_zero_loss(random_feasible_instance(rng, n))
            assert np.count_nonzero(m.entries) == m.vals.size
            assert np.count_nonzero(m.vals > 1e-15) <= 2 * n - 1  # the rest is float dust


# --------------------------------------------------------------------------
# exactness against the dense form
# --------------------------------------------------------------------------

def random_cells(n: int, seed: int, shape: str) -> Cells:
    """0..n-1 cells per row, values spread over eight decades so that the
    summation order shows in the last bits; rows long enough to cross
    numpy's 8-lane and 128-element pairwise-sum blocks."""
    rng = np.random.default_rng(seed)
    if shape == "full":
        per_row = np.full(n, n - 1)
    elif shape == "few":
        per_row = rng.integers(0, min(n - 1, 3) + 1, size=n)
    else:
        per_row = rng.integers(0, n, size=n)
    rows, cols = [], []
    for i, k in enumerate(per_row):
        js = np.sort(rng.choice(np.delete(np.arange(n), i), size=int(k), replace=False))
        rows += [i] * int(k)
        cols += js.tolist()
    if not rows:
        rows, cols = [0], [1]
    vals = rng.random(len(rows)) * 10.0 ** rng.integers(-8, 1, size=len(rows))
    return Cells(n, rows, cols, vals / vals.sum())


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(("any", "few", "full")),
)
def test_cell_marginals_equal_the_dense_sums_bit_for_bit(n, seed, shape):
    m = JointSelectionMatrix(random_cells(n, seed, shape))
    dense = JointSelectionMatrix(np.array(m.entries))
    for pi, want in zip(m.marginals, (m.entries.sum(axis=1), m.entries.sum(axis=0))):
        assert np.array_equal(pi, want)
        assert np.array_equal(np.signbit(pi), np.signbit(want))
    for pi, want in zip(dense.marginals, m.marginals):
        assert pi.tobytes() == want.tobytes()


@pytest.mark.parametrize("draws", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 1])
@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(("any", "few", "full")),
)
def test_cell_built_and_dense_built_sample_alike(draws, n, seed, shape):
    m = JointSelectionMatrix(random_cells(n, seed, shape))
    dense = JointSelectionMatrix(np.array(m.entries))
    counts = sample_joint(m, seed=seed, draws=draws)
    np.testing.assert_array_equal(counts, sample_joint(dense, seed=seed, draws=draws))
    assert counts.sum() == draws


# --------------------------------------------------------------------------
# no N x N array until the entries are read
# --------------------------------------------------------------------------

def test_entries_are_scattered_once_on_first_read():
    # Cells as given, zeros included: -0.0 stays -0.0, a clamped cell is +0.0.
    cells = Cells(3, [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1], [0.5, -0.0, 0.25, -1e-13, 0.25, 0.0])
    m = JointSelectionMatrix(cells)
    assert "entries" not in vars(m)
    first = m.entries
    assert m.entries is first
    assert not first.flags.writeable
    want = np.zeros((3, 3))
    want[cells.rows, cells.cols] = [0.5, -0.0, 0.25, 0.0, 0.25, 0.0]
    assert first.tobytes() == want.tobytes()
    assert first.tobytes() == JointSelectionMatrix(np.array(want)).entries.tobytes()
    assert m.entry_sum == float(first.sum())


def floats_around(x: float, k: int) -> list[float]:
    """x and the k floats on either side of it."""
    up, down = [x], [x]
    for _ in range(k):
        up.append(float(np.nextafter(up[-1], np.inf)))
        down.append(float(np.nextafter(down[-1], -np.inf)))
    return down[::-1] + up[1:]


def edge_straddling_totals(cell_sum: float, dense_sum: float) -> list[float]:
    """Totals for which the 1e-9 total check passes for one of the two sums
    and fails for the other, from the floats around the edges sum +- 1e-9."""

    def fails(x: float, total: float) -> bool:
        return abs(x - total) > SUM_RTOL * max(1.0, abs(total))

    return sorted({
        total
        for s in (cell_sum, dense_sum)
        for edge in (s - 1e-9, s + 1e-9)
        for total in floats_around(edge, 300)
        if fails(cell_sum, total) != fails(dense_sum, total)
    })


def test_totals_between_the_cell_sum_and_the_dense_sum_decide_as_the_dense_form():
    # The cells' own sum decides the total check only far from its edges;
    # near them the dense-order sum does, so accept, reject and message
    # stay those of the dense entries.
    rng = np.random.default_rng(37)
    straddled = {True: 0, False: 0}
    tries = 0
    while min(straddled.values()) < 20:
        tries += 1
        assert tries < 200
        cells = random_cells(int(rng.integers(20, 60)), int(rng.integers(2**32)), "any")
        e = np.zeros((cells.n, cells.n))
        e[cells.rows, cells.cols] = cells.vals
        cell_sum, dense_sum = float(np.asarray(cells.vals).sum()), float(e.sum())
        if cell_sum == dense_sum:
            continue
        for total in edge_straddling_totals(cell_sum, dense_sum):
            outcomes = []
            for given in (cells, e):
                try:
                    m = JointSelectionMatrix(given, total)
                except ValidationError as exc:
                    outcomes.append((type(exc), str(exc)))
                else:
                    outcomes.append((m.entries.tobytes(), m.min_entry, m.entry_sum, m.total))
            assert outcomes[0] == outcomes[1]
            straddled[outcomes[0][0] is TotalMismatchError] += 1
