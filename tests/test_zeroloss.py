"""Zero-loss construction: base cases, fills, reduction, full recursion."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import jointselect.zeroloss as zeroloss
from jointselect import (
    InternalInvariantError,
    JointSelectError,
    PopularityExceedsTotalError,
    TotalMismatchError,
    ValidationError,
    base_case_three,
    construct_zero_loss,
    fill_row_col,
    loss,
    reduce_instance,
    validate_instance,
)

from conftest import random_feasible_instance

# Worked four-arm induction examples, chosen so every popularity stays
# below the total. The first lands in fill case 1, the second in case 2
# (A_K exceeds B_V, so row K spills onto arm 1 with a 0.05 remainder).
CASE1_A = [0.1, 0.2, 0.3, 0.4]
CASE1_B = [0.2, 0.2, 0.1, 0.5]
CASE2_A = [0.25, 0.1, 0.15, 0.5]
CASE2_B = [0.1, 0.35, 0.35, 0.2]


# --------------------------------------------------------------------------
# two arms
# --------------------------------------------------------------------------

def test_two_arms_exact_construction():
    inst = validate_instance([0.4, 0.6], [0.6, 0.4])
    m = construct_zero_loss(inst)
    np.testing.assert_array_equal(m.entries, [[0.0, 0.4], [0.6, 0.0]])
    assert loss(m, inst) == 0.0


def test_random_feasible_two_arm_instances_build_with_zero_loss():
    rng = np.random.default_rng(23)
    for _ in range(200):
        inst = random_feasible_instance(rng, 2)
        assert float(inst.popularity.max()) <= 1.0
        m = construct_zero_loss(inst)
        assert m.vals.tolist() == inst.a.tolist()
        assert loss(m, inst) == 0.0


def test_two_arms_infeasible_unless_popularities_match_total():
    with pytest.raises(PopularityExceedsTotalError):
        construct_zero_loss(validate_instance([0.7, 0.3], [0.7, 0.3]))


# --------------------------------------------------------------------------
# three arms
# --------------------------------------------------------------------------

def test_base_case_three_table1(table1):
    m = base_case_three(table1)
    expected = np.array([[0.0, 0.0, 0.3], [0.25, 0.0, 0.0], [0.25, 0.2, 0.0]])
    np.testing.assert_allclose(m.entries, expected, rtol=0, atol=1e-15)
    pi_a, pi_b = m.marginals
    np.testing.assert_allclose(pi_a, table1.a, rtol=0, atol=1e-15)
    np.testing.assert_allclose(pi_b, table1.b, rtol=0, atol=1e-15)


def test_base_case_three_uniform_sub_total():
    inst = validate_instance([0.3] * 3, [0.3] * 3, total=0.9)
    m = base_case_three(inst)
    expected = np.array([[0.0, 0.0, 0.3], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0]])
    np.testing.assert_allclose(m.entries, expected, rtol=0, atol=1e-15)


def test_three_arm_interval_table1(table1):
    lo, hi = zeroloss._interval(table1.a, table1.b, table1.total)
    assert lo == 0.0
    assert hi == pytest.approx(0.2, abs=1e-15)


def test_three_arm_interval_is_nonempty_when_feasible():
    rng = np.random.default_rng(21)
    for _ in range(500):
        inst = random_feasible_instance(rng, 3)
        lo, hi = zeroloss._interval(inst.a, inst.b, inst.total)
        assert lo <= hi + 1e-12


def test_base_case_three_rejects_hot_instance():
    inst = validate_instance([0.6, 0.3, 0.1], [0.6, 0.3, 0.1])
    with pytest.raises(PopularityExceedsTotalError):
        base_case_three(inst)


def test_base_case_three_rejects_wrong_size():
    with pytest.raises(ValidationError):
        base_case_three(validate_instance([0.5, 0.5], [0.5, 0.5]))


# --------------------------------------------------------------------------
# induction step: fill
# --------------------------------------------------------------------------

def test_fill_case1_worked_example():
    inst = validate_instance(CASE1_A, CASE1_B)
    fill = fill_row_col(inst, 0, 3)
    assert fill.case == 1
    assert fill.cut is None
    np.testing.assert_allclose(fill.row_k, [0.0, 0.0, 0.0, 0.1], atol=1e-15)
    np.testing.assert_allclose(fill.col_k, [0.0, 0.0, 0.0, 0.2], atol=1e-15)


def test_fill_case2_worked_example():
    inst = validate_instance(CASE2_A, CASE2_B)
    fill = fill_row_col(inst, 0, 3)
    assert fill.case == 2
    assert fill.cut == 1
    np.testing.assert_allclose(fill.row_k, [0.0, 0.05, 0.0, 0.2], atol=1e-15)
    np.testing.assert_allclose(fill.col_k, [0.0, 0.0, 0.0, 0.1], atol=1e-15)


def test_fill_case3_is_mirror_of_case2():
    direct = fill_row_col(validate_instance(CASE2_A, CASE2_B), 0, 3)
    swapped = fill_row_col(validate_instance(CASE2_B, CASE2_A), 0, 3)
    assert swapped.case == 3
    assert swapped.cut == direct.cut
    np.testing.assert_array_equal(swapped.row_k, direct.col_k)
    np.testing.assert_array_equal(swapped.col_k, direct.row_k)


def dust_fill(case: int, excess: float):
    """Fill K = 0 against V = 1 where the spill weights run out ``excess`` short.

    Case 2 spills A_K over B; case 3 is the mirror image, B_K over A.
    """
    spill = [0.0, 0.25, 0.125, 0.0625]
    need = 0.25 + 0.125 + 0.0625 + excess
    own = [need, 0.0, 0.0, 0.0]
    a, b = (own, spill) if case == 2 else (spill, own)
    keys, vals = [], []
    alive = [False, True, True, True]  # K = 0 is peeled
    got_case, cut = zeroloss._fill(a, b, 0, 1, 4, alive, 0, 0, 1e-9, keys, vals)
    row, col = split_cells(0, 4, keys, vals)
    return need, (got_case, cut, row, col)


def split_cells(k: int, n: int, keys, vals):
    """The (j, value) cells of row K and the (i, value) cells of column K, in fill order."""
    row = [(key - k * n, x) for key, x in zip(keys, vals) if key // n == k]
    col = [(key // n, x) for key, x in zip(keys, vals) if key // n != k]
    return row, col


@pytest.mark.parametrize("case", [2, 3])
def test_spill_parks_float_dust_opposite_v(case):
    need, (got_case, cut, row, col) = dust_fill(case, 1e-12)
    rem = need - 0.25 - 0.125 - 0.0625
    assert 0.0 < rem <= 1e-9
    assert got_case == case
    assert cut is None
    spilled = dict(row if case == 2 else col)
    assert spilled[1] == 0.25 + rem
    assert abs(sum(spilled.values()) - need) <= 1e-15


@pytest.mark.parametrize("case", [2, 3])
def test_spill_rejects_a_remainder_beyond_tolerance(case):
    with pytest.raises(InternalInvariantError):
        dust_fill(case, 1e-6)


def test_fill_budget_identities_hold_at_random():
    rng = np.random.default_rng(33)
    for n in (4, 5, 6, 8):
        for _ in range(200):
            inst = random_feasible_instance(rng, n)
            s = inst.popularity
            k = int(np.argmin(s))
            masked = s.copy()
            masked[k] = -np.inf
            v = int(np.argmax(masked))
            fill = fill_row_col(inst, k, v)
            # Row K grants exactly A_K, column K exactly B_K, and no arm
            # gives up more weight than it has.
            assert float(fill.row_k.sum()) == pytest.approx(inst.a[k], abs=1e-12)
            assert float(fill.col_k.sum()) == pytest.approx(inst.b[k], abs=1e-12)
            assert fill.row_k[k] == 0.0 and fill.col_k[k] == 0.0
            assert np.all(fill.row_k <= inst.b + 1e-12)
            assert np.all(fill.col_k <= inst.a + 1e-12)


def test_fill_preconditions():
    inst = validate_instance(CASE1_A, CASE1_B)
    with pytest.raises(ValidationError):
        fill_row_col(inst, 1, 3)  # arm 1 is not least popular
    with pytest.raises(ValidationError):
        fill_row_col(inst, 0, 0)
    with pytest.raises(ValidationError):
        fill_row_col(validate_instance([0.3] * 3, [0.3] * 3, 0.9), 0, 2)


def test_fill_case_dispatch_is_total_and_unambiguous():
    # Sweep a 0.05-step grid of four-arm preference pairs with max S <= 1:
    # exactly one fill case must claim every instance.
    step = 0.05
    ticks = np.arange(0, 21)
    grid = [
        (i, j, k, 20 - i - j - k)
        for i, j, k in itertools.product(ticks, repeat=3)
        if i + j + k <= 20
    ]
    weights = np.array(grid, dtype=np.float64) * step
    hits = {1: 0, 2: 0, 3: 0}
    rng = np.random.default_rng(9)
    pick = rng.choice(len(weights), size=120, replace=False)
    for ia in pick:
        for ib in pick[::-1][:40]:
            a, b = weights[ia], weights[ib]
            s = a + b
            if s.max() > 1.0:
                continue
            inst = validate_instance(a, b)
            k = int(np.argmin(s))
            masked = s.copy()
            masked[k] = -np.inf
            v = int(np.argmax(masked))
            fill = fill_row_col(inst, k, v)  # CaseDispatchError would fail here
            case_one = a[k] <= b[v] and b[k] <= a[v]
            case_two = a[k] > b[v]
            case_three = b[k] > a[v]
            assert case_one or case_two or case_three
            assert not (case_two and case_three)
            hits[fill.case] += 1
    assert all(hits[c] > 0 for c in (1, 2, 3))


# A_K > B_V and B_K > A_V, each by under one ulp, while every popularity
# rounds to 0.5: a tie, which goes to K = 0 and V = 1.
TIED_A = [0.30000000000000004, 0.19999999999999998, 0.25, 0.25]
TIED_B = [0.2, 0.3, 0.25, 0.25]


def test_fill_takes_case_two_when_both_overflows_hold_by_rounding():
    inst = validate_instance(TIED_A, TIED_B)
    assert inst.popularity.tolist() == [0.5] * 4
    assert TIED_A[0] > TIED_B[1] and TIED_B[0] > TIED_A[1]
    fill = fill_row_col(inst, 0, 1)
    assert fill.case == 2 and fill.cut == 2
    assert fill.row_k[2] < 1e-16  # the sub-ulp excess, spilled as dust
    m = construct_zero_loss(inst)
    assert loss(m, inst) < 1e-30


# --------------------------------------------------------------------------
# induction step: reduction
# --------------------------------------------------------------------------

def test_reduce_case1_worked_example():
    inst = validate_instance(CASE1_A, CASE1_B)
    reduced = reduce_instance(inst, fill_row_col(inst, 0, 3))
    np.testing.assert_allclose(reduced.a, [0.2, 0.3, 0.2], rtol=0, atol=1e-15)
    np.testing.assert_allclose(reduced.b, [0.2, 0.1, 0.4], rtol=0, atol=1e-15)
    assert reduced.total == pytest.approx(0.7, abs=1e-15)


def test_reduce_case2_worked_example():
    inst = validate_instance(CASE2_A, CASE2_B)
    reduced = reduce_instance(inst, fill_row_col(inst, 0, 3))
    np.testing.assert_allclose(reduced.a, [0.1, 0.15, 0.4], rtol=0, atol=1e-15)
    np.testing.assert_allclose(reduced.b, [0.3, 0.35, 0.0], rtol=0, atol=1e-15)
    assert reduced.total == pytest.approx(0.65, abs=1e-15)


def test_reduce_preserves_feasibility_at_random():
    rng = np.random.default_rng(44)
    for n in (4, 6, 9):
        for _ in range(150):
            inst = random_feasible_instance(rng, n)
            s = inst.popularity
            k = int(np.argmin(s))
            masked = s.copy()
            masked[k] = -np.inf
            v = int(np.argmax(masked))
            reduced = reduce_instance(inst, fill_row_col(inst, k, v))
            assert reduced.n == n - 1
            assert float(reduced.popularity.max()) <= reduced.total + 1e-9


def test_reduce_drops_a_zero_preference_arm():
    # An arm nobody wants peels off with an all-zero fill, leaving the
    # other preferences untouched.
    inst = validate_instance([0.0, 0.2, 0.3, 0.5], [0.0, 0.5, 0.3, 0.2])
    fill = fill_row_col(inst, 0, 1)
    np.testing.assert_array_equal(fill.row_k, np.zeros(4))
    np.testing.assert_array_equal(fill.col_k, np.zeros(4))
    reduced = reduce_instance(inst, fill)
    np.testing.assert_array_equal(reduced.a, [0.2, 0.3, 0.5])
    np.testing.assert_array_equal(reduced.b, [0.5, 0.3, 0.2])
    assert reduced.total == 1.0


def test_reduce_rejects_a_fill_that_leaves_an_arm_too_popular():
    # This fill takes both of arm 0's weights from arm 2 alone: the reduced
    # weights still sum to 0.8 each, but arm 1 keeps S = 0.9 against that total.
    inst = validate_instance([0.1, 0.45, 0.225, 0.225], [0.1, 0.45, 0.225, 0.225])
    fill = zeroloss.RowColFill(0, np.array([0, 0, 0.1, 0]), np.array([0, 0, 0.1, 0]), 1)
    with pytest.raises(InternalInvariantError,
                       match="reduction produced an arm more popular than the reduced total"):
        reduce_instance(inst, fill)


# --------------------------------------------------------------------------
# full construction
# --------------------------------------------------------------------------

def test_construct_matches_base_case_at_three(table1):
    np.testing.assert_array_equal(
        construct_zero_loss(table1).entries, base_case_three(table1).entries
    )


def test_construct_rejects_hot_instances():
    inst = validate_instance([0.3, 0.3, 0.2, 0.2], [0.8, 0.1, 0.05, 0.05])
    with pytest.raises(PopularityExceedsTotalError):
        construct_zero_loss(inst)


def test_construct_zero_loss_at_random_all_sizes():
    rng = np.random.default_rng(1000)
    for n in range(3, 13):
        worst = 0.0
        for _ in range(1000):
            inst = random_feasible_instance(rng, n)
            m = construct_zero_loss(inst)
            worst = max(worst, loss(m, inst))
        assert worst <= n * 1e-15, f"N={n}: worst loss {worst:.3e}"


def test_construct_handles_boundary_popularity():
    # Family-(ii)-style instance where the top arm sits exactly at S = 1.
    a = np.array([1.0, 1.0, 2.0, 4.0]) / 8.0
    inst = validate_instance(a, a)
    m = construct_zero_loss(inst)
    assert loss(m, inst) <= 4e-15


def test_construct_identical_uniform_preferences():
    for n in (3, 5, 8):
        a = np.full(n, 1.0 / n)
        inst = validate_instance(a, a)
        assert loss(construct_zero_loss(inst), inst) <= n * 1e-15


# --------------------------------------------------------------------------
# the check on the finished answer
# --------------------------------------------------------------------------

def edit_fills(monkeypatch, edit):
    """Pass the cells of the peel's fills through ``edit(p, row, col)``, p counting from 0.

    The weights keep what the fill took off them: only the cells the
    answer is assembled from change.
    """
    real = zeroloss._fill
    count = itertools.count()

    def edited(a, b, k, v, n, alive, start_a, start_b, tol, keys, vals):
        first = len(keys)
        case, cut = real(a, b, k, v, n, alive, start_a, start_b, tol, keys, vals)
        row, col = edit(next(count), *split_cells(k, n, keys[first:], vals[first:]))
        cells = [(k * n + j, x) for j, x in row] + [(i * n + k, x) for i, x in col]
        keys[first:], vals[first:] = zip(*cells)
        return case, cut

    monkeypatch.setattr(zeroloss, "_fill", edited)


def move(amounts):
    """At fill p, move ``amounts[p]`` from the first column cell to the first row cell."""

    def edit(p, row, col):
        d = amounts.get(p, 0.0)
        (j, x), (i, y) = row[0], col[0]
        row[0], col[0] = (j, x + d), (i, y - d)
        return row, col

    return edit


def first_row_cell(value):
    """At the first fill, replace the first row cell's value x with ``value(x)``."""

    def edit(p, row, col):
        if p == 0:
            row[0] = (row[0][0], value(row[0][1]))
        return row, col

    return edit


# Both of its peels are case 1 fills, which leave every weight they touch
# above 1e-6, so a shift of 1e-6 clamps nothing.
FIVE_ARMS = ([0.1, 0.2, 0.3, 0.2, 0.2], [0.15, 0.2, 0.2, 0.25, 0.2])


def test_final_check_catches_marginals_that_no_sum_shows(monkeypatch):
    # Moving 1e-6 from K's column to K's row at one peel and back at the
    # next keeps the total and both players' weight sums, not the marginals.
    edit_fills(monkeypatch, move({0: 1e-6, 1: -1e-6}))
    with pytest.raises(InternalInvariantError, match="assembled marginals miss"):
        construct_zero_loss(validate_instance(*FIVE_ARMS))


@pytest.mark.parametrize(
    "value",
    [lambda x: x + 1e-6, lambda x: x - 1e-6, lambda x: -1e-6],
    ids=["up", "down", "negative"],
)
def test_a_skewed_or_negative_cell_is_caught_at_the_boundary(monkeypatch, value):
    edit_fills(monkeypatch, first_row_cell(value))
    with pytest.raises(JointSelectError):
        construct_zero_loss(validate_instance(*FIVE_ARMS))


# --------------------------------------------------------------------------
# one validation per call, and the peel's three-arm block
# --------------------------------------------------------------------------

def test_construct_validates_nothing_beyond_its_input(monkeypatch):
    rng = np.random.default_rng(20230)
    insts = [validate_instance(*FIVE_ARMS), validate_instance(CASE2_A, CASE2_B)]
    insts += [random_feasible_instance(rng, n) for n in (4, 6, 17, 64, 300)]
    insts.append(validate_instance(np.full(40, 1 / 40), np.full(40, 1 / 40)))

    def refuse(*args, **kwargs):
        raise AssertionError("construct_zero_loss validated a second instance")

    monkeypatch.setattr(zeroloss, "validate_instance", refuse)
    for inst in insts:
        pi_a, pi_b = construct_zero_loss(inst).marginals
        assert np.abs(pi_a - inst.a).max() <= 1e-9
        assert np.abs(pi_b - inst.b).max() <= 1e-9


def three_arm_inputs():
    """Three-arm weights to a total t: feasible or not, tied, with zeros,
    with sums 1e-11 off (scaled) and 2e-9 off (rejected)."""
    rng = np.random.default_rng(20231)
    for t in (1.0, 0.6180339887498949, 0.05, 3e-4):
        for rep in range(60):
            a, b = t * rng.dirichlet(np.ones(3)), t * rng.dirichlet(np.ones(3))
            kind = rep % 5
            if kind == 1:  # every popularity 2t/3 up to rounding
                while a.max() > 2 * t / 3:
                    a = t * rng.dirichlet(np.ones(3))
                b = 2 * t / 3 - a
            elif kind == 2:
                a[rng.integers(3)] = 0.0
                b[rng.choice(3, int(rng.integers(1, 3)), replace=False)] = 0.0
                a *= t / a.sum()
                b *= t / b.sum()
            elif kind == 3:
                (a if rep % 2 else b)[rng.integers(3)] += 1e-11
            elif kind == 4:
                (a if rep % 2 else b)[rng.integers(3)] += 2e-9
            yield a.tolist(), b.tolist(), t


def outcome(build):
    try:
        return np.array(build()).tobytes()
    except JointSelectError as exc:
        return type(exc), str(exc)


def stored_cells(m):
    """A matrix's stored cells, their positions and the bits of their values."""
    return np.concatenate((m.rows, m.cols, m.vals.view(np.int64)))


def test_peel_base_block_equals_the_base_case_of_an_instance():
    # At N = 3 the peel runs no fill and builds the base block alone, so
    # construct_zero_loss stores the cells base_case_three stores.
    seen = set()
    for a, b, t in three_arm_inputs():
        def peel():
            w_a, w_b = zeroloss._base_weights(a, t), zeroloss._base_weights(b, t)
            return zeroloss._base_values(w_a, w_b, t)

        def instance():
            m = base_case_three(validate_instance(a, b, t))
            return m.entries[zeroloss._BASE_ROWS, zeroloss._BASE_COLS]

        got = outcome(peel)
        assert got == outcome(instance)
        assert outcome(lambda: stored_cells(construct_zero_loss(validate_instance(a, b, t)))) == (
            outcome(lambda: stored_cells(base_case_three(validate_instance(a, b, t))))
        )
        if isinstance(got, tuple):
            seen.add(got[0])
        else:
            inst = validate_instance(a, b, t)
            seen.add("scaled" if inst.a is not inst.given[0] or inst.b is not inst.given[1]
                     else "built")
    assert seen == {"built", "scaled", PopularityExceedsTotalError, TotalMismatchError}
