"""Core types: validation, loss/gradient, sampling, external formats."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointselect import (
    DimensionMismatchError,
    JointSelectionMatrix,
    JointTensorSparse,
    LengthMismatchError,
    NegativeWeightError,
    TotalMismatchError,
    TotalNotOneError,
    ValidationError,
    instance_from_json,
    instance_to_json,
    kkt_verify,
    loss,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    min_loss_matrix,
    min_loss_value,
    optimal_satisfaction_matrix,
    sample_joint,
    uniform_random,
    validate_instance,
    validate_multi,
)
from jointselect import core
from jointselect.core import MAX_DRAWS, SAMPLE_CHUNK
from jointselect.zeroloss import construct_zero_loss

from conftest import TABLE1_A, TABLE1_B, fd_gradient, random_feasible_instance, raw_loss

# Uniform loss on the running example, exact by rational arithmetic:
# sum over both players of (1/3 - w)^2 with w in {3/10, 1/4, 9/20} and
# {1/2, 1/5, 3/10} comes out to 41/600.
UNIFORM_LOSS_TABLE1 = float(Fraction(41, 600))


# --------------------------------------------------------------------------
# instance validation
# --------------------------------------------------------------------------

def test_validate_instance_table1(table1):
    np.testing.assert_array_equal(table1.a, TABLE1_A)
    np.testing.assert_array_equal(table1.b, TABLE1_B)
    assert table1.n == 3
    assert table1.total == 1.0
    np.testing.assert_allclose(table1.popularity, [0.8, 0.45, 0.75], rtol=0, atol=0)


def test_validate_instance_rejects_length_mismatch():
    with pytest.raises(LengthMismatchError):
        validate_instance([0.5, 0.5], [0.2, 0.3, 0.5])


def test_validate_instance_rejects_negative_weight():
    with pytest.raises(NegativeWeightError):
        validate_instance([0.6, 0.5, -0.1], [0.2, 0.3, 0.5])


def test_validate_instance_clamps_tiny_negative():
    inst = validate_instance([0.5, 0.5 + 5e-13, -5e-13], [0.2, 0.3, 0.5])
    assert inst.a[2] == 0.0


def test_validate_instance_rejects_total_mismatch():
    with pytest.raises(TotalMismatchError):
        validate_instance([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(TotalMismatchError):
        validate_instance([0.5, 0.5], [0.5, 0.5], total=0.9)


def test_validate_instance_accepts_non_unit_total():
    inst = validate_instance([0.1, 0.2], [0.15, 0.15], total=0.3)
    assert inst.total == 0.3
    np.testing.assert_allclose(inst.popularity, [0.25, 0.35], atol=0)


def test_validate_instance_turns_negative_zero_into_zero():
    inst = validate_instance([0.5, -0.0, 0.5], [-0.0, 0.5, 0.5])
    assert not np.signbit(inst.a).any()
    assert not np.signbit(inst.b).any()
    assert not np.signbit(inst.popularity).any()


def test_validate_instance_rejects_single_arm():
    with pytest.raises(ValidationError):
        validate_instance([1.0], [1.0])


def test_validate_instance_rejects_non_finite():
    with pytest.raises(ValidationError):
        validate_instance([np.nan, 1.0], [0.5, 0.5])


@pytest.mark.parametrize(
    "a",
    [[np.inf, 0.5, 0.5], [np.nan, -1.0, 2.0], [-np.inf, 0.5, 0.5], [0.5, 0.5, np.inf]],
    ids=["+inf", "nan-before-negative", "-inf", "+inf-last"],
)
def test_non_finite_weights_are_reported_before_negative_ones(a):
    with pytest.raises(ValidationError, match="non-finite") as exc:
        validate_instance(a, [0.4, 0.3, 0.3])
    assert not isinstance(exc.value, NegativeWeightError)


def test_weights_within_the_clamp_become_positive_zero():
    inst = validate_instance([0.5, -1e-13, 0.5], [-0.0, 0.5, 0.5])
    assert inst.a.tolist() == [0.5, 0.0, 0.5] and inst.b.tolist() == [0.0, 0.5, 0.5]
    assert not np.signbit(inst.a).any() and not np.signbit(inst.b).any()
    assert not inst.a.flags.writeable and not inst.b.flags.writeable


@pytest.mark.parametrize("a", [[0.25, 0.75], [-0.0, 1.0], [-1e-13, 1.0]])
def test_a_callers_weight_array_stays_writable_and_unchanged(a):
    given = np.array(a)
    before = given.tobytes()
    inst = validate_instance(given, [0.5, 0.5])
    assert given.flags.writeable and given.tobytes() == before
    assert inst.a is not given and not np.shares_memory(inst.a, given)


@pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf])
def test_non_finite_totals_are_a_validation_error(total):
    with pytest.raises(ValidationError, match="finite"):
        validate_instance([0.5, 0.5], [0.5, 0.5], total=total)
    with pytest.raises(ValidationError, match="finite"):
        JointSelectionMatrix(np.array([[0.0, 0.7], [0.2, 0.0]]), total)
    with pytest.raises(ValidationError, match="finite"):
        JointSelectionMatrix(core.Cells(2, [0, 1], [1, 0], [0.5, 0.5]), total)
    with pytest.raises(ValidationError, match="finite"):
        instance_from_json({"a": [0.5, 0.5], "b": [0.5, 0.5], "total": total})
    with pytest.raises(ValidationError, match="finite"):
        matrix_from_json({"n": 2, "total": total, "entries": [0, 0.5, 0.5, 0]})
    with pytest.raises(TotalNotOneError):
        core._require_unit_total(total, "sampling")


def test_sums_past_the_float_range_are_a_total_mismatch_without_a_warning():
    # Warnings are errors under the test settings, so an overflow warning
    # would fail these before the mismatch is raised.
    with pytest.raises(TotalMismatchError, match="sum to inf"):
        validate_instance([1e308, 1e308, 0.0], [0.3, 0.3, 0.4])
    with pytest.raises(TotalMismatchError, match="sum to inf"):
        JointSelectionMatrix(np.array([[0.0, 1e308], [1e308, 0.0]]))
    with pytest.raises(TotalMismatchError, match="sum to inf"):
        JointSelectionMatrix(core.Cells(3, [0, 1, 2], [1, 2, 0], [1e308, 1e308, 1e308]))
    with pytest.raises(TotalMismatchError, match="sum to inf"):
        validate_multi([[1e308, 1e308], [0.5, 0.5]])


def test_a_popularity_past_the_float_range_is_inf_without_a_warning():
    # Each weight is finite and sums to the total, but A_0 + B_0 is not.
    inst = validate_instance([1.5e308, 0.0], [1.5e308, 0.0], 1.5e308)
    assert inst.popularity[0] == np.inf and inst.popularity[1] == 0.0


def test_a_json_total_past_the_float_range_is_a_validation_error():
    with pytest.raises(ValidationError, match="finite"):
        instance_from_json({"a": [0.5, 0.5], "b": [0.5, 0.5], "total": 10**400})


@given(
    raw_a=arrays(np.float64, 5, elements=st.floats(1e-3, 1.0)),
    raw_b=arrays(np.float64, 5, elements=st.floats(1e-3, 1.0)),
)
def test_popularity_is_sum_and_totals_double(raw_a, raw_b):
    a = raw_a / raw_a.sum()
    b = raw_b / raw_b.sum()
    inst = validate_instance(a, b)
    np.testing.assert_allclose(inst.popularity, a + b, rtol=0, atol=1e-15)
    assert abs(float(inst.popularity.sum()) - 2.0) <= 1e-9


def test_validate_instance_scales_a_sum_that_is_off_within_the_tolerance():
    inst = validate_instance(np.array([0.2, 0.3, 0.5]) * (1 + 6e-10), [0.2, 0.3, 0.5])
    assert abs(float(inst.a.sum()) - 1.0) <= 4e-16
    np.testing.assert_allclose(inst.a, [0.2, 0.3, 0.5], rtol=1e-15, atol=0)
    assert not inst.a.flags.writeable
    inst = validate_instance([0.1, 0.2], [0.15, 0.15 + 1e-10], total=0.3)
    assert abs(float(inst.b.sum()) - 0.3) <= 1e-16


def test_validate_instance_keeps_a_sum_off_by_rounding_only():
    a = [0.1, 0.2, 0.3, 0.4 - 5e-13]
    inst = validate_instance(a, a[::-1])
    np.testing.assert_array_equal(inst.a, a)
    np.testing.assert_array_equal(inst.b, a[::-1])
    # all-zero weights cannot be scaled to a total that is within tolerance of 0
    np.testing.assert_array_equal(validate_instance([0.0, 0.0], [0.0, 0.0], 5e-10).a, 0.0)


def test_weights_rounded_to_nine_decimals_build_when_accepted():
    rng = np.random.default_rng(808)
    accepted = 0
    for _ in range(1500):
        n = int(rng.integers(4, 60))
        a = np.round(rng.dirichlet(np.ones(n)), 9)
        b = np.round(rng.dirichlet(np.ones(n)), 9)
        try:
            inst = validate_instance(a, b)
        except TotalMismatchError:
            continue
        accepted += 1
        result = optimal_satisfaction_matrix(inst)
        if result.branch == "zero-loss":
            pi_a, pi_b = result.matrix.marginals
            assert np.abs(pi_a - a).max() <= 1e-9 and np.abs(pi_b - b).max() <= 1e-9
        else:
            assert result.loss == pytest.approx(min_loss_value(inst), rel=1e-9)
    assert accepted >= 250


# --------------------------------------------------------------------------
# matrix validation
# --------------------------------------------------------------------------

def test_matrix_requires_exactly_zero_diagonal():
    entries = np.full((3, 3), 1.0 / 6.0)
    np.fill_diagonal(entries, 0.0)
    entries[1, 1] = 1e-15
    entries[0, 1] -= 1e-15
    with pytest.raises(ValidationError):
        JointSelectionMatrix(entries)


def test_matrix_clamps_tiny_negative_entry():
    m = JointSelectionMatrix(np.array([[0.0, -5e-13], [1.0, 0.0]]))
    assert m.entries[0, 1] == 0.0


def test_matrix_rejects_large_negative_entry():
    with pytest.raises(ValidationError):
        JointSelectionMatrix(np.array([[0.0, -1e-6], [1.0 + 1e-6, 0.0]]))


def test_matrix_rejects_sum_mismatch():
    with pytest.raises(TotalMismatchError):
        JointSelectionMatrix(np.array([[0.0, 0.5], [0.4, 0.0]]))


def test_matrix_rejects_non_square():
    with pytest.raises(ValidationError):
        JointSelectionMatrix(np.array([[0.0, 0.5, 0.5]]))


def test_matrix_entries_are_read_only():
    m = uniform_random(3)
    with pytest.raises(ValueError):
        m.entries[0, 1] = 0.5


def test_matrix_keeps_a_private_copy_of_its_entries():
    entries = np.array([[0.0, 0.25, 0.25], [0.25, 0.0, -0.0], [0.25, 0.0, 0.0]])
    m = JointSelectionMatrix(entries)
    entries[0, 1] = 0.5
    assert m.entries[0, 1] == 0.25
    # -0.0 reads back as +0.0, as a weight of -0.0 does.
    assert not np.signbit(m.entries[1, 2])


def test_matrix_errors_in_check_order():
    # Non-finite is reported before the clamp, the clamp before the diagonal,
    # and the diagonal before the sum.
    with pytest.raises(ValidationError, match="non-finite"):
        JointSelectionMatrix(np.array([[0.0, np.nan], [-1.0, 0.0]]))
    with pytest.raises(
        NegativeWeightError, match=r"negative entries beyond the -1e-12 clamp: min = -1\.000e-06"
    ):
        JointSelectionMatrix(np.array([[1.0, -1e-6], [1.0, 0.0]]))
    with pytest.raises(ValidationError, match="diagonal"):
        JointSelectionMatrix(np.array([[1.0, -1e-13], [1.0, 0.0]]))
    with pytest.raises(TotalMismatchError, match="entries sum to 0.90000000000000002"):
        JointSelectionMatrix(np.array([[0.0, -1e-13], [0.9, 0.0]]))


def owned_read_only(x, dtype=np.float64) -> np.ndarray:
    """A fresh array that owns its data, with writing switched off."""
    e = np.array(x, dtype=dtype)
    e.setflags(write=False)
    return e


DYADIC_MATRIX = [[0.0, 0.125, 0.25], [0.125, 0.0, 0.0625], [0.375, 0.0625, 0.0]]


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.array(DYADIC_MATRIX),  # writable
        lambda: owned_read_only(np.array(DYADIC_MATRIX).ravel()).reshape(3, 3),  # read-only view
        lambda: owned_read_only(np.asfortranarray(DYADIC_MATRIX)),  # not C-contiguous
        lambda: owned_read_only(DYADIC_MATRIX, dtype=np.float32),  # not float64
        lambda: owned_read_only(DYADIC_MATRIX),  # owned and read-only
    ],
    ids=["writable", "view", "fortran", "float32", "owned-read-only"],
)
def test_matrix_copies_any_other_input(make):
    e = make()
    m = JointSelectionMatrix(e)
    assert not np.shares_memory(m.entries, e)
    np.testing.assert_array_equal(m.entries, np.asarray(e, dtype=np.float64))
    assert not m.entries.flags.writeable


def test_matrix_keeps_nothing_of_an_array_made_writable_again():
    e = owned_read_only(DYADIC_MATRIX)
    m = JointSelectionMatrix(e)
    e.setflags(write=True)
    e[0, 1], e[2, 0] = 0.0, 0.5
    np.testing.assert_array_equal(m.entries, DYADIC_MATRIX)
    assert m.entry_sum == 1.0
    np.testing.assert_array_equal(m.marginals[0], [0.375, 0.1875, 0.4375])
    np.testing.assert_array_equal(m.marginals[1], [0.5, 0.1875, 0.3125])


def test_matrix_clamp_leaves_an_adopted_input_untouched():
    e = owned_read_only([[0.0, 0.5, -1e-13], [0.25, 0.0, 0.0], [0.25, -0.0, 0.0]])
    m = JointSelectionMatrix(e)
    assert e[0, 2] == -1e-13
    assert not np.shares_memory(m.entries, e)
    assert m.entries[0, 2] == 0.0 and not np.signbit(m.entries[0, 2])
    assert m.entries[2, 1] == 0.0 and not np.signbit(m.entries[2, 1])
    assert (m.vals > 0.0).all()
    assert m.entry_sum == float(m.entries.sum())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("read_only", [False, True], ids=["copied", "adopted"])
@pytest.mark.parametrize(
    "entries, error, match",
    [
        ([[0.0, -np.inf], [1.0, 0.0]], ValidationError, "non-finite"),
        ([[0.0, -np.inf], [np.inf, 0.0]], ValidationError, "non-finite"),
        ([[0.0, np.inf], [1.0, 0.0]], ValidationError, "non-finite"),
        ([[0.0, np.inf], [-1.0, 0.0]], ValidationError, "non-finite"),
        ([[0.0, np.nan], [1.0, 0.0]], ValidationError, "non-finite"),
        ([[np.nan, 0.0], [1.0, 0.0]], ValidationError, "non-finite"),
        ([[0.0, 1e308], [1e308, 0.0]], TotalMismatchError, "entries sum to inf"),
        ([[1.0, 1e308], [1e308, 0.0]], ValidationError, "diagonal"),
        ([[0.0, 1e308], [1e308, -1e-6]], NegativeWeightError, "negative entries"),
    ],
)
def test_matrix_validation_edges(entries, error, match, read_only):
    # Finite entries whose sum overflows are a total mismatch, not a
    # non-finite input; -inf and NaN are caught before the clamp.
    e = owned_read_only(entries) if read_only else np.array(entries)
    with pytest.raises(error, match=match):
        JointSelectionMatrix(e)


def test_matrix_diagonal_is_exactly_zero_after_the_clamp():
    # One diagonal rule for dense entries and cells: after the clamp every
    # diagonal entry is exactly 0. A tiny negative there becomes +0.0, and
    # a diagonal cell of value 0 is dropped.
    e = owned_read_only([[-1e-13, 0.5], [0.5, 0.0]])
    m = JointSelectionMatrix(e)
    assert e[0, 0] == -1e-13
    assert m.entries[0, 0] == 0.0 and not np.signbit(m.entries[0, 0])
    assert m.rows.tolist() == [0, 1] and m.cols.tolist() == [1, 0]
    assert m.entry_sum == float(m.entries.sum()) == 1.0
    for value in (0.0, -0.0, -1e-13):
        m = JointSelectionMatrix(core.Cells(2, [0, 0, 1], [0, 1, 0], [value, 0.5, 0.5]))
        assert m.rows.tolist() == [0, 1] and m.cols.tolist() == [1, 0]
        assert m.entries[0, 0] == 0.0
    for given in (np.array([[1e-300, 0.5], [0.5, 0.0]]),
                  core.Cells(2, [0, 0, 1], [0, 1, 0], [1e-300, 0.5, 0.5])):
        with pytest.raises(ValidationError, match="diagonal"):
            JointSelectionMatrix(given)


def test_matrix_minimum_and_total_are_those_of_the_stored_entries():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        e = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(e, 0.0)
        e[0, 1] += 1e-3
        e /= e.sum()
        e[(e == 0.0) & (rng.random((n, n)) < 0.3)] = -rng.choice([0.0, 1e-13, 1e-16])
        np.fill_diagonal(e, 0.0)
        for given in (e, owned_read_only(e)):
            m = JointSelectionMatrix(given)
            assert m.entry_sum == float(m.entries.sum())
            assert float(m.entries.min()) == 0.0 and not np.signbit(m.entries).any()


def _values_stored_by(make, vals):
    """Build with ``make`` from ``vals``, four values of one array, and return
    the arrays it stores with the place of the last value in each."""
    if make == "instance":
        inst = validate_instance(vals, [0.25] * 4)
        return [(inst.a, 3), (inst.given[0], 3)]
    if make == "multi":
        return [(validate_multi([vals, [0.25] * 4]).weights[0], 3)]
    if make == "tensor":
        return [(JointTensorSparse(([(0, 1), (1, 0), (2, 3), (3, 2)], vals), 4, 2).vals, 3)]
    rows, cols = [0, 1, 2, 3], [1, 0, 3, 2]
    if make == "matrix-dense":
        e = np.zeros((4, 4))
        e[rows, cols] = vals
        m = JointSelectionMatrix(e)
    else:
        m = JointSelectionMatrix(core.Cells(4, rows, cols, vals))
    assert m.rows.tolist() == [0, 1] and m.cols.tolist() == [1, 0]  # zero cells are dropped
    return [(m.entries.ravel(), 14)]


@pytest.mark.parametrize("companion", [0.0, -1e-6], ids=["alone", "after-a-negative"])
@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, -1e-6, -1e-13, -0.0],
    ids=["nan", "inf", "-inf", "-1e-6", "-1e-13", "-0.0"],
)
@pytest.mark.parametrize(
    "make", ["instance", "multi", "tensor", "matrix-dense", "matrix-cells"]
)
def test_one_value_rule_for_every_array(make, bad, companion):
    # Weights, tensor values and matrix entries pass one value check: a
    # non-finite value first, then a negative one beyond the clamp, each
    # with its own error type and message; what the clamp leaves, -0.0
    # among it, is stored as +0.0.
    vals = [0.5, 0.5, companion, bad]
    if not np.isfinite(bad):
        with pytest.raises(ValidationError, match="contains non-finite values$") as exc:
            _values_stored_by(make, vals)
        assert type(exc.value) is ValidationError
    elif min(bad, companion) < -1e-12:
        clamp = r"has negative entries beyond the -1e-12 clamp: min = -1\.000e-06$"
        with pytest.raises(NegativeWeightError, match=clamp):
            _values_stored_by(make, vals)
    else:
        for stored, at in _values_stored_by(make, vals):
            assert stored[at] == 0.0 and not np.signbit(stored).any()


def test_array_holding_types_compare_by_identity():
    # Their fields are arrays, so field-wise == would be ambiguous and hash
    # would fail; == and hash go by identity instead.
    hot = validate_instance([0.1, 0.1, 0.8], [0.0, 0.2, 0.8])
    makers = (
        lambda: validate_instance(TABLE1_A, TABLE1_B),
        lambda: uniform_random(3),
        lambda: validate_multi([[0.5, 0.5], [0.5, 0.5]]),
        lambda: kkt_verify(hot, min_loss_matrix(hot)),
    )
    for make in makers:
        x, y = make(), make()
        assert x == x
        assert x != y
        assert len({x, y, x}) == 2


# --------------------------------------------------------------------------
# marginals, loss, gradient
# --------------------------------------------------------------------------

def test_marginals_uniform():
    pi_a, pi_b = uniform_random(3).marginals
    np.testing.assert_allclose(pi_a, 1.0 / 3.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(pi_b, 1.0 / 3.0, rtol=0, atol=1e-15)


def test_marginals_are_read_only_and_computed_once():
    m = uniform_random(4)
    pi_a, pi_b = m.marginals
    for pi in (pi_a, pi_b):
        assert not pi.flags.writeable
        with pytest.raises(ValueError):
            pi[0] = 0.0
    again_a, again_b = m.marginals
    assert again_a is pi_a and again_b is pi_b


def test_loss_after_kkt_verify_matches_a_fresh_matrix_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5, 17, 64, 300):
        s_hot = 1.0 + 0.9 * rng.random() + 1e-8
        x = rng.uniform(s_hot - 1.0, 1.0)
        a = np.append((1.0 - x) * rng.dirichlet(np.ones(n - 1)), x)
        b = np.append((1.0 - (s_hot - x)) * rng.dirichlet(np.ones(n - 1)), s_hot - x)
        inst = validate_instance(a, b)
        m = min_loss_matrix(inst)
        assert kkt_verify(inst, m).valid
        fresh = JointSelectionMatrix(np.array(m.entries))
        assert loss(m, inst) == loss(fresh, inst) == raw_loss(fresh.entries, inst.a, inst.b)


def test_uniform_loss_on_table1(table1):
    assert loss(uniform_random(3), table1) == pytest.approx(
        UNIFORM_LOSS_TABLE1, abs=1e-15
    )


def test_loss_zero_iff_marginals_match(table1):
    exact = JointSelectionMatrix(
        np.array([[0.0, 0.0, 0.3], [0.25, 0.0, 0.0], [0.25, 0.2, 0.0]])
    )
    assert loss(exact, table1) <= 1e-30


def test_loss_dimension_mismatch(table1):
    with pytest.raises(DimensionMismatchError):
        loss(uniform_random(4), table1)


@settings(max_examples=50)
@given(
    raw=arrays(np.float64, (4, 4), elements=st.floats(1e-3, 1.0)),
    raw_a=arrays(np.float64, 4, elements=st.floats(1e-3, 1.0)),
    raw_b=arrays(np.float64, 4, elements=st.floats(1e-3, 1.0)),
)
def test_loss_brackets_worst_marginal_gap(raw, raw_a, raw_b):
    # L = |gap_A|^2 + |gap_B|^2, so max_gap^2 <= L <= 2N max_gap^2.
    entries = raw.copy()
    np.fill_diagonal(entries, 0.0)
    entries /= entries.sum()
    m = JointSelectionMatrix(entries)
    inst = validate_instance(raw_a / raw_a.sum(), raw_b / raw_b.sum())
    pi_a, pi_b = m.marginals
    gap = max(
        float(np.abs(pi_a - inst.a).max()), float(np.abs(pi_b - inst.b).max())
    )
    value = loss(m, inst)
    assert value >= gap**2 - 1e-15
    assert value <= 2 * inst.n * gap**2 + 1e-15


def gradient_off_diagonal(m, inst):
    """dL/dP[i, j] = ga[i] + gb[j] from core._gradient_terms, at i != j."""
    ga, gb = core._gradient_terms(m, inst)
    return (ga[:, None] + gb[None, :])[~np.eye(inst.n, dtype=bool)]


def test_gradient_formula_and_zero_at_match(table1):
    m = uniform_random(3)
    ga, gb = core._gradient_terms(m, table1)
    pi_a, pi_b = m.marginals
    for i in range(3):
        assert ga[i] == pytest.approx(2 * (pi_a[i] - table1.a[i]), abs=1e-15)
        assert gb[i] == pytest.approx(2 * (pi_b[i] - table1.b[i]), abs=1e-15)

    exact = JointSelectionMatrix(
        np.array([[0.0, 0.0, 0.3], [0.25, 0.0, 0.0], [0.25, 0.2, 0.0]])
    )
    np.testing.assert_allclose(gradient_off_diagonal(exact, table1), 0.0, atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        inst = random_feasible_instance(rng, n)
        raw = rng.dirichlet(np.ones(n * n - n))
        entries = np.zeros((n, n))
        entries[~np.eye(n, dtype=bool)] = raw
        m = JointSelectionMatrix(entries)
        g = gradient_off_diagonal(m, inst)
        g_fd = fd_gradient(m.entries, inst.a, inst.b)[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(g, g_fd, rtol=0, atol=1e-6)


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def test_sample_joint_is_deterministic():
    m = uniform_random(4)
    first = sample_joint(m, seed=7, draws=1000)
    second = sample_joint(m, seed=7, draws=1000)
    np.testing.assert_array_equal(first, second)
    assert not np.array_equal(first, sample_joint(m, seed=8, draws=1000))


def test_sample_joint_rejects_a_negative_seed():
    m = uniform_random(4)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        sample_joint(m, seed=-1, draws=10)
    assert sample_joint(m, seed=0, draws=10).sum() == 10


def test_sample_joint_counts_shape_and_diagonal(table1):
    from jointselect import optimal_satisfaction_matrix

    m = optimal_satisfaction_matrix(table1).matrix
    counts = sample_joint(m, seed=0, draws=5000)
    assert counts.dtype == np.int64
    assert counts.sum() == 5000
    assert np.all(np.diagonal(counts) == 0)
    assert np.all(counts >= 0)


def test_sample_joint_point_mass():
    m = JointSelectionMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    counts = sample_joint(m, seed=3, draws=200)
    assert counts[0, 1] == 200


def test_sample_joint_marginals_converge(table1):
    from jointselect import optimal_satisfaction_matrix

    m = optimal_satisfaction_matrix(table1).matrix
    counts = sample_joint(m, seed=123, draws=100_000)
    freq_a = counts.sum(axis=1) / counts.sum()
    freq_b = counts.sum(axis=0) / counts.sum()
    assert float(np.abs(freq_a - table1.a).max()) <= 0.02
    assert float(np.abs(freq_b - table1.b).max()) <= 0.02


@pytest.mark.parametrize(
    "draws", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 5]
)
def test_sample_joint_chunks_match_one_shot_draw(draws):
    # Drawing in chunks continues the PCG64 stream, so the counts equal the
    # one-shot inverse-CDF formula bit for bit.
    rng = np.random.default_rng(9)
    entries = rng.random((5, 5))
    np.fill_diagonal(entries, 0.0)
    m = JointSelectionMatrix(entries / entries.sum())
    off = ~np.eye(5, dtype=bool)
    cdf = np.cumsum(m.entries[off])
    cdf /= cdf[-1]
    u = np.random.default_rng(31).random(draws)
    expected = np.zeros((5, 5), dtype=np.int64)
    expected[off] = np.bincount(np.searchsorted(cdf, u, side="right"), minlength=20)
    np.testing.assert_array_equal(sample_joint(m, seed=31, draws=draws), expected)


def full_off_diagonal_counts(m, seed: int, draws: int) -> np.ndarray:
    """Counts from the inverse CDF over every off-diagonal cell, zeros included."""
    n = m.n
    off = ~np.eye(n, dtype=bool)
    cdf = np.cumsum(m.entries[off])
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(draws)
    counts = np.zeros((n, n), dtype=np.int64)
    counts[off] = np.bincount(np.searchsorted(cdf, u, side="right"), minlength=n * n - n)
    return counts


def sparse_matrices():
    """Matrices whose off-diagonal cells include exact zeros, -0.0 and dust."""
    rng = np.random.default_rng(41)
    hot = validate_instance([0.05, 0.05, 0.1, 0.8], [0.1, 0.0, 0.1, 0.8])
    yield JointSelectionMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    yield JointSelectionMatrix(
        np.array([[0.0, -0.0, 0.4, 1e-16], [0.0, 0.0, 0.0, 0.1], [-0.0, 0.3, 0.0, 0.0],
                  [0.2 - 1e-16, 0.0, 0.0, 0.0]])
    )
    yield JointSelectionMatrix(np.asfortranarray(min_loss_matrix(hot).entries))
    yield min_loss_matrix(hot)  # hot arm last: row 0 leads with zeros
    yield min_loss_matrix(validate_instance(hot.a[::-1], hot.b[::-1]))
    for n in (4, 9, 33):
        yield construct_zero_loss(random_feasible_instance(rng, n))
    yield construct_zero_loss(validate_instance([0.5, 0.0, 0.25, 0.25], [0.0, 0.5, 0.25, 0.25]))
    yield dyadic_matrix(rng, 9)  # every cdf value on an edge of the 2**12 buckets
    yield JointSelectionMatrix(random_off_diagonal(rng, 40))  # 1,560 cells: 2**14 buckets


def random_off_diagonal(rng, n: int) -> np.ndarray:
    e = rng.random((n, n))
    np.fill_diagonal(e, 0.0)
    return e / e.sum()


def dyadic_matrix(rng, n: int) -> JointSelectionMatrix:
    """Cells that are multiples of 2**-12 on a random support, summing to 1 exactly."""
    off = ~np.eye(n, dtype=bool)
    p = rng.random(n * n - n) * (rng.random(n * n - n) < 0.5)
    p[0] += 1.0
    e = np.zeros((n, n))
    e[off] = rng.multinomial(1 << 12, p / p.sum()) / (1 << 12)
    return JointSelectionMatrix(e)


@pytest.mark.parametrize("draws", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 5])
def test_sample_joint_over_the_support_matches_the_full_formula(draws):
    for k, m in enumerate(sparse_matrices()):
        np.testing.assert_array_equal(
            sample_joint(m, seed=k, draws=draws), full_off_diagonal_counts(m, k, draws)
        )


def test_sample_joint_matches_the_full_formula_on_random_sparse_matrices():
    rng = np.random.default_rng(43)
    for k in range(300):
        n = int(rng.integers(2, 12))
        e = rng.random((n, n)) * (rng.random((n, n)) < rng.random())
        e[rng.random((n, n)) < 0.2] = rng.choice([-0.0, 1e-16, 1e-300])
        np.fill_diagonal(e, 0.0)
        if not e.any():
            e[0, 1] = 1.0
        m = JointSelectionMatrix(e / e.sum())
        np.testing.assert_array_equal(
            sample_joint(m, seed=k, draws=2000), full_off_diagonal_counts(m, k, 2000)
        )
    # dyadic cells, whose cdf values fall on bucket edges, and matrices of
    # 552 to 1,560 cells, whose guide tables grow past 2**12 buckets
    for k in range(300, 340):
        if k % 2:
            m = dyadic_matrix(rng, int(rng.integers(2, 23)))
        else:
            m = JointSelectionMatrix(random_off_diagonal(rng, int(rng.integers(24, 41))))
        np.testing.assert_array_equal(
            sample_joint(m, seed=k, draws=2000), full_off_diagonal_counts(m, k, 2000)
        )


def test_sample_joint_memory_does_not_grow_with_draws():
    # Uniforms come SAMPLE_CHUNK at a time and the guide table is O(cells),
    # so a million draws peak no higher than a hundred thousand.
    m = construct_zero_loss(random_feasible_instance(np.random.default_rng(47), 48))
    peaks = []
    for draws in (10**5, 10**6):
        tracemalloc.start()
        try:
            sample_joint(m, seed=5, draws=draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 2_000_000
    assert peaks[1] <= 1.1 * peaks[0]


def test_sample_joint_rejects_bad_arguments():
    m = uniform_random(3)
    with pytest.raises(ValidationError):
        sample_joint(m, seed=0, draws=0)
    scaled = JointSelectionMatrix(0.5 * m.entries, total=0.5)
    with pytest.raises(TotalNotOneError):
        sample_joint(scaled, seed=0, draws=10)
    # Counts are merged as floats, exact up to 2**53 draws; 10**20 draws
    # once ran without end.
    assert MAX_DRAWS == 2**53
    for draws in (MAX_DRAWS + 1, 10**20):
        with pytest.raises(ValidationError, match=f"draws must be <= 2\\*\\*53, got {draws}"):
            sample_joint(m, seed=0, draws=draws)


# --------------------------------------------------------------------------
# external formats
# --------------------------------------------------------------------------

def test_instance_json_round_trip(table1):
    obj = instance_to_json(table1)
    back = instance_from_json(json.loads(json.dumps(obj)))
    np.testing.assert_array_equal(back.a, table1.a)
    np.testing.assert_array_equal(back.b, table1.b)
    assert back.total == table1.total


def test_instance_from_json_defaults_total_to_one():
    inst = instance_from_json({"a": TABLE1_A, "b": TABLE1_B})
    assert inst.total == 1.0


def test_instance_from_json_rejects_bad_payloads():
    with pytest.raises(ValidationError):
        instance_from_json([1, 2, 3])
    with pytest.raises(ValidationError):
        instance_from_json({"a": TABLE1_A})
    with pytest.raises(ValidationError):
        instance_from_json({"a": TABLE1_A, "b": TABLE1_B, "total": "one"})


def test_weights_that_numpy_reads_as_no_reals_are_a_validation_error():
    for bad in ([0.5, "x"], {}, [0.5, []], [10**400, 0]):
        with pytest.raises(ValidationError, match="array of real numbers"):
            validate_instance(bad, [0.5, 0.5])
    # What numpy reads as reals is taken as it reads it.
    inst = validate_instance(["0.5", "0.5"], [True, False])
    assert inst.a.tolist() == [0.5, 0.5] and inst.b.tolist() == [1.0, 0.0]


def test_matrix_json_round_trip_is_exact():
    rng = np.random.default_rng(5)
    raw = rng.dirichlet(np.ones(12))
    entries = np.zeros((4, 4))
    entries[~np.eye(4, dtype=bool)] = raw
    m = JointSelectionMatrix(entries)
    obj = json.loads(json.dumps(matrix_to_json(m)))
    back = matrix_from_json(obj)
    np.testing.assert_array_equal(back.entries, m.entries)
    assert back.total == m.total


def test_matrix_from_json_ignores_extra_keys():
    obj = matrix_to_json(uniform_random(3))
    obj["loss"] = 0.25
    obj["branch"] = "zero-loss"
    back = matrix_from_json(obj)
    np.testing.assert_array_equal(back.entries, uniform_random(3).entries)


def test_matrix_from_json_rejects_bad_payloads():
    good = matrix_to_json(uniform_random(3))
    with pytest.raises(ValidationError):
        matrix_from_json({"entries": good["entries"]})
    with pytest.raises(ValidationError):
        matrix_from_json({"n": 3, "entries": good["entries"][:-1]})
    with pytest.raises(ValidationError):
        matrix_from_json({"n": True, "entries": good["entries"]})


def test_matrix_from_json_rejects_non_numeric_entries_and_total():
    with pytest.raises(ValidationError, match="array of real numbers"):
        matrix_from_json({"n": 2, "entries": [0, "x", 1, 0]})
    for total in (None, "1", True):
        with pytest.raises(ValidationError, match='"total" must be a number'):
            matrix_from_json({"n": 2, "entries": [0, 0.5, 0.5, 0], "total": total})


def test_matrix_csv_round_trips_and_zeroes_diagonal():
    m = uniform_random(3)
    text = matrix_to_csv(m)
    rows = [line.split(",") for line in text.strip().splitlines()]
    parsed = np.array([[float(cell) for cell in row] for row in rows])
    np.testing.assert_array_equal(parsed, m.entries)
    assert all(float(rows[i][i]) == 0.0 for i in range(3))
