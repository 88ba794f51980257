"""Reference strategies: uniform, simultaneous renormalization, random order."""

from __future__ import annotations

import numpy as np
import pytest

from jointselect import (
    DegenerateProductError,
    JointSelectionMatrix,
    TotalNotOneError,
    ValidationError,
    loss,
    random_order,
    random_order_degeneracies,
    simultaneous_renormalization,
    uniform_random,
    validate_instance,
)
from jointselect.baselines import DEGENERATE_TOL

from conftest import ORDER_TABLE1, RENORM_TABLE1, random_feasible_instance


# --------------------------------------------------------------------------
# uniform
# --------------------------------------------------------------------------

def test_uniform_entries():
    m = uniform_random(3)
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_array_equal(m.entries[off], 1.0 / 6.0)
    assert np.all(np.diagonal(m.entries) == 0.0)

    m50 = uniform_random(50)
    assert m50.entries[0, 1] == 1.0 / 2450.0


def test_uniform_cells_equal_the_dense_built_matrix_bit_for_bit():
    rng = np.random.default_rng(71)
    for n in [*range(2, 65), 1024]:
        m = uniform_random(n)
        entries = np.full((n, n), 1.0 / (n * (n - 1)))
        np.fill_diagonal(entries, 0.0)
        dense = JointSelectionMatrix(entries, 1.0)
        for name in ("rows", "cols", "vals"):
            assert getattr(m, name).tobytes() == getattr(dense, name).tobytes()
        assert m.entries.tobytes() == dense.entries.tobytes()
        assert m.entry_sum.hex() == dense.entry_sum.hex()
        inst = validate_instance(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        assert loss(m, inst).hex() == loss(dense, inst).hex()


def test_uniform_rejects_single_arm():
    with pytest.raises(ValidationError):
        uniform_random(1)


# --------------------------------------------------------------------------
# simultaneous renormalization
# --------------------------------------------------------------------------

def test_renormalization_matches_outer_product(table1):
    m = simultaneous_renormalization(table1)
    outer = np.outer(table1.a, table1.b)
    np.fill_diagonal(outer, 0.0)
    assert outer.sum() == pytest.approx(0.665, abs=1e-15)
    np.testing.assert_allclose(m.entries, outer / outer.sum(), rtol=0, atol=1e-15)


def test_renormalization_matches_printed_table(table1):
    # Frozen to the 4-decimal reference print; the (0,1) cell is
    # 0.06/0.665 = 0.0902..., within 5e-4 of its rounded print.
    m = simultaneous_renormalization(table1)
    err = np.abs(m.entries - RENORM_TABLE1)
    assert float(err[0, 1]) <= 5e-4
    assert float(err.max()) <= 5e-4


def test_renormalization_degenerate_when_one_shared_arm():
    e = [1.0, 0.0, 0.0]
    with pytest.raises(DegenerateProductError):
        simultaneous_renormalization(validate_instance(e, e))


def test_renormalization_single_surviving_product():
    inst = validate_instance([1.0, 0.0], [0.0, 1.0])
    m = simultaneous_renormalization(inst)
    np.testing.assert_array_equal(m.entries, [[0.0, 1.0], [0.0, 0.0]])


def test_renormalization_valid_on_random_instances():
    rng = np.random.default_rng(8)
    for n in (3, 5, 8):
        for _ in range(100):
            inst = random_feasible_instance(rng, n)
            m = simultaneous_renormalization(inst)
            assert m.total == 1.0
            assert loss(m, inst) >= 0.0


# --------------------------------------------------------------------------
# random order
# --------------------------------------------------------------------------

def test_random_order_matches_printed_table(table1):
    m = random_order(table1)
    assert float(np.abs(m.entries - ORDER_TABLE1).max()) <= 5e-5


def test_random_order_entry_identity(table1):
    # p[0,1] = (A_0 B_1 / (1-B_0) + B_1 A_0 / (1-A_1)) / 2
    #        = (0.3*0.2/0.5 + 0.2*0.3/0.75) / 2 = 0.1.
    m = random_order(table1)
    assert m.entries[0, 1] == pytest.approx(0.1, abs=1e-15)


def test_random_order_loss_is_small_but_nonzero(table1):
    value = loss(random_order(table1), table1)
    assert 0.0 < value <= 0.0068


def test_random_order_row_sums_table1(table1):
    pi_a, _ = random_order(table1).marginals
    np.testing.assert_allclose(
        pi_a, [0.2718, 0.2825, 0.4457], rtol=0, atol=5e-5
    )


def test_random_order_degenerate_remainder_splits_uniformly():
    # When a player concentrates on one arm, 1 - B_i hits zero for that
    # arm and the second pick falls back to a uniform split.
    inst = validate_instance([1.0, 0.0], [1.0, 0.0])
    m = random_order(inst)
    np.testing.assert_allclose(m.entries, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    assert random_order_degeneracies(inst) == (("a", 0), ("b", 0))


def test_random_order_no_degeneracies_on_table1(table1):
    assert random_order_degeneracies(table1) == ()


def test_random_order_total_is_one_on_random_instances():
    rng = np.random.default_rng(14)
    for n in (3, 4, 7):
        for _ in range(100):
            inst = random_feasible_instance(rng, n)
            m = random_order(inst)
            assert abs(float(m.entries.sum()) - 1.0) <= 1e-9


def loop_random_order(inst) -> np.ndarray:
    """random_order's dense entries, one row or column at a time."""
    n, a, b = inst.n, inst.a, inst.b
    first_a = np.empty((n, n))
    for i in range(n):
        rest = 1.0 - b[i]
        first_a[i, :] = b / rest if rest > DEGENERATE_TOL else 1.0 / (n - 1)
    first_a *= a[:, None]
    first_b = np.empty((n, n))
    for j in range(n):
        rest = 1.0 - a[j]
        first_b[:, j] = a / rest if rest > DEGENERATE_TOL else 1.0 / (n - 1)
    first_b *= b[None, :]
    entries = 0.5 * (first_a + first_b)
    np.fill_diagonal(entries, 0.0)
    return entries


def test_random_order_equals_the_loop_form_bit_for_bit():
    rng = np.random.default_rng(88)
    cases = [validate_instance(*rng.dirichlet(np.ones(n), size=2))
             for n in (2, 3, 5, 17, 64, 200) for _ in range(8)]
    for n in (2, 3, 9):
        # one-hot players fire the uniform-remainder rule, each order or both
        hot, spread = np.eye(n)[n - 1], rng.dirichlet(np.ones(n))
        cases += [validate_instance(hot, hot), validate_instance(hot, spread),
                  validate_instance(spread, hot), validate_instance(hot, np.eye(n)[0])]
    assert any(random_order_degeneracies(inst) for inst in cases)
    for inst in cases:
        assert random_order(inst).entries.tobytes() == loop_random_order(inst).tobytes()


def test_random_order_requires_unit_total():
    inst = validate_instance([0.1, 0.2], [0.15, 0.15], total=0.3)
    with pytest.raises(TotalNotOneError):
        random_order(inst)
