"""Sketch tier: M players on N arms, tuple tensors, feasibility verdicts."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from jointselect import (
    DimensionMismatchError,
    Feasibility,
    JointSelectionMatrix,
    JointTensorSparse,
    NonDistinctKeyError,
    TooFewArmsError,
    TotalMismatchError,
    ValidationError,
    feasibility_verdict,
    loss,
    min_loss_value,
    multi_loss,
    optimal_satisfaction_matrix,
    solve_min_loss,
    solve_multi_min_loss,
    tensor_from_matrix,
    tensor_marginals,
    validate_multi,
)
from jointselect.errors import DimensionTooLargeError

from conftest import TABLE1_A, TABLE1_B, random_feasible_instance, random_hot_instance


def multi_from_instance(inst):
    return validate_multi(np.vstack([inst.a, inst.b]))


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_validate_multi_basic():
    prefs = validate_multi([TABLE1_A, TABLE1_B])
    assert prefs.n_players == 2
    assert prefs.n_arms == 3
    np.testing.assert_allclose(prefs.popularity, [0.8, 0.45, 0.75], atol=1e-15)


def test_validate_multi_turns_negative_zero_into_zero():
    prefs = validate_multi([[0.5, -0.0, 0.5], [-0.0, 0.5, 0.5]])
    assert not np.signbit(prefs.weights).any()
    assert not np.signbit(prefs.popularity).any()


def test_validate_multi_rejects_bad_rows():
    with pytest.raises(TotalMismatchError):
        validate_multi([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        validate_multi([[0.5, 0.5, 0.0], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        validate_multi([[1.0, 0.0]])  # one player is not a joint problem
    with pytest.raises(ValidationError):
        validate_multi([[0.6, 0.5, -0.1], [0.2, 0.3, 0.5]])


# --------------------------------------------------------------------------
# tensors
# --------------------------------------------------------------------------

def test_tensor_rejects_repeated_arm_in_key():
    with pytest.raises(NonDistinctKeyError):
        JointTensorSparse({(0, 0): 1.0}, n_arms=3, n_players=2)
    with pytest.raises(NonDistinctKeyError):
        JointTensorSparse({(0, 1, 0): 1.0}, n_arms=3, n_players=3)


def test_tensor_rejects_bad_keys_and_sums():
    with pytest.raises(ValidationError):
        JointTensorSparse({(0, 3): 1.0}, n_arms=3, n_players=2)
    with pytest.raises(ValidationError):
        JointTensorSparse({(0,): 1.0}, n_arms=3, n_players=2)
    with pytest.raises(TotalMismatchError):
        JointTensorSparse({(0, 1): 0.5}, n_arms=3, n_players=2)


def test_tensor_entries_are_immutable():
    t = JointTensorSparse({(0, 1): 0.5, (1, 0): 0.5}, n_arms=2, n_players=2)
    with pytest.raises(TypeError):
        t.entries[(0, 1)] = 1.0


def test_tensor_from_matrix_bridges_two_players(table1):
    m = optimal_satisfaction_matrix(table1).matrix
    tensor = tensor_from_matrix(m)
    assert tensor.n_players == 2
    assert all(i != j for i, j in tensor.entries)
    prefs = multi_from_instance(table1)
    pi = tensor_marginals(prefs, tensor)
    np.testing.assert_allclose(pi[0], table1.a, atol=1e-12)
    np.testing.assert_allclose(pi[1], table1.b, atol=1e-12)
    assert multi_loss(prefs, tensor) == pytest.approx(loss(m, table1), abs=1e-15)


def test_multi_loss_agrees_with_two_player_loss_at_random():
    rng = np.random.default_rng(55)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        inst = (
            random_feasible_instance(rng, n)
            if rng.random() < 0.5
            else random_hot_instance(rng, n)
        )
        m = optimal_satisfaction_matrix(inst).matrix
        gap = abs(
            multi_loss(multi_from_instance(inst), tensor_from_matrix(m))
            - loss(m, inst)
        )
        assert gap <= 1e-12


def test_uniform_permutation_tensor_has_zero_loss():
    # Three players, three arms, uniform preferences: spreading mass over
    # all 6 permutations satisfies everyone exactly.
    prefs = validate_multi(np.full((3, 3), 1.0 / 3.0))
    tensor = JointTensorSparse(
        {p: 1.0 / 6.0 for p in itertools.permutations(range(3))},
        n_arms=3,
        n_players=3,
    )
    assert multi_loss(prefs, tensor) <= 1e-30


def test_marginals_dimension_checks(table1):
    tensor = tensor_from_matrix(optimal_satisfaction_matrix(table1).matrix)
    prefs = validate_multi(np.full((3, 4), 0.25))
    with pytest.raises(DimensionMismatchError):
        tensor_marginals(prefs, tensor)


def test_desk_scale_is_enforced():
    prefs = validate_multi(np.full((2, 9), 1.0 / 9.0))
    tensor = JointTensorSparse({(0, 1): 1.0}, n_arms=9, n_players=2)
    with pytest.raises(DimensionTooLargeError):
        multi_loss(prefs, tensor)
    with pytest.raises(DimensionTooLargeError):
        solve_multi_min_loss(validate_multi(np.full((5, 6), 1.0 / 6.0)))


# --------------------------------------------------------------------------
# feasibility verdicts
# --------------------------------------------------------------------------

def test_verdict_two_players_feasible(table1):
    assert feasibility_verdict(multi_from_instance(table1)) is Feasibility.FEASIBLE


def test_verdict_hot_arm_infeasible_any_player_count():
    rows = np.array([[0.6, 0.3, 0.1], [0.6, 0.3, 0.1], [0.3, 0.3, 0.4]])
    assert feasibility_verdict(validate_multi(rows)) is Feasibility.INFEASIBLE


def test_verdict_three_players_never_claims_proof():
    prefs = validate_multi(np.full((3, 4), 0.25))
    assert feasibility_verdict(prefs) is Feasibility.CONJECTURED_FEASIBLE
    rng = np.random.default_rng(31)
    for _ in range(50):
        rows = rng.dirichlet(np.ones(5), size=3)
        if rows.sum(axis=0).max() > 1.0:
            continue
        assert feasibility_verdict(validate_multi(rows)) in (
            Feasibility.CONJECTURED_FEASIBLE,
        )


def test_verdict_needs_enough_arms():
    with pytest.raises(TooFewArmsError):
        feasibility_verdict(validate_multi(np.full((3, 2), 0.5)))


def test_verdict_values_are_strings():
    assert Feasibility.INFEASIBLE.value == "infeasible"
    assert Feasibility.FEASIBLE.value == "feasible"
    assert Feasibility.CONJECTURED_FEASIBLE.value == "conjectured-feasible"


# --------------------------------------------------------------------------
# tuple-simplex oracle
# --------------------------------------------------------------------------

def test_multi_oracle_uniform_three_players():
    prefs = validate_multi(np.full((3, 4), 0.25))
    result = solve_multi_min_loss(prefs)
    assert result.converged
    assert result.loss <= 1e-9


def test_multi_oracle_loss_respects_popularity_bound():
    # No tensor can push the loss below (max S - 1)^2 / M when an arm is
    # oversubscribed; the oracle must land at or above that floor.
    rng = np.random.default_rng(42)
    found = 0
    while found < 5:
        rows = rng.dirichlet(np.ones(4), size=3)
        excess = float(rows.sum(axis=0).max()) - 1.0
        if excess <= 0.02:
            continue
        found += 1
        result = solve_multi_min_loss(validate_multi(rows))
        assert result.converged
        assert result.loss >= excess**2 / 3.0 - 1e-9
        assert result.loss > 1e-9


def test_multi_oracle_matches_two_player_routes():
    rng = np.random.default_rng(19)
    for _ in range(5):
        inst = random_hot_instance(rng, 4)
        multi = solve_multi_min_loss(multi_from_instance(inst), tol=1e-10)
        assert multi.converged
        closed = min_loss_value(inst)
        pairwise = solve_min_loss(inst, tol=1e-10).loss
        assert multi.loss == pytest.approx(closed, abs=1e-7)
        assert multi.loss == pytest.approx(pairwise, abs=1e-7)


def test_two_player_oracle_is_the_two_player_tuple_oracle():
    # Both routes run one descent over the same coordinates in the same
    # order, so the iterates agree bit for bit, not just to tolerance.
    rng = np.random.default_rng(23)
    for n in range(3, 9):
        for inst in (random_feasible_instance(rng, n), random_hot_instance(rng, n)):
            pair = solve_min_loss(inst)
            multi = solve_multi_min_loss(multi_from_instance(inst))
            assert multi.iterations == pair.iterations
            assert multi.gradient_mapping_norm == pair.gradient_mapping_norm
            assert len(multi.tensor.entries) == n * (n - 1)
            for (i, j), value in multi.tensor.entries.items():
                assert value == pair.matrix.entries[i, j]


def test_multi_oracle_needs_enough_arms():
    with pytest.raises(TooFewArmsError):
        solve_multi_min_loss(validate_multi(np.full((3, 2), 0.5)))


def test_tensor_from_matrix_holds_the_nonzero_entries_in_row_major_order():
    # The dict the N^2 scan of the dense entries gave, order included:
    # -0.0 entries are zeros and are left out, as is the diagonal.
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        e = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(e, 0.0)
        e[0, 1] += 1e-3
        e /= e.sum()
        e[(e == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
        m = JointSelectionMatrix(e)
        scanned = {
            (i, j): float(m.entries[i, j])
            for i in range(n)
            for j in range(n)
            if i != j and m.entries[i, j] != 0.0
        }
        assert list(tensor_from_matrix(m).entries.items()) == list(scanned.items())
