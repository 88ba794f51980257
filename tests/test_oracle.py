"""Projected-gradient oracle: an independent route to the minimum loss."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointselect import (
    FAMILIES,
    TotalNotOneError,
    ValidationError,
    loss,
    min_loss_value,
    optimal_satisfaction_matrix,
    preference_family,
    project_simplex,
    random_order,
    solve_min_loss,
    uniform_random,
    validate_instance,
)
from jointselect.errors import DimensionTooLargeError
from jointselect.oracle import descend

from conftest import random_feasible_instance, random_hot_instance


# --------------------------------------------------------------------------
# simplex projection
# --------------------------------------------------------------------------

def test_projection_known_points():
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(
        project_simplex(np.array([0.5, 0.5])), [0.5, 0.5], atol=1e-15
    )
    # A constant shift in the feasible direction projects back to the point.
    p = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(project_simplex(p + 0.7), p, atol=1e-12)


@settings(max_examples=200)
@given(y=arrays(np.float64, 6, elements=st.floats(-5, 5)))
def test_projection_lands_on_simplex_and_is_idempotent(y):
    p = project_simplex(y)
    assert np.all(p >= 0.0)
    assert float(p.sum()) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(project_simplex(p), p, rtol=0, atol=1e-12)


def test_projection_is_order_preserving():
    y = np.array([3.0, 1.0, 2.0, -1.0])
    p = project_simplex(y)
    assert p[0] >= p[2] >= p[1] >= p[3]


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------

def test_oracle_reaches_zero_loss_on_table1(table1):
    result = solve_min_loss(table1)
    assert result.converged
    assert result.loss <= 1e-10
    assert result.gradient_mapping_norm <= 1e-10
    assert result.matrix.n == 3


def test_oracle_matches_closed_form_on_hot_instances():
    geo = np.array([1.0, 3.0, 9.0]) / 13.0
    inst = validate_instance(geo, geo)
    result = solve_min_loss(inst)
    assert result.converged
    assert result.loss == pytest.approx(75.0 / 676.0, abs=1e-8)

    e = np.zeros(4)
    e[3] = 1.0
    conflict = validate_instance(e, e)
    assert solve_min_loss(conflict).loss == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_oracle_descends_monotonically():
    # The run is deterministic from the uniform start, so truncating at
    # increasing iteration caps replays prefixes of one trajectory.
    rng = np.random.default_rng(3)
    inst = random_hot_instance(rng, 4)
    losses = [
        solve_min_loss(inst, max_iter=k).loss for k in range(1, 40)
    ]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_oracle_sandwiched_between_bound_and_baselines():
    rng = np.random.default_rng(6)
    for n in (3, 5, 8):
        for _ in range(25):
            inst = (
                random_feasible_instance(rng, n)
                if rng.random() < 0.5
                else random_hot_instance(rng, n)
            )
            got = solve_min_loss(inst, tol=1e-10)
            assert got.converged
            assert got.loss >= min_loss_value(inst) - 1e-8
            assert got.loss <= loss(uniform_random(n), inst) + 1e-9
            assert got.loss <= loss(random_order(inst), inst) + 1e-9
            assert got.loss <= optimal_satisfaction_matrix(inst).loss + 1e-6


@pytest.mark.parametrize("n", [13, 30, 50])
@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_reaches_the_closed_form_up_to_fifty_arms(family, n):
    # 50 arms is the bound: perm(50, 2) = MAX_TUPLES coordinates.
    inst = preference_family(family, n)
    result = solve_min_loss(inst)
    assert result.converged
    assert result.loss == pytest.approx(min_loss_value(inst), abs=1e-9)


def test_oracle_reports_exhaustion_honestly():
    rng = np.random.default_rng(15)
    inst = random_feasible_instance(rng, 6)
    result = solve_min_loss(inst, max_iter=3)
    assert not result.converged
    assert result.iterations == 3
    assert result.gradient_mapping_norm > 1e-10
    assert abs(float(result.matrix.entries.sum()) - 1.0) <= 1e-9


def test_oracle_rejects_out_of_scope_inputs():
    rng = np.random.default_rng(2)
    with pytest.raises(DimensionTooLargeError, match="at most 2450 tuples; N=51, M=2 has 2550"):
        solve_min_loss(random_feasible_instance(rng, 51))
    with pytest.raises(TotalNotOneError):
        solve_min_loss(validate_instance([0.1, 0.2], [0.15, 0.15], total=0.3))


@pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf, np.inf])
def test_descent_rejects_a_tolerance_outside_zero_to_infinity(table1, tol):
    # NaN and negative tolerances never stop the loop; an infinite one stops
    # it after one step and reports a far-off point as converged.
    with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
        solve_min_loss(table1, tol=tol)
    with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
        descend(np.array([[0, 1], [1, 0]]), np.full((2, 2), 0.5), tol, 10)


def test_descent_accepts_a_zero_tolerance(table1):
    result = solve_min_loss(table1, tol=0.0, max_iter=5)
    assert result.iterations == 5
