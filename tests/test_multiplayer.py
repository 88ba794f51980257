"""Sketch tier: M players on N arms, tuple tensors, feasibility verdicts."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    validate_instance,
    validate_multi,
)
from jointselect import minloss, oracle
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


def test_validate_multi_rejects_non_numeric_rows():
    for rows in ([[0.5, "x"], [0.5, 0.5]], {}, [[0.5, []], [0.5, 0.5]]):
        with pytest.raises(ValidationError, match="array of real numbers"):
            validate_multi(rows)


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


def test_desk_scale_is_enforced(monkeypatch):
    # Each edge is one arm past MAX_TUPLES = perm(50, 2) tuples; it is
    # refused from the count alone, before any tuple is built.
    def no_tuples(*args):
        raise AssertionError("tuples built past the bound")

    monkeypatch.setattr(oracle, "permutations", no_tuples)
    for m, n in ((2, 51), (3, 15), (4, 9), (5, 7), (7, 7)):
        assert math.perm(n, m) > oracle.MAX_TUPLES >= math.perm(n - 1, m)
        with pytest.raises(DimensionTooLargeError, match=f"N={n}, M={m} has"):
            solve_multi_min_loss(validate_multi(np.full((m, n), 1.0 / n)))


def test_multi_loss_works_at_any_size():
    # Player 0 takes arm i and player 1 arm i + 1, each with 1/N: both are
    # satisfied exactly by uniform preferences, at 10^4 arms.
    n = 10_000
    arms = np.arange(n)
    tensor = JointTensorSparse((np.column_stack((arms, (arms + 1) % n)), np.full(n, 1.0 / n)),
                               n_arms=n, n_players=2)
    assert multi_loss(validate_multi(np.full((2, n), 1.0 / n)), tensor) <= 1e-30


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


# A sums to 1 + 6e-10, within the tolerance and past the 1e-12 beyond which
# a row is scaled: S_0 is 1 + 1.3e-9 before the scaling and 1 + 9.4e-10
# after it, either side of the verdict's 1 + 1e-9.
SCALED_A = [0.6000000006, 0.25, 0.15]
SCALED_B = [0.4000000007, 0.3, 0.2999999993]


def test_the_verdict_reads_the_popularity_of_the_two_player_instance():
    inst = validate_instance(SCALED_A, SCALED_B)
    prefs = validate_multi([SCALED_A, SCALED_B])
    assert prefs.popularity.tobytes() == inst.popularity.tobytes()
    assert prefs.weights.tobytes() == np.array([inst.a, inst.b]).tobytes()
    assert feasibility_verdict(prefs) is Feasibility.FEASIBLE
    assert optimal_satisfaction_matrix(inst).branch == "zero-loss"


class Taken(Exception):
    """Raised, with its name, by a stubbed branch of the dispatch."""


def dispatch_branch(inst) -> str:
    """The branch `optimal_satisfaction_matrix` takes on ``inst``, read as it
    is taken, before the branch builds a matrix."""

    def take(branch):
        def stub(*args):
            raise Taken(branch)

        return stub

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minloss, "construct_zero_loss", take("zero-loss"))
        mp.setattr(minloss, "min_loss_matrix", take("min-loss"))
        with pytest.raises(Taken) as taken:
            optimal_satisfaction_matrix(inst)
    return taken.value.args[0]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    share=st.floats(0.05, 0.95),
    ups=st.tuples(*[st.floats(0.0, 1e-9)] * 2),
    misses=st.tuples(*[st.floats(1e-12, 9e-10)] * 2),
    signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 2),
)
def test_rows_off_by_less_than_the_tolerance_get_the_dispatch_verdict(
    n, seed, share, ups, misses, signs
):
    # Arm 0 starts at popularity 1. Each row lifts it by up to 1e-9 and
    # misses its sum by 1e-12 to 9e-10, so S_0 lands on either side of
    # 1 + 1e-9, and a row's scaling can move it across.
    rng = np.random.default_rng(seed)
    a = np.concatenate(([share], (1.0 - share) * rng.dirichlet(np.ones(n - 1))))
    b = np.concatenate(([1.0 - share], share * rng.dirichlet(np.ones(n - 1))))
    for w, up, miss, sign in zip((a, b), ups, misses, signs):
        w[0] += up
        w[1] -= up - sign * miss
    inst = validate_instance(a, b)
    prefs = validate_multi([a, b])
    assert prefs.popularity.tobytes() == inst.popularity.tobytes()
    feasible = feasibility_verdict(prefs) is Feasibility.FEASIBLE
    assert feasible == (dispatch_branch(inst) == "zero-loss")


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


@pytest.mark.parametrize("m, n", [(3, 14), (4, 8), (5, 6)])
def test_multi_oracle_converges_up_to_the_tuple_bound(m, n):
    # The largest N for three, four and five players within MAX_TUPLES.
    d = math.perm(n, m)
    assert d <= oracle.MAX_TUPLES
    prefs = validate_multi(np.random.default_rng(5).dirichlet(np.ones(n), size=m))
    result = solve_multi_min_loss(prefs)
    assert result.converged
    assert result.gradient_mapping_norm <= 1e-10
    uniform = JointTensorSparse((oracle._tuples(n, m), np.full(d, 1.0 / d)), n, m)
    assert result.loss <= multi_loss(prefs, uniform)


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


# --------------------------------------------------------------------------
# tuple arrays
# --------------------------------------------------------------------------

def reference_marginals(prefs, tensor):
    # The per-entry loop the bincounts replace, in entry order.
    pi = np.zeros((prefs.n_players, prefs.n_arms))
    for key, value in tensor.entries.items():
        for x, arm in enumerate(key):
            pi[x, arm] += value
    return pi


def test_tensor_rejects_a_nan_value():
    with pytest.raises(ValidationError, match="non-finite"):
        JointTensorSparse({(0, 1): np.nan, (1, 0): 0.5, (0, 2): 0.5}, n_arms=3, n_players=2)


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1.5): 1.0},
        {(0, "a"): 1.0},
        {(0, 1): "x"},
        {(0, 1): None},
        {(0, 1): 0.5, (1,): 0.5},
        {(0, 1): [0.5, 0.5]},
        {(0, 1): 1.0 + 1e-3, (1, 0): -1e-3},
    ],
    ids=["float-arm", "string-arm", "string-value", "none-value", "ragged-keys",
         "list-value", "negative-value"],
)
def test_tensor_input_errors_are_validation_errors(entries):
    with pytest.raises(ValidationError):
        JointTensorSparse(entries, n_arms=3, n_players=2)


def test_tensor_pair_form_checks_its_keys():
    with pytest.raises(ValidationError, match="distinct"):
        JointTensorSparse(([(0, 1), (0, 1)], [0.5, 0.5]), n_arms=3, n_players=2)
    with pytest.raises(NonDistinctKeyError):
        JointTensorSparse((np.array([[0, 1, 2], [2, 1, 2]]), [0.5, 0.5]), n_arms=3, n_players=3)
    with pytest.raises(ValidationError, match="per value"):
        JointTensorSparse(([(0, 1), (1, 0)], [1.0]), n_arms=3, n_players=2)


def test_an_empty_tensor_is_a_total_mismatch():
    with pytest.raises(TotalMismatchError):
        JointTensorSparse({}, n_arms=3, n_players=2)
    with pytest.raises(TotalMismatchError):
        JointTensorSparse((np.zeros((0, 2), np.intp), []), n_arms=3, n_players=2)


def test_tensor_pair_form_gives_the_mapping_forms_entries():
    rng = np.random.default_rng(61)
    for m in (2, 3, 4):
        coords = list(itertools.permutations(range(5), m))
        keys = [coords[k] for k in rng.permutation(len(coords))]
        vals = rng.random(len(keys))
        vals /= vals.sum()
        mapped = JointTensorSparse(dict(zip(keys, vals.tolist())), 5, m)
        paired = JointTensorSparse((np.array(keys), vals), 5, m)
        assert list(paired.entries.items()) == list(mapped.entries.items())
        assert list(mapped.entries) == keys
        assert paired.arms.dtype == np.intp
        np.testing.assert_array_equal(paired.arms, mapped.arms)
        assert paired.vals.tobytes() == mapped.vals.tobytes()


def test_tensor_arrays_are_read_only_copies():
    arms = np.array([[0, 1], [1, 0]])
    vals = np.array([0.5, 0.5])
    t = JointTensorSparse((arms, vals), n_arms=2, n_players=2)
    arms[0] = (1, 1)
    vals[0] = 2.0
    assert t.entries == {(0, 1): 0.5, (1, 0): 0.5}
    for x in (t.arms, t.vals):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0


def test_tensor_values_go_through_the_weight_clamp():
    t = JointTensorSparse({(0, 1): 1.0, (1, 0): -0.0, (0, 2): -1e-13}, n_arms=3, n_players=2)
    assert not np.signbit(t.vals).any()
    assert list(t.entries.values()) == [1.0, 0.0, 0.0]


def test_tensor_equality_is_identity():
    a = JointTensorSparse({(0, 1): 1.0}, n_arms=2, n_players=2)
    b = JointTensorSparse({(0, 1): 1.0}, n_arms=2, n_players=2)
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def test_tensor_marginals_equal_the_per_entry_loop_bit_for_bit():
    rng = np.random.default_rng(71)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 9))
        coords = list(itertools.permutations(range(n), m))
        pick = rng.choice(len(coords), int(rng.integers(1, len(coords) + 1)), replace=False)
        vals = rng.random(pick.size) * (rng.random(pick.size) < 0.8)
        vals[0] += 1e-3
        vals /= vals.sum()
        tensor = JointTensorSparse(([coords[k] for k in pick], vals), n, m)
        prefs = validate_multi(rng.dirichlet(np.ones(n), size=m))
        got = tensor_marginals(prefs, tensor)
        assert got.tobytes() == reference_marginals(prefs, tensor).tobytes()


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_multi_oracle_rejects_a_tolerance_outside_zero_to_infinity(tol):
    with pytest.raises(ValidationError, match="tol"):
        solve_multi_min_loss(validate_multi(np.full((3, 4), 0.25)), tol=tol)


@pytest.mark.parametrize(
    "entries, n_arms, n_players, match",
    [
        ({(): 1.0}, 3, 0, "at least 2 players, got 0"),
        ({(0,): 1.0}, 3, 1, "at least 2 players, got 1"),
        ({(0, 1): 1.0}, 2.5, 2, "arms must be an integer, got 2.5"),
        ({(0, 1): 1.0}, 1, 2, "at least 2 arms, got 1"),
        ({(0, 1): 1.0}, True, 2, "arms must be an integer, got True"),
        ({(0, 1): 1.0}, 3, 2.0, "players must be an integer, got 2.0"),
    ],
)
def test_tensor_rejects_dimensions_that_are_not_ints_of_at_least_two(entries, n_arms, n_players, match):
    with pytest.raises(ValidationError, match=match):
        JointTensorSparse(entries, n_arms, n_players)


def test_tensor_takes_numpy_integer_dimensions_as_ints():
    t = JointTensorSparse({(0, 1): 1.0}, np.int64(3), np.int32(2))
    assert (t.n_arms, t.n_players) == (3, 2)
    assert type(t.n_arms) is int and type(t.n_players) is int
