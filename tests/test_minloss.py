"""Overloaded instances: closed-form minimum, KKT certificate, convexity."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointselect import (
    InternalInvariantError,
    JointSelectionMatrix,
    NotApplicableError,
    TotalNotOneError,
    ValidationError,
    convexity_check,
    kkt_verify,
    loss,
    loss_hessian,
    min_loss_matrix,
    min_loss_value,
    optimal_satisfaction_matrix,
    random_order,
    simultaneous_renormalization,
    uniform_random,
    validate_instance,
)
from jointselect.errors import DimensionTooLargeError
from jointselect import core
import jointselect.minloss as minloss
from jointselect.minloss import RESIDUAL_TOL, KktResiduals

from conftest import random_feasible_instance, random_hot_instance


def geometric_instance(n: int):
    """Both players weight arm i by 3^i: the sharpest overload in the sweep;
    S_max = 4 * 3^(N-1) / (3^N - 1) stays above 1 at every N."""
    num = np.array([3**k for k in range(n)], dtype=np.float64)
    w = num / float((3**n - 1) // 2)
    return validate_instance(w, w)


def hot_arm_instance(rng: np.random.Generator, n: int, hot: int | None = None,
                     tied: bool = False):
    """One hot arm at index ``hot`` (random if None) with S_hot in (1, 1.9],
    built directly (rejection sampling for S_max > 1 stalls at large N).
    With ``tied``, each player gives every cold arm the same weight."""
    h = int(rng.integers(n)) if hot is None else hot
    s_hot = 1.9 - 0.9 * rng.random() + 1e-8
    x = rng.uniform(s_hot - 1.0, 1.0)

    def cold():
        return np.full(n - 1, 1.0 / (n - 1)) if tied else rng.dirichlet(np.ones(n - 1))

    a = np.insert((1.0 - x) * cold(), h, x)
    b = np.insert((1.0 - (s_hot - x)) * cold(), h, s_hot - x)
    return validate_instance(a, b)


def dense_kkt_reference(inst, m):
    """kkt_verify in its dense form: N x N multipliers and gradient.

    Returns (epsilon, mu, residuals); kkt_verify must match it bit for bit.
    """
    n = inst.n
    s = inst.popularity
    s_max = float(s.max())
    hot = int(np.argmax(s))
    eps = (s_max - 1.0) / (2.0 * (n - 1))
    mu = 2.0 * (n - 2) * eps

    off = ~np.eye(n, dtype=bool)
    cold = np.ones(n, dtype=bool)
    cold[hot] = False
    lam = np.zeros((n, n))
    lam[np.ix_(cold, cold)] = 2.0 * n * eps
    np.fill_diagonal(lam, 0.0)

    pi_a, pi_b = m.marginals
    grad = 2.0 * (pi_a - inst.a)[:, None] + 2.0 * (pi_b - inst.b)[None, :]
    stationarity = float(np.abs((grad - lam + mu)[off]).max())
    slackness = float(np.abs(lam * m.entries).max())
    dual = max(0.0, -float(lam.min()))
    primal = max(
        max(0.0, -float(m.entries.min())),
        abs(float(m.entries.sum()) - 1.0),
        float(np.abs(np.diagonal(m.entries)).max()),
    )
    return eps, mu, KktResiduals(stationarity, slackness, dual, primal)


# --------------------------------------------------------------------------
# closed-form value and matrix
# --------------------------------------------------------------------------

def test_min_loss_value_zero_when_no_arm_is_hot(table1):
    assert min_loss_value(table1) == 0.0


def test_min_loss_value_geometric_three_arms():
    # S_max = 18/13, so L = (3/4) (5/13)^2 = 75/676.
    assert min_loss_value(geometric_instance(3)) == pytest.approx(
        75.0 / 676.0, rel=1e-12
    )


def test_min_loss_value_maximal_overload():
    # Both players insist on the same single arm: S_max = 2.
    inst = validate_instance([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert min_loss_value(inst) == pytest.approx(0.75, abs=1e-15)


def test_min_loss_value_continuous_at_threshold():
    delta = 2e-9
    a = np.array([0.5 + delta / 2, 0.5 - delta / 2])
    inst = validate_instance(a, a)
    assert min_loss_value(inst) <= 1e-17


def test_min_loss_value_requires_unit_total():
    with pytest.raises(TotalNotOneError):
        min_loss_value(validate_instance([0.1, 0.2], [0.15, 0.15], total=0.3))


def test_min_loss_matrix_worked_example():
    # A = (0.1, 0.1, 0.8), B = (0, 0.2, 0.8): arm 2 is hot with S = 1.6,
    # eps = 0.15; the matrix concentrates everything on row/column 2.
    inst = validate_instance([0.1, 0.1, 0.8], [0.0, 0.2, 0.8])
    m = min_loss_matrix(inst)
    expected = np.array(
        [[0.0, 0.0, 0.25], [0.0, 0.0, 0.25], [0.15, 0.35, 0.0]]
    )
    np.testing.assert_allclose(m.entries, expected, rtol=0, atol=1e-15)
    assert loss(m, inst) == pytest.approx(0.27, abs=1e-15)
    assert loss(m, inst) == pytest.approx(min_loss_value(inst), abs=1e-15)


def test_min_loss_matrix_two_arms():
    inst = validate_instance([0.3, 0.7], [0.3, 0.7])
    m = min_loss_matrix(inst)
    np.testing.assert_allclose(m.entries, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    assert loss(m, inst) == pytest.approx(0.16, abs=1e-15)


def test_min_loss_matrix_total_conflict():
    n = 4
    e = np.zeros(n)
    e[0] = 1.0
    inst = validate_instance(e, e)
    m = min_loss_matrix(inst)
    eps = 1.0 / (2 * (n - 1))
    np.testing.assert_allclose(m.entries[1:, 0], eps, rtol=0, atol=1e-15)
    np.testing.assert_allclose(m.entries[0, 1:], eps, rtol=0, atol=1e-15)
    assert loss(m, inst) == pytest.approx(n / (2.0 * (n - 1)), abs=1e-15)


def concatenated_cells(inst, hot: int):
    """The hot-arm cells as three concatenations: (i, hot) for i < hot, the
    hot row, (i, hot) for i > hot."""
    n = inst.n
    eps = (float(inst.popularity[hot]) - 1.0) / (2.0 * (n - 1))
    cold = np.delete(np.arange(n), hot)
    at_hot = np.full(n - 1, hot)
    rows = np.concatenate([cold[:hot], at_hot, cold[hot:]])
    cols = np.concatenate([at_hot[:hot], cold, at_hot[hot:]])
    vals = np.concatenate([inst.a[:hot], inst.b[cold], inst.a[hot + 1:]]) + eps
    return rows, cols, vals


@pytest.mark.parametrize("n", [2, 3, 4, 17, 1024])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_min_loss_matrix_cells_equal_their_concatenated_form(n, where):
    hot = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    rng = np.random.default_rng([n, hot])
    s_hot = 1.9 - 0.9 * rng.random() + 1e-8
    x = rng.uniform(s_hot - 1.0, 1.0)
    a = np.insert((1.0 - x) * rng.dirichlet(np.ones(n - 1)), hot, x)
    b = np.insert((1.0 - (s_hot - x)) * rng.dirichlet(np.ones(n - 1)), hot, s_hot - x)
    inst = validate_instance(a, b)
    m = min_loss_matrix(inst)
    rows, cols, vals = concatenated_cells(inst, hot)
    assert m.rows.tobytes() == rows.astype(np.intp).tobytes()
    assert m.cols.tobytes() == cols.astype(np.intp).tobytes()
    assert m.vals.tobytes() == vals.tobytes()


def test_min_loss_matrix_rejects_cool_instance(table1):
    with pytest.raises(NotApplicableError):
        min_loss_matrix(table1)


def test_min_loss_matrix_achieves_closed_form_at_random():
    rng = np.random.default_rng(77)
    for n in (2, 3, 5, 8):
        for _ in range(100):
            inst = random_hot_instance(rng, n)
            m = min_loss_matrix(inst)
            assert loss(m, inst) == pytest.approx(min_loss_value(inst), rel=1e-9)


# --------------------------------------------------------------------------
# KKT certificate
# --------------------------------------------------------------------------

def test_kkt_certificate_on_geometric_instances():
    for n in (3, 5, 10):
        inst = geometric_instance(n)
        hot = n - 1
        m = min_loss_matrix(inst)
        cert = kkt_verify(inst, m)
        assert cert.valid
        assert cert.residuals.max() <= 1e-12
        s_max = float(inst.popularity.max())
        assert cert.epsilon == pytest.approx((s_max - 1) / (2 * (n - 1)), abs=1e-15)
        assert cert.mu == pytest.approx(2 * (n - 2) * cert.epsilon, abs=1e-15)
        # The multipliers vanish on the hot row and column.
        assert cert.hot == hot


def test_kkt_rejects_certifying_a_perturbed_matrix():
    inst = validate_instance([0.1, 0.1, 0.8], [0.0, 0.2, 0.8])
    m = min_loss_matrix(inst)
    bumped = m.entries.copy()
    bumped[0, 2] -= 0.01
    bumped[0, 1] += 0.01
    cert = kkt_verify(inst, JointSelectionMatrix(bumped))
    assert not cert.valid
    assert cert.residuals.max() > 1e-3


def test_kkt_flags_the_uniform_matrix():
    inst = geometric_instance(4)
    cert = kkt_verify(inst, uniform_random(4))
    assert not cert.valid


def test_kkt_not_applicable_on_cool_instance(table1):
    with pytest.raises(NotApplicableError):
        kkt_verify(table1, uniform_random(3))


def test_layers_left_to_the_zero_loss_branch_state_its_bound_in_the_band():
    # S_0 = 1 + 1e-9 as floats: past 1, but zero loss is still in reach.
    inst = validate_instance([0.5, 0.20003539268562529, 0.2999646073133747],
                             [0.500000001, 0.44860192452441866, 0.051398074474581314])
    with pytest.raises(NotApplicableError) as err:
        min_loss_matrix(inst)
    assert str(err.value) == (
        "arm 0 has popularity 1.0000000010000001 <= 1 + 1e-09; use the zero-loss construction"
    )
    with pytest.raises(NotApplicableError) as err:
        kkt_verify(inst, optimal_satisfaction_matrix(inst).matrix)
    assert str(err.value) == "KKT certificate only applies when max S > 1 + 1e-09"


def test_the_dispatch_reads_the_total_that_the_zero_loss_branch_reads():
    # T = 1 - 5e-10 and S_0 = 1 + 8e-10: within 1e-9 of 1, but past T + 1e-9,
    # so zero loss is out of reach.
    a, b = [0.6, 0.25, 0.1499999995], [0.4000000008, 0.3, 0.2999999987]
    inst = validate_instance(a, b, 1.0 - 5e-10)
    result = optimal_satisfaction_matrix(inst)
    assert result.branch == "min-loss"
    assert result.certificate.valid
    assert min_loss_value(inst) > 0.0


def kkt_case(n: int, seed: int, kind: str):
    """A hot instance and a matrix to certify against it."""
    rng = np.random.default_rng(seed)
    if kind == "tied-cold":
        # Equal cold weights: on the hot-arm matrix (even seed // 2) and on
        # the uniform one, every cold entry of ga, and of gb, is the same
        # float, so argmax and argmin pick the first of N - 1 ties. The hot
        # arm sits at an end: index 0 for even seeds, N - 1 for odd ones.
        inst = hot_arm_instance(rng, n, hot=(0, n - 1)[seed % 2], tied=True)
        return inst, min_loss_matrix(inst) if seed // 2 % 2 == 0 else uniform_random(n)
    inst = hot_arm_instance(rng, n)
    hot = int(np.argmax(inst.popularity))
    if kind == "hot-arm":
        return inst, min_loss_matrix(inst)
    if kind == "uniform":
        return inst, uniform_random(n)
    if kind in ("shared-peak", "shared-trough"):
        # The hot-arm matrix of a second instance with the same hot weights.
        # Peak: its cold weights are pulled toward one shared arm p. Both
        # gradient parts then peak at p, so the largest cold x cold term
        # pairs p with a runner-up, and it usually sets the stationarity
        # residual (as at n=6, seed=5 below); only the top-2 candidates find
        # it. Trough: p is drained to a thousandth and a second cold arm q
        # to a half, their mass going to the other cold arms. Both parts
        # then bottom out at p with q next, so the most negative cold x cold
        # term pairs p with q. A term of the hot row or column holds one
        # part alone, so this pair often sets the residual (as at n=7,
        # seed=2 below); only the bottom-2 candidates find it.
        cold = np.arange(n) != hot
        p = int(rng.choice(np.flatnonzero(cold)))
        pull = rng.random()
        q = p  # the one cold arm at n = 2
        if kind == "shared-trough" and n > 2:
            q = int(rng.choice(np.flatnonzero(cold & (np.arange(n) != p))))

        def shifted(w):
            if kind == "shared-peak":
                target = rng.dirichlet(np.ones(n)) * cold
                target[p] += 1.0
            else:
                target = w * cold
                target[q] *= 0.5
                target[p] *= 1e-3
            out = w.copy()
            out[cold] = (1.0 - pull) * w[cold] + pull * target[cold] * (w[cold].sum() / target.sum())
            return out

        other = validate_instance(shifted(inst.a), shifted(inst.b))
        return inst, min_loss_matrix(other)
    if kind == "perturbed":
        entries = min_loss_matrix(inst).entries.copy()
        entries += rng.random((n, n)) * (rng.random((n, n)) < 0.3) * 10.0 ** rng.uniform(-12, -2)
    else:
        entries = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        entries[0, 1] += 1.0
    np.fill_diagonal(entries, 0.0)
    return inst, JointSelectionMatrix(entries / entries.sum())


KKT_KINDS = ("hot-arm", "shared-peak", "shared-trough", "perturbed", "random", "uniform",
             "tied-cold")


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KKT_KINDS),
)
@example(n=2, seed=0, kind="hot-arm")
@example(n=2, seed=1, kind="perturbed")
@example(n=2, seed=2, kind="random")
@example(n=2, seed=3, kind="uniform")
@example(n=2, seed=4, kind="shared-peak")
@example(n=6, seed=5, kind="shared-peak")
# N = 7 is the first size past the old partition's cutoff (v.size > 6);
# N = 1024 is the benchmark's. Tied-cold seeds 0 to 3 put the hot arm at
# 0, N - 1, 0, N - 1, on the hot-arm, hot-arm, uniform, uniform matrix.
@example(n=7, seed=0, kind="tied-cold")
@example(n=7, seed=1, kind="tied-cold")
@example(n=7, seed=2, kind="tied-cold")
@example(n=7, seed=3, kind="tied-cold")
@example(n=7, seed=5, kind="shared-peak")
@example(n=7, seed=2, kind="shared-trough")
@example(n=7, seed=6, kind="perturbed")
@example(n=1024, seed=0, kind="tied-cold")
@example(n=1024, seed=1, kind="tied-cold")
@example(n=1024, seed=2, kind="tied-cold")
@example(n=1024, seed=3, kind="tied-cold")
@example(n=1024, seed=7, kind="hot-arm")
@example(n=1024, seed=8, kind="shared-peak")
@example(n=1024, seed=9, kind="shared-trough")
def test_kkt_verify_matches_dense_reference_exactly(n, seed, kind):
    inst, m = kkt_case(n, seed, kind)
    cert = kkt_verify(inst, m)
    eps, mu, residuals = dense_kkt_reference(inst, m)
    assert cert.epsilon == eps
    assert cert.mu == mu
    assert cert.residuals == residuals
    assert cert.hot == int(np.argmax(inst.popularity))


def test_kkt_verify_on_dispatch_output_matches_dense_reference():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 9, 33, 64):
        inst = hot_arm_instance(rng, n)
        result = optimal_satisfaction_matrix(inst)
        _, _, residuals = dense_kkt_reference(inst, result.matrix)
        assert result.certificate.residuals == residuals
        assert result.certificate.valid


def test_kkt_verify_allocates_no_dense_array():
    # Growth pin: the dense check held several N x N float64 arrays at once;
    # the certificate now needs O(N) memory.
    n = 2048
    inst = hot_arm_instance(np.random.default_rng(5), n)
    m = min_loss_matrix(inst)
    tracemalloc.start()
    try:
        cert = kkt_verify(inst, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.valid
    assert peak < n * n * 8


def test_hot_arm_dispatch_holds_one_dense_array():
    # Growth pin: no more than one N x N array. The builder hands its 2N - 2
    # cells to JointSelectionMatrix, which forms no N x N array until its
    # entries are read, and loss reuses the marginals kkt_verify took.
    n = 2048
    inst = hot_arm_instance(np.random.default_rng(6), n)
    tracemalloc.start()
    try:
        result = optimal_satisfaction_matrix(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.branch == "min-loss" and result.certificate.valid
    assert peak <= 1.25 * n * n * 8


# --------------------------------------------------------------------------
# the verdict without the dense-order total
# --------------------------------------------------------------------------

def test_a_unit_total_proves_the_primal_residual_within_the_kkt_tolerance():
    # valid skips the dense-order total for a matrix of total 1: its
    # construction proved the sum within SUM_RTOL of 1, no more than RESIDUAL_TOL.
    assert core.SUM_RTOL <= RESIDUAL_TOL


def decides_as_residuals(cert) -> bool:
    """Whether ``valid`` agrees with the four residuals, read afterwards."""
    verdict = cert.valid
    return verdict == (cert.residuals.max() <= RESIDUAL_TOL)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KKT_KINDS))
def test_kkt_valid_agrees_with_the_residuals(n, seed, kind):
    inst, m = kkt_case(n, seed, kind)
    assert decides_as_residuals(kkt_verify(inst, m))


def test_kkt_valid_agrees_with_the_residuals_on_hot_dispatch_output():
    rng = np.random.default_rng(23)
    for n in range(2, 65):
        result = optimal_satisfaction_matrix(hot_arm_instance(rng, n))
        assert result.certificate.valid
        assert decides_as_residuals(result.certificate)


def test_kkt_valid_agrees_with_the_residuals_on_bumped_and_uniform_matrices():
    inst = validate_instance([0.1, 0.1, 0.8], [0.0, 0.2, 0.8])
    bumped = min_loss_matrix(inst).entries.copy()
    bumped[0, 2] -= 0.01
    bumped[0, 1] += 0.01
    for m in (JointSelectionMatrix(bumped), uniform_random(3)):
        cert = kkt_verify(inst, m)
        assert not cert.valid
        assert decides_as_residuals(cert)


def test_kkt_valid_reads_the_primal_residual_when_the_total_is_not_one():
    inst = validate_instance([0.1, 0.1, 0.8], [0.0, 0.2, 0.8])
    half = JointSelectionMatrix(np.array([[0, 0, 0.05], [0, 0, 0.05], [0.1, 0.3, 0]]), 0.5)
    cert = kkt_verify(inst, half)
    assert not cert.valid
    assert cert.residuals.primal == 0.5
    assert decides_as_residuals(cert)


@pytest.mark.parametrize("excess, valid", [(5e-10, True), (1.5e-9, False)])
def test_kkt_valid_decides_a_total_off_one_on_its_primal_residual(excess, valid):
    # The hot-arm matrix with `excess` spread over its cold x cold cells:
    # stationarity and slackness stay far below 1e-9, so the verdict rests
    # on the primal residual, about `excess`.
    n = 64
    inst = hot_arm_instance(np.random.default_rng(41), n)
    hot = int(np.argmax(inst.popularity))
    entries = min_loss_matrix(inst).entries.copy()
    cold = np.arange(n) != hot
    block = np.ones((n - 1, n - 1)) - np.eye(n - 1)
    entries[np.ix_(cold, cold)] = block * (excess / block.sum())
    m = JointSelectionMatrix(entries, 1.0 + excess)
    cert = kkt_verify(inst, m)
    assert cert.residuals.stationarity <= 1e-10 and cert.residuals.slackness <= 1e-10
    assert cert.residuals.primal == pytest.approx(excess, rel=1e-3)
    assert cert.valid is valid
    assert decides_as_residuals(cert)


@pytest.mark.parametrize("where", range(4))
def test_kkt_residuals_max_is_nan_when_any_residual_is_nan(where):
    values = [0.0, 1e-300, 5e-324, 2.0]
    values[where] = float("nan")
    assert np.isnan(KktResiduals(*values).max())


def test_kkt_residuals_max_keeps_the_bits_of_the_largest():
    values = (3e-17, 0.1 + 0.2, -0.0, 0.30000000000000004)
    assert KktResiduals(*values).max() == 0.30000000000000004
    assert KktResiduals(-0.0, 0.0, -0.0, -0.0).max().hex() == (-0.0).hex()


def test_hot_arm_verdict_needs_no_dense_order_total(monkeypatch):
    inst = hot_arm_instance(np.random.default_rng(29), 300)

    def refuse(*args):
        raise AssertionError("the verdict read the dense-order total")

    with monkeypatch.context() as patch:
        patch.setattr(core, "_dense_order_sum", refuse)
        result = optimal_satisfaction_matrix(inst)
        assert result.certificate.valid
    _, _, residuals = dense_kkt_reference(inst, result.matrix)
    assert result.certificate.residuals == residuals


@pytest.mark.parametrize("hot", [0, 1023])
def test_hot_arm_certificate_partitions_and_sorts_nothing(monkeypatch, hot):
    # The extreme gradients come from argmax and argmin; a partition or a
    # sort of N values must not come back. The hot arm sits at either end.
    n = 1024
    inst = hot_arm_instance(np.random.default_rng(31), n, hot=hot)
    m = min_loss_matrix(inst)

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate partitioned or sorted")

    with monkeypatch.context() as patch:
        for name in ("argpartition", "partition", "argsort", "sort"):
            patch.setattr(np, name, refuse)
        cert = kkt_verify(inst, m)
        assert cert.valid
    assert cert.hot == hot
    _, _, residuals = dense_kkt_reference(inst, m)
    assert cert.residuals == residuals


def traced_hot_arm_peak(n: int) -> int:
    inst = hot_arm_instance(np.random.default_rng(n), n)
    tracemalloc.start()
    try:
        result = optimal_satisfaction_matrix(inst)
        assert result.certificate.valid and result.loss > 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_hot_arm_op_with_its_verdict_grows_linearly():
    # Growth pin, not a timing gate: at 4N the traced peak of the op and its
    # verdict is about 4 times that at N. The pairwise-sum layout of the
    # dense-order total, about N^2/64 nodes, would make it 16 times.
    small, large = traced_hot_arm_peak(2500), traced_hot_arm_peak(10_000)
    assert large <= 6 * small


# --------------------------------------------------------------------------
# convexity
# --------------------------------------------------------------------------

def test_hessian_structure():
    # H[(i,j),(k,l)] = 2([i=k] + [j=l]): diagonal 4, a shared row or
    # column contributes 2, disjoint pairs contribute 0.
    h = loss_hessian(3)
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    assert h.shape == (6, 6)
    for p, (i, j) in enumerate(off):
        for q, (k, l) in enumerate(off):
            assert h[p, q] == 2.0 * ((i == k) + (j == l))
    np.testing.assert_array_equal(h, h.T)


def test_hessian_quadratic_forms_from_worked_directions():
    # A single-coordinate direction gives d' H d = 4; the difference of two
    # coordinates sharing a row gives 2 * 4 - 2 * 2 = 4 as well.
    h = loss_hessian(3)
    d = np.zeros(6)
    d[0] = 1.0
    assert float(d @ h @ d) == 4.0
    d2 = np.zeros(6)
    d2[0], d2[1] = 1.0, -1.0  # coordinates (0,1) and (0,2) share row 0
    assert float(d2 @ h @ d2) == 4.0


def test_convexity_check_all_desk_sizes():
    # The report carries the Hessian's exact eigenvalue floor at every N:
    # 4 at N = 2, and 0 up to rounding for N >= 3, where H is singular.
    for n in range(2, 9):
        report = convexity_check(n)
        assert report.passed
        assert report.n == n
        assert report.dimension == n * n - n
        assert report.min_eigenvalue == float(np.linalg.eigvalsh(loss_hessian(n)).min())
    assert convexity_check(2).min_eigenvalue == pytest.approx(4.0)


def test_convexity_check_bounds():
    with pytest.raises(DimensionTooLargeError):
        convexity_check(9)
    with pytest.raises(ValidationError):
        convexity_check(1)


@pytest.mark.parametrize("knob", ["trials", "seed"])
def test_convexity_check_takes_no_sampling_knob(knob):
    # The check is exact: no random forms, so nothing to count or seed.
    with pytest.raises(TypeError):
        convexity_check(3, **{knob: 5})


# --------------------------------------------------------------------------
# top-level dispatch
# --------------------------------------------------------------------------

def test_dispatch_cool_instance_takes_zero_loss_branch(table1):
    result = optimal_satisfaction_matrix(table1)
    assert result.branch == "zero-loss"
    assert result.certificate is None
    assert result.loss <= 1e-12


def test_dispatch_hot_instance_takes_min_loss_branch():
    result = optimal_satisfaction_matrix(geometric_instance(3))
    assert result.branch == "min-loss"
    assert result.certificate is not None
    assert result.certificate.valid
    assert result.loss == pytest.approx(75.0 / 676.0, rel=1e-12)


def test_dispatch_raises_when_the_certificate_fails(monkeypatch):
    # A failed certificate is an invariant failure, as a zero-loss
    # marginal miss is; the message names the largest residual.
    real = minloss.kkt_verify
    monkeypatch.setattr(
        minloss, "kkt_verify",
        lambda inst, m: dataclasses.replace(real(inst, m), _measured=(1.0, 0.0, 0.0)),
    )
    with pytest.raises(InternalInvariantError, match="largest residual 1.000e[+]00"):
        optimal_satisfaction_matrix(geometric_instance(3))


def test_dispatch_boundary_goes_zero_loss():
    delta = 0.9e-9
    a = np.array([0.5 + delta / 2, 0.5 - delta / 2, 0.0])
    inst = validate_instance(a, a)
    assert optimal_satisfaction_matrix(inst).branch == "zero-loss"


def test_optimal_never_loses_to_baselines():
    rng = np.random.default_rng(2024)
    for n in (3, 4, 6):
        for _ in range(60):
            inst = (
                random_feasible_instance(rng, n)
                if rng.random() < 0.5
                else random_hot_instance(rng, n)
            )
            best = optimal_satisfaction_matrix(inst).loss
            assert best <= loss(uniform_random(n), inst) + 1e-12
            assert best <= loss(random_order(inst), inst) + 1e-12
            assert best <= loss(simultaneous_renormalization(inst), inst) + 1e-12


def test_hot_arm_matrix_and_certificate_form_no_dense_array():
    # Growth pin: the 2N - 2 cells, the marginals and the residuals take
    # O(N) memory and the dense-order total O(N^2 / 64); the N x N entries
    # (8 N^2 bytes) are formed only when read.
    n = 2048
    inst = hot_arm_instance(np.random.default_rng(7), n)
    tracemalloc.start()
    try:
        m = min_loss_matrix(inst)
        cert = kkt_verify(inst, m)
        value = loss(m, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.valid
    assert value == pytest.approx(min_loss_value(inst), rel=1e-9)
    assert peak <= n * n * 8 / 16
    first = m.entries
    assert m.entries is first
    assert not first.flags.writeable
    scattered = np.zeros((n, n))
    scattered[m.rows, m.cols] = m.vals
    assert first.tobytes() == scattered.tobytes()
    assert m.entry_sum == float(first.sum())
