"""Overloaded instances: closed-form minimum, KKT certificate, convexity."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointselect import (
    JointSelectionMatrix,
    NotApplicableError,
    TotalNotOneError,
    ValidationError,
    convexity_check,
    kkt_verify,
    loss,
    loss_gradient,
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
from jointselect.minloss import KktResiduals

from conftest import random_feasible_instance, random_hot_instance


def geometric_instance(n: int):
    """Both players weight arm i by 3^i: the sharpest overload in the sweep;
    S_max = 4 * 3^(N-1) / (3^N - 1) stays above 1 at every N."""
    num = np.array([3**k for k in range(n)], dtype=np.float64)
    w = num / float((3**n - 1) // 2)
    return validate_instance(w, w)


def hot_arm_instance(rng: np.random.Generator, n: int):
    """One hot arm at a random index with S_hot in (1, 1.9], built directly
    (rejection sampling for S_max > 1 stalls at large N)."""
    h = int(rng.integers(n))
    s_hot = 1.9 - 0.9 * rng.random() + 1e-8
    x = rng.uniform(s_hot - 1.0, 1.0)
    a = np.insert((1.0 - x) * rng.dirichlet(np.ones(n - 1)), h, x)
    b = np.insert((1.0 - (s_hot - x)) * rng.dirichlet(np.ones(n - 1)), h, s_hot - x)
    return validate_instance(a, b)


def dense_kkt_reference(inst, m):
    """kkt_verify in its dense form: N x N multipliers and gradient.

    Returns (epsilon, mu, lam, residuals); kkt_verify must match it bit for bit.
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

    grad = loss_gradient(m, inst)
    stationarity = float(np.abs((grad - lam + mu)[off]).max())
    slackness = float(np.abs(lam * m.entries).max())
    dual = max(0.0, -float(lam.min()))
    primal = max(
        max(0.0, -float(m.entries.min())),
        abs(float(m.entries.sum()) - 1.0),
        float(np.abs(np.diagonal(m.entries)).max()),
    )
    return eps, mu, lam, KktResiduals(stationarity, slackness, dual, primal)


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
    m = min_loss_matrix(inst, hot=2)
    expected = np.array(
        [[0.0, 0.0, 0.25], [0.0, 0.0, 0.25], [0.15, 0.35, 0.0]]
    )
    np.testing.assert_allclose(m.entries, expected, rtol=0, atol=1e-15)
    assert loss(m, inst) == pytest.approx(0.27, abs=1e-15)
    assert loss(m, inst) == pytest.approx(min_loss_value(inst), abs=1e-15)


def test_min_loss_matrix_two_arms():
    inst = validate_instance([0.3, 0.7], [0.3, 0.7])
    m = min_loss_matrix(inst, hot=1)
    np.testing.assert_allclose(m.entries, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    assert loss(m, inst) == pytest.approx(0.16, abs=1e-15)


def test_min_loss_matrix_total_conflict():
    n = 4
    e = np.zeros(n)
    e[0] = 1.0
    inst = validate_instance(e, e)
    m = min_loss_matrix(inst, hot=0)
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
    m = min_loss_matrix(inst, hot)
    rows, cols, vals = concatenated_cells(inst, hot)
    assert m.rows.tobytes() == rows.astype(np.intp).tobytes()
    assert m.cols.tobytes() == cols.astype(np.intp).tobytes()
    assert m.vals.tobytes() == vals.tobytes()


def test_min_loss_matrix_rejects_cool_instance(table1):
    with pytest.raises(NotApplicableError):
        min_loss_matrix(table1, hot=0)


def test_min_loss_matrix_rejects_cool_arm_of_hot_instance():
    inst = geometric_instance(3)
    with pytest.raises(NotApplicableError):
        min_loss_matrix(inst, hot=0)
    with pytest.raises(ValidationError):
        min_loss_matrix(inst, hot=7)


def test_min_loss_matrix_achieves_closed_form_at_random():
    rng = np.random.default_rng(77)
    for n in (2, 3, 5, 8):
        for _ in range(100):
            inst = random_hot_instance(rng, n)
            hot = int(np.argmax(inst.popularity))
            m = min_loss_matrix(inst, hot)
            assert loss(m, inst) == pytest.approx(min_loss_value(inst), rel=1e-9)


# --------------------------------------------------------------------------
# KKT certificate
# --------------------------------------------------------------------------

def test_kkt_certificate_on_geometric_instances():
    for n in (3, 5, 10):
        inst = geometric_instance(n)
        hot = n - 1
        m = min_loss_matrix(inst, hot)
        cert = kkt_verify(inst, m)
        assert cert.valid
        assert cert.residuals.max() <= 1e-12
        s_max = float(inst.popularity.max())
        assert cert.epsilon == pytest.approx((s_max - 1) / (2 * (n - 1)), abs=1e-15)
        assert cert.mu == pytest.approx(2 * (n - 2) * cert.epsilon, abs=1e-15)
        # Multipliers vanish on the hot row/column, are 2 N eps elsewhere.
        cold = [i for i in range(n) if i != hot]
        assert np.all(cert.lam[hot, :] == 0.0)
        assert np.all(cert.lam[:, hot] == 0.0)
        off = np.array(cold)
        np.testing.assert_allclose(
            cert.lam[np.ix_(off, off)][~np.eye(n - 1, dtype=bool)],
            2 * n * cert.epsilon,
            atol=1e-15,
        )


def test_kkt_rejects_certifying_a_perturbed_matrix():
    inst = validate_instance([0.1, 0.1, 0.8], [0.0, 0.2, 0.8])
    m = min_loss_matrix(inst, hot=2)
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


def kkt_case(n: int, seed: int, kind: str):
    """A hot instance and a matrix to certify against it."""
    rng = np.random.default_rng(seed)
    inst = hot_arm_instance(rng, n)
    hot = int(np.argmax(inst.popularity))
    if kind == "hot-arm":
        return inst, min_loss_matrix(inst, hot)
    if kind == "uniform":
        return inst, uniform_random(n)
    if kind == "shared-peak":
        # The hot-arm matrix of a second instance with the same hot weights
        # and cold weights pulled toward one shared arm p. Both gradient
        # parts then peak at p, so the largest cold x cold term pairs p with
        # a runner-up, and it usually sets the stationarity residual (as at
        # n=6, seed=5 below); only the top-2 candidates find it.
        cold = np.arange(n) != hot
        p = int(rng.choice(np.flatnonzero(cold)))
        pull = rng.random()

        def shifted(w):
            target = rng.dirichlet(np.ones(n)) * cold
            target[p] += 1.0
            out = w.copy()
            out[cold] = (1.0 - pull) * w[cold] + pull * target[cold] * (w[cold].sum() / target.sum())
            return out

        other = validate_instance(shifted(inst.a), shifted(inst.b))
        return inst, min_loss_matrix(other, hot)
    if kind == "perturbed":
        entries = min_loss_matrix(inst, hot).entries.copy()
        entries += rng.random((n, n)) * (rng.random((n, n)) < 0.3) * 10.0 ** rng.uniform(-12, -2)
    else:
        entries = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        entries[0, 1] += 1.0
    np.fill_diagonal(entries, 0.0)
    return inst, JointSelectionMatrix(entries / entries.sum())


KKT_KINDS = ("hot-arm", "shared-peak", "perturbed", "random", "uniform")


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
def test_kkt_verify_matches_dense_reference_exactly(n, seed, kind):
    inst, m = kkt_case(n, seed, kind)
    cert = kkt_verify(inst, m)
    eps, mu, lam, residuals = dense_kkt_reference(inst, m)
    assert cert.epsilon == eps
    assert cert.mu == mu
    assert cert.residuals == residuals
    assert cert.hot == int(np.argmax(inst.popularity))
    assert cert.lam.tobytes() == lam.tobytes()
    assert not cert.lam.flags.writeable


def test_kkt_verify_on_dispatch_output_matches_dense_reference():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 9, 33, 64):
        inst = hot_arm_instance(rng, n)
        result = optimal_satisfaction_matrix(inst)
        _, _, _, residuals = dense_kkt_reference(inst, result.matrix)
        assert result.certificate.residuals == residuals
        assert result.certificate.valid


def test_kkt_verify_allocates_no_dense_array():
    # Growth pin: the dense check held several N x N float64 arrays at once;
    # the certificate now needs O(N) memory until lam is read.
    n = 2048
    inst = hot_arm_instance(np.random.default_rng(5), n)
    m = min_loss_matrix(inst, int(np.argmax(inst.popularity)))
    tracemalloc.start()
    try:
        cert = kkt_verify(inst, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.valid
    assert peak < n * n * 8


def test_hot_arm_dispatch_holds_one_dense_array():
    # Growth pin: the answer's own N x N entries plus O(N). The builder hands
    # its read-only array to JointSelectionMatrix, which adopts it instead of
    # copying, and loss reuses the marginals kkt_verify took.
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
    for n in range(3, 9):
        report = convexity_check(n, trials=400, seed=n)
        assert report.passed
        assert report.dimension == n * n - n
        assert report.trials == 400
        assert report.min_quadratic_form >= -1e-9
        if n <= 6:
            assert report.min_eigenvalue is not None
            assert report.min_eigenvalue >= -1e-9
        else:
            assert report.min_eigenvalue is None


def test_convexity_check_bounds():
    with pytest.raises(DimensionTooLargeError):
        convexity_check(9)
    with pytest.raises(ValidationError):
        convexity_check(1)


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
        m = min_loss_matrix(inst, int(np.argmax(inst.popularity)))
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
