"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
numbers; each criterion also fails loudly through its assert.
"""

from __future__ import annotations

import time

import numpy as np

from jointselect import (
    convexity_check,
    kkt_verify,
    loss,
    min_loss_matrix,
    min_loss_value,
    multi_loss,
    optimal_satisfaction_matrix,
    preference_family,
    random_order,
    run_benchmark,
    sample_joint,
    simultaneous_renormalization,
    solve_min_loss,
    solve_multi_min_loss,
    tensor_from_matrix,
    validate_instance,
    validate_multi,
)
from jointselect.core import _gradient_terms

from conftest import (
    ORDER_TABLE1,
    RENORM_TABLE1,
    fd_gradient,
    random_feasible_instance,
    random_hot_instance,
)


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_zero_loss_sweep_families_i_to_iii():
    t0 = time.perf_counter()
    worst = 0.0
    for family in ("i", "ii", "iii"):
        for n in range(3, 51):
            inst = preference_family(family, n)
            worst = max(worst, optimal_satisfaction_matrix(inst).loss)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        1,
        ok,
        f"zero-loss sweep families i-iii, N=3..50: max loss {worst:.3e} "
        f"<= 1e-12, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_min_loss_formula_family_iv():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for n in range(3, 51):
        inst = preference_family("iv", n)
        s_max = float(inst.popularity.max())
        expected = n / (2.0 * (n - 1)) * (s_max - 1.0) ** 2
        achieved = optimal_satisfaction_matrix(inst).loss
        worst_rel = max(worst_rel, abs(achieved - expected) / expected)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-9 and elapsed < 1.0
    _report(
        2,
        ok,
        f"min-loss formula family iv, N=3..50: max relative error "
        f"{worst_rel:.3e} <= 1e-9, {elapsed:.2f}s < 1s",
    )


def test_criterion_03_baseline_matrix_regression(table1):
    t0 = time.perf_counter()
    order_err = float(np.abs(random_order(table1).entries - ORDER_TABLE1).max())
    renorm_err = np.abs(simultaneous_renormalization(table1).entries - RENORM_TABLE1)
    rounded_cell = float(renorm_err[0, 1])  # 0.06/0.665 printed as 0.0902
    rest = renorm_err.copy()
    rest[0, 1] = 0.0
    renorm_rest = float(rest.max())
    elapsed = time.perf_counter() - t0
    ok = order_err <= 5e-5 and renorm_rest <= 5e-5 and rounded_cell <= 5e-4
    _report(
        3,
        ok,
        f"baseline regression: order max dev {order_err:.2e} <= 5e-5, "
        f"renorm max dev {renorm_rest:.2e} <= 5e-5 "
        f"(rounded cell {rounded_cell:.2e} <= 5e-4), {elapsed * 1e3:.1f}ms",
    )


def test_criterion_04_worked_fill_and_reduction_examples():
    from jointselect import fill_row_col, reduce_instance

    t0 = time.perf_counter()
    case1 = validate_instance([0.1, 0.2, 0.3, 0.4], [0.2, 0.2, 0.1, 0.5])
    red1 = reduce_instance(case1, fill_row_col(case1, 0, 3))
    dev1 = max(
        float(np.abs(red1.a - [0.2, 0.3, 0.2]).max()),
        float(np.abs(red1.b - [0.2, 0.1, 0.4]).max()),
        abs(red1.total - 0.7),
    )
    case2 = validate_instance([0.25, 0.1, 0.15, 0.5], [0.1, 0.35, 0.35, 0.2])
    red2 = reduce_instance(case2, fill_row_col(case2, 0, 3))
    dev2 = max(
        float(np.abs(red2.a - [0.1, 0.15, 0.4]).max()),
        float(np.abs(red2.b - [0.3, 0.35, 0.0]).max()),
        abs(red2.total - 0.65),
    )
    elapsed = time.perf_counter() - t0
    ok = dev1 <= 1e-15 and dev2 <= 1e-15
    _report(
        4,
        ok,
        f"worked reductions: case-1 dev {dev1:.2e}, case-2 dev {dev2:.2e} "
        f"<= 1e-15 (machine-exact), {elapsed * 1e3:.1f}ms",
    )


def test_criterion_05_method_ordering_full_sweep():
    t0 = time.perf_counter()
    records = run_benchmark()
    cells: dict[tuple[str, int], dict[str, float]] = {}
    for r in records:
        cells.setdefault((r.family, r.n), {})[r.method] = r.loss
    violations = 0
    worst_slack = 0.0
    for cell in cells.values():
        chain = (cell["optimal"], cell["order"], cell["renorm"], cell["uniform"])
        for lo, hi in zip(chain, chain[1:]):
            worst_slack = max(worst_slack, lo - hi)
            if lo > hi + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _report(
        5,
        ok,
        f"ordering optimal<=order<=renorm<=uniform on {len(cells)} cells: "
        f"{violations} violations, worst slack {worst_slack:.3e} <= 1e-12, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_06_ratio_anchors_family_iv_n50():
    t0 = time.perf_counter()
    inst = preference_family("iv", 50)
    l_renorm = loss(simultaneous_renormalization(inst), inst)
    l_order = loss(random_order(inst), inst)
    l_optimal = optimal_satisfaction_matrix(inst).loss
    r1 = l_renorm / l_order
    r2 = l_order / l_optimal
    elapsed = time.perf_counter() - t0
    ok = 1.1 <= r1 <= 1.35 and 1.7 <= r2 <= 2.3 and elapsed < 1.0
    _report(
        6,
        ok,
        f"ratio anchors N=50 family iv: renorm/order {r1:.4f} in [1.1,1.35], "
        f"order/optimal {r2:.4f} in [1.7,2.3], {elapsed:.2f}s < 1s",
    )


def test_criterion_07_oracle_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for n in (3, 4, 5, 6):
        for trial in range(200):
            inst = (
                random_feasible_instance(rng, n)
                if trial % 2 == 0
                else random_hot_instance(rng, n)
            )
            constructive = optimal_satisfaction_matrix(inst).loss
            solved = solve_min_loss(inst)
            assert solved.converged
            worst_gap = max(worst_gap, abs(constructive - solved.loss))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and elapsed < 60.0
    _report(
        7,
        ok,
        f"oracle sandwich, 200 instances per N in 3..6: max gap "
        f"{worst_gap:.3e} <= 1e-6, {elapsed:.2f}s < 60s",
    )


def test_criterion_08_kkt_certificate_family_iv():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 10, 50):
        inst = preference_family("iv", n)
        m = min_loss_matrix(inst)
        cert = kkt_verify(inst, m)
        assert cert.valid
        worst = max(worst, cert.residuals.max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(
        8,
        ok,
        f"KKT certificate family iv, N in {{3,10,50}}: max residual "
        f"{worst:.3e} <= 1e-9, {elapsed:.2f}s < 1s",
    )


def test_criterion_09_convexity_and_gradient_checks():
    t0 = time.perf_counter()
    reports = [convexity_check(n) for n in range(2, 9)]
    convex = all(r.passed for r in reports)
    floor = min(reports, key=lambda r: r.min_eigenvalue)

    rng = np.random.default_rng(99)
    grad_dev = 0.0
    from jointselect import JointSelectionMatrix

    for n in (3, 4, 5):
        inst = random_feasible_instance(rng, n)
        raw = rng.dirichlet(np.ones(n * n - n))
        entries = np.zeros((n, n))
        entries[~np.eye(n, dtype=bool)] = raw
        m = JointSelectionMatrix(entries)
        ga, gb = _gradient_terms(m, inst)
        off = ~np.eye(n, dtype=bool)
        g_fd = fd_gradient(m.entries, inst.a, inst.b)
        dev = np.abs((ga[:, None] + gb[None, :])[off] - g_fd[off])
        grad_dev = max(grad_dev, float(dev.max()))
    elapsed = time.perf_counter() - t0
    ok = convex and grad_dev <= 1e-6 and elapsed < 10.0
    _report(
        9,
        ok,
        f"convexity: min eigenvalue {floor.min_eigenvalue:.3e} >= -1e-9 (N=2..8, "
        f"floor at N={floor.n}); gradient vs central "
        f"differences {grad_dev:.3e} <= 1e-6, {elapsed:.2f}s < 10s",
    )


def test_criterion_10_multiplayer_reduction_and_impossibility():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        inst = (
            random_feasible_instance(rng, n)
            if rng.random() < 0.5
            else random_hot_instance(rng, n)
        )
        m = optimal_satisfaction_matrix(inst).matrix
        prefs = validate_multi(np.vstack([inst.a, inst.b]))
        gap = abs(multi_loss(prefs, tensor_from_matrix(m)) - loss(m, inst))
        worst_gap = max(worst_gap, gap)

    rng42 = np.random.default_rng(42)
    min_loss_seen = np.inf
    found = 0
    while found < 20:
        rows = rng42.dirichlet(np.ones(4), size=3)
        if float(rows.sum(axis=0).max()) <= 1.0:
            continue
        found += 1
        result = solve_multi_min_loss(validate_multi(rows))
        assert result.converged
        min_loss_seen = min(min_loss_seen, result.loss)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-12 and min_loss_seen > 1e-9 and elapsed < 120.0
    _report(
        10,
        ok,
        f"multiplayer: M=2 loss agreement {worst_gap:.3e} <= 1e-12 over 100 "
        f"instances; 20 overloaded M=3,N=4 oracle losses all >= "
        f"{min_loss_seen:.3e} > 1e-9, {elapsed:.2f}s < 120s",
    )


def test_criterion_11_sampling_conflict_freedom_and_marginals(table1):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    matrices = [
        optimal_satisfaction_matrix(table1).matrix,
        optimal_satisfaction_matrix(preference_family("iv", 5)).matrix,
        optimal_satisfaction_matrix(random_feasible_instance(rng, 8)).matrix,
    ]
    diag_hits = 0
    worst_dev = 0.0
    for seed, m in enumerate(matrices, start=1):
        counts = sample_joint(m, seed=seed, draws=100_000)
        diag_hits += int(np.trace(counts))
        pi_a, pi_b = m.marginals
        freq_a = counts.sum(axis=1) / counts.sum()
        freq_b = counts.sum(axis=0) / counts.sum()
        worst_dev = max(
            worst_dev,
            float(np.abs(freq_a - pi_a).max()),
            float(np.abs(freq_b - pi_b).max()),
        )
    elapsed = time.perf_counter() - t0
    ok = diag_hits == 0 and worst_dev <= 0.02 and elapsed < 5.0
    _report(
        11,
        ok,
        f"sampling 1e5 draws x {len(matrices)} matrices: {diag_hits} diagonal "
        f"hits, max marginal deviation {worst_dev:.4f} <= 0.02, "
        f"{elapsed:.2f}s < 5s",
    )
