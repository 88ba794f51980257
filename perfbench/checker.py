"""Independent output checker.

It recomputes every quantity it checks from the benchmark's own inputs
with its own sums; it calls nothing in the package under test. Each check
returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-9          # 1e-9 * max(1, T) with T = 1
BRANCH_BAND = 1e-9      # S_max <= 1 + 1e-9 is the zero-loss branch
LOSS_RTOL = 1e-9
ORACLE_GAP = 1e-8
# An entry counts towards the 2N-1 support bound when it exceeds the
# package's own entry-noise tolerance (1e-12 * T). The peel can leave
# ~1e-16 float dust in cells that are zero in exact arithmetic; those are
# counted separately as dust and reported, not checked.
SUPPORT_EPS = 1e-12


def expected_branch(a: list[float], b: list[float]) -> str:
    s_max = max(x + y for x, y in zip(a, b))
    return "zero-loss" if s_max <= 1.0 + BRANCH_BAND else "min-loss"


def min_loss(a: list[float], b: list[float]) -> float:
    n = len(a)
    s_max = max(x + y for x, y in zip(a, b))
    return n / (2.0 * (n - 1)) * (s_max - 1.0) ** 2


def check_matrix(a, b, branch: str, entries, reported_loss: float,
                 certificate_valid: bool | None) -> tuple[list[str], int, int]:
    """Check one constructed matrix; returns (problems, support, dust).

    ``support`` counts entries above SUPPORT_EPS, ``dust`` the nonzero
    entries at or below it.

    ``certificate_valid`` is None where the output carries no certificate
    (the cli's construct command); on the min-loss branch of a library
    result it must be True.
    """
    n = len(a)
    want = expected_branch(a, b)
    e = np.asarray(entries, dtype=np.float64).reshape(n, n)
    support = int(np.count_nonzero(e > SUPPORT_EPS))
    dust = int(np.count_nonzero(e)) - support
    problems = []
    if branch != want:
        problems.append(f"branch {branch!r}, expected {want!r}")
    if not np.all(np.isfinite(e)) or np.any(e < 0.0):
        problems.append("negative or non-finite entry")
    if np.any(np.diagonal(e) != 0.0):
        problems.append("nonzero diagonal")
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    rows, cols = e.sum(axis=1), e.sum(axis=0)
    if abs(float(e.sum()) - 1.0) > SUM_TOL:
        problems.append(f"entries sum to {float(e.sum())!r}")
    if want == "zero-loss":
        residual = max(float(np.abs(rows - a_arr).max()), float(np.abs(cols - b_arr).max()))
        if residual > SUM_TOL:
            problems.append(f"marginal residual {residual:.3e}")
        if support > 2 * n - 1:
            problems.append(f"{support} entries above {SUPPORT_EPS:g} > 2N-1 = {2 * n - 1}")
    else:
        target = min_loss(a, b)
        own = float(((rows - a_arr) ** 2).sum() + ((cols - b_arr) ** 2).sum())
        for what, value in (("matrix", own), ("reported", reported_loss)):
            if abs(value - target) > LOSS_RTOL * max(1.0, target):
                problems.append(f"{what} loss {value!r} != N/(2(N-1))(S_max-1)^2 = {target!r}")
        if certificate_valid is False:
            problems.append("KKT certificate missing or invalid")
    return problems, support, dust


def check_sample(payload: dict, draws: int, n: int) -> list[str]:
    counts = np.asarray(payload["counts"], dtype=np.int64)
    problems = []
    if counts.size != n * n:
        problems.append(f"{counts.size} counts for N = {n}")
        return problems
    if int(counts.sum()) != draws or payload["draws"] != draws:
        problems.append(f"counts sum to {int(counts.sum())}, expected {draws}")
    if np.trace(counts.reshape(n, n)) != 0 or payload["diagonal_hits"] != 0:
        problems.append("draws on the diagonal")
    return problems


def check_verify(payload: dict, a, b, kkt: bool) -> list[str]:
    problems = []
    oracle = payload.get("oracle", {})
    if oracle.get("converged") is not True:
        problems.append("oracle did not converge")
    if not oracle.get("gap", np.inf) <= ORACLE_GAP:
        problems.append(f"oracle gap {oracle.get('gap')!r} > {ORACLE_GAP}")
    if oracle.get("branch") != expected_branch(a, b):
        problems.append(f"verify branch {oracle.get('branch')!r}")
    if kkt and payload.get("kkt", {}).get("valid") is not True:
        problems.append("KKT certificate invalid")
    return problems
