"""Seeded inputs for the four workloads.

Every input is a pair of raw weight lists (Python floats) built here with
numpy's PCG64 generator; the package under test receives nothing else.
Input ``i`` of a workload depends only on (seed, workload, i), so a run
that completes more or fewer operations still sees the same sequence.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("zero-small", "zero-large", "hot-arm", "cli")

ALPHAS = (0.2, 1.0, 5.0)
SMALL_N = (3, 64)
LARGE_N = 512
HOT_N = 1024
HOT_S_MAX = 1.9
VERIFY_N_MAX = 12
CLI_HOT_SHARE = 0.25
SAMPLE_DRAWS = 1_000_000
# N of the cli ops steps through the golden-ratio (Weyl) sequence from a
# seeded start, so that every run sees N spread evenly over its range. A
# sample op's time grows with N (about 35 ms of sampling at N = 3, 140 ms
# at N = 64), and with N drawn at random p90 moved from seed to seed.
GOLDEN = (5 ** 0.5 - 1) / 2

# One period of the cli mix: 12 construct, 5 sample, 3 verify (60/25/15 %).
# A fixed pattern keeps the mix exact in every run; the first slot is a
# construct, and every sample follows a construct, whose matrix it reads.
CLI_PATTERN = "CCSCVCSCCVCSCCSCVCSC"

# One period of the zero-small mix: the first four slots are edge cases,
# the rest Dirichlet draws with the concentration cycled over ALPHAS.
SMALL_PERIOD = 25


def op_rng(seed: int, workload: str, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), i])


def _as_lists(a, b) -> tuple[list[float], list[float]]:
    return [float(x) for x in a], [float(x) for x in b]


def dirichlet_within(rng, n: int, alpha: float):
    """Dirichlet pair resampled until every popularity is at most 1."""
    while True:
        a = rng.dirichlet(np.full(n, alpha))
        b = rng.dirichlet(np.full(n, alpha))
        if (a + b).max() <= 1.0:
            return a, b


def zero_block(rng, n: int):
    """Some arms carry zero weight for both players (popularity exactly 0)."""
    n = max(n, 8)
    m = int(rng.integers(1, n // 2 + 1))
    start = int(rng.integers(0, n - m + 1))
    live = n - m
    a_live, b_live = dirichlet_within(rng, live, 1.0)
    a = np.concatenate([a_live[:start], np.zeros(m), a_live[start:]])
    b = np.concatenate([b_live[:start], np.zeros(m), b_live[start:]])
    return a, b


def tied(rng, n: int):
    """Every popularity equals 2/N up to rounding."""
    d = rng.uniform(-0.9, 0.9, n // 2)
    d = np.concatenate([d, -d, np.zeros(n % 2)])
    d = rng.permutation(d)
    return (1.0 + d) / n, (1.0 - d) / n


def s_max_one(rng, n: int):
    """One arm has popularity 1 up to rounding; the others share the rest."""
    j = int(rng.integers(n))
    p = rng.uniform(0.2, 0.8)
    a = np.insert((1.0 - p) * rng.dirichlet(np.ones(n - 1)), j, p)
    b = np.insert(p * rng.dirichlet(np.ones(n - 1)), j, 1.0 - p)
    return a, b


def family(name: str, n: int):
    """Families i-iii of the paper's sweep, normalised in exact integers."""
    if name == "i":
        nums, den = list(range(1, n + 1)), n * (n + 1) // 2
    else:
        nums, den = [1] + [2**k for k in range(n - 1)], 2 ** (n - 1)
    w = [x / den for x in nums]
    return w, (w[::-1] if name == "iii" else w)


def hot_arm(rng, n: int):
    """One arm at a random index with popularity in (1, HOT_S_MAX]."""
    h = int(rng.integers(n))
    s_hot = HOT_S_MAX - (HOT_S_MAX - 1.0) * rng.random()
    x = rng.uniform(s_hot - 1.0, 1.0)
    a = np.insert((1.0 - x) * rng.dirichlet(np.ones(n - 1)), h, x)
    b = np.insert((1.0 - (s_hot - x)) * rng.dirichlet(np.ones(n - 1)), h, s_hot - x)
    return a, b


def zero_small(seed: int, i: int):
    rng = op_rng(seed, "zero-small", i)
    n = int(rng.integers(SMALL_N[0], SMALL_N[1] + 1))
    slot = i % SMALL_PERIOD
    if slot == 0:
        return _as_lists(*zero_block(rng, n))
    if slot == 1:
        return _as_lists(*tied(rng, n))
    if slot == 2:
        return _as_lists(*s_max_one(rng, n))
    if slot == 3:
        return _as_lists(*family(("i", "ii", "iii")[(i // SMALL_PERIOD) % 3], n))
    return _as_lists(*dirichlet_within(rng, n, ALPHAS[i % len(ALPHAS)]))


def zero_large(seed: int, i: int):
    return _as_lists(*dirichlet_within(op_rng(seed, "zero-large", i), LARGE_N, 1.0))


def hot(seed: int, i: int):
    return _as_lists(*hot_arm(op_rng(seed, "hot-arm", i), HOT_N))


LIBRARY_INPUTS = {"zero-small": zero_small, "zero-large": zero_large, "hot-arm": hot}


def cli_op(seed: int, i: int) -> dict:
    """The i-th cli op: its kind and the inputs it needs.

    ``kind`` is "construct", "sample" or "verify". Sample ops carry a draw
    seed; they sample the matrix of the construct op just before them.
    """
    rng = op_rng(seed, "cli", i)
    kind = {"C": "construct", "S": "sample", "V": "verify"}[CLI_PATTERN[i % len(CLI_PATTERN)]]
    if kind == "sample":
        return {"kind": kind, "draw_seed": int(rng.integers(2**31)), "draws": SAMPLE_DRAWS}
    n_max = VERIFY_N_MAX if kind == "verify" else SMALL_N[1]
    start = np.random.default_rng([seed, WORKLOADS.index("cli")]).random()
    n = SMALL_N[0] + int((start + i * GOLDEN) % 1.0 * (n_max - SMALL_N[0] + 1))
    if rng.random() < CLI_HOT_SHARE:
        a, b = hot_arm(rng, n)
    else:
        a, b = dirichlet_within(rng, n, ALPHAS[i % len(ALPHAS)])
    a, b = _as_lists(a, b)
    return {"kind": kind, "a": a, "b": b}


def growth_instance(seed: int, n: int, hot_arm_case: bool):
    """Instance for the growth probes of the traced run."""
    rng = np.random.default_rng([seed, len(WORKLOADS), n, int(hot_arm_case)])
    return _as_lists(*(hot_arm(rng, n) if hot_arm_case else dirichlet_within(rng, n, 1.0)))
