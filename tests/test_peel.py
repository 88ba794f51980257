"""The flat zero-loss peel: frozen outputs, a recursive reference, growth pins,
and the one zero-loss decision across the 1e-9 dispatch band.

The frozen digests were taken from the recursive construction that the
flat loop replaced. Each one is the sha256 of ``(entries + 0.0).tobytes()``
over every instance of a group, in order. The ``+ 0.0`` turns -0.0 into
0.0: input weights of -0.0 can be copied into the output, and the sign of
a zero is not part of the answer.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jointselect.core as core
import jointselect.zeroloss as zeroloss
from jointselect import (
    Feasibility,
    JointSelectError,
    NotApplicableError,
    base_case_three,
    construct_zero_loss,
    feasibility_verdict,
    fill_row_col,
    kkt_verify,
    min_loss_matrix,
    min_loss_value,
    optimal_satisfaction_matrix,
    preference_family,
    reduce_instance,
    validate_instance,
    validate_multi,
)

ALPHAS = (0.2, 1.0, 5.0)


# --------------------------------------------------------------------------
# inputs of the frozen groups
# --------------------------------------------------------------------------

def dirichlet_within(rng, n, alpha):
    while True:
        a = rng.dirichlet(np.full(n, alpha))
        b = rng.dirichlet(np.full(n, alpha))
        if (a + b).max() <= 1.0:
            return a, b


def dirichlet_mix():
    rng = np.random.default_rng(20221)
    for i in range(1240):
        yield dirichlet_within(rng, 3 + i % 62, ALPHAS[i % 3])


def all_tied():
    """Every popularity is 2/N up to rounding; every fourth exactly equal."""
    rng = np.random.default_rng(20222)
    for n in range(3, 65):
        for rep in range(4):
            if rep == 0:
                a = np.full(n, 1.0 / n)
                yield a, a
                continue
            d = rng.uniform(-0.9, 0.9, n // 2)
            d = rng.permutation(np.concatenate([d, -d, np.zeros(n % 2)]))
            yield (1.0 + d) / n, (1.0 - d) / n


def zero_blocks():
    """A block of arms nobody wants, zeros scattered in one player, and -0.0."""
    rng = np.random.default_rng(20223)
    for n in range(8, 65):
        m = int(rng.integers(1, n // 2 + 1))
        start = int(rng.integers(0, n - m + 1))
        a, b = dirichlet_within(rng, n - m, 1.0)
        yield np.insert(a, start, np.zeros(m)), np.insert(b, start, np.zeros(m))
        a, b = dirichlet_within(rng, n, 0.5)
        a[rng.choice(n, n // 3, replace=False)] = 0.0
        b[rng.choice(n, n // 4, replace=False)] = -0.0
        yield a / a.sum(), b / b.sum()


def s_max_one():
    rng = np.random.default_rng(20224)
    for n in range(3, 65):
        for _ in range(3):
            j = int(rng.integers(n))
            p = rng.uniform(0.2, 0.8)
            a = np.insert((1.0 - p) * rng.dirichlet(np.ones(n - 1)), j, p)
            b = np.insert(p * rng.dirichlet(np.ones(n - 1)), j, 1.0 - p)
            yield a, b


def families():
    for family in ("i", "ii", "iii"):
        for n in range(4, 80):
            inst = preference_family(family, n)
            yield inst.a, inst.b


def large():
    rng = np.random.default_rng(20225)
    for n in (128, 256, 512):
        yield dirichlet_within(rng, n, 1.0)


GROUPS = {
    "dirichlet_mix": dirichlet_mix,
    "all_tied": all_tied,
    "zero_blocks": zero_blocks,
    "s_max_one": s_max_one,
    "families": families,
    "large": large,
}

FROZEN = {
    "dirichlet_mix": "67b300dfc13bac57fbf01e09d461df64e96a436baa277a870e574a9f9d5e8fbd",
    "all_tied": "58ec528d5374c432653f9e4f35cf0777dbfe1d514dff6358931bc305a7d97b07",
    "zero_blocks": "34daace72133674803cff7a4370ba4547584535b75ef8f6bf66d149ade3e495b",
    "s_max_one": "4e76b97789dbb679c8f0cae8482636a010b375938f72d19b4ae46d7c51fd4d69",
    "families": "d3a292217b3507bbe9898f6f168a2c44a5a9ea2bad5d7cff2f00295b99e6a6e3",
    "large": "01023cc1acacce5c94e33e9be694ee8ac5cbb75a6249e1de6d38620814afe556",
}


def group_digest(name: str) -> str:
    h = hashlib.sha256()
    for a, b in GROUPS[name]():
        h.update((construct_zero_loss(validate_instance(a, b)).entries + 0.0).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_outputs_match_frozen_digests(name):
    assert group_digest(name) == FROZEN[name]


# --------------------------------------------------------------------------
# recursive reference built from the public step functions
# --------------------------------------------------------------------------

def reference_entries(inst):
    """The induction as the paper states it: peel, reduce, recurse to N = 3."""
    if inst.n == 3:
        return base_case_three(inst).entries
    s = inst.popularity
    k = int(np.argmin(s))
    masked = s.copy()
    masked[k] = -np.inf
    v = int(np.argmax(masked))
    fill = fill_row_col(inst, k, v)
    sub = reference_entries(reduce_instance(inst, fill))
    entries = np.zeros((inst.n, inst.n))
    keep = np.delete(np.arange(inst.n), k)
    entries[k, :] = fill.row_k
    entries[:, k] = fill.col_k
    entries[np.ix_(keep, keep)] = sub
    return entries


def outcome(build, inst):
    try:
        return build(inst)
    except JointSelectError as exc:
        return type(exc)


def assert_matches_reference(a, b):
    """Same entries, or the same error, as the reference; an input with
    1 < S_max <= EDGE is answered by the hot-arm matrix instead, since the
    peel's last block would be empty."""
    inst = validate_instance(a, b)
    got = outcome(lambda x: construct_zero_loss(x).entries, inst)
    if 1.0 < inst.popularity.max() <= EDGE:
        want = hot_arm_entries(inst)
    else:
        want = outcome(reference_entries, inst)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want)


@st.composite
def tied_pairs(draw):
    """Small integer weights: many equal popularities and exact zeros."""
    n = draw(st.integers(4, 24))
    ints = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    a, b = np.array(draw(ints), float), np.array(draw(ints), float)
    return a / a.sum(), b / b.sum()


@st.composite
def zero_heavy_pairs(draw):
    n = draw(st.integers(4, 30))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    ws = st.lists(weight, min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    a, b = np.array(draw(ws)), np.array(draw(ws))
    return a / a.sum(), b / b.sum()


# The last popularity the dispatch admits at total 1, 1 + 1e-9 as floats.
EDGE = 1.0 + 1e-9


def _floats_from(x: float, count: int, toward: float) -> list[float]:
    out = [x]
    while len(out) < count:
        out.append(math.nextafter(out[-1], toward))
    return out


# S_max across the 1e-9 dispatch band: round steps, the last 64 floats at
# or below its edge and the first 8 above it.
BAND_S = sorted(
    {1.0 + d for d in (-1e-9, -1e-10, 0.0, 1e-12, 1e-10, 5e-10, 9.9e-10, 1e-9, 1.1e-9)}
    | set(_floats_from(EDGE, 64, 0.0))
    | set(_floats_from(math.nextafter(EDGE, 2.0), 8, 2.0))
)


@st.composite
def band_pairs(draw, sizes=st.integers(3, 20)):
    """One arm j whose popularity is exactly a value of BAND_S."""
    n = draw(sizes)
    target = draw(st.sampled_from(BAND_S))
    # p has 20 bits after the point, so target - p and p + q are exact.
    p = draw(st.integers(2**16, 15 * 2**16)) / 2**20
    j = draw(st.integers(0, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    q = target - p
    rng = np.random.default_rng(seed)
    a = np.insert((1.0 - p) * rng.dirichlet(np.ones(n - 1)), j, p)
    b = np.insert((1.0 - q) * rng.dirichlet(np.ones(n - 1)), j, q)
    return a, b


def hot_arm_entries(inst):
    """The hot-arm matrix at total 1, built from its closed form."""
    hot = int(np.argmax(inst.popularity))
    eps = (inst.popularity[hot] - 1.0) / (2.0 * (inst.n - 1))
    e = np.zeros((inst.n, inst.n))
    e[:, hot] = inst.a + eps
    e[hot, :] = inst.b + eps
    e[hot, hot] = 0.0
    return e


@settings(max_examples=150, deadline=None)
@given(tied_pairs())
def test_flat_peel_matches_reference_on_ties(pair):
    assert_matches_reference(*pair)


@settings(max_examples=150, deadline=None)
@given(zero_heavy_pairs())
# S_2 = 1 + 1e-10: inside the band, where the reference would peel.
@example(([0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 1e-10, 0, 0, 0, 0, 1]))
def test_flat_peel_matches_reference_on_zero_weights(pair):
    assert_matches_reference(*pair)


@settings(max_examples=150, deadline=None)
@given(band_pairs())
def test_flat_peel_matches_reference_across_dispatch_band(pair):
    assert_matches_reference(*pair)


@settings(max_examples=300, deadline=None)
@given(band_pairs(st.sampled_from([*range(2, 65), 1000])))
# Two arms with S_max = 1 + 1e-9 as floats: exact rows, then rows short of
# 1 by 7e-13, which are left unscaled.
@example(([0.5, 0.5], [0.500000001, 0.499999999]))
@example(([0.7499999999993, 0.25], [0.24999999899929992, 0.7500000010000001]))
def test_one_zero_loss_decision_and_a_verified_answer_across_the_band(pair):
    inst = validate_instance(*pair)
    result = optimal_satisfaction_matrix(inst)
    zero = result.branch == "zero-loss"
    assert zero == (inst.popularity.max() <= EDGE)
    assert (feasibility_verdict(validate_multi(pair)) is Feasibility.FEASIBLE) == zero
    assert (min_loss_value(inst) == 0.0) == zero
    for layer in (lambda: min_loss_matrix(inst), lambda: kkt_verify(inst, result.matrix)):
        try:
            layer()
        except NotApplicableError:
            assert zero
        else:
            assert not zero
    if zero:
        pi_a, pi_b = result.matrix.marginals
        assert max(np.abs(pi_a - inst.a).max(), np.abs(pi_b - inst.b).max()) <= 1e-9
    else:
        assert result.certificate.valid


# --------------------------------------------------------------------------
# growth pins: counts and sizes, no timing
# --------------------------------------------------------------------------

def test_large_n_needs_no_recursion_and_keeps_a_tree_support():
    rng = np.random.default_rng(20226)
    n = 2000
    a, b = dirichlet_within(rng, n, 1.0)
    inst = validate_instance(a, b)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        e = construct_zero_loss(inst).entries
    finally:
        sys.setrecursionlimit(limit)
    assert int(np.count_nonzero(e > 1e-12)) <= 2 * n - 1
    assert np.abs(e.sum(axis=1) - inst.a).max() <= 1e-9
    assert np.abs(e.sum(axis=0) - inst.b).max() <= 1e-9


def test_one_validation_and_one_matrix_beyond_the_input(monkeypatch):
    calls = {"validate": 0, "matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    inst = validate_instance(*dirichlet_within(np.random.default_rng(20227), 64, 1.0))
    monkeypatch.setattr(zeroloss, "validate_instance", counted("validate", validate_instance))
    monkeypatch.setattr(zeroloss, "JointSelectionMatrix",
                        counted("matrix", zeroloss.JointSelectionMatrix))
    construct_zero_loss(inst)
    assert calls["validate"] <= 2
    assert calls["matrix"] <= 2


def test_the_peel_hands_over_its_nonzero_cells_only(monkeypatch):
    # Zero weights, ties and S_max = 1 leave spills across zero weights,
    # zero weights opposite V and zeros in the base block.
    handed = []
    store = core._cell_store

    def counted(cells):
        handed.append(np.array(cells.vals, dtype=np.float64))
        return store(cells)

    monkeypatch.setattr(core, "_cell_store", counted)
    for group in (zero_blocks, all_tied, s_max_one):
        for a, b in group():
            construct_zero_loss(validate_instance(a, b))
    vals = np.concatenate(handed)
    assert vals.size > 10_000
    assert np.count_nonzero(vals == 0.0) == 0


def traced_zero_loss_build(n: int) -> int:
    """The traced peak of construct_zero_loss on Dirichlet(1) weights."""
    inst = validate_instance(*dirichlet_within(np.random.default_rng(20229 + n), n, 1.0))
    tracemalloc.start()
    try:
        construct_zero_loss(inst)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_zero_loss_build_needs_memory_linear_in_its_cells():
    # Growth pin, not a timing gate: 4 times the arms and cells, 16 times
    # the entries. An N x N array anywhere in the build, such as one block
    # of every row with three or more cells, would grow 16 times.
    small, large = traced_zero_loss_build(2500), traced_zero_loss_build(10_000)
    assert large <= 6 * small


# --------------------------------------------------------------------------
# frozen answers at large N
# --------------------------------------------------------------------------

def large_dirichlet(rng, n):
    return dirichlet_within(rng, n, 1.0)


def large_zero_block(rng, n):
    """A tenth of the arms, in one block, wanted by nobody."""
    m = n // 10
    a, b = dirichlet_within(rng, n - m, 1.0)
    start = int(rng.integers(0, n - m + 1))
    return np.insert(a, start, np.zeros(m)), np.insert(b, start, np.zeros(m))


def large_tied(rng, n):
    """Every popularity is 2/N up to rounding."""
    d = rng.uniform(-0.9, 0.9, n // 2)
    d = rng.permutation(np.concatenate([d, -d, np.zeros(n % 2)]))
    return (1.0 + d) / n, (1.0 - d) / n


LARGE = {"dirichlet": large_dirichlet, "zero_block": large_zero_block, "tied": large_tied}

# sha256 of the cells' rows and cols (as int64) and vals + 0.0, in order.
FROZEN_CELLS = {
    ("dirichlet", 2000): "d347fcb328a305c30ac8445a64d5107e3bf4fe0406fc982e20178c0ecb7d1813",
    ("dirichlet", 10_000): "6f3cdc52c2313bd37c2d0a184d8ef963aa8b8159847a64a1895f792065936774",
    ("tied", 2000): "a69cd1f8034ed0fa4db98d419f609e3b47b026c56cd73d976366444b993790f5",
    ("tied", 10_000): "de36039f7efa5f659808f5eef9a17f19e32207a2c596af24326a2d39d7915344",
    ("zero_block", 2000): "5ef424d80009c48b1faed2c46819b353161a965fc2d202568368f8b9ce8af829",
    ("zero_block", 10_000): "f82c47ca4af3ac51562dbd22dd2c45e60fe12364596f2789a14584096eaea2da",
}


def cells_digest(m) -> str:
    h = hashlib.sha256()
    for x in (m.rows.astype(np.int64), m.cols.astype(np.int64), m.vals + 0.0):
        h.update(x.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n", [2000, 10_000])
@pytest.mark.parametrize("kind", sorted(LARGE))
def test_large_n_answers_match_frozen_cells(kind, n):
    inst = validate_instance(*LARGE[kind](np.random.default_rng(20228 + n), n))
    m = construct_zero_loss(inst)
    assert cells_digest(m) == FROZEN_CELLS[kind, n]
    assert int(np.count_nonzero(m.vals > 1e-12)) <= 2 * n - 1
    pi_a, pi_b = m.marginals
    assert np.abs(pi_a - inst.a).max() <= 1e-9
    assert np.abs(pi_b - inst.b).max() <= 1e-9
