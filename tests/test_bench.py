"""Benchmark families, sweep mechanics, CSV format, golden regression."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from jointselect import (
    FAMILIES,
    FULL_RANGE,
    METHODS,
    DegenerateProductError,
    InvalidArmCountError,
    ValidationError,
    min_loss_value,
    preference_family,
    run_benchmark,
    summary_table,
    write_csv,
)
import jointselect.bench as bench

GOLDEN = Path(__file__).parent / "data" / "bench_golden.csv"


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------

def test_family_i_linear():
    inst = preference_family("i", 3)
    np.testing.assert_array_equal(inst.a, [1 / 6, 2 / 6, 3 / 6])
    np.testing.assert_array_equal(inst.b, inst.a)


def test_family_ii_geometric_doubling():
    inst = preference_family("ii", 4)
    np.testing.assert_array_equal(inst.a, [1 / 8, 1 / 8, 2 / 8, 4 / 8])
    # The top arm sits exactly at the feasibility boundary S = 1.
    assert float(inst.popularity.max()) == 1.0


def test_family_iii_reverses_second_player():
    inst = preference_family("iii", 5)
    np.testing.assert_array_equal(inst.b, inst.a[::-1])
    np.testing.assert_array_equal(inst.a, preference_family("ii", 5).a)


def test_family_iv_tripling_is_always_overloaded():
    inst = preference_family("iv", 3)
    np.testing.assert_array_equal(inst.a, [1 / 13, 3 / 13, 9 / 13])
    for n in (3, 10, 25, 50):
        s_max = float(preference_family("iv", n).popularity.max())
        expected = 4 * 3 ** (n - 1) / (3**n - 1)
        assert s_max == pytest.approx(expected, rel=1e-15)
        assert s_max > 1.0


def test_families_normalize_exactly_at_every_size():
    for family in FAMILIES:
        for n in FULL_RANGE:
            inst = preference_family(family, n)
            assert abs(float(inst.a.sum()) - 1.0) <= 1e-12
            assert abs(float(inst.b.sum()) - 1.0) <= 1e-12


def test_family_bounds():
    with pytest.raises(InvalidArmCountError):
        preference_family("i", 2)
    with pytest.raises(ValidationError):
        preference_family("v", 5)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_run_benchmark_shape_and_order():
    records = run_benchmark(families=("i", "iv"), n_values=(3, 4, 5))
    assert len(records) == 2 * 3 * 4
    keys = [(r.family, r.n, r.method) for r in records]
    assert keys == sorted(keys)


def test_run_benchmark_optimal_matches_closed_form():
    for r in run_benchmark(families=("iv",), n_values=(3, 7, 20), methods=("optimal",)):
        inst = preference_family("iv", r.n)
        assert r.loss == pytest.approx(min_loss_value(inst), rel=1e-9)


def test_run_benchmark_raises_a_failing_cells_error(monkeypatch):
    def explode(inst):
        raise DegenerateProductError("forced for the error-path test")

    monkeypatch.setattr(bench, "simultaneous_renormalization", explode)
    with pytest.raises(DegenerateProductError, match="forced"):
        run_benchmark(families=("i",), n_values=(3,))
    # An unknown method ends the sweep too.
    with pytest.raises(ValidationError, match="unknown method 'nope'"):
        run_benchmark(families=("i",), n_values=(3,), methods=("nope",))


def test_run_benchmark_past_the_golden_range():
    # Every method on every family well past N = 50, up to MAX_N: each loss
    # is finite and the losses keep the order of criterion 5.
    records = run_benchmark(n_values=(51, 100, 250, 500, bench.MAX_N))
    assert len(records) == 4 * 5 * 4
    cells: dict[tuple[str, int], dict[str, float]] = {}
    for r in records:
        assert np.isfinite(r.loss), (r.family, r.n, r.method)
        cells.setdefault((r.family, r.n), {})[r.method] = r.loss
    for key, cell in cells.items():
        chain = [cell[m] for m in ("optimal", "order", "renorm", "uniform")]
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi + 1e-12, (key, chain)


# --------------------------------------------------------------------------
# csv + summary
# --------------------------------------------------------------------------

def test_write_csv_round_trips_losses_exactly():
    records = run_benchmark(families=("ii",), n_values=(3, 4))
    buf = io.StringIO()
    write_csv(records, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "family,N,method,loss"
    assert len(lines) == 1 + len(records)
    for line, r in zip(lines[1:], records):
        family, n, method, cell = line.split(",")
        assert (family, int(n), method) == (r.family, r.n, r.method)
        assert float(cell) == r.loss


def test_summary_table_lists_every_panel():
    records = run_benchmark(families=("i",), n_values=(3, 4, 5))
    buf = io.StringIO()
    summary_table(records, buf)
    body = buf.getvalue()
    for method in METHODS:
        assert method in body


# --------------------------------------------------------------------------
# golden regression
# --------------------------------------------------------------------------

def test_full_sweep_matches_golden_file():
    records = run_benchmark()
    buf = io.StringIO()
    write_csv(records, buf)
    fresh = buf.getvalue()
    assert GOLDEN.exists(), f"{GOLDEN} is missing"
    golden_lines = GOLDEN.read_text().strip().splitlines()
    fresh_lines = fresh.strip().splitlines()
    assert len(fresh_lines) == len(golden_lines) == 1 + 4 * 48 * 4
    for got, want in zip(fresh_lines[1:], golden_lines[1:]):
        g_key, g_cell = got.rsplit(",", 1)
        w_key, w_cell = want.rsplit(",", 1)
        assert g_key == w_key
        assert float(g_cell) == pytest.approx(float(w_cell), rel=1e-12)
