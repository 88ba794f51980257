"""Command-line interface: subcommands, formats, exit codes, error JSON."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jointselect.bench as bench
import jointselect.cli as cli
import jointselect.minloss as minloss
from jointselect import (
    DegenerateProductError,
    InternalInvariantError,
    loss,
    matrix_from_json,
    matrix_to_json,
    simultaneous_renormalization,
    uniform_random,
    validate_instance,
)
from jointselect.bench import MAX_N
from jointselect.core import given_loss
from jointselect.cli import main

from conftest import TABLE1_A, TABLE1_B
from perfbench.checker import check_matrix

HOT_A = [0.1, 0.1, 0.8]
HOT_B = [0.0, 0.2, 0.8]
GEO_A = [1 / 13, 3 / 13, 9 / 13]
SRC = str(Path(__file__).resolve().parent.parent / "src")
README = Path(SRC).parent / "README.md"


@pytest.fixture
def table1_file(tmp_path):
    path = tmp_path / "table1.json"
    path.write_text(json.dumps({"a": TABLE1_A, "b": TABLE1_B}))
    return str(path)


@pytest.fixture
def hot_file(tmp_path):
    path = tmp_path / "hot.json"
    path.write_text(json.dumps({"a": HOT_A, "b": HOT_B}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_error(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# construct
# --------------------------------------------------------------------------

def test_construct_json_success(capsys, table1_file):
    code, out, _ = run(capsys, "construct", table1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "zero-loss"
    assert payload["loss"] <= 1e-12
    assert payload["popularity"] == pytest.approx([0.8, 0.45, 0.75])
    m = matrix_from_json(payload)  # enriched payload still parses as a matrix
    assert m.n == 3


def test_construct_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO(json.dumps({"a": TABLE1_A, "b": TABLE1_B}))
    )
    code, out, _ = run(capsys, "construct", "-")
    assert code == 0
    assert json.loads(out)["branch"] == "zero-loss"


def test_construct_hot_instance_falls_back_to_min_loss(capsys, hot_file):
    code, out, _ = run(capsys, "construct", hot_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "min-loss"
    assert payload["loss"] == pytest.approx(0.27, abs=1e-12)


def test_construct_require_zero_loss_exits_one(capsys, hot_file):
    code, out, err = run(capsys, "construct", hot_file, "--require-zero-loss")
    assert code == 1
    assert out == ""
    assert stderr_error(err)["error"] == "infeasible"


def test_construct_csv_format(capsys, table1_file):
    code, out, err = run(capsys, "construct", table1_file, "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    parsed = np.array([[float(c) for c in row] for row in rows])
    assert parsed.shape == (3, 3)
    assert parsed.sum() == pytest.approx(1.0, abs=1e-9)
    assert "loss=" in err and "branch=zero-loss" in err


def test_construct_writes_output_file(capsys, table1_file, tmp_path):
    out_path = tmp_path / "matrix.json"
    code, out, _ = run(capsys, "construct", table1_file, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["n"] == 3


def test_construct_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "construct", str(bad))
    assert code == 2
    assert stderr_error(err)["error"] == "parse"


def test_construct_validation_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps({"a": [0.6, 0.5, -0.1], "b": [0.2, 0.3, 0.5]}))
    code, _, err = run(capsys, "construct", str(bad))
    assert code == 2
    assert stderr_error(err)["error"] == "negative-weight"


def test_construct_exits_zero_on_a_tie_that_rounding_splits(capsys, tmp_path):
    # Both of the peeled arm's weights overflow their opposites by under an
    # ulp, while all four popularities round to 0.5.
    path = tmp_path / "tied.json"
    path.write_text(json.dumps({"a": [0.30000000000000004, 0.19999999999999998, 0.25, 0.25],
                                "b": [0.2, 0.3, 0.25, 0.25]}))
    code, out, err = run(capsys, "construct", str(path))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["branch"] == "zero-loss"
    assert payload["loss"] < 1e-30


@pytest.mark.parametrize(
    "command",
    [["construct"], ["baseline", "--method", "uniform"], ["verify", "--oracle"]],
    ids=["construct", "baseline", "verify"],
)
@pytest.mark.parametrize("a", [[0.5, "x"], {}, [0.5, []]], ids=["string", "object", "nested"])
def test_non_numeric_weights_exit_two(capsys, tmp_path, command, a):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a": a, "b": [0.5, 0.5]}))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "validation"  # one JSON object, nothing else


def test_construct_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "construct", str(tmp_path / "nowhere.json"))
    assert code == 2
    assert stderr_error(err)["error"] == "io"


def test_internal_invariant_failure_exits_three(capsys, table1_file, monkeypatch):
    def explode(inst):
        raise InternalInvariantError("forced for the exit-code test")

    monkeypatch.setattr(cli, "optimal_satisfaction_matrix", explode)
    code, _, err = run(capsys, "construct", table1_file)
    assert code == 3
    assert stderr_error(err)["error"] == "internal-invariant"


def test_construct_with_a_failed_certificate_exits_three(capsys, hot_file, monkeypatch):
    # A min-loss answer whose KKT certificate fails is not printed.
    real = minloss.kkt_verify
    monkeypatch.setattr(
        minloss, "kkt_verify",
        lambda inst, m: dataclasses.replace(real(inst, m), _measured=(1.0, 0.0, 0.0)),
    )
    code, out, err = run(capsys, "construct", hot_file)
    assert (code, out) == (3, "")
    assert stderr_error(err)["error"] == "internal-invariant"


# Weights with 9 decimals whose sums miss 1 by up to 1e-9: accepted by
# validation, so they must build. The second is a hot-arm instance.
NEAR_TOTAL = [
    ([0.229154689, 0.548831661, 0.159242701, 0.062770949],
     [0.225328032, 0.331141041, 0.392764895, 0.050766031]),
    ([0.027847941, 0.028616662, 0.830704103, 0.112831294],
     [0.027847942, 0.028616662, 0.830704103, 0.112831294]),
    ([0.559158914, 0.18308551, 0.067827841, 0.189927736],
     [0.020710219, 0.496908692, 0.472989269, 0.00939182]),
]


@pytest.mark.parametrize("a, b", NEAR_TOTAL)
def test_construct_builds_weights_whose_sums_are_off_within_tolerance(capsys, tmp_path, a, b):
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"a": a, "b": b}))
    code, out, _ = run(capsys, "construct", str(path))
    assert code == 0
    payload = json.loads(out)
    entries = np.array(payload["entries"]).reshape(4, 4)
    pi_a, pi_b = entries.sum(axis=1), entries.sum(axis=0)
    if payload["branch"] == "zero-loss":
        assert np.abs(pi_a - a).max() <= 1e-9
        assert np.abs(pi_b - b).max() <= 1e-9
    else:
        # the hot-arm answer gives every other arm its weight plus eps
        s = np.add(a, b)
        hot = int(np.argmax(s))
        eps = (s[hot] - 1.0) / 6.0
        cold = np.arange(4) != hot
        assert np.abs(pi_a - a - eps)[cold].max() <= 1e-9
        assert np.abs(pi_b - b - eps)[cold].max() <= 1e-9
        assert abs(entries.sum() - 1.0) <= 1e-9


def test_construct_reports_its_loss_against_the_weights_as_given(capsys, tmp_path):
    # b sums to 0.999999999, so the instance scales it to 1. The answer
    # meets the scaled b to rounding (loss ~1e-32); construct reports the
    # loss against b as given, and verify --oracle keeps comparing both of
    # its losses on the one scaled instance.
    a, b = NEAR_TOTAL[0]
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"a": a, "b": b}))
    code, out, _ = run(capsys, "construct", str(path))
    assert code == 0
    payload = json.loads(out)
    pi_a, pi_b = matrix_from_json(payload).marginals
    given = float(np.sum((pi_a - a) ** 2) + np.sum((pi_b - b) ** 2))
    assert payload["loss"] == pytest.approx(given, rel=1e-9, abs=0)
    assert payload["loss"] == pytest.approx(3.17e-19, rel=1e-2, abs=0)
    code, _, err = run(capsys, "construct", str(path), "--format", "csv")
    assert code == 0
    assert f"loss={payload['loss']:.17g} " in err
    code, out, _ = run(capsys, "verify", str(path), "--oracle")
    assert code == 0
    assert json.loads(out)["oracle"]["constructive_loss"] <= 1e-30


# --------------------------------------------------------------------------
# baseline
# --------------------------------------------------------------------------

def test_baseline_uniform(capsys, table1_file):
    code, out, _ = run(capsys, "baseline", table1_file, "--method", "uniform")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "uniform"
    assert payload["loss"] == pytest.approx(41.0 / 600.0, abs=1e-15)


def test_baseline_order_reports_degenerate_draws(capsys, tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"a": [1.0, 0.0], "b": [1.0, 0.0]}))
    code, out, _ = run(capsys, "baseline", str(path), "--method", "order")
    assert code == 0
    payload = json.loads(out)
    assert payload["degenerate_draws"] == [["a", 0], ["b", 0]]
    assert payload["entries"] == [0.0, 0.5, 0.5, 0.0]


def test_baseline_renorm_degenerate_exits_two(capsys, tmp_path):
    path = tmp_path / "deg.json"
    path.write_text(json.dumps({"a": [1.0, 0.0], "b": [1.0, 0.0]}))
    code, _, err = run(capsys, "baseline", str(path), "--method", "renorm")
    assert code == 2
    assert stderr_error(err)["error"] == "degenerate-product"


def test_baseline_renorm_fallback_flag(capsys, tmp_path):
    path = tmp_path / "deg.json"
    path.write_text(json.dumps({"a": [1.0, 0.0], "b": [1.0, 0.0]}))
    code, out, _ = run(
        capsys, "baseline", str(path), "--method", "renorm", "--fallback-uniform"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fallback"] == "uniform"
    assert payload["entries"] == [0.0, 0.5, 0.5, 0.0]


def test_baseline_reports_loss_against_the_weights_as_given(capsys, tmp_path):
    # The weights' sums miss 1 by more than 1e-12, so the instance scales them.
    a, b = NEAR_TOTAL[0]
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"a": a, "b": b}))
    code, out, _ = run(capsys, "baseline", str(path), "--method", "renorm")
    assert code == 0
    inst = validate_instance(a, b)
    m = simultaneous_renormalization(inst)
    assert json.loads(out)["loss"] == given_loss(m, inst) == 0.023020442329184147
    assert loss(m, inst) != given_loss(m, inst)


def test_baseline_method_is_required(capsys, table1_file):
    with pytest.raises(SystemExit) as exc:
        main(["baseline", table1_file])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

def test_bench_small_sweep_csv(capsys):
    code, out, err = run(capsys, "bench", "--n-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,N,method,loss"
    assert len(lines) == 1 + 4 * 3 * 4
    assert "family" in err  # summary table on stderr


def test_bench_json_records(capsys):
    code, out, _ = run(
        capsys, "bench", "--families", "iv", "--methods", "optimal",
        "--n-max", "4", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["N"] for r in records] == [3, 4]
    assert all(r.keys() == {"family", "N", "method", "loss"} for r in records)


def test_bench_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "bench", "--families", "i,x")
    assert code == 2
    assert stderr_error(err)["error"] == "validation"


@pytest.mark.parametrize("flag, plural", [("--families", "families"), ("--methods", "methods")])
def test_bench_rejects_an_empty_list(capsys, flag, plural):
    code, _, err = run(capsys, "bench", flag, "")
    assert code == 2
    assert stderr_error(err) == {"error": "validation", "message": f"no {plural} given"}


def test_bench_rejects_bad_range(capsys):
    code, _, err = run(capsys, "bench", "--n-min", "2", "--n-max", "5")
    assert code == 2
    assert stderr_error(err)["error"] == "validation"


def test_bench_bounds_its_largest_n(capsys):
    # N = 20000 would ask each baseline for several 3.2 GB arrays.
    code, _, err = run(capsys, "bench", "--n-min", "20000", "--n-max", "20000",
                       "--methods", "uniform")
    assert code == 2
    assert stderr_error(err) == {
        "error": "validation", "message": f"--n-max must be <= {MAX_N}, got 20000"
    }
    code, out, _ = run(capsys, "bench", "--n-min", str(MAX_N), "--n-max", str(MAX_N),
                       "--families", "i", "--methods", "uniform")
    assert code == 0
    assert out.splitlines()[1].startswith(f"i,{MAX_N},uniform,")


@pytest.mark.parametrize("target, error, code, kind", [
    ("random_order", InternalInvariantError, 3, "internal-invariant"),
    ("simultaneous_renormalization", DegenerateProductError, 2, "degenerate-product"),
])
def test_bench_cell_that_fails_ends_the_sweep(capsys, monkeypatch, target, error, code, kind):
    # A failing cell is no CSV row: its error ends the sweep with that
    # error's exit code, and nothing reaches stdout.
    def explode(inst):
        raise error("forced for the exit-code test")

    monkeypatch.setattr(bench, target, explode)
    got, out, err = run(capsys, "bench", "--families", "i", "--n-max", "3")
    assert (got, out) == (code, "")
    assert stderr_error(err) == {"error": kind, "message": "forced for the exit-code test"}


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_kkt_and_oracle(capsys, tmp_path):
    path = tmp_path / "geo.json"
    path.write_text(json.dumps({"a": GEO_A, "b": GEO_A}))
    code, out, _ = run(capsys, "verify", str(path), "--kkt", "--oracle")
    assert code == 0
    sections = json.loads(out)
    assert sections["kkt"]["valid"] is True
    assert sections["kkt"]["residuals"]["stationarity"] <= 1e-9
    assert sections["oracle"]["branch"] == "min-loss"
    assert sections["oracle"]["gap"] <= 1e-6
    assert sections["oracle"]["converged"] is True


def test_verify_kkt_against_provided_matrix(capsys, tmp_path):
    pref = tmp_path / "geo.json"
    pref.write_text(json.dumps({"a": GEO_A, "b": GEO_A}))
    built = tmp_path / "m.json"
    code, out, _ = run(capsys, "construct", str(pref), "--out", str(built))
    assert code == 0
    code, out, _ = run(
        capsys, "verify", str(pref), "--kkt", "--matrix", str(built)
    )
    assert code == 0
    assert json.loads(out)["kkt"]["valid"] is True


def test_verify_kkt_matrix_of_other_size_exits_two(capsys, tmp_path):
    pref = tmp_path / "geo.json"
    pref.write_text(json.dumps({"a": GEO_A, "b": GEO_A}))
    other = tmp_path / "m4.json"
    other.write_text(json.dumps(matrix_to_json(uniform_random(4))))
    code, out, err = run(capsys, "verify", str(pref), "--kkt", "--matrix", str(other))
    assert code == 2
    assert out == ""
    assert stderr_error(err)["error"] == "dimension-mismatch"


@pytest.mark.parametrize(
    "argv",
    [["--oracle", "--matrix", "{matrix}"], ["--convexity", "--n", "3", "--matrix", "{missing}"]],
    ids=["oracle", "convexity-missing-file"],
)
def test_verify_matrix_without_kkt_exits_two(capsys, tmp_path, argv):
    # Only --kkt reads the matrix; given to another section, it would be ignored.
    pref = tmp_path / "geo.json"
    pref.write_text(json.dumps({"a": GEO_A, "b": GEO_A}))
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(matrix_to_json(uniform_random(3))))
    paths = {"matrix": str(matrix), "missing": str(tmp_path / "missing.json")}
    code, out, err = run(capsys, "verify", str(pref), *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "validation", "message": "--matrix is read only by --kkt"}


def test_verify_convexity_standalone(capsys):
    code, out, _ = run(capsys, "verify", "--convexity", "--n", "4")
    assert code == 0
    report = json.loads(out)["convexity"]
    assert report["passed"] is True
    assert report["dimension"] == 12
    assert report["min_eigenvalue"] >= -1e-9


def test_verify_convexity_takes_n_from_input(capsys, table1_file):
    code, out, _ = run(capsys, "verify", table1_file, "--convexity")
    assert code == 0
    assert json.loads(out)["convexity"]["n"] == 3


def test_verify_kkt_on_cool_instance_exits_two(capsys, table1_file):
    code, _, err = run(capsys, "verify", table1_file, "--kkt")
    assert code == 2
    assert stderr_error(err)["error"] == "not-applicable"


def test_verify_needs_a_section(capsys, table1_file):
    code, _, err = run(capsys, "verify", table1_file)
    assert code == 2
    assert stderr_error(err)["error"] == "validation"


def test_verify_convexity_needs_dimension(capsys):
    code, _, err = run(capsys, "verify", "--convexity")
    assert code == 2
    assert stderr_error(err)["error"] == "validation"


@pytest.mark.parametrize("trials", ["0", "-1", "100001", "99999999999999999999"])
def test_verify_convexity_needs_a_trial(capsys, trials):
    # Too many trials once exited 3: numpy refused the array of draws. The
    # check now draws nothing, so --trials of any value is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--convexity", "--n", "3", "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials" in captured.err


@pytest.mark.parametrize("option", ["--seed"])
def test_verify_has_no_sampling_option(capsys, option):
    # convexity_check decides by the exact eigenvalue floor; it draws nothing.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--convexity", "--n", "3", option, "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------

def test_sample_is_deterministic_and_conflict_free(capsys, table1_file, tmp_path):
    built = tmp_path / "m.json"
    assert run(capsys, "construct", table1_file, "--out", str(built))[0] == 0

    code, out1, _ = run(capsys, "sample", str(built), "--seed", "9", "--draws", "2000")
    code2, out2, _ = run(capsys, "sample", str(built), "--seed", "9", "--draws", "2000")
    assert code == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["diagonal_hits"] == 0
    assert sum(payload["counts"]) == 2000


def test_sample_csv_rows(capsys, table1_file, tmp_path):
    built = tmp_path / "m.json"
    run(capsys, "construct", table1_file, "--out", str(built))
    code, out, _ = run(
        capsys, "sample", str(built), "--seed", "1", "--draws", "50",
        "--format", "csv",
    )
    assert code == 0
    rows = [[int(c) for c in line.split(",")] for line in out.strip().splitlines()]
    assert sum(sum(r) for r in rows) == 50
    assert all(rows[i][i] == 0 for i in range(3))


@pytest.mark.parametrize("draws", ["0", str(2**53 + 1), "99999999999999999999"])
def test_sample_needs_a_draw_count_in_range(capsys, table1_file, tmp_path, draws):
    # 10**20 draws once ran without end.
    built = tmp_path / "m.json"
    assert run(capsys, "construct", table1_file, "--out", str(built))[0] == 0
    code, out, err = run(capsys, "sample", str(built), "--seed", "1", "--draws", draws)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "validation"


def test_sample_requires_seed_and_draws(capsys, table1_file):
    with pytest.raises(SystemExit) as exc:
        main(["sample", table1_file, "--draws", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "payload",
    [{"n": 2, "entries": [0, "x", 1, 0]}, {"n": 2, "entries": [0, 0.5, 0.5, 0], "total": None}],
    ids=["entry", "total"],
)
def test_sample_non_numeric_matrix_exits_two(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "sample", str(path), "--seed", "1", "--draws", "10")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "validation"


def test_sample_nested_entries_exit_two(capsys, tmp_path):
    # The format is a flat row-major list, as a weight vector is 1-D.
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"n": 2, "entries": [[0, 0.5], [0.5, 0]]}))
    code, out, err = run(capsys, "sample", str(path), "--seed", "1", "--draws", "10")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "validation",
        "message": '"entries" must be a flat row-major list, got shape (2, 2)',
    }


@pytest.mark.parametrize("command", ["sample", "verify"])
def test_a_matrix_entry_beyond_the_clamp_is_a_negative_weight(capsys, tmp_path, command):
    # Matrix entries pass the weights' value check, with its error kind.
    pref = tmp_path / "geo.json"
    pref.write_text(json.dumps({"a": GEO_A, "b": GEO_A}))
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"n": 3, "entries": [0, 0.5, 0, 0.5 + 1e-6, 0, -1e-6, 0, 0, 0]}))
    argv = {
        "sample": ["sample", str(path), "--seed", "1", "--draws", "10"],
        "verify": ["verify", str(pref), "--kkt", "--matrix", str(path)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "negative-weight",
        "message": "matrix has negative entries beyond the -1e-12 clamp: min = -1.000e-06",
    }


def test_a_negative_zero_entry_samples_as_a_zero(capsys, tmp_path):
    outs = []
    for zero in ("0.0", "-0.0"):
        path = tmp_path / "m.json"
        path.write_text(
            f'{{"n": 3, "entries": [{zero}, 0.5, {zero}, 0.25, {zero}, 0.0, 0.25, {zero}, 0.0]}}'
        )
        code, out, err = run(capsys, "sample", str(path), "--seed", "4", "--draws", "1000")
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv, seed",
    [(["sample", "{matrix}", "--seed", "-5", "--draws", "3"], -5)],
    ids=["sample"],
)
def test_a_negative_seed_exits_two(capsys, table1_file, tmp_path, argv, seed):
    # numpy's generators take no negative seed; its ValueError once exited 3.
    built = tmp_path / "m.json"
    assert run(capsys, "construct", table1_file, "--out", str(built))[0] == 0
    code, out, err = run(capsys, *(a.format(matrix=built) for a in argv))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "validation", "message": f"seed must be >= 0, got {seed}"}


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_verify_oracle_rejects_a_tolerance_outside_zero_to_infinity(capsys, tmp_path, tol):
    # argparse reads nan and inf as floats. NaN and -1 once ran every
    # iteration and exited 0 unconverged; inf stopped after one step.
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"a": [0.5, 0.3, 0.2], "b": [0.2, 0.3, 0.5]}))
    code, out, err = run(capsys, "verify", str(path), "--oracle", f"--tol={tol}")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "validation"
    assert error["message"].startswith("tol must be finite and >= 0")


def test_verify_oracle_accepts_a_zero_tolerance(capsys, table1_file):
    code, out, _ = run(capsys, "verify", table1_file, "--oracle", "--tol", "0")
    assert code == 0
    assert json.loads(out)["oracle"]["iterations"] >= 1


@pytest.mark.parametrize("n, code", [(13, 0), (51, 2)])
def test_verify_oracle_reaches_fifty_arms(capsys, tmp_path, n, code):
    # The oracle's bound is perm(50, 2) tuples: 13 arms were once refused.
    path = tmp_path / "p.json"
    weights = np.arange(1.0, n + 1) / (n * (n + 1) / 2)
    path.write_text(json.dumps({"a": weights.tolist(), "b": weights[::-1].tolist()}))
    got, out, err = run(capsys, "verify", str(path), "--oracle")
    assert got == code
    if code:
        assert out == ""
        assert stderr_error(err)["error"] == "dimension-too-large"
    else:
        assert json.loads(out)["oracle"]["converged"] is True


SAMPLE_10 = ["sample", "--seed", "1", "--draws", "10"]

# numpy reads true and false as 1.0 and 0.0, and "0.5" as 0.5; JSON input
# takes numbers alone, as "total" always did.
JSON_NON_NUMBERS = pytest.mark.parametrize(
    "bad, shown", [("0.5", "'0.5'"), (True, "True"), (False, "False")],
    ids=["string", "true", "false"],
)


@JSON_NON_NUMBERS
def test_construct_reads_numbers_alone(capsys, tmp_path, bad, shown):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"a": [0.5, 0.5], "b": [bad, 0.5]}))
    code, out, err = run(capsys, "construct", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation",
                               "message": f"preference weights must be numbers, got {shown}"}


@JSON_NON_NUMBERS
def test_sample_reads_numbers_alone(capsys, tmp_path, bad, shown):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [0, 0.5, bad, 0]}))
    code, out, err = run(capsys, "sample", str(path), "--seed", "1", "--draws", "10")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation",
                               "message": f'"entries" must be numbers, got {shown}'}


@JSON_NON_NUMBERS
def test_feasibility_reads_numbers_alone(capsys, tmp_path, bad, shown):
    code, out, err = run(capsys, "feasibility", feas_file(tmp_path, [[0.5, 0.5], [bad, 0.5]]))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation",
                               "message": f"multi-player weights must be numbers, got {shown}"}


@pytest.mark.parametrize(
    "command, text",
    [
        (SAMPLE_10, '{"n": 2, "total": NaN, "entries": [0, 0.7, 0.2, 0]}'),
        (SAMPLE_10, '{"n": 2, "total": Infinity, "entries": [0, 0.5, 0.5, 0]}'),
        (["construct"], '{"a": [0.5, 0.5], "b": [0.5, 0.5], "total": NaN}'),
        (["verify", "--oracle"], '{"a": [0.5, 0.5], "b": [0.5, 0.5], "total": NaN}'),
        (["construct"], '{"a": [0.5, 0.5], "b": [0.5, 0.5], "total": -Infinity}'),
    ],
    ids=["sample-nan", "sample-inf", "construct-nan", "verify-nan", "construct-minus-inf"],
)
def test_a_non_finite_total_exits_two(capsys, tmp_path, command, text):
    # json reads NaN and Infinity; no comparison with NaN fails, so a NaN
    # total once let a matrix summing to 0.9 through.
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "validation", "message": "total must be a finite number"}


@pytest.mark.parametrize(
    "command, payload",
    [
        (["construct"], {"a": [1e308, 1e308, 0], "b": [0.3, 0.3, 0.4]}),
        (SAMPLE_10, {"n": 2, "entries": [0, 1e308, 1e308, 0]}),
        (["feasibility"], {"players": [[1e308, 1e308], [0.5, 0.5]]}),
    ],
    ids=["weights", "entries", "players"],
)
def test_a_sum_past_the_float_range_prints_one_json_object(command, payload):
    # In a fresh process numpy's warnings print, so an overflow warning
    # would show on stderr ahead of the error object.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "jointselect.cli", command[0], "-", *command[1:]],
                          input=json.dumps(payload), capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "total-mismatch"


def test_a_popularity_past_the_float_range_prints_one_json_object():
    # Each weight sums to the total, but A_0 + B_0 overflows; in a fresh
    # process numpy's warning would print ahead of the error object.
    payload = {"a": [1.5e308, 0], "b": [1.5e308, 0], "total": 1.5e308}
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "jointselect.cli", "construct", "-"],
                          input=json.dumps(payload), capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "total-not-one"


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (["construct"], {"a": [0.5, 0.5], "b": [0.5, 0.5], "total": -1},
         "total must be nonnegative, got -1.0"),
        (SAMPLE_10, [0, 0.5, 0.5, 0], "matrix input must be a JSON object"),
        (["feasibility"], {"players": [0.5, 0.5]},
         "multi-player weights must be M x N, got shape (2,)"),
        (["feasibility"], {"players": [[1.0], [1.0]]}, "need at least 2 arms, got 1"),
        (["bench", "--n-min", "10", "--n-max", "5"], None, "--n-max must be >= --n-min"),
        (["verify", "--kkt"], None, "--kkt and --oracle need an input preference file"),
    ],
    ids=["negative-total", "matrix-array", "players-1d", "one-arm", "bench-range",
         "kkt-no-input"],
)
def test_an_input_error_exits_two_with_its_message(capsys, tmp_path, command, payload, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    inputs = [] if payload is None else [str(path)]
    code, out, err = run(capsys, command[0], *inputs, *command[1:])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "message": message}


# --------------------------------------------------------------------------
# feasibility
# --------------------------------------------------------------------------

def feas_file(tmp_path, rows):
    path = tmp_path / "players.json"
    path.write_text(json.dumps({"players": rows}))
    return str(path)


def test_feasibility_two_player_verdict(capsys, tmp_path):
    path = feas_file(tmp_path, [TABLE1_A, TABLE1_B])
    code, out, _ = run(capsys, "feasibility", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "feasible"
    assert payload["players"] == 2


def test_feasibility_three_player_verdicts(capsys, tmp_path):
    cool = feas_file(tmp_path, [[0.25] * 4] * 3)
    assert json.loads(run(capsys, "feasibility", cool)[1])["verdict"] == (
        "conjectured-feasible"
    )
    hot = feas_file(
        tmp_path, [[0.6, 0.3, 0.1], [0.6, 0.3, 0.1], [0.3, 0.3, 0.4]]
    )
    assert json.loads(run(capsys, "feasibility", hot)[1])["verdict"] == "infeasible"


def test_feasibility_reads_the_popularity_construct_prints(capsys, tmp_path):
    # A sums to 1 + 6e-10 and is scaled to 1, which takes S_0 from
    # 1 + 1.3e-9 down to 1 + 9.4e-10: zero loss is within reach.
    a, b = [0.6000000006, 0.25, 0.15], [0.4000000007, 0.3, 0.2999999993]
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({"a": a, "b": b}))
    code, out, _ = run(capsys, "construct", str(path), "--require-zero-loss")
    assert code == 0
    built = json.loads(out)
    assert built["branch"] == "zero-loss"
    code, out, _ = run(capsys, "feasibility", feas_file(tmp_path, [a, b]))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "feasible"
    assert verdict["popularity"] == built["popularity"] == [1.00000000094, 0.54999999985,
                                                            0.44999999921]


# S_max at 1 + 1e-9 as floats, the last popularities the dispatch admits;
# the peel's last block would be empty by nearly that much.
BAND_EDGE = [
    ([0.5, 0.20003539268562529, 0.2999646073133747],
     [0.500000001, 0.44860192452441866, 0.051398074474581314]),
    ([0.3877718467539529, 0.19460226836804834, 0.41762588487799873],
     [0.19989925734805816, 0.21772662652994054, 0.5823741161220012]),
    ([0.3086044236643072, 0.4946077479455102, 0.08911307104285034, 0.10767475734733227],
     [0.2418494817772501, 0.5053922530544898, 0.03777783379121082, 0.21498043137704922]),
    ([0.5, 0.5], [0.500000001, 0.499999999]),
    ([0.19926834106445312, 0.8007316589352322], [0.8007316599355467, 0.19926834006440758]),
    ([0.8216638489288124, 0.17833615107045794], [0.17833615007113723, 0.8216638499286871]),
]


@pytest.mark.parametrize("a, b", BAND_EDGE, ids=["total", "marginals", "peel", "two-arms",
                                                 "two-arms-marginals", "two-arms-unscaled"])
def test_construct_answers_at_the_edge_of_the_band_that_feasibility_admits(capsys, tmp_path, a, b):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"a": a, "b": b}))
    code, out, err = run(capsys, "construct", str(path), "--require-zero-loss")
    assert code == 0, err
    built = json.loads(out)
    assert built["branch"] == "zero-loss"
    assert 1.0 < max(built["popularity"]) <= 1.0 + 1e-9
    # The hot-arm matrix at total 1: its marginals miss by about (S_max - 1)/2.
    m = matrix_from_json(built)
    pi_a, pi_b = m.marginals
    inst = validate_instance(a, b)
    assert max(np.abs(pi_a - inst.a).max(), np.abs(pi_b - inst.b).max()) <= 0.51e-9
    assert m.vals.size == 2 * len(a) - 2
    # The benchmark's checker, which shares no code with the package, agrees.
    assert check_matrix(a, b, built["branch"], built["entries"], built["loss"], None)[0] == []
    code, out, _ = run(capsys, "feasibility", feas_file(tmp_path, [a, b]))
    assert code == 0
    assert json.loads(out)["verdict"] == "feasible"


def test_feasibility_player_count_crosscheck(capsys, tmp_path):
    path = feas_file(tmp_path, [TABLE1_A, TABLE1_B])
    code, _, err = run(capsys, "feasibility", path, "--players", "3")
    assert code == 2
    assert stderr_error(err)["error"] == "dimension-mismatch"


def test_feasibility_too_few_arms(capsys, tmp_path):
    path = feas_file(tmp_path, [[0.5, 0.5]] * 3)
    code, _, err = run(capsys, "feasibility", path)
    assert code == 2
    assert stderr_error(err)["error"] == "too-few-arms"


def test_feasibility_requires_players_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": [[0.5, 0.5]]}))
    code, _, err = run(capsys, "feasibility", str(path))
    assert code == 2
    assert stderr_error(err)["error"] == "validation"


# --------------------------------------------------------------------------
# output: --out and the CSV-only stderr note, for every command
# --------------------------------------------------------------------------

WRITER_ARGV = {
    "construct": ["construct", "{table1}"],
    "baseline": ["baseline", "{table1}", "--method", "order"],
    "bench": ["bench", "--families", "iv", "--methods", "optimal,uniform", "--n-max", "4"],
    "verify": ["verify", "{hot}", "--kkt", "--convexity"],
    "sample": ["sample", "{matrix}", "--seed", "1", "--draws", "100"],
    "feasibility": ["feasibility", "{players}"],
}
NOTED = ("construct", "baseline")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", list(WRITER_ARGV))
def test_out_file_gets_the_bytes_stdout_gets(capsys, tmp_path, table1_file, hot_file,
                                            command, fmt):
    matrix = tmp_path / "matrix.json"
    assert main(["construct", table1_file, "--out", str(matrix)]) == 0
    players = feas_file(tmp_path, [TABLE1_A, TABLE1_B, [0.25, 0.25, 0.5]])
    argv = [arg.format(table1=table1_file, hot=hot_file, matrix=matrix, players=players)
            for arg in WRITER_ARGV[command]] + ["--format", fmt]
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    out_path = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(out_path)) == (code, "", err)
    assert code == 0
    assert out and out_path.read_bytes() == out.encode("utf-8")
    if command in NOTED:  # one line, with --format csv only
        assert len(err.splitlines()) == (1 if fmt == "csv" else 0)


# --------------------------------------------------------------------------
# any JSON input
# --------------------------------------------------------------------------

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2.0, 2.0),
    st.sampled_from([1e308, -1e-13, 10**400]), st.text(max_size=3),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
WEIGHTS = JSON_VALUES | st.lists(st.floats(0.0, 1.0) | JSON_VALUES, max_size=6)
TOTALS = {"total": JSON_VALUES}
PREFERENCE_COMMANDS = [
    ["construct"], ["construct", "--format", "csv"], ["baseline", "--method", "uniform"],
    ["baseline", "--method", "renorm"], ["baseline", "--method", "order"],
    ["verify", "--kkt"], ["verify", "--convexity"], ["feasibility"],
]
INPUTS = st.one_of(
    st.tuples(
        st.sampled_from(PREFERENCE_COMMANDS),
        st.fixed_dictionaries({"a": WEIGHTS, "b": WEIGHTS, "players": WEIGHTS}, optional=TOTALS),
    ),
    st.tuples(
        st.just(["sample", "--seed", "1", "--draws", "10"]),
        st.fixed_dictionaries({"n": st.integers(-1, 4) | JSON_VALUES, "entries": WEIGHTS},
                              optional=TOTALS),
    ),
    st.tuples(st.sampled_from(PREFERENCE_COMMANDS), JSON_VALUES),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(INPUTS)
def test_any_json_input_exits_zero_one_or_two(tmp_path_factory, case):
    # Exit 3 is for bugs alone: whatever JSON comes in, a command answers or
    # says, as one JSON object on stderr, what is wrong with its input.
    command, obj = case
    path = tmp_path_factory.getbasetemp() / "any-json-input.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2), err.getvalue()
    if code:
        assert "error" in json.loads(err.getvalue())


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, "[" + "1" * 5000 + "]", b"[0.5, \xff]"],
    ids=["deep", "long-int", "not-utf-8"],
)
def test_json_that_python_cannot_read_is_a_parse_error(capsys, tmp_path, text):
    path = tmp_path / "in.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, out, err = run(capsys, "construct", str(path))
    assert code == 2
    assert out == ""
    assert stderr_error(err)["error"] == "parse"


# --------------------------------------------------------------------------
# top level
# --------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "jointselect" in capsys.readouterr().out


def test_subcommand_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_readme_cli_quick_start_parses():
    # Every jointselect command of the README's shell block, with its
    # continuations joined, the part after a pipe kept and `> file` dropped.
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        words = shlex.split(line.split("|")[-1])
        if ">" in words:
            words = words[:words.index(">")]
        assert words[0] == "jointselect", line
        commands.append(words[1:])
    assert {argv[0] for argv in commands} == {
        "construct", "baseline", "bench", "verify", "sample", "feasibility"}
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


# --------------------------------------------------------------------------
# crashes and large inputs
# --------------------------------------------------------------------------

@pytest.mark.parametrize("crash", [RuntimeError, RecursionError, MemoryError])
def test_unexpected_crash_exits_three_without_traceback(capsys, table1_file, monkeypatch,
                                                        crash):
    def explode(inst):
        raise crash("forced for the exit-code test")

    monkeypatch.setattr(minloss, "construct_zero_loss", explode)
    code, out, err = run(capsys, "construct", table1_file)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    payload = stderr_error(err)
    assert payload["error"] == "internal"
    assert payload["message"].startswith(f"{crash.__name__}: forced for the exit-code test")


def test_construct_large_instance_exits_zero(capsys, tmp_path):
    # N = 1200 is past the depth at which a recursive peel overflows the
    # interpreter's default recursion limit.
    rng = np.random.default_rng(1200)
    while True:
        a, b = rng.dirichlet(np.ones(1200)), rng.dirichlet(np.ones(1200))
        if (a + b).max() <= 1.0:
            break
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"a": a.tolist(), "b": b.tolist()}))
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "construct", str(path), "--out", str(out))
    assert code == 0, err
    payload = json.loads(out.read_text())
    assert payload["branch"] == "zero-loss"
    assert payload["n"] == 1200


def test_construct_prints_no_negative_zero(capsys, tmp_path):
    # A -0.0 weight used to be copied into the matrix and printed as -0.0.
    path = tmp_path / "zero.json"
    path.write_text('{"a": [0.25, 0.25, 0.25, 0.25], "b": [0.5, -0.0, 0.25, 0.25]}')
    code, out, _ = run(capsys, "construct", str(path))
    assert code == 0
    assert "-0.0" not in out
    assert json.loads(out)["entries"][1] == 0.0
