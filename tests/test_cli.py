"""Command-line interface: subcommands, formats, exit codes, error JSON."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jointselect.cli as cli
import jointselect.minloss as minloss
from jointselect import (
    InternalInvariantError,
    loss,
    matrix_from_json,
    matrix_to_json,
    simultaneous_renormalization,
    uniform_random,
    validate_instance,
)
from jointselect.core import given_loss
from jointselect.cli import main

from conftest import TABLE1_A, TABLE1_B

HOT_A = [0.1, 0.1, 0.8]
HOT_B = [0.0, 0.2, 0.8]
GEO_A = [1 / 13, 3 / 13, 9 / 13]
SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    assert all(r["error"] is None for r in records)


def test_bench_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "bench", "--families", "i,x")
    assert code == 2
    assert stderr_error(err)["error"] == "validation"


def test_bench_rejects_bad_range(capsys):
    code, _, err = run(capsys, "bench", "--n-min", "2", "--n-max", "5")
    assert code == 2
    assert stderr_error(err)["error"] == "validation"


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


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_convexity_needs_a_trial(capsys, trials):
    code, out, err = run(capsys, "verify", "--convexity", "--n", "3", "--trials", trials)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "validation"


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


SAMPLE_10 = ["sample", "--seed", "1", "--draws", "10"]


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
