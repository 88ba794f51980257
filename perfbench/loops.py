"""The measured loops of one workload, run inside a worker process.

Untraced mode (``--trace 0``) runs a closed loop with one client for
``--seconds`` seconds and reports end-to-end numbers. Traced mode runs a
fixed list of ops four times, untraced and traced in turn; the exact
counts of the two traced passes must agree. Then it runs the growth and
interpreter probes. Traced mode reports per-layer numbers.

The worker inherits ``PYTHONPATH=src`` from the launcher, and so do the
cli children it starts.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from jointselect import cli, optimal_satisfaction_matrix, validate_instance
from jointselect.zeroloss import construct_zero_loss

from perfbench.checker import check_matrix, check_sample, check_verify, expected_branch
from perfbench.tracer import Tracer
from perfbench.workloads import LIBRARY_INPUTS, cli_op, growth_instance

ROOT = Path(__file__).resolve().parent.parent

# Ops per pass of a traced run: a fixed list, so that counts repeat exactly.
TRACED_OPS = {"zero-small": 300, "zero-large": 6, "hot-arm": 60, "cli": 40}
ZERO_GROWTH_N = (128, 256, 512)
HOT_GROWTH_N = (256, 512, 1024)
PROBE_REPS = 5
CHILD_TIMEOUT_S = 60    # a cli child normally ends in well under a second


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def median(values) -> float:
    return percentile(values, 50)


# --------------------------------------------------------------------------
# one op of each workload: step(i) -> Outcome
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    """Time inside one op, problems the checker found, and its counts.

    ``support`` is (entries above the noise floor, dust entries) for a
    zero-loss matrix and None otherwise; ``out_bytes`` is what the op wrote.
    """

    seconds: float
    problems: list[str]
    support: tuple[int, int] | None = None
    out_bytes: int = 0


class LibraryStep:
    """``optimal_satisfaction_matrix(validate_instance(a, b))`` on input i."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, workload: str, seed: int, tracer: Tracer | None = None):
        self.make = LIBRARY_INPUTS[workload]
        self.seed = seed
        self.validate, self.dispatch = validate_instance, optimal_satisfaction_matrix
        if tracer is not None:
            self.validate = tracer.wrap("core.validate_instance", validate_instance)
            self.dispatch = tracer.wrap("minloss.dispatch", optimal_satisfaction_matrix)

    def __call__(self, i: int) -> Outcome:
        a, b = self.make(self.seed, i)
        t0 = time.perf_counter()
        try:
            result = self.dispatch(self.validate(a, b))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return Outcome(time.perf_counter() - t0, [repr(exc)])
        dt = time.perf_counter() - t0
        cert = result.certificate.valid if result.certificate is not None else False
        problems, support, dust = check_matrix(a, b, result.branch, result.matrix.entries,
                                               result.loss, cert)
        return Outcome(dt, problems, (support, dust) if result.branch == "zero-loss" else None)


class CliStep:
    """One cli command on input i: a child process, or ``cli.main`` in-process.

    A child reads its instance on stdin and writes to stdout; in-process
    calls (traced mode) read and write files. Construct outputs are kept in
    ``work``; a sample op reads the matrix the latest construct op produced.
    """

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, work: Path, in_process: bool, tracer: Tracer | None = None):
        self.seed = seed
        self.work = work
        self.in_process = in_process
        self.main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        self.latest: tuple[Path, int] | None = None

    def argv(self, i: int, op: dict) -> tuple[list[str], str | None]:
        if op["kind"] == "sample":
            path, op["n"] = self.latest
            return ["sample", str(path), "--seed", str(op["draw_seed"]),
                    "--draws", str(op["draws"])], None
        argv, stdin = [op["kind"], "-"], json.dumps({"a": op["a"], "b": op["b"]})
        if self.in_process:
            argv[1] = str(self.work / f"in-{i}.json")
            Path(argv[1]).write_text(stdin, encoding="utf-8")
            stdin = None
        if op["kind"] == "verify":
            op["kkt"] = expected_branch(op["a"], op["b"]) == "min-loss"
            argv += ["--oracle", "--kkt"] if op["kkt"] else ["--oracle"]
        return argv, stdin

    def run(self, i: int, argv: list[str], stdin: str | None) -> tuple[float, int, str, str]:
        if self.in_process:
            out = self.work / f"out-{i}.json"
            t0 = time.perf_counter()
            code = self.main(argv + ["--out", str(out)])
            dt = time.perf_counter() - t0
            return dt, code, out.read_text(encoding="utf-8") if code == 0 else "", ""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "jointselect.cli", *argv], input=stdin,
                              capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr

    def __call__(self, i: int) -> Outcome:
        op = cli_op(self.seed, i)
        argv, stdin = self.argv(i, op)
        t0 = time.perf_counter()
        try:
            dt, code, stdout, stderr = self.run(i, argv, stdin)
        except Exception as exc:
            return Outcome(time.perf_counter() - t0, [repr(exc)])
        if code != 0:
            return Outcome(dt, [f"exit code {code}: {stderr.strip()[-300:]}"])
        try:
            problems, support = self.check(i, op, stdout)
        except (ValueError, KeyError) as exc:
            problems, support = [f"unreadable output: {exc!r}"], None
        return Outcome(dt, problems, support, len(stdout.encode("utf-8")))

    def check(self, i: int, op: dict, stdout: str):
        payload = json.loads(stdout)
        if op["kind"] == "sample":
            return check_sample(payload, op["draws"], op["n"]), None
        if op["kind"] == "verify":
            return check_verify(payload, op["a"], op["b"], op["kkt"]), None
        problems, support, dust = check_matrix(op["a"], op["b"], payload["branch"],
                                               payload["entries"], payload["loss"], None)
        path = self.work / f"matrix-{i}.json"
        path.write_text(stdout, encoding="utf-8")
        self.latest = (path, len(op["a"]))
        return problems, ((support, dust) if payload["branch"] == "zero-loss" else None)


def make_step(workload, seed, work, in_process=False, tracer=None):
    if workload == "cli":
        return CliStep(seed, work, in_process, tracer)
    return LibraryStep(workload, seed, tracer)


def report_problems(i, outcome) -> bool:
    if outcome.problems:
        print(f"op {i}: {'; '.join(outcome.problems)}", file=sys.stderr)
    return bool(outcome.problems)


# --------------------------------------------------------------------------
# untraced mode: closed loop for a fixed time
# --------------------------------------------------------------------------

def untraced(workload, seed, seconds, work) -> dict:
    step = make_step(workload, seed, work)
    step(0)  # warm-up: lazy imports, page and bytecode caches, untimed
    latencies, busy, failed, attempted = [], 0.0, 0, 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        outcome = step(attempted)
        busy += outcome.seconds
        if report_problems(attempted, outcome):
            failed += 1
        else:
            latencies.append(outcome.seconds)
        attempted += 1
    p90 = percentile(latencies, 90)
    return {
        "attempted": attempted,
        "failed": failed,
        "repeatable": True,
        "metrics": {
            "ops_per_s": len(latencies) / busy,
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(step.rusage).ru_maxrss / 1024.0,
        },
        "detail": {"latency_samples": len(latencies),
                   "samples_beyond_p90": sum(1 for x in latencies if x > p90)},
    }


# --------------------------------------------------------------------------
# traced mode: fixed op list, per-layer numbers
# --------------------------------------------------------------------------

def fixed_pass(workload, seed, work, tracer=None) -> dict:
    """One pass over the first TRACED_OPS ops; totals of time, failures and counts."""
    step = make_step(workload, seed, work, in_process=True, tracer=tracer)
    totals = {"seconds": 0.0, "failed": 0, "nonzeros": 0, "dust": 0, "zero_loss_ops": 0,
              "out_bytes": 0}
    for i in range(TRACED_OPS[workload]):
        if tracer is not None:
            tracer.op = i
        outcome = step(i)
        totals["seconds"] += outcome.seconds
        totals["failed"] += report_problems(i, outcome)
        totals["out_bytes"] += outcome.out_bytes
        if outcome.support is not None:
            totals["nonzeros"] += outcome.support[0]
            totals["dust"] += outcome.support[1]
            totals["zero_loss_ops"] += 1
    return totals


def exact_counts(tracer, totals) -> dict:
    """Counts that must repeat exactly across traced passes of one seed."""
    layers = tracer.layers()
    fills = layers["zeroloss.fill_row_col"].notes
    return {
        "validations": layers["core.validate_instance"].calls,
        "matrices": layers["core.JointSelectionMatrix"].calls,
        "dense_bytes": sum(layers["core.JointSelectionMatrix"].notes),
        "levels": len(fills),
        "cases": [fills.count(c) for c in (1, 2, 3)],
        "nonzeros": totals["nonzeros"],
        "dust": totals["dust"],
        "oracle_iterations": sum(layers["oracle.solve_min_loss"].notes),
        "stdout_bytes": totals["out_bytes"],
    }


def slope(ns, seconds) -> float:
    return float(np.polyfit(np.log(ns), np.log(seconds), 1)[0])


def growth_probes(seed) -> dict:
    """Log-log slopes of construction time over N, measured untraced."""
    def timed(fn, arg, reps):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - t0)
        return median(times)

    zero = [timed(construct_zero_loss, validate_instance(*growth_instance(seed, n, False)), 3)
            for n in ZERO_GROWTH_N]
    hot = [timed(optimal_satisfaction_matrix, validate_instance(*growth_instance(seed, n, True)),
                 PROBE_REPS) for n in HOT_GROWTH_N]
    return {"zeroloss": slope(ZERO_GROWTH_N, zero), "minloss": slope(HOT_GROWTH_N, hot)}


def interpreter_probes() -> dict:
    """Wall time of a bare interpreter and of importing the cli module."""
    def wall(code):
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                           timeout=CHILD_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
        return median(times) * 1e3

    interpreter = wall("pass")
    return {"interpreter_ms": interpreter,
            "import_ms": wall("import jointselect.cli") - interpreter}


def per_layer_metrics(tracer, ops, totals, overhead, probes) -> dict:
    layers = tracer.layers()

    def per_op_ms(name, which="self_ns"):
        return getattr(layers[name], which) / 1e6 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    fills = layers["zeroloss.fill_row_col"].notes
    matrices = layers["core.JointSelectionMatrix"]
    sample = layers["core.sample_joint"]
    oracle = layers["oracle.solve_min_loss"]
    iterations = sum(oracle.notes)
    return {
        "core.validate_instance.calls_per_op": layers["core.validate_instance"].calls / ops,
        "core.validate_instance.self_ms_per_op": per_op_ms("core.validate_instance"),
        "core.JointSelectionMatrix.calls_per_op": matrices.calls / ops,
        "core.JointSelectionMatrix.self_ms_per_op": per_op_ms("core.JointSelectionMatrix"),
        "core.JointSelectionMatrix.dense_bytes_per_op": sum(matrices.notes) / ops,
        "core.loss.self_ms_per_op": per_op_ms("core.loss"),
        "core.sample_joint.self_ms_per_call": ratio(sample.self_ns / 1e6, sample.calls),
        "core.sample_joint.ns_per_draw": ratio(sample.self_ns, sum(sample.notes)),
        "core.formats.self_ms_per_op": per_op_ms("core.formats"),
        "zeroloss.construct.total_ms_per_op": per_op_ms("zeroloss.construct", "total_ns"),
        "zeroloss.construct.self_ms_per_op": per_op_ms("zeroloss.construct"),
        "zeroloss.fill_row_col.self_ms_per_op": per_op_ms("zeroloss.fill_row_col"),
        "zeroloss.reduce_instance.self_ms_per_op": per_op_ms("zeroloss.reduce_instance"),
        "zeroloss.base_case_three.self_ms_per_op": per_op_ms("zeroloss.base_case_three"),
        "zeroloss.levels_per_op": len(fills) / ops,
        "zeroloss.case1_share": ratio(fills.count(1), len(fills)),
        "zeroloss.case2_share": ratio(fills.count(2), len(fills)),
        "zeroloss.case3_share": ratio(fills.count(3), len(fills)),
        "zeroloss.nonzeros_per_op": ratio(totals["nonzeros"], totals["zero_loss_ops"]),
        "zeroloss.dust_entries_per_op": ratio(totals["dust"], totals["zero_loss_ops"]),
        "zeroloss.growth_exponent": probes["zeroloss"],
        "minloss.dispatch.self_ms_per_op": per_op_ms("minloss.dispatch"),
        "minloss.min_loss_matrix.self_ms_per_op": per_op_ms("minloss.min_loss_matrix"),
        "minloss.kkt_verify.self_ms_per_op": per_op_ms("minloss.kkt_verify"),
        "minloss.kkt_max_residual": max(layers["minloss.kkt_verify"].notes, default=0.0),
        "minloss.growth_exponent": probes["minloss"],
        "oracle.solve_min_loss.self_ms_per_call": ratio(oracle.self_ns / 1e6, oracle.calls),
        "oracle.iterations_per_call": ratio(iterations, oracle.calls),
        "oracle.us_per_iteration": ratio(oracle.self_ns / 1e3, iterations),
        "cli.interpreter_ms": probes["interpreter_ms"],
        "cli.import_ms": probes["import_ms"],
        "cli.main.self_ms_per_op": per_op_ms("cli.main"),
        "cli.stdout_bytes_per_op": totals["out_bytes"] / ops,
        "trace.overhead_ratio": overhead,
    }


def traced(workload, seed, work, spans_path) -> dict:
    fixed_pass(workload, seed, work)  # warm-up, untimed
    # untraced and traced passes alternate, so that drift in machine load
    # falls on both sides of the overhead ratio
    tracers, passes, untraced_s, failed = [], [], 0.0, 0
    for _ in range(2):
        plain = fixed_pass(workload, seed, work)
        untraced_s += plain["seconds"]
        tracer = Tracer()
        with tracer.installed():
            passes.append(fixed_pass(workload, seed, work, tracer))
        tracers.append(tracer)
        failed += plain["failed"] + passes[-1]["failed"]
    counts = [exact_counts(t, p) for t, p in zip(tracers, passes)]
    repeatable = counts[0] == counts[1]
    if not repeatable:
        print(f"exact counts differ between traced passes: {counts}", file=sys.stderr)
    probes = {**growth_probes(seed), **interpreter_probes()}
    ops = TRACED_OPS[workload]
    tracers[0].write(spans_path)
    overhead = sum(p["seconds"] for p in passes) / untraced_s
    return {"attempted": 4 * ops, "failed": failed, "repeatable": repeatable,
            "metrics": per_layer_metrics(tracers[0], ops, passes[0], overhead, probes),
            "detail": {"ops_per_pass": ops, "exact_counts": counts[0],
                       "spans": len(tracers[0].spans)}}


def run(workload, seed, seconds, trace, work, spans) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    if trace:
        result = traced(workload, seed, work, spans)
    else:
        result = untraced(workload, seed, seconds, work)
    result["numpy"] = np.__version__
    return result
