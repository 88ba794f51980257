"""Run one workload of the jointselect benchmark and print its metrics.

    python3 perfbench/run.py --workload zero-small --seed 1 --seconds 20 --trace 0

Run it from the repository root; it measures the package in ``src/`` as
it is, without installing it. With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Set-up is timed from launching a fresh worker process until its
``import jointselect`` is done. An untraced run launches probe workers
before and after the worker that runs the workload, so that the set-up
samples span the run, and reports the median of all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("zero-small", "zero-large", "hot-arm", "cli")
SETUP_PROBES = 4            # set-up launches before, and again after, the workload's own
RUN_LIMIT_S = 170           # stay under the 180 s a run may take
# Every benchmark process (workers and the cli children they start) runs
# numpy's BLAS on one thread. With its default of one thread per CPU,
# OpenBLAS starts a thread pool at import; on a small shared host that
# start-up cost moves from minute to minute, and it is a large part of
# each cli op and of set-up.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def run_context(seed: int) -> dict:
    """Machine and software the run saw. CPUs are not pinned or isolated."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        caches[f"L{level} {kind}"] = _read(str(index / "size")).strip()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "git_commit": commit,
        "seed": seed,
        "loadavg_start": os.getloadavg(),
        "cpu_pinning": "none: CPUs are shared and not pinned or isolated",
        "blas_env": BLAS_ENV,
    }


def launch(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed ready, its last stdout line)."""
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "perfbench.worker", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {argv} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jointselect" / "__init__.py").is_file():
        print(f"no package to measure: {ROOT / 'src' / 'jointselect'} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    context = run_context(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    probes = 0 if args.trace else SETUP_PROBES
    setups = [launch(["--probe"], deadline)[0] for _ in range(probes)]
    try:
        setup, line = launch(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work), "--spans", str(OUT_DIR / f"{tag}-spans.jsonl")],
            deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(setup)
    setups += [launch(["--probe"], deadline)[0] for _ in range(probes)]
    result = json.loads(line)
    context["numpy"] = result.pop("numpy")
    context["loadavg_end"] = os.getloadavg()

    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in metric_units(args.trace).items()}
    correct = result["failed"] == 0 and result["repeatable"]
    record = {"correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}

    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {**record, "context": context, "detail": result["detail"],
         "setup_samples_s": setups}, indent=2) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ratio':48s} {result['failed'] / result['attempted']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    print("detail " + json.dumps(result["detail"]))
    print("context " + json.dumps(context))
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
