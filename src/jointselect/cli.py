"""Command-line front end for scripted batch use.

Subcommands: construct, baseline, bench, verify, sample, feasibility.
Every command reads stdin when the input path is "-", supports
--format {json,csv}, and writes to --out (default stdout). Exit codes:
0 success, 1 infeasible-as-requested, 2 input error (with machine-readable
error JSON on stderr), 3 internal invariant failure or any other crash
(error kind "internal"); no traceback is printed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    random_order,
    random_order_degeneracies,
    simultaneous_renormalization,
    uniform_random,
)
from .bench import (
    FAMILIES,
    FULL_RANGE,
    METHODS,
    run_benchmark,
    summary_table,
    write_csv,
)
from .core import (
    dumps,
    instance_from_json,
    loss,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    sample_joint,
)
from .errors import (
    DegenerateProductError,
    DimensionMismatchError,
    InternalInvariantError,
    JointSelectError,
    ValidationError,
)
from .minloss import convexity_check, kkt_verify, min_loss_matrix, optimal_satisfaction_matrix
from .multiplayer import feasibility_verdict, validate_multi
from .oracle import solve_min_loss


def _error_kind(exc: Exception) -> str:
    name = type(exc).__name__.removesuffix("Error")
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _crash_message(exc: Exception) -> str:
    """Exception type, message and the innermost frame, on one line."""
    import traceback  # only a crash pays for it

    frames = traceback.extract_tb(exc.__traceback__)
    where = f" at {Path(frames[-1].filename).name}:{frames[-1].lineno}" if frames else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _read_json(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return json.loads(text)


@contextmanager
def _output(args):
    if args.out in (None, "-"):
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh


def _write_kv_csv(fh, payload: dict, prefix: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            _write_kv_csv(fh, value, f"{prefix}{key}.")
        elif isinstance(value, (list, tuple)):
            fh.write(f"{prefix}{key}," + ",".join(str(v) for v in value) + "\n")
        else:
            fh.write(f"{prefix}{key},{value}\n")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_construct(args) -> int:
    inst = instance_from_json(_read_json(args.input))
    result = optimal_satisfaction_matrix(inst)
    if args.require_zero_loss and result.branch != "zero-loss":
        _emit_error(
            "infeasible",
            f"zero loss requested but max popularity is "
            f"{float(inst.popularity.max()):.17g} > 1",
        )
        return 1
    payload = {
        **matrix_to_json(result.matrix),
        "loss": result.loss,
        "popularity": inst.popularity.tolist(),
        "branch": result.branch,
    }
    with _output(args) as fh:
        if args.format == "json":
            fh.write(dumps(payload) + "\n")
        else:
            fh.write(matrix_to_csv(result.matrix))
            print(
                f"loss={result.loss:.17g} branch={result.branch} "
                f"popularity={','.join(f'{s:.17g}' for s in inst.popularity)}",
                file=sys.stderr,
            )
    return 0


def cmd_baseline(args) -> int:
    inst = instance_from_json(_read_json(args.input))
    fallback = False
    degenerate: tuple = ()
    if args.method == "uniform":
        m = uniform_random(inst.n)
    elif args.method == "renorm":
        try:
            m = simultaneous_renormalization(inst)
        except DegenerateProductError:
            if not args.fallback_uniform:
                raise
            m = uniform_random(inst.n)
            fallback = True
    else:
        m = random_order(inst)
        degenerate = random_order_degeneracies(inst)
    payload = {
        **matrix_to_json(m),
        "method": args.method,
        "loss": loss(m, inst),
    }
    if fallback:
        payload["fallback"] = "uniform"
    if args.method == "order":
        payload["degenerate_draws"] = [list(hit) for hit in degenerate]
    with _output(args) as fh:
        if args.format == "json":
            fh.write(dumps(payload) + "\n")
        else:
            fh.write(matrix_to_csv(m))
            notes = [f"method={args.method}", f"loss={payload['loss']:.17g}"]
            if fallback:
                notes.append("fallback=uniform")
            if degenerate:
                notes.append("degenerate=" + ";".join(f"{p}:{i}" for p, i in degenerate))
            print(" ".join(notes), file=sys.stderr)
    return 0


def _csv_list(raw: str, allowed: tuple[str, ...], what: str) -> list[str]:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    for item in items:
        if item not in allowed:
            raise ValidationError(f"unknown {what} {item!r}; choose from {allowed}")
    if not items:
        raise ValidationError(f"no {what}s given")
    return items


def cmd_bench(args) -> int:
    families = _csv_list(args.families, FAMILIES, "family")
    methods = _csv_list(args.methods, METHODS, "method")
    if args.n_min < 3:
        raise ValidationError(f"--n-min must be >= 3, got {args.n_min}")
    if args.n_max < args.n_min:
        raise ValidationError("--n-max must be >= --n-min")
    records = run_benchmark(families, range(args.n_min, args.n_max + 1), methods)
    with _output(args) as fh:
        if args.format == "csv":
            write_csv(records, fh)
        else:
            rows = [
                {"family": r.family, "N": r.n, "method": r.method,
                 "loss": r.loss, "error": r.error}
                for r in records
            ]
            fh.write(dumps({"records": rows}) + "\n")
    summary_table(records, sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if not (args.kkt or args.oracle or args.convexity):
        raise ValidationError("choose at least one of --kkt, --oracle, --convexity")
    if (args.kkt or args.oracle) and args.input is None:
        raise ValidationError("--kkt and --oracle need an input preference file")
    inst = None
    if args.input is not None:
        inst = instance_from_json(_read_json(args.input))

    sections: dict = {}
    if args.kkt:
        if args.matrix is not None:
            m = matrix_from_json(_read_json(args.matrix))
        else:
            m = min_loss_matrix(inst, int(np.argmax(inst.popularity)))
        cert = kkt_verify(inst, m)
        sections["kkt"] = {
            "epsilon": cert.epsilon,
            "mu": cert.mu,
            "residuals": {
                "stationarity": cert.residuals.stationarity,
                "slackness": cert.residuals.slackness,
                "dual": cert.residuals.dual,
                "primal": cert.residuals.primal,
            },
            "valid": cert.valid,
        }
    if args.oracle:
        constructive = optimal_satisfaction_matrix(inst)
        solved = solve_min_loss(inst, tol=args.tol)
        sections["oracle"] = {
            "constructive_loss": constructive.loss,
            "oracle_loss": solved.loss,
            "gap": abs(constructive.loss - solved.loss),
            "branch": constructive.branch,
            "iterations": solved.iterations,
            "converged": solved.converged,
        }
    if args.convexity:
        n = args.n if args.n is not None else (inst.n if inst is not None else None)
        if n is None:
            raise ValidationError("--convexity needs --n (or an input to take N from)")
        report = convexity_check(n, args.trials, args.seed)
        sections["convexity"] = {
            "n": report.n,
            "dimension": report.dimension,
            "trials": report.trials,
            "min_quadratic_form": report.min_quadratic_form,
            "min_eigenvalue": report.min_eigenvalue,
            "passed": report.passed,
        }
    with _output(args) as fh:
        if args.format == "json":
            fh.write(dumps(sections) + "\n")
        else:
            _write_kv_csv(fh, sections)
    return 0


def cmd_sample(args) -> int:
    m = matrix_from_json(_read_json(args.input))
    counts = sample_joint(m, args.seed, args.draws)
    payload = {
        "n": m.n,
        "seed": args.seed,
        "draws": args.draws,
        "counts": counts.ravel().tolist(),
        "diagonal_hits": int(np.trace(counts)),
    }
    with _output(args) as fh:
        if args.format == "json":
            fh.write(dumps(payload) + "\n")
        else:
            for row in counts.tolist():
                fh.write(",".join(str(c) for c in row) + "\n")
    return 0


def cmd_feasibility(args) -> int:
    obj = _read_json(args.input)
    if not isinstance(obj, dict) or "players" not in obj:
        raise ValidationError('feasibility input must be a JSON object with "players"')
    prefs = validate_multi(obj["players"])
    if args.players is not None and args.players != prefs.n_players:
        raise DimensionMismatchError(
            f"--players says {args.players}, input has {prefs.n_players} rows"
        )
    verdict = feasibility_verdict(prefs)
    payload = {
        "players": prefs.n_players,
        "arms": prefs.n_arms,
        "popularity": prefs.popularity.tolist(),
        "verdict": verdict.value,
    }
    with _output(args) as fh:
        if args.format == "json":
            fh.write(dumps(payload) + "\n")
        else:
            _write_kv_csv(fh, payload)
    return 0


# --------------------------------------------------------------------------
# parser and entry point
# --------------------------------------------------------------------------

def _add_common(sub, default_format: str = "json") -> None:
    sub.add_argument("--format", choices=("json", "csv"), default=default_format,
                     help=f"output format (default {default_format})")
    sub.add_argument("--out", default="-", help="output path, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointselect",
        description="Conflict-free joint selection matrices for two-player "
                    "probabilistic preferences.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="best matrix for a preference pair")
    p.add_argument("input", nargs="?", default="-",
                   help='preference JSON {"a": [...], "b": [...]}, - for stdin')
    p.add_argument("--require-zero-loss", action="store_true",
                   help="exit 1 instead of falling back to the minimum-loss matrix")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("baseline", help="reference mechanisms")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--method", choices=("uniform", "renorm", "order"), required=True)
    p.add_argument("--fallback-uniform", action="store_true",
                   help="fall back to uniform when renormalization is degenerate")
    _add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = subs.add_parser("bench", help="loss-comparison sweep over the four families")
    p.add_argument("--families", default=",".join(FAMILIES))
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--n-min", type=int, default=FULL_RANGE.start)
    p.add_argument("--n-max", type=int, default=FULL_RANGE.stop - 1)
    _add_common(p, default_format="csv")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("verify", help="certificates: KKT, oracle gap, convexity")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--kkt", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--convexity", action="store_true")
    p.add_argument("--matrix", default=None,
                   help="verify this matrix JSON instead of the built one (--kkt)")
    p.add_argument("--tol", type=float, default=1e-10, help="oracle tolerance")
    p.add_argument("--n", type=int, default=None, help="dimension for --convexity")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sample", help="seeded draws from a matrix JSON")
    p.add_argument("input", nargs="?", default="-", help="matrix JSON, - for stdin")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--draws", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("feasibility", help="M-player zero-loss verdict")
    p.add_argument("input", nargs="?", default="-",
                   help='JSON {"players": [[...], ...]}, - for stdin')
    p.add_argument("--players", type=int, default=None,
                   help="expected player count (cross-check)")
    _add_common(p)
    p.set_defaults(func=cmd_feasibility)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        _emit_error("parse", str(exc))
        return 2
    except InternalInvariantError as exc:
        _emit_error(_error_kind(exc), str(exc))
        return 3
    except JointSelectError as exc:
        _emit_error(_error_kind(exc), str(exc))
        return 2
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    except Exception as exc:  # a crash is exit 3, never exit 1 ("infeasible")
        _emit_error("internal", _crash_message(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
