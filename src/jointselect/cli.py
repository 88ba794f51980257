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
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    _csv_rows,
    _json_reals,
    dumps,
    given_loss,
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
from .oracle import solve_min_loss

# baselines, bench and multiplayer are imported by the commands that use
# them, so that the other commands do not pay for loading them. `loss` is
# not called here, but it stays a module attribute: perfbench/tracer.py
# rebinds it to trace core.loss.


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
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:  # not UTF-8, nested too deep, an int too long
        raise json.JSONDecodeError(str(exc), "", 0) from None


def _write(args, payload: dict, csv=None, note: str | None = None) -> int:
    """Write a command's answer to --out ("-" is stdout) and return exit code 0.

    JSON is ``payload``. CSV is ``csv(fh)``, by default ``payload`` as dotted
    key,value rows, followed by ``note``, if any, on stderr.
    """
    to_file = args.out not in (None, "-")
    with open(args.out, "w", encoding="utf-8") if to_file else nullcontext(sys.stdout) as fh:
        if args.format == "json":
            fh.write(dumps(payload) + "\n")
            return 0
        if csv is None:
            _write_kv_csv(fh, payload)
        else:
            csv(fh)
        if note is not None:
            print(note, file=sys.stderr)
    return 0


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
    # the loss against the input as given, not as the instance scaled it
    reported = given_loss(result.matrix, inst)
    payload = {
        **matrix_to_json(result.matrix),
        "loss": reported,
        "popularity": inst.popularity.tolist(),
        "branch": result.branch,
    }
    note = (f"loss={reported:.17g} branch={result.branch} "
            f"popularity={','.join(f'{s:.17g}' for s in inst.popularity)}")
    return _write(args, payload, lambda fh: fh.write(matrix_to_csv(result.matrix)), note)


def cmd_baseline(args) -> int:
    from .baselines import (
        random_order,
        random_order_degeneracies,
        simultaneous_renormalization,
        uniform_random,
    )

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
        "loss": given_loss(m, inst),
    }
    if fallback:
        payload["fallback"] = "uniform"
    if args.method == "order":
        payload["degenerate_draws"] = [list(hit) for hit in degenerate]
    notes = [f"method={args.method}", f"loss={payload['loss']:.17g}"]
    if fallback:
        notes.append("fallback=uniform")
    if degenerate:
        notes.append("degenerate=" + ";".join(f"{p}:{i}" for p, i in degenerate))
    return _write(args, payload, lambda fh: fh.write(matrix_to_csv(m)), " ".join(notes))


def _csv_list(raw: str | None, allowed: tuple[str, ...], what: str, plural: str):
    if raw is None:
        return allowed
    items = [item.strip() for item in raw.split(",") if item.strip()]
    for item in items:
        if item not in allowed:
            raise ValidationError(f"unknown {what} {item!r}; choose from {allowed}")
    if not items:
        raise ValidationError(f"no {plural} given")
    return items


def cmd_bench(args) -> int:
    from .bench import (
        FAMILIES,
        FULL_RANGE,
        MAX_N,
        METHODS,
        run_benchmark,
        summary_table,
        write_csv,
    )

    families = _csv_list(args.families, FAMILIES, "family", "families")
    methods = _csv_list(args.methods, METHODS, "method", "methods")
    n_min = FULL_RANGE.start if args.n_min is None else args.n_min
    n_max = FULL_RANGE.stop - 1 if args.n_max is None else args.n_max
    if n_min < 3:
        raise ValidationError(f"--n-min must be >= 3, got {n_min}")
    if n_max < n_min:
        raise ValidationError("--n-max must be >= --n-min")
    if n_max > MAX_N:
        raise ValidationError(f"--n-max must be <= {MAX_N}, got {n_max}")
    records = run_benchmark(families, range(n_min, n_max + 1), methods)
    rows = [{"family": r.family, "N": r.n, "method": r.method, "loss": r.loss} for r in records]
    _write(args, {"records": rows}, lambda fh: write_csv(records, fh))
    summary_table(records, sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if not (args.kkt or args.oracle or args.convexity):
        raise ValidationError("choose at least one of --kkt, --oracle, --convexity")
    if (args.kkt or args.oracle) and args.input is None:
        raise ValidationError("--kkt and --oracle need an input preference file")
    if args.matrix is not None and not args.kkt:
        raise ValidationError("--matrix is read only by --kkt")
    inst = None
    if args.input is not None:
        inst = instance_from_json(_read_json(args.input))

    sections: dict = {}
    if args.kkt:
        if args.matrix is not None:
            m = matrix_from_json(_read_json(args.matrix))
        else:
            m = min_loss_matrix(inst)
        cert = kkt_verify(inst, m)
        sections["kkt"] = {"epsilon": cert.epsilon, "mu": cert.mu,
                           "residuals": asdict(cert.residuals), "valid": cert.valid}
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
        sections["convexity"] = asdict(convexity_check(n))
    return _write(args, sections)


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
    return _write(args, payload, lambda fh: fh.write(_csv_rows(counts.tolist())))


def cmd_feasibility(args) -> int:
    from .multiplayer import feasibility_verdict, validate_multi

    obj = _read_json(args.input)
    if not isinstance(obj, dict) or "players" not in obj:
        raise ValidationError('feasibility input must be a JSON object with "players"')
    prefs = validate_multi(_json_reals(obj["players"], "multi-player weights"))
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
    return _write(args, payload)


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
    # None stands for bench's own defaults, which cmd_bench fills in
    p.add_argument("--families", default=None)
    p.add_argument("--methods", default=None)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    _add_common(p, default_format="csv")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("verify", help="certificates: KKT, oracle gap, convexity")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--kkt", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--convexity", action="store_true")
    p.add_argument("--matrix", default=None,
                   help="with --kkt: verify this matrix JSON instead of the built one")
    p.add_argument("--tol", type=float, default=1e-10, help="oracle tolerance")
    p.add_argument("--n", type=int, default=None, help="dimension for --convexity")
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
