"""Entry point of a worker process: ``python -m perfbench.worker``.

The worker imports jointselect first and prints ``ready``; the launcher
times launch-to-ready as set-up. With ``--probe`` it exits there.
Otherwise it runs one workload (see loops.py) and prints its result as
one JSON line.
"""

import sys


def main(argv=None) -> int:
    import jointselect  # noqa: F401  set-up ends when this import is done

    print("ready", flush=True)

    import argparse
    import json
    from pathlib import Path

    from perfbench import loops

    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.probe:
        return 0
    result = loops.run(args.workload, args.seed, args.seconds, args.trace, args.work,
                       args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
