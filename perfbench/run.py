"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload profile-em --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` prints every per-layer metric from a traced run.  The
last line of standard output is the result object; check failures go to
standard error.  The exit code is 0 only when the run completed (a failed
output check still exits 0, with ``correct: false``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("profile-em", "fleet-eval", "serve-long", "pgo-drift")


def _load(name: str):
    if name == "profile-em":
        from profile_em import WORKLOAD
    elif name == "fleet-eval":
        from fleet_eval import WORKLOAD
    elif name == "serve-long":
        from serve_long import WORKLOAD
    else:
        from pgo_drift import WORKLOAD
    return WORKLOAD


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: no src/repro under the working directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [src, HERE]
    # The benchmark is one process: keep numpy's BLAS to one thread too.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    from harness import run

    result = run(_load(args.workload), args.seed, args.seconds, bool(args.trace))
    for failure in result.pop("failures"):
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
