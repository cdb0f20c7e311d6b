"""Cold set-up probe, spawned by run.py in a fresh interpreter.

Imports ``phasebound.cli``, then generates the workload's inputs, and
prints the import time as JSON.  The parent times the whole process, so
the set-up figure covers interpreter start, the program's imports and
input generation.
"""

import time

_t0 = time.perf_counter()
import phasebound.cli  # noqa: E402,F401  (the import being timed)
_import_s = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    workloads.generate(args.workload, args.seed, args.dir)
    print(json.dumps({"import_s": _import_s}))


if __name__ == "__main__":
    main()
