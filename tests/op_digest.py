#!/usr/bin/env python3
"""One SHA-256 per benchmark op, to check that a change keeps every output.

    python3 tests/op_digest.py > digests.txt

Generates the seed-1 and seed-2 ops of the ``ladder``, ``wavefunction`` and
``audit`` workloads of ``perfbench/workloads.py`` (imported, not edited),
runs each through ``phasebound.cli.main`` in this process, and prints one
line per op: workload, seed, op index and the SHA-256 of its exit code,
stdout, stderr and ``--out`` file.  Three more sets follow, so that every
report path is covered: each seed-1 ``spectrum`` op of ``ladder`` with
``--format json`` (``ladder-json``), each seed-1 ``audit`` op with
``--format csv`` (``audit-csv``), and the first seed-1 ``wavefunction`` op
printed to stdout instead of ``--out`` (``wavefunction-stdout``).  The manifest's ``"timestamp"`` and the
temporary input directory are masked first, as they differ from run to
run.  Run it in two checkouts and ``diff`` the outputs; the last line
counts the ops.  Inputs and ``--out`` files go to a temporary directory.

The name has no ``test_`` prefix, so pytest does not collect it.
"""

import os
import sys

# one thread per numpy call, as in the benchmark, so LAPACK sums in a
# fixed order
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True   # leave no cache under perfbench/

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from phasebound.cli import main  # noqa: E402

SEEDS = (1, 2)
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def op_digest(op, in_dir: str) -> str:
    """SHA-256 of one op's exit code, stdout, stderr and --out file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to compare too
            code = "crash"
            err.write("".join(traceback.format_exception_only(exc)))
    written = ""
    if op.out and os.path.exists(op.out):
        with open(op.out, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(op.out)
    digest = hashlib.sha256()
    for part in (repr(code), out.getvalue(), err.getvalue(), written):
        masked = _TIMESTAMP.sub('"timestamp": ""', part).replace(in_dir, "")
        digest.update(masked.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _variants(workload: str, ops: list) -> tuple[str, list]:
    """The seed-1 ops again, on the report path the workload leaves out."""
    if workload == "ladder":
        return "ladder-json", [
            dataclasses.replace(op, argv=op.argv + ["--format", "json"])
            for op in ops if op.kind == "spectrum"]
    if workload == "audit":
        return "audit-csv", [
            dataclasses.replace(op, argv=op.argv + ["--format", "csv"])
            for op in ops]
    # drop "--out <file>" from the first op
    return "wavefunction-stdout", [
        dataclasses.replace(ops[0], argv=ops[0].argv[:-2], out=None)]


def main_digest() -> int:
    count = 0
    extra = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                in_dir = os.path.join(tmp, f"{workload}{seed}")
                ops = workloads.generate(workload, seed, in_dir)
                for op in ops:
                    print(workload, seed, op.index, op_digest(op, in_dir),
                          flush=True)
                    count += 1
                if seed == SEEDS[0]:
                    extra.append((*_variants(workload, ops), seed, in_dir))
        for name, ops, seed, in_dir in extra:
            for op in ops:
                print(name, seed, op.index, op_digest(op, in_dir),
                      flush=True)
                count += 1
    print(f"{count} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
