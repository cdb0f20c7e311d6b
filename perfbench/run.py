#!/usr/bin/env python3
"""Benchmark of the phasebound CLI.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Workloads (see workloads.py and
README.md): ``ladder`` (quantizer), ``wavefunction`` (state builder) and
``audit`` (finite-difference oracle).

With ``--trace 0`` the run
  1. times the cold start: a fresh interpreter importing ``phasebound.cli``
     and generating the inputs (``setup_s``), and a fresh
     ``python -m phasebound.cli`` on the workload's representative command
     (``cli_cold_s``), one process at a time after an untimed warm-up;
  2. runs the seeded ops in-process as a closed loop with one client, each
     op a ``phasebound.cli.main(argv)`` call on its own input file, until
     ``--seconds`` of op time have passed and the mix is complete;
  3. checks every output against an independent reference (verify.py) and
     prints the end-to-end metrics, times scaled to a reference machine
     speed (speed.py).

With ``--trace 1`` it first checks the tracer on the ROADMAP probes, then
runs each op twice, traced and untraced in alternating order, and prints
the per-layer metrics (means per traced op) and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run-time files go to ``.bench_out/``.
"""

import os
import sys

# Keep numpy's native threads to one per process before anything loads it,
# and keep the benchmark and its children on one core, so the reference
# work (speed.py) and the steps it scales run at the same speed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SPAWNS = 5        # timed set-up probes per run (median reported)
COLD_SPAWNS = 5         # timed cold CLI runs per run (median reported)
IMPORT_SPAWNS = 3       # set-up probes in a traced run, for cli.import_s
KERNEL_REPS = 3         # reference kernel runs after each op (speed.py)
KERNEL_WINDOW = 3       # kernel ticks each side of an op that scale it
SPAWN_TIMEOUT_S = 60.0
EXIT_ERROR = 1          # the CLI's exit code for a hard error
OVERRUN_LIMIT_S = 60.0  # stop completing the mix after this overrun


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; (wall seconds, result)."""
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=SPAWN_TIMEOUT_S)
    return perf_counter() - start, proc


def measure_setup(workload: str, seed: int, run_dir: str, timed: int,
                  speedometer: speed.Speedometer | None
                  ) -> tuple[list[float], list[float]]:
    """(wall seconds, in-child import seconds) of ``timed`` set-up probes."""
    walls, imports = [], []
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"),
            "--workload", workload, "--seed", str(seed),
            "--dir", os.path.join(run_dir, "setup")]
    for i in range(timed + 1):          # the first spawn is the warm-up
        wall, proc = spawn(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:
            walls.append(wall)
            imports.append(json.loads(proc.stdout)["import_s"])
        if speedometer:
            speedometer.tick()
    return walls, imports


def measure_cold(workload: str, run_dir: str, timed: int,
                 speedometer: speed.Speedometer, outcomes: "Outcomes"
                 ) -> list[float]:
    """Wall seconds of ``timed`` cold CLI runs, whose outputs go to
    ``outcomes``.  The set-up probes ran first, so bytecode caches exist."""
    op, argv = workloads.cold_command(workload, os.path.join(run_dir, "cold"))
    walls = []
    for _ in range(timed):
        wall, proc = spawn([sys.executable, "-m", "phasebound.cli", *argv])
        speedometer.tick()
        out = proc.stdout
        if op.out and os.path.exists(op.out):
            with open(op.out, encoding="utf-8") as fh:
                out = fh.read()
            os.remove(op.out)
        walls.append(wall)
        outcomes.add(op, proc.returncode, out, proc.stderr)
    return walls


def run_op(main, op: workloads.Op) -> tuple[float, int | None, str, str]:
    """One CLI call: (seconds, exit code, stdout or --out text, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed op, not a failed run
            code = None
            err.write(traceback.format_exc())
    seconds = perf_counter() - start
    text = out.getvalue()
    if op.out and os.path.exists(op.out):
        with open(op.out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(op.out)
    return seconds, code, text, err.getvalue()


class Outcomes:
    """Verification bookkeeping.

    An op fails when it crashes, exits with the CLI's error code, or
    returns output that does not verify; only the last kind is a wrong
    answer, which makes the run incorrect.  Wavefunction tables are checked
    at once and dropped, so they do not swell the memory figure; the small
    ladder and audit outputs are kept and checked after the loop, whose
    scipy references would otherwise load into the measured process.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.pending = []

    def add(self, op, code, text, err):
        self.attempted += 1
        if code is None or code == EXIT_ERROR:
            self._fail(op, f"exit code {code}: {err.strip()[-600:]}")
        elif op.kind == "wavefunction":
            self._judge(op, code, text)
        else:
            self.pending.append((op, code, text))

    def finish(self):
        for op, code, text in self.pending:
            self._judge(op, code, text)
        self.pending = []

    def _judge(self, op, code, text):
        problem = verify.check(op, code, text)
        if problem:
            self.wrong += 1
            self._fail(op, problem)

    def _fail(self, op, problem):
        self.failed += 1
        print(f"op {op.index} ({' '.join(op.argv[:1] + op.argv[2:])}) "
              f"failed: {problem}", file=sys.stderr)


def defect_note(main, run_dir: str) -> str:
    """Run the known failing radial solve (workloads.KNOWN_DEFECT) once,
    outside the timing and the counts, and say how it ended."""
    op = workloads.known_defect(os.path.join(run_dir, "defect"))
    _, code, text, err = run_op(main, op)
    argv = " ".join(op.argv[:1] + op.argv[2:])
    if code is None or code == EXIT_ERROR:
        last = err.strip().splitlines()[-1:] or [""]
        return (f"known defect, charge {op.params['charge']} {argv}: "
                f"still fails, exit code {code}: {last[0]}")
    problem = verify.check(op, code, text)
    return (f"known defect, charge {op.params['charge']} {argv}: exits "
            f"{code}, " + (f"wrong: {problem}" if problem else "verified"))


def closed_loop(ops, mix_ops: int, seconds: float, step) -> int:
    """Call ``step(op)`` (returning op seconds) over ``ops`` in order,
    cycling, until ``seconds`` of op time are spent and the run holds a
    whole number of ``mix_ops``.  Returns the number of ops run."""
    spent, i = 0.0, 0
    while spent < seconds or i % mix_ops:
        if spent > seconds + OVERRUN_LIMIT_S:
            break
        spent += step(ops[i % len(ops)])
        i += 1
    return i


def _timings(seconds: list[float]) -> dict:
    return {"ops_per_s": (len(seconds) / sum(seconds), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(seconds), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(seconds, n=10)[8], "ms")}


def end_to_end(args, run_dir: str) -> dict:
    spawn_speed = speed.Speedometer(
        lambda: speed.reference_spawn(child_env(), ROOT),
        speed.SPAWN_NOMINAL_S, reps=1, window=1)
    loop_speed = speed.Speedometer(speed.kernel, speed.KERNEL_NOMINAL_S,
                             reps=KERNEL_REPS, window=KERNEL_WINDOW)
    setup_walls, _ = measure_setup(args.workload, args.seed, run_dir,
                                   SETUP_SPAWNS, spawn_speed)
    outcomes = Outcomes()
    cold_walls = measure_cold(args.workload, run_dir, COLD_SPAWNS,
                              spawn_speed, outcomes)

    import phasebound.cli as cli
    ops = workloads.generate(args.workload, args.seed,
                             os.path.join(run_dir, "inputs"))
    latencies = []

    def step(op):
        seconds, code, text, err = run_op(cli.main, op)
        loop_speed.tick()
        latencies.append(seconds)
        outcomes.add(op, code, text, err)
        return seconds

    loop_speed.tick()
    count = closed_loop(ops, workloads.MIX_OPS[args.workload],
                        args.seconds, step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes.finish()
    if args.workload == "ladder":
        print(defect_note(cli.main, run_dir))

    # the warm-up spawn's tick opens the phase, so spawn i lies between
    # ticks i and i + 1 across both lists
    scaled = spawn_speed.scale(setup_walls + cold_walls)
    setup_s = statistics.median(scaled[:SETUP_SPAWNS])
    cli_cold_s = statistics.median(scaled[SETUP_SPAWNS:])
    raw = dict(_timings(latencies), setup_s=(statistics.median(setup_walls),),
               cli_cold_s=(statistics.median(cold_walls),))
    print(f"{args.workload} seed {args.seed}: {count} ops in "
          f"{sum(latencies):.2f} s of op time, p90 from {count} samples "
          f"({count // 10} beyond it); unscaled "
          + ", ".join(f"{k} {v[0]:.4g}" for k, v in raw.items())
          + f"; mix {json.dumps(workloads.mix(ops[:count]))}")
    return {
        "outcomes": outcomes,
        "metrics": dict(_timings(loop_speed.scale(latencies)),
                        setup_s=(setup_s, "s"),
                        cli_cold_s=(cli_cold_s, "s"),
                        peak_rss_mb=(peak_rss_mb, "MB"),
                        ok_frac=(1.0 - outcomes.failed / outcomes.attempted,
                                 "1")),
    }


# Per-layer metrics reported from a traced run: (metric, span, field, unit).
# ``field`` is "calls" or "self_s" of the span, or a tracer counter.
LAYER_METRICS = [
    ("potentials.evaluate.calls", "potentials.evaluate", "calls", "calls/op"),
    ("potentials.evaluate.points", None, "potentials.evaluate.points",
     "points/op"),
    ("potentials.evaluate.self_s", "potentials.evaluate", "self_s", "s/op"),
    ("potentials.minimum.self_s", "potentials.minimum", "self_s", "s/op"),
    ("classical.find_turning_points.calls", "classical.find_turning_points",
     "calls", "calls/op"),
    ("classical.find_turning_points.self_s", "classical.find_turning_points",
     "self_s", "s/op"),
    ("classical.action_integral.calls", "classical.action_integral", "calls",
     "calls/op"),
    ("classical.action_integral.self_s", "classical.action_integral",
     "self_s", "s/op"),
    ("classical.phase.calls", "classical.phase", "calls", "calls/op"),
    ("classical.phase.self_s", "classical.phase", "self_s", "s/op"),
    ("quadrature.integrate_adaptive.calls", "quadrature.integrate_adaptive",
     "calls", "calls/op"),
    ("quadrature.integrate_adaptive.self_s", "quadrature.integrate_adaptive",
     "self_s", "s/op"),
    ("quadrature.panels", None, "quadrature.panels", "panels/op"),
    ("rootfind.bisect_then_brent.calls", "rootfind.bisect_then_brent",
     "calls", "calls/op"),
    ("rootfind.bisect_then_brent.self_s", "rootfind.bisect_then_brent",
     "self_s", "s/op"),
    ("quantize.spectrum.self_s", "quantize.spectrum", "self_s", "s/op"),
    ("quantize.solve_level.self_s", "quantize.solve_level", "self_s", "s/op"),
    ("quantize.claim_audit.self_s", "quantize.claim_audit", "self_s", "s/op"),
    ("quantize.levels", None, "quantize.levels", "levels/op"),
    ("quantize.truncations", None, "quantize.truncations", "count/op"),
    ("radial.radial_spectrum.self_s", "radial.radial_spectrum", "self_s",
     "s/op"),
    ("radial.angular_eigenvalue.self_s", "radial.angular_eigenvalue",
     "self_s", "s/op"),
    ("oracle.reference_levels.calls", "oracle.reference_levels", "calls",
     "calls/op"),
    ("oracle.reference_levels.self_s", "oracle.reference_levels", "self_s",
     "s/op"),
    ("oracle.sweeps", "oracle.counts", "calls", "sweeps/op"),
    ("oracle.counts.self_s", "oracle.counts", "self_s", "s/op"),
    ("oracle.shifts", None, "oracle.shifts", "shifts/op"),
    ("oracle.grid_points", None, "oracle.grid_points", "points/op"),
    ("states.build_state.self_s", "states.build_state", "self_s", "s/op"),
    ("states.sample.calls", "states.sample", "calls", "calls/op"),
    ("states.sample.self_s", "states.sample", "self_s", "s/op"),
    ("states.diagnostics.calls", "states.diagnostics", "calls", "calls/op"),
    ("states.diagnostics.self_s", "states.diagnostics", "self_s", "s/op"),
    ("cli.main.self_s", "cli.main", "self_s", "s/op"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(args, run_dir: str) -> dict:
    _, import_s = measure_setup(args.workload, args.seed, run_dir,
                                IMPORT_SPAWNS, None)

    import phasebound.cli as cli
    import tracer as tracing

    metrics = {k: (v, "count") for k, v in tracing.run_probes().items()}
    tracer = tracing.Tracer()
    tracer.install()
    main = tracer.wrap("cli.main", cli.main)
    ops = workloads.generate(args.workload, args.seed,
                             os.path.join(run_dir, "inputs"))
    outcomes = Outcomes()
    times = {True: [], False: []}

    def step(op):
        total = 0.0
        order = (False, True) if op.index % 2 == 0 else (True, False)
        for on in order:
            tracer.active, tracer.op = on, op.index
            try:
                seconds, code, text, err = run_op(main, op)
            finally:
                tracer.active = False
            times[on].append(seconds)
            outcomes.add(op, code, text, err)
            total += seconds
        return total

    try:
        count = closed_loop(ops, workloads.MIX_OPS[args.workload],
                            args.seconds, step)
    finally:
        tracer.uninstall()
    outcomes.finish()
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz"))

    spans = tracer.aggregate()
    counters = tracer.counters
    for metric, span, field, unit in LAYER_METRICS:
        if span is None:
            total = counters.get(field, 0.0)
        else:
            calls, self_s = spans.get(span, (0, 0.0))
            total = calls if field == "calls" else self_s
        metrics[metric] = (total / count, unit)
    evals = spans.get("quadrature.integrate_adaptive", (0, 0.0))[0]
    sweeps = spans.get("oracle.counts", (0, 0.0))[0]
    metrics.update({
        "quantize.surveys_per_level": (_ratio(
            counters.get("quantize.surveys", 0.0),
            counters.get("quantize.levels", 0.0)), "surveys/level"),
        "quadrature.panels_per_call": (_ratio(
            counters.get("quadrature.panels", 0.0), evals), "panels/call"),
        "oracle.sweeps_per_level": (_ratio(
            sweeps, counters.get("oracle.levels", 0.0)), "sweeps/level"),
        "cli.import_s": (statistics.median(import_s), "s"),
        "trace.ops_per_s": (count / sum(times[True]), "1/s"),
        "trace.untraced_ops_per_s": (count / sum(times[False]), "1/s"),
        "trace.overhead": (sum(times[True]) / sum(times[False]) - 1.0, "1"),
    })
    print(f"{args.workload} seed {args.seed} traced: {count} ops, "
          f"{len(tracer.span_start)} spans")
    return {"outcomes": outcomes, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "phasebound", "cli.py")):
        print(f"error: no phasebound sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = (traced if args.trace else end_to_end)(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    outcomes = result["outcomes"]
    print(json.dumps({"correct": outcomes.wrong == 0,
                      "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
