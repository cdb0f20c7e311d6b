"""Command-line front end: spectra, wavefunction tables, audits, radial runs.

Potentials come in as JSON files; results go out as CSV or JSON with a
run manifest for reproducibility (embedded in JSON output, on stderr for
CSV).  Floats are serialized with 17 significant digits so a re-parse
reproduces the in-memory doubles bit for bit.

Exit codes: 0 success, 1 hard error (bad input, solver failure),
2 partial result (bound spectrum ran out of levels).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import PhaseboundError, UsageError
from .potentials import PotentialModel
from .quantize import claim_audit, solve_level, spectrum
from .radial import radial_spectrum
from .states import build_state, delta_functional, epsilon_parameter

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures follow the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_ERROR)


def _plain_int(text: str, name: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be an integer, got {text!r}")


def _positive_int(text: str, name: str) -> int:
    value = _plain_int(text, name)
    if value < 0:
        raise UsageError(f"{name} must be non-negative")
    return value


# -- serialization -----------------------------------------------------------

def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise UsageError("refusing to serialize a non-finite number")
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting; rejects NaN/inf."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}{json.dumps(str(k))}: {to_json(v, indent + 1)}'
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{to_json(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise UsageError(f"cannot serialize {type(obj).__name__}")


def _manifest(command: str, potential: PotentialModel, config: dict) -> dict:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {"command": command, "potential": potential.to_dict(),
            "config": config, "version": __version__, "timestamp": stamp}


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_float(c) if isinstance(c, float) else c
                         for c in row])
    return buf.getvalue()


# -- subcommands -------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    levels = _positive_int(args.levels, "--levels")
    if levels < 1:
        raise UsageError("--levels must be at least 1")
    potential = PotentialModel.from_json_file(args.potential)
    result = spectrum(potential, levels - 1)
    manifest = _manifest("spectrum", potential,
                         {"levels": levels, "format": args.format})
    if args.format == "json":
        doc = {"manifest": manifest,
               "levels": [{"n": lv.n, "energy": lv.energy,
                           "action": lv.action, "residual": lv.residual}
                          for lv in result.levels],
               "truncated": result.truncated, "reason": result.reason}
        _emit(to_json(doc) + "\n", args.out)
    else:
        rows = [[lv.n, lv.energy, lv.action, lv.residual]
                for lv in result.levels]
        _emit(_csv_text(["n", "energy", "action", "residual"], rows),
              args.out)
        print(to_json(manifest), file=sys.stderr)
    if result.truncated:
        print(f"truncated: {result.reason}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_wavefunction(args) -> int:
    n = _positive_int(args.n, "--n")
    grid = _positive_int(args.grid, "--grid")
    if grid < 2:
        raise UsageError("--grid needs at least 2 points")
    potential = PotentialModel.from_json_file(args.potential)
    level = solve_level(potential, n)
    state = build_state(potential, level)
    region = level.region
    pad = region.width
    lo, hi = region.left - pad, region.right + pad
    # the domain ends, nudged off an open edge such as r = 0
    d_lo, d_hi = state.potential.ends
    lo, hi = max(lo, d_lo), min(hi, d_hi)
    step = (hi - lo) / (grid - 1)

    xs = lo + np.arange(grid) * step
    # delta refuses (NaN) every point outside the region: no room to step
    eps = epsilon_parameter(state.potential, level.energy, xs, region)
    delta = delta_functional(state.potential, level.energy, xs, region)
    # a point refused by either diagnostic leaves both cells blank
    blank = ~(np.isfinite(eps) & np.isfinite(delta))
    cols = state.sample(xs)
    rows = [[x, phi, psi, tag,
             "" if skip else format_float(e), "" if skip else format_float(d)]
            for x, phi, psi, tag, e, d, skip in zip(
                xs.tolist(), cols.phi.tolist(), cols.psi.tolist(),
                cols.region.tolist(), eps.tolist(), delta.tolist(),
                blank.tolist())]
    _emit(_csv_text(["x", "phi", "psi", "region", "epsilon", "delta"], rows),
          args.out)
    manifest = _manifest("wavefunction", potential,
                         {"n": n, "grid": grid})
    print(to_json(manifest), file=sys.stderr)
    return EXIT_OK


def _cmd_audit(args) -> int:
    levels = _positive_int(args.levels, "--levels")
    if levels < 1:
        raise UsageError("--levels must be at least 1")
    potential = PotentialModel.from_json_file(args.potential)
    rows = claim_audit(potential, levels - 1)
    truncated = len(rows) < levels
    deviations = [r.deviation for r in rows if r.deviation is not None]
    max_dev = max(deviations) if deviations else None
    manifest = _manifest("audit", potential,
                         {"levels": levels, "format": args.format})
    if args.format == "json":
        doc = {"manifest": manifest,
               "rows": [{"n": r.n, "quantized": r.quantized,
                         "reference": r.reference, "deviation": r.deviation,
                         "note": r.note} for r in rows],
               "max_deviation": max_dev,
               "truncated": truncated}
        _emit(to_json(doc) + "\n", args.out)
    else:
        table = [[r.n, r.quantized,
                  r.reference if r.reference is not None else "",
                  r.deviation if r.deviation is not None else "",
                  r.note or ""] for r in rows]
        _emit(_csv_text(["n", "quantized", "reference", "deviation", "note"],
                        table), args.out)
        print(to_json(manifest), file=sys.stderr)
    if truncated:
        print(f"truncated: only {len(rows)} bound levels", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_radial(args) -> int:
    n_theta = _positive_int(args.ntheta, "--ntheta")
    m_z = _plain_int(args.mz, "--mz")
    n_r_max = _positive_int(args.nrmax, "--nrmax")
    potential = PotentialModel.from_json_file(args.potential)
    result = radial_spectrum(potential, n_r_max, n_theta, m_z)
    manifest = _manifest("radial", potential,
                         {"ntheta": n_theta, "mz": m_z, "nrmax": n_r_max})
    doc = {"manifest": manifest,
           "angular": {"m_z": result.angular.m_z,
                       "n_theta": result.angular.n_theta,
                       "M": result.angular.M},
           "levels": [{"n_r": lv.n, "E": lv.energy,
                       "residual": lv.residual}
                      for lv in result.levels],
           "truncated": result.truncated,
           "reason": result.reason}
    _emit(to_json(doc) + "\n", args.out)
    if result.truncated:
        print(f"truncated: {result.reason}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="phasebound",
                     description="Bound-state spectra and wavefunctions "
                                 "from phase-space quantization.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="bound-state energies")
    sp.add_argument("potential", help="potential description JSON file")
    sp.add_argument("--levels", required=True, help="number of levels")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.set_defaults(func=_cmd_spectrum)

    wf = sub.add_parser("wavefunction", help="tabulated state for one level")
    wf.add_argument("potential")
    wf.add_argument("--n", required=True, help="level index")
    wf.add_argument("--grid", required=True, help="number of sample points")
    wf.add_argument("--out", default=None)
    wf.set_defaults(func=_cmd_wavefunction)

    au = sub.add_parser("audit",
                        help="compare quantized energies against the "
                             "grid reference solver")
    au.add_argument("potential")
    au.add_argument("--levels", required=True)
    au.add_argument("--format", choices=("json", "csv"), default="json")
    au.add_argument("--out", default=None)
    au.set_defaults(func=_cmd_audit)

    ra = sub.add_parser("radial", help="central-potential radial spectrum")
    ra.add_argument("potential")
    ra.add_argument("--ntheta", required=True, help="polar node count")
    ra.add_argument("--mz", required=True, help="azimuthal integer")
    ra.add_argument("--nrmax", required=True, help="highest radial index")
    ra.add_argument("--out", default=None)
    ra.set_defaults(func=_cmd_radial)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PhaseboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
