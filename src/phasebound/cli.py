"""Command-line front end: spectra, wavefunction tables, audits, radial runs.

Potentials come in as JSON files.  Each command lays out its result once,
as a header and rows, and one writer emits it: as CSV with the run manifest
on stderr (``wavefunction`` always, ``spectrum`` by default), or as one JSON
document that embeds the manifest and keys each row by the header
(``radial`` always, ``audit`` by default).  Floats are serialized with 17
significant digits so a re-parse reproduces the in-memory doubles bit for
bit.  The CSV table is written column by column, with the same bytes as
``csv.writer``: a column of floats and blanks takes one finiteness check
and one ``%.17g`` map.

Exit codes: 0 success, 1 hard error (bad input, an unwritable ``--out``,
solver failure), 2 partial result (bound spectrum ran out of levels).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
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


_FLOAT = "%.17g".__mod__   # the bytes of format(x, ".17g") for a float x


def _csv_cell(cell) -> str:
    """One cell as ``csv.writer`` writes it in a row of several: None as
    "", a float through :func:`format_float`, anything else as its
    ``str``, quoted where ``csv.writer`` quotes it."""
    if cell is None:
        return ""
    if isinstance(cell, float):
        return format_float(cell)
    buf = io.StringIO()
    # a second field keeps an empty cell from being quoted as a lone field
    csv.writer(buf, lineterminator="\n").writerow([cell, ""])
    return buf.getvalue()[:-2]


def _csv_column(cells: tuple) -> list[str]:
    """One column's cells as text.  A column of floats and blanks takes one
    finiteness check and one ``%.17g`` map; any other column one
    :func:`_csv_cell` per cell, and per distinct string."""
    kinds = set(map(type, cells))
    blank = type(None) in kinds
    if kinds - {type(None)} == {float}:
        values = [c for c in cells if c is not None] if blank else cells
        if not np.isfinite(values).all():
            raise UsageError("refusing to serialize a non-finite number")
        if not blank:
            return list(map(_FLOAT, cells))
        return ["" if c is None else _FLOAT(c) for c in cells]
    text = {c: _csv_cell(c) for c in {c for c in cells if type(c) is str}}
    return [text[c] if type(c) is str else _csv_cell(c) for c in cells]


def _csv_text(header: list[str], rows: list[list]) -> str:
    """The table as ``csv.writer(lineterminator="\\n")`` writes the header
    and then ``rows`` with each float through :func:`format_float`, built
    one column at a time.  Each row holds one cell per header name."""
    lines = [",".join(map(_csv_cell, header))]
    lines += map(",".join, zip(*map(_csv_column, zip(*rows))))
    if len(header) == 1:
        # csv.writer quotes the empty field of a one-field row
        lines = ['""' if line == "" else line for line in lines]
    return "\n".join(lines) + "\n"


def _write(args, potential: PotentialModel, config: dict, header: list[str],
           key: str, fields: dict, note: str | None = None) -> int:
    """Write one result and return its exit code.

    ``fields`` are the JSON document's keys after the manifest, in order;
    ``fields[key]`` holds the rows, each a list in ``header``'s order with
    None for an empty cell.  JSON keys each row by the header; CSV writes
    the header and the rows, with None as "", column by column with the
    bytes of ``csv.writer`` (:func:`_csv_text`), and the manifest on stderr.
    A ``note`` says why the result is partial (exit code 2).
    """
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = {"command": args.command, "potential": potential.to_dict(),
                "config": config, "version": __version__, "timestamp": stamp}
    if args.format == "json":
        records = [dict(zip(header, row)) for row in fields[key]]
        text = to_json({"manifest": manifest, **fields, key: records}) + "\n"
    else:
        text = _csv_text(header, fields[key])
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    if args.format == "csv":
        print(to_json(manifest), file=sys.stderr)
    if note:
        print(f"truncated: {note}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


# -- subcommands -------------------------------------------------------------

def _levels(args) -> int:
    levels = _positive_int(args.levels, "--levels")
    if levels < 1:
        raise UsageError("--levels must be at least 1")
    return levels


def _cmd_spectrum(args) -> int:
    levels = _levels(args)
    potential = PotentialModel.from_json_file(args.potential)
    result = spectrum(potential, levels - 1)
    rows = [[lv.n, lv.energy, lv.action, lv.residual] for lv in result.levels]
    return _write(args, potential, {"levels": levels, "format": args.format},
                  ["n", "energy", "action", "residual"], "levels",
                  {"levels": rows, "truncated": result.truncated,
                   "reason": result.reason}, result.reason)


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
    rows = [[x, phi, psi, tag, None if skip else e, None if skip else d]
            for x, phi, psi, tag, e, d, skip in zip(
                xs.tolist(), cols.phi.tolist(), cols.psi.tolist(),
                cols.region.tolist(), eps.tolist(), delta.tolist(),
                blank.tolist())]
    return _write(args, potential, {"n": n, "grid": grid},
                  ["x", "phi", "psi", "region", "epsilon", "delta"], "rows",
                  {"rows": rows})


def _cmd_audit(args) -> int:
    levels = _levels(args)
    potential = PotentialModel.from_json_file(args.potential)
    audit = claim_audit(potential, levels - 1)
    rows = [[r.n, r.quantized, r.reference, r.deviation, r.note]
            for r in audit]
    deviations = [r.deviation for r in audit if r.deviation is not None]
    truncated = len(audit) < levels
    return _write(args, potential, {"levels": levels, "format": args.format},
                  ["n", "quantized", "reference", "deviation", "note"], "rows",
                  {"rows": rows,
                   "max_deviation": max(deviations) if deviations else None,
                   "truncated": truncated},
                  f"only {len(audit)} bound levels" if truncated else None)


def _cmd_radial(args) -> int:
    n_theta = _positive_int(args.ntheta, "--ntheta")
    m_z = _plain_int(args.mz, "--mz")
    n_r_max = _positive_int(args.nrmax, "--nrmax")
    potential = PotentialModel.from_json_file(args.potential)
    result = radial_spectrum(potential, n_r_max, n_theta, m_z)
    ang = result.angular
    rows = [[lv.n, lv.energy, lv.residual] for lv in result.levels]
    return _write(args, potential,
                  {"ntheta": n_theta, "mz": m_z, "nrmax": n_r_max},
                  ["n_r", "E", "residual"], "levels",
                  {"angular": {"m_z": ang.m_z, "n_theta": ang.n_theta,
                               "M": ang.M},
                   "levels": rows, "truncated": result.truncated,
                   "reason": result.reason}, result.reason)


@functools.cache
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
    wf.set_defaults(func=_cmd_wavefunction, format="csv")

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
    ra.set_defaults(func=_cmd_radial, format="json")
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
