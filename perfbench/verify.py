"""Independent checks of every op's output.

Nothing here calls into ``phasebound``: energies are checked against closed
forms, bound-level counts against their closed-form counts, tabulated
ladders against a scipy quadrature of the same PCHIP interpolant, audit
references against exact spectra, and wavefunction tables against their
node count and norm.  ``check`` returns None for a correct output and a
one-line reason otherwise.

Energy tolerances are relative to max(1, |reference|).  Each tolerance
sits at least ten times above the largest error measured when the
benchmark was defined (quoted beside it), so it catches a wrong result,
not rounding.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import Op, bound_count

TOL_CLOSED_FORM = 1e-10     # 1D ladders vs WKB closed forms (max 2.7e-13)
TOL_COULOMB = 1e-9          # radial Coulomb vs closed form (max 2.5e-13)
TOL_TABULATED = 1e-7        # W(E_n)/(pi hbar (n+1/2)) - 1 by quad (max 9.1e-10)
TOL_ORACLE = 1e-7           # audit reference column vs exact (max 3.4e-9)
TOL_DEVIATION = 1e-12       # audit deviation column vs |q - r| / |r|
NODE_SAMPLES = 4            # node check only where grid step <= half-wave / 4
NODE_FLOOR = 1e-6           # |psi| below this share of max|psi| is ignored
TOL_NORM = 2e-2             # trapezoid norm on those grids (max 1.5e-3: tails
                            # beyond the table's padding are missing)
REGIONS = ("left-forbidden", "allowed", "right-forbidden")

HBAR = MASS = 1.0           # the generated files use the default constants


def wkb_energy(family: str, params: dict, n: int) -> float:
    """Closed-form energy of W(E) = pi hbar (n + 1/2)."""
    k = math.pi * HBAR * (n + 0.5)
    if family == "harmonic":
        return HBAR * params["omega"] * (n + 0.5)
    if family == "linear":
        return (3.0 * k * params["slope"] / (4.0 * math.sqrt(2.0 * MASS))) \
            ** (2.0 / 3.0)
    if family == "square_well":
        return -params["depth"] + (k / params["width"]) ** 2 / (2.0 * MASS)
    if family == "morse":
        d = params["depth"]
        hw = HBAR * params["range"] * math.sqrt(2.0 * d / MASS) * (n + 0.5)
        return -d + hw - hw * hw / (4.0 * d)
    raise ValueError(f"no closed form for {family}")


def exact_energies(family: str, params: dict, count: int) -> list[float]:
    """Exact Schroedinger spectrum (the audit reference's target)."""
    if family in ("harmonic", "morse"):
        return [wkb_energy(family, params, n) for n in range(count)]
    from scipy.special import ai_zeros
    k = count // 2 + 1
    a, ap, _, _ = ai_zeros(k)
    scale = (HBAR ** 2 * params["slope"] ** 2 / (2.0 * MASS)) ** (1.0 / 3.0)
    return [-scale * float(ap[n // 2] if n % 2 == 0 else a[n // 2])
            for n in range(count)]


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * max(1.0, abs(ref))


def _expected_rows(op: Op) -> tuple[int, int]:
    """(rows, exit code) the op should produce."""
    count = bound_count(op.family, op.params)
    if count is not None and op.levels > count:
        return count, 2
    return op.levels, 0


def _tabulated_phase(params: dict, energy: float) -> float:
    """W(E) / (pi hbar) by scipy quad on the same PCHIP interpolant."""
    import numpy as np
    from scipy.integrate import quad
    from scipy.interpolate import PchipInterpolator
    from scipy.optimize import brentq

    pts = np.asarray(params["samples"], dtype=float)
    v = PchipInterpolator(pts[:, 0], pts[:, 1], extrapolate=False)
    xs, vs = pts[:, 0], pts[:, 1]
    i_min = int(np.argmin(vs))
    gap = lambda x: energy - float(v(x))
    # single well: one crossing on each side of the lowest sample
    left = next(i for i in range(i_min, 0, -1) if vs[i - 1] >= energy)
    right = next(i for i in range(i_min, len(xs) - 1) if vs[i + 1] >= energy)
    a = brentq(gap, xs[left - 1], xs[left], xtol=1e-15, rtol=1e-15)
    b = brentq(gap, xs[right], xs[right + 1], xtol=1e-15, rtol=1e-15)
    knots = [x for x in xs if a < x < b]
    w, _ = quad(lambda x: math.sqrt(max(2.0 * MASS * gap(x), 0.0)), a, b,
                points=knots, limit=500, epsabs=1e-13, epsrel=1e-13)
    return w / (math.pi * HBAR)


def _check_spectrum(op: Op, code: int, out: str) -> str | None:
    rows_expected, code_expected = _expected_rows(op)
    if code != code_expected:
        return f"exit code {code}, expected {code_expected}"
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != rows_expected:
        return f"{len(rows)} levels, expected {rows_expected}"
    for i, row in enumerate(rows):
        n, energy = int(row["n"]), float(row["energy"])
        if n != i:
            return f"row {i} has n = {n}"
        if op.family == "tabulated":
            phase = _tabulated_phase(op.params, energy)
            if not abs(phase - (n + 0.5)) <= TOL_TABULATED * (n + 0.5):
                return f"n={n}: W(E)/(pi hbar) = {phase!r} by quad"
        elif not _close(energy, wkb_energy(op.family, op.params, n),
                        TOL_CLOSED_FORM):
            return f"n={n}: E = {energy!r} vs closed form " \
                   f"{wkb_energy(op.family, op.params, n)!r}"
    return None


def _check_radial(op: Op, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    levels = doc["levels"]
    if len(levels) != op.levels:
        return f"{len(levels)} radial levels, expected {op.levels}"
    z = op.params["charge"]
    m_total = HBAR * (op.params["n_theta"] + 0.5) + HBAR * abs(op.params["m_z"])
    for i, lv in enumerate(levels):
        ref = -MASS * z * z / (2.0 * HBAR ** 2
                               * (i + m_total / HBAR + 0.5) ** 2)
        if lv["n_r"] != i or not _close(lv["E"], ref, TOL_COULOMB):
            return f"n_r={i}: E = {lv['E']!r} vs closed form {ref!r}"
    return None


def _check_audit(op: Op, code: int, out: str) -> str | None:
    rows_expected, code_expected = _expected_rows(op)
    if code != code_expected:
        return f"exit code {code}, expected {code_expected}"
    rows = json.loads(out)["rows"]
    if len(rows) != rows_expected:
        return f"{len(rows)} audit rows, expected {rows_expected}"
    exact = exact_energies(op.family, op.params, rows_expected)
    for i, row in enumerate(rows):
        q, r, dev = row["quantized"], row["reference"], row["deviation"]
        if row["n"] != i or r is None or dev is None:
            return f"row {i} incomplete: {row}"
        if not _close(q, wkb_energy(op.family, op.params, i), TOL_CLOSED_FORM):
            return f"n={i}: quantized {q!r} vs closed form"
        if not _close(r, exact[i], TOL_ORACLE):
            return f"n={i}: reference {r!r} vs exact {exact[i]!r}"
        if not abs(dev - abs(q - r) / abs(r)) <= TOL_DEVIATION * max(1.0, dev):
            return f"n={i}: deviation {dev!r} inconsistent with its columns"
    return None


def _check_wavefunction(op: Op, code: int, text: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["x", "phi", "psi", "region", "epsilon", "delta"]:
        return f"bad header {rows[0]}"
    rows = rows[1:]
    if len(rows) != op.grid:
        return f"{len(rows)} rows, expected {op.grid}"
    xs, psis, order = [], [], []
    for row in rows:
        vals = [float(row[0]), float(row[1]), float(row[2])]
        vals += [float(c) for c in row[4:6] if c != ""]
        if not all(math.isfinite(v) for v in vals):
            return f"non-finite value in row {row}"
        if row[3] not in REGIONS:
            return f"bad region {row[3]!r}"
        xs.append(vals[0])
        psis.append(vals[2])
        order.append(REGIONS.index(row[3]))
    if any(b <= a for a, b in zip(xs, xs[1:])):
        return "x column is not increasing"
    if any(b < a for a, b in zip(order, order[1:])):
        return "region labels out of order"
    energy = wkb_energy(op.family, op.params, op.n)
    v_min = -op.params["depth"] if op.family == "morse" else 0.0
    p_max = math.sqrt(2.0 * MASS * (energy - v_min))
    step = (xs[-1] - xs[0]) / (len(xs) - 1)
    if step <= math.pi * HBAR / (NODE_SAMPLES * p_max):
        floor = NODE_FLOOR * max(abs(p) for p in psis)
        signs = [p > 0.0 for p in psis if abs(p) > floor]
        nodes = sum(a != b for a, b in zip(signs, signs[1:]))
        if nodes != op.n:
            return f"{nodes} nodes, expected {op.n}"
        norm = sum(0.5 * (p * p + q * q) * (b - a) for a, b, p, q
                   in zip(xs, xs[1:], psis, psis[1:]))
        if not abs(norm - 1.0) <= TOL_NORM:
            return f"integral of psi^2 over the table is {norm!r}"
    return None


def check(op: Op, code: int, out: str) -> str | None:
    """None when the op's output is right, else the reason it is not.

    ``out`` is stdout, or the ``--out`` file's text for wavefunction ops.
    """
    try:
        if op.kind == "spectrum":
            return _check_spectrum(op, code, out)
        if op.kind == "radial":
            return _check_radial(op, code, out)
        if op.kind == "audit":
            return _check_audit(op, code, out)
        return _check_wavefunction(op, code, out)
    except (ValueError, KeyError, IndexError, TypeError,
            StopIteration) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
