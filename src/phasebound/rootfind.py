"""Scalar root refinement and bounded minimization.

The root finder is a bisection warm-up followed by Brent's method; its loop
follows the classic zeroin structure (inverse quadratic interpolation with
secant and bisection safeguards).  The minimizer is a golden-section search
(Kiefer, Proc. AMS 4, 1953), which refines the floor of a potential that
does not state it in closed form.
"""

from __future__ import annotations

import math

from .errors import SolverError, UsageError

_EPS = 2.220446049250313e-16
_BRENT_STEPS = 200      # Brent steps before a bracket counts as unsolved


def bisect_then_brent(f, a: float, b: float, fa: float | None = None,
                      fb: float | None = None, xtol: float = 1e-12,
                      pre_bisect: int = 8) -> float:
    """Root of f in [a, b] given a sign change; xtol is absolute in x.

    ``pre_bisect`` plain bisection steps shrink the bracket first, which
    keeps the interpolation steps honest on awkward (kinked,
    discontinuous) functions; Brent finishes.  A root not reached to xtol
    within _BRENT_STEPS Brent steps raises SolverError naming the bracket
    Brent was given, rather than returning an unconverged point.
    """
    if a > b:
        a, b = b, a
        fa, fb = fb, fa
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise UsageError("root bracket does not straddle a sign change")

    for _ in range(pre_bisect):
        m = 0.5 * (a + b)
        if m == a or m == b:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm

    # Brent proper. (xpre, fpre) and (xcur, fcur) bracket with xblk.
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = 0.0
    spre = scur = 0.0
    for _ in range(_BRENT_STEPS):
        if fpre * fcur < 0.0:
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + 4.0 * _EPS * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:
                # inverse quadratic; f only in ratios, which cannot overflow
                stry = -fcur / (fblk - fpre) * (
                    fblk / (fpre - fcur) * (xpre - xcur)
                    - fpre / (fblk - fcur) * (xblk - xcur))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise SolverError(f"Brent's method took {_BRENT_STEPS} steps on "
                      f"[{a!r}, {b!r}] without reaching xtol = {xtol:.3g}")


def golden_minimum(f, a: float, b: float,
                   rtol: float) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of f on [a, b], to rtol * (b - a) in x.

    Each step keeps the part of the bracket around the lower of two inner
    points and shrinks it by 1/phi, reusing one point, so the search makes
    2 + ceil(log(rtol) / log(1/phi)) calls of f.
    """
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(math.ceil(math.log(rtol) / math.log(r))):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)
