"""Scalar root refinement and bounded minimization, both after Brent.

The root finder is a bisection warm-up followed by Brent's method; its loop
follows the classic zeroin structure (inverse quadratic interpolation with
secant and bisection safeguards).

The minimizer is Brent's golden-section search with parabolic steps on a
bracket (Brent, *Algorithms for Minimization without Derivatives*, 1973,
ch. 5).  It repeats scipy's ``minimize_scalar(method="bounded")`` step for
step, so it returns the same bits without importing scipy.optimize.
"""

from __future__ import annotations

import math

from .errors import UsageError

_EPS = 2.220446049250313e-16
_MAX_EVALS = 500  # scipy's default maxiter for method="bounded"


def bisect_then_brent(f, a: float, b: float, fa: float | None = None,
                      fb: float | None = None, xtol: float = 1e-12,
                      pre_bisect: int = 8, maxiter: int = 100) -> float:
    """Root of f in [a, b] given a sign change; xtol is absolute in x.

    A few plain bisection steps shrink the bracket first, which keeps the
    interpolation steps honest on awkward (kinked, discontinuous) functions;
    Brent finishes.
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
    for _ in range(maxiter):
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
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / \
                    (dblk * dpre * (fblk - fpre))
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
    return xcur


def _sign1(v: float) -> float:
    """+1 for v >= 0, -1 for v < 0, nan for nan (numpy's sign(v) + (v == 0))."""
    return 1.0 if v >= 0.0 else (-1.0 if v < 0.0 else v)


def bounded_minimum(f, a: float, b: float,
                    xatol: float) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of f on [a, b], to xatol in x.

    Stops after 500 evaluations of f and returns the best point so far.
    Bit for bit the (res.x, res.fun) of scipy.optimize.minimize_scalar(f,
    bounds=(a, b), method="bounded", options={"xatol": xatol}).
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign1(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        step = tol1 if abs(rat) < tol1 else abs(rat)
        x = xf + _sign1(rat) * step
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf, fx
