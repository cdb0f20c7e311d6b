"""Adaptive Gauss-Kronrod quadrature (7-15 pair).

Small self-contained engine: one embedded G7/K15 evaluation per panel, the
panel with the worst error estimate is split until the combined estimate
is at most max(1e-12, 1e-12 * |integral|), a fixed tolerance, within a
fixed budget of 400 splits.  Known breakpoints of the integrand start the
panels split there, as in QUADPACK's QAGP, and those start panels share
one call of the integrand.  Integrands are called with a numpy array of
nodes and must return an array of the same shape.

``integrate_cells`` applies the same rule to many adjacent cells at once,
for cumulative integrals tabulated on a grid: each refinement round
evaluates the integrand on the nodes of every panel still open, in one
call per block of panels.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, UsageError

# Nodes and weights of the 15-point Kronrod rule on [-1, 1]; every second
# node (odd indices) carries the embedded 7-point Gauss rule.
_XK = np.array([
    -0.99145537112081263921,
    -0.94910791234275852453,
    -0.86486442335976907279,
    -0.74153118559939443986,
    -0.58608723546769113029,
    -0.40584515137739716691,
    -0.20778495500789846760,
    0.0,
    0.20778495500789846760,
    0.40584515137739716691,
    0.58608723546769113029,
    0.74153118559939443986,
    0.86486442335976907279,
    0.94910791234275852453,
    0.99145537112081263921,
])
_WK = np.array([
    0.02293532201052922496,
    0.06309209262997855329,
    0.10479001032225018384,
    0.14065325971552591875,
    0.16900472663926790283,
    0.19035057806478540991,
    0.20443294007529889241,
    0.20948214108472782801,
    0.20443294007529889241,
    0.19035057806478540991,
    0.16900472663926790283,
    0.14065325971552591875,
    0.10479001032225018384,
    0.06309209262997855329,
    0.02293532201052922496,
])
_WG = np.array([
    0.12948496616886969327,
    0.27970539148927666790,
    0.38183005050511894495,
    0.41795918367346938776,
    0.38183005050511894495,
    0.27970539148927666790,
    0.12948496616886969327,
])

_ABS_TOL = 1e-12
_REL_TOL = 1e-12
_MAX_SUBDIVISIONS = 400
_ROUNDING = 50.0 * np.finfo(float).eps
_BLOCK = 256    # panels per integrand call in integrate_cells
# Weights that extrapolate the degree-14 interpolant through the Kronrod
# nodes to the panel ends -1 and +1 (rows); integrate_cells compares them
# with the integrand's values there.
_XK_EDGES = np.array([[np.prod([(end - xk) / (xj - xk)
                                for k, xk in enumerate(_XK) if k != j])
                       for j, xj in enumerate(_XK)] for end in (-1.0, 1.0)])


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_bound: float
    panels: int


def kronrod_panel(f, a, b):
    """One G7/K15 pass over [a, b]; returns (K15 value, |K15 - G7|).

    Arrays of ends ask for one pass over each panel [a[i], b[i]], in one
    call of ``f`` on the nodes of all of them, and give arrays of values
    and estimates.  Each panel's sums are taken on its own row of values,
    so a panel gets the same bits whether it is passed alone or with
    others.
    """
    if isinstance(a, float) and isinstance(b, float):
        half = 0.5 * (b - a)
        return _rules(half, _checked(f(0.5 * (a + b) + half * _XK),
                                     _XK.size))
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[..., None] + half[..., None] * _XK
    y = _checked(f(nodes.ravel()), nodes.size).reshape(-1, _XK.size)
    # a matrix product would sum in another order than the row dot
    sums = np.array([_rules(h, row) for h, row in zip(half.ravel().tolist(),
                                                      y)])
    if a.ndim == 0:
        return float(sums[0, 0]), float(sums[0, 1])
    return sums[:, 0].reshape(a.shape), sums[:, 1].reshape(a.shape)


def _checked(y, size: int) -> np.ndarray:
    """The integrand's values as floats; refused unless there are
    ``size`` of them, all finite."""
    y = np.asarray(y, dtype=float)
    if y.size != size:
        raise UsageError("integrand must return one value per node")
    if not np.isfinite(y).all():
        raise QuadratureError("integrand returned a non-finite value")
    return y


def _rules(half: float, y: np.ndarray) -> tuple[float, float]:
    """(K15, |K15 - G7|) of one panel of half width ``half`` from the
    integrand's values ``y`` at its Kronrod nodes."""
    kron = half * float(_WK @ y)
    return kron, abs(kron - half * float(_WG @ y[1::2]))


def _sharpened(diff: float) -> float:
    # QUADPACK's estimate: once K15 and G7 agree, the error shrinks faster.
    # From 200 diff = 1 up the power is at least diff, and may overflow.
    return diff if 200.0 * diff >= 1.0 else min(diff, (200.0 * diff) ** 1.5)


def integrate_adaptive(f, a: float, b: float,
                       points=()) -> QuadratureResult:
    """Integrate ``f`` over [a, b] by adaptive panel bisection.

    ``points`` are breakpoints where ``f`` is not smooth, such as the
    knots of a spline.  Those strictly inside (a, b) split the starting
    panel; the rest, and repeats, are ignored.  The start panels take one
    :func:`kronrod_panel` call, so ``f`` runs once on all their nodes;
    each split half then takes a call of its own.  The split budget and
    the tolerance are the same with or without points.

    Raises QuadratureError when the tolerance is not reached within
    _MAX_SUBDIVISIONS splits, with the best estimate and, as its error
    bound, the panels' summed |K15 - G7| (the sharpened sum can fall short).
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise UsageError("quadrature limits must be finite")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    if a > b:
        raise UsageError("quadrature limits must satisfy a <= b")

    ends = [a, *sorted({p for p in points if a < p < b}), b]
    if len(ends) == 2:     # the float path costs less than an array call
        starts = [kronrod_panel(f, a, b)]
    else:
        vals, diffs = kronrod_panel(f, ends[:-1], ends[1:])
        starts = zip(vals.tolist(), diffs.tolist())
    # heap of (-error, tiebreak, a, b, value, |K15 - G7|): worst panel first
    heap = []
    total = total_err = 0.0
    for counter, (pa, pb, (val, diff)) in enumerate(zip(
            ends[:-1], ends[1:], starts)):
        err = _sharpened(diff)
        heap.append((-err, counter, pa, pb, val, diff))
        total += val
        total_err += err
    heapq.heapify(heap)
    counter = len(heap)
    width_floor = 50.0 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)

    for split in range(_MAX_SUBDIVISIONS):
        if total_err <= max(_ABS_TOL, _REL_TOL * abs(total)):
            return QuadratureResult(total, total_err, counter)
        neg_err, _, pa, pb, pval, pdiff = heapq.heappop(heap)
        if pb - pa <= width_floor:
            # Cannot refine further in floating point; put it back and stop.
            heapq.heappush(heap, (neg_err, -1, pa, pb, pval, pdiff))
            break
        pm = 0.5 * (pa + pb)
        lval, ldiff = kronrod_panel(f, pa, pm)
        rval, rdiff = kronrod_panel(f, pm, pb)
        lerr, rerr = _sharpened(ldiff), _sharpened(rdiff)
        total += (lval + rval) - pval
        total_err += (lerr + rerr) - (-neg_err)
        heapq.heappush(heap, (-lerr, counter, pa, pm, lval, ldiff))
        heapq.heappush(heap, (-rerr, counter + 1, pm, pb, rval, rdiff))
        counter += 2

    if total_err <= max(_ABS_TOL, _REL_TOL * abs(total)):
        return QuadratureResult(total, total_err, counter)
    bound = sum(panel[-1] for panel in heap)
    raise QuadratureError(
        f"quadrature did not converge: estimate {total!r}, "
        f"error bound {bound!r} after {counter} panels",
        estimate=total, error_bound=bound)


def _panel_pass(f, a: np.ndarray, b: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """(K15 value, error estimate) of each panel [a, b].

    ``f`` is called once per _BLOCK panels, on their Kronrod nodes and
    both ends, which keeps the node arrays small.
    """
    kron = np.empty(a.size)
    err = np.empty(a.size)
    for lo in range(0, a.size, _BLOCK):
        pa, pb = a[lo:lo + _BLOCK], b[lo:lo + _BLOCK]
        mid = 0.5 * (pa + pb)
        half = 0.5 * (pb - pa)
        nodes = np.column_stack((pa, mid[:, None] + half[:, None] * _XK, pb))
        y = _checked(f(nodes.ravel()), nodes.size).reshape(nodes.shape)
        yk = y[:, 1:-1]
        k = half * (yk @ _WK)
        diff = np.abs(k - half * (yk[:, 1::2] @ _WG))
        # On a kink both rules can agree far better than they are right,
        # and one between the outermost node and a panel end is invisible
        # to them.  The interpolant through the nodes then misses the end
        # values, by more than rounding only where the integrand is not
        # smooth; that miss times the half width bounds the rules' error.
        miss = (np.abs(y[:, 0] - yk @ _XK_EDGES[0])
                + np.abs(y[:, -1] - yk @ _XK_EDGES[1]))
        miss = np.maximum(miss - _ROUNDING * np.abs(y).max(axis=1), 0.0)
        kron[lo:lo + _BLOCK] = k
        # sharpened as in integrate_adaptive; a power that overflows is inf
        with np.errstate(over="ignore"):
            sharp = np.minimum(diff, (200.0 * diff) ** 1.5)
        err[lo:lo + _BLOCK] = np.maximum(sharp, half * miss)
    return kron, err


def integrate_cells(f, edges) -> np.ndarray:
    """Integrals of ``f`` over the cells between consecutive ``edges``.

    One edge makes no cells, and an empty cell integrates to 0 without a
    call of ``f``.  Every other cell gets a G7/K15 pass, all in one call
    of ``f`` per block of _BLOCK panels; the call also takes each panel's
    two ends, and the error estimate includes how far the nodes'
    interpolant misses the end values, which exposes a kink that the two
    rules agree on or cannot see.  While the summed error estimate of all
    panels exceeds ``max(_ABS_TOL, _REL_TOL * |integral over all cells|)``,
    the panels whose estimate exceeds that tolerance divided by the panel
    count are bisected and passed again.  The summed estimate bounds the
    error of every cumulative sum of cells too.  At most
    _MAX_SUBDIVISIONS bisections are spent beyond one per cell.
    Raises QuadratureError (carrying the estimate and its error bound)
    when the tolerance is not met.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 1:
        raise UsageError("cell edges must be a non-empty 1-d array")
    if not np.isfinite(edges).all():
        raise UsageError("quadrature limits must be finite")
    if (edges[1:] < edges[:-1]).any():
        raise UsageError("cell edges must be non-decreasing")
    cells = edges.size - 1
    # empty cells stay 0 without a call of f at their edge
    cell = np.flatnonzero(edges[1:] > edges[:-1])
    if cell.size == 0:
        return np.zeros(cells)

    width_floor = _ROUNDING * max(abs(edges[0]), abs(edges[-1]), 1.0)
    budget = _MAX_SUBDIVISIONS + cells
    # panels: bounds and owning cell; the first ones carry value and error
    a, b = edges[cell], edges[cell + 1]
    val, err = _panel_pass(f, a, b)
    tol = max(_ABS_TOL, _REL_TOL * abs(val.sum()))
    while True:
        total_err = err.sum()
        if total_err <= tol:
            return np.bincount(cell, val, cells)
        split = (err > tol / err.size) & (b - a > width_floor)
        budget -= np.count_nonzero(split)
        if not split.any() or budget < 0:
            break
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        halves_a = np.concatenate((a[split], mid))
        halves_b = np.concatenate((mid, b[split]))
        new_val, new_err = _panel_pass(f, halves_a, halves_b)
        a = np.concatenate((a[keep], halves_a))
        b = np.concatenate((b[keep], halves_b))
        cell = np.concatenate((cell[keep], cell[split], cell[split]))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))

    estimate = float(val.sum())
    raise QuadratureError(
        f"quadrature did not converge: estimate {estimate!r}, error bound "
        f"{float(total_err)!r} after {err.size} panels",
        estimate=estimate, error_bound=float(total_err))
