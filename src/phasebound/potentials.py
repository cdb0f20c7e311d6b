"""Potential models for one-dimensional and radial bound-state problems.

A :class:`PotentialModel` bundles the potential function V(x), its analytic
derivative when one is available, the physical constants (hbar, mass) and a
finite working domain, each side of which has one kind (``edges``).  A
"soft" side stands in for an infinite extent: the quantizer and the
oracle's coarse solve move it out with :meth:`PotentialModel.widened`,
and :func:`decay_reach`, the walk of the state's tails and the oracle's
box walls, by a width of its steps.  A "hard" side (a wall,
the end of tabulated data) is never crossed, nor is an "open" one, where V
is singular, as at r = 0 of a radial model; a domain moved inward off an
open side is hard there.  A model's ``ends``, the domain
nudged 1e-12 of its width off each open side, are where its consumers stop.

Built-in families:

====================  ====================================================
harmonic              V(x) = m omega^2 x^2 / 2
linear                V(x) = slope * |x|
morse                 V(x) = depth * (exp(-2 a x) - 2 exp(-a x))
coulomb               V(r) = -charge / r + centrifugal / (2 m r^2)
square_well           V(x) = -depth inside |x| < width/2, 0 outside
tabulated             monotone cubic Hermite interpolant through samples
====================  ====================================================

All evaluation is vectorized: scalars in, scalar out; arrays in, array out.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, SolverError, UsageError
from .rootfind import golden_minimum

# The "params" keys of each family in the JSON description format, in the
# order of the family constructor's arguments, with their defaults;
# "samples" has none.
_PARAMS = {
    "harmonic": {"omega": 1.0},
    "linear": {"slope": 1.0},
    "morse": {"depth": 1.0, "range": 1.0},
    "coulomb": {"charge": 1.0, "centrifugal": 0.0},
    "square_well": {"depth": 1.0, "width": 1.0},
    "tabulated": {"samples": None},
}
_KINDS = tuple(_PARAMS)

# Relative tolerance (in units of the largest |2m(E - V)| on the domain)
# inside which local_momentum tags a point as a turning point.
_BOUNDARY_RTOL = 1e-13

# Points of the turning-point scan's grid; from_dict checks 2m V on it too.
SCAN_POINTS = 512

# bound once: a ufunc's own reduce skips the frames of ndarray.all
_LEAST, _GREATEST = np.fmin.reduce, np.fmax.reduce
_ALL = np.logical_and.reduce


def _is_number(value) -> bool:
    """A finite JSON number: int or float, but not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _finite(compute):
    """``compute()`` for a constant derived from family parameters, with
    no overflow error or numpy warning; UsageError unless it is finite."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except (OverflowError, ZeroDivisionError):
        value = np.inf
    if not np.isfinite(value):
        raise UsageError("a constant derived from the parameters is not finite")
    return value


@dataclass(frozen=True)
class PhysicalConstants:
    """Planck constant and particle mass used by one model instance."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and np.isfinite(self.hbar)):
            raise UsageError("hbar must be positive and finite")
        if not (self.mass > 0.0 and np.isfinite(self.mass)):
            raise UsageError("mass must be positive and finite")


class PotentialModel:
    """Immutable potential on a finite working domain.

    Instances are built through the family classmethods (:meth:`harmonic`,
    :meth:`morse`, ...), :meth:`from_callable` for custom shapes, or
    :meth:`from_dict` / :meth:`from_json_file` for the JSON description
    format.  Do not mutate attributes after construction.
    """

    def __init__(self, kind, params, f, df, constants, domain, *,
                 edges=("hard", "hard"), knots=(), floor_at=(), length=None,
                 turns=None):
        self.kind = kind
        self.params = dict(params)
        self.constants = constants
        self.edges = tuple(edges)   # the lower and the upper side's kind
        if len(self.edges) != 2 or not all(
                k in ("hard", "soft", "open") for k in self.edges):
            raise UsageError(
                f"edges must be two of 'hard', 'soft', 'open'; got {edges}")
        self._set_domain(domain[0], domain[1])
        # abscissae where V is only piecewise smooth (interpolation knots)
        self.knots = tuple(knots)
        # abscissae among which V is lowest on any sub-domain, once each is
        # clipped into it; empty when only a numeric search can tell
        self.floor_at = tuple(floor_at)
        # E above the floor -> the unclipped turning points, a sorted
        # tuple that pairs into allowed regions, +-inf where the well
        # opens; None when only a scan can tell
        self.turns = turns
        # the family's own length, else the domain width (see energy_scale)
        lo, hi = self.domain
        self.length = hi - lo if length is None else float(length)
        self._energy_scale = _finite(
            lambda: (constants.hbar / self.length) ** 2 / constants.mass)
        self._f = f
        self._df = df

    def _set_domain(self, lo, hi):
        """Check and store the domain and its ``ends``; forget the cache."""
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise UsageError(f"invalid domain [{lo}, {hi}]")
        self.domain = (lo, hi)
        off = (hi - lo) * 1e-12
        self.ends = (lo + off if self.edges[0] == "open" else lo,
                     hi - off if self.edges[1] == "open" else hi)
        self._min_cache = self._v_ends = None

    # -- construction -----------------------------------------------------

    @classmethod
    def harmonic(cls, omega=1.0, constants=None, domain=None):
        """Harmonic well m omega^2 x^2 / 2 centred on the origin."""
        if not omega > 0.0:
            raise UsageError("omega must be positive")
        c = constants or PhysicalConstants()
        length = _finite(lambda: np.sqrt(c.hbar / (c.mass * omega)))
        if domain is None:
            domain = (-12.0 * length, 12.0 * length)
        k = _finite(lambda: 0.5 * c.mass * omega ** 2)
        if k < sys.float_info.min:
            raise UsageError(
                f"m omega^2 / 2 = {k:.3g} is below the smallest normal "
                f"double {sys.float_info.min:.3g}: V would lose precision")

        def turns(e):
            x = math.sqrt(e / k)
            return -x, x

        return cls("harmonic", {"omega": float(omega)},
                   lambda x: k * x ** 2, lambda x: 2.0 * k * x,
                   c, domain, edges=("soft", "soft"), floor_at=(0.0,),
                   length=length, turns=turns)

    @classmethod
    def linear(cls, slope=1.0, constants=None, domain=None):
        """Symmetric linear well slope * |x| (kinked at the origin)."""
        if not slope > 0.0:
            raise UsageError("slope must be positive")
        c = constants or PhysicalConstants()
        length = _finite(
            lambda: (c.hbar ** 2 / (c.mass * slope)) ** (1.0 / 3.0))
        if domain is None:
            domain = (-30.0 * length, 30.0 * length)
        s = float(slope)

        def turns(e):
            x = e / s
            return -x, x

        return cls("linear", {"slope": s},
                   lambda x: s * np.abs(x), lambda x: s * np.sign(x),
                   c, domain, edges=("soft", "soft"), floor_at=(0.0,),
                   length=length, turns=turns)

    @classmethod
    def morse(cls, depth=1.0, a=1.0, constants=None, domain=None):
        """Morse well depth*(exp(-2ax) - 2 exp(-ax)); minimum -depth at 0."""
        if not (depth > 0.0 and a > 0.0):
            raise UsageError("morse depth and range parameter must be positive")
        c = constants or PhysicalConstants()
        if domain is None:
            domain = (-4.5 / a, 40.0 / a)
        d, al = float(depth), float(a)

        def f(x):
            e = np.exp(-al * x)
            return d * (e * e - 2.0 * e)

        def df(x):
            e = np.exp(-al * x)
            return 2.0 * al * d * (e - e * e)

        def turns(e):
            # exp(-a x) = 1 +- r; the sign of E, not r (1 + E/D can round
            # to 1), decides whether the well is open
            r = math.sqrt(1.0 + e / d)
            left = -math.log1p(r) / al
            if e >= 0.0:
                return left, math.inf
            if r < 0.5:
                return left, -math.log1p(-r) / al
            # 1 - r cancels as E -> 0-; it equals (-E/D) / (1 + r)
            return left, math.log((1.0 + r) * d / -e) / al

        return cls("morse", {"depth": d, "range": al}, f, df, c, domain,
                   edges=("soft", "soft"), floor_at=(0.0,), length=1.0 / al,
                   turns=turns)

    @classmethod
    def coulomb(cls, charge=1.0, centrifugal=0.0, constants=None, domain=None):
        """Attractive Coulomb tail -charge/r plus a centrifugal barrier.

        ``centrifugal`` is the squared angular momentum M^2 entering
        M^2 / (2 m r^2).  The domain lower edge is pinned at r = 0, which
        is open (the model is singular there).  With M^2 > 0 the floor
        is at r = M^2 / (m charge); without, V falls into r = 0 and
        :meth:`minimum` refuses it.  The default domain reaches
        600 max(hbar^2, M^2/100) / (m charge): 600 Bohr radii, or six
        floor radii where the floor would lie beyond those.
        """
        if not charge > 0.0:
            raise UsageError("charge must be positive")
        if centrifugal < 0.0:
            raise UsageError("centrifugal term must be non-negative")
        c = constants or PhysicalConstants()
        z, m2 = float(charge), float(centrifugal)
        # the Bohr radius, or the floor r0 = M^2/(m Z) over 100 where that
        # is longer, so that the default domain of 600 lengths holds r0
        length = _finite(lambda: max(c.hbar ** 2, m2 / 100.0) / (c.mass * z))
        if domain is None:
            domain = (0.0, 600.0 * length)
        elif float(domain[0]) != 0.0:
            raise UsageError("coulomb domain must start at r = 0")
        half_m2 = _finite(lambda: m2 / (2.0 * c.mass))

        if m2 > 0.0:
            def f(r):
                return -z / r + half_m2 / r ** 2

            def df(r):
                return z / r ** 2 - 2.0 * half_m2 / r ** 3
        else:
            # no centrifugal term: no r^2 to overflow on a domain past 1e154
            def f(r):
                return -z / r

            def df(r):
                return z / r ** 2

        def turns(e):
            # roots of E r^2 + Z r - M^2/(2m) = 0 without cancellation
            # (Higham, Accuracy and Stability of Numerical Algorithms,
            # 1.8); the discriminant can round below 0 just above V(r0)
            big = -0.5 * (z + math.sqrt(max(z * z + 4.0 * e * half_m2, 0.0)))
            return -half_m2 / big, (big / e if e < 0.0 else math.inf)

        return cls("coulomb", {"charge": z, "centrifugal": m2}, f, df, c,
                   domain, edges=("open", "soft"),
                   floor_at=(m2 / (c.mass * z),) if m2 > 0.0 else (),
                   length=length, turns=turns if m2 > 0.0 else None)

    @classmethod
    def square_well(cls, depth=1.0, width=1.0, constants=None, domain=None):
        """Finite square well: -depth for |x| < width/2, zero outside."""
        if not (depth > 0.0 and width > 0.0):
            raise UsageError("square well depth and width must be positive")
        c = constants or PhysicalConstants()
        if domain is None:
            tail = _finite(lambda: 40.0 * max(
                width, c.hbar / np.sqrt(2.0 * c.mass * depth)))
            domain = (-0.5 * width - tail, 0.5 * width + tail)
        d, half_w = float(depth), 0.5 * float(width)

        def f(x):
            return np.where(np.abs(x) < half_w, -d, 0.0)

        def turns(e):
            # at E = 0 the outside is level with E, so not allowed
            return (-half_w, half_w) if e <= 0.0 else (-math.inf, math.inf)

        return cls("square_well", {"depth": d, "width": float(width)},
                   f, lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   c, domain, edges=("soft", "soft"), floor_at=(0.0,),
                   length=width, turns=turns)

    @classmethod
    def tabulated(cls, samples, constants=None, domain=None):
        """Monotone cubic Hermite interpolant through (x, V) samples.

        Needs at least 4 samples with strictly increasing x.  The shape-
        preserving interpolant is monotone on every cell (Fritsch &
        Carlson, SIAM J. Numer. Anal. 17, 1980), so no spurious turning
        points appear, and V on any sub-range is lowest at a sample inside
        it or at one of its ends.  So the model states its turning points
        (``turns``): the cells whose two samples lie on either side of E,
        by V as :meth:`evaluate` computes it there, hold one each, found
        on the cell's cubic with no call of V; a sample below E at an end
        of the table opens the region there (+-inf).  The sample range is
        a hard domain.  The cubics are built once, in numpy, and V and V'
        summed in scipy's order of operations: scipy's PchipInterpolator
        to the bit, with no scipy import.  The interpolant is only C1 at
        the samples, so their x are the model's ``knots``, where the
        action quadrature splits its panels.
        """
        pts = np.asarray(samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
            raise UsageError("tabulated potential needs >= 4 (x, V) samples")
        if not np.isfinite(pts).all():
            raise UsageError("tabulated samples must be finite")
        xs, vs = pts[:, 0], pts[:, 1]
        if not (xs[1:] > xs[:-1]).all():
            raise UsageError("tabulated sample x values must strictly increase")
        c = constants or PhysicalConstants()
        # a column per cell, x_i and then its cubic in x - x_i, and one of
        # NaN on each side for x outside; the last break, one double past
        # the last sample, closes the last cell
        breaks = np.append(xs[:-1], np.nextafter(xs[-1], np.inf))
        table = np.full((5, xs.size + 1), np.nan)
        table[0, 1:-1] = xs[:-1]
        with np.errstate(all="ignore"):
            table[1:, 1:-1] = _pchip_cells(xs, vs)
            # V' holds every non-constant coefficient, scaled
            dtable = table[:4] * [[1.0], [3.0], [2.0], [1.0]]
            # V at the samples as evaluate has it (the last on the last cell)
            v_at = _ascending(table, breaks, xs)
        if not np.isfinite(dtable[:, 1:-1]).all():
            raise UsageError("tabulated samples give a non-finite slope")
        if domain is None:
            domain = (xs[0], xs[-1])
        elif domain[0] < xs[0] or domain[1] > xs[-1]:
            raise UsageError("domain exceeds the tabulated sample range")
        cells = table[1:, 1:-1].T.tolist()
        knots = xs.tolist()

        def turns(e):
            inside = v_at < e
            bounds = [-math.inf] if inside[0] else []
            for i in np.flatnonzero(inside[:-1] != inside[1:]).tolist():
                bounds.append(_cell_turning_point(
                    cells[i], knots[i], knots[i + 1], e, bool(inside[i])))
            if inside[-1]:
                bounds.append(math.inf)
            return tuple(bounds)

        return cls("tabulated", {"samples": pts.tolist()},
                   lambda x: _ascending(table, breaks, x),
                   lambda x: _ascending(dtable, breaks, x), c, domain,
                   knots=knots, floor_at=knots, turns=turns)

    @classmethod
    def from_callable(cls, f, domain, df=None, constants=None,
                      edges=("hard", "hard")):
        """Wrap an arbitrary vectorized callable as a "custom" model whose
        lower and upper side are each of the kind in ``edges``: "hard" (V
        is known up to it), "soft" (consumers may move it out) or "open"
        (V is singular there)."""
        c = constants or PhysicalConstants()
        return cls("custom", {}, f, df, c, domain, edges=edges)

    # -- JSON description -------------------------------------------------

    @classmethod
    def from_dict(cls, spec) -> "PotentialModel":
        """Build a model from the JSON description format.

        Expected shape::

            {"type": "<family>", "params": {...},
             "hbar": 1.0, "mass": 1.0, "domain": [lo, hi]}

        ``hbar``, ``mass``, ``domain`` and the family parameters are
        optional, except ``samples``.  Unknown keys, in ``params`` too,
        non-numeric values, a ``domain`` that is not a list of two numbers
        and values whose 2m V overflows on the domain raise ParseError.
        """
        if not isinstance(spec, dict):
            raise ParseError("potential description must be a JSON object")
        kind = spec.get("type")
        if kind not in _KINDS:
            raise ParseError(
                f"unknown potential type {kind!r}; expected one of {_KINDS}")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("'params' must be an object")
        unknown = set(spec) - {"type", "params", "hbar", "mass", "domain"}
        if unknown:
            raise ParseError(f"unrecognized keys {sorted(unknown)}")
        hbar, mass = spec.get("hbar", 1.0), spec.get("mass", 1.0)
        for key, value in (("hbar", hbar), ("mass", mass)):
            if not _is_number(value):
                raise ParseError(f"{key!r} must be a number, got {value!r}")
        try:
            constants = PhysicalConstants(hbar=float(hbar), mass=float(mass))
        except UsageError as exc:
            raise ParseError(f"bad constants: {exc}") from exc
        domain = spec.get("domain")
        if domain is not None:
            if not (isinstance(domain, list) and len(domain) == 2
                    and all(map(_is_number, domain))):
                raise ParseError(
                    f"'domain' must be [lo, hi] numbers, got {domain!r}")
            domain = (float(domain[0]), float(domain[1]))
        unknown = set(params) - set(_PARAMS[kind])
        if unknown:
            raise ParseError(
                f"unrecognized {kind} params {sorted(unknown)}; "
                f"expected some of {sorted(_PARAMS[kind])}")
        args = {**_PARAMS[kind], **params}
        if kind == "tabulated":
            samples = args["samples"]
            if samples is None:
                raise ParseError("tabulated potential needs 'samples'")
            if not (isinstance(samples, list) and all(
                    isinstance(p, list) and len(p) == 2
                    and all(map(_is_number, p)) for p in samples)):
                raise ParseError("'samples' must be a list of [x, V] pairs "
                                 "of numbers")
        else:
            for key, value in args.items():
                if not _is_number(value):
                    raise ParseError(
                        f"parameter {key!r} must be a number, got {value!r}")
        try:
            # _PARAMS lists each family's keys in its constructor's order
            model = getattr(cls, kind)(*args.values(), constants, domain)
        except UsageError as exc:
            raise ParseError(str(exc)) from exc
        # 2m V must stay finite on the turning-point scan's grid
        with np.errstate(all="ignore"):
            try:
                q = 2.0 * constants.mass * model.evaluate(
                    model.grid(SCAN_POINTS))
            except DomainError:     # V itself is not finite
                q = np.inf
        if not np.isfinite(q).all():
            raise ParseError(
                "the potential overflows on its domain: 2m V is not finite")
        return model

    @classmethod
    def from_json_file(cls, path) -> "PotentialModel":
        """Read the JSON description format from a file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        return cls.from_dict(spec)

    def to_dict(self) -> dict:
        """Round-trippable JSON description (named families only)."""
        if self.kind not in _KINDS:
            raise UsageError(
                f"potential kind {self.kind!r} has no JSON description")
        return {"type": self.kind, "params": dict(self.params),
                "hbar": self.constants.hbar, "mass": self.constants.mass,
                "domain": [self.domain[0], self.domain[1]]}

    # -- evaluation -------------------------------------------------------

    def _check_inside(self, x):
        lo, hi = self.domain
        slack = 1e-9 * (hi - lo)
        # the least and the greatest x but NaN, which every comparison
        # passes; +-inf when there is none.  A float is both, NaN too.
        least, most = (x, x) if isinstance(x, float) else (
            _LEAST(x, axis=None, initial=math.inf),
            _GREATEST(x, axis=None, initial=-math.inf))
        if least < lo - slack or most > hi + slack:
            raise DomainError(
                f"coordinate outside domain [{lo}, {hi}]")
        lo_kind, hi_kind = self.edges
        if lo_kind == "open" and least <= lo:
            raise DomainError(
                f"potential is singular at the open edge x = {lo}")
        if hi_kind == "open" and most >= hi:
            raise DomainError(
                f"potential is singular at the open edge x = {hi}")

    def evaluate(self, x):
        """V(x); raises DomainError outside the domain.  A float is checked
        with Python comparisons; V is taken on a 0-d array all the same."""
        arr = np.asarray(x, dtype=float)
        self._check_inside(x if isinstance(x, float) else arr)
        out = np.asarray(self._f(arr), dtype=float)
        if out.ndim == 0:
            out = float(out)
            finite = math.isfinite(out)
        else:
            finite = _ALL(np.isfinite(out), axis=None)
        if not finite:
            raise DomainError("potential evaluated to a non-finite value")
        return out

    @property
    def has_derivative(self) -> bool:
        return self._df is not None

    def derivative(self, x):
        """Analytic dV/dx; UsageError when the model carries none."""
        if self._df is None:
            raise UsageError(f"{self.kind} model has no analytic derivative")
        arr = np.asarray(x, dtype=float)
        self._check_inside(arr)
        out = np.asarray(self._df(arr), dtype=float)
        return float(out) if out.ndim == 0 else out

    def grid(self, n: int) -> np.ndarray:
        """Uniform grid of n points from ``ends[0]`` to ``ends[1]``."""
        return np.linspace(*self.ends, int(n))

    @property
    def energy_scale(self) -> float:
        """hbar^2 / (m L^2), L the family's ``length`` (sqrt(hbar/m omega),
        (hbar^2/m F)^(1/3), 1/a, Bohr radius, width) or the domain width."""
        return self._energy_scale

    def minimum(self) -> tuple[float, float]:
        """(x_min, V_min) over the domain, cached.

        A named family states where its V is lowest (``floor_at``): the
        origin for harmonic, linear, Morse and square well, r = M^2/(m Z)
        for Coulomb, the samples of a table.  V is evaluated once at those
        points, clipped into ``ends``, and the lowest wins.  Any other
        model is scanned on 2048 points and the lowest refined by a
        golden-section search.  Raises SolverError when the potential keeps
        falling into an open edge (no minimum exists: unbounded below).
        """
        if self._min_cache is None:
            xs = (np.clip(self.floor_at, *self.ends) if self.floor_at
                  else self.grid(2048))
            vs = self.evaluate(xs)
            i = int(np.argmin(vs))
            x, v = xs[i], vs[i]
            if not self.floor_at:
                last = len(xs) - 1
                if i in (0, last) and self.edges[i > 0] == "open":
                    edge = self.domain[i > 0]
                    if self.evaluate(edge + 1e-2 * (x - edge)) < v:
                        raise SolverError(
                            "potential not bounded below toward the "
                            f"{'upper' if i else 'lower'} domain edge")
                xg, vg = golden_minimum(self.evaluate, xs[max(i - 1, 0)],
                                        xs[min(i + 1, last)], 1e-13)
                if vg <= v:
                    x, v = xg, vg
            self._min_cache = (float(x), float(v))
        return self._min_cache

    def leans(self, energy: float) -> tuple[bool, bool]:
        """Whether 2m(E - V) > 0 at each of ``ends``, where V is evaluated
        once per domain: the allowed region at E leans on that end."""
        if self._v_ends is None:
            # a soft edge moved far out can take V past the doubles, which
            # evaluate turns into a DomainError
            with np.errstate(over="ignore", invalid="ignore"):
                self._v_ends = self.evaluate(self.ends).tolist()
        # in Python floats a q past the doubles is inf, with no numpy
        # warning, and it still compares right with 0
        two_m, e = 2.0 * self.constants.mass, float(energy)
        v_lo, v_hi = self._v_ends
        return two_m * (e - v_lo) > 0.0, two_m * (e - v_hi) > 0.0

    def with_domain(self, lo: float, hi: float) -> "PotentialModel":
        """This model on another working domain: a shallow copy whose
        ``domain``, ``ends``, cached floor and V at the ends alone differ,
        and its ``edges`` where an open side moved inward: V is finite
        there, so that side becomes hard.  Moving an edge outward is only
        allowed where the edge is soft.
        """
        cur_lo, cur_hi = self.domain
        if lo < cur_lo and self.edges[0] != "soft":
            raise UsageError("cannot extend past a hard lower edge")
        if hi > cur_hi and self.edges[1] != "soft":
            raise UsageError("cannot extend past a hard upper edge")
        model = copy.copy(self)
        lo_kind, hi_kind = self.edges
        if lo_kind == "open" and lo > cur_lo:
            lo_kind = "hard"
        if hi_kind == "open" and hi < cur_hi:
            hi_kind = "hard"
        if (lo_kind, hi_kind) != self.edges:
            model.edges = (lo_kind, hi_kind)
        model._set_domain(lo, hi)
        return model

    def widened(self, lo: bool, hi: bool) -> "PotentialModel":
        """This model with each soft side that ``lo`` or ``hi`` names moved
        out by max(domain width, ``length``); itself when none moves."""
        lo, hi = lo and self.edges[0] == "soft", hi and self.edges[1] == "soft"
        if not (lo or hi):
            return self
        a, b = self.domain
        step = max(b - a, self.length)
        return self.with_domain(a - step if lo else a, b + step if hi else b)

    def __repr__(self):
        lo, hi = self.domain
        return (f"PotentialModel({self.kind}, params={self.params}, "
                f"domain=[{lo:g}, {hi:g}])")


def _pchip_cells(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The PCHIP cells' cubics in x - x_i, highest power first, as columns.

    Fritsch & Carlson's slopes, with Moler's shape-kept three-point ends
    (Numerical Computing with MATLAB, 3.4), by the operations of scipy
    1.17's PchipInterpolator in its order: its ``c`` to the bit.  Call
    with numpy's warnings off; the caller refuses an overflow.
    """
    h = xs[1:] - xs[:-1]
    m = (vs[1:] - vs[:-1]) / h
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)    # of 1/m, weighted
    inner = np.where(flat, 0.0, 1.0 / mean)
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    end = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(
        (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0)),
        3.0 * m0, end))
    d = np.concatenate((end[:1], inner, end[1:]))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], vs[:-1]))


def _ascending(table: np.ndarray, breaks: np.ndarray, x):
    """V (or V') at x.  Column j of ``table`` holds x_i, then the
    coefficients, highest power first, of the cell [x_i, breaks[j]).
    Summed from the constant up, each power of s = x - x_i one more
    product by s, as scipy's PPoly sums (not Horner), for its bits."""
    c = table.take(breaks.searchsorted(x, "right"), axis=1)
    s = x - c[0]
    total, power = 0.0 + c[-1], 1.0
    for k in range(len(c) - 2, 0, -1):
        power = power * s
        total = total + c[k] * power
    return total


def _cell_turning_point(cubic, x0: float, x1: float, e: float,
                        left_inside: bool) -> float:
    """Where V = E in one PCHIP cell [x0, x1] that V crosses.

    ``cubic`` holds the cell's coefficients, highest power first, in
    t = x - x0; V is monotone on the cell, so the crossing is unique.
    ``left_inside`` says which end has V < E.  Newton steps on the cubic
    run until one moves t by at most 4 doubles.  A step that leaves the
    bracket or does not halve the step before it bisects instead (rtsafe:
    Press et al., Numerical Recipes, 9.4); where V meets E flat, as where
    a plateau starts, the bracket may close to two adjacent doubles
    first, and the end with V >= E is the turning point.
    """
    c0, c1, c2, c3 = cubic
    inner, outer = (0.0, x1 - x0) if left_inside else (x1 - x0, 0.0)
    t, step = 0.5 * (x1 - x0), x1 - x0
    while True:
        v = ((c0 * t + c1) * t + c2) * t + c3
        if v < e:
            inner = t
        else:
            outer = t
        lo, hi = min(inner, outer), max(inner, outer)
        slope = (3.0 * c0 * t + 2.0 * c1) * t + c2
        nxt = t - (v - e) / slope if slope != 0.0 else math.nan
        if lo <= nxt <= hi and abs(nxt - t) <= 4.0 * math.ulp(t):
            return x0 + nxt
        if not (lo < nxt < hi and abs(nxt - t) <= 0.5 * step):
            nxt = 0.5 * (lo + hi)
            if nxt == lo or nxt == hi:
                return x0 + outer
        step = abs(nxt - t)
        t = nxt


def effective_radial(potential: PotentialModel,
                     m_squared: float) -> PotentialModel:
    """Radial potential plus the centrifugal term M^2 / (2 m r^2).

    The input must live on a radial domain starting at r = 0, which is an
    open edge of the result whatever the input's lower edge; the upper
    edge keeps the input's kind.
    The result is again a full model, consumable by every one-dimensional
    operation.
    With ``m_squared`` = 0 the potential is returned unchanged; a Coulomb
    model comes back as a Coulomb model with ``m_squared`` added to its
    centrifugal term, so it keeps a closed-form floor.
    """
    if m_squared < 0.0:
        raise UsageError("squared angular momentum must be non-negative")
    if potential.domain[0] != 0.0:
        raise UsageError("effective_radial needs a domain starting at r = 0")
    if m_squared == 0.0:
        return potential
    if potential.kind == "coulomb":
        p = potential.params
        return PotentialModel.coulomb(p["charge"], p["centrifugal"] + m_squared,
                                      potential.constants, potential.domain)
    half_m2 = m_squared / (2.0 * potential.constants.mass)
    base_f, base_df = potential._f, potential._df

    def f(r):
        return base_f(r) + half_m2 / r ** 2

    df = None
    if base_df is not None:
        def df(r):
            return base_df(r) - 2.0 * half_m2 / r ** 3

    params = {"base": potential.kind, "base_params": dict(potential.params),
              "m_squared": float(m_squared)}
    return PotentialModel("effective_radial", params, f, df,
                          potential.constants, potential.domain,
                          edges=("open", potential.edges[1]),
                          knots=potential.knots)


class MomentumField:
    """Local momentum view of one (potential, energy) pair.

    Splits the domain pointwise into classically allowed and forbidden
    parts and hands out |p| on either side.  The allowed/forbidden
    magnitudes reconstruct 2m|E - V| exactly by construction.
    """

    def __init__(self, potential: PotentialModel, energy: float):
        self.potential = potential
        self.energy = float(energy)
        self._two_m = 2.0 * potential.constants.mass

    def q(self, x):
        """Squared momentum 2m(E - V(x)); negative in forbidden regions."""
        return self._two_m * (self.energy - self.potential.evaluate(x))

    def allowed_magnitude(self, x):
        """sqrt(2m(E - V)) clamped at zero (vectorized, quadrature-safe)."""
        return np.sqrt(np.maximum(self.q(x), 0.0))

    def forbidden_magnitude(self, x):
        """sqrt(2m(V - E)) clamped at zero (vectorized)."""
        return np.sqrt(np.maximum(-self.q(x), 0.0))


def decay_reach(potential: PotentialModel, energy: float, start: float,
                side: int, steps: int, exponent: float, widths: int
                ) -> tuple[PotentialModel, float | None]:
    """Walk from ``start`` into a forbidden side to where the decay
    exponent first reaches ``exponent``: (model, x).

    The steps, ``steps`` to a width, go toward lower x for ``side`` -1 and
    higher x for +1; the width is the larger of the domain width at the
    call and the model's ``length``.  Each width of steps calls V once,
    through :meth:`PotentialModel.evaluate`, on the steps inside the
    domain; the exponent is the trapezoid sum of sqrt(2m(V - E))/hbar from
    ``start``, and positions and sums accumulate as in a one-step-at-a-time
    loop, to the bit.  A ``start`` outside the domain first moves that side
    out to it (UsageError past a hard or open edge).  A soft edge in the
    way moves out by the width; at a hard or open one x is the model's end
    there, of ``ends``.  x is None when V falls back to E after the decay
    has started, when no decay starts within a width, or when ``widths``
    widths pass first.  The model is the one the walk reached.
    """
    pot = potential
    lo, hi = pot.domain
    width = max(hi - lo, pot.length)
    if not lo <= start <= hi:
        pot = pot.with_domain(min(lo, start), max(hi, start))
    dx = width / steps
    c = pot.constants
    x, expo, k_prev, flat = float(start), 0.0, 0.0, 0
    for _ in range(widths):
        xs = np.add.accumulate(
            np.concatenate(([x], np.full(steps, side * dx))))[1:]
        lo, hi = pot.domain
        outside = np.flatnonzero((xs < lo) | (xs > hi))
        if outside.size:
            xs = xs[:outside[0]]
        if xs.size:
            v = pot.evaluate(xs)
            k = np.concatenate(([k_prev], np.sqrt(
                2.0 * c.mass * np.maximum(v - energy, 0.0)) / c.hbar))
            expos = np.add.accumulate(np.concatenate((
                [expo], 0.5 * (k[1:] + k[:-1]) * dx)))[1:]
            # the exponent never falls, so its zeros lead
            flat += np.count_nonzero(expos == 0.0)
            if flat >= steps:
                return pot, None
            stalls = np.flatnonzero((v <= energy) & (expos > 0.0))
            stall = stalls[0] if stalls.size else xs.size
            hit = np.flatnonzero(expos[:stall] >= exponent)
            if hit.size:
                return pot, float(xs[hit[0]])
            if stalls.size:
                return pot, None
            expo, k_prev, x = expos[-1], k[-1], xs[-1]
        if outside.size:
            if pot.edges[side > 0] != "soft":
                return pot, pot.ends[side > 0]
            pot = pot.with_domain(lo - width if side < 0 else lo,
                                  hi + width if side > 0 else hi)
    return pot, None


def local_momentum(potential: PotentialModel, energy: float,
                   x: float) -> tuple[float, str]:
    """(|p|, tag) at one point; tag is allowed / forbidden / boundary.

    In the allowed region the value is the real momentum sqrt(2m(E - V));
    in the forbidden region it is the decay magnitude sqrt(2m(V - E)); on a
    turning point it is 0 with tag ``boundary``.
    """
    field = MomentumField(potential, energy)
    q = field.q(x)
    scale = np.max(np.abs(field.q(potential.grid(256)))) or 1.0
    if abs(q) <= _BOUNDARY_RTOL * scale:
        return 0.0, "boundary"
    return float(np.sqrt(abs(q))), "allowed" if q > 0.0 else "forbidden"
