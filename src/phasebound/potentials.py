"""Potential models for one-dimensional and radial bound-state problems.

A :class:`PotentialModel` bundles the potential function V(x), its analytic
derivative when one is available, the physical constants (hbar, mass) and a
finite working domain.  Domains that stand in for infinite or half-infinite
extents carry soft edges: consumers (the quantizer, normalization) may push
a soft edge outward with :meth:`PotentialModel.with_domain`, while hard
edges (tabulated data, the r = 0 axis) cannot be crossed.

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

import json
import sys
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from .errors import DomainError, ParseError, SolverError, UsageError

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
                 soft_edges=(False, False), lo_open=False, hi_open=False):
        lo, hi = float(domain[0]), float(domain[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise UsageError(f"invalid domain [{lo}, {hi}]")
        self.kind = kind
        self.params = dict(params)
        self.constants = constants
        self.domain = (lo, hi)
        self.soft_edges = (bool(soft_edges[0]), bool(soft_edges[1]))
        self.lo_open = bool(lo_open)
        self.hi_open = bool(hi_open)
        self._f = f
        self._df = df
        self._min_cache = None

    # -- construction -----------------------------------------------------

    @classmethod
    def harmonic(cls, omega=1.0, constants=None, domain=None):
        """Harmonic well m omega^2 x^2 / 2 centred on the origin."""
        if not omega > 0.0:
            raise UsageError("omega must be positive")
        c = constants or PhysicalConstants()
        if domain is None:
            length = _finite(lambda: np.sqrt(c.hbar / (c.mass * omega)))
            domain = (-12.0 * length, 12.0 * length)
        k = _finite(lambda: 0.5 * c.mass * omega ** 2)
        return cls("harmonic", {"omega": float(omega)},
                   lambda x: k * x ** 2, lambda x: 2.0 * k * x,
                   c, domain, soft_edges=(True, True))

    @classmethod
    def linear(cls, slope=1.0, constants=None, domain=None):
        """Symmetric linear well slope * |x| (kinked at the origin)."""
        if not slope > 0.0:
            raise UsageError("slope must be positive")
        c = constants or PhysicalConstants()
        if domain is None:
            length = _finite(
                lambda: (c.hbar ** 2 / (c.mass * slope)) ** (1.0 / 3.0))
            domain = (-30.0 * length, 30.0 * length)
        s = float(slope)
        return cls("linear", {"slope": s},
                   lambda x: s * np.abs(x), lambda x: s * np.sign(x),
                   c, domain, soft_edges=(True, True))

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

        return cls("morse", {"depth": d, "range": al}, f, df, c, domain,
                   soft_edges=(True, True))

    @classmethod
    def coulomb(cls, charge=1.0, centrifugal=0.0, constants=None, domain=None):
        """Attractive Coulomb tail -charge/r plus a centrifugal barrier.

        ``centrifugal`` is the squared angular momentum M^2 entering
        M^2 / (2 m r^2).  The domain lower edge is pinned at r = 0, which
        is open (the model is singular there).
        """
        if not charge > 0.0:
            raise UsageError("charge must be positive")
        if centrifugal < 0.0:
            raise UsageError("centrifugal term must be non-negative")
        c = constants or PhysicalConstants()
        if domain is None:
            bohr = _finite(lambda: c.hbar ** 2 / (c.mass * charge))
            domain = (0.0, 600.0 * bohr)
        elif float(domain[0]) != 0.0:
            raise UsageError("coulomb domain must start at r = 0")
        z, m2 = float(charge), float(centrifugal)
        half_m2 = _finite(lambda: m2 / (2.0 * c.mass))

        def f(r):
            return -z / r + half_m2 / r ** 2

        def df(r):
            return z / r ** 2 - 2.0 * half_m2 / r ** 3

        return cls("coulomb", {"charge": z, "centrifugal": m2}, f, df, c,
                   domain, soft_edges=(False, True), lo_open=True)

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

        return cls("square_well", {"depth": d, "width": float(width)},
                   f, lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   c, domain, soft_edges=(True, True))

    @classmethod
    def tabulated(cls, samples, constants=None, domain=None):
        """Monotone cubic Hermite interpolant through (x, V) samples.

        Needs at least 4 samples with strictly increasing x.  The shape-
        preserving interpolant cannot overshoot between samples, so no
        spurious turning points appear.  The sample range is a hard domain.
        """
        pts = np.asarray(samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
            raise UsageError("tabulated potential needs >= 4 (x, V) samples")
        if not np.all(np.isfinite(pts)):
            raise UsageError("tabulated samples must be finite")
        xs, vs = pts[:, 0], pts[:, 1]
        if not np.all(xs[1:] > xs[:-1]):
            raise UsageError("tabulated sample x values must strictly increase")
        c = constants or PhysicalConstants()
        with np.errstate(all="ignore"):
            try:
                interp = PchipInterpolator(xs, vs, extrapolate=False)
            except ValueError:  # scipy's refusal of a slope that overflowed
                interp = None
            dinterp = None if interp is None else interp.derivative()
        # the derivative holds every non-constant coefficient, scaled
        if dinterp is None or not np.all(np.isfinite(dinterp.c)):
            raise UsageError("tabulated samples give a non-finite slope")
        if domain is None:
            domain = (xs[0], xs[-1])
        else:
            if domain[0] < xs[0] or domain[1] > xs[-1]:
                raise UsageError("domain exceeds the tabulated sample range")
        return cls("tabulated", {"samples": pts.tolist()},
                   lambda x: interp(x), lambda x: dinterp(x), c, domain)

    @classmethod
    def from_callable(cls, f, domain, df=None, constants=None, kind="custom",
                      params=None, soft_edges=(False, False), lo_open=False,
                      hi_open=False):
        """Wrap an arbitrary vectorized callable as a potential model."""
        c = constants or PhysicalConstants()
        return cls(kind, params or {}, f, df, c, domain,
                   soft_edges=soft_edges, lo_open=lo_open, hi_open=hi_open)

    # -- JSON description -------------------------------------------------

    @classmethod
    def from_dict(cls, spec) -> "PotentialModel":
        """Build a model from the JSON description format.

        Expected shape::

            {"type": "<family>", "params": {...},
             "hbar": 1.0, "mass": 1.0, "domain": [lo, hi]}

        ``hbar``, ``mass``, ``domain`` and the family parameters are
        optional, except ``samples``.  Unknown keys, in ``params`` too,
        non-numeric values and a ``domain`` that is not a list of two
        numbers raise ParseError.
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
            return getattr(cls, kind)(*args.values(), constants, domain)
        except UsageError as exc:
            raise ParseError(str(exc)) from exc

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

    def _check_inside(self, x: np.ndarray):
        lo, hi = self.domain
        slack = 1e-9 * (hi - lo)
        if np.any(x < lo - slack) or np.any(x > hi + slack):
            raise DomainError(
                f"coordinate outside domain [{lo}, {hi}]")
        if self.lo_open and np.any(x <= lo):
            raise DomainError(
                f"potential is singular at the open edge x = {lo}")
        if self.hi_open and np.any(x >= hi):
            raise DomainError(
                f"potential is singular at the open edge x = {hi}")

    def evaluate(self, x):
        """V(x); raises DomainError outside the domain."""
        arr = np.asarray(x, dtype=float)
        self._check_inside(arr)
        out = np.asarray(self._f(arr), dtype=float)
        if not np.all(np.isfinite(out)):
            raise DomainError("potential evaluated to a non-finite value")
        return float(out) if out.ndim == 0 else out

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
        """Uniform scan grid over the domain, nudged off open edges."""
        lo, hi = self.domain
        off = (hi - lo) * 1e-12
        return np.linspace(lo + off if self.lo_open else lo,
                           hi - off if self.hi_open else hi, int(n))

    def minimum(self) -> tuple[float, float]:
        """(x_min, V_min) over the domain, located numerically and cached.

        Raises SolverError when the potential keeps falling into an open
        lower edge (no minimum exists: unbounded below).
        """
        if self._min_cache is not None:
            return self._min_cache
        xs = self.grid(2048)
        vs = self.evaluate(xs)
        i = int(np.argmin(vs))
        if i == 0 and self.lo_open:
            probe = self.domain[0] + (xs[0] - self.domain[0]) * 1e-2
            if self.evaluate(probe) < vs[0]:
                raise SolverError(
                    "potential not bounded below toward the lower domain edge")
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, len(xs) - 1)]
        if lo < hi:
            res = minimize_scalar(self.evaluate, bounds=(lo, hi),
                                  method="bounded",
                                  options={"xatol": 1e-13 * (hi - lo) + 1e-300})
            if res.fun <= vs[i]:
                self._min_cache = (float(res.x), float(res.fun))
                return self._min_cache
        self._min_cache = (float(xs[i]), float(vs[i]))
        return self._min_cache

    def with_domain(self, lo: float, hi: float) -> "PotentialModel":
        """Copy of this model on a different working domain.

        Moving an edge outward is only allowed where the edge is soft.
        """
        cur_lo, cur_hi = self.domain
        if lo < cur_lo and not self.soft_edges[0]:
            raise UsageError("cannot extend past a hard lower edge")
        if hi > cur_hi and not self.soft_edges[1]:
            raise UsageError("cannot extend past a hard upper edge")
        return PotentialModel(self.kind, self.params, self._f, self._df,
                              self.constants, (lo, hi),
                              soft_edges=self.soft_edges,
                              lo_open=self.lo_open, hi_open=self.hi_open)

    def __repr__(self):
        lo, hi = self.domain
        return (f"PotentialModel({self.kind}, params={self.params}, "
                f"domain=[{lo:g}, {hi:g}])")


def effective_radial(potential: PotentialModel,
                     m_squared: float) -> PotentialModel:
    """Radial potential plus the centrifugal term M^2 / (2 m r^2).

    The input must live on a radial domain starting at r = 0.  The result
    is again a full model, consumable by every one-dimensional operation.
    With ``m_squared`` = 0 the potential is returned unchanged.
    """
    if m_squared < 0.0:
        raise UsageError("squared angular momentum must be non-negative")
    if potential.domain[0] != 0.0:
        raise UsageError("effective_radial needs a domain starting at r = 0")
    if m_squared == 0.0:
        return potential
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
                          soft_edges=potential.soft_edges, lo_open=True,
                          hi_open=potential.hi_open)


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
