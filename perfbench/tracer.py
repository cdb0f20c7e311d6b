"""Spans around the calls into each layer of ``phasebound``, from outside.

The tracer rebinds public functions in every module that imports them by
name and wraps a few class methods.  Each call records a span (name, start,
end, parent span, op id) in flat arrays; self time is a span's duration
minus the durations of its direct children.  Counters that ride along
(points, panels, levels, sweeps) are read from the call's arguments or its
result.  Nothing under ``src/`` changes: ``install`` patches this process
only and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

from phasebound import (classical, cli, oracle, potentials, quadrature,
                        quantize, radial, rootfind, states)

# (span name, owner, attribute, modules that import the attribute by name)
_FUNCTIONS = [
    ("classical.find_turning_points", classical, "find_turning_points",
     (quantize, radial, states)),
    ("classical.action_integral", classical, "action_integral",
     (quantize, radial)),
    ("quadrature.integrate_adaptive", quadrature, "integrate_adaptive",
     (classical,)),
    ("rootfind.bisect_then_brent", rootfind, "bisect_then_brent",
     (classical, quantize)),
    ("quantize.spectrum", quantize, "spectrum", (cli, radial)),
    ("quantize.solve_level", quantize, "solve_level", (cli, radial)),
    ("quantize.claim_audit", quantize, "claim_audit", (cli,)),
    ("radial.radial_spectrum", radial, "radial_spectrum", (cli,)),
    ("radial.angular_eigenvalue", radial, "angular_eigenvalue", ()),
    ("oracle.reference_levels", oracle, "reference_levels", ()),
    ("states.build_state", states, "build_state", (cli,)),
    ("states.diagnostics", states, "epsilon_parameter", (cli,)),
    ("states.diagnostics", states, "delta_functional", (cli,)),
]
_METHODS = [
    ("potentials.evaluate", potentials.PotentialModel, "evaluate"),
    ("potentials.minimum", potentials.PotentialModel, "minimum"),
    ("classical.phase", classical.PhaseAccumulator, "interior"),
    ("classical.phase", classical.PhaseAccumulator, "left_tail"),
    ("classical.phase", classical.PhaseAccumulator, "right_tail"),
    ("oracle.counts", oracle.TridiagonalOperator, "counts"),
    ("states.sample", states.StateFunction, "sample"),
]


class Tracer:
    """Span recorder; ``active`` gates recording so one install serves
    both the traced and the untraced half of a run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` adds
        counters from a completed call."""
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        after = {
            "potentials.evaluate": lambda a, r: self.count(
                "potentials.evaluate.points", np.size(a[1])),
            "quadrature.integrate_adaptive": lambda a, r: self.count(
                "quadrature.panels", r.panels),
            "quantize.spectrum": self._after_spectrum,
            "quantize.solve_level": self._after_level,
            "oracle.reference_levels": lambda a, r: self.count(
                "oracle.levels", len(r)),
            "oracle.counts": self._after_counts,
        }
        for name, owner, attr in _METHODS:
            self._patch(owner, attr,
                        self.wrap(name, owner.__dict__[attr], after.get(name)))
        for name, owner, attr, importers in _FUNCTIONS:
            traced = self.wrap(name, getattr(owner, attr), after.get(name))
            for module in (owner, *importers):
                self._patch(module, attr, traced)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _after_spectrum(self, args, result):
        self.count("quantize.levels", len(result.levels))
        self.count("quantize.surveys", sum(lv.iterations
                                           for lv in result.levels))
        self.count("quantize.truncations", 1.0 if result.truncated else 0.0)

    def _after_level(self, args, level):
        self.count("quantize.levels")
        self.count("quantize.surveys", level.iterations)

    def _after_counts(self, args, result):
        self.count("oracle.shifts", np.size(args[1]))
        self.count("oracle.grid_points", args[0].size)

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        if not self.span_start:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_time,
                             minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path: str):
        """Write every span to a compressed ``.npz`` (names in ``names``)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))


# The three ROADMAP baseline probes: (label, family, params, n_max).
PROBES = [
    ("harmonic20", "harmonic", (1.0,), 20),
    ("morse9", "morse", (10.0, 1.0), 9),
    ("square5", "square_well", (8.0, 2.0), 5),
]


def run_probes() -> dict[str, float]:
    """Trace the ROADMAP probes and cross-check the tracer's counts.

    V calls are counted a second way by wrapping the probe potential's own
    function (which every ``evaluate`` call reaches once), and panels by
    wrapping ``kronrod_panel``.  Any disagreement with the tracer raises.
    Returns the probe counts (3228/371, 4660/423 and 7712/60 when the
    benchmark was defined).
    """
    out = {}
    direct = {"v": 0, "panels": 0}
    kronrod = quadrature.kronrod_panel

    def counted_panel(*args):
        direct["panels"] += 1
        return kronrod(*args)

    quadrature.kronrod_panel = counted_panel
    try:
        for label, family, args, n_max in PROBES:
            pot = getattr(potentials.PotentialModel, family)(*args)
            f = pot._f

            def counted_f(x, f=f):
                direct["v"] += 1
                return f(x)

            pot._f = counted_f
            direct["v"] = direct["panels"] = 0
            tracer = Tracer()
            tracer.install()
            tracer.active = True
            try:
                quantize.spectrum(pot, n_max)
            finally:
                tracer.active = False
                tracer.uninstall()
            v_calls = tracer.aggregate()["potentials.evaluate"][0]
            panels = tracer.counters["quadrature.panels"]
            if v_calls != direct["v"] or panels != direct["panels"]:
                raise RuntimeError(
                    f"tracer self-check failed on {label}: traced "
                    f"{v_calls} V calls / {panels:g} panels, counted "
                    f"{direct['v']} / {direct['panels']}")
            out[f"probe.{label}.v_calls"] = float(v_calls)
            out[f"probe.{label}.panels"] = float(panels)
    finally:
        quadrature.kronrod_panel = kronrod
    return out
