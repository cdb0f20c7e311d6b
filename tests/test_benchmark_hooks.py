"""The benchmark's tracer patches names inside the package from outside.

``perfbench/tracer.py`` rebinds public functions in the modules that
import them, wraps a few methods and cross-checks its probe counts against
direct counting wrappers (one around ``quadrature.kronrod_panel``).  A
refactor that renames or stops routing through one of those hooks breaks
the traced benchmark; this test makes it fail the test suite too.
"""

import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracer_mod = _load_tracer()
    owners = ([(owner, attr) for _, owner, attr in tracer_mod._METHODS]
              + [(module, attr)
                 for _, owner, attr, importers in tracer_mod._FUNCTIONS
                 for module in (owner, *importers)])
    before = [owner.__dict__[attr] for owner, attr in owners]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not value
                   for (owner, attr), value in zip(owners, before))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is value
               for (owner, attr), value in zip(owners, before))


def test_tracer_probe_self_check_passes():
    # run_probes raises when its traced V-call or panel counts disagree
    # with the direct counting wrappers
    counts = _load_tracer().run_probes()
    assert len(counts) == 6
    assert all(value > 0 for value in counts.values())
    # the V calls and panels recorded in ROADMAP may fall, never rise
    recorded = {"harmonic20": (185, 183), "morse9": (174, 172),
                "square5": (30, 28)}
    for label, (v_calls, panels) in recorded.items():
        assert counts[f"probe.{label}.v_calls"] <= v_calls
        assert counts[f"probe.{label}.panels"] <= panels
