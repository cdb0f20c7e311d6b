"""What the package imports.

Every name a module of the package imports is used in that module: a name
kept alive only so that outside code can patch it looks dead to a reader,
and this test makes such a name fail openly instead.

Start-up runs on numpy alone: no scipy module loads for ``spectrum``,
``wavefunction`` or ``radial`` on a closed-form family, for the numeric
floor search of a ``radial`` harmonic base, nor for ``spectrum`` on a
tabulated potential, whose PCHIP cubics are built in numpy.  Only
``audit`` (scipy.linalg, for LAPACK) loads scipy, on first use.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import phasebound

MODULES = sorted(p for p in Path(phasebound.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import math\nimport os\nos.sep\n") == ["math"]
    assert _unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


# Each step runs in one fresh interpreter, in this order, and prints the
# scipy modules loaded so far; modules only accumulate, so a step that pulls
# scipy in shows first at that step.
_STEPS = textwrap.dedent("""
    import contextlib, io, json, os, sys
    tmp = sys.argv[1]
    def loaded():
        return sorted(m for m in sys.modules if m.startswith("scipy"))
    def potential(name, kind, params, **extra):
        path = os.path.join(tmp, name + ".json")
        with open(path, "w") as fh:
            json.dump({"type": kind, "params": params, **extra}, fh)
        return path
    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        return out.getvalue()
    steps = {}
    import phasebound
    steps["import phasebound"] = loaded()
    from phasebound.cli import main
    steps["import phasebound.cli"] = loaded()
    run("spectrum", potential("h", "harmonic", {"omega": 1.3}),
        "--levels", "21")
    steps["spectrum harmonic"] = loaded()
    run("wavefunction", potential("m", "morse", {"depth": 50.0, "range": 0.5}),
        "--n", "3", "--grid", "201", "--out", os.path.join(tmp, "m.csv"))
    steps["wavefunction morse"] = loaded()
    run("radial", potential("c", "coulomb", {"charge": 2.5}),
        "--ntheta", "1", "--mz", "1", "--nrmax", "2")
    steps["radial coulomb"] = loaded()
    out = run("radial", potential("r", "harmonic", {"omega": 1.0},
                                  domain=[0.0, 12.0]),
              "--ntheta", "1", "--mz", "1", "--nrmax", "2")
    steps["radial harmonic"] = loaded()
    steps["radial harmonic levels"] = [
        level["E"] for level in json.loads(out)["levels"]]
    quartic = [[x, x ** 4 + x * x] for x in (-3.0 + 0.15 * k for k in range(41))]
    run("spectrum", potential("t", "tabulated", {"samples": quartic}),
        "--levels", "2")
    steps["spectrum tabulated"] = loaded()
    run("audit", potential("a", "harmonic", {"omega": 1.0}), "--levels", "3")
    steps["audit harmonic"] = loaded()
    print(json.dumps(steps))
""")


@pytest.fixture(scope="module")
def scipy_after_each_step(tmp_path_factory):
    src = str(Path(phasebound.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _STEPS, str(tmp_path_factory.mktemp("steps"))],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("step", ["import phasebound", "import phasebound.cli",
                                  "spectrum harmonic", "wavefunction morse",
                                  "radial coulomb", "radial harmonic",
                                  "spectrum tabulated"])
def test_numpy_alone_serves_the_closed_form_commands(scipy_after_each_step,
                                                     step):
    assert scipy_after_each_step[step] == []


def test_radial_harmonic_takes_the_numeric_floor(scipy_after_each_step):
    # a harmonic base under M^2 = 2.5^2 states no floor, so minimum() runs
    # the scan and the golden-section search; n_theta = 1, m_z = 1 is
    # l = 2, and E = hbar omega (2 n_r + l + 3/2)
    assert scipy_after_each_step["radial harmonic levels"] == pytest.approx(
        [3.5, 5.5, 7.5], rel=1e-12)


def test_audit_loads_only_the_linear_algebra(scipy_after_each_step):
    loaded = scipy_after_each_step["audit harmonic"]
    assert "scipy.linalg" in loaded
    for name in ("scipy.optimize", "scipy.interpolate", "scipy.integrate"):
        assert name not in loaded

