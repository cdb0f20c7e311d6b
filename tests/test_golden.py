"""Golden stdout: the exact bytes a fixed set of CLI calls prints.

A refactor that claims "same numbers" must leave every file under
``tests/golden/`` unchanged.  The manifest timestamp is the only field that
differs between runs, so it is blanked before the comparison.  ``audit`` is
left out: its LAPACK reference may differ in the last bits between builds.

To regenerate after a deliberate change of output, run this file as a
script (``python tests/test_golden.py``) and review the diff.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from phasebound import PotentialModel, spectrum
from phasebound.cli import main

GOLDEN = Path(__file__).with_name("golden")

_QUARTIC = [[x, x ** 4 + x * x]
            for x in (-3.0 + 6.0 * k / 40 for k in range(41))]

# (name, potential description, arguments after the file, exit code)
CASES = [
    ("spectrum_harmonic", {"type": "harmonic", "params": {"omega": 1.3}},
     ["spectrum", "--levels", "8"], 0),
    ("spectrum_linear", {"type": "linear", "params": {"slope": 1.7}},
     ["spectrum", "--levels", "6"], 0),
    ("spectrum_morse_truncated",
     {"type": "morse", "params": {"depth": 10.0, "range": 1.0}},
     ["spectrum", "--levels", "6", "--format", "json"], 2),
    ("spectrum_square_well",
     {"type": "square_well", "params": {"depth": 8.0, "width": 2.0}},
     ["spectrum", "--levels", "3"], 0),
    ("spectrum_tabulated_quartic",
     {"type": "tabulated", "params": {"samples": _QUARTIC}},
     ["spectrum", "--levels", "4"], 0),
    ("radial_coulomb_0_0_1", {"type": "coulomb", "params": {"charge": 2.5}},
     ["radial", "--ntheta", "0", "--mz", "0", "--nrmax", "1"], 0),
    ("radial_coulomb_1_0_4", {"type": "coulomb", "params": {"charge": 2.5}},
     ["radial", "--ntheta", "1", "--mz", "0", "--nrmax", "4"], 0),
    ("wavefunction_morse",
     {"type": "morse", "params": {"depth": 50.0, "range": 0.5}},
     ["wavefunction", "--n", "2", "--grid", "201"], 0),
    ("spectrum_harmonic_json", {"type": "harmonic", "params": {"omega": 1.3}},
     ["spectrum", "--levels", "3", "--format", "json"], 0),
    ("radial_coulomb_1_1_2", {"type": "coulomb", "params": {"charge": 2.5}},
     ["radial", "--ntheta", "1", "--mz", "1", "--nrmax", "2"], 0),
    # the window stops short of the open edge r = 0
    ("wavefunction_coulomb",
     {"type": "coulomb", "params": {"charge": 2.0, "centrifugal": 0.25}},
     ["wavefunction", "--n", "0", "--grid", "41"], 0),
]

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _stdout(tmp_dir: Path, name: str, doc: dict, args: list[str]):
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([args[0], str(path), *args[1:]])
    return code, _TIMESTAMP.sub('"timestamp": ""', out.getvalue())


@pytest.mark.parametrize("name, doc, args, code", CASES,
                         ids=[c[0] for c in CASES])
def test_stdout_matches_golden(tmp_path, name, doc, args, code):
    got_code, got = _stdout(tmp_path, name, doc, args)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# Levels 0..4 of the PCHIP interpolant through _QUARTIC, to 20 digits.
_QUARTIC_LEVELS = [0.84360900198608583231, 3.0223636370303502862,
                   5.6133362470805730113, 8.5055190710504306783,
                   11.642401786592951202]


def test_tabulated_quartic_levels_match_a_high_precision_reference():
    """The reference levels were made with mpmath at 30 digits: each
    exact PCHIP cubic (scipy's coefficients) integrated cell by cell,
    then ``findroot`` on W(E) = pi (n + 1/2).  The quadrature splits at
    the samples, where the interpolant is only C1, so the solved levels
    land within 1e-12 of them (5.0e-12 off at n = 0 without the split).
    """
    levels = spectrum(PotentialModel.tabulated(_QUARTIC), 4).energies
    assert levels == pytest.approx(_QUARTIC_LEVELS, rel=1e-12, abs=0.0)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, args, code in CASES:
            got_code, text = _stdout(Path(tmp), name, doc, args)
            if got_code != code:
                sys.exit(f"{name}: exit code {got_code}, expected {code}")
            (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
            print(f"wrote {name}.txt")
