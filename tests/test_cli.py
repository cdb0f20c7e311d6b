"""End-to-end checks of the command-line interface.

Most tests drive ``main(argv)`` directly and capture the streams. The
console-script entry in ``pyproject.toml`` is checked without installing
the package: it must name ``phasebound.cli:main``, and ``main()`` called
the way a script shim calls it must read ``sys.argv`` and return the exit
code. ``test_console_script_is_wired_up`` runs the real installed
``phasebound`` executable and is skipped when it is not on PATH.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasebound.cli import _csv_text, format_float, main
from phasebound.errors import ParseError, UsageError
from phasebound.oracle import reference_levels
from phasebound.potentials import PotentialModel
from phasebound.quantize import spectrum


def _write_potential(tmp_path, doc, name="pot.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def harmonic2_file(tmp_path):
    return _write_potential(tmp_path, {"type": "harmonic",
                                       "params": {"omega": 2.0}})


def test_spectrum_csv_matches_api(capsys, tmp_path, harmonic2_file):
    code, out, err = _run(capsys, ["spectrum", harmonic2_file,
                                   "--levels", "5"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["0", "1", "2", "3", "4"]
    energies = [float(r["energy"]) for r in rows]
    assert energies == pytest.approx([1.0, 3.0, 5.0, 7.0, 9.0], rel=1e-9)

    # 17 significant digits: the text must round-trip the library doubles
    api = spectrum(PotentialModel.harmonic(2.0), 4)
    assert energies == [lv.energy for lv in api.levels]

    manifest = json.loads(err)
    assert manifest["command"] == "spectrum"
    assert manifest["potential"]["type"] == "harmonic"
    assert "version" in manifest and "timestamp" in manifest


def test_spectrum_json_document(capsys, harmonic2_file):
    code, out, err = _run(capsys, ["spectrum", harmonic2_file,
                                   "--levels", "3", "--format", "json"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["truncated"] is False
    assert doc["reason"] is None
    assert [lv["n"] for lv in doc["levels"]] == [0, 1, 2]
    assert doc["levels"][1]["energy"] == pytest.approx(3.0, rel=1e-9)
    assert doc["manifest"]["config"] == {"levels": 3, "format": "json"}


def test_spectrum_output_is_deterministic(capsys, harmonic2_file):
    argv = ["spectrum", harmonic2_file, "--levels", "3", "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    scrub = re.compile(r'"timestamp": "[^"]*"')
    assert scrub.sub('"timestamp": "T"', first) == \
        scrub.sub('"timestamp": "T"', second)


def test_spectrum_truncation_exit_code(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "morse",
                                       "params": {"depth": 10.0,
                                                  "range": 1.0}})
    for args, note in ((["spectrum", path, "--levels", "10"], "truncated"),
                       (["audit", path, "--levels", "6", "--format", "csv"],
                        "truncated: only 4 bound levels")):
        code, out, err = _run(capsys, args)
        assert code == 2
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert note in err


def test_radial_truncation_exit_code(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "morse",
                                       "params": {"depth": 10.0,
                                                  "range": 1.0},
                                       "domain": [0, 40]})
    code, out, err = _run(capsys, ["radial", path, "--ntheta", "0",
                                   "--mz", "0", "--nrmax", "8"])
    assert code == 2
    doc = json.loads(out)
    assert len(doc["levels"]) == 3
    assert doc["truncated"] is True and "unbound" in doc["reason"]
    assert "truncated" in err


def test_spectrum_rejects_zero_levels(capsys, harmonic2_file):
    for command in ("spectrum", "audit"):
        code, out, err = _run(capsys, [command, harmonic2_file,
                                       "--levels", "0"])
        assert code == 1
        assert "error:" in err


def test_wavefunction_rejects_a_one_point_grid(capsys, harmonic2_file):
    code, out, err = _run(capsys, ["wavefunction", harmonic2_file,
                                   "--n", "0", "--grid", "1"])
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_missing_file_is_a_clean_error(capsys, tmp_path):
    code, out, err = _run(capsys, ["spectrum", str(tmp_path / "nope.json"),
                                   "--levels", "2"])
    assert code == 1
    assert "error:" in err and "cannot read" in err


def test_malformed_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "type": "harmonic",,\n}', encoding="utf-8")
    code, out, err = _run(capsys, ["spectrum", str(path), "--levels", "2"])
    assert code == 1
    assert "line" in err and "column" in err


def test_unknown_potential_type_is_rejected(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "cubic", "params": {}})
    code, out, err = _run(capsys, ["spectrum", path, "--levels", "2"])
    assert code == 1
    assert "unknown potential type" in err


@pytest.mark.parametrize("doc", [
    {"type": "harmonic", "params": {"omega": "2"}},
    {"type": "harmonic", "params": {"omega": None}},
    {"type": "tabulated", "params": {"samples": "abc"}},
    {"type": "harmonic", "params": {"omgea": 2.0}},
    {"type": "harmonic", "params": {"omega": 1e308}},
    {"type": "linear", "params": {"slope": 1.0}, "hbar": 1e200},
    {"type": "coulomb", "params": {"charge": 1.0}, "hbar": 1e200},
    {"type": "tabulated",
     "params": {"samples": [[0, 1e308], [1, -1e308], [2, 1e308], [3, 1]]}},
    {"type": "morse", "params": {"depth": 1e308}},
    {"type": "coulomb", "params": {"charge": 1e200}},
    {"type": "square_well", "params": {"depth": 1e308, "width": 1e-300}},
    {"type": "harmonic", "params": {"omega": 0}},
    {"type": "linear", "params": {"slope": -1}},
    {"type": "morse", "params": {"depth": 0}},
    {"type": "coulomb", "params": {"charge": 1.0}, "domain": [1, 5]},
    {"type": "tabulated",
     "params": {"samples": [[0, 1], [1, 0], [2, 0.5], [3, 1]]},
     "domain": [0, 4]},
    [{"type": "harmonic", "params": {"omega": 1.0}}],
], ids=["string", "null", "samples-string", "misspelled", "omega-overflow",
        "linear-hbar-overflow", "coulomb-hbar-overflow", "slope-overflow",
        "morse-v-overflow", "coulomb-v-overflow", "square-v-overflow",
        "omega-zero", "slope-negative", "morse-depth-zero",
        "coulomb-off-axis", "domain-past-samples", "array-file"])
def test_bad_parameter_is_a_clean_error(capsys, tmp_path, doc):
    path = _write_potential(tmp_path, doc)
    code, out, err = _run(capsys, ["spectrum", path, "--levels", "2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [
    {"hbar": "2"},
    {"hbar": True},
    {"domain": [-5, 5, 99]},
    {"domain": {"a": 1}},
    {"params": [1]},
], ids=["hbar-string", "hbar-bool", "domain-three", "domain-object",
        "params-list"])
def test_bad_top_level_field_is_a_clean_error(capsys, tmp_path, extra):
    doc = {"type": "harmonic", "params": {"omega": 1.0}, **extra}
    path = _write_potential(tmp_path, doc)
    code, out, err = _run(capsys, ["spectrum", path, "--levels", "2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_subnormal_harmonic_stiffness_is_a_clean_error(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "harmonic",
                                       "params": {"omega": 1e-160}})
    code, out, err = _run(capsys, ["spectrum", path, "--levels", "2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "smallest normal double" in err


def test_missing_required_flag_exits_one(harmonic2_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", harmonic2_file])
    assert excinfo.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_out_flag_writes_file(capsys, tmp_path, harmonic2_file):
    target = tmp_path / "result.csv"
    code, out, err = _run(capsys, ["spectrum", harmonic2_file,
                                   "--levels", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    rows = list(csv.DictReader(io.StringIO(target.read_text())))
    assert len(rows) == 2


def test_unwritable_out_is_a_clean_error(capsys, tmp_path, harmonic2_file):
    target = tmp_path / "missing" / "result.csv"
    code, out, err = _run(capsys, ["spectrum", harmonic2_file,
                                   "--levels", "2", "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_wavefunction_table_structure(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "harmonic",
                                       "params": {"omega": 1.0}})
    code, out, err = _run(capsys, ["wavefunction", path,
                                   "--n", "3", "--grid", "201"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 201
    assert list(rows[0]) == ["x", "phi", "psi", "region",
                             "epsilon", "delta"]

    x = np.array([float(r["x"]) for r in rows])
    psi = np.array([float(r["psi"]) for r in rows])
    phi = np.array([float(r["phi"]) for r in rows])
    assert np.trapezoid(psi * psi, x) == pytest.approx(1.0, abs=1e-3)
    assert np.all(np.diff(phi) > 0.0)
    # three interior nodes for n = 3
    assert int(np.sum(np.sign(psi[:-1]) * np.sign(psi[1:]) < 0)) == 3

    blocks = [rows[0]["region"]]
    for r in rows[1:]:
        if r["region"] != blocks[-1]:
            blocks.append(r["region"])
    assert blocks == ["left-forbidden", "allowed", "right-forbidden"]
    assert all(r["epsilon"] == "" and r["delta"] == ""
               for r in rows if r["region"] != "allowed")
    assert any(r["epsilon"] != "" for r in rows if r["region"] == "allowed")


@pytest.mark.parametrize("centrifugal, n, grid",
                         [(12.25, 3, 201), (0.25, 0, 1001)])
def test_wavefunction_on_coulomb_starts_off_the_open_edge(
        capsys, tmp_path, centrifugal, n, grid):
    # the coulomb domain starts at the open edge r = 0, where V is singular
    path = _write_potential(tmp_path, {
        "type": "coulomb",
        "params": {"charge": 2.0, "centrifugal": centrifugal}})
    code, out, err = _run(capsys, ["wavefunction", path,
                                   "--n", str(n), "--grid", str(grid)])
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == grid
    x = np.array([float(r["x"]) for r in rows])
    psi = np.array([float(r["psi"]) for r in rows])
    assert x[0] > 0.0
    assert rows[0]["region"] == "left-forbidden"
    assert np.all(np.isfinite(psi))
    assert int(np.sum(np.sign(psi[:-1]) * np.sign(psi[1:]) < 0)) == n
    # the table spans one region width past each turning point, which
    # clips a little of the ground state's right tail
    assert 0.95 < np.trapezoid(psi * psi, x) < 1.001


def test_wavefunction_rejects_negative_index(capsys, harmonic2_file):
    code, out, err = _run(capsys, ["wavefunction", harmonic2_file,
                                   "--n", "-1", "--grid", "100"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("hbar", [1e-170, 1e160, 1e250, 1e300])
@pytest.mark.parametrize("command, levels", [("spectrum", "3"),
                                             ("audit", "2")])
def test_harmonic_at_an_extreme_hbar_exits_cleanly(capsys, tmp_path, hbar,
                                                   command, levels):
    # an action near 1e300 and a finite-difference operator that over- or
    # underflows: levels come out, and an audit notes its reference failed
    path = _write_potential(tmp_path, {"type": "harmonic", "hbar": hbar})
    code, out, err = _run(capsys, [command, path, "--levels", levels])
    assert code == 0
    if command == "audit":
        assert "reference solver failed" in out


@pytest.mark.parametrize("doc, argv, code", [
    ({"type": "morse", "hbar": 1e100}, ["audit", "--levels", "2"], 2),
    ({"type": "harmonic", "hbar": 1e250},
     ["wavefunction", "--n", "0", "--grid", "11"], 0),
    ({"type": "harmonic", "hbar": 1e-300},
     ["wavefunction", "--n", "0", "--grid", "11"], 0),
    ({"type": "coulomb", "hbar": 1e100}, ["spectrum", "--levels", "2"], 1)],
    ids=["morse-audit", "harmonic-1e250", "harmonic-1e-300", "coulomb"])
def test_an_extreme_hbar_raises_no_numpy_warning(capsys, tmp_path, doc, argv,
                                                 code):
    # every warning is an error here, so a V past the doubles on a grown
    # domain, Coulomb's r^2 on a 1e202-wide domain or an epsilon column
    # out of range would raise instead of exiting with the code; Morse(1, 1)
    # holds no level at hbar = 1e100, as sqrt(2mD)/(a hbar) < 1/2
    path = _write_potential(tmp_path, doc)
    got, out, err = _run(capsys, [argv[0], path, *argv[1:]])
    assert got == code
    assert "Warning" not in err


def test_audit_of_an_overflowing_morse_well_raises_no_numpy_warning(
        capsys, tmp_path):
    # 2m(E - V) at the domain ends overflows to inf, which still says
    # which way the allowed region leans; every warning is an error here
    path = _write_potential(tmp_path, {
        "type": "morse", "hbar": 1.2724e72, "mass": 2.776e30,
        "params": {"depth": 1837.55, "range": 0.1489},
        "domain": [-117.133, 40.0625]})
    code, out, err = _run(capsys, ["audit", path, "--levels", "3"])
    assert code == 2
    assert "truncated: only 0 bound levels" in err
    assert "Warning" not in err


@pytest.mark.parametrize("hbar, centrifugal", [(0.1, 100.0), (0.01, 1.0)])
def test_coulomb_with_a_floor_past_600_bohr_radii_has_its_levels(
        capsys, tmp_path, hbar, centrifugal):
    # M^2 >> hbar^2 puts the floor M^2/(mZ) beyond 600 hbar^2/(mZ): the
    # default domain is sized by M as well, and the levels are the
    # closed form -mZ^2/(2(hbar(n + 1/2) + M)^2)
    path = _write_potential(tmp_path, {
        "type": "coulomb", "hbar": hbar,
        "params": {"charge": 1.0, "centrifugal": centrifugal}})
    code, out, err = _run(capsys, ["spectrum", path, "--levels", "3"])
    assert code == 0, err
    energies = [float(r["energy"]) for r in csv.DictReader(io.StringIO(out))]
    exact = [-0.5 / (hbar * (n + 0.5) + math.sqrt(centrifugal)) ** 2
             for n in range(3)]
    assert energies == pytest.approx(exact, rel=1e-12, abs=0.0)


def _coulomb_levels(charge, centrifugal, count, hbar=1.0, mass=1.0):
    # -mZ^2/(2(hbar(n + 1/2) + M)^2), M^2 the centrifugal term
    return [-mass * charge ** 2
            / (2.0 * (hbar * (n + 0.5) + math.sqrt(centrifugal)) ** 2)
            for n in range(count)]


@pytest.mark.parametrize("doc, exact", [
    ({"type": "harmonic", "params": {"omega": 1.0}, "domain": [2.0, 10.0]},
     [0.5, 1.5, 2.5]),
    ({"type": "coulomb", "params": {"charge": 1.0, "centrifugal": 1.0},
      "domain": [0.0, 0.5]}, _coulomb_levels(1.0, 1.0, 3)),
    ({"type": "coulomb",
      "params": {"charge": 674.18, "centrifugal": 1705.95},
      "domain": [0.0, 2.084]}, _coulomb_levels(674.18, 1705.95, 2)),
    ({"type": "coulomb", "params": {"charge": 1.0, "centrifugal": 1.0},
      "domain": [0.0, 0.5]}, _coulomb_levels(1.0, 1.0, 8))],
    ids=["harmonic", "coulomb", "deep-coulomb", "coulomb-8-levels"])
def test_a_soft_side_reaches_the_floor_past_it(capsys, tmp_path, doc, exact):
    # the floor (x = 0; r = M^2/(mZ) = 1 and 2.53) lies past the soft side
    # of the domain, which the quantizer moves out past it; level 7 turns
    # near r = 144, 288 times the domain's width, and where the turning
    # points are stated no cap limits the moves
    path = _write_potential(tmp_path, doc)
    code, out, err = _run(capsys, ["spectrum", path,
                                   "--levels", str(len(exact))])
    assert code == 0, err
    energies = [float(r["energy"]) for r in csv.DictReader(io.StringIO(out))]
    assert energies == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_radial_reaches_the_floor_past_a_short_domain(capsys, tmp_path):
    # hydrogen on (0, 0.1): the floor of the Langer-corrected well, at
    # r = 1/4, lies past the soft upper side
    path = _write_potential(tmp_path, {
        "type": "coulomb", "params": {"charge": 1.0}, "domain": [0.0, 0.1]})
    code, out, err = _run(capsys, ["radial", path, "--ntheta", "0",
                                   "--mz", "0", "--nrmax", "2"])
    assert code == 0, err
    energies = [lv["E"] for lv in json.loads(out)["levels"]]
    assert energies == pytest.approx(
        [-0.5 / (n_r + 1) ** 2 for n_r in range(3)], rel=1e-12, abs=0.0)


_SHORT_SOFT_DOMAINS = [
    {"type": "harmonic", "params": {"omega": 1.0}, "hbar": 1.0, "mass": 1.0,
     "domain": [-1e-5, 1e-5]},
    {"type": "linear", "params": {"slope": 1.0}, "hbar": 1.0, "mass": 1.0,
     "domain": [-1e-6, 1e-6]},
    {"type": "morse", "params": {"depth": 10.0, "range": 1.0}, "hbar": 1.0,
     "mass": 1.0, "domain": [-1e-4, 1e-4]}]


@pytest.mark.parametrize("doc", _SHORT_SOFT_DOMAINS,
                         ids=["harmonic", "linear", "morse"])
def test_a_short_soft_domain_moves_by_the_family_length(capsys, tmp_path,
                                                         doc):
    # a domain far narrower than the family's length moves out by that
    # length, not by its own width, so six moves reach the levels
    path = _write_potential(tmp_path, doc)
    code, out, err = _run(capsys, ["spectrum", path, "--levels", "3"])
    assert code == 0, err
    energies = [float(r["energy"]) for r in csv.DictReader(io.StringIO(out))]
    assert energies == pytest.approx([_closed_form(doc, n) for n in range(3)],
                                     rel=1e-12, abs=0.0)


def test_a_state_on_a_short_soft_domain_has_its_tails(capsys, tmp_path):
    # the tails walk in steps of the family's length over 512, not of the
    # domain width over 512
    path = _write_potential(tmp_path, _SHORT_SOFT_DOMAINS[0])
    code, out, err = _run(capsys, ["wavefunction", path, "--n", "0",
                                   "--grid", "11"])
    assert code == 0, err
    assert len(list(csv.DictReader(io.StringIO(out)))) == 11


def _schroedinger_coulomb(centrifugal, count):
    # -1/(2(n_r + l + 1)^2) with l(l + 1) the centrifugal term, hbar = m =
    # Z = 1: the levels the finite-difference reference converges to
    ell = 0.5 * (math.sqrt(1.0 + 4.0 * centrifugal) - 1.0)
    return [-0.5 / (n + ell + 1.0) ** 2 for n in range(count)]


@pytest.mark.parametrize("doc, exact, rel, abs_", [
    (_SHORT_SOFT_DOMAINS[0], [0.5, 1.5, 2.5], 0.0, 2e-11),
    ({"type": "coulomb", "params": {"charge": 1.0, "centrifugal": 1.0},
      "domain": [0.0, 0.5]}, _schroedinger_coulomb(1.0, 3), 1e-5, 0.0)],
    ids=["harmonic", "coulomb"])
def test_the_audit_box_reaches_the_levels_past_a_short_domain(
        capsys, tmp_path, doc, exact, rel, abs_):
    # the coarse solve moves a soft side out while the top level's
    # classical region reaches it, so the box holds the well
    path = _write_potential(tmp_path, doc)
    code, out, err = _run(capsys, ["audit", path, "--levels", "3"])
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [row["note"] for row in rows] == [None] * 3
    assert [row["reference"] for row in rows] == pytest.approx(
        exact, rel=rel, abs=abs_)


def test_radial_on_a_short_domain_has_every_level(capsys, tmp_path):
    # hydrogen on (0, 0.1): the survey moves the soft upper side by the
    # Bohr radius at least, so n_r = 3 is found as well
    path = _write_potential(tmp_path, {
        "type": "coulomb", "params": {"charge": 1.0}, "domain": [0.0, 0.1]})
    code, out, err = _run(capsys, ["radial", path, "--ntheta", "0",
                                   "--mz", "0", "--nrmax", "3"])
    assert code == 0, err
    energies = [lv["E"] for lv in json.loads(out)["levels"]]
    assert energies == pytest.approx(
        [-0.5 / (n_r + 1) ** 2 for n_r in range(4)], rel=0.0, abs=2e-14)


def test_radial_on_a_short_domain_has_eight_levels(capsys, tmp_path):
    # hydrogen on (0, 0.1): n_r = 7 turns near r = 128, 1280 times the
    # domain's width, and the stated Coulomb turning points let the survey
    # move the soft upper side that far
    path = _write_potential(tmp_path, {
        "type": "coulomb", "params": {"charge": 1.0}, "domain": [0.0, 0.1]})
    code, out, err = _run(capsys, ["radial", path, "--ntheta", "0",
                                   "--mz", "0", "--nrmax", "7"])
    assert code == 0, err
    energies = [lv["E"] for lv in json.loads(out)["levels"]]
    assert energies == pytest.approx(
        [-0.5 / (n_r + 1) ** 2 for n_r in range(8)], rel=0.0, abs=1e-12)


def test_a_well_whose_motion_escapes_at_once_is_unbound(capsys, tmp_path):
    # Morse(1, 1) at hbar = 1e100 holds no level: every probe lies above
    # E = 0, where the stated upper turning point is infinite, so the
    # survey moves no side, and none reaches a V past the doubles
    path = _write_potential(tmp_path, {"type": "morse", "hbar": 1e100})
    code, out, err = _run(capsys, ["spectrum", path, "--levels", "1"])
    assert code == 2
    assert "level 0 is unbound" in err
    assert "Warning" not in err


_LINEAR_SUB_DOMAIN = {
    "type": "linear", "params": {"slope": 0.05465824940487556},
    "hbar": 7.299737191134867e-19, "mass": 14769615.21362182,
    "domain": [-1.996705142153781e-13, -1.0005169039711674e-13]}


@pytest.mark.parametrize("doc", [
    _LINEAR_SUB_DOMAIN,
    {"type": "harmonic", "params": {"omega": 1.0}, "domain": [2.0, 10.0]}],
    ids=["linear", "harmonic"])
def test_wavefunction_on_a_sub_domain_past_the_floor(capsys, tmp_path, doc):
    # the state's tails start outside the domain, one past its far side
    path = _write_potential(tmp_path, doc)
    code, out, err = _run(capsys, ["wavefunction", path, "--n", "0",
                                   "--grid", "11"])
    assert code == 0, err
    assert len(list(csv.DictReader(io.StringIO(out)))) == 11


def _closed_form(doc, n):
    """Level n of the phase-integral closed form, None where unbound."""
    hbar, mass, p = doc["hbar"], doc["mass"], doc["params"]
    if doc["type"] == "harmonic":
        return hbar * p["omega"] * (n + 0.5)
    if doc["type"] == "linear":
        return (3.0 * math.pi * hbar * p["slope"] * (n + 0.5)
                / (4.0 * math.sqrt(2.0 * mass))) ** (2.0 / 3.0)
    if doc["type"] == "morse":
        lam = math.sqrt(2.0 * mass * p["depth"]) / (p["range"] * hbar)
        return (-p["depth"] * (1.0 - (n + 0.5) / lam) ** 2
                if n + 0.5 < lam else None)
    return _coulomb_levels(p["charge"], p["centrifugal"], n + 1,
                           hbar, mass)[n]


_LOG = st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u)
_PARAMS = {"harmonic": {"omega": _LOG}, "linear": {"slope": _LOG},
           "morse": {"depth": _LOG, "range": _LOG},
           "coulomb": {"charge": _LOG, "centrifugal": _LOG}}


@st.composite
def _closed_form_files(draw):
    """A harmonic, linear, Morse or Coulomb (M^2 > 0) file, hbar in
    1e+-20, m in 1e+-10; four files in ten take a sub-domain of at least
    1/20 of the default one (Coulomb's from r = 0)."""
    kind = draw(st.sampled_from(sorted(_PARAMS)))
    doc = {"type": kind,
           "params": {k: draw(v) for k, v in _PARAMS[kind].items()},
           "hbar": 10.0 ** draw(st.floats(-20.0, 20.0)),
           "mass": 10.0 ** draw(st.floats(-10.0, 10.0))}
    if draw(st.integers(0, 9)) < 4:
        try:
            lo, hi = PotentialModel.from_dict(doc).domain
        except ParseError:
            return doc
        a = 0.0 if kind == "coulomb" else draw(st.floats(0.0, 0.95))
        b = draw(st.floats(a + 0.05, 1.0))
        doc["domain"] = [lo + a * (hi - lo), lo + b * (hi - lo)]
    return doc


def _main_quietly(argv):
    """Exit code and stdout of one in-process call; any warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_closed_form_files())
@example(_LINEAR_SUB_DOMAIN)
@example({"type": "harmonic", "params": {"omega": 1.0}, "hbar": 1.0,
          "mass": 1.0, "domain": [2.0, 10.0]})
@example({"type": "coulomb", "params": {"charge": 1.0, "centrifugal": 1.0},
          "hbar": 1.0, "mass": 1.0, "domain": [0.0, 0.5]})
@example({"type": "coulomb",
          "params": {"charge": 674.18, "centrifugal": 1705.95},
          "hbar": 1.0, "mass": 1.0, "domain": [0.0, 2.084]})
def test_closed_form_files_keep_the_exit_code_contract(doc):
    # exit 0, 1 or 2 with no traceback and no warning; every printed level
    # on its closed form; exit 2 at level k only where there is no level k
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pot.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out = _main_quietly(["spectrum", path, "--levels", "3",
                                   "--format", "json"])
        assert code in (0, 1, 2)
        if code != 1:
            levels = json.loads(out)["levels"]
            for lv in levels:
                exact = _closed_form(doc, lv["n"])
                assert exact is not None
                assert lv["energy"] == pytest.approx(exact, rel=1e-9,
                                                     abs=0.0)
            if code == 0:
                assert len(levels) == 3
            else:
                assert _closed_form(doc, len(levels)) is None
        code, _ = _main_quietly(["wavefunction", path, "--n", "0",
                                 "--grid", "11"])
        assert code in (0, 1, 2)


def _diagnostic_cells(capsys, path):
    code, out, err = _run(capsys, ["wavefunction", path, "--n", "0",
                                   "--grid", "11"])
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    return ([r["epsilon"] for r in rows], [r["delta"] for r in rows])


@pytest.mark.parametrize("hbar", [1e250, 1e-300])
def test_diagnostics_at_an_extreme_hbar_are_those_at_unit_hbar(
        capsys, tmp_path, hbar):
    # epsilon and delta are scale-free, though hbar m V' and p^3 leave
    # the doubles here; every warning is an error in this suite
    unit = _diagnostic_cells(capsys, _write_potential(
        tmp_path, {"type": "harmonic"}, "unit.json"))
    far = _diagnostic_cells(capsys, _write_potential(
        tmp_path, {"type": "harmonic", "hbar": hbar}))
    for want, got, rel in zip(unit, far, (1e-12, 1e-8)):
        assert [cell == "" for cell in got] == [cell == "" for cell in want]
        assert sum(cell != "" for cell in want) == 3
        assert [float(c) for c in got if c] == pytest.approx(
            [float(c) for c in want if c], rel=rel, abs=0.0)


def test_audit_close_agreement_on_smooth_well(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "harmonic",
                                       "params": {"omega": 1.0}})
    code, out, err = _run(capsys, ["audit", path, "--levels", "4"])
    assert code == 0
    doc = json.loads(out)
    assert [r["n"] for r in doc["rows"]] == [0, 1, 2, 3]
    for row in doc["rows"]:
        assert row["note"] is None
        assert row["deviation"] < 1e-6
    assert doc["max_deviation"] == max(r["deviation"] for r in doc["rows"])
    assert doc["truncated"] is False


def test_audit_reference_is_the_library_reference(capsys, tmp_path):
    # the CLI and reference_levels follow one policy, to the bit
    doc = {"type": "morse", "params": {"depth": 10.0, "range": 1.0}}
    path = _write_potential(tmp_path, doc)
    code, out, err = _run(capsys, ["audit", path, "--levels", "3"])
    assert code == 0
    got = [row["reference"] for row in json.loads(out)["rows"]]
    assert got == reference_levels(PotentialModel.from_dict(doc), 3).tolist()


def test_audit_of_a_well_with_no_bound_level(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "morse", "params": {
        "depth": 0.05, "range": 1.0}})
    code, out, err = _run(capsys, ["audit", path, "--levels", "2"])
    assert code == 2
    doc = json.loads(out)
    assert doc["rows"] == [] and doc["max_deviation"] is None
    assert doc["truncated"] is True
    assert "truncated: only 0 bound levels" in err


def test_audit_csv_format(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "harmonic",
                                       "params": {"omega": 1.0}})
    code, out, err = _run(capsys, ["audit", path, "--levels", "2",
                                   "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["n", "quantized", "reference",
                             "deviation", "note"]
    assert len(rows) == 2
    assert json.loads(err)["command"] == "audit"


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_float(c) if isinstance(c, float) else c
                      for c in row] for row in rows)
    return buf.getvalue()


_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "é"]))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_CELLS = {
    "float": _FLOATS,
    "float-or-blank": st.one_of(st.none(), _FLOATS),
    "int": st.integers(),
    "text": st.one_of(_TEXT, st.sampled_from(["allowed", "left", ""])),
    "any": st.one_of(st.none(), _FLOATS, st.integers(), st.booleans(),
                     _TEXT),
}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=6))
    header = [draw(_TEXT) for _ in kinds]
    n_rows = draw(st.integers(0, 12))
    rows = [[draw(_CELLS[kind]) for kind in kinds] for _ in range(n_rows)]
    return header, rows


@settings(max_examples=300, deadline=None)
@given(_tables())
@example((["x", "region", "note"],
          [[0.0, "left", None], [-0.0, "left", 'a "quoted",\nnote'],
           [1e300, "right", "reference solver failed: x\r\ny"]]))
@example((["n", "flag"], [[1, True], [True, 1], [1.0, 1]]))
@example(([""], [[""], [None], [-0.0]]))
@example((["a", "b"], []))
def test_csv_text_is_the_csv_writer_text(table):
    # the column-wise writer keeps every byte of csv.writer on the rows,
    # quoted cells, blanks and a lone empty field included
    header, rows = table
    assert _csv_text(header, rows) == _csv_writer_text(header, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [[1.0, 2.0, None], [1.0, 2.0, 3.0]],
                         ids=["with-blanks", "all-floats"])
def test_csv_text_refuses_a_non_finite_float(bad, column):
    rows = [[x, "left"] for x in column]
    rows[1][0] = bad
    with pytest.raises(UsageError,
                       match="refusing to serialize a non-finite number"):
        _csv_text(["x", "region"], rows)


def test_audit_reports_ground_level_gap_for_kinked_well(capsys, tmp_path):
    # The |x| well's ground level lands a little under 10 percent away from
    # the grid reference; the audit is the tool that surfaces that number.
    path = _write_potential(tmp_path, {"type": "linear",
                                       "params": {"slope": 1.0}})
    code, out, err = _run(capsys, ["audit", path, "--levels", "1"])
    assert code == 0
    doc = json.loads(out)
    assert 0.08 < doc["rows"][0]["deviation"] < 0.11


def test_radial_json_output(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "coulomb",
                                       "params": {"charge": 1.0}})
    code, out, err = _run(capsys, ["radial", path, "--ntheta", "0",
                                   "--mz", "0", "--nrmax", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["angular"]["M"] == pytest.approx(0.5, rel=1e-9)
    energies = [lv["E"] for lv in doc["levels"]]
    assert energies == pytest.approx([-0.5, -0.125, -1.0 / 18.0], rel=1e-6)
    assert doc["truncated"] is False


def test_radial_rejects_fractional_mz(capsys, tmp_path):
    path = _write_potential(tmp_path, {"type": "coulomb",
                                       "params": {"charge": 1.0}})
    code, out, err = _run(capsys, ["radial", path, "--ntheta", "0",
                                   "--mz", "1.5", "--nrmax", "1"])
    assert code == 1
    assert "error:" in err


def test_console_script_entry_resolves_to_main(capsys, monkeypatch,
                                               harmonic2_file):
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]
    assert scripts["phasebound"] == "phasebound.cli:main"

    monkeypatch.setattr(sys, "argv", ["phasebound", "spectrum",
                                      harmonic2_file, "--levels", "2"])
    assert main() == 0
    assert "energy" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("phasebound") is None,
                    reason="phasebound executable not on PATH "
                           "(package not installed)")
def test_console_script_is_wired_up(tmp_path):
    exe = shutil.which("phasebound")
    assert exe, "console script not on PATH; install the package first"
    path = _write_potential(tmp_path, {"type": "harmonic",
                                       "params": {"omega": 1.0}})
    proc = subprocess.run([exe, "spectrum", path, "--levels", "2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "energy" in proc.stdout
