"""End-to-end checks of the command-line interface.

Most tests drive ``main(argv)`` directly and capture the streams. The
console-script entry in ``pyproject.toml`` is checked without installing
the package: it must name ``phasebound.cli:main``, and ``main()`` called
the way a script shim calls it must read ``sys.argv`` and return the exit
code. ``test_console_script_is_wired_up`` runs the real installed
``phasebound`` executable and is skipped when it is not on PATH.
"""

import csv
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasebound.cli import main
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
    ({"type": "morse", "hbar": 1e100}, ["audit", "--levels", "2"], 1),
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
    # out of range would raise instead of exiting with the code
    path = _write_potential(tmp_path, doc)
    got, out, err = _run(capsys, [argv[0], path, *argv[1:]])
    assert got == code
    assert "Warning" not in err


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
