"""Command-line surface: JSON schemas and exit codes."""

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from petalstar import search
from petalstar.cli import main
from petalstar.errors import _MAX_POINTS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_f0(capsys):
    code, out, _ = run(capsys, "coeffs", "--preset", "f0", "--order", "6")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert data["re"] == pytest.approx([0, 1, 1, 0.5, 1 / 9, -1 / 72, -1 / 225], abs=1e-12)
    assert data["im"] == pytest.approx([0.0] * 7, abs=1e-12)


def test_functional_values(capsys):
    code, out, _ = run(capsys, "functional", "--kind", "hankel-log", "--preset", "f1")
    assert code == 0
    data = json.loads(out)
    assert data["re"] == pytest.approx(-0.0625, abs=1e-12)
    assert data["im"] == pytest.approx(0.0, abs=1e-12)

    code, out, _ = run(capsys, "functional", "--kind", "hankel-log", "--preset", "f0")
    assert json.loads(out)["re"] == pytest.approx(-1 / 72, abs=1e-12)

    code, out, _ = run(capsys, "functional", "--kind", "toeplitz-invlog", "--preset", "f4")
    data = json.loads(out)
    assert data["re"] == pytest.approx(1.25, abs=1e-12)
    assert data["im"] == pytest.approx(0.0, abs=1e-12)


def test_extremal_custom(capsys):
    code, out, _ = run(
        capsys, "extremal", "--c-re", "0", "--c-im", "2.8284271", "--k", "2",
        "--order", "7",
    )
    assert code == 0
    data = json.loads(out)
    # the amplitude approximates sqrt(8) i, so the cubic term approximates sqrt(2) i
    assert data["im"][3] == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert data["re"][5] == pytest.approx(-1.0, abs=1e-6)


def test_ymax(capsys):
    code, out, _ = run(capsys, "ymax", "--a", "1", "--b", "2", "--c", "0",
                       "--oracle", "300")
    assert code == 0
    data = json.loads(out)
    assert data["piecewise"] == 3.0
    assert abs(data["diff"]) <= 5e-3

    code, out, _ = run(capsys, "ymax", "--a", "0", "--b", "0", "--c", "0")
    data = json.loads(out)
    assert data["piecewise"] == 1.0
    assert data["bruteforce"] is None and data["diff"] is None


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_ymax_non_finite_is_argument_error(capsys, value):
    code, out, err = run(capsys, "ymax", f"--a={value}", "--b", "0", "--c", "0")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("abc", [
    ["--a", "1e308", "--b", "1e308", "--c", "1e308"],
    ["--a", "1e160", "--b", "1e160", "--c=-1e160"],
    ["--a", "1e160", "--b", "1e160", "--c=-1e160", "--oracle", "20"],
], ids=["1e308", "1e160", "1e160-with-oracle"])
def test_ymax_overflow_is_argument_error(capsys, abc):
    # finite coefficients whose maximum overflows used to print Infinity or
    # die with an OverflowError traceback
    code, out, err = run(capsys, "ymax", *abc)
    assert code == 2
    assert out == ""
    assert err.startswith("petalstar: ") and "overflow" in err


def test_ymax_tiny_c(capsys):
    # 1 / c^2 overflows in the closed form's gate; the maximum is still 2
    code, out, _ = run(capsys, "ymax", "--a", "1", "--b", "0", "--c=-1e-200",
                       "--oracle", "50")
    assert code == 0
    data = json.loads(out)
    assert data["piecewise"] == data["bruteforce"] == 2.0


@pytest.mark.parametrize("amplitude", ["nan", "1e100", "inf", "1e200"])
def test_extremal_non_finite_series_is_argument_error(capsys, amplitude):
    # a non-finite amplitude, or one whose series overflows, exits 2 with a
    # message instead of printing NaN or a traceback
    code, out, err = run(capsys, "extremal", "--c-re", amplitude, "--k", "1",
                         "--order", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("petalstar: ")


def _readme_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("petalstar ")]


@pytest.mark.parametrize("argv", _readme_commands(),
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_readme_command_examples(capsys, argv):
    # every example in the README's command-line section exits 0 and prints
    # strict JSON
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out, _ = run(capsys, *argv)
    assert code == 0
    json.loads(out, parse_constant=reject)


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--functional", "hankel-log", "--zeta1-steps", "21",
        "--radial-steps", "9", "--angular-steps", "16", "--refine-rounds", "1",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["functional"] == "hankel-log"
    assert rep["deviation"] <= 1e-3
    assert {"observed_max", "sharp_bound", "argmax", "samples", "seed"} <= set(rep)


def test_verify_all_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--zeta1-steps", "11", "--radial-steps", "5",
        "--angular-steps", "8", "--refine-rounds", "0", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["functional"] for r in rows] == [
        "hankel-log", "hankel-invlog", "toeplitz-log", "toeplitz-invlog",
    ]
    assert float(rows[3]["observed_max"]) == pytest.approx(1.25, abs=5e-4)


_REFERENCE_OUTPUTS = json.loads(
    (Path(__file__).parent / "data" / "reference_outputs.json").read_text()
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_output_matches_reference(capsys, fmt):
    # the default-grid reports, byte for byte as recorded from the writer
    # with a hand-typed CSV column list
    code, out, _ = run(capsys, "verify", "--format", fmt)
    assert code == 0
    assert out == _REFERENCE_OUTPUTS[f"verify/{fmt}"]


def test_verify_byte_determinism(capsys):
    argv = ["verify", "--functional", "hankel-invlog", "--zeta1-steps", "15",
            "--radial-steps", "7", "--angular-steps", "12", "--refine-rounds", "2",
            "--seed", "11"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_verify_failure_exit_code(capsys, monkeypatch):
    # a sharpness gap above the tolerance must flip the exit code to 1
    monkeypatch.setitem(search.SHARP_BOUNDS, search.FunctionalId.TOEPLITZ_LOG, 1.0)
    code, out, _ = run(
        capsys, "verify", "--functional", "toeplitz-log", "--zeta1-steps", "5",
        "--radial-steps", "3", "--angular-steps", "4", "--refine-rounds", "0",
        "--tol", "0.1",
    )
    assert code == 1
    (rep,) = json.loads(out)  # the reports are still emitted
    assert rep["deviation"] == 0.5


def test_verify_oversized_grid_is_argument_error(capsys):
    # the grid fails at construction, before a scan could allocate its rings
    code, out, err = run(capsys, "verify", "--zeta1-steps", str(10 ** 12))
    assert code == 2
    assert out == ""
    assert "at most" in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_bad_tol_is_argument_error(capsys, tol):
    code, out, err = run(capsys, "verify", "--functional", "toeplitz-log",
                         "--zeta1-steps", "5", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_verify_infinite_tol_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--functional", "toeplitz-log",
                       "--zeta1-steps", "5", "--radial-steps", "3",
                       "--angular-steps", "4", "--refine-rounds", "0", "--tol", "inf")
    assert code == 0
    json.loads(out)


def test_verify_unsound_scan_reports(capsys, monkeypatch):
    # a scan exceeding its bound is a verification failure with a report,
    # not an argument error
    monkeypatch.setitem(search.SHARP_BOUNDS, search.FunctionalId.HANKEL_LOG, 0.01)
    code, out, _ = run(
        capsys, "verify", "--functional", "hankel-log", "--zeta1-steps", "11",
        "--radial-steps", "5", "--angular-steps", "8", "--refine-rounds", "0",
    )
    assert code == 1
    (rep,) = json.loads(out)
    assert rep["sharp_bound"] == 0.01
    assert rep["observed_max"] > rep["sharp_bound"]


@pytest.mark.parametrize("argv", [
    ["envelope"],
    ["verify", "--zeta1-steps", "21", "--radial-steps", "5", "--angular-steps", "8",
     "--refine-rounds", "0", "--format", "csv"],
], ids=["envelope", "verify_csv"])
def test_closed_pipe_exits_1_quietly(argv):
    # the reader of standard output is gone before the command writes
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "petalstar", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_classcheck(capsys):
    code, out, _ = run(capsys, "classcheck", "--preset", "f0", "--max-radius", "0.9",
                       "--order", "30", "--radii", "3", "--angles", "24")
    assert code == 0
    data = json.loads(out)
    assert data["min_margin"] > 0
    assert data["order"] == 30


def test_classcheck_failure_exits_1(capsys):
    # f2's amplitude |c| = sqrt(8) > 1 puts it outside the class
    code, out, _ = run(capsys, "classcheck", "--preset", "f2", "--max-radius", "0.9",
                       "--order", "30")
    assert code == 1
    assert json.loads(out)["min_margin"] < 0


def test_classcheck_bad_radius(capsys):
    code, _, err = run(capsys, "classcheck", "--preset", "f0", "--max-radius", "1.5")
    assert code == 2
    assert "max-radius" in err


def test_classcheck_no_radii(capsys):
    code, out, err = run(capsys, "classcheck", "--preset", "f0", "--radii", "0")
    assert code == 2
    assert out == ""
    assert "--radii" in err


def test_classcheck_radii_cap(capsys):
    # refused before the radius list is built; class_check's own cap would
    # refuse it too, but only after building a list of --radii floats
    code, out, err = run(capsys, "classcheck", "--preset", "f0",
                         "--radii", str(_MAX_POINTS + 1))
    assert code == 2
    assert out == ""
    assert "--radii" in err and "at most" in err

def test_envelope(capsys):
    code, out, _ = run(capsys, "envelope")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["split_root"] == pytest.approx(0.451959, abs=1e-6)


def test_argument_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["functional", "--kind", "nonsense", "--preset", "f0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ymax", "--a", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
