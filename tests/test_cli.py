import json
import subprocess
import sys
from fractions import Fraction

import pytest

from torusfields import parse
from torusfields.cli import main

SECT5 = ["--px", "(1/4)*x*z + x*y^2",
         "--qy", "(1/4)*y*z - x^2*y",
         "--rz", "(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"]


def run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "torusfields", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_check_worked_example(capsys):
    code = main(["check", *SECT5, "--m", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "on torus" in out and "K = z" in out


def test_check_worked_example_with_2a_at_square_m(capsys):
    # at m = 4, a = 2, so 2*a*(x^2+y^2) is the worked cubic's a^2*(x^2+y^2)
    argv = ["check", *SECT5[:4],
            "--rz", "(1/2)*(-2*a*(x^2+y^2) + z^2 + a^4 - 1)", "--m", "4"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "on torus" in out and "K = z" in out


def test_check_not_on_torus(capsys):
    code = main(["check", "--px", "x", "--qy", "y", "--rz", "z", "--m", "4"])
    assert code == 2
    assert "NOT on torus" in capsys.readouterr().out


def test_parse_error_exit_code(capsys):
    code = main(["check", "--px", "x + * y", "--qy", "0", "--rz", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "offset 4" in err


def test_usage_error_exit_code():
    code, _, err = run_cli(["check", "--px", "x"])
    assert code == 1
    assert "usage" in err


def test_m_must_exceed_one(capsys):
    code = main(["check", "--px", "0", "--qy", "0", "--rz", "0", "--m", "1"])
    assert code == 1
    assert "exceed 1" in capsys.readouterr().err


def test_bracket_worked_example(capsys):
    code = main(["bracket",
                 "--px", "x^2*z", "--qy", "x*y*z",
                 "--rz", "2*x*(-a^2*(x^2+y^2)+z^2+a^4-1)",
                 "--px2", "y^3", "--qy2", "-x*y^2", "--rz2", "0",
                 "--m", "4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert parse(payload["R"], 4) == parse(
        "-2*y^3*(-a^2*(x^2+y^2)+z^2+a^4-1)", 4)


def test_extactic_round_trips(capsys):
    code = main(["extactic", *SECT5, "--m", "4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert parse(payload["extactic_xy"], 4) == parse("-x*y*(x^2+y^2)", 4)


def test_meridians_json(capsys):
    code = main(["meridians", *SECT5, "--m", "4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count_with_multiplicity"] == 4


def test_classify_output(capsys):
    code = main(["classify", *SECT5, "--m", "4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "cubic"
    assert payload["params"]["f"] == "x*y"


def test_first_integral_command(capsys):
    code = main(["first-integral",
                 "--px", "x*y^2", "--qy", "-x^2*y", "--rz", "0",
                 "--num", "(x^2+y^2-a^2)^2 + z^2 - 1",
                 "--den", "(x^2+y^2)^2", "--m", "4", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["first_integral"] is True


def test_singular_command(capsys):
    code = main(["singular", "--px", "2*y", "--qy", "-2*x", "--rz", "0",
                 "--m", "4", "--grid", "64", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "empty"


SADDLE_CURVES = ["--px", "(x^2-z^2)*y", "--qy", "-(x^2-z^2)*x", "--rz", "0",
                 "--m", "4"]


@pytest.mark.parametrize("command", ["singular", "report"])
@pytest.mark.parametrize("grid", ["0", "1", "16", "31"])
def test_grid_below_minimum_rejected(command, grid, capsys):
    code = main([command, *SADDLE_CURVES, "--grid", grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "at least 32" in captured.err


def test_minimum_grid_resolves_both_curves(capsys):
    code = main(["singular", *SADDLE_CURVES, "--grid", "32", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "curves"
    assert payload["curve_components"] == 2


@pytest.mark.parametrize("bad", [["--start", "nan,0,0"],
                                 ["--start", "2.0,0,inf"],
                                 ["--dt", "inf"],
                                 ["--t-end", "nan"]])
def test_integrate_rejects_non_finite(bad, capsys):
    args = {"--start": "2.0,0,0", "--t-end": "0.1", "--dt": "0.01"}
    args.update([bad])
    code = main(["integrate", "--px", "y", "--qy", "-x", "--rz", "0",
                 "--m", "4", *(tok for kv in args.items() for tok in kv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_integrate_rejects_step_count_over_cap(capsys):
    code = main(["integrate", "--px", "y", "--qy", "-x", "--rz", "0",
                 "--m", "4", "--start", "2.0,0,0", "--t-end", "1e30",
                 "--dt", "1e-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "RK4 steps" in captured.err


def test_integrate_csv(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = main(["integrate", "--px", "y", "--qy", "-x", "--rz", "0",
                 "--m", "4", "--start", "2.0,0,0", "--t-end", "0.1",
                 "--dt", "0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,z,theta,phi"
    assert len(lines) == 12


def test_integrate_json_round_trip(tmp_path):
    out = tmp_path / "orbit.json"
    code = main(["integrate", "--px", "y", "--qy", "-x", "--rz", "0",
                 "--m", "4", "--start", "2.0,0,0", "--t-end", "0.05",
                 "--dt", "0.01", "--format", "json", "--out", str(out)])
    assert code == 0
    from torusfields import export, trajectory_from_json

    blob = out.read_bytes()
    assert export(trajectory_from_json(blob), "json") == blob


def test_report_deterministic_across_processes(tmp_path):
    args = ["report", *SECT5, "--m", "4", "--seed", "7"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "torus-fields/1"
    assert payload["seed"] == 7


def test_report_polynomials_reparse(tmp_path):
    code, out, _ = run_cli(["report", *SECT5, "--m", "4"])
    assert code == 0
    payload = json.loads(out)
    m = Fraction(payload["input"]["m"])
    for key in ("P", "Q", "R"):
        parse(payload["field"][key], m)
    parse(payload["cofactor"], m)
    for entry in payload["meridians"]["planes"]:
        if entry["plane_expr"] is not None:
            parse(entry["plane_expr"], m)
    for integral in payload["first_integrals"]:
        parse(integral["numerator"], m)
        parse(integral["denominator"], m)


def test_report_not_on_torus_exit(tmp_path):
    code, out, _ = run_cli(["report", "--px", "x", "--qy", "y", "--rz", "z",
                            "--m", "4"])
    assert code == 2
    assert json.loads(out)["on_torus"] is False


def test_version_flag():
    code, out, err = run_cli(["--version"])
    assert code == 0
    assert "0.1.0" in out + err
