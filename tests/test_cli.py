import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusfields import (CubicParams, Scalar, build_cubic, build_report, dynamics, parse,
                         report_json, serialize)
from torusfields.cli import _grid_size, main
from torusfields.dynamics import GRID_MAX, GRID_MIN

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402

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


@pytest.mark.parametrize("m", ["1", "1e-400", "-3/2", "0.5", "2/2"])
def test_m_not_above_one_echoes_the_text(m, capsys):
    # the message quotes --m as given, not its reduced Fraction, which for
    # 1e-400 is a number of 401 digits
    code = main(["check", "--px", "0", "--qy", "0", "--rz", "0", "--m", m])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --m must exceed 1 (the torus needs a > 1), got '{m}'\n")


@pytest.mark.parametrize("m", ["4/0", "1/0", "abc", ""])
def test_m_must_be_rational(m, capsys):
    code = main(["check", "--px", "0", "--qy", "0", "--rz", "0", "--m", m])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --m must be a rational number such as 4 or 9/2, got '{m}'\n")


# m = 1 + 10^-19 exceeds 1 but is 1.0 as a float, so every grid's radius
# sqrt(m + cos(phi)) is 0 at phi = pi: the grid paths reject it for that
NEAR_ONE = "1.0000000000000000001"
BOWL = ["--px", "(y^2 + (z - 1/2)^2)*y", "--qy", "-(y^2 + (z - 1/2)^2)*x", "--rz", "0"]


@pytest.mark.parametrize("command, field", [("singular", ["--px", "y", "--qy", "-x", "--rz", "0"]),
                                            ("report", ["--px", "y", "--qy", "-x", "--rz", "0"]),
                                            ("report", SECT5)],
                         ids=["rotation-singular", "rotation-report", "worked-report"])
def test_m_that_is_one_as_a_float_is_rejected_on_the_grid(command, field, capsys):
    code = main([command, *field, "--m", NEAR_ONE])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("error: m is 1.0 as a float, not above 1: every grid's "
                            "radius sqrt(m + cos(phi)) is 0 at phi = pi\n")
    assert captured.out == ""


def test_bowl_at_m_that_is_one_as_a_float_needs_no_grid(capsys):
    assert main(["report", *BOWL, "--m", NEAR_ONE]) == 0
    sing = json.loads(capsys.readouterr().out)["singular_set"]
    assert sing["kind"] == "isolated-points" and len(sing["points"]) == 4


def test_near_planes_past_the_rational_root_search_are_exact(capsys):
    # f = (y - x)*(y - (1 + 1/10^8)*x): the second slope's end coefficients
    # are beyond the rational-root search, yet its plane is exact
    f = "((y - x)*(y - (1 + 1/10^8)*x))"
    field = ["--px", f"(1/4)*x*z + {f}*y", "--qy", f"(1/4)*y*z - {f}*x",
             "--rz", "(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"]
    assert main(["meridians", *field, "--m", "4"]) == 0
    assert capsys.readouterr().out == (
        "4 invariant meridian(s) from 2 plane(s):\n"
        "  x - y = 0   multiplicity 1\n"
        "  100000001*x - 100000000*y = 0   multiplicity 1\n")


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


# build_cubic(K' = 0, f = L*x, beta = 5/3 + a, gamma = -5 + a) with
# L = gamma*x - beta*y: L divides Q*x - P*y, so the plane L = 0 is invariant
PLANTED_PLANE = [
    "--px", "(-5 + a)*x^2*y + (-5/3 - a)*x*y^2 + (5/3 + a)*z",
    "--qy", "(5 - a)*x^3 + (5/3 + a)*x^2*y + (-5 + a)*z",
    "--rz", "(-10/3 - 2*a)*x^3 + (10 - 2*a)*x^2*y + (-10/3 - 2*a)*x*y^2"
            " + (10 - 2*a)*y^3 + (10 + 6*a)*x + (-30 + 6*a)*y"]


def test_meridians_plane_with_slope_in_sqrt_m(capsys):
    assert main(["meridians", *PLANTED_PLANE, "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 invariant meridian(s) from 1 plane(s)")
    assert main(["report", *PLANTED_PLANE, "--m", "3", "--grid", "64"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["meridians"]["count_with_multiplicity"] == 2
    assert report["bounds_check"]["meridian_count"] == 2


def test_classify_output(capsys):
    code = main(["classify", *SECT5, "--m", "4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tag"] == "cubic"
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


@pytest.mark.parametrize("command", ["singular", "report"])
@pytest.mark.parametrize("grid", ["4097", "100000", str(10**12)])
def test_grid_above_maximum_rejected(command, grid, capsys, monkeypatch):
    # the bound is checked while the arguments are parsed, before any grid
    # is allocated: a scan reached here fails the test instead of running
    def no_scan(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(dynamics, "surface_blocks", no_scan)
    code = main([command, *SADDLE_CURVES, "--grid", grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "at most 4096" in captured.err


@pytest.mark.parametrize("command", ["singular", "report"])
@pytest.mark.parametrize("grid", ["abc", "1.5", ""])
def test_grid_that_is_not_an_integer_rejected(command, grid, capsys):
    code = main([command, *SADDLE_CURVES, "--grid", grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --grid: grid must be an integer, got {grid!r}\n")
    assert "_grid_size" not in captured.err


def test_grid_bounds_are_inclusive():
    assert _grid_size(str(GRID_MIN)) == GRID_MIN == 32
    assert _grid_size(str(GRID_MAX)) == GRID_MAX == 4096


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
    assert export(trajectory_from_json(blob), "json") + b"\n" == blob


def test_integrate_json_ends_with_one_newline(tmp_path, capsys):
    from torusfields import export, trajectory_from_json

    args = ["integrate", "--px", "y", "--qy", "-x", "--rz", "0", "--m", "4",
            "--start", "2.0,0,0", "--t-end", "0.05", "--dt", "0.01", "--format", "json"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("}\n") and not printed.endswith("\n\n")
    out = tmp_path / "orbit.json"
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_text() == printed
    # the library export keeps its bytes: the newline is the CLI's
    assert export(trajectory_from_json(out.read_bytes()), "json") + b"\n" == out.read_bytes()


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


def test_parser_is_reused_without_leaking_options(monkeypatch, tmp_path):
    import torusfields.cli as cli

    grids = []

    def fake_report(px, qy, rz, m, seed=0, grid=512):
        grids.append(grid)
        return {"on_torus": True}

    monkeypatch.setattr(cli, "build_report", fake_report)
    out = str(tmp_path / "report.json")
    assert main(["report", *SECT5, "--grid", "64", "--out", out]) == 0
    assert main(["report", *SECT5, "--out", out]) == 0
    assert grids == [64, 512]


def test_usage_error_then_valid_call(capsys):
    assert main(["check", "--px", "x"]) == 1
    assert main(["check", *SECT5, "--m", "4"]) == 0
    assert "K = z" in capsys.readouterr().out


# 1.5e308*sqrt(m): finite at m = 5 until the sqrt(m) factor, a rational
# 3e308 at m = 4 (a = 2); both are beyond the float range
HUGE_ROTATION = ["--px", "15*(10^60)^5*10^7*a*y", "--qy", "-15*(10^60)^5*10^7*a*x",
                 "--rz", "0"]


@pytest.mark.parametrize("m", ["5", "4"])
@pytest.mark.parametrize("command", [["singular", "--grid", "32"],
                                     ["report", "--grid", "32"],
                                     ["integrate", "--start", "3,0,0",
                                      "--t-end", "0.002"]],
                         ids=["singular", "report", "integrate"])
def test_non_finite_float_coefficient_is_a_usage_error(command, m, capsys, recwarn):
    code = main([*command, *HUGE_ROTATION, "--m", m])
    captured = capsys.readouterr()
    assert code == 1
    assert "P has a coefficient beyond the float range" in captured.err
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# A = 10^308*(z^2 - 1/4) has float coefficients; its z-derivative, 2e308*z,
# does not
HUGE_DERIVATIVE = ["--px", "(10^44)^7*(z^2 - 1/4)*y", "--qy", "-(10^44)^7*(z^2 - 1/4)*x",
                   "--rz", "0"]


@pytest.mark.parametrize("m", ["5", "4"])
@pytest.mark.parametrize("command", [["singular", "--grid", "32"],
                                     ["report", "--grid", "32"]],
                         ids=["singular", "report"])
def test_non_finite_derivative_coefficient_is_a_usage_error(command, m, capsys, recwarn):
    code = main([*command, *HUGE_DERIVATIVE, "--m", m])
    captured = capsys.readouterr()
    assert code == 1
    assert "the z-derivative of A (of the field (A*y, -A*x, 0)) has a coefficient " \
        "beyond the float range" in captured.err
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# coefficients that are finite floats but whose squares overflow: a
# degree-one field and a quadratic one, both on the exact no-singularity path
HUGE_SPEED = {"degree-one": ["--px", "(10^40)^5*y", "--qy", "-(10^40)^5*x", "--rz", "0"],
              "quadratic": ["--px", "(1/2)*x*z + (10^40)^5*y",
                            "--qy", "(1/2)*y*z - (10^40)^5*x",
                            "--rz", "(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"]}


@pytest.mark.parametrize("field", sorted(HUGE_SPEED))
@pytest.mark.parametrize("m", ["5", "4"])
@pytest.mark.parametrize("command", [["singular", "--grid", "32"],
                                     ["report", "--grid", "32"]],
                         ids=["singular", "report"])
def test_non_finite_grid_speed_is_a_usage_error(command, m, field, capsys, recwarn):
    code = main([*command, *HUGE_SPEED[field], "--m", m])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("error: |chi| is not finite on the 32x32 grid: the "
                            "field's values exceed the float range\n")
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# finite coefficients whose values overflow on the grid, so the level A of
# the field (A*y, -A*x, 0) is not finite there
HUGE_LEVEL = {a: ["--px", f"((1/2)*(10^44)^7*({a}))*y", "--qy", f"-((1/2)*(10^44)^7*({a}))*x",
                  "--rz", "0"]
              for a in ("x^2+y^2", "x+2*z", "x+2*y", "x^2+y^2+z^2+1")}


# x^2 + y^2 has no real linear factor, so its empty set takes min |chi| from
# the angle tables; x + 2*z is indefinite and scanned; x^2 + y^2 + z^2 + 1
# is semidefinite with no zero, and its grid minimum folds the grid of A
@pytest.mark.parametrize("field", ["x^2+y^2", "x+2*z", "x^2+y^2+z^2+1"])
@pytest.mark.parametrize("m", ["5", "4"])
@pytest.mark.parametrize("command", [["singular", "--grid", "32"],
                                     ["report", "--grid", "32"]],
                         ids=["singular", "report"])
def test_non_finite_level_grid_is_a_usage_error(command, m, field, capsys, recwarn):
    code = main([*command, *HUGE_LEVEL[field], "--m", m])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("error: A (of the field (A*y, -A*x, 0)) is not finite on "
                            "the 32x32 grid: the field's values exceed the float range\n")
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("m", ["5", "4"])
@pytest.mark.parametrize("command", ["singular", "report"])
def test_huge_binary_form_level_is_decided_exactly(command, m, capsys, recwarn):
    # A = (1/2)*(10^44)^7*(x + 2*y) overflows on the grid, but its zeros are
    # the two meridians of its plane, found with no grid
    # report always prints JSON
    json_flag = ["--json"] if command == "singular" else []
    code = main([command, "--grid", "32", *json_flag, *HUGE_LEVEL["x+2*y"], "--m", m])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    payload = json.loads(captured.out)
    sing = payload if command == "singular" else payload["singular_set"]
    assert sing["kind"] == "curves" and sing["curve_components"] == 2
    assert sing["points"] == [] and sing["numeric_only"] is False
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def worked_cubic_with(f):
    """The worked cubic with f*x*y in place of x*y, as CLI arguments."""
    return ["--px", f"(1/4)*x*z + {f}*x*y^2", "--qy", f"(1/4)*y*z - {f}*x^2*y",
            "--rz", "(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"]


def test_non_finite_speed_grid_is_a_usage_error(capsys, recwarn):
    # the worked cubic with f = 10^153*x*y, whose P^2 + Q^2 + R^2 overflows
    # at m = 5: K' = 1 and beta = gamma = 0 leave no singular point, and the
    # minimum of |chi| over the grids of L and M is finite
    code = main(["singular", "--grid", "32", "--m", "5", "--json",
                 *worked_cubic_with("(10^51)^3")])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["kind"] == "empty" and payload["numeric_only"] is False
    assert 0.0 < payload["grid_min_speed"] < float("inf")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("m", ["5", "4"])
@pytest.mark.parametrize("command", [["singular", "--grid", "32"],
                                     ["report", "--grid", "32"]],
                         ids=["singular", "report"])
def test_non_finite_m_grid_is_a_usage_error(command, m, capsys, recwarn):
    # f = 10^308*x*y: M = (x^2 + y^2)*f has float coefficients, and its
    # values overflow on the grid
    code = main([*command, "--m", m, *worked_cubic_with("(10^44)^7")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("error: M = y*P - x*Q is not finite on the 32x32 grid: "
                            "the field's values exceed the float range\n")
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# -- singular sets of the cubic form: each of these answers is exact ----------

REPRO_MS = ["4", "3", "9/2"]


def cubic_argv(kprime, f, m, beta=0, gamma=0):
    """CLI arguments of the cubic field (K', f, beta, gamma) at m."""
    m = Fraction(m)
    field = build_cubic(CubicParams(parse(kprime, m), parse(f, m), Scalar(Fraction(beta)),
                                    Scalar(Fraction(gamma))), m)
    return ["--px", serialize(field.P), "--qy", serialize(field.Q),
            "--rz", serialize(field.R), "--m", str(m)]


def singular_payload(argv, capsys):
    code = main(["singular", "--json", *argv])
    assert code == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("m", REPRO_MS)
@pytest.mark.parametrize("f", ["10^4", "10^40"])
def test_worked_cubic_with_large_f_has_no_singular_points(f, m, capsys):
    # K' = 1 and beta = gamma = 0: L = (x^2 + y^2)/4 vanishes nowhere
    payload = singular_payload([*worked_cubic_with(f), "--m", m], capsys)
    assert payload["kind"] == "empty" and payload["numeric_only"] is False
    assert payload["grid_min_speed"] > 0.4


def test_near_miss_pair_has_no_singular_points(capsys):
    # L = 0 and M = 0 pass near each other without meeting: min |chi| is
    # about 0.185 on a 2048 x 2048 grid
    f = ("3*x^2 + 5*x*y + (17/4)*x*z + 2*y^2 + (7/2)*y*z + (3/2)*z^2 + (9/2)*x"
         " + 5*y + (7/2)*z - 3")
    payload = singular_payload(
        cubic_argv("2*x + (3/2)*y + 2*z - 1", f, "9/2", Fraction(1, 2), Fraction(1, 2)), capsys)
    assert payload["kind"] == "empty" and payload["numeric_only"] is True
    assert payload["grid_min_speed"] == pytest.approx(0.185, abs=2e-3)


@pytest.mark.parametrize("m", REPRO_MS)
def test_kprime_touching_zero_gives_two_points(m, capsys):
    # K' = 1 - z touches 0 along z = 1, where f = (x + y/2 - 3/2)*(z - 1/2)
    # vanishes at the two points with x + y/2 = 3/2
    payload = singular_payload(cubic_argv("1 - z", "(x + (1/2)*y - 3/2)*(z - 1/2)", m),
                               capsys)
    assert payload["kind"] == "isolated-points" and payload["curve_components"] == 0
    points = [p["point"] for p in payload["points"]]
    assert len(points) == 2 and math.dist(*points) > 1.0
    for x, y, z in points:
        assert z == pytest.approx(1.0, abs=1e-12)
        assert x + y / 2 == pytest.approx(1.5, abs=1e-6)
        assert x * x + y * y == pytest.approx(float(Fraction(m)), abs=1e-6)


@pytest.mark.parametrize("m", REPRO_MS)
def test_double_meridian_factor_gives_four_points(m, capsys):
    # K' = z, f = x^2: singular where x = 0 meets z = 0
    payload = singular_payload(cubic_argv("z", "x^2", m), capsys)
    assert payload["kind"] == "isolated-points"
    mf = float(Fraction(m))
    got = [p["point"] for p in payload["points"]]
    assert len(got) == 4
    for want in ((0.0, s * math.sqrt(mf + t), 0.0) for s in (1, -1) for t in (1, -1)):
        assert min(math.dist(g, want) for g in got) < 1e-9


@pytest.mark.parametrize("m", REPRO_MS)
@pytest.mark.parametrize("kprime, f, curves", [
    ("z", "z*x", 2),              # z divides L and M: the circles z = 0
    ("z - 1/2", "z^2 - 1/4", 2),  # z - 1/2 divides both: two circles
    ("z", "0", 2),                # M = 0 on the whole torus: L's circles z = 0
    ("z - 1", "0", 1),            # L touches 0 along the circle z = 1
])
def test_common_zero_curves(kprime, f, curves, m, capsys):
    payload = singular_payload(cubic_argv(kprime, f, m), capsys)
    assert payload["kind"] == "curves" and payload["points"] == []
    assert payload["curve_components"] == curves


@pytest.mark.parametrize("m", ["5", "4"])
def test_integrate_non_finite_state_is_an_error(m, capsys):
    # the coefficients are finite floats but the field's values overflow,
    # so the first RK4 step is nan: an error, not nan rows with exit 0
    code = main(["integrate", *HUGE_DERIVATIVE, "--m", m, "--start", "3,0,0",
                 "--t-end", "0.002"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: state became non-finite")


def test_integrate_runaway_orbit_is_an_error():
    # (x, y, 0) grows like e^t from (3, 0, 0): past 1e6 near t = 12.7
    code, out, err = run_cli(["integrate", "--px", "x", "--qy", "y", "--rz", "0",
                              "--m", "5", "--start", "3,0,0", "--t-end", "20"])
    assert code == 1
    assert out == ""
    assert err == "error: state became non-finite or exceeded 1e6 (t ~ 12.717)\n"


# -- the subcommands print the report's blocks ---------------------------------

BLOCKS = {"classify": "family", "singular": "singular_set", "meridians": "meridians",
          "parallels": "parallels"}


def spec_argv(spec):
    return ["--px", spec.px, "--qy", spec.qy, "--rz", spec.rz, "--m", str(spec.m)]


@pytest.mark.parametrize("m", REPRO_MS)
def test_json_subcommands_print_the_report_blocks(m, capsys):
    for spec in corpus.named_corpus(Fraction(m)):
        report = build_report(spec.px, spec.qy, spec.rz, spec.m, grid=200)
        for command, key in BLOCKS.items():
            grid = ["--grid", "200"] if command == "singular" else []
            assert main([command, *spec_argv(spec), *grid, "--json"]) == 0
            assert capsys.readouterr().out == report_json(report[key]).decode(), \
                (spec.name, m, command)


JSON_EXTRA_ARGS = {"check": [], "bracket": ["--px2", "y^3", "--qy2", "-x*y^2", "--rz2", "0"],
                   "extactic": [], "meridians": [], "parallels": [], "classify": [],
                   "singular": ["--grid", "64"], "first-integral": ["--num", "z"],
                   "report": ["--grid", "64"]}


@pytest.mark.parametrize("command", list(JSON_EXTRA_ARGS))
def test_every_json_output_is_the_stdlib_layout(command, capsys):
    json_flag = [] if command == "report" else ["--json"]
    assert main([command, *SECT5, "--m", "4", *json_flag, *JSON_EXTRA_ARGS[command]]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


KOLMOGOROV = ["--px", "(1/4)*(2*z)*x*z + (x*y)*y", "--qy", "(1/4)*(2*z)*y*z - (x*y)*x",
              "--rz", "(1/2)*(2*z)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"]
TWO_PARALLEL = ["--px", "(1/2)*x^2*z + (y^2 + a^2 + 1)*y - (1/2)*a^2*z",
                "--qy", "(1/2)*x*y*z - (y^2 + a^2 + 1)*x", "--rz", "x*(z^2 - 1)"]
FOUR_MERIDIANS = ("4 invariant meridian(s) from 2 plane(s):\n"
                  "  y = 0   multiplicity 1\n  x = 0   multiplicity 1\n")
NO_MERIDIANS = "0 invariant meridian(s) from 0 plane(s):\n"
KOLMOGOROV_POINTS = "".join(f"  {p}  unclassified\n" for p in (
    "(-2.2360679775, 0, 0)", "(-1.73205080757, 0, 0)", "(0, -2.2360679775, 0)",
    "(0, -1.73205080757, 0)", "(0, 1.73205080757, 0)", "(0, 2.2360679775, 0)",
    "(1.73205080757, 0, 0)", "(2.2360679775, 0, 0)"))
BOWL_POINTS = "".join(f"  ({x}, 0, 0.5)  linearly-zero\n" for x in (
    "-2.20590693452", "-1.77030353223", "1.77030353223", "2.20590693452"))


# the text each subcommand printed before it rendered the report's blocks
PINNED_TEXT = {
    "worked-cubic": (SECT5, {
        "meridians": FOUR_MERIDIANS, "parallels": "0 invariant parallel plane(s):\n",
        "classify": "family: cubic\n", "singular": "singular set: empty\n"}),
    "two-parallel": (TWO_PARALLEL, {
        "meridians": NO_MERIDIANS,
        "parallels": ("2 invariant parallel plane(s):\n"
                      "  z = -1   multiplicity 1\n  z = 1   multiplicity 1\n"),
        "classify": "family: two-parallel   (also matches: cubic)\n",
        "singular": "singular set: empty\n"}),
    "bowl": (BOWL, {
        "meridians": NO_MERIDIANS, "parallels": "infinitely many invariant parallels\n",
        "classify": "family: cubic\n",
        "singular": "singular set: isolated-points\n  4 isolated singular point(s)\n"
                    + BOWL_POINTS}),
    "kolmogorov": (KOLMOGOROV, {
        "meridians": FOUR_MERIDIANS,
        "parallels": "1 invariant parallel plane(s):\n  z = 0   multiplicity 1\n",
        "classify": "family: kolmogorov   (also matches: cubic)\n",
        "singular": "singular set: isolated-points\n  8 isolated singular point(s)\n"
                    + KOLMOGOROV_POINTS}),
}


@pytest.mark.parametrize("name", sorted(PINNED_TEXT))
def test_text_output_is_rendered_from_the_blocks(name, capsys):
    field, texts = PINNED_TEXT[name]
    for command, text in texts.items():
        assert main([command, *field, "--m", "4"]) == 0
        assert capsys.readouterr().out == text, command


def test_not_on_torus_message_is_one_message(capsys):
    for command in BLOCKS:
        assert main([command, "--px", "x", "--qy", "y", "--rz", "z"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "field is NOT on the torus; nothing to analyze\n"


BEYOND_FLOATS = "1e400"


@pytest.mark.parametrize("command", [["report"], ["singular"], ["meridians"],
                                     ["integrate", "--start", "3,0,0", "--t-end", "0.01"]],
                         ids=lambda c: c[0])
def test_m_beyond_the_float_range_is_named(command, capsys):
    assert main([*command, *SECT5, "--m", BEYOND_FLOATS]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m is beyond the float range (at most 1.79769e+308)\n"


@pytest.mark.parametrize("command, text", [
    ("check", "on torus, cofactor K = z\n"),
    ("classify", "family: cubic\n"),
    ("extactic", "-x^3*y - x*y^3\n"),
    ("parallels", "0 invariant parallel plane(s):\n"),
], ids=["check", "classify", "extactic", "parallels"])
def test_exact_subcommands_answer_beyond_the_float_range(command, text, capsys):
    assert main([command, *SECT5, "--m", BEYOND_FLOATS]) == 0
    assert capsys.readouterr().out == text


TORUS = "((x^2+y^2-a^2)^2+z^2-1)"
WHOLE_TORUS = {"zero": ("0", "0", "0"), "F-along-x": (TORUS, "0", "0"),
               "F-rotation": (f"y*{TORUS}", f"-x*{TORUS}", "0"),
               "F-radial": (f"x*{TORUS}", f"y*{TORUS}", f"z*{TORUS}")}


@pytest.mark.parametrize("m", REPRO_MS)
@pytest.mark.parametrize("name", list(WHOLE_TORUS))
def test_fields_vanishing_on_the_torus_are_singular_everywhere(name, m, capsys):
    # F divides P, Q and R: the answer is exact, whatever the grid
    px, qy, rz = WHOLE_TORUS[name]
    argv = ["singular", "--px", px, "--qy", qy, "--rz", rz, "--m", m]
    blocks = []
    for grid in ("64", "512"):
        assert main([*argv, "--grid", grid]) == 0
        assert capsys.readouterr().out == "singular set: curves\n  the whole torus is singular\n"
        assert main([*argv, "--grid", grid, "--json"]) == 0
        blocks.append(json.loads(capsys.readouterr().out))
    assert blocks[0] == blocks[1]
    assert blocks[0]["description"] == "the whole torus is singular"


@pytest.mark.parametrize("m", REPRO_MS)
def test_a_level_that_f_divides_is_scanned_as_zero(m, capsys):
    # F divides G1 = y*P - x*Q; G2 is 2*z*(x^2 + y^2) on the torus, so the
    # set is the two circles at z = 0, whatever the grid
    argv = ["singular", "--px", f"x*z^2 + {TORUS}*y", "--qy", f"y*z^2 - {TORUS}*x",
            "--rz", "-2*z*(x^2+y^2)*(x^2+y^2-a^2)", "--m", m]
    blocks = []
    for grid in ("64", "128", "512"):
        assert main([*argv, "--grid", grid, "--json"]) == 0
        blocks.append(json.loads(capsys.readouterr().out))
    assert blocks[0] == blocks[1] == blocks[2]
    assert blocks[0]["description"] == "2 singular curve component(s)"


def test_a_rotation_plus_a_multiple_of_f_stays_empty(capsys):
    # F divides G2; G1 = x^2 + y^2 has no zero on the torus
    assert main(["singular", "--px", f"y + x*{TORUS}", "--qy", f"-x + y*{TORUS}",
                 "--rz", f"z*{TORUS}", "--m", "3"]) == 0
    assert capsys.readouterr().out == "singular set: empty\n"


@pytest.mark.parametrize("command", ["integrate", "report"])
def test_integrate_and_report_take_no_json_flag(command, capsys):
    # integrate writes --format, and report always writes JSON
    extra = {"integrate": ["--start", "3,0,0", "--t-end", "0.01"],
             "report": ["--grid", "64"]}[command]
    assert main([command, *SECT5, "--m", "4", *extra, "--json"]) == 1
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "bracket", "extactic", "meridians", "parallels",
                                     "classify", "singular", "first-integral", "integrate"])
def test_only_report_takes_a_seed(command, capsys):
    extra = {"bracket": JSON_EXTRA_ARGS["bracket"], "first-integral": ["--num", "z"],
             "integrate": ["--start", "3,0,0", "--t-end", "0.01"]}.get(command, [])
    assert main([command, *SECT5, "--m", "4", *extra, "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["report", *SECT5, "--m", "4", "--grid", "64", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 1


@pytest.mark.parametrize("grid", [GRID_MIN - 1, GRID_MAX + 1])
def test_grid_bound_message_is_the_singular_stage_message(grid, capsys):
    with pytest.raises(ValueError) as stage:
        dynamics.check_grid(grid)
    # off the torus too: the bound is checked before the field is read
    assert main(["singular", "--px", "x", "--qy", "y", "--rz", "z",
                 "--grid", str(grid)]) == 1
    assert capsys.readouterr().err.endswith(f"argument --grid: {stage.value}\n")
