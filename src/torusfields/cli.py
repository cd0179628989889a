"""Command-line front end.

Subcommands: check, bracket, extactic, meridians, parallels, classify,
singular, first-integral, integrate, report.  Exit codes: 0 on success,
1 on parse or usage errors, 2 when a command that needs an on-torus field
is given one that leaves the torus.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import __version__
from .curves import extactic_xy
from .dynamics import GRID_MAX, GRID_MIN, check_grid
from .families import Family, FamilyTag, recognize
from .integrate import StepOverflow, export, integrate
from .parsing import ParseError, parse, serialize
from .report import (build_report, family_entry, meridians_entry,
                     parallels_entry, report_json, singular_entry)
from .vfield import (RationalFn, TorusSurface, VectorField,
                     check_first_integral, cofactor_on_torus, lie_bracket)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_ON_TORUS = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _field_args(sub: argparse.ArgumentParser, suffix: str = "") -> None:
    sub.add_argument(f"--px{suffix}", required=True,
                     help=f"x-component expression{' of the second field' if suffix else ''}")
    sub.add_argument(f"--qy{suffix}", required=True, help="y-component expression")
    sub.add_argument(f"--rz{suffix}", required=True, help="z-component expression")


def _common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--m", default="4", help="rational a^2 > 1 (default 4)")
    sub.add_argument("--out", default=None, help="write output to this path")


def _grid_size(text: str) -> int:
    try:
        grid = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be an integer, got {text!r}") from None
    try:
        check_grid(grid)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return grid


def _parse_m(text: str) -> Fraction:
    try:
        m = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("--m must be a rational number such as 4 or 9/2, "
                         f"got {text!r}") from None
    if m <= 1:
        raise ValueError(f"--m must exceed 1 (the torus needs a > 1), got {text!r}")
    return m


def _load_field(args, m: Fraction, suffix: str = "") -> VectorField:
    return VectorField(parse(getattr(args, f"px{suffix}"), m),
                       parse(getattr(args, f"qy{suffix}"), m),
                       parse(getattr(args, f"rz{suffix}"), m))


def _emit(args, out: str | bytes) -> None:
    """Write text or report_json bytes to --out or stdout, ending in one newline."""
    blob = out.encode() if isinstance(out, str) else out
    if not blob.endswith(b"\n"):
        blob += b"\n"
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)


def _cmd_check(args) -> int:
    m = _parse_m(args.m)
    field = _load_field(args, m)
    cof = cofactor_on_torus(field, TorusSurface(m))
    if args.json:
        payload = {"on_torus": cof.on_torus,
                   "cofactor": serialize(cof.K) if cof.on_torus else None}
        _emit(args, report_json(payload))
    elif cof.on_torus:
        _emit(args, f"on torus, cofactor K = {serialize(cof.K)}")
    else:
        _emit(args, "NOT on torus")
    return EXIT_OK if cof.on_torus else EXIT_NOT_ON_TORUS


def _cmd_bracket(args) -> int:
    m = _parse_m(args.m)
    first = _load_field(args, m)
    second = _load_field(args, m, suffix="2")
    bracket = lie_bracket(first, second)
    if args.json:
        payload = {"P": serialize(bracket.P), "Q": serialize(bracket.Q),
                   "R": serialize(bracket.R)}
        _emit(args, report_json(payload))
    else:
        _emit(args, "[X,Y] = (\n  {},\n  {},\n  {}\n)".format(
            serialize(bracket.P), serialize(bracket.Q), serialize(bracket.R)))
    return EXIT_OK


def _cmd_extactic(args) -> int:
    m = _parse_m(args.m)
    field = _load_field(args, m)
    ext = extactic_xy(field)
    if args.json:
        _emit(args, report_json({"extactic_xy": serialize(ext)}))
    else:
        _emit(args, serialize(ext))
    return EXIT_OK


def _on_torus(args) -> tuple[VectorField, FamilyTag, Fraction] | None:
    """(field, recognize(field, m), m) of the arguments; None, with a message
    on stderr, when the field leaves the torus."""
    m = _parse_m(args.m)
    field = _load_field(args, m)
    tag = recognize(field, m)
    if tag.family != Family.NOT_ON_TORUS:
        return field, tag, m
    sys.stderr.write("field is NOT on the torus; nothing to analyze\n")
    return None


def _show(args, block: dict, text) -> int:
    """Print ``block`` through report_json under --json, else text(block)."""
    _emit(args, report_json(block) if args.json else text(block))
    return EXIT_OK


def _meridians_text(block: dict) -> str:
    if block["infinite"]:
        return "infinitely many invariant meridians"
    lines = [f"{block['count_with_multiplicity']} invariant meridian(s) "
             f"from {len(block['planes'])} plane(s):"]
    for pl in block["planes"]:
        desc = pl["plane_expr"] or f"{pl['a']:.12g}*x + {pl['b']:.12g}*y"
        lines.append(f"  {desc} = 0   multiplicity {pl['multiplicity']}"
                     f"{'' if pl['exact'] else '   (float)'}")
    return "\n".join(lines)


def _parallels_text(block: dict) -> str:
    if block["infinite"]:
        return "infinitely many invariant parallels"
    lines = [f"{len(block['planes'])} invariant parallel plane(s):"]
    for pl in block["planes"]:
        lines.append(f"  z = {pl['k']:.12g}   multiplicity {pl['multiplicity']}"
                     f"{'' if pl['exact'] else '   (float)'}")
    return "\n".join(lines)


def _family_text(block: dict) -> str:
    also = ", ".join(block["also_matches"])
    return f"family: {block['tag']}" + (f"   (also matches: {also})" if also else "")


def _singular_text(block: dict) -> str:
    lines = [f"singular set: {block['kind']}"]
    if block["description"]:
        lines.append(f"  {block['description']}")
    for pt in block["points"]:
        x, y, z = pt["point"]
        lines.append(f"  ({x:.12g}, {y:.12g}, {z:.12g})  {pt['class'] or 'unclassified'}")
    return "\n".join(lines)


def _cmd_meridians(args) -> int:
    if (on := _on_torus(args)) is None:
        return EXIT_NOT_ON_TORUS
    return _show(args, meridians_entry(*on), _meridians_text)


def _cmd_parallels(args) -> int:
    if (on := _on_torus(args)) is None:
        return EXIT_NOT_ON_TORUS
    return _show(args, parallels_entry(*on), _parallels_text)


def _cmd_classify(args) -> int:
    if (on := _on_torus(args)) is None:
        return EXIT_NOT_ON_TORUS
    return _show(args, family_entry(on[1]), _family_text)


def _cmd_singular(args) -> int:
    if (on := _on_torus(args)) is None:
        return EXIT_NOT_ON_TORUS
    return _show(args, singular_entry(*on, args.grid), _singular_text)


def _cmd_first_integral(args) -> int:
    m = _parse_m(args.m)
    field = _load_field(args, m)
    h = RationalFn(parse(args.num, m), parse(args.den, m))
    ok = check_first_integral(field, h)
    if args.json:
        _emit(args, report_json({"first_integral": ok}))
    else:
        _emit(args, "first integral: " + ("verified" if ok else "NOT a first integral"))
    return EXIT_OK


def _cmd_integrate(args) -> int:
    m = _parse_m(args.m)
    field = _load_field(args, m)
    try:
        start = tuple(float(v) for v in args.start.split(","))
    except ValueError:
        raise ValueError(f"--start must be x,y,z floats, got {args.start!r}")
    if len(start) != 3:
        raise ValueError("--start must have exactly three components")
    traj = integrate(field, start, args.t_end, args.dt, m, project=args.project)
    _emit(args, export(traj, args.format))
    return EXIT_OK


def _cmd_report(args) -> int:
    m = _parse_m(args.m)
    report = build_report(args.px, args.qy, args.rz, m, seed=args.seed,
                          grid=args.grid)
    _emit(args, report_json(report))
    return EXIT_OK if report["on_torus"] else EXIT_NOT_ON_TORUS


def make_parser() -> _Parser:
    parser = _Parser(prog="torusfields",
                     description="Polynomial vector fields on the torus "
                                 "(x^2+y^2-a^2)^2 + z^2 = 1: exact cofactors, "
                                 "family recognition, invariant curves, dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str, second_field: bool = False,
            grid: bool = False, json_flag: bool = True):
        sub = subs.add_parser(name, help=help_text)
        _field_args(sub)
        if second_field:
            _field_args(sub, suffix="2")
        _common_args(sub)
        if json_flag:
            sub.add_argument("--json", action="store_true", help="emit JSON")
        if grid:
            sub.add_argument("--grid", type=_grid_size, default=512,
                             help=f"singular-scan grid points per axis, {GRID_MIN} to {GRID_MAX}")
        sub.set_defaults(fn=fn)
        return sub

    add("check", _cmd_check, "torus membership and cofactor")
    add("bracket", _cmd_bracket, "Lie bracket of two fields", second_field=True)
    add("extactic", _cmd_extactic, "extactic polynomial for span(x, y)")
    add("meridians", _cmd_meridians, "invariant meridian planes")
    add("parallels", _cmd_parallels, "invariant parallel planes")
    add("classify", _cmd_classify, "family recognition with parameters")
    add("singular", _cmd_singular, "singular set on the torus", grid=True)

    sub = add("first-integral", _cmd_first_integral,
              "verify a rational first integral")
    sub.add_argument("--num", required=True, help="numerator expression")
    sub.add_argument("--den", default="1", help="denominator expression")

    # integrate writes --format, report always JSON: neither takes --json
    sub = add("integrate", _cmd_integrate, "RK4 trajectory export", json_flag=False)
    sub.add_argument("--start", required=True, help="start point as x,y,z")
    sub.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    sub.add_argument("--dt", type=float, default=1e-3)
    sub.add_argument("--project", action="store_true",
                     help="re-project onto the torus after each step")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = add("report", _cmd_report, "full analysis report (JSON)", grid=True,
              json_flag=False)
    sub.add_argument("--seed", type=int, default=0,
                     help="seed echoed into the report (scan phases are deterministic)")
    return parser


_VALUE_FLAGS = {"--px", "--qy", "--rz", "--px2", "--qy2", "--rz2",
                "--num", "--den", "--start", "--m"}


def _join_value_flags(argv: list[str]) -> list[str]:
    """Fuse '--px -x*y' into '--px=-x*y' so leading minus signs survive."""
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use and kept for the process: parse_args
    fills a fresh namespace on every call."""
    return make_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_value_flags(list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"expression error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OverflowError, ZeroDivisionError, StepOverflow) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
