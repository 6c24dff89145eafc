"""Command-line front end: evaluate, tabulate, verify, bound-check and scan.

Output formats are text (default), csv and json.  Exact rationals are
printed as "p/q" strings and floats with 17 significant digits, so repeated
runs with the same arguments are byte-identical.  Exit code 0 means every
requested check passed; scans exit 0 whenever they complete (conjecture
margins never fail the process).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__, analysis, bounds, evalnum, exactalg, legendre
from .core import FAMILY_NAMES, DomainError, FamilyId, ParameterError

__all__ = ["main", "run", "OUTPUT_SCHEMA"]

# Shape of every json document this tool emits.
OUTPUT_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "versions"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "results": {"type": "array"},
        "report": {"type": "object"},
        "versions": {"type": "object"},
    },
    "oneOf": [{"required": ["results"]}, {"required": ["report"]}],
}

def _fmt_float(v: float) -> str:
    return f"{v:.17g}"


def _fmt_rat(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _emit_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_rational(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"{name} must be rational ('p/q' or decimal), got {text!r}") from exc


def _parse_grid(spec: str, family: FamilyId) -> list[float]:
    try:
        a_s, b_s, cnt_s = spec.split(":")
        a, b, cnt = float(Fraction(a_s)), float(Fraction(b_s)), int(cnt_s)
    except ValueError as exc:
        raise ParameterError(f"grid must be 'a:b:count', got {spec!r}") from exc
    if cnt < 2:
        raise ParameterError(f"grid needs count >= 2, got {cnt}")
    if a >= b:
        raise ParameterError(f"grid endpoints must be ordered, got {a} >= {b}")
    for endpoint in (a, b):
        family.require_in_domain(endpoint)
    # a + (b-a)*i/(cnt-1) can round past b, but never below a
    return [min(a + (b - a) * i / (cnt - 1), b) for i in range(cnt)]


def _family_from_args(args) -> FamilyId:
    if args.family == "general":
        if args.c is None:
            raise ParameterError("family 'general' requires -c")
        return FamilyId("general", _parse_rational(args.c, "c"))
    if args.c is not None:
        raise ParameterError("-c is only valid with --family general")
    return FamilyId(args.family)


def _need_n(args) -> Fraction:
    if args.n is None:
        raise ParameterError("this command requires -n")
    return _parse_rational(args.n, "n")


def _params_doc(family: FamilyId, n: Optional[Fraction] = None, **extra) -> dict:
    doc = {"family": family.name}
    if family.name == "general":
        doc["c"] = _fmt_rat(family.c)
    if n is not None:
        doc["n"] = _fmt_rat(n)
    doc.update(extra)
    return doc


def _versions() -> dict:
    return {"sqsums": __version__}


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _cmd_eval(args, out) -> int:
    family = _family_from_args(args)
    n = _need_n(args)
    x = float(_parse_rational(args.x, "x"))
    family.require_in_domain(x)
    params = family.base_params(n)
    xm = family.substitution(x)
    results = [
        evalnum.s_series(params, xm, args.rtol),
        evalnum.s_closed(params, xm, args.rtol),
        evalnum.s_quad(params, xm, rtol=args.rtol),
    ]
    if args.format == "json":
        doc = {
            "command": "eval",
            "params": _params_doc(family, n, x=_fmt_float(x), rtol=_fmt_float(args.rtol)),
            "results": [
                {
                    "method": r.method.value,
                    "value": _fmt_float(r.value),
                    "err_estimate": _fmt_float(r.err_estimate),
                    "terms_or_nodes": r.terms_or_nodes,
                }
                for r in results
            ],
            "versions": _versions(),
        }
        out.write(_emit_json(doc))
    elif args.format == "csv":
        rows = [
            [_fmt_float(x), r.method.value, _fmt_float(r.value), _fmt_float(r.err_estimate)]
            for r in results
        ]
        out.write(_emit_csv(["x", "method", "value", "err_estimate"], rows))
    else:
        out.write(f"family={family.name} n={n} x={_fmt_float(x)}\n")
        for r in results:
            out.write(
                f"  {r.method.value:<12} {_fmt_float(r.value):<24} "
                f"err<={_fmt_float(r.err_estimate)} ({r.terms_or_nodes})\n"
            )
    return 0


def _cmd_table(args, out) -> int:
    family = _family_from_args(args)
    n = _need_n(args)
    grid = _parse_grid(args.grid, family)
    params = family.base_params(n)
    xms = [family.substitution(x) for x in grid]
    routes = (
        evalnum.s_series_grid(params, xms, args.rtol),
        evalnum.s_closed_grid(params, xms, args.rtol),
        evalnum.s_quad_grid(params, xms, rtol=args.rtol),
    )
    # the error of the first point and route, as a point-by-point run raises it
    for result in (r for point in zip(*routes) for r in point):
        if isinstance(result, Exception):
            raise result
    cells = [
        (_fmt_float(x), r.method.value, _fmt_float(r.value), _fmt_float(r.err_estimate))
        for x, point in zip(grid, zip(*routes))
        for r in point
    ]
    if args.format == "json":
        keys = ("x", "method", "value", "err_estimate")
        doc = {
            "command": "table",
            "params": _params_doc(family, n, grid=args.grid, rtol=_fmt_float(args.rtol)),
            "results": [dict(zip(keys, cell)) for cell in cells],
            "versions": _versions(),
        }
        out.write(_emit_json(doc))
    else:  # text and csv share the csv table
        out.write(_emit_csv(["x", "method", "value", "err_estimate"], cells))
    return 0


# Exact identity suites keyed by FamilyId.key: the first index, the witness
# (a label and the exact object to build at the first index) and one check
# per item, which must hold at every index from the first to --n-max.  The
# checks look functions up in their modules at call time, so a patched
# module attribute is the one that runs.
_SUITES = {
    "bernstein": (1, ("f_poly", lambda n: exactalg.f_poly_direct(n)), (
        ("parseval", lambda n: exactalg.f_poly_parseval(n).compose_linear(1, Fraction(-1, 2))
            == exactalg.f_poly_direct(n)),
        ("recurrences", lambda n: exactalg.recurrence_check(n)),
        ("ode", lambda n: exactalg.ode_residual_poly(
            exactalg.f_poly_direct(n), exactalg.eq_f(n)).is_zero),
        ("heun", lambda n: exactalg.heun_residual(
            exactalg.f_poly_direct(n), exactalg.HeunParams.polynomial_case(n)).is_zero),
        ("legendre", lambda n: legendre.neuschel_check_exact(n, Fraction(1, 8)) == 0
            and legendre.neuschel_check_exact(n, Fraction(2, 5)) == 0
            and (n > 8 or legendre.derivative_relations_check(n, Fraction(3, 2)))),
    )),
    "baskakov": (1, ("g_rational", lambda n: exactalg.g_rational(n)), (
        ("ode", lambda n: exactalg.ode_residual_poly(
            exactalg.g_rational(n), exactalg.eq_g(n)).is_zero),
        ("heun", lambda n: exactalg.heun_residual(
            exactalg.g_rational(n), exactalg.HeunParams.rational_case(n), "negate").is_zero),
        ("substitution", lambda n: exactalg.g_rational(n)
            == exactalg.j_rational(n - 1).compose_mobius(1, 0, 1, 1)),
    )),
    "bbh": (1, ("u_rational", lambda n: exactalg.u_rational(n)), (
        ("ode", lambda n: exactalg.ode_residual_poly(
            exactalg.u_rational(n), exactalg.eq_u(n)).is_zero),
        ("substitution", lambda n: exactalg.u_rational(n)
            == exactalg.RationalFn(exactalg.f_poly_direct(n)).compose_mobius(1, 0, 1, 1)),
    )),
    "mkz": (0, ("j_rational", lambda n: exactalg.j_rational(n)), (
        ("ode", lambda n: exactalg.ode_residual_poly(
            exactalg.j_rational(n), exactalg.eq_j(n)).is_zero),
        ("substitution", lambda n: exactalg.j_rational(n)
            == exactalg.g_rational(n + 1).compose_mobius(1, 0, -1, 1)),
    )),
}


def _cmd_verify(args, out) -> int:
    family = _family_from_args(args)
    if family.key not in _SUITES:
        raise ParameterError(
            f"family {family.name!r} has no exact identity suite; "
            "use 'scan --kind ode' for the numerical residual check"
        )
    first, (label, build), items = _SUITES[family.key]
    ns = range(first, args.n_max + 1)
    outcomes = [(name, all(check(n) for n in ns)) for name, check in items]
    ok = all(passed for _, passed in outcomes)
    if args.format == "json":
        doc = {
            "command": "verify",
            "params": _params_doc(family, n_max=args.n_max),
            "report": {
                "items": {name: ("OK" if passed else "FAIL") for name, passed in outcomes},
                "witnesses": {label: build(first).to_json()},
            },
            "versions": _versions(),
        }
        out.write(_emit_json(doc))
    else:
        for name, passed in outcomes:
            out.write(f"{name}: {'OK' if passed else 'FAIL'}\n")
    return 0 if ok else 1


def _cmd_bounds(args, out) -> int:
    family = _family_from_args(args)
    n = _need_n(args)
    if n.denominator != 1:
        raise ParameterError(f"bounds need a natural index, got n={n}")
    if args.x is not None:
        grid = [float(_parse_rational(args.x, "x"))]
    elif args.grid is not None:
        grid = _parse_grid(args.grid, family)
    else:
        grid = bounds.standard_grid(family)
    reports = bounds.bound_reports(family, int(n), grid)
    worst = min(reports, key=lambda r: r.min_margin)
    ok = worst.min_margin >= -1e-12
    if args.format == "json":
        doc = {
            "command": "bounds",
            "params": _params_doc(family, n),
            "report": {
                "points": [r.to_json() for r in reports],
                "min_margin": _fmt_float(worst.min_margin),
                "argmin": _fmt_float(worst.x),
            },
            "versions": _versions(),
        }
        out.write(_emit_json(doc))
    elif args.format == "csv":
        rows = []
        for r in reports:
            for label, value in r.bounds:
                rows.append(
                    [
                        _fmt_float(r.x),
                        _fmt_float(r.s_value),
                        label,
                        _fmt_float(value),
                        _fmt_float(value - r.s_value),
                    ]
                )
        out.write(_emit_csv(["x", "s_value", "bound", "value", "margin"], rows))
    else:
        for r in reports:
            parts = " ".join(f"{label}={_fmt_float(v)}" for label, v in r.bounds)
            out.write(
                f"x={_fmt_float(r.x)} s={_fmt_float(r.s_value)} {parts} "
                f"margin={_fmt_float(r.min_margin)}\n"
            )
        out.write(f"min_margin={_fmt_float(worst.min_margin)} at x={_fmt_float(worst.x)}\n")
    return 0 if ok else 1


def _cmd_scan(args, out) -> int:
    family = _family_from_args(args)
    n = _need_n(args)
    params = family.base_params(n)
    if args.kind in ("ode", "logconvexity") and family.key != family.base_family:
        raise ParameterError(
            f"scan --kind {args.kind} covers the (n, c) families only, "
            f"got the substitution family {family.name!r}"
        )
    if args.kind == "ode":
        if args.grid is None:
            raise ParameterError("scan --kind ode requires --grid")
        grid = _parse_grid(args.grid, family)
        report = analysis.ode_residual_scan(params, grid, args.step)
    elif args.kind == "convexity":
        if args.grid is None:
            raise ParameterError("scan --kind convexity requires --grid")
        grid = _parse_grid(args.grid, family)
        report = analysis.convexity_scan(family, n, grid)
    elif args.kind == "monotonicity":
        if family.key != "bernstein":
            raise ParameterError(
                f"scan --kind monotonicity covers the Bernstein family only, got family {family.name!r}"
            )
        count = args.count or 129
        grid = [Fraction(i, count - 1) for i in range(count)]
        report = analysis.monotonicity_check(int(n), grid)
    elif analysis.has_exact_q(params):  # logconvexity from here on
        grid = None if args.grid is None else _parse_grid(args.grid, family)
        report = analysis.logconvexity_scan(params, grid=grid, count=args.count or 1024)
    elif args.grid is None:
        raise ParameterError(
            "scan --kind logconvexity needs --grid for families without an exact route"
        )
    else:
        report = analysis.logconvexity_scan(params, grid=_parse_grid(args.grid, family))
    if args.format == "json":
        doc = {
            "command": "scan",
            "params": _params_doc(family, n, kind=args.kind),
            "report": report.to_json(),
            "versions": _versions(),
        }
        out.write(_emit_json(doc))
    elif args.format == "csv":
        rows = [
            [analysis._fmt(x), analysis._fmt(m)] for x, m in zip(report.grid, report.margins)
        ]
        out.write(_emit_csv(["x", "margin"], rows))
    else:
        status = f" status={report.status.get('status')}" if report.status.get("status") else ""
        out.write(
            f"kind={report.kind} points={len(report.grid)} "
            f"min_margin={analysis._fmt(report.min_margin)} "
            f"argmin={analysis._fmt(report.argmin)} "
            f"violations={len(report.violations)}{status}\n"
        )
    return 0


def _cmd_info(args, out) -> int:
    family = _family_from_args(args)
    doc = {"family": family.name, "domain": family.domain_str()}
    if family.name == "general":
        doc["c"] = _fmt_rat(family.c)
    if family.key != family.name:
        doc["classified_as"] = family.key
    if family.base_family != family.key:
        doc["base_family"] = family.base_family
    if args.n is not None:
        n = _parse_rational(args.n, "n")
        params = family.base_params(n)
        doc["n"] = _fmt_rat(n)
        doc["base_params"] = {
            "n": _fmt_rat(params.n),
            "c": _fmt_rat(params.c),
            "domain": params.domain_str(),
        }
        if params.l is not None:
            doc["base_params"]["l"] = params.l
    if args.format == "json":
        out.write(_emit_json({"command": "info", "params": doc, "report": doc, "versions": _versions()}))
    else:
        for key, val in doc.items():
            out.write(f"{key}: {val}\n")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqsums",
        description="Evaluate and verify squared-basis sums of classical operator families.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, need_family: bool = True) -> None:
        p.add_argument("--family", choices=FAMILY_NAMES, required=need_family)
        p.add_argument("-c", default=None, help="family parameter (general only), rational")
        p.add_argument("-n", default=None, help="operator index, rational")
        p.add_argument("--rtol", type=float, default=1e-12)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("eval", help="one point, all three evaluation methods")
    common(p)
    p.add_argument("-x", required=True, help="evaluation point")

    p = sub.add_parser("table", help="grid of values per method (csv layout)")
    common(p)
    p.add_argument("--grid", required=True, help="a:b:count")

    p = sub.add_parser("verify", help="exact identity suite for a family")
    common(p)
    p.add_argument("--n-max", type=int, default=10)

    p = sub.add_parser("bounds", help="upper-bound margins at a point or grid")
    common(p)
    p.add_argument("-x", dest="x", default=None, help="single evaluation point")
    p.add_argument("--grid", default=None, help="a:b:count (default: standard grid)")

    p = sub.add_parser("scan", help="ode/convexity/logconvexity/monotonicity scans")
    common(p)
    p.add_argument("--kind", choices=("ode", "convexity", "logconvexity", "monotonicity"), required=True)
    p.add_argument("--grid", default=None, help="a:b:count")
    p.add_argument("--step", type=float, default=1e-3, help="finite-difference step for ode scans")
    p.add_argument("--count", type=int, default=None, help="points for exact/rational scans")

    p = sub.add_parser("info", help="echo parameters and family classification")
    common(p)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Merge '-c -1/2' style pairs so negative rationals survive argparse."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in ("-c", "-n", "-x")
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and nxt[1].isdigit()
        ):
            out.append(tok + nxt)
            skip = True
        else:
            out.append(tok)
    return out


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, write to stdout; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    dispatch = {
        "eval": _cmd_eval,
        "table": _cmd_table,
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
        "scan": _cmd_scan,
        "info": _cmd_info,
    }
    try:
        return dispatch[args.verb](args, sys.stdout)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
