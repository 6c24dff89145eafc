"""Command-line front end: evaluate, tabulate, verify, bound-check and scan.

Output formats are text (default), csv and json.  Exact rationals are
printed as "p/q" strings and floats with 17 significant digits, so repeated
runs with the same arguments are byte-identical.  Exit code 0 means every
requested check passed; scans exit 0 whenever they complete (conjecture
margins never fail the process).  ``main`` exits 1 without a traceback when
stdout's reader has gone.  A family's suite, least index and exact
scans are its row in ``families``.
"""

from __future__ import annotations

import csv
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

from . import __version__, analysis, bounds, evalnum, families
from .core import _FLOAT_TEXT, FAMILY_NAMES, FamilyId, ParameterError, _fmt_float, _fmt_rat

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

_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# The json writer writes its pending pieces to the stream each time this
# many are held, so a document's text is never held whole.
_CHUNK = 256


def _json(v, pad: str, out: list[str], write: Callable[[str], Any]) -> None:
    """Append the text of v as json.dumps(v, indent=2) writes it to out; pad
    is the newline and indent of v's first line.  After each element of a
    container, _CHUNK or more pending pieces go to write, joined, and out is
    emptied; a long string is not copied again at every level.  A
    ``_Records`` in v is a list whose items write themselves, one piece
    each."""
    if isinstance(v, str):
        out.append(encode_basestring_ascii(v))
    elif isinstance(v, (dict, list, tuple)) and v:
        inner, keyed = pad + "  ", isinstance(v, dict)
        sep = ("{" if keyed else "[") + inner
        for k, x in v.items() if keyed else enumerate(v):
            out.append(f"{sep}{encode_basestring_ascii(k)}: " if keyed else sep)
            _json(x, inner, out, write)
            if len(out) >= _CHUNK:
                write("".join(out))
                out.clear()
            sep = "," + inner
        out.append(pad + ("}" if keyed else "]"))
    elif isinstance(v, (dict, list, tuple)):
        out.append("{}" if isinstance(v, dict) else "[]")
    elif v is None or isinstance(v, bool):
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, float):
        text = float.__repr__(v)
        out.append(_JSON_WORDS.get(text, text))
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, _Records):  # of no json type, so only records come here
        inner, sep = pad + "  ", "[" + pad + "  "
        text = v.text(inner)
        for item in v.items:
            out.append(sep + text(item))
            if len(out) >= _CHUNK:
                write("".join(out))
                out.clear()
            sep = "," + inner
        out.append(pad + "]" if v.items else "[]")
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


class _Records:
    """A json list of items that write themselves: ``text(pad)`` is the
    function that gives an item's text at pad, the indent of its first
    line, as ``_json`` writes the item's document there."""

    def __init__(self, items: list, text: Callable[[str], Callable[[Any], str]]):
        self.items, self.text = items, text


def _write_json(doc, out) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"`` to the stream out, a chunk
    of pieces at a time (``_json``), for a document with string keys.

    With an indent, json drops its C encoder for a pure-Python one; this
    writer keeps the C string escaping and writes the same bytes.
    """
    pending: list[str] = []
    _json(doc, "\n", pending, out.write)
    pending.append("\n")
    out.write("".join(pending))


def _emit_json(out, command: str, params: dict, **body) -> None:
    """Write the json document of a verb to out: its results or report
    between params and versions."""
    _write_json({"command": command, "params": params, **body, "versions": {"sqsums": __version__}}, out)


def _bound_text(pad: str) -> Callable[[bounds.BoundReport], str]:
    """The text ``_json`` writes of a BoundReport's ``to_json()`` at pad, as
    one template per pad filled from the report's fields."""
    i, j, k = pad + "  ", pad + "    ", pad + "      "
    point = (f'{{{i}"family": %s,{i}"n": %d,{i}"x": "{_FLOAT_TEXT}",{i}"s_value": "{_FLOAT_TEXT}",'
             f'{i}"bounds": %s,{i}"min_margin": "{_FLOAT_TEXT}",{i}"notes": %s{pad}}}')
    mark, sep, q = f'{{{k}"label": %s,{k}"value": "{_FLOAT_TEXT}"{j}}}', "," + j, encode_basestring_ascii

    def text(r: bounds.BoundReport) -> str:
        marks = sep.join([mark % (q(label), value) for label, value in r.bounds])
        notes = sep.join(map(q, r.notes))
        return point % (q(r.family.name), r.n, r.x, r.s_value, f"[{j}{marks}{i}]" if marks else "[]",
                        r.min_margin, f"[{j}{notes}{i}]" if notes else "[]")

    return text


def _emit_csv(out, header: list[str], rows: list[list[str]]) -> None:
    csv.writer(out, lineterminator="\n").writerows([header, *rows])


def _parse_grid(spec: str, family: FamilyId) -> list[float]:
    try:
        a_s, b_s, cnt_s = spec.split(":")
        cnt = int(cnt_s)
    except ValueError as exc:
        raise ParameterError(f"grid must be 'a:b:count', got {spec!r}") from exc
    try:
        a, b = float(_point(a_s)), float(_point(b_s))
    except ValueError as exc:
        raise ParameterError(f"option --grid: {exc}") from None
    if cnt < 2:
        raise ParameterError(f"grid needs count >= 2, got {cnt}")
    if a >= b:
        raise ParameterError(f"grid endpoints must be ordered, got {a} >= {b}")
    for endpoint in (a, b):
        family.require_in_domain(endpoint)
    # a + (b-a)*i/(cnt-1) can round past b, but never below a
    return [min(a + (b - a) * i / (cnt - 1), b) for i in range(cnt)]


def _family_from_args(args) -> FamilyId:
    try:  # FamilyId takes c for the general family, and only for it
        return FamilyId(args.family, args.c)
    except ParameterError:
        raise ParameterError("family 'general' requires -c" if args.c is None
                             else "-c is only valid with --family general") from None


def _params_doc(family: FamilyId, n: Optional[Fraction] = None, **extra) -> dict:
    doc = {"family": family.name}
    if family.c is not None:  # the general family
        doc["c"] = _fmt_rat(family.c)
    if n is not None:
        doc["n"] = _fmt_rat(n)
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _cmd_eval(args, out) -> int:
    family = _family_from_args(args)
    n, x = args.n, float(args.x)
    family.require_in_domain(x)
    params = family.base_params(n)
    xm = family.substitution(x)
    results = [
        evalnum.s_series(params, xm, args.rtol),
        evalnum.s_closed(params, xm, args.rtol),
        evalnum.s_quad(params, xm, rtol=args.rtol),
    ]
    if args.format == "json":
        params = _params_doc(family, n, x=_fmt_float(x), rtol=_fmt_float(args.rtol))
        _emit_json(out, "eval", params, results=[
            {
                "method": r.method.value,
                "value": _fmt_float(r.value),
                "err_estimate": _fmt_float(r.err_estimate),
                "terms_or_nodes": r.terms_or_nodes,
            }
            for r in results
        ])
    elif args.format == "csv":
        rows = [
            [_fmt_float(x), r.method.value, _fmt_float(r.value), _fmt_float(r.err_estimate)]
            for r in results
        ]
        _emit_csv(out, ["x", "method", "value", "err_estimate"], rows)
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
    grid = _parse_grid(args.grid, family)
    params = family.base_params(args.n)
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
        params = _params_doc(family, args.n, grid=args.grid, rtol=_fmt_float(args.rtol))
        _emit_json(out, "table", params, results=[dict(zip(keys, cell)) for cell in cells])
    else:  # text and csv share the csv table
        _emit_csv(out, ["x", "method", "value", "err_estimate"], cells)
    return 0


def _cmd_verify(args, out) -> int:
    family = _family_from_args(args)
    row = families.FAMILIES[family.key]
    if row.witness is None:
        raise ParameterError(
            f"family {family.name!r} has no exact identity suite; "
            "use 'scan --kind ode' for the numerical residual check"
        )
    first, (label, build) = families.least_index(family), row.witness
    if args.n_max < first:
        raise ParameterError(f"verify --n-max must be >= {first} for {family.name!r}, got {args.n_max}")
    ns = range(first, args.n_max + 1)
    outcomes = [(name, check(ns)) for name, check in row.items]
    if args.format == "json":
        _emit_json(out, "verify", _params_doc(family, n_max=args.n_max), report={
            "items": {name: ("OK" if passed else "FAIL") for name, passed in outcomes},
            "witnesses": {label: build(first).to_json()},
        })
    else:
        out.write("".join(f"{name}: {'OK' if passed else 'FAIL'}\n" for name, passed in outcomes))
    return 0 if all(passed for _, passed in outcomes) else 1


def _cmd_bounds(args, out) -> int:
    family = _family_from_args(args)
    if args.n.denominator != 1:
        raise ParameterError(f"bounds need a natural index, got n={args.n}")
    if args.x is not None:
        grid = [float(args.x)]
    elif args.grid is not None:
        grid = _parse_grid(args.grid, family)
    else:
        grid = bounds.standard_grid(family)
    reports = bounds.bound_reports(family, int(args.n), grid)
    worst = min(reports, key=lambda r: r.min_margin)
    ok = worst.min_margin >= -1e-12
    if args.format == "json":
        _emit_json(out, "bounds", _params_doc(family, args.n), report={
            "points": _Records(reports, _bound_text),
            "min_margin": _fmt_float(worst.min_margin),
            "argmin": _fmt_float(worst.x),
        })
    elif args.format == "csv":
        rows = [
            [_fmt_float(r.x), _fmt_float(r.s_value), label, _fmt_float(value), _fmt_float(value - r.s_value)]
            for r in reports
            for label, value in r.bounds
        ]
        _emit_csv(out, ["x", "s_value", "bound", "value", "margin"], rows)
    else:
        for r in reports:
            parts = " ".join(f"{label}={_fmt_float(v)}" for label, v in r.bounds)
            out.write(
                f"x={_fmt_float(r.x)} s={_fmt_float(r.s_value)} {parts} margin={_fmt_float(r.min_margin)}\n"
            )
        out.write(f"min_margin={_fmt_float(worst.min_margin)} at x={_fmt_float(worst.x)}\n")
    return 0 if ok else 1


def _scan_count(args, least: int, default: int) -> int:
    if args.count is None:
        return default
    if args.count < least:
        raise ParameterError(f"scan --kind {args.kind} --family {args.family} needs --count >= {least}")
    return args.count


def _scan_logconvexity(family, params, args):
    if args.grid is not None:
        return analysis.logconvexity_scan(params, grid=_parse_grid(args.grid, family))
    if not analysis.has_exact_q(params):
        raise ParameterError("scan --kind logconvexity needs --grid for families without an exact route")
    least = analysis.conjecture_grid_minimum(params)
    return analysis.logconvexity_scan(params, count=_scan_count(args, least, 1024))


def _scan_monotonicity(family, params, args):
    if "monotonicity" not in families.FAMILIES[family.key].scans:
        raise ParameterError(f"scan --kind monotonicity covers the Bernstein family only, "
                             f"got family {family.name!r}")
    count = _scan_count(args, 2, 129)
    return analysis.monotonicity_check(int(args.n), [Fraction(i, count - 1) for i in range(count)])


def _cmd_scan(args, out) -> int:
    family = _family_from_args(args)
    params = family.base_params(args.n)
    if args.kind in ("ode", "logconvexity") and family.key != family.base_family:
        raise ParameterError(f"scan --kind {args.kind} covers the (n, c) families only, "
                             f"got the substitution family {family.name!r}")
    report = _KINDS[args.kind][0](family, params, args)
    if args.format == "json":
        _emit_json(out, "scan", _params_doc(family, args.n, kind=args.kind), report=report.to_json())
    elif args.format == "csv":
        rows = [[analysis._fmt(x), analysis._fmt(m)] for x, m in zip(report.grid, report.margins)]
        _emit_csv(out, ["x", "margin"], rows)
    else:
        status = f" status={report.status.get('status')}" if report.status.get("status") else ""
        out.write(
            f"kind={report.kind} points={len(report.grid)} min_margin={analysis._fmt(report.min_margin)} "
            f"argmin={analysis._fmt(report.argmin)} violations={len(report.violations)}{status}\n"
        )
    return 0


def _cmd_info(args, out) -> int:
    family = _family_from_args(args)
    doc = {"family": family.name, "domain": family.domain_str()}
    if family.c is not None:
        doc["c"] = _fmt_rat(family.c)
    if family.key != family.name:
        doc["classified_as"] = family.key
    if family.base_family != family.key:
        doc["base_family"] = family.base_family
    if args.n is not None:
        params = family.base_params(args.n)
        doc["n"] = _fmt_rat(args.n)
        doc["base_params"] = {"n": _fmt_rat(params.n), "c": _fmt_rat(params.c), "domain": params.domain_str()}
        if params.l is not None:
            doc["base_params"]["l"] = params.l
    if args.format == "json":
        _emit_json(out, "info", doc, report=doc)
    else:
        out.write("".join(f"{key}: {val}\n" for key, val in doc.items()))
    return 0


# ---------------------------------------------------------------------------
# Option table, parser and dispatch
# ---------------------------------------------------------------------------


class _Opt(NamedTuple):
    """One option; its value lands in the attribute named after the flag."""

    flag: str
    help: str = ""
    type: Callable[[str], Any] = str
    choices: tuple = ()
    default: Any = None
    required: bool = False
    excludes: str = ""  # an option that may not be given with this one
    dest = property(lambda self: self.flag.lstrip("-").replace("-", "_"))


def _positive(kind: type) -> Callable[[str], Any]:
    def convert(text: str):
        if not 0 < (value := kind(text)) < math.inf:
            raise ValueError(f"{text!r} is not {'an integer >= 1' if kind is int else 'finite and > 0'}")
        return value

    return convert


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not rational ('p/q' or decimal)") from None


def _point(text: str) -> Fraction:
    """A rational that rounds to a double: the verbs evaluate at float(x)."""
    value = _rational(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{text!r} is past the double range") from None
    return value


def _parameter(text: str) -> Fraction:
    """A rational for -n or -c by ``_point``'s rule, which is also rejected
    where its double is 0 but the value is not: the routes read n and c as
    doubles, while 2a = 2n/c is formed from the exact values."""
    value = _point(text)
    if value and not float(value):
        raise ValueError(f"{text!r} rounds to 0 as a double")
    return value


_HELP = _Opt("--help")
_TOP = {"-h": _HELP, "--help": _HELP}  # the options before the verb
_COMMON = (
    _Opt("--family", "operator family", choices=FAMILY_NAMES, required=True),
    _Opt("-c", "family parameter (general only), rational", _parameter),
)
# the layouts a verb writes
_FORMAT = _Opt("--format", "output layout", choices=("text", "csv", "json"), default="text")
_TEXT_JSON = _FORMAT._replace(choices=("text", "json"))
_N = _Opt("-n", "operator index, rational", _parameter, required=True)
_RTOL = _Opt("--rtol", "relative tolerance", _positive(float), default=1e-12)
_GRID = _Opt("--grid", "a:b:count", required=True)
_COUNT = _Opt("--count", "points for exact/rational scans", _positive(int))
# scan kind: (handler, called with the family, its (n, c) parameters and
# args; the options it reads besides _COMMON and those of scan)
_KINDS = {
    "ode": (lambda family, params, args: analysis.ode_residual_scan(
        params, _parse_grid(args.grid, family), args.step),
        (_GRID, _Opt("--step", "finite-difference step for ode scans", _positive(float), default=1e-3))),
    "convexity": (lambda family, params, args: analysis.convexity_scan(
        family, args.n, _parse_grid(args.grid, family)), (_GRID,)),
    "logconvexity": (_scan_logconvexity, (_GRID._replace(required=False, excludes="--count"), _COUNT)),
    "monotonicity": (_scan_monotonicity, (_COUNT,)),
}
# verb: (handler, help line, the options it reads besides _COMMON)
_VERBS = {
    "eval": (_cmd_eval, "one point, all three evaluation methods", (
        _FORMAT, _N, _RTOL, _Opt("-x", "evaluation point", _point, required=True))),
    "table": (_cmd_table, "grid of values per method (csv layout)", (_FORMAT, _N, _RTOL, _GRID)),
    "verify": (_cmd_verify, "exact identity suite for a family", (
        _TEXT_JSON, _Opt("--n-max", "largest index checked", int, default=10),)),
    "bounds": (_cmd_bounds, "upper-bound margins at a point or grid", (
        _FORMAT, _N, _Opt("-x", "single evaluation point", _point, excludes="--grid"),
        _Opt("--grid", "a:b:count (default: standard grid)"))),
    "scan": (_cmd_scan, "ode/convexity/logconvexity/monotonicity scans", (
        _FORMAT, _N, _Opt("--kind", "what to scan", choices=tuple(_KINDS), required=True))),
    "info": (_cmd_info, "echo parameters and family classification", (
        _TEXT_JSON, _N._replace(required=False))),
}
# The options of each verb by flag; scan's include those of its kinds, which only a kind may require.
_OPTIONS = {verb: {o.flag: o for o in (*_COMMON, *spec[2])} for verb, spec in _VERBS.items()}
_OPTIONS["scan"].update((o.flag, o._replace(required=False)) for _, opts in _KINDS.values() for o in opts)


def _classify(tok: str, opts: dict):
    """None for a value, else (option or None if unknown, attached value or None).

    As argparse: ``--opt=value``, unique long prefixes, ``-svalue``, ``-s=value``;
    negative numbers and tokens with a space are values.
    """
    if not tok.startswith("-") or tok == "-":
        return None
    flag, eq, value = tok.partition("=")
    if tok[1] != "-" and flag not in opts and tok[:2] in opts:
        return opts[tok[:2]], tok[2:]
    hits = [flag] if flag in opts else [f for f in opts if tok[1] == "-" and f.startswith(flag)]
    if len(hits) > 1:
        raise ParameterError(f"ambiguous option: {flag} could match {', '.join(hits)}")
    if hits:
        return opts[hits[0]], value if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok else (None, None)


def _usage(verb: Optional[str] = None) -> str:
    if verb is None:
        head, rows = "usage: sqsums VERB [options]\n\nverbs:\n", [(v, spec[1]) for v, spec in _VERBS.items()]
    else:
        lead = ("--family", "-c", "-n", "--rtol", "--format")  # listed first, in this order
        head, rows = f"usage: sqsums {verb} [-h] [options]\n\n{_VERBS[verb][1]}\n\noptions:\n", [
            (f"{o.flag} " + ("{" + ",".join(o.choices) + "}" if o.choices else o.dest.upper()),
             o.help + " (required)" * o.required + f" (default {o.default})" * (o.default is not None))
            for o in sorted(_OPTIONS[verb].values(), key=lambda o: (*lead, o.flag).index(o.flag))
        ]
    width = max(len(left) for left, _ in rows)
    return head + "".join(f"  {left:<{width}}  {right}".rstrip() + "\n" for left, right in rows)


def _parse(argv: list[str]):
    """The options of argv as attributes beside ``verb``, or the usage text
    for -h/--help; a usage error raises ParameterError."""
    if argv and _classify(argv[0], _TOP) == (_HELP, None):
        return _usage()
    if not argv or argv[0] not in _VERBS:
        raise ParameterError(f"the first argument must be a verb: {', '.join(_VERBS)} (or --help)")
    verb, rest, opts = argv[0], argv[1:], {**_OPTIONS[argv[0]], **_TOP}
    classes = [_classify(tok, opts) for tok in rest]
    given, unknown, i = {}, [], 0
    while i < len(rest):
        (opt, value), i = classes[i] or (None, None), i + 1
        if opt is _HELP and value is None:
            return _usage(verb)
        if opt is None or opt is _HELP:
            unknown.append(rest[i - 1])
            continue
        if value is None:  # the next token unless it is an option; '-<digit>...' may follow -c, -n, -x
            if i == len(rest) or classes[i] and not (len(opt.flag) == 2 and rest[i][1:2].isdigit()):
                raise ParameterError(f"option {opt.flag} needs a value")
            value, i = rest[i], i + 1
        if opt.choices and value not in opt.choices:
            raise ParameterError(f"option {opt.flag}: {value!r} is not one of {', '.join(opt.choices)}")
        try:
            given[opt.flag] = opt.type(value)
        except ValueError as exc:
            raise ParameterError(f"option {opt.flag}: {exc}") from None
    kind = given.get("--kind") if verb == "scan" else None
    name = f"scan --kind {kind}" if kind else verb
    reads = {o.flag: o for opts in (_COMMON, _VERBS[verb][2], _KINDS[kind][1] if kind else ()) for o in opts}
    if missing := [flag for flag, o in reads.items() if o.required and flag not in given]:
        raise ParameterError(f"{name} requires {', '.join(missing)}")
    if unknown:
        raise ParameterError(f"unrecognized arguments: {' '.join(unknown)}")
    if unread := [flag for flag in given if flag not in reads]:
        raise ParameterError(f"{name} does not read {', '.join(unread)}")
    if both := [o for o in reads.values() if o.flag in given and o.excludes in given]:
        raise ParameterError(f"{name} reads {both[0].flag} or {both[0].excludes}, not both")
    return SimpleNamespace(verb=verb, **{o.dest: given.get(flag, o.default) for flag, o in reads.items()})


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, write to stdout; returns the exit code."""
    try:
        args = _parse(list(argv))
        if isinstance(args, str):
            sys.stdout.write(args)
            return 0
        return _VERBS[args.verb][0](args, sys.stdout)
    except ValueError as exc:  # ParameterError and DomainError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # stdout's reader is gone (the SIGPIPE note of Python's signal
        # docs): devnull takes what is left, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except ArithmeticError as exc:  # a route could not finish: past a cap, or an overflow
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
