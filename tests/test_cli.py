import argparse
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqsums
from sqsums import analysis, bounds, cli, exactalg, families
from sqsums.cli import OUTPUT_SCHEMA, _parse, run
from sqsums.core import FAMILY_NAMES, FamilyId, ParameterError, Params


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_three_methods_agree_on_midpoint(self):
        code, out, _ = invoke(["eval", "--family", "bernstein", "-n", "2", "-x", "0.5"])
        assert code == 0
        assert out.count("0.375") == 3
        for method in ("series", "closed_form", "quadrature"):
            assert method in out

    def test_csv_layout(self):
        code, out, _ = invoke(
            ["eval", "--family", "szasz", "-n", "1", "-x", "0.25", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,method,value,err_estimate"
        assert len(lines) == 4

    def test_substitution_family(self):
        code, out, _ = invoke(["eval", "--family", "mkz", "-n", "0", "-x", "0.5", "--format", "csv"])
        assert code == 0
        # J_0(1/2) = (1/2)/(3/2) = 1/3
        assert "0.33333333333333" in out


class TestTable:
    def test_header_and_rows(self):
        code, out, _ = invoke(
            ["table", "--family", "bernstein", "-n", "1", "--grid", "0:1:5", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,method,value,err_estimate"
        assert len(lines) == 1 + 5 * 3
        assert all("\r" not in line for line in lines)

    def test_deterministic_output(self):
        argv = ["table", "--family", "baskakov", "-n", "2", "--grid", "0:5:9", "--format", "json"]
        assert invoke(argv) == invoke(argv)

    def test_grid_validation(self):
        code, _, err = invoke(["table", "--family", "bernstein", "-n", "1", "--grid", "0:2:5"])
        assert code == 2
        assert "domain" in err
        code, _, err = invoke(["table", "--family", "bernstein", "-n", "1", "--grid", "0:1:1"])
        assert code == 2
        assert "count" in err

    @pytest.mark.parametrize(
        "family, grid, last",
        [
            (["bernstein", "-n", "2"], "67/1000:1:101", "1"),
            (["general", "-c", "-1/2", "-n", "1"], "67/500:2:101", "2"),
        ],
    )
    def test_grid_stops_at_its_right_end(self, family, grid, last):
        # a + (b-a)*i/(count-1) rounds past b here: 1.0000000000000002 and
        # 2.0000000000000004, outside the closed domain
        code, out, err = invoke(["table", "--family", *family, "--grid", grid, "--format", "csv"])
        assert (code, err) == (0, "")
        xs = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert len(xs) == 3 * 101 and xs[-3:] == [last] * 3

    def test_first_error_in_grid_order(self):
        # the c > 0 series needs more than 2*10^6 terms at every point; 2a is
        # not whole, so it walks there
        from fractions import Fraction

        from sqsums.core import Params
        from sqsums.evalnum import s_closed, s_quad, s_series

        def first_error():
            for x in (1e5, 1.5e5, 2e5):
                for route in (s_series, s_closed, s_quad):
                    try:
                        route(Params(Fraction(4, 3), 1), x)
                    except Exception as exc:
                        return exc

        expect = first_error()
        assert type(expect) is ArithmeticError
        with pytest.raises(ArithmeticError) as raised:
            invoke(["table", "--family", "general", "-c", "1", "-n", "4/3", "--grid", "1e5:2e5:3"])
        assert (type(raised.value), str(raised.value)) == (type(expect), str(expect))

    def test_errors_raise_in_point_then_route_order(self, monkeypatch):
        # a point-by-point run raises the error of the first point that has
        # one, and there the series before the closed form before quadrature
        from sqsums import evalnum

        errors = {
            "s_series_grid": {2: ArithmeticError("series at 2")},
            "s_closed_grid": {1: OverflowError("closed at 1"), 2: ValueError("closed at 2")},
            "s_quad_grid": {0: ZeroDivisionError("quad at 0")},
        }
        for name, planted in errors.items():
            route = getattr(evalnum, name)

            def patched(*args, route=route, planted=planted, **kwargs):
                results = route(*args, **kwargs)
                return [planted.get(i, r) for i, r in enumerate(results)]

            monkeypatch.setattr(evalnum, name, patched)
        argv = ["table", "--family", "szasz", "-n", "1", "--grid", "0:2:4"]
        with pytest.raises(ZeroDivisionError, match="quad at 0"):
            invoke(argv)
        del errors["s_quad_grid"][0]
        with pytest.raises(OverflowError, match="closed at 1"):
            invoke(argv)
        del errors["s_closed_grid"][1]
        with pytest.raises(ArithmeticError, match="series at 2"):
            invoke(argv)


class TestVerify:
    def test_bernstein_suite_passes(self):
        code, out, _ = invoke(["verify", "--family", "bernstein", "--n-max", "6"])
        assert code == 0
        for item in ("parseval", "recurrences", "ode", "heun", "legendre"):
            assert f"{item}: OK" in out

    def test_substitution_families(self):
        for family in ("bbh", "mkz", "baskakov"):
            code, out, _ = invoke(["verify", "--family", family, "--n-max", "4"])
            assert code == 0
            assert "FAIL" not in out

    def test_general_aliases_to_named_suite(self):
        code, out, _ = invoke(["verify", "--family", "general", "-c", "1", "--n-max", "3"])
        assert code == 0
        assert "ode: OK" in out

    def test_szasz_has_no_exact_suite(self):
        code, _, err = invoke(["verify", "--family", "szasz", "--n-max", "3"])
        assert code == 2
        assert "scan" in err

    @pytest.mark.parametrize("verb", [["verify", "--n-max", "3"], ["info"]])
    def test_writes_no_csv(self, verb):
        code, out, err = invoke([verb[0], "--family", "mkz", *verb[1:], "--format", "csv"])
        assert (code, out) == (2, "")
        assert err == "error: option --format: 'csv' is not one of text, json\n"


# (family, series builder, the items that read it): a nudged builder fails
# exactly these items.  Bernstein's ode, heun and legendre items read the
# centred form in s, and parseval compares it with the monomial form.
_SERIES = [
    pytest.param("bernstein", "f_poly_direct", ("parseval", "recurrences"), id="bernstein"),
    pytest.param("bernstein", "f_poly_parseval", ("parseval", "ode", "heun", "legendre"), id="bernstein-s"),
    pytest.param("baskakov", "g_series_coeffs", ("ode", "heun", "substitution"), id="baskakov"),
    pytest.param("bbh", "u_series_coeffs", ("ode", "substitution"), id="bbh"),
    pytest.param("mkz", "j_series_coeffs", ("ode", "substitution"), id="mkz"),
]


def _failed(out):
    return {line.split(":")[0] for line in out.splitlines() if line.endswith(": FAIL")}


class TestVerifySeriesRoute:
    @pytest.mark.parametrize("family, name, items", _SERIES)
    def test_a_tiny_coefficient_fault_fails_every_item_that_reads_it(self, family, name, items, monkeypatch):
        build = getattr(exactalg, name)

        def nudged(n):
            # 1e-30 more on the lowest nonzero coefficient
            y = build(n)
            k = next(i for i, c in enumerate(y.coeffs) if c)
            return y + exactalg.RationalPoly([0] * k + [Fraction(1, 10 ** 30)], y.var)

        assert invoke(["verify", "--family", family, "--n-max", "5"])[0] == 0
        monkeypatch.setattr(exactalg, name, nudged)
        code, out, _ = invoke(["verify", "--family", family, "--n-max", "5"])
        assert code == 1
        assert _failed(out) == set(items)

    @pytest.mark.parametrize("family, spec", [("bernstein", "eq_f"), ("baskakov", "eq_g")])
    def test_a_nudged_operator_fails_the_ode_and_nothing_outlives_the_call(self, family, spec, monkeypatch):
        # the operators are moved once per call: a patched builder is read by
        # the next call, and the call after the patch is undone passes again
        build = getattr(exactalg, spec)

        def nudged(n):
            op = build(n)
            return exactalg.OdeSpec(op.label, op.a2, op.a1 + Fraction(1, 10 ** 30), op.a0)

        argv = ["verify", "--family", family, "--n-max", "6"]
        before = invoke(argv)
        assert before[0] == 0
        monkeypatch.setattr(exactalg, spec, nudged)
        code, out, _ = invoke(argv)
        assert code == 1 and _failed(out) == {"ode"}
        monkeypatch.undo()
        assert invoke(argv) == before

    @pytest.mark.parametrize("family, spec, n_max", [
        ("bernstein", "eq_f", 5), ("baskakov", "eq_g", 1), ("bbh", "eq_u", 3), ("mkz", "eq_j", 0),
    ])
    def test_an_operator_not_affine_in_n_never_passes(self, family, spec, n_max, monkeypatch):
        build = getattr(exactalg, spec)

        def quadratic(n):
            op = build(n)
            return exactalg.OdeSpec(op.label, op.a2, op.a1, op.a0 + n * n)

        monkeypatch.setattr(exactalg, spec, quadratic)
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(ArithmeticError, match="not affine"):
            run(["verify", "--family", family, "--n-max", str(n_max)])
        assert "OK" not in out.getvalue()

    @pytest.mark.parametrize("family, var, wrong", [
        ("baskakov", "w", (1, -1, 1, 1)),
        ("baskakov", "u", (0, 1, 2, -1)),
        ("mkz", "u", (0, 1, 1, 1)),
        ("bbh", "s", (2, 1, 0, 2)),
        ("bbh", "v", (-1, 1, 1, 1)),
    ])
    def test_a_wrong_map_fails_the_substitution(self, family, var, wrong, monkeypatch):
        monkeypatch.setitem(exactalg.SERIES_MAPS, var, wrong)
        code, out, _ = invoke(["verify", "--family", family, "--n-max", "5"])
        assert code == 1 and "substitution: FAIL" in out

    @pytest.mark.parametrize("family, change", [
        ("bbh", {"to_base": (1, 0, 2, 1)}),
        ("mkz", {"to_base": (1, 0, -2, 1)}),
        ("bbh", {"shift": 1}),
        ("mkz", {"shift": 2}),
    ])
    def test_a_wrong_row_fails_the_substitution(self, family, change, monkeypatch):
        # the item proves the map and shift of the family's row of
        # core._FAMILIES, the ones the float routes run
        from sqsums import core

        monkeypatch.setitem(core._FAMILIES, family, core._FAMILIES[family]._replace(**change))
        code, out, _ = invoke(["verify", "--family", family, "--n-max", "4"])
        assert (code, out) == (1, "ode: OK\nsubstitution: FAIL\n")

    def test_x_form_runs_only_for_the_witness(self, monkeypatch):
        calls = []
        x_form = exactalg.x_form

        def counted(*args):
            calls.append(args)
            return x_form(*args)

        def clear():
            for build in (exactalg.g_rational, exactalg.j_rational, exactalg.u_rational):
                build.cache_clear()

        monkeypatch.setattr(exactalg, "x_form", counted)
        for family, row in families.FAMILIES.items():
            if row.witness is None:
                continue
            first, (_, build) = families.least_index(FamilyId(family)), row.witness
            clear()
            assert invoke(["verify", "--family", family, "--n-max", "13"])[0] == 0
            assert calls == []
            assert invoke(["verify", "--family", family, "--n-max", "13", "--format", "json"])[0] == 0
            during_verify = calls[:]
            calls.clear()
            clear()
            build(first)
            assert during_verify == calls and (calls or family == "bernstein")
            calls.clear()


class TestBounds:
    def test_anchor_point(self):
        code, out, _ = invoke(["bounds", "--family", "szasz", "-n", "3", "-x", "0"])
        assert code == 0
        assert "margin=0" in out

    def test_grid_sweep_json(self):
        code, out, _ = invoke(
            ["bounds", "--family", "mkz", "-n", "2", "--grid", "0:0.9:17", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert float(doc["report"]["min_margin"]) >= -1e-12

    @pytest.mark.parametrize("family", ["baskakov", "mkz"])
    def test_large_index_on_the_standard_grid(self, family):
        # the central-binomial envelope overflowed in its factors at x = 1e6
        # from baskakov n = 49 on; every margin holds at n = 60
        code, out, err = invoke(["bounds", "--family", family, "-n", "60", "--format", "json"])
        assert code == 0, err
        points = json.loads(out)["report"]["points"]
        assert len(points) > 200 and all(float(p["min_margin"]) >= -1e-12 for p in points)

    @pytest.mark.parametrize("family", ["bernstein", "bbh"])
    def test_index_past_the_float_range_of_the_centred_coefficients(self, family):
        # F_n's centred coefficients pass the double range from n = 515 on;
        # the float route sums U_n's, each at most 1
        code, out, err = invoke(["bounds", "--family", family, "-n", "600", "--format", "json"])
        assert code == 0, err
        points = json.loads(out)["report"]["points"]
        assert len(points) > 200 and all(float(p["min_margin"]) >= -1e-12 for p in points)


# (the family's options, its least index, the key its bounds message names,
# whether it has a verify suite)
_LEAST = [
    pytest.param(["--family", "bernstein"], 1, "bernstein", True, id="bernstein"),
    pytest.param(["--family", "bbh"], 1, "bbh", True, id="bbh"),
    pytest.param(["--family", "baskakov"], 1, "baskakov", True, id="baskakov"),
    pytest.param(["--family", "mkz"], 0, "mkz", True, id="mkz"),
    pytest.param(["--family", "szasz"], 1, "szasz", False, id="szasz"),
    pytest.param(["--family", "general", "-c", "-1"], 1, "bernstein", True, id="general-c-1"),
    pytest.param(["--family", "general", "-c", "1"], 1, "baskakov", True, id="general-c1"),
]


@pytest.mark.parametrize("family, least, key, suite", _LEAST)
def test_the_least_index_agrees_across_verbs(family, least, key, suite):
    # each verb the family has runs at the least index and exits 2 one below it
    name = family[1]
    verbs = [("bounds", "-n", f"family {key!r} bounds need n >= {least}, got n={least - 1}")]
    if suite:
        verbs.append(("verify", "--n-max", f"verify --n-max must be >= {least} for {name!r}, got {least - 1}"))
    for verb, flag, message in verbs:
        assert invoke([verb, *family, flag, str(least)])[0] == 0
        assert invoke([verb, *family, flag, str(least - 1)]) == (2, "", f"error: {message}\n")


class TestScan:
    def test_logconvexity_reports_and_exits_zero(self):
        code, out, _ = invoke(
            [
                "scan", "--family", "bernstein", "-n", "2",
                "--kind", "logconvexity", "--count", "64", "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["status"]["status"] == "unproven"

    def test_ode_scan(self):
        code, out, _ = invoke(
            [
                "scan", "--family", "szasz", "-n", "2",
                "--kind", "ode", "--grid", "0.5:3:6", "--step", "0.001",
            ]
        )
        assert code == 0
        assert "violations=0" in out

    def test_monotonicity_scan_csv(self):
        code, out, _ = invoke(
            ["scan", "--family", "bernstein", "-n", "3", "--kind", "monotonicity", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "x,margin"

    @pytest.mark.parametrize(
        "family",
        [
            ["--family", "szasz", "-n", "3"],
            ["--family", "baskakov", "-n", "3"],
            ["--family", "bbh", "-n", "3"],
            ["--family", "mkz", "-n", "3"],
            ["--family", "general", "-c", "-1/2", "-n", "3/2"],
            ["--family", "general", "-c", "2", "-n", "3"],
        ],
        ids=lambda a: "-".join(a[1::2]),
    )
    def test_monotonicity_rejects_other_families(self, family):
        code, out, err = invoke(["scan", *family, "--kind", "monotonicity"])
        assert code == 2
        assert out == ""
        assert "Bernstein" in err

    def test_monotonicity_accepts_general_bernstein(self):
        argv = ["--kind", "monotonicity", "--format", "json"]
        _, named, _ = invoke(["scan", "--family", "bernstein", "-n", "3", *argv])
        code, general, _ = invoke(["scan", "--family", "general", "-c", "-1", "-n", "3", *argv])
        assert code == 0
        assert json.loads(general)["report"] == json.loads(named)["report"]

    def test_convexity_keeps_a_fractional_index(self):
        argv = ["scan", "--family", "baskakov", "--kind", "convexity", "--grid", "0:5:9", "--format", "json"]
        _, frac, _ = invoke(argv + ["-n", "5/2"])
        _, two, _ = invoke(argv + ["-n", "2"])
        assert json.loads(frac)["report"]["subject"] == {"family": "baskakov", "n": "5/2"}
        assert json.loads(frac)["report"]["margins"] != json.loads(two)["report"]["margins"]

    def test_exact_margins_print_past_the_int_string_limit(self):
        # the margins at n = 400 have more digits than str() converts by default
        argv = ["scan", "--family", "baskakov", "-n", "400", "--kind", "logconvexity", "--grid", "511:512:2"]
        code, out, err = invoke(argv + ["--format", "json"])
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        code, text, err = invoke(argv)
        assert (code, err) == (0, "")
        assert f"min_margin={report['min_margin']} " in text
        want = analysis.logconvexity_scan(Params(400, 1), grid=[Fraction(511), Fraction(512)])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert report["margins"] == [f"{m.numerator}/{m.denominator}" for m in want.margins]
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(report["min_margin"]) > limit

    def test_an_index_past_the_int_string_limit_is_a_usage_error(self):
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        code, out, err = invoke(["scan", "--family", "baskakov", "-n", digits, "--kind", "logconvexity"])
        assert (code, out) == (2, "")
        assert err.startswith("error: option -n:")

    def test_ode_scan_through_a_vanishing_scale(self):
        # at x = 1, the midpoint of I_c for c = -1/2, a2 and a0 vanish and the
        # symmetric S' is exactly 0 at odd l: the residual is 0 as well.  At
        # the step 2^-10, 1 - h and 1 + h (and 1 - 2h, 1 + 2h) are mirror
        # images that the closed form's reflection maps to equal bits
        argv = ["scan", "--family", "general", "-c", "-1/2", "-n", "3/2", "--kind", "ode"]
        code, out, err = invoke(argv + ["--grid", "0.2:1.8:5", "--step", "0.0009765625", "--format", "json"])
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["grid"][2] == "1" and report["margins"][2] == "0"
        assert report["violations"] == []

    @pytest.mark.parametrize("kind", ["ode", "logconvexity"])
    @pytest.mark.parametrize("family", ["bbh", "mkz"])
    def test_substitution_families_have_no_ode_or_logconvexity_scan(self, family, kind):
        code, out, err = invoke(
            ["scan", "--family", family, "-n", "3", "--kind", kind, "--grid", "0.1:0.5:5"]
        )
        assert (code, out) == (2, "")
        assert f"substitution family {family!r}" in err

    @pytest.mark.parametrize(
        "family, grid, points",
        [("bernstein", "0:1:5", ["0", "1/4", "1/2", "3/4", "1"]), ("baskakov", "0:4:3", ["0", "2", "4"])],
    )
    def test_exact_logconvexity_honours_the_grid(self, family, grid, points):
        argv = ["scan", "--family", family, "-n", "3", "--kind", "logconvexity", "--format", "json"]
        code, out, _ = invoke(argv + ["--grid", grid])
        report = json.loads(out)["report"]
        assert code == 0 and report["status"]["route"] == "exact"
        assert [g.replace("/1", "") for g in report["grid"]] == points
        _, full, _ = invoke(argv)
        full = json.loads(full)["report"]
        assert len(full["grid"]) == 1024
        for x, margin in zip(report["grid"], report["margins"]):
            if x in full["grid"]:
                assert full["margins"][full["grid"].index(x)] == margin


class TestJsonSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--family", "bernstein", "-n", "2", "-x", "0.5", "--format", "json"],
            ["table", "--family", "szasz", "-n", "1", "--grid", "0:2:3", "--format", "json"],
            ["verify", "--family", "bbh", "--n-max", "2", "--format", "json"],
            ["bounds", "--family", "baskakov", "-n", "1", "-x", "0.5", "--format", "json"],
            [
                "scan", "--family", "baskakov", "-n", "1",
                "--kind", "logconvexity", "--count", "32", "--format", "json",
            ],
            ["info", "--family", "general", "-c", "-1/2", "-n", "3/2", "--format", "json"],
        ],
    )
    def test_documents_validate(self, argv):
        jsonschema = pytest.importorskip("jsonschema")
        code, out, _ = invoke(argv)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, OUTPUT_SCHEMA)
        assert doc["versions"]["sqsums"]

    def test_rationals_are_strings(self):
        code, out, _ = invoke(["info", "--family", "general", "-c", "-1/2", "-n", "3/2", "--format", "json"])
        doc = json.loads(out)
        assert doc["params"]["c"] == "-1/2"
        assert doc["params"]["base_params"]["l"] == 3

    def test_verify_serializes_exact_witnesses(self):
        code, out, _ = invoke(["verify", "--family", "baskakov", "--n-max", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        witness = doc["report"]["witnesses"]["g_rational"]
        assert witness["num"]["coeffs"] == ["1/1"]
        assert witness["den"]["coeffs"] == ["1/1", "2/1"]


# Leaves of every json type, with the strings json must escape (quotes,
# backslashes, control characters, non-ASCII text and surrogates) and the
# floats it spells out; containers nest them, empty ones included.
_JSON_TEXT = st.text(st.characters(blacklist_categories=()), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f\x7f", "é", "€", "\U0001d11e", "\ud800"])
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | _JSON_TEXT
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES, st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=3), _JSON_VALUES)
@example([], {}, {"a": [[], {}, ()], "b": {"c": {}}})
def test_json_writer_matches_json_dumps(value, params, body):
    buf = io.StringIO()
    cli._write_json(value, buf)
    assert buf.getvalue() == json.dumps(value, indent=2) + "\n"
    doc = {"command": "c", "params": params, "report": body, "versions": {"sqsums": sqsums.__version__}}
    buf = io.StringIO()
    cli._emit_json(buf, "c", params, report=body)
    assert buf.getvalue() == json.dumps(doc, indent=2) + "\n"


class _RecordingStream:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("count", [cli._CHUNK, 5 * cli._CHUNK + 3])
def test_json_writer_streams_in_chunks(count):
    # a list of four-digit integers: every piece ("[\n  ", ",\n  ", each
    # number) is 4 characters and an element is 2 pieces, so a write of at
    # most one chunk of pieces plus one element is at most (_CHUNK + 2) * 4
    # characters
    values = list(range(1000, 1000 + count))
    stream = _RecordingStream()
    cli._write_json(values, stream)
    assert "".join(stream.writes) == json.dumps(values, indent=2) + "\n"
    assert len(stream.writes) > 1
    assert max(map(len, stream.writes)) <= (cli._CHUNK + 2) * 4
    # a verb's document, nested one level deeper, streams as well
    stream = _RecordingStream()
    cli._emit_json(stream, "c", {}, results=values)
    doc = {"command": "c", "params": {}, "results": values, "versions": {"sqsums": sqsums.__version__}}
    assert "".join(stream.writes) == json.dumps(doc, indent=2) + "\n"
    assert len(stream.writes) > 1


def _json_text(value, pad):
    """The text ``cli._json`` writes of value at pad, flushed chunks first."""
    pending, written = [], []
    cli._json(value, pad, pending, written.append)
    return "".join(written + pending)


_BOUND_FAMILIES = [FamilyId(name) for name in ("bernstein", "szasz", "baskakov", "bbh", "mkz")] + [
    FamilyId("general", c) for c in (-1, 0, 1)]


@pytest.mark.parametrize("family", _BOUND_FAMILIES, ids=lambda f: f"{f.name}{'' if f.c is None else f.c}")
@pytest.mark.parametrize("n", [1, 3])
def test_bound_point_text_is_the_json_of_its_record(family, n):
    # every point of the standard grid (the domain's ends among them; at
    # n = 1 bernstein's note), at the indent the bounds document puts it
    reports = bounds.bound_reports(family, n, bounds.standard_grid(family))
    for r in reports:
        for pad in ("\n", "\n      "):
            assert cli._bound_text(pad)(r) == _json_text(r.to_json(), pad)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_BOUND_FAMILIES), st.integers(0, 10 ** 30), _FLOATS, _FLOATS,
    st.lists(st.tuples(_JSON_TEXT, _FLOATS), max_size=3), _FLOATS, st.lists(_JSON_TEXT, max_size=3),
    st.integers(0, 5),
)
def test_bound_point_text_matches_the_writer_on_any_fields(family, n, x, s, marks, margin, notes, depth):
    # labels and notes json must escape, floats it spells out, empty lists
    r = bounds.BoundReport(family, n, x, s, tuple(marks), margin, tuple(notes))
    pad = "\n" + "  " * depth
    assert cli._bound_text(pad)(r) == _json_text(r.to_json(), pad)


def test_records_stream_in_chunks():
    # a list of records streams as any list does, a chunk of items at a time,
    # and an empty one is "[]"
    family = FamilyId("bernstein")
    reports = bounds.bound_reports(family, 3, bounds.standard_grid(family) * 3)
    stream = _RecordingStream()
    cli._write_json({"points": cli._Records(reports, cli._bound_text)}, stream)
    assert "".join(stream.writes) == json.dumps({"points": [r.to_json() for r in reports]}, indent=2) + "\n"
    longest = max(len(cli._bound_text("\n    ")(r)) for r in reports) + 6
    assert len(stream.writes) > 1 and max(map(len, stream.writes)) <= (cli._CHUNK + 2) * longest
    assert _json_text({"points": cli._Records([], cli._bound_text)}, "\n") == json.dumps({"points": []}, indent=2)


def _json_doc_cases():
    yield "eval --family bernstein -n 2 -x 0.5"
    yield "eval --family general -c -1/2 -n 3/2 -x 1"
    yield "table --family szasz -n 3 --grid 0:10:11"
    yield "verify --family baskakov --n-max 3"
    yield "verify --family mkz --n-max 2"
    yield "scan --family bernstein -n 5 --kind logconvexity --count 9"
    yield "scan --family bernstein -n 4 --kind monotonicity --count 5"
    yield "scan --family szasz -n 2 --kind ode --grid 1/2:3:8"
    yield "scan --family general -c 1/3 -n 2 --kind logconvexity --grid 1/10:5:9"
    yield "scan --family bernstein -n 3 --kind convexity --grid 0:1:9"
    yield "info --family general -c -1/2 -n 3/2"
    yield "info --family mkz"
    ends = {"bernstein": ("0", "1"), "general -c -1": ("0", "1"), "mkz": ("0",)}
    grids = {"bernstein": "0:1:5", "general -c -1": "0:1:5", "mkz": "0:1/2:5"}
    for family in ("bernstein", "szasz", "baskakov", "bbh", "mkz", "general -c -1", "general -c 0", "general -c 1"):
        for x in ends.get(family, ("0",)):
            yield f"bounds --family {family} -n 1 -x {x}"
        yield f"bounds --family {family} -n 1 --grid {grids.get(family, '0:20:5')}"


@pytest.mark.parametrize("command", list(_json_doc_cases()))
def test_every_json_document_is_json_dumps_of_itself(command):
    # the writer's text, the bounds points' own text included, is what json
    # writes of the document it parses to
    _, out, err = invoke([*command.split(), "--format", "json"])
    assert err == "" and out == json.dumps(json.loads(out), indent=2) + "\n"


# SHA-256 of the stdout of each command, recorded before the exact layer moved
# from gcd-reduced Fraction coefficients to unreduced integer-coefficient
# pairs.  The witnesses, the item verdicts and every printed margin must stay
# byte-identical across changes of the exact representation.
GOLDEN = {
    ("verify", "--family", "bernstein", "--n-max", "13", "--format", "json"):
        "33777d40c37c78024ca339c68993e4e32355893efba281166c97b47b12d00c39",
    ("verify", "--family", "baskakov", "--n-max", "13", "--format", "json"):
        "b04add10a6fb513539d1b1c7ec87200fa2b5512e81d638f394ef1a88fcddd29a",
    ("verify", "--family", "bbh", "--n-max", "13", "--format", "json"):
        "4bb0d5d66cfb9ea4b376845208cf4523612650a89b60bf6787b42f94c0a5ee05",
    ("verify", "--family", "mkz", "--n-max", "13", "--format", "json"):
        "f63fa304c0bc790c381a0f402cb1386fb1b681749312482dfbe201dbc7346b17",
    ("scan", "--family", "bernstein", "-n", "5", "--kind", "logconvexity", "--format", "json"):
        "83fd6179dd978c22773a8a99d3c1534c6ab92a6dfbb70d4e85c2627f4da40648",
    ("scan", "--family", "bernstein", "-n", "20", "--kind", "logconvexity", "--format", "json"):
        "b3ff808730edd17fa29c603db1757ee8b1e2131ea457a37941f16f38c2e4a9a9",
    ("scan", "--family", "baskakov", "-n", "5", "--kind", "logconvexity", "--format", "json"):
        "9c2bf170f1bb93b65720504f1ee4c3344b9a72200fb35c82c6a5cab1d82ebb12",
    ("scan", "--family", "baskakov", "-n", "20", "--kind", "logconvexity", "--format", "json"):
        "093008a2aca40d0fc49f5a567280371842f8637066198cc82813993944724937",
    # Recorded before the per-family dispatch in core, bounds, cli and
    # analysis moved into one family table: the bound formulas and exact
    # values per family, the general-c aliases, the info classification,
    # the convexity margins and the bbh/mkz substitutions must not move.
    ("bounds", "--family", "bernstein", "-n", "3", "--format", "json"):
        "15ea7dc034e1821de95e47c6ffd29df55cf9fc7351e8f2ae5514ceb802048fa5",
    # re-recorded with the Hankel kernel past 2 n x = 600, which moved
    # s_value from 5.7e-9 to 2.1e-16 of scipy's i0e at x = 1e6
    ("bounds", "--family", "szasz", "-n", "3", "--format", "json"):
        "c54606aad74b42fe724fe542d1e7d64a095479ba1e2118561e51de183d0152b8",
    # the baskakov, bbh, mkz and general -c 1 bounds digests (here and at
    # n = 30 below) were re-recorded when bbh and mkz took their base rows'
    # bounds at the base index and point and the central-binomial envelope
    # became beta_m (2 + 2w)^m w (for mkz with w = (1-x)/(1+x) formed from
    # its own x); largest relative change of each bound, n = 3: baskakov and
    # general -c 1 central_binomial 4.8e-16 (refined_power unchanged), bbh
    # inv_sqrt 4.0e-16 (and refined_power added), mkz refined_power 2.2e-16
    # and central_binomial 6.4e-16
    ("bounds", "--family", "baskakov", "-n", "3", "--format", "json"):
        "ff4c848a8f493de749ef7becb31eb270f6cedf95e5611ee53ae71d445921bfe6",
    ("bounds", "--family", "bbh", "-n", "3", "--format", "json"):
        "6a7e383bfe384207fc1f817b3c0a885a126773b2ac07221f3e1fa72410af4706",
    ("bounds", "--family", "mkz", "-n", "3", "--format", "json"):
        "4b4498803f2b4c6b9bf366acd29af4e3f79b1918b00a18803ad3b3dbc43cdcd7",
    ("bounds", "--family", "general", "-c", "-1", "-n", "3", "--format", "json"):
        "07f78a8fd09695ea2b23982dd662b9b006ab2c837a893ff930e76dd1de04ba0f",
    ("bounds", "--family", "general", "-c", "0", "-n", "3", "--format", "json"):  # as szasz
        "0bacefe83e30a36687c5367f5a6a3b863e08c9c33729ea589220173e861e4a3e",
    ("bounds", "--family", "general", "-c", "1", "-n", "3", "--format", "json"):
        "0cec689b7c6efc8192086ad0bae838e922cff3ca6c2cfea84d283b2e89461f0e",
    # Recorded before json moved to the one indent-2 writer and the exact
    # float paths to coefficients converted once: n = 30 is the largest
    # index the benchmark runs, and n = 1 has a non-empty notes list.
    # Re-recorded (bernstein, bbh and both mkz at n = 30) when the float
    # sums of the exact families became exactly 1 where their series
    # variable is 1: s_value at x = 0 (and x = 1 for bernstein) went from
    # 0.99999999999999989 to 1, and its margin from 1.1e-16 to 0
    ("bounds", "--family", "bernstein", "-n", "30", "--format", "json"):
        "768fea5e907e72ddfc34a970ea48e3e1210d51dd6ec9c5922fc009cad4f0f652",
    # re-recorded as the n = 3 bounds above; n = 30: bbh inv_sqrt 3.2e-15
    # (refined_power added), baskakov central_binomial 5.6e-15, mkz
    # refined_power 2.6e-16 and central_binomial 4.9e-15 (text and csv alike)
    ("bounds", "--family", "bbh", "-n", "30", "--format", "json"):
        "c82f45e9e495ef232c0dfa2177363dc888b33dd4acd23c78b8141094161bd6fc",
    ("bounds", "--family", "baskakov", "-n", "30", "--format", "json"):
        "781347d4945f2e42c88c69097d30ebd8517f008da637a46728fffc7258a85ef5",
    ("bounds", "--family", "mkz", "-n", "30", "--format", "json"):
        "7c7c61daa9192a9feec27bf83582b65d27616789da263a094a6be4c32aa4a621",
    ("bounds", "--family", "szasz", "-n", "30", "--format", "json"):
        "b5105540f59a5807b03e50e437a2ecf80a6ea436f48287d779b1e238ec900fb4",
    ("bounds", "--family", "bernstein", "-n", "1", "--format", "json"):
        "2fc2af32700fef49386096824cb4e5843040c1bed9445f3779285e6451819748",
    ("bounds", "--family", "mkz", "-n", "30", "--format", "text"):
        "91dd79e410bef764863081e060dccdbcf0743134c06c812c7a9e81bc05e87c4f",
    ("bounds", "--family", "baskakov", "-n", "30", "--format", "csv"):
        "87b6d65ca277a0bb0c9c1d3f244ba89b511e5aab20658507bbdffd319936b1eb",
    ("info", "--family", "bernstein", "-n", "3", "--format", "json"):
        "20174767a19df684220fe222e6582161e21f6b552c4a589e294c5043e8bfbb16",
    ("info", "--family", "szasz", "-n", "3", "--format", "json"):
        "f3154976e7350ac7a6cba76b50655e26b46748f1921ccd47520397162f56a962",
    ("info", "--family", "baskakov", "-n", "3", "--format", "json"):
        "6baec66b2ef85355fec19b83e195897ef8ef972c2176d34973259d571ed5039f",
    ("info", "--family", "bbh", "-n", "3", "--format", "json"):
        "2dd65abadff76962845a772d006d08cc71745f1c909ffab6bb45ffe84e7b21e0",
    ("info", "--family", "mkz", "-n", "3", "--format", "json"):
        "6c546c885a1e440e372f68bd733569d5ece40bb3e4c13bc93ffea75e1e102228",
    ("info", "--family", "general", "-c", "0", "-n", "3", "--format", "json"):
        "6e67614b2906de20ce6027faec4d112ec68dc1fd23e4869fe62bee9ef29a68a5",
    ("info", "--family", "general", "-c", "1/2", "-n", "3", "--format", "json"):
        "a14cee8778ef629c433df8bb80f7a04cb9fe390c438cd34612a0c144a8cd68d7",
    ("verify", "--family", "general", "-c", "-1", "--n-max", "6", "--format", "json"):
        "3fb7b72e6abd3a728a4df31e26a09b10c28c2ce87c8751261be998204b8e9484",
    ("verify", "--family", "general", "-c", "1", "--n-max", "6", "--format", "json"):
        "bd557888e1e864e6902f7fc54971e1ce1ea33dee1bd4ee744be695a89480f726",
    ("scan", "--family", "bernstein", "-n", "3", "--kind", "convexity", "--grid", "0:1:11", "--format", "json"):
        "7f6a67cdec8fd0ec605f58c36685519cdfd676ba38d0676f02d902425df30900",
    ("scan", "--family", "szasz", "-n", "3", "--kind", "convexity", "--grid", "0:5:11", "--format", "json"):
        "31710fab776a4688a8c192b63ca336eb3087175a6a2e9bf2f8e7ad047dfe2b25",
    # re-recorded with the c < 0 closed form on the Legendre recurrence and
    # the log sum's recalibrated claim: the closed form's value did not move
    # (1.8e-16 off the exact F_3(2/3)), only its claim (1.3e-15 -> 4.5e-16)
    # and the series' (5.4e-16 -> 1.5e-15).  Re-recorded with the c < 0
    # quadrature claiming the closed form's 4 l units: its value did not
    # move (1.8e-17 off), only its claim (5.6e-17 -> 4.5e-16)
    ("eval", "--family", "bbh", "-n", "3", "-x", "2", "--format", "json"):
        "54fa86c88c6d88763e33722df48045b34562781b542a72552037adb34fc916ef",
    # re-recorded with the Legendre recurrence and the reflected rule at
    # integer a = n/c: closed form 5.1e-16 -> 1.5e-16 and quadrature
    # 2.4e-16 -> 1.5e-16 of the exact G_4(1)
    # re-recorded when the c > 0 series claimed its rounding (only its err
    # moved; its value is 5.2e-16 off the exact G_4(1), within both claims)
    ("eval", "--family", "mkz", "-n", "3", "-x", "1/2", "--format", "json"):
        "0eecc1e755c5f31b99fa00f8985e9d1f89d9072934343384a200940352801d81",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda a: "-".join(a[0:5:2]))
def test_golden_bytes(argv):
    code, out, _ = invoke(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def _table(family, n, grid, fmt="csv"):
    return ("table", "--family", *family, "-n", n, "--grid", grid, "--format", fmt)


# Recorded before `table` moved from per-point route calls to the grid
# routes: the criterion-1 battery (c = -1, -1/2, 0, 1, 2 at two indices,
# 101 points on [0, min(sup, 20)]; szasz n = 25 enters the mu > 300 peak
# window past x = 12), a c = 2 grid whose closed form handed over to
# quadrature past x = 199.5 (at a = 5/2 it now runs the recurrence at every
# x), and one json table.
#
# The seven tables with c >= 0 series rows below the switches (all but
# bernstein, general -c -1/2 and general -c 2 on 100:400) were re-recorded
# when those rows' claims came to cover their rounding; only the err column
# of series rows moved.  Series rows missing their own claim against 40-digit
# mpmath, old -> new: szasz n = 5 71 -> 0 and n = 25 47 -> 0 (the c = 0
# direct sum claimed its tail alone), baskakov n = 5 63 -> 0 and n = 25
# 89 -> 0, general -c 2 n = 5 56 -> 0 and n = 25 89 -> 0, general -c 1/2
# 6 -> 0 (the c > 0 walk claimed 1e-15 beyond its tail).
GOLDEN_TABLE = {
    # re-recorded with the closed form exactly 1 at the right endpoint, where
    # it printed the series' top term: 0.99999999999999956,
    # 1.0000000000000053 and 1.0000000000000009 in these three tables.
    # Re-recorded with the c < 0 closed form on the Legendre recurrence (its
    # values and claims moved) and the log sum's recalibrated claim (only the
    # series' err moved; no quadrature byte moved).  Worst closed-form error
    # against the exact F_l(|c|x), old -> new: l = 5 5.3e-15 -> 8.4e-16,
    # l = 25 3.3e-14 -> 4.4e-15; closed-form rows missing their claim 0 -> 0
    # at l = 5 and 1 -> 0 at l = 25.  Re-recorded with the c < 0 quadrature
    # claiming the closed form's 4 l units of 2^-53 instead of 1e-16 (only
    # the err column of quadrature rows moved); quadrature rows missing their
    # claim against the exact F_l(|c|x), old -> new: l = 5 24 -> 0 and
    # l = 25 32 -> 0 in both the bernstein and the c = -1/2 tables (worst
    # relative error 3.3e-16 and 1.3e-15)
    _table(["bernstein"], "5", "0:1:101"):
        "5cc7f4fefc16b30df9f735e3efe26dd7bd70ce4852e85fb8222f542ebb3ec1a7",
    _table(["bernstein"], "25", "0:1:101"):
        "6e4348944d59c917937040ce1fb658035232811541145afa0ccb222465cfc21d",
    _table(["general", "-c", "-1/2"], "5/2", "0:2:101"):
        "a7dbb0844656bac55136ad4a49150a1a0c72edff8b21223b105dd0eebaedbb6e",
    _table(["general", "-c", "-1/2"], "25/2", "0:2:101"):
        "e91a038572cc98abebddac25bb93a3efa0b3ceed482bf92a923fe642c6483197",
    # both szasz tables re-recorded with c = 0 quadrature on the tanh-sinh
    # rule (only quadrature rows changed); worst relative error of those
    # rows against exp(-2 n x) I0(2 n x) at 40 digits, old -> new: n = 5
    # 1.2e-15 -> 3.0e-16, n = 25 2.4e-14 -> 3.3e-16; rows missing their own
    # claim 29 -> 0 and 26 -> 0.  Both re-recorded again with the closed
    # form's I0 power series below 2 n x = 600 claiming the series route's
    # rounding model instead of 1e-15 (only the err column of closed-form
    # rows moved); closed-form rows missing their claim at 40 digits, old ->
    # new: n = 5 12 -> 0 (worst 1.6e-15), n = 25 17 -> 0 (worst 1.4e-14)
    _table(["szasz"], "5", "0:20:101"):
        "f8d5c5294c961f0b9b677fb7fe1f5af21dbd5c096a82b54a255b8b8240fcb77e",
    # re-recorded with Loader's anchor and the Hankel kernel past n x = 12:
    # series and closed form went from 1.3e-12 to at most 2.1e-15 of i0e
    _table(["szasz"], "25", "0:20:101"):
        "efe79b9527f0b8e3696f45c9a157821363fb4a1d20adaf0ff90b673905b4e720",
    # re-recorded with the Legendre recurrence and the reflected rule at
    # integer a = n/c; worst relative error against the exact G_n, old -> new:
    # n = 5 closed form 1.3e-14 -> 1.7e-15, quadrature 1.7e-13 -> 4.3e-16;
    # n = 25 closed form 7.3e-14 -> 9.1e-15, quadrature 1.0e-12 -> 1.3e-15
    _table(["baskakov"], "5", "0:20:101"):
        "491d31925588243af207d4b4f226e551e1c7776068006530b7645da42e509b16",
    _table(["baskakov"], "25", "0:20:101"):
        "92c33380df78149adee3b5aab4b34b673f350998ea600337a7dc96535338a6c0",
    # re-recorded with the AGM-seeded Legendre recurrence and the tanh-sinh
    # rule at half-integer a = n/2; worst relative error against mpmath's
    # Legendre function at 40 digits, old -> new: n = 5 closed form
    # 1.0e-14 -> 7.5e-16, quadrature 3.0e-13 -> 3.3e-16; n = 25 closed form
    # 6.9e-14 -> 4.1e-15, quadrature 3.0e-12 -> 7.0e-16; n = 5 on 100:400
    # closed form 7.0e-14 -> 5.3e-16, quadrature 3.9e-5 -> 1.7e-16; the
    # closed form missed its own claim at 149 of the 213 rows, now at none
    _table(["general", "-c", "2"], "5", "0:20:101"):
        "a48ec607c53977faf404c20e6afcb27ace1cf2a69a25b356e61fe4114aa8b09f",
    _table(["general", "-c", "2"], "25", "0:20:101"):
        "5e927ded276975da56980dcb95a2e265d02794edc5a58aa0a7943480dd5051c1",
    # re-recorded with the c > 0 series past u = 64 on the expansion about
    # z = 1 at whole 2a (only series rows changed): worst relative error
    # against mpmath's Legendre function at 40 digits 1.8e-13 -> 2.6e-16,
    # rows missing their own claim 10 -> 0
    _table(["general", "-c", "2"], "5", "100:400:11"):
        "4538004139480a7ae95dccbecfd9b818e646f7b8f795c1acea882d5ed9baa387",
    # re-recorded as the baskakov tables (a = 6): closed form 5.9e-15 ->
    # 1.2e-15, quadrature 6.9e-15 -> 2.8e-16
    _table(["general", "-c", "1/2"], "3", "0:10:21", "json"):
        "e41b59297d2e0ee7a31116a14e07db6a619c461efd13d5834f8cba9a2c6ea270",
}


@pytest.mark.parametrize("argv", list(GOLDEN_TABLE), ids=lambda a: " ".join(a[2:]))
def test_golden_table_bytes(argv):
    code, out, _ = invoke(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE[argv]


def _logconvex(family, *extra, n="7"):
    return ("scan", "--family", family, "-n", n, "--kind", "logconvexity", *extra)


# Recorded before the exact log-convexity margins moved from P/D^4 in x to
# the even polynomial R(t) in the paper's variables: a non-default count, a
# rational --grid (the float path), and the text and csv layouts.
GOLDEN_SCAN = {
    _logconvex("bernstein", "--count", "77", "--format", "json"):
        "a37455c2a01d218b9b7b528424b9468adcb4a17c0e2486df9e4138d79c0f29ab",
    _logconvex("bernstein", "--grid", "0:1/2:33", "--format", "json"):
        "766e6ad36c7d7315927688f80829cde22788050785d411eb8ee618f1ae3725d3",
    _logconvex("bernstein", "--format", "text"):
        "2d1e4d19dbb590b4206279a3443694247c459adeee7f223f74d23d94932b013d",
    _logconvex("bernstein", "--format", "csv"):
        "058a62cf546abcad0f5a3b535fa8c91b46a20b978d9a55ab779f85a664edc1c3",
    _logconvex("baskakov", "--count", "77", "--format", "json"):
        "18185b307c820cb0d3fe7b2d7a5ebafa8cbd7be5e8e9bd87b2e0a4ae3d7cedc4",
    _logconvex("baskakov", "--grid", "0:1/2:33", "--format", "json"):
        "2595f7b2024c0fe20e881e5a30ced42e6ad54a1ab5a0647405f1b93c4d0e2010",
    _logconvex("baskakov", "--format", "text"):
        "97456962f49ed1de5b9b8d211c10a515388c65ba6c814cbaca1d4b82e6117417",
    _logconvex("baskakov", "--format", "csv"):
        "e27cac2fdeb29dce63690f219030f6029375971d24701c7e4224aa0d01c24fa9",
    # Recorded before the scan moved to integer grid pairs and the grouped
    # pre-scaled Horner: the default grid at n = 19, --grid points that are
    # floats on the exact route, a finite-difference scan (float margins)
    # and the monotonicity scan.
    _logconvex("bernstein", "--format", "json", n="19"):
        "da09e4a81af47efec1b57ccf4b8d1cd5c76cfd35d7baea909807fc2c2ca5b1f5",
    _logconvex("baskakov", "--format", "json", n="19"):
        "9f5811161ffc1abf7d55d42cd8ce7829ba8a6b3434e27d9bb8e88cbd139b8c36",
    _logconvex("baskakov", "--grid", "0:1000:65", "--format", "json", n="19"):
        "eb3c88e6fb55a2ea0cc75e94f62a91aa1d53a8b5e5b64cace9d7c61404189f1b",
    # re-recorded with the Legendre recurrence at integer a = 14: against the
    # same differences of the exact S, the margins went from 3.2e-6 to
    # 1.2e-6 relative at worst
    _logconvex("general", "-c", "1/2", "--grid", "0:5:33", "--format", "json"):
        "b48957b7b2732a8552ffa0c1c1ec905f5ccb99c72a69f7c2bfd8f5f96134b488",
    ("scan", "--family", "bernstein", "-n", "7", "--kind", "monotonicity", "--format", "json"):
        "2c55ca8597a05f83a2641fbebd17485d4f414beaae7f0cf9f2b2c9f835360dde",
    ("scan", "--family", "bernstein", "-n", "7", "--kind", "monotonicity", "--count", "100", "--format", "csv"):
        "66c93e3dc0a283a94f94e35140cc8a20313602df223485a1e68e94495cfe5720",
}


def _scan_id(argv):
    # the family and the options after the kind; -n and the kind where they
    # differ from the first entries'
    n = ("-n", argv[4]) if argv[4] != "7" else ()
    kind = ("--kind", argv[6]) if argv[6] != "logconvexity" else ()
    return " ".join((argv[2], *argv[7:], *n, *kind))


@pytest.mark.parametrize("argv", list(GOLDEN_SCAN), ids=_scan_id)
def test_golden_scan_bytes(argv):
    code, out, _ = invoke(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SCAN[argv]


def _fd_scan(family, n, kind, grid, layout="json"):
    return ("scan", "--family", *family.split(), "-n", n, "--kind", kind, "--grid", grid, "--format", layout)


# The finite-difference scans (the ode kind, and log-convexity where Q has
# no exact form), recorded while each stencil point was one scalar closed
# form call: szasz; a = 6 on the Legendre rows; a = 7/4 past Z_SWITCH on
# the quadrature hand-over; c < 0 on interior points; log-convexity from
# the one-sided window at x = 0.
GOLDEN_FD_SCAN = {
    _fd_scan("szasz", "5", "ode", "1/10:5:101"):
        "264a02710cffbbf9344753b3ec6181dd20e259e6601cf83580cec8ce962ce729",
    _fd_scan("general -c 1/3", "2", "ode", "1/10:10:33"):
        "637979826f5f19183dc4c97b31877afbc88ef41cac587ba768088a900fb44c20",
    _fd_scan("general -c 2", "7/2", "ode", "1/10:400:64"):
        "a9c57e57f17d3f64f41e9fa45983f6e7eff1907bd77ab60c2841e8221753bc3e",
    _fd_scan("general -c -1/2", "3", "ode", "1/10:19/10:33", "csv"):
        "ada9c043e8756fa82ecc39c4caeb696c5a9bf6b893dbf0c2bcb1d041432b801f",
    _fd_scan("general -c 1/3", "2", "logconvexity", "0:10:257"):
        "d002cc27bd84dfdf1443849e852762457ada68ddd85d787e036c0d71ceefeda0",
    _fd_scan("general -c 2", "7/2", "logconvexity", "0:400:64"):
        "a14179b07a0dc7be8405a1113c2f3b52cabd9f2b97d206fc6a65a9dc3b6b615a",
    _fd_scan("general -c 2", "7/2", "logconvexity", "0:400:64", "text"):
        "8a163f8375950320dcb0b34be7505ade97b0423f56bc92b581cd704ef147a354",
    _fd_scan("general -c -1/2", "3", "logconvexity", "1/10:19/10:33"):
        "f09630b177c6603fca756b032b02fc5ef89693745ded1c26020dec027c3171c7",
}


@pytest.mark.parametrize("argv", list(GOLDEN_FD_SCAN), ids=" ".join)
def test_golden_finite_difference_scan_bytes(argv):
    code, out, err = invoke(list(argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FD_SCAN[argv]


def test_finite_difference_scan_errors_keep_their_text():
    # a route's error propagates; the ode scan's collar is a domain error
    with pytest.raises(OverflowError, match=r"^2nx is past the double range$"):
        invoke(list(_fd_scan("szasz", "2", "logconvexity", "1:1e308:3")))
    code, out, err = invoke(list(_fd_scan("general -c -1/2", "3", "ode", "1/10:2:5")))
    assert (code, out) == (2, "")
    assert err == "error: x=2.0 within 2h of the boundary of I_c = [0, 2]\n"


@pytest.mark.parametrize("argv", [
    _fd_scan("general -c -1/2", "3", "logconvexity", "0:2:33"),
    _fd_scan("general -c -1/3", "2", "logconvexity", "1/2:3:6"),
])
def test_logconvexity_scan_reaches_the_right_end(argv):
    # a stencil point past sup (x = 2.0002 for the first) was reported as
    # the user's point outside the domain
    code, out, err = invoke(list(argv))
    assert (code, err) == (0, "")
    _, end, count = argv[-3].split(":")
    doc = json.loads(out)["report"]
    assert float(doc["grid"][-1]) == float(end)
    assert len(doc["margins"]) == int(count)


class TestErrors:
    def test_domain_violation_names_point_and_domain(self):
        code, _, err = invoke(["eval", "--family", "bernstein", "-n", "2", "-x", "1.5"])
        assert code == 2
        assert "1.5" in err and "[0, 1]" in err

    def test_missing_required(self):
        code, _, _ = invoke(["eval", "--family", "bernstein", "-x", "0.5"])
        assert code == 2

    def test_unknown_verb(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_c_only_for_general(self):
        code, _, err = invoke(["eval", "--family", "szasz", "-c", "1", "-n", "1", "-x", "1"])
        assert code == 2
        assert "general" in err

    def test_info_classifies(self):
        code, out, _ = invoke(["info", "--family", "general", "-c", "0"])
        assert code == 0
        assert "szasz" in out

    @pytest.mark.parametrize("argv, head", [
        (["eval", "--family", "szasz", "-n", "2", "-x", "1e400"], "option -x: '1e400' is past"),
        (["bounds", "--family", "szasz", "-n", "2", "-x", "1e400"], "option -x: '1e400' is past"),
        (["table", "--family", "szasz", "-n", "2", "--grid", "0:1e400:3"], "option --grid: '1e400' is past"),
        (["table", "--family", "general", "-c", "-1/2", "-n", "2", "--grid=-1e400:1:3"], "option --grid: "),
        (["scan", "--family", "szasz", "-n", "2", "--kind", "logconvexity", "--grid", "1:1e400:3"], "option --grid: "),
        (["table", "--family", "szasz", "-n", "2", "--grid", "0:1/0:3"], "option --grid: '1/0' is not rational"),
    ])
    def test_point_past_the_double_range_is_a_usage_error(self, argv, head):
        # float(Fraction) raised OverflowError (ZeroDivisionError for 1/0)
        # out of the option's parse
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {head}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, head", [
        (["eval", "--family", "szasz", "-n", "1e400", "-x", "1"], "option -n: '1e400' is past the double range"),
        (["eval", "--family", "general", "-c", "1e400", "-n", "1", "-x", "1"], "option -c: '1e400' is past"),
        (["eval", "--family", "general", "-c", "1e-400", "-n", "1", "-x", "1"], "option -c: '1e-400' rounds to 0"),
        (["eval", "--family", "szasz", "-n", "1e-400", "-x", "1"], "option -n: '1e-400' rounds to 0"),
        (["bounds", "--family", "general", "-c", "-1e-400", "-n", "1", "-x", "1"], "option -c: '-1e-400' rounds"),
        (["table", "--family", "szasz", "-n", "1e400", "--grid", "0:1:3"], "option -n: '1e400' is past"),
    ])
    def test_parameter_outside_the_double_range_is_a_usage_error(self, argv, head):
        # n's or c's double was inf, an OverflowError out of Params.n_float
        # or c_float, or 0 while the value was not, and 2a = 2n/c at c's
        # double 0 (2*10^400 at c = 1e-400) overflowed in the series
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {head}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["scan", "--family", "szasz", "-n", "2", "--kind", "logconvexity", "--grid", "0:1e-300:3"],
        ["scan", "--family", "szasz", "-n", "2", "--kind", "ode", "--grid", "1:2:3", "--step", "1e-200"],
    ])
    def test_step_whose_square_underflows_is_a_domain_error(self, argv):
        # S'' divided by h*h = 0: a ZeroDivisionError traceback
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: x=") and "squares to 0" in err and err.count("\n") == 1


def test_closed_stdout_exits_without_a_traceback():
    # the reader of stdout is gone before the first write: the write's
    # BrokenPipeError ended in a traceback from the json writer
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sqsums.__file__))}
    argv = [sys.executable, "-m", "sqsums", "bounds", "--family", "bernstein", "-n", "30", "--format", "json"]
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("argv, message", [
    ("eval --family szasz -n 1 -x 1e17", "peak index of mu=1e+17 is past 2^53: the peak window cannot reach it"),
    ("eval --family general -c 1e-300 -n 1 -x 1", "|a| = |n/c| is past the 100000 steps of the Legendre recurrence"),
    ("eval --family general -c 1 -n 4/3 -x 1e6", "series did not converge; use the quadrature route"),
    ("eval --family general -c 1 -n 1e200 -x 5",
     "peak index of a=1e+200, u=5.0 is past 2^53: the peak window cannot reach it"),
    # the kernel's overflow names its route and what overflowed, where it
    # read "(34, 'Numerical result out of range')"
    ("eval --family general -c 1 -n 1e200 -x 1e-300",
     "series route: ((n + kc)/(k + 1))^2 in the c > 0 term ratio is past the double range"),
    # cx = inf away from whole 2a, where the peak read "cannot convert
    # float infinity to integer"
    ("eval --family general -c 1e200 -n 1/3 -x 1e200", "1 + 2cx is past the double range"),
])
def test_a_route_that_cannot_finish_prints_one_error_line(argv, message, monkeypatch, capsys):
    # a route's ArithmeticError ended in a traceback (the last case, in the
    # negative binomial peak's log, in a usage error "math domain error")
    monkeypatch.setattr(sys, "argv", ["sqsums", *argv.split()])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 1
    assert tuple(capsys.readouterr()) == ("", f"error: {message}\n")


class TestValidation:
    @pytest.mark.parametrize(
        "argv, least",
        [
            (["--family", "bernstein", "--kind", "logconvexity", "--count", "2"], 4),
            (["--family", "bernstein", "--kind", "logconvexity", "--count", "3"], 4),
            (["--family", "general", "-c", "-1", "--kind", "logconvexity", "--count", "3"], 4),
            (["--family", "bernstein", "--kind", "monotonicity", "--count", "1"], 2),
            (["--family", "bernstein", "--kind", "logconvexity", "--count", "0"], 1),
            (["--family", "baskakov", "--kind", "logconvexity", "--count=-5"], 1),
            (["--family", "szasz", "--kind", "ode", "--grid", "0.5:3:6", "--count", "0"], 1),
        ],
    )
    def test_scan_count_below_its_minimum(self, argv, least):
        # --count 2 and 3 raised ZeroDivisionError, 0 meant 1024 and -5
        # printed an empty report
        code, out, err = invoke(["scan", "-n", "3", *argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f">= {least}" in err

    @pytest.mark.parametrize(
        "family, kind, count",
        [("bernstein", "logconvexity", 4), ("bernstein", "monotonicity", 2), ("baskakov", "logconvexity", 1)],
    )
    def test_scan_count_at_its_minimum(self, family, kind, count):
        code, out, err = invoke(["scan", "--family", family, "-n", "3", "--kind", kind, "--count", str(count)])
        assert (code, err) == (0, "")
        assert f"points={count} " in out

    @pytest.mark.parametrize(
        "family, n_max, first",
        [("bernstein", "0", 1), ("bernstein", "-3", 1), ("baskakov", "0", 1), ("bbh", "0", 1), ("mkz", "-1", 0)],
    )
    def test_verify_n_max_below_the_first_index(self, family, n_max, first):
        # the suite's range was empty, and all() of nothing printed OK
        code, out, err = invoke(["verify", "--family", family, "--n-max", n_max])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f">= {first}" in err

    def test_verify_n_max_at_the_first_index(self):
        code, out, _ = invoke(["verify", "--family", "mkz", "--n-max", "0"])
        assert (code, out) == (0, "ode: OK\nsubstitution: OK\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-12", "1e-400"])
    def test_rtol_must_be_finite_and_positive(self, value):
        # --rtol inf printed a closed form of 0.047 against the true 1/11
        code, out, err = invoke(["eval", "--family", "baskakov", "-n", "1", "-x", "5", f"--rtol={value}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: option --rtol")

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-3"])
    def test_step_must_be_finite_and_positive(self, value):
        # --step nan ended in an ArithmeticError traceback
        argv = ["scan", "--family", "szasz", "-n", "2", "--kind", "ode", "--grid", "0.5:3:6"]
        code, out, err = invoke(argv + [f"--step={value}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: option --step")


class TestGrammar:
    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--family", "general", "-c", "-1/2", "-n", "3/2"],
            ["info", "--family=general", "-c=-1/2", "-n=3/2"],
            ["info", "--fam", "general", "-c-1/2", "-n3/2"],
            ["info", "-n", "3/2", "--famil=general", "-c", "-0.5"],
        ],
    )
    def test_option_spellings(self, argv):
        code, out, err = invoke(argv + ["--form", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]["c"] == "-1/2"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--family", "general", "-c", "--family", "szasz", "-n", "1", "-x", "1"],
            ["eval", "--f", "szasz", "-n", "1", "-x", "1"],  # --family or --format
            ["eval", "--family", "szasz", "-n", "1", "-x", "1", "--bogus"],
            ["eval", "--family", "szasz", "-n", "1"],
            ["eval", "--family", "sasz", "-n", "1", "-x", "1"],
            ["--family", "szasz", "eval", "-n", "1", "-x", "1"],
            ["frobnicate"],
            [],
        ],
    )
    def test_usage_errors(self, argv):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_help_lists_the_verbs(self, flag):
        code, out, err = invoke([flag])
        assert (code, err) == (0, "")
        assert out.startswith("usage: sqsums")
        for verb in ("eval", "table", "verify", "bounds", "scan", "info"):
            assert f"\n  {verb} " in out

    def test_verb_help_lists_its_options(self):
        code, out, err = invoke(["eval", "--help"])
        assert (code, err) == (0, "")
        for flag in ("--family", "-c", "-n", "-x", "--rtol", "--format"):
            assert f"\n  {flag} " in out
        assert "--grid" not in out
        _, scan, _ = invoke(["scan", "-h"])
        assert "\n  --count " in scan and "\n  --kind {ode,convexity,logconvexity,monotonicity} " in scan

    def test_help_before_a_later_error(self):
        code, out, _ = invoke(["table", "--bogus", "-h", "--grid"])
        assert code == 0 and out.startswith("usage: sqsums table")
        code, out, _ = invoke(["table", "--family", "bogus", "-h"])
        assert (code, out) == (2, "")


def test_run_imports_neither_argparse_nor_locale():
    # building an argparse tree cost about 1.9 ms of each operation, and its
    # gettext lookups imported locale
    script = (
        "import sys\n"
        "from sqsums import cli\n"
        "code = cli.run(['info', '--family', 'szasz'])\n"
        "print(code, sorted({'argparse', 'locale'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sqsums.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


# ---------------------------------------------------------------------------
# The argparse front end the option table replaced, kept as the reference
# for the table's parser.
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


def _positive(kind):
    def convert(text):
        if not 0 < (value := kind(text)) < math.inf:
            raise ValueError(text)
        return value

    return convert


def _rational(text):
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(text) from exc


# What each verb and scan kind reads besides --family, -c and --format: the
# options, those it requires, and a pair of which it reads at most one.
_ROWS = {
    "eval": ({"n", "rtol", "x"}, {"n", "x"}, ()),
    "table": ({"n", "rtol", "grid"}, {"n", "grid"}, ()),
    "verify": ({"n_max"}, set(), ()),
    "bounds": ({"n", "x", "grid"}, {"n"}, ("x", "grid")),
    "info": ({"n"}, set(), ()),
    "ode": ({"n", "kind", "grid", "step"}, {"n", "grid"}, ()),
    "convexity": ({"n", "kind", "grid"}, {"n", "grid"}, ()),
    "logconvexity": ({"n", "kind", "grid", "count"}, {"n"}, ("grid", "count")),
    "monotonicity": ({"n", "kind", "count"}, {"n"}, ()),
}
_SCAN_KINDS = ("ode", "convexity", "logconvexity", "monotonicity")
# The layouts of the verbs that write no csv.
_WRITES = {"verify": ("text", "json"), "info": ("text", "json")}
_UNSET = object()


def _argparse_parse(argv, strict=True):
    """(exit code, parsed values or None) of the argparse front end.

    ``strict`` adds the rejections of the option table: a non-finite or
    non-positive --rtol or --step, a --count below 1, a -c, -n or -x that is
    not rational (these three parse to Fractions), a --format the verb does
    not write (``_WRITES``), and the rules of
    ``_ROWS``: a verb has only the options it or one of its scan kinds reads,
    and a given option the scan kind does not read, a missing one the verb
    or kind requires and both of an exclusive pair are errors.
    """
    parser = _build_parser()
    defaults = {}
    for verb, sub in parser._actions[-1].choices.items() if strict else ():
        rows = _SCAN_KINDS if verb == "scan" else (verb,)
        keep = {"help", "family", "c", "format"}.union(*(_ROWS[row][0] for row in rows))
        for action in list(sub._actions):
            if action.dest not in keep:
                sub._remove_action(action)
                for flag in action.option_strings:
                    del sub._option_string_actions[flag]
                continue
            if action.dest == "format":
                action.choices = _WRITES.get(verb, action.choices)
            elif action.dest in ("rtol", "step", "count"):
                action.type = _positive(action.type)
            elif action.dest in ("c", "n", "x"):
                action.type = _rational
            if action.dest != "help":  # tell a given option from its default
                defaults[action.dest], action.default = action.default, _UNSET
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            values = vars(parser.parse_args(_normalize_argv(argv)))
        except SystemExit as exc:
            return exc.code, None
    if not strict:
        return 0, values
    reads, needs, pair = _ROWS[values["kind"] if values["verb"] == "scan" else values["verb"]]
    given = {key for key, value in values.items() if value is not _UNSET}
    reads = reads | {"verb", "family", "c", "format"}
    if given - reads or needs - given or len(given & set(pair)) > 1:
        return 2, None
    return 0, {key: defaults[key] if value is _UNSET else value for key, value in values.items() if key in reads}


def _table_parse(argv):
    """(exit code, parsed values or None) of the option table's parser."""
    try:
        parsed = _parse(list(argv))
    except ParameterError:
        return 2, None
    return 0, None if isinstance(parsed, str) else vars(parsed)


_VALUES = {
    "--family": (*FAMILY_NAMES, "bogus", ""),
    "-c": ("1", "-1", "-1/2", "1/2", "-.5", "2", "x", "-1e3"),
    "-n": ("3", "-2", "5/2", "-1/2", "0.5", "q"),
    "-x": ("0.5", "-1", "-3/4", "1e5", "-1e-3", "a b"),
    "--rtol": ("1e-12", "1e-6", "0", "-1", "-.5", "nan", "inf", "abc", "1e-400"),
    "--format": ("text", "csv", "json", "xml"),
    "--grid": ("0:1:5", "0:2:9", "-1:1:3"),
    "--n-max": ("3", "0", "-3", "1.5", "x"),
    "--kind": ("ode", "convexity", "logconvexity", "monotonicity", "bogus"),
    "--step": ("1e-3", "0", "-1", "nan", "inf", "x"),
    "--count": ("64", "4", "1", "0", "-5", "x", "2.5"),
}
_REQUIRED = {
    "eval": ("--family", "-n", "-x"),
    "table": ("--family", "-n", "--grid"),
    "verify": ("--family",),
    "bounds": ("--family", "-n"),
    "scan": ("--family", "-n", "--kind"),
    "info": ("--family",),
}
_STRAYS = (
    ["--bogus"], ["-q"], ["stray"], ["-1/2"], ["-7"], ["-"], [""], ["-c"], ["--grid"], ["--n"], ["--c"],
    ["--f", "json"], ["-c", "--family", "szasz"], ["-x", "-c", "-1"], ["-h"], ["--help"], ["--he"],
)


@st.composite
def _option(draw, flag=None):
    """One option with a value, in one of its spellings."""
    flag = flag or draw(st.sampled_from(list(_VALUES)))
    value = draw(st.sampled_from(_VALUES[flag]))
    if flag.startswith("--"):
        name = flag[: draw(st.integers(3, len(flag)))]
        return draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    return draw(st.sampled_from([[flag, value], [flag + value], [f"{flag}={value}"]]))


@st.composite
def _argvs(draw):
    verb = draw(st.sampled_from([*_REQUIRED, *_REQUIRED, "frobnicate", "-h", "--he"]))
    pieces = [draw(_option(flag)) for flag in _REQUIRED.get(verb, ())]
    if pieces and draw(st.integers(0, 4)) == 0:  # a required option missing
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    pieces += draw(st.lists(st.one_of(_option(), _option(), st.sampled_from(_STRAYS)), max_size=4))
    return [verb, *(tok for piece in draw(st.permutations(pieces)) for tok in piece)]


def _scan(kind, *extra):
    return ["scan", "--family", "bernstein", "-n", "3", "--kind", kind, *extra]


# Options a verb or scan kind does not read, or both of two it reads only
# one of: each was accepted and dropped before.
_UNREAD = [
    ["verify", "--family", "mkz", "--n-max", "1", "-n", "99"],
    ["verify", "--family", "mkz", "--n-max", "1", "--rtol", "5"],
    ["bounds", "--family", "bernstein", "-n", "3", "--rtol", "1e-3"],
    ["bounds", "--family", "bernstein", "-n", "3", "-x", "0.5", "--grid", "0:1:3"],
    ["info", "--family", "szasz", "--rtol", "1e-3"],
    _scan("ode", "--grid", "0.1:1:3", "--rtol", "1e-3"),
    _scan("ode", "--grid", "0.1:1:3", "--count", "7"),
    _scan("convexity", "--grid", "0:1:3", "--rtol", "1e-3"),
    _scan("convexity", "--grid", "0:1:3", "--step", "1e-4"),
    _scan("convexity", "--grid", "0:1:3", "--count", "7"),
    _scan("logconvexity", "--rtol", "1e-3"),
    _scan("logconvexity", "--step", "1e-4"),
    _scan("logconvexity", "--grid", "0:1:3", "--count", "7"),
    _scan("monotonicity", "--rtol", "1e-3"),
    _scan("monotonicity", "--step", "1e-4"),
    _scan("monotonicity", "--grid", "0:1:3"),
]
# Every option of each verb and scan kind, then the argv shapes the benchmark
# workloads run (perfbench/workloads.py, Op.argv).
_READ = [
    ["eval", "--family", "general", "-c", "-1/2", "-n", "5/2", "-x", "3/4", "--rtol", "1e-9", "--format", "csv"],
    ["table", "--family", "general", "-c", "2", "-n", "3", "--grid", "0:1:5", "--rtol=1e-9", "--format", "json"],
    ["verify", "--family", "general", "-c", "1", "--n-max", "3", "--format", "json"],
    ["bounds", "--family", "general", "-c", "-1", "-n", "3", "-x", "-1/4", "--format", "csv"],
    ["bounds", "--family", "general", "-c", "-1", "-n", "3", "--grid", "0:1:5", "--format", "json"],
    ["info", "--family", "general", "-c", "-1/2", "-n", "3/2", "--format", "json"],
    ["scan", "--family", "general", "-c", "1/2", "-n", "2", "--kind", "ode", "--grid", "0.5:3:6", "--step", "1e-4",
     "--format", "json"],
    ["scan", "--family", "general", "-c", "1/2", "-n", "2", "--kind", "convexity", "--grid", "0:3:6", "--format", "csv"],
    ["scan", "--family", "general", "-c", "-1", "-n", "3", "--kind", "logconvexity", "--grid", "0:1:5", "--format", "csv"],
    ["scan", "--family", "general", "-c", "-1", "-n", "3", "--kind", "logconvexity", "--count", "64", "--format", "csv"],
    ["scan", "--family", "general", "-c", "-1", "-n", "3", "--kind", "monotonicity", "--count", "9", "--format", "json"],
    ["table", "--family", "bernstein", "-n", "5", "--grid", "1/40:39/40:101", "--format", "csv"],
    ["table", "--family", "general", "-c", "-1/2", "-n", "5/2", "--grid", "1/20:39/20:101", "--format", "csv"],
    ["eval", "--family", "szasz", "-n", "2", "-x", "123.456", "--format", "json"],
    ["eval", "--family", "general", "-c", "1/2", "-n", "5", "-x", "45000000.0", "--format", "json"],
    ["bounds", "--family", "mkz", "-n", "17", "--format", "json"],
    ["verify", "--family", "bbh", "--n-max", "9", "--format", "json"],
    ["scan", "--family", "baskakov", "-n", "13", "--kind", "logconvexity", "--format", "json"],
]


@pytest.mark.parametrize(
    "argv, reads", [(a, False) for a in _UNREAD] + [(a, True) for a in _READ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else ("reads" if v else "rejects"),
)
def test_each_row_reads_its_own_options(argv, reads):
    if not reads:
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    # the values the argparse front end gave the verbs, which converted -c,
    # -n and -x to Fractions
    code, values = _table_parse(argv)
    before = _argparse_parse(argv, strict=False)[1]
    assert code == 0 and values["verb"] == argv[0]
    for key, value in values.items():
        old = before[key]
        assert value == (Fraction(old) if key in ("c", "n", "x") and old is not None else old)


def _readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("sqsums ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_run(argv):
    code, _, err = invoke(argv)
    assert (code, err) == (0, "")


_ADDED_REJECTIONS = [
    ["eval", "--family", "baskakov", "-n", "1", "-x", "5", "--rtol", "inf"],
    ["eval", "--family", "bernstein", "-n", "1", "-x", "0", "--rtol", "nan"],
    ["table", "--family", "szasz", "-n", "1", "--grid", "0:1:5", "--rtol", "-1"],
    ["scan", "--family", "szasz", "-n", "2", "--kind", "ode", "--grid", "0.5:3:6", "--step", "nan"],
    ["scan", "--family", "szasz", "-n", "2", "--kind", "ode", "--grid", "0.5:3:6", "--step=0"],
    ["scan", "--family", "bernstein", "-n", "3", "--kind", "logconvexity", "--count", "0"],
    ["scan", "--family", "bernstein", "-n", "3", "--kind", "logconvexity", "--count", "-5"],
    ["table", "--rtol", "0", "--family", "szasz", "-n", "1", "--grid", "0:2:9", "-h"],
    ["verify", "--family", "mkz", "--n-max", "2", "--format", "csv"],
    ["info", "--family", "szasz", "--format=csv"],
    *_UNREAD,
]


@pytest.mark.parametrize("argv", _ADDED_REJECTIONS, ids=" ".join)
def test_table_rejects_what_argparse_accepted(argv):
    assert _argparse_parse(argv, strict=False)[0] == 0
    assert _table_parse(argv) == _argparse_parse(argv) == (2, None)


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(_ADDED_REJECTIONS[0])
@example(_ADDED_REJECTIONS[1])
@example(_ADDED_REJECTIONS[2])
@example(_ADDED_REJECTIONS[3])
@example(_ADDED_REJECTIONS[4])
@example(_ADDED_REJECTIONS[5])
@example(_ADDED_REJECTIONS[6])
@example(_ADDED_REJECTIONS[7])
@example(_ADDED_REJECTIONS[8])
@example(_ADDED_REJECTIONS[9])
# parsed alike; the verbs reject them
@example(["scan", "--family", "bernstein", "-n", "3", "--kind", "logconvexity", "--count", "2"])
@example(["scan", "--family", "bernstein", "-n", "3", "--kind", "monotonicity", "--count", "1"])
@example(["verify", "--family", "bernstein", "--n-max", "0"])
@example(["verify", "--family", "bernstein", "--n-max", "-3"])
# the grammar
@example(["info", "--fam=general", "-c-1/2", "-n=3/2", "--form", "json"])
@example(["eval", "--family", "general", "-c", "--family", "szasz", "-n", "1", "-x", "1"])
@example(["eval", "--f", "szasz", "-n", "1", "-x", "1"])
@example(["verify", "--n", "3", "--family", "mkz"])
@example(["bounds", "--family", "szasz", "-n", "-1", "-x", "-.5"])
@example(["table", "--bogus", "-h", "--grid"])
@example([])
def test_table_parser_matches_argparse(argv):
    assert _table_parse(argv) == _argparse_parse(argv)
