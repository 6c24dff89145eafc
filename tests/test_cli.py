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
from sqsums import analysis, cli, exactalg
from sqsums.cli import OUTPUT_SCHEMA, _parse, run
from sqsums.core import FAMILY_NAMES, ParameterError, Params


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
        # the c > 0 series needs more than 2*10^6 terms at every point
        from sqsums.core import Params
        from sqsums.evalnum import s_closed, s_quad, s_series

        def first_error():
            for x in (1e5, 1.5e5, 2e5):
                for route in (s_series, s_closed, s_quad):
                    try:
                        route(Params(1, 1), x)
                    except Exception as exc:
                        return exc

        expect = first_error()
        assert type(expect) is ArithmeticError
        with pytest.raises(ArithmeticError) as raised:
            invoke(["table", "--family", "baskakov", "-n", "1", "--grid", "1e5:2e5:3"])
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


# The exact form each family's identity items read, and those items.
_SERIES = {
    "bernstein": ("f_poly_direct", ("ode", "heun")),
    "baskakov": ("g_series_coeffs", ("ode", "heun", "substitution")),
    "bbh": ("u_series_coeffs", ("ode", "substitution")),
    "mkz": ("j_series_coeffs", ("ode", "substitution")),
}


class TestVerifySeriesRoute:
    @pytest.mark.parametrize("family", list(_SERIES))
    def test_a_tiny_coefficient_fault_fails_every_item_that_reads_it(self, family, monkeypatch):
        name, items = _SERIES[family]
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
        for item in items:
            assert f"{item}: FAIL" in out

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

    def test_compose_mobius_runs_only_for_the_witness(self, monkeypatch):
        calls = []
        compose = exactalg.RationalFn.compose_mobius

        def counted(self, *abcd):
            calls.append(abcd)
            return compose(self, *abcd)

        def clear():
            for build in (exactalg.g_rational, exactalg.j_rational, exactalg.u_rational):
                build.cache_clear()

        monkeypatch.setattr(exactalg.RationalFn, "compose_mobius", counted)
        for family, (first, (_, build), _) in cli._SUITES.items():
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
        # symmetric S' is exactly 0 at odd l: the residual is 0 as well
        argv = ["scan", "--family", "general", "-c", "-1/2", "-n", "3/2", "--kind", "ode"]
        code, out, err = invoke(argv + ["--grid", "0.2:1.8:5", "--format", "json"])
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
    ("bounds", "--family", "baskakov", "-n", "3", "--format", "json"):
        "c60b03b704fae0dfbf579690c5847f8f57472fb2af29df7d3acd0bd0085e6c52",
    ("bounds", "--family", "bbh", "-n", "3", "--format", "json"):
        "546a8c0ff68f191ac67c04989dbe0c451273e1de5af85874d3ee07a7fee0d58d",
    ("bounds", "--family", "mkz", "-n", "3", "--format", "json"):
        "58573c8be6554fce3078cae59c7041f9118290575286a8b36178e950d96ec909",
    ("bounds", "--family", "general", "-c", "-1", "-n", "3", "--format", "json"):
        "07f78a8fd09695ea2b23982dd662b9b006ab2c837a893ff930e76dd1de04ba0f",
    ("bounds", "--family", "general", "-c", "0", "-n", "3", "--format", "json"):  # as szasz
        "0bacefe83e30a36687c5367f5a6a3b863e08c9c33729ea589220173e861e4a3e",
    ("bounds", "--family", "general", "-c", "1", "-n", "3", "--format", "json"):
        "ee3b21ca9b921068945efc6133ce79d5e7207670e3e72a62f4e1418d6b9a9e2e",
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
    ("eval", "--family", "bbh", "-n", "3", "-x", "2", "--format", "json"):
        "5bf4fa4f4ec3d34e1319632120d10c15f44a853971bd2b6acc70804bfebb2077",
    ("eval", "--family", "mkz", "-n", "3", "-x", "1/2", "--format", "json"):
        "7449f3b4c4532ffd13c70e0fb597b5e2e74ead5f8bf0750f3e4325d7549b05ff",
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
# window past x = 12), a c = 2 grid whose closed form hands over to
# quadrature past x = 199.5, and one json table.
GOLDEN_TABLE = {
    # re-recorded with the closed form exactly 1 at the right endpoint, where
    # it printed the series' top term: 0.99999999999999956,
    # 1.0000000000000053 and 1.0000000000000009 in these three tables
    _table(["bernstein"], "5", "0:1:101"):
        "617c089cad0d90619525dd1ff7e4c80dfa6f604a8f38c5195a24ca17ecbd4baf",
    _table(["bernstein"], "25", "0:1:101"):
        "f52dfd806540003ac70064073a5cb2b1ac99deec621e14308c694cefe0c6d2b2",
    _table(["general", "-c", "-1/2"], "5/2", "0:2:101"):
        "78be814986963b683fcd23eca4f9fb8599a4cdc21f16c3d5ab5ad203dfdefdb9",
    _table(["general", "-c", "-1/2"], "25/2", "0:2:101"):
        "7830876f1b7057d5cddf2174f9f230c33ea785dfc08f81ed6a6e40d940fb4948",
    _table(["szasz"], "5", "0:20:101"):
        "d5b341d35b8c6ae1ca026db87dbc5195fe476908354d5897af10c80ac0e0e459",
    # re-recorded with Loader's anchor and the Hankel kernel past n x = 12:
    # series and closed form went from 1.3e-12 to at most 2.1e-15 of i0e
    _table(["szasz"], "25", "0:20:101"):
        "098c2842326e71cfd3a8225322b2e8d29bdd919e4e4ba64f2ec338a664413f10",
    _table(["baskakov"], "5", "0:20:101"):
        "4e75feb4f1a7eacbf24fe76332b072007e4d36105d70d5c30ca7719b0ede8c79",
    _table(["baskakov"], "25", "0:20:101"):
        "9b83ed43d5cac8ce537c2a705abd4f85c0666201e371a7964fc16a9e79b5936d",
    _table(["general", "-c", "2"], "5", "0:20:101"):
        "d40c790f5331fe8b53de4769c91346c7270cde209aa1f0bba66a42a8b0989317",
    _table(["general", "-c", "2"], "25", "0:20:101"):
        "cee85fbfdce2c060d791aa7961940d11fc8f47fe70ab27ae7b25ffa4a610cc48",
    _table(["general", "-c", "2"], "5", "100:400:11"):
        "bc1db0e0bdd7e64639e504cde0b488e10a400edf99904e109796fc451adc9bfa",
    _table(["general", "-c", "1/2"], "3", "0:10:21", "json"):
        "5cbc2422b739ed606380087d1b0958ecbc4c5c79ebd70a0d46049e644dd86c39",
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
    _logconvex("general", "-c", "1/2", "--grid", "0:5:33", "--format", "json"):
        "cbef2695fa794d19e4398f627994d38e66e9d52342e75eacb06791d0d2ba8696",
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
