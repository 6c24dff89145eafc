import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from sqsums.cli import OUTPUT_SCHEMA, run


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
    ("bounds", "--family", "szasz", "-n", "3", "--format", "json"):
        "5154dc7ef53f71ed6f35d364d9c416290fe5387151426fc103da11e7618fd62e",
    ("bounds", "--family", "baskakov", "-n", "3", "--format", "json"):
        "c60b03b704fae0dfbf579690c5847f8f57472fb2af29df7d3acd0bd0085e6c52",
    ("bounds", "--family", "bbh", "-n", "3", "--format", "json"):
        "546a8c0ff68f191ac67c04989dbe0c451273e1de5af85874d3ee07a7fee0d58d",
    ("bounds", "--family", "mkz", "-n", "3", "--format", "json"):
        "58573c8be6554fce3078cae59c7041f9118290575286a8b36178e950d96ec909",
    ("bounds", "--family", "general", "-c", "-1", "-n", "3", "--format", "json"):
        "07f78a8fd09695ea2b23982dd662b9b006ab2c837a893ff930e76dd1de04ba0f",
    ("bounds", "--family", "general", "-c", "0", "-n", "3", "--format", "json"):
        "a64ceb078f378671b5e6badb7c13bc973d16393630a8b1194df1dbea50eb4a02",
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
