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
