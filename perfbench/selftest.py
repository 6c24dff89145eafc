#!/usr/bin/env python3
"""Self-tests of the benchmark: seeding, oracles, fault injection, records.

Run from the repository root, either directly or under pytest:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
SCRATCH = os.path.join(ROOT, ".bench_out")  # the benchmark writes only inside the checkout
os.makedirs(SCRATCH, exist_ok=True)

import mpmath  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from baseline import classify  # noqa: E402
from runner import run_op  # noqa: E402
from sqsums import exactalg  # noqa: E402

EVAL_OP = workloads.Op("eval", "baskakov", Fraction(5), arg="41.6693")
SCAN_OP = workloads.Op("scan", "bernstein", Fraction(4))


def _shape(op: workloads.Op) -> tuple:
    """Everything about an operation except the seeded values."""
    return (op.verb, op.family, op.c, tuple(a for a in op.argv if a.startswith("-")))


def test_seed_changes_only_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.make_round(w, 1), workloads.make_round(w, 2)
        assert a == workloads.make_round(w, 1), w
        assert [_shape(op) for op in a] == [_shape(op) for op in b], w
        assert a != b, w


def test_seeded_values_stay_in_their_bands():
    for seed in range(20):
        far = workloads.make_round("far_field", seed)
        evals = [op for op in far if op.verb == "eval"]
        assert len(evals) == workloads.FAR_STRATA * len(workloads.FAR_C)
        assert all(20.0 <= float(op.arg) <= 1e8 and op.n in workloads.FAR_N for op in evals)
        for w in workloads.WORKLOADS:
            assert Counter(workloads.make_round(w, seed)) == Counter(workloads.strata_round(w, seed))
        for op, band in zip(
            workloads.strata_round("verify_exact", seed),
            [b for b in workloads.VERIFY_BANDS for _ in workloads.VERIFY_FAMILIES],
        ):
            assert band[0] <= int(op.arg) <= band[1]
        for op in workloads.make_round("table_near", seed):
            a, b, count = op.arg.split(":")
            assert 0 <= Fraction(a) < Fraction(b) and count == str(workloads.TABLE_POINTS)


def test_exact_oracles_agree_with_the_program_exactly():
    """The oracle's integer sums and the program's centred Horner forms are
    independent constructions of the same rational values."""
    oracle = oracles.Oracle()
    for n in (1, 4, 13, 30):
        for x in (Fraction(0), Fraction(3, 7), Fraction(1, 2), Fraction(999, 1000)):
            assert oracles.bernstein_sq(n, x) == exactalg.f_value(n, x)
            assert oracle._exact(workloads.Op("bounds", "mkz", Fraction(n)), x) == exactalg.j_value(n, x)
        for x in (Fraction(0), Fraction(5, 3), Fraction(10**6), Fraction(123456789, 10)):
            assert oracles.baskakov_sq(n, x) == exactalg.g_value(n, x)
            assert oracle._exact(workloads.Op("bounds", "bbh", Fraction(n)), x) == exactalg.u_value(n, x)


def test_mpmath_oracle_agrees_with_exact_and_closed_forms():
    with mpmath.workdps(40):
        for a in (1, 5):
            for cx in (Fraction(40), Fraction(2 * 10**8)):
                exact = oracles.baskakov_sq(a, cx)
                mp = oracles._negative_binomial(Fraction(a), cx)
                assert abs(mp - oracles._mpf(exact)) <= mpmath.mpf(10) ** -25 * mp
        # a = 1/2: 2F1(1/2, 1/2; 1; m) = 2 K(m) / pi
        cx = mpmath.mpf(2 * 10**8)
        m = (cx / (1 + cx)) ** 2
        closed = (1 + cx) ** -1 * 2 * mpmath.ellipk(m) / mpmath.pi
        assert abs(oracles._negative_binomial(Fraction(1, 2), Fraction(2 * 10**8)) - closed) <= 1e-25 * closed


def test_exact_q_matches_hand_derivation():
    x = Fraction(3, 7)
    assert oracles.ExactQ(Fraction(-1), 1)(x) == 8 * x * (1 - x)  # F_1 = 1 - 2x + 2x^2
    assert oracles.ExactQ(Fraction(1), 1)(x) == 4 / (1 + 2 * x) ** 4  # G_1 = 1/(1+2x)


def _verdict(op, run, exit_code=None, stdout=None):
    """Verdict on a run, optionally with its exit code or stdout replaced."""
    code = run.exit_code if exit_code is None else exit_code
    out = run.stdout() if stdout is None else stdout
    lines = run.stderr().decode().strip().splitlines() if code else []
    return oracles.verdict(op, code, out, lines[-1] if lines else "", oracles.Oracle(), {})


def _perturbing(module: str, name: str, factor: float):
    """Hook that scales one route's value by ``factor`` inside the child."""

    def hook(cli, argv):
        mod = sys.modules[f"sqsums.{module}"]
        orig = getattr(mod, name)

        def bad(*args, **kwargs):
            r = orig(*args, **kwargs)
            return dataclasses.replace(r, value=r.value * factor)

        setattr(mod, name, bad)
        return cli.run(argv)

    return hook


def _raising(module: str, name: str):
    def hook(cli, argv):
        def bad(*args, **kwargs):
            raise ArithmeticError("injected fault")

        setattr(sys.modules[f"sqsums.{module}"], name, bad)
        return cli.run(argv)

    return hook


def test_faults_count_as_failures():
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        clean = run_op(EVAL_OP.argv, tmp, 30.0)
        assert _verdict(EVAL_OP, clean) == (True, "")

        perturbed = run_op(EVAL_OP.argv, tmp, 30.0, _perturbing("evalnum", "s_quad", 1 + 1e-9))
        assert perturbed.exit_code == 0
        passed, reason = _verdict(EVAL_OP, perturbed)
        assert not passed and reason.startswith("wrong quadrature at"), reason

        raised = run_op(EVAL_OP.argv, tmp, 30.0, _raising("evalnum", "s_closed"))
        assert raised.exit_code == 1 and b"ArithmeticError" in raised.stderr()
        assert _verdict(EVAL_OP, raised) == (False, "exit 1: ArithmeticError: injected fault")


def test_exact_margin_perturbation_is_caught():
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        run = run_op(SCAN_OP.argv, tmp, 30.0)
        assert _verdict(SCAN_OP, run) == (True, "")
        doc = json.loads(run.stdout())
    m = Fraction(doc["report"]["margins"][100]) * (1 + Fraction(1, 10**9))
    doc["report"]["margins"][100] = f"{m.numerator}/{m.denominator}"
    passed, reason = _verdict(SCAN_OP, run, stdout=json.dumps(doc).encode())
    assert not passed and reason.startswith("margin"), reason


def test_bounds_exit_code_must_match_oracle_verdict():
    op = workloads.Op("bounds", "bbh", Fraction(3))
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        run = run_op(op.argv, tmp, 30.0)
        assert run.exit_code == 0 and _verdict(op, run) == (True, "")
        passed, reason = _verdict(op, run, exit_code=1)
    assert not passed and reason.startswith("exit 1, oracle verdict 0"), reason


def test_only_baseline_failure_classes_are_correct():
    def ev(c, n, x):
        return workloads._family_op("eval", Fraction(c), n, repr(x))

    raised = "exit 1: ArithmeticError: series did not converge"
    assert classify("far_field", ev(1, 2, 3e5), raised) == "series-cap"
    assert classify("far_field", ev(1, 2, 3e3), raised) is None
    assert classify("table_near", ev(1, 2, 3e5), raised) is None
    assert classify("far_field", ev(2, 1, 5e3), "wrong closed_form,quadrature at x=5000.0: v") == "quadrature-handover"
    assert classify("far_field", ev(2, 1, 5e3), "wrong series,quadrature at x=5000.0: v") is None
    assert classify("far_field", ev(0, 5, 3e4), "wrong series,closed_form at x=30000.0: v") == "szasz-peak-window"
    assert classify("far_field", ev(0, 5, 3e4), "wrong quadrature at x=30000.0: v") is None
    assert classify("far_field", ev(0, 1, 1e6), "wrong quadrature at x=1000000.0: v") == "szasz-quadrature-cap"
    assert classify("far_field", ev(1, 2, 3e5), "deadline") is None
    bounds = workloads.Op("bounds", "szasz", Fraction(7))
    assert classify("far_field", bounds, "wrong s_value at x=100000.0: v") == "szasz-bounds"
    assert classify("far_field", bounds, "wrong s_value at x=3.5: v") is None
    assert classify("far_field", bounds, "exit 1, oracle verdict 0") is None


def test_deadline_kills_and_fails():
    def sleepy(cli, argv):
        time.sleep(60)
        return 0

    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        run = run_op(EVAL_OP.argv, tmp, 0.5, sleepy)
        assert run.exit_code is None and run.latency_s < 5.0
        assert _verdict(EVAL_OP, run) == (False, "deadline")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run as bench

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    far = next(w for w in spec["workloads"] if w["name"] == "far_field")
    assert f"{bench.DEADLINE_S:g} s op deadline" in far["why"]


def _bench(*args) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip().splitlines()
    result = json.loads(out[-1])
    record_line = next(line for line in out if line.startswith("# record: "))
    with open(os.path.join(ROOT, record_line[len("# record: "):])) as fh:
        return result, json.load(fh)


def test_run_prints_result_and_records_environment():
    import run as bench

    result, record = _bench("--workload", "verify_exact", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(bench.E2E_UNITS)
    assert result["correct"] and result["failed"] == 0
    env = record["environment"]
    assert record["seed"] == 7 and env["nproc"] >= 1
    assert set(env["versions"]) == {"python", "numpy", "scipy", "mpmath"}
    assert "commit" in env and len(env["source_sha256"]) == 64
    notes = record["notes"]
    assert len(notes["gauges_s"]) == result["attempted"] + 1 and notes["unexpected_failures"] == 0
    p50 = 1e3 * notes["scale"] * statistics.median([op["latency_s"] for op in record["operations"]])
    assert abs(p50 - result["metrics"]["op_p50_ms"]["value"]) <= 1e-9 * p50


def test_traced_run_reports_every_layer():
    result, record = _bench("--workload", "table_near", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert result["correct"] and record["notes"]["trace_mismatches"] == 0
    assert [k for k in result["metrics"]] == [name for name, _ in tracing.per_layer_names()]
    assert result["metrics"]["evalnum.s_series.calls"]["value"] == workloads.TABLE_POINTS


def test_missing_program_exits_nonzero_without_result():
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "table_near", "--seed", "1", "--seconds", "1"],
            cwd=tmp,
            capture_output=True,
            text=True,
        )
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
