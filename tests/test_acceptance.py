"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import io
import json
import statistics
import time
from contextlib import redirect_stdout
from fractions import Fraction

from sqsums import families
from sqsums.core import Params
from sqsums.analysis import logconvexity_scan, ode_residual_scan
from sqsums.bounds import bound_values, standard_grid
from sqsums.evalnum import s_closed, s_closed_grid, s_quad, s_series
from sqsums.exactalg import (
    HeunParams,
    eq_f,
    eq_g,
    eq_j,
    eq_u,
    f_poly_direct,
    f_poly_parseval,
    f_value,
    g_rational,
    g_value,
    heun_residual,
    j_rational,
    j_value,
    ode_residual_poly,
    recurrence_check,
    u_rational,
)
from sqsums.families import FamilyId
from sqsums.legendre import bridge_check


def _record(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")


def _grid(params: Params, count: int = 101, cap: float = 20.0) -> list[float]:
    sup = params.domain_sup
    hi = float(sup) if sup is not None else cap
    return [hi * i / (count - 1) for i in range(count)]


def test_criterion_01_multi_method_agreement():
    ok = False
    try:
        start = time.monotonic()
        cases = [
            (Fraction(-1), [1, 2, 5, 10, 25]),
            (Fraction(-1, 2), [Fraction(l, 2) for l in (1, 2, 5, 10, 25)]),
            (Fraction(0), [1, 2, 5, 10, 25]),
            (Fraction(1), [1, 2, 5, 10, 25]),
            (Fraction(2), [1, 2, 5, 10, 25]),
        ]
        for c, ns in cases:
            for n in ns:
                params = Params(n, c)
                for x in _grid(params):
                    a = s_series(params, x).value
                    b = s_closed(params, x).value
                    q = s_quad(params, x).value
                    scale = max(abs(a), abs(b), abs(q))
                    assert abs(a - b) <= 1e-10 * scale, (n, c, x)
                    assert abs(a - q) <= 1e-10 * scale, (n, c, x)
                    assert abs(b - q) <= 1e-10 * scale, (n, c, x)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.1f}s"
        ok = True
    finally:
        _record("1 multi-method agreement (25 parameter pairs, 101-point grids)", ok)


def test_criterion_02_centered_expansion_identity():
    ok = False
    try:
        for n in range(1, 41):
            shifted = f_poly_parseval(n).compose_linear(1, Fraction(-1, 2))
            assert shifted == f_poly_direct(n), n  # exact, no tolerance
        ok = True
    finally:
        _record("2 exact centered-expansion identity, n <= 40", ok)


def test_criterion_03_recurrences():
    ok = False
    try:
        for n in range(1, 41):
            assert recurrence_check(n), n
        ok = True
    finally:
        _record("3 exact three-term and derivative recurrences, n <= 40", ok)


def test_criterion_04_ode_and_heun_solutions():
    ok = False
    try:
        for n in range(1, 31):
            assert ode_residual_poly(f_poly_direct(n), eq_f(n)).is_zero, ("F", n)
            hp = HeunParams.polynomial_case(n)
            assert (hp.alpha, hp.beta, hp.gamma, hp.delta, hp.epsilon, hp.q) == (
                1, -2 * n, 1, 1, -2 * n, -n,
            )
            assert heun_residual(f_poly_direct(n), hp).is_zero, ("F heun", n)

            assert ode_residual_poly(g_rational(n), eq_g(n)).is_zero, ("G", n)
            hp = HeunParams.rational_case(n)
            assert (hp.alpha, hp.beta, hp.gamma, hp.delta, hp.epsilon, hp.q) == (
                1, 2 * n, 1, 1, 2 * n, n,
            )
            assert heun_residual(g_rational(n), hp, "negate").is_zero, ("G heun", n)

            assert ode_residual_poly(j_rational(n), eq_j(n)).is_zero, ("J", n)
            assert ode_residual_poly(u_rational(n), eq_u(n)).is_zero, ("U", n)
        # the x-level residuals above are an independent witness of the
        # series-variable path that verify runs, which holds at the same n
        for key in ("bernstein", "baskakov", "mkz", "bbh"):
            for name, check in families.FAMILIES[key].items:
                if name in ("ode", "heun"):
                    assert check(range(1, 31)), (key, name)
        ok = True
    finally:
        _record("4 exact differential-equation and Heun residuals, n <= 30", ok)


def test_criterion_05_legendre_bridge():
    ok = False
    try:
        # the float bridge is the c = -1 closed form, (1-2x)^n P_n(t); the
        # exact one is F_n = (1-2x)^n P_n(t) as a polynomial identity
        xs = [0.45 * i / 63 for i in range(64)]
        for n in range(1, 31):
            for x, r in zip(xs, s_closed_grid(Params(n, -1), xs)):
                assert abs(Fraction(r.value) - f_value(n, Fraction(x))) <= 1e-12, (n, x)
        assert bridge_check(range(1, 31), f_poly_parseval)
        ok = True
    finally:
        _record("5 Legendre bridge: 1e-12 on [0, 0.45] and exact as polynomials, n <= 30", ok)


def test_criterion_06_bound_suite():
    ok = False
    try:
        for name, n_lo in (
            ("bernstein", 1), ("bbh", 1), ("baskakov", 1), ("mkz", 0), ("szasz", 1),
        ):
            family = FamilyId(name)
            grid = standard_grid(family)
            for n in range(n_lo, 31):
                for x in grid:
                    rep = bound_values(family, n, x)
                    assert rep.min_margin >= -1e-12, (name, n, x, rep.min_margin)
        # equality anchors hold exactly
        for x in (0.0, 0.37, 3.0, 128.0):
            rep = bound_values(FamilyId("baskakov"), 1, x)
            assert dict(rep.bounds)["central_binomial"] - rep.s_value == 0.0
        for x in (0.0, 0.42, 0.97):
            rep = bound_values(FamilyId("mkz"), 0, x)
            assert dict(rep.bounds)["central_binomial"] - rep.s_value == 0.0
        assert g_value(1, Fraction(3, 7)) == Fraction(1) / (1 + 2 * Fraction(3, 7))
        assert j_value(0, Fraction(3, 7)) == (1 - Fraction(3, 7)) / (1 + Fraction(3, 7))
        ok = True
    finally:
        _record("6 bound suite: margins >= -1e-12, equality anchors exact, n <= 30", ok)


def test_criterion_07_convexity():
    ok = False
    try:
        for n in range(1, 41):
            assert all(c > 0 for c in f_poly_parseval(n).coeffs[::2]), n
        for name in ("szasz", "baskakov", "mkz"):
            family = FamilyId(name)
            hi = 0.999 if name == "mkz" else 10.0
            grid = [hi * i / 64 for i in range(65)]
            n_lo = 0 if name == "mkz" else 1
            for n in range(n_lo, 11):
                from sqsums.analysis import convexity_scan

                rep = convexity_scan(family, n, grid)
                assert rep.min_margin >= -1e-8, (name, n, rep.min_margin)
        ok = True
    finally:
        _record("7 convexity: exact positive coefficients (n <= 40), differences (n <= 10)", ok)


def test_criterion_08_infimum_decay():
    ok = False
    try:
        for n in (1, 2, 5, 10):
            szasz = (4.0 * n * 1e6 + 1.0) ** -0.5
            assert szasz < 1e-2, n
            baskakov = (4.0 * (n + 1) * 1e6 * (1e6 + 1.0) + 1.0) ** (-n / (2.0 * (n + 1)))
            assert baskakov < 1e-2, n
            # the sums themselves sit below their bounds out there
            assert s_closed(Params(n, 0), 1e6).value <= szasz
            assert g_value(n, 1e6) <= baskakov
        ok = True
    finally:
        _record("8 infimum decay: far-field bounds below 1e-2", ok)


def test_criterion_09_residual_convergence_order():
    ok = False
    try:
        hs = (1e-2, 5e-3, 2.5e-3)
        for n, c in ((2, Fraction(1, 2)), (2, Fraction(2)), (2, Fraction(0))):
            params = Params(n, c)
            grid = [0.3 + 0.05 * i for i in range(8)]
            reps = [ode_residual_scan(params, grid, h) for h in hs]
            for coarse, fine in zip(reps, reps[1:]):
                ratio = statistics.median(a / b for a, b in zip(coarse.margins, fine.margins))
                assert 2.0 <= ratio <= 8.0, (n, c, ratio)
        ok = True
    finally:
        _record("9 finite-difference residual: second-order convergence", ok)


def test_criterion_10_conjecture_scanner():
    ok = False
    try:
        from sqsums.cli import run

        for c in (Fraction(-1), Fraction(1)):
            for n in range(1, 21):
                rep = logconvexity_scan(Params(n, c), count=1024)
                assert rep.status["route"] == "exact"
                assert len(rep.grid) == 1024
                assert min(rep.margins) >= 0, (c, n)  # evidence, not an assertion
        # the CLI emits a json report and exits 0 regardless of margins
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(
                ["scan", "--family", "bernstein", "-n", "20",
                 "--kind", "logconvexity", "--format", "json"]
            )
        assert code == 0
        doc = json.loads(buf.getvalue())
        assert doc["report"]["status"]["status"] == "unproven"
        assert doc["report"]["status"]["asserted"] is False
        assert len(doc["report"]["margins"]) >= 1000
        ok = True
    finally:
        _record("10 conjecture scanner: exact margins reported, exit 0", ok)
