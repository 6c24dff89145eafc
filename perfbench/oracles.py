"""Oracles independent of the timed routes, and the per-verb output checks.

Float values are checked against

- exact rational values from integer sums written out here: the Bernstein
  sum F_l from its definition (c < 0 through F_l(|c| x), and bbh through
  U_n(x) = F_n(x/(1+x))), and the Baskakov sum G_a from Euler's
  transformation (integer a = n/c > 0 through G_a(c x), and mkz through
  J_n(x) = G_{n+1}(x/(1-x)));
- mpmath's ``besseli`` (c = 0) and ``hyp2f1`` (non-integer n/c) at 40
  digits.

The log-convexity margins are checked exactly against Q = S S'' - S'^2
built here from the same integer sums.  No oracle calls into ``sqsums``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Optional

import mpmath

from workloads import SCAN_COUNT, Op

# The README's agreement tolerance: routes agree pairwise to 1e-10 relative.
REL_TOL = 1e-10
# The CLI's pass criterion for `bounds`.
MARGIN_TOL = -1e-12
DIGITS = 40

# One row per route, in this order: series, closed form, quadrature.  The
# closed-form row reports method "quadrature" where it delegates, so rows
# are named by their position.
ROUTES = ("series", "closed_form", "quadrature")

VERIFY_ITEMS = {
    "bernstein": ("parseval", "recurrences", "ode", "heun", "legendre"),
    "baskakov": ("ode", "heun", "substitution"),
    "bbh": ("ode", "substitution"),
    "mkz": ("ode", "substitution"),
}

# Exact objects at the smallest index, as (numerator, denominator)
# coefficient lists: F_1 = (1-x)^2 + x^2, G_1 = 1/(1+2x),
# U_1 = F_1(x/(1+x)) = (1+x^2)/(1+x)^2 and J_0 = G_1(x/(1-x)) = (1-x)/(1+x).
VERIFY_WITNESSES = {
    "bernstein": ("f_poly", (1, -2, 2), (1,)),
    "baskakov": ("g_rational", (1,), (1, 2)),
    "bbh": ("u_rational", (1, 0, 1), (1, 2, 1)),
    "mkz": ("j_rational", (1, -1), (1, 1)),
}


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


def _mpf(v: Fraction) -> mpmath.mpf:
    return mpmath.mpf(v.numerator) / v.denominator


def _szasz(n: Fraction, x: Fraction) -> mpmath.mpf:
    z = 2 * _mpf(n) * _mpf(x)
    return mpmath.besseli(0, z) * mpmath.exp(-z)


def _negative_binomial(a: Fraction, cx: Fraction) -> mpmath.mpf:
    """(1+cx)^(-2a) 2F1(a, a; 1; (cx/(1+cx))^2) for a > 0."""
    u = _mpf(cx)
    return (1 + u) ** (-2 * _mpf(a)) * mpmath.hyp2f1(_mpf(a), _mpf(a), 1, (u / (1 + u)) ** 2)


def bernstein_sq(l: int, y: Fraction) -> Fraction:
    """F_l(y) = sum_k C(l,k)^2 y^(2k) (1-y)^(2(l-k)), summed in integers."""
    p, q = y.numerator, y.denominator
    total = sum(math.comb(l, k) ** 2 * p ** (2 * k) * (q - p) ** (2 * (l - k)) for k in range(l + 1))
    return Fraction(total, q ** (2 * l))


def baskakov_sq(a: int, y: Fraction) -> Fraction:
    """G_a(y) by Euler's transformation of 2F1(a, a; 1; (y/(1+y))^2):

    G_a = sum_k C(a-1,k)^2 y^(2k) (1+y)^(2(a-1-k)) / (1+2y)^(2a-1).
    """
    p, q = y.numerator, y.denominator
    total = sum(math.comb(a - 1, k) ** 2 * p ** (2 * k) * (q + p) ** (2 * (a - 1 - k)) for k in range(a))
    return Fraction(q * total, (q + 2 * p) ** (2 * a - 1))


def s_general(c: Fraction, n: Fraction, x: Fraction):
    """S for the (n, c) family at an exact point: Fraction or mpf."""
    if c < 0:
        return bernstein_sq(int(-n / c), -c * x)
    if c == 0:
        return _szasz(n, x)
    a = n / c
    if a.denominator == 1:
        return baskakov_sq(int(a), c * x)
    return _negative_binomial(a, c * x)


class Oracle:
    """Memoized S(x) of the family an operation names, at 40 digits."""

    def __init__(self) -> None:
        self._memo: dict = {}

    def s(self, op: Op, x: float) -> float:
        key = (op.family, op.n, op.c, x)
        if key not in self._memo:
            with mpmath.workdps(DIGITS):
                self._memo[key] = float(self._exact(op, Fraction(x)))
        return self._memo[key]

    @staticmethod
    def _exact(op: Op, x: Fraction):
        n = op.n
        if op.family == "bbh":
            return bernstein_sq(int(n), x / (1 + x))
        if op.family == "mkz":
            return baskakov_sq(int(n) + 1, x / (1 - x))
        return s_general(op.base_c, n, x)


def _close(value: float, oracle: float) -> bool:
    return math.isfinite(value) and abs(value - oracle) <= REL_TOL * abs(oracle)


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _check_routes(values: list[float], oracle: float, x: float) -> None:
    """Every route's value at x within REL_TOL; the reason names the wrong ones."""
    wrong = [route for route, v in zip(ROUTES, values) if not _close(v, oracle)]
    if wrong:
        raise CheckFailed(f"wrong {','.join(wrong)} at x={x!r}: values {values} vs oracle {oracle!r}")


def check_table(op: Op, out: str, oracle: Oracle) -> None:
    a_s, b_s, cnt_s = op.arg.split(":")
    a, b, cnt = float(Fraction(a_s)), float(Fraction(b_s)), int(cnt_s)
    rows = list(csv.reader(io.StringIO(out)))
    _require(rows[:1] == [["x", "method", "value", "err_estimate"]], "bad csv header")
    body = rows[1:]
    _require(len(body) == len(ROUTES) * cnt, f"{len(body)} rows for {cnt} points")
    for i in range(cnt):
        expected_x = a + (b - a) * i / (cnt - 1)
        triple = body[len(ROUTES) * i : len(ROUTES) * (i + 1)]
        _require(len({r[0] for r in triple}) == 1, f"rows of point {i} disagree on x")
        x = float(triple[0][0])
        _require(abs(x - expected_x) <= 1e-12 * max(1.0, abs(expected_x)), f"grid point {i}: {x}")
        _check_routes([float(r[2]) for r in triple], oracle.s(op, x), x)


def check_eval(op: Op, out: str, oracle: Oracle) -> None:
    results = json.loads(out)["results"]
    _require(len(results) == len(ROUTES), f"{len(results)} eval results")
    x = float(Fraction(op.arg))
    _check_routes([float(r["value"]) for r in results], oracle.s(op, x), x)


def bounds_verdict(op: Op, out: str, oracle: Oracle) -> int:
    """Check every point's value; return the exit code the oracle implies."""
    points = json.loads(out)["report"]["points"]
    _require(len(points) >= 256, f"only {len(points)} bound points")
    ok = True
    for p in points:
        x = float(p["x"])
        s, v = oracle.s(op, x), float(p["s_value"])
        _require(_close(v, s), f"wrong s_value at x={x!r}: {v!r} vs oracle {s!r}")
        margin = min(float(b["value"]) - s for b in p["bounds"])
        ok = ok and margin >= MARGIN_TOL
    return 0 if ok else 1


def _poly_eq_cross(n1, d1, n2, d2) -> bool:
    """n1/d1 == n2/d2 as rational functions, by cross-multiplication."""

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    return mul(n1, d2) == mul(n2, d1)


def check_verify(op: Op, out: str) -> None:
    report = json.loads(out)["report"]
    expected = VERIFY_ITEMS[op.family]
    _require(report["items"] == {k: "OK" for k in expected}, f"items {report['items']}")
    key, num, den = VERIFY_WITNESSES[op.family]
    w = report["witnesses"][key]
    if "coeffs" in w:  # a polynomial witness
        wn, wd = [Fraction(c) for c in w["coeffs"]], [Fraction(1)]
    else:
        wn = [Fraction(c) for c in w["num"]["coeffs"]]
        wd = [Fraction(c) for c in w["den"]["coeffs"]]
    _require(
        _poly_eq_cross(wn, wd, [Fraction(c) for c in num], [Fraction(c) for c in den]),
        f"witness {key} = {w}",
    )


# --- exact log-convexity oracle --------------------------------------------


def _ipoly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _ipoly_add(p: list[int], q: list[int]) -> list[int]:
    if len(p) < len(q):
        p, q = q, p
    return [a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)]


def _ipoly_deriv(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:] or [0]


def _ipoly_pow(p: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _ipoly_mul(out, p)
    return out


def _log_convexity_numerator(p: list[int]) -> list[int]:
    """P P'' - P'^2 for an integer polynomial P."""
    d1 = _ipoly_deriv(p)
    return _ipoly_add(_ipoly_mul(p, _ipoly_deriv(d1)), [-c for c in _ipoly_mul(d1, d1)])


class ExactQ:
    """Q = S S'' - S'^2 for c = -1 or c = +1 at integer index, exactly.

    c = -1: S = F_n = sum_k C(n,k)^2 x^(2k) (1-x)^(2(n-k)) is a polynomial
    and Q is P P'' - P'^2 of it.
    c = +1: Euler's transformation of 2F1(n, n; 1; z) gives
    G_n = N / D^m with D = 1 + 2x, m = 2n - 1 and
    N = sum_k C(n-1,k)^2 x^(2k) (1+x)^(2(n-1-k)); then
    Q = G^2 (log G)'' = ((N N'' - N'^2) D^2 + 4 m N^2) / D^(2m+2).
    """

    def __init__(self, c: Fraction, n: int) -> None:
        if c == -1:
            self.num = _log_convexity_numerator(_squared_sum(n, [1, -1]))
            self.m = None
        elif c == 1:
            big_n = _squared_sum(n - 1, [1, 1])
            self.m = 2 * n - 1
            self.num = _ipoly_add(
                _ipoly_mul(_log_convexity_numerator(big_n), [1, 4, 4]),
                [4 * self.m * v for v in _ipoly_mul(big_n, big_n)],
            )
        else:
            raise ValueError(f"no exact log-convexity oracle for c={c}")

    def __call__(self, x: Fraction) -> Fraction:
        p, q = x.numerator, x.denominator
        d = len(self.num) - 1
        total = 0
        qpow = 1
        for c in reversed(self.num):  # homogeneous Horner: sum c_k p^k q^(d-k)
            total = total * p + c * qpow
            qpow *= q
        if self.m is None:
            return Fraction(total, q ** d)
        e = 2 * self.m + 2
        return Fraction(total * q ** e, q ** d * (q + 2 * p) ** e)


def _squared_sum(n: int, lin: list[int]) -> list[int]:
    """sum_k C(n,k)^2 x^(2k) lin(x)^(2(n-k)) as integer coefficients."""
    out = [0]
    for k in range(n + 1):
        term = _ipoly_mul([0] * (2 * k) + [math.comb(n, k) ** 2], _ipoly_pow(lin, 2 * (n - k)))
        out = _ipoly_add(out, term)
    return out


def check_scan(op: Op, out: str, qcache: dict) -> None:
    report = json.loads(out)["report"]
    grid = [Fraction(v) for v in report["grid"]]
    margins = [Fraction(v) for v in report["margins"]]
    _require(len(grid) == SCAN_COUNT == len(margins), f"{len(grid)} points, {len(margins)} margins")
    _require(all(a < b for a, b in zip(grid, grid[1:])), "grid not strictly increasing")
    c = op.base_c
    _require(grid[0] >= 0 and (c > 0 or grid[-1] <= -1 / c), "grid leaves the domain")
    status = report["status"]
    _require(status.get("status") == "unproven" and status.get("asserted") is False, f"status {status}")
    key = (c, int(op.n))
    if key not in qcache:
        qcache[key] = ExactQ(c, int(op.n))
    q = qcache[key]
    for x, m in zip(grid, margins):
        _require(q(x) == m, f"margin at x={x}")


def verdict(
    op: Op, exit_code: Optional[int], stdout: bytes, last_err: str, oracle: Oracle, qcache: dict
) -> tuple[bool, str]:
    """(passed, reason) for one operation's outcome.

    ``last_err`` is the last line the operation wrote to stderr; a non-zero
    exit's reason carries it, which names the exception of a traceback.
    """
    if op.verb not in ("bounds", "table", "eval", "verify", "scan"):
        raise ValueError(f"no check for verb {op.verb!r}")
    if exit_code is None:
        return False, "deadline"
    try:
        out = stdout.decode()
        if op.verb == "bounds":
            expected = bounds_verdict(op, out, oracle)
            _require(exit_code == expected, f"exit {exit_code}, oracle verdict {expected}")
            return True, ""
        if exit_code != 0:
            return False, f"exit {exit_code}: {last_err}"
        if op.verb == "table":
            check_table(op, out, oracle)
        elif op.verb == "eval":
            check_eval(op, out, oracle)
        elif op.verb == "verify":
            check_verify(op, out)
        else:
            check_scan(op, out, qcache)
    except CheckFailed as exc:
        return False, str(exc)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return False, f"malformed output: {type(exc).__name__}: {exc}"
    return True, ""
