"""Floating-point evaluation of the squared-basis sum S(x) and the kernel
T(x, y) by three routes: positive-term series, closed forms built on
self-contained diagonal-hypergeometric and modified-Bessel kernels, and
Gauss-Chebyshev quadrature of the integral representations.

All three routes agree to near machine precision on the shared domain,
which is the backbone of the verification suite.

Each route of S evaluates a whole grid in one call (``s_series_grid``,
``s_closed_grid``, ``s_quad_grid``); the scalar ``s_series``, ``s_closed``
and ``s_quad`` are the one-point grids.  The series of all points are rows
of one ``core._certified_rows`` call, which evaluates the term ratios and
the geometric tail certificates of a block of indices for every row in
numpy and reproduces each row's term-by-term loop bit for bit.  The
quadrature ladder climbs level by level for all points still short of
agreement, with the nodes of every point in one array.

Large arguments cost O(1) or O(sqrt(mu)) per point, never O(x):

- exp(-z) I0(z) for z > 600 (the c = 0 closed form, ``bessel_i0e``,
  ``bessel_i0`` and ``t_closed``) is the 8-term Hankel expansion, whose
  truncation error is below 1e-21 of the value there (``_hankel_i0e``);
- the c = 0 series past mu = n x = 300 is walked from its peak, anchored
  at Loader's saddle-point log of the Poisson weight (``core._poisson_peak``),
  and raises ArithmeticError where the walk cannot reach the peak (index
  2^53) or finish (10^7 terms);
- the c > 0 series stops within 2*10^6 + 1 steps or raises, and
  ``_pos_c_capped`` decides in O(1) where it provably cannot stop, so that
  the error is raised without summing.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import Params, _certified_rows, _poisson_peak, _require_window_stop, _sq, _sum_unimodal_rows

__all__ = [
    "EvalResult",
    "Method",
    "RuleKind",
    "Z_SWITCH",
    "bessel_i0",
    "bessel_i0e",
    "hyp2f1_diag",
    "s_closed",
    "s_closed_grid",
    "s_quad",
    "s_quad_grid",
    "s_series",
    "s_series_grid",
    "t_closed",
    "t_quad",
]

# Beyond this series argument the diagonal hypergeometric series needs more
# than ~1e4 terms, so the closed-form route hands over to quadrature.
Z_SWITCH = 0.995

RTOL_DEFAULT = 1e-12

# Adaptive quadrature ladder: node counts double from start to cap.
LADDER_START = 16
LADDER_MAX = 4096

_EXP_GUARD = 690.0  # log-magnitude beyond which double powers overflow


class Method(enum.Enum):
    SERIES = "series"
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class EvalResult:
    """Value of one evaluation route with its claimed error bound.

    ``err_estimate`` bounds the truncation or quadrature error the method
    itself commits (rounding aside); ``terms_or_nodes`` counts series terms
    or quadrature nodes.
    """

    value: float
    method: Method
    err_estimate: float
    terms_or_nodes: int


class RuleKind(enum.Enum):
    CHEBYSHEV_01 = "chebyshev_01"
    CHEBYSHEV_M11 = "chebyshev_m11"


class QuadratureRule:
    """Not exported and empty: quadrature keeps no rule objects.

    The span table of ``perfbench/tracing.py`` looks this class up, so the
    name stays until that entry goes.
    """


def _chebyshev_nodes(kind: RuleKind, ms: np.ndarray) -> np.ndarray:
    """The nodes of the m-node Gauss-Chebyshev rule of a kind for each m in
    ``ms``, one rule after the other in one array.

    The [-1, 1] rule integrates against 1/sqrt(1-t^2); its transplant to
    [0, 1] integrates against 1/sqrt(t(1-t)).  Both have equal weights
    pi/m and are exact for polynomials of degree 2m-1 times the weight.
    """
    m = np.repeat(ms, ms)
    j = np.arange(1, m.size + 1) - np.repeat(np.cumsum(ms) - ms, ms)
    nodes = np.cos((2 * j - 1) * np.pi / (2 * m))
    return (1.0 + nodes) / 2.0 if kind is RuleKind.CHEBYSHEV_01 else nodes


# ---------------------------------------------------------------------------
# Series kernels
# ---------------------------------------------------------------------------


def _one(outcomes: list):
    """The outcome of a one-point call, raised if it is an exception."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _finish(out: list, jobs: list, results: list, finish: Callable) -> None:
    """For each job (point i, parameters p) and its result, set out[i] to
    finish(p, result), or to the exception the result is or finish raises."""
    for (i, p), r in zip(jobs, results):
        try:
            out[i] = r if isinstance(r, Exception) else finish(p, r)
        except Exception as exc:
            out[i] = exc


def _is_nonpositive_int(a: float) -> bool:
    return a <= 0.0 and float(a).is_integer()


def _hyp2f1_rows(a: float, zs: Sequence[float], rtol: float, max_terms: int = 2 * 10 ** 6) -> list:
    """Series value with a certified geometric tail bound and term count at
    each z: (value, tail, terms), or the exception raised there.  The
    non-terminating series of all points are rows of one kernel call."""
    out: list = [None] * len(zs)
    rows = []
    for i, z in enumerate(zs):
        try:
            if z < 0.0:
                raise ValueError(f"series argument must be nonnegative, got z={z}")
            if z == 0.0:
                out[i] = (1.0, 0.0, 1)
            elif _is_nonpositive_int(a):
                m = int(-a)
                total = 1.0
                term = 1.0
                for k in range(m):
                    term *= ((a + k) / (k + 1.0)) ** 2 * z
                    total += term
                out[i] = (total, 0.0, m + 1)
            elif a < 0.0:
                raise ValueError("negative non-integer parameter is outside the diagonal case")
            elif z >= 1.0:
                raise ValueError(f"series diverges for z >= 1 with positive parameter (z={z})")
            else:
                rows.append((i, z))
        except Exception as exc:  # kept for this point; the others still run
            out[i] = exc
    z = [z for _, z in rows]
    # ratios decrease toward z for a >= 1 and increase toward z below it
    sums = _certified_rows(
        lambda k, z: _sq((a + k) / (k + 1.0)) * z,
        0.0,
        rtol,
        max_terms,
        cert=lambda k, z: _sq((a + k + 1) / (k + 2.0)) * z,
        sup=z,
        args=(z,),
    ).outcomes(f"series did not converge within {max_terms} terms")
    _finish(out, rows, sums, lambda _, s: (s[0], s[1], s[2] + 1))
    return out


def hyp2f1_diag(a: float, z: float, rtol: float = 1e-15) -> float:
    """Gauss series with equal upper parameters and unit lower parameter.

    Computes sum_k ((a)_k / k!)^2 z^k through the term-ratio recurrence
    term *= ((a+k)/(k+1))^2 z.  Terminates exactly after |a|+1 terms when a
    is a nonpositive integer; otherwise needs 0 <= z < 1 and stops once the
    geometric tail certificate falls below rtol times the partial sum.
    """
    value, _, _ = _one(_hyp2f1_rows(float(a), [float(z)], rtol))
    return value


def _i0_rows(zs: Sequence[float], rtol: float = 1e-16) -> list:
    """Direct even series sum_k (z^2/4)^k / (k!)^2 with certified tail at
    each z: (value, terms), or the exception raised there."""
    q = [z * z / 4.0 for z in zs]
    sums = _certified_rows(
        lambda k, q: q / _sq(k + 1.0), 0.0, rtol, 10 ** 6 + 1, args=(q,)
    ).outcomes("Bessel series did not converge")
    return [s if isinstance(s, Exception) else (s[0], s[2] + 1) for s in sums]


def _scaled_poisson_rows(mus: Sequence[float], tol: float = 1e-17) -> list:
    """exp(-2*mu) * sum_k (mu^k / k!)^2 at each mu, summed around its peak in
    log space from Loader's anchor: (value, terms), or the exception raised
    there (ArithmeticError where the window cannot reach the peak or finish)."""
    out: list = [None] * len(mus)
    rows = []  # (point, (mu, peak index, log of the Poisson weight there))
    for i, mu in enumerate(mus):
        try:
            k0, log_pmf = _poisson_peak(mu)
            rows.append((i, (mu, float(k0), log_pmf)))
        except Exception as exc:
            out[i] = exc
    mu = [p[0] for _, p in rows]
    sums = _sum_unimodal_rows(
        lambda k, mu: _sq(mu / (k + 1.0)), lambda k, mu: _sq(k / mu), [p[1] for _, p in rows], tol, args=(mu,)
    )

    def finish(p, s):
        _require_window_stop(s[1])
        return math.exp(2.0 * p[2] + math.log(s[0])), s[1]

    _finish(out, rows, sums, finish)
    return out


# Past this argument, exp(-z) I0(z) is the Hankel expansion.
_HANKEL_Z = 600.0
# Its coefficients ((1/2)_k)^2 / k!, k = 0..7, each exact in binary.
_HANKEL = (1.0, 1 / 4, 9 / 32, 75 / 128, 3675 / 2048, 59535 / 8192, 2401245 / 65536, 57972915 / 262144)


def _hankel_i0e(z: float) -> float:
    """exp(-z) I0(z) for z > _HANKEL_Z from the Hankel expansion (DLMF 10.40.1)

        (2 pi z)^(-1/2) sum_{k<K} ((1/2)_k)^2 / (k! (2z)^k),  K = 8.

    The terms are Watson's lemma on exp(-z) I0(z) = (1/pi) int_0^2
    exp(-zs) (s(2-s))^(-1/2) ds (DLMF 10.32.1 with s = 1 - cos(theta)),
    expanding (2-s)^(-1/2) in s.  That binomial series has positive,
    nonincreasing coefficients, so its remainder after K terms is at most
    twice its K-th term on s <= 1; the rest of the integral is below
    exp(-z).  The truncation error is therefore at most 2 t_K + exp(-z),
    with t_K the first omitted term: below 1e-21 of the value from z = 600
    on.  Rounding adds at most about 3e-16 (measured against mpmath at 40
    digits up to z = 1e9).
    """
    w = 0.5 / z
    total = 0.0
    for coef in reversed(_HANKEL):
        total = total * w + coef
    return total / math.sqrt(2.0 * math.pi * z)


def _i0_scaled_rows(zs: Sequence[float]) -> list:
    """I0(z) = exp(scale) * value at each z >= 0 as (scale, value), or the
    exception raised there: the certified power series with scale 0 up to
    _HANKEL_Z, and the Hankel expansion of exp(-z) I0(z) with scale z past
    it.  Every Bessel value reads this one split."""
    out: list = [None] * len(zs)
    series = [(i, z) for i, z in enumerate(zs) if z <= _HANKEL_Z]
    _finish(out, series, _i0_rows([z for _, z in series]), lambda _, s: (0.0, s[0]))
    for i, z in enumerate(zs):
        if not z <= _HANKEL_Z:
            out[i] = (z, _hankel_i0e(z))
    return out


def bessel_i0(z: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series with a certified truncation for moderate arguments; for
    large arguments the Hankel value of exp(-z) I0(z) is multiplied by
    exp(z), in two halves exp(z/2) past z = 709 where exp(z) alone would
    overflow first (returning inf once the true value exceeds the double
    range).  Unscaling as exp(z + log v) would round z + log v to the ulp
    of about 700 and lose up to 6e-14 relative.
    """
    scale, value = _one(_i0_scaled_rows([abs(float(z))]))
    if scale < 709.0:
        return math.exp(scale) * value
    if scale > 1000.0:  # I0 leaves the double range near z = 714
        return math.inf
    half = math.exp(scale / 2.0)
    return half * value * half


def _bessel_i0e_rows(zs: Sequence[float]) -> list:
    """exp(-z) * I0(z) at each z >= 0, or the exception raised there."""
    return [
        r if isinstance(r, Exception) else math.exp(r[0] - z) * r[1]
        for z, r in zip(zs, _i0_scaled_rows(zs))
    ]


def bessel_i0e(z: float) -> float:
    """exp(-z) * I0(z), stable for every nonnegative argument."""
    return _one(_bessel_i0e_rows([abs(float(z))]))


# ---------------------------------------------------------------------------
# S(x): the three routes
#
# Each route evaluates a whole grid in one call and returns, per point, the
# EvalResult or the exception the scalar call raises there; a point's
# exception is kept, not raised, so the other points still run.  The scalar
# routes are the one-point grids.
# ---------------------------------------------------------------------------


def _neg_c_log_sum(params: Params, x: float, y: float) -> float:
    """The finite sum T(x, y) = sum_k p_k(x) p_k(y) for c < 0 and x, y > 0,
    summed in log space and unscaled by its largest term; S(x) is T(x, x).

    Term k is 2 log(prod_{j<k}(n + j c) / k!) + k log(xy) + (l - k) log of
    (1+cx)(1+cy).  That log is -inf at the right endpoint, where only the
    last term survives.
    """
    n = params.n_float
    c = params.c_float
    l = params.l
    lxy = math.log(x) + math.log(y)
    lp = sum(math.log1p(c * v) if 1.0 + c * v > 0.0 else -math.inf for v in (x, y))
    logs = []
    log_coef = 0.0  # log of prod_{j<k}(n + j c) / k!
    for k in range(l + 1):
        if k > 0:
            log_coef += math.log(n + (k - 1) * c) - math.log(k)
        logs.append(2.0 * log_coef + k * lxy + ((l - k) * lp if k < l else 0.0))
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(lg - top) for lg in logs)


# The c > 0 series takes at most this many kernel steps, then raises.
_POS_C_STEPS = 2 * 10 ** 6 + 1
_POS_C_CAPPED = "series did not converge; use the quadrature route"


def _pos_c_capped(n: float, c: float, rr: float, zlim: float, pref_log: float, tol: float) -> bool:
    """Whether the c > 0 series kernel of ``s_series_grid`` provably runs to
    its step cap without stopping, decided in O(1).

    Its terms are t_k = ((a)_k / k!)^2 (c^2 rr)^k with a = n/c, the step
    ratios ((n + kc)/(k+1))^2 rr, and a step stops only when its certificate
    r = max(next ratio, zlim) is below 1 and term r/(1-r) <= tol * sum.
    The ratios move monotonically toward their limit below 1, so r < 1
    only past the peak.  No step stops, then, when

    - the ratio at index K = _POS_C_STEPS, the last step's certificate, is
      still above 1: the peak lies beyond the cap; or
    - past the peak, where terms fall, every term a stop could see is at
      least the last one, t_K; every partial sum is at most
      (1+cx)^(2a) = exp(-pref_log), since S <= 1; and r/(1-r) is at least
      zlim/(1-zlim).  So no stop comes when t_K zlim/(1-zlim) exceeds
      tol exp(-pref_log).

    Both tests keep a margin that covers the rounding of lgamma and of the
    logs (1e-12 of their magnitudes) and that of the kernel's running
    product over K steps (well under 1e-6).  Unsure is False: the kernel
    then runs as before.
    """
    if not (rr > 0.0 and zlim > 0.0) or max(n, c) >= 1e150:  # ratios of 0, or squares that may overflow
        return False
    a = n / c
    lg_top, lg_a, lg_k = math.lgamma(a + _POS_C_STEPS), math.lgamma(a), math.lgamma(_POS_C_STEPS + 1.0)
    log_ratio = 2.0 * math.log(c) + math.log(rr)
    if 2.0 * math.log((a + _POS_C_STEPS) / (_POS_C_STEPS + 1.0)) + log_ratio > 1e-12 * (1.0 + abs(log_ratio)):
        return True
    log_last = 2.0 * (lg_top - lg_a - lg_k) + _POS_C_STEPS * log_ratio
    log_cert = math.log(zlim) - math.log1p(-zlim)
    margin = 1e-6 + 1e-12 * (abs(lg_top) + abs(lg_a) + lg_k + _POS_C_STEPS * abs(log_ratio) + abs(pref_log))
    return log_last + log_cert - margin > math.log(tol) - pref_log


def s_series_grid(params: Params, xs: Sequence[float], rtol: float = RTOL_DEFAULT) -> list:
    """``s_series`` at every point of ``xs``; the c >= 0 series of all points
    are rows of one certified-series kernel call."""
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    n = params.n_float
    c = params.c_float
    # stop well below the requested tolerance; the certificate is reported
    rtol = max(1e-16, 1e-3 * rtol)
    out: list = [None] * len(xs)
    direct, window = [], []  # (point, parameters) of the two c >= 0 sums
    for i, x in enumerate(xs):
        try:
            params.require_in_domain(x)
            xf = float(x)
            if xf == 0.0:
                out[i] = EvalResult(1.0, Method.SERIES, 0.0, 1)
            elif c < 0:
                value = _neg_c_log_sum(params, xf, xf)
                out[i] = EvalResult(value, Method.SERIES, 4e-16 * (params.l + 1) * value, params.l + 1)
            elif c == 0.0:
                mu = n * xf
                (direct if mu <= 300.0 else window).append((i, mu))
            else:
                # prefactor (1+cx)^(-2n/c) times the squared-coefficient series
                # in (x/(1+cx))^2; the term ratio tends to (cx/(1+cx))^2 < 1
                u = c * xf
                pref_log = -(2.0 * n / c) * math.log1p(u)
                if pref_log < -_EXP_GUARD:
                    # the unscaled sum would overflow; sum around the peak in log space
                    window.append((i, xf))
                else:
                    rr, zlim = (xf / (1.0 + u)) ** 2, (c * xf / (1.0 + u)) ** 2
                    if _pos_c_capped(n, c, rr, zlim, pref_log, rtol):
                        raise ArithmeticError(_POS_C_CAPPED)
                    direct.append((i, (pref_log, rr, zlim)))
        except Exception as exc:
            out[i] = exc

    if c == 0.0:
        mu = [mu for _, mu in direct]
        sums = _certified_rows(lambda k, mu: _sq(mu / (k + 1.0)), 0.0, rtol, args=(mu,)).outcomes()

        def szasz(mu, s):
            pref = math.exp(-2.0 * mu)
            return EvalResult(pref * s[0], Method.SERIES, pref * s[1], s[2] + 1)

        _finish(out, direct, sums, szasz)

        def szasz_window(mu, s):
            # a term |k - k0| steps from the peak carries about 4 |k - k0|
            # units of rounding, and the mean |k - k0| under the squared
            # weights is about sqrt(mu / pi); measured errors stay below
            # 0.4e-16 sqrt(mu)
            return EvalResult(s[0], Method.SERIES, s[0] * (rtol + 4.5e-16 * (math.sqrt(mu) + 2.0)), s[1])

        _finish(out, window, _scaled_poisson_rows([mu for _, mu in window], tol=1e-16), szasz_window)
    elif c > 0.0:
        sums = _certified_rows(
            lambda k, rr: _sq((n + k * c) / (k + 1.0)) * rr,
            0.0,
            rtol,
            _POS_C_STEPS,
            sup=[p[2] for _, p in direct],
            args=([p[1] for _, p in direct],),
        ).outcomes(_POS_C_CAPPED)

        def pos_c(p, s):
            total, tail, steps = s
            value = math.exp(p[0]) * total
            return EvalResult(value, Method.SERIES, value * (tail / total + 1e-15), steps + 1)

        _finish(out, direct, sums, pos_c)
        _finish(out, window, _pos_c_window_rows(n, c, [x for _, x in window], min(rtol, 1e-16)),
                lambda _, s: EvalResult(s[0], Method.SERIES, rtol * s[0], s[1]))
    return out


def s_series(params: Params, x: float, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) summed from the squared-coefficient power series.

    For c < 0 the series terminates after l+1 terms and the value is exact
    up to rounding; otherwise the geometric certificate stops the sum once
    the tail drops below rtol times the partial sum.
    """
    return _one(s_series_grid(params, [x], rtol))


def _pos_c_window_rows(n: float, c: float, xs: Sequence[float], tol: float) -> list:
    """Peak-anchored log-space sums of the c > 0 series with its prefactor
    at each x: (value, terms), or the exception raised there.

    Terms are t_k = ((n + (k-1)c)...(n)/k!)^2 rho^(2k) (1+cx)^(-2n/c) with
    rho = x/(1+cx); the term-ratio stream tends to (c rho)^2 < 1 from above
    for n/c >= 1 and from below otherwise.
    """
    out: list = [None] * len(xs)
    rows = []  # (point, (rho, ratio limit, peak index, log of the peak term))
    for i, x in enumerate(xs):
        try:
            rho = x / (1.0 + c * x)
            zlim = (c * rho) ** 2
            k0 = max(0, int((n * rho - 1.0) / (1.0 - c * rho)))
            log_anchor = -(2.0 * n / c) * math.log1p(c * x) + 2.0 * (
                math.fsum(math.log(n + j * c) for j in range(k0))
                - math.lgamma(k0 + 1)
                + k0 * math.log(rho)
            )
            rows.append((i, (rho, zlim, float(k0), log_anchor)))
        except Exception as exc:
            out[i] = exc
    sums = _sum_unimodal_rows(
        lambda k, rho: _sq((n + k * c) * rho / (k + 1.0)),
        lambda k, rho: _sq(k / ((n + (k - 1) * c) * rho)),
        [p[2] for _, p in rows],
        tol,
        up_sup=[p[1] for _, p in rows],
        args=([p[0] for _, p in rows],),
    )
    _finish(out, rows, sums, lambda p, s: (math.exp(p[3] + math.log(s[0])), s[1]))
    return out


def s_closed_grid(params: Params, xs: Sequence[float], rtol: float = RTOL_DEFAULT) -> list:
    """``s_closed`` at every point of ``xs``; the Bessel and diagonal
    hypergeometric series of all points are rows of one kernel call each,
    and the points handed over to quadrature are one ``s_quad_grid``."""
    n = params.n_float
    c = params.c_float
    qtol = rtol
    rtol = max(1e-16, 1e-3 * rtol)  # kernel target below the public promise
    out: list = [None] * len(xs)
    bessel, hyp, quad = [], [], []  # (point, parameters) per route
    for i, x in enumerate(xs):
        try:
            params.require_in_domain(x)
            xf = float(x)
            if xf == 0.0:
                out[i] = EvalResult(1.0, Method.CLOSED_FORM, 0.0, 1)
                continue
            if c == 0.0:
                bessel.append((i, 2.0 * n * xf))
                continue
            u = c * xf
            if c < 0 and 1.0 + u == 0.0:  # right endpoint: S = p_l^2 = 1
                # an x whose c*x only rounds to -1 is within two roundings of
                # the endpoint, where dS/d(|c|x) = 2l
                err = 0.0 if Fraction(xf) * params.c == -1 else 4 * params.l * 2.0 ** -53
                out[i] = EvalResult(1.0, Method.CLOSED_FORM, err, 1)
                continue
            z = (u / (1.0 + u)) ** 2
            pref_log = -(2.0 * n / c) * math.log1p(u)
            if c < 0 and not (z < 1e10 and abs(pref_log) < _EXP_GUARD):
                # near the endpoint the terminating series is unscaled in log space
                value = _neg_c_log_sum(params, xf, xf)
                out[i] = EvalResult(value, Method.CLOSED_FORM, 1e-15 * value * (params.l + 1), params.l + 1)
            elif c > 0 and (z > Z_SWITCH or pref_log < -_EXP_GUARD):
                quad.append((i, xf))
            else:
                hyp.append((i, (z, pref_log)))
        except Exception as exc:
            out[i] = exc

    if c == 0.0:
        _finish(out, bessel, _bessel_i0e_rows([z for _, z in bessel]),
                lambda _, v: EvalResult(v, Method.CLOSED_FORM, 1e-15 * v, 0))
        return out

    def diagonal(p, s):
        value, tail, terms = s
        pref = math.exp(p[1])
        if c < 0:
            value *= pref
            return EvalResult(value, Method.CLOSED_FORM, 1e-15 * value * (params.l + 1), terms)
        return EvalResult(pref * value, Method.CLOSED_FORM, pref * tail + 1e-15 * pref * value, terms)

    a = -float(params.l) if c < 0 else n / c
    _finish(out, hyp, _hyp2f1_rows(a, [p[0] for _, p in hyp], rtol), diagonal)
    if quad:
        _finish(out, quad, s_quad_grid(params, [x for _, x in quad], rtol=qtol), lambda _, r: r)
    return out


def s_closed(params: Params, x: float, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) from the closed forms.

    ``(1+cx)^(-2n/c) * hyp2f1_diag(n/c, (cx/(1+cx))^2)`` for c != 0 (the
    hypergeometric factor terminates for c < 0) and the scaled Bessel value
    ``exp(-2nx) I0(2nx)`` for c = 0.  Powers go through exp/log1p so the
    anchor S(0) = 1 keeps full relative accuracy.  For c > 0 with series
    argument beyond Z_SWITCH (or powers beyond the double range) the call
    delegates to the quadrature route.
    """
    return _one(s_closed_grid(params, [x], rtol))


# ---------------------------------------------------------------------------
# S(x): quadrature route
# ---------------------------------------------------------------------------


def _s_integrand(params: Params):
    """The integrand over the rule's interval as f(t, p), the map from x to
    its parameter p, and the rule kind it uses.  ``t`` and ``p`` may be
    arrays of equal length, so the nodes of many points go in one call."""
    n = params.n_float
    c = params.c_float
    if c == 0.0:
        def f(t: np.ndarray, p) -> np.ndarray:
            return np.exp(p * (1.0 + t))

        return f, lambda x: -2.0 * n * x, RuleKind.CHEBYSHEV_M11

    def b2(x: float) -> float:
        return (1.0 + 2.0 * c * x) ** 2

    if c < 0:
        l = params.l

        def f(t: np.ndarray, p) -> np.ndarray:
            return (t + (1.0 - t) * p) ** l

        return f, b2, RuleKind.CHEBYSHEV_01

    e = -n / c

    def f(t: np.ndarray, p) -> np.ndarray:
        return np.exp(e * np.log(t + (1.0 - t) * p))

    return f, b2, RuleKind.CHEBYSHEV_01


def _min_nodes(params: Params, x: float) -> int:
    """Node count needed to see the integrand's sharp region at all.

    The integrands concentrate where their exponent is within ~30 of its
    minimum: near t = 1 for c != 0 (width in the angular variable about
    2*sqrt(30/(4a c x (1+cx)))) and near t = -1 for c = 0 (width about
    sqrt(30/(n x))).  Two coarse ladder levels that both miss this region
    can agree spuriously, so the ladder must start beyond it.  For c < 0
    the integrand is a degree-l polynomial and (l+2)/2 nodes are exact.
    """
    n = params.n_float
    c = params.c_float
    if x == 0.0:
        return 2
    if c < 0:
        return min(LADDER_MAX, max(2, (params.l + 2) // 2))
    if c == 0.0:
        width = math.sqrt(30.0 / (n * x))
    else:
        spread = 4.0 * (n / c) * c * x * (1.0 + c * x)
        width = 2.0 * math.sqrt(30.0 / spread)
    if width >= 2.0:
        return 2
    return min(LADDER_MAX, int(2.0 * math.pi / width) + 1)


# The integrand of many points is evaluated up to this many nodes at a
# time, which bounds the arrays of a large grid.
_NODES_PER_CALL = 4096


def _means(f, kind: RuleKind, ps: Sequence, ms: Sequence[int]) -> list[float]:
    """Mean of f(t, p) over the nodes t of the m-node rule of a kind, for
    each pair (p, m) of ``ps`` and ``ms``: the rule's value divided by pi.

    The nodes of all pairs go through the integrand as one concatenated
    array, and each mean is ``np.add.reduce`` over its own contiguous
    segment divided by m, the bits of ``np.mean`` on that segment (pairs
    with equal node counts sit side by side, and a run of them is reduced
    as the rows of one array, which sums each row pairwise as it sums a
    lone segment).
    """
    chunks, size = [[]], 0
    for j in sorted(range(len(ms)), key=ms.__getitem__):
        if chunks[-1] and size + ms[j] > _NODES_PER_CALL:
            chunks.append([])
            size = 0
        chunks[-1].append(j)
        size += ms[j]
    means = [0.0] * len(ms)
    for chunk in chunks:
        sizes = np.array([ms[j] for j in chunk], dtype=np.int64)
        vals = f(_chebyshev_nodes(kind, sizes), np.repeat([ps[j] for j in chunk], sizes))
        start = 0
        for mm, run in itertools.groupby(chunk, key=ms.__getitem__):
            run = list(run)
            rows = vals[start : start + mm * len(run)].reshape(len(run), mm)
            start += mm * len(run)
            for j, total in zip(run, np.add.reduce(rows, axis=1).tolist()):
                means[j] = total / mm
    return means


def s_quad_grid(
    params: Params, xs: Sequence[float], m: int = LADDER_START, rtol: float = RTOL_DEFAULT
) -> list:
    """``s_quad`` at every point of ``xs``.

    The ladder runs level by level for all points still climbing it, each
    level one ``_means`` call, so every point has the bits of the one-point
    ladder.
    """
    if m < 2:
        raise ValueError("need m >= 2 quadrature nodes")
    f, param, kind = _s_integrand(params)
    out: list = [None] * len(xs)
    points, ms, ps = [], [], []
    for i, x in enumerate(xs):
        try:
            params.require_in_domain(x)
            xf = float(x)
            ms.append(max(m, _min_nodes(params, xf)))
            ps.append(param(xf))
            points.append(i)
        except Exception as exc:
            out[i] = exc
    if not points:
        return out

    values = _means(f, kind, ps, ms)
    diffs = [math.inf] * len(points)
    climbing = [j for j in range(len(points)) if ms[j] < LADDER_MAX]
    while climbing:
        for j in climbing:
            ms[j] *= 2
        for j, mean in zip(climbing, _means(f, kind, [ps[j] for j in climbing], [ms[j] for j in climbing])):
            diffs[j] = abs(mean - values[j])
            values[j] = mean
        climbing = [
            j for j in climbing
            if not diffs[j] <= max(1e-13, rtol * abs(values[j])) and ms[j] < LADDER_MAX
        ]
    for j, i in enumerate(points):
        value = values[j]
        out[i] = EvalResult(value, Method.QUADRATURE, max(diffs[j], 1e-16 * abs(value)), ms[j])
    return out


def s_quad(params: Params, x: float, m: int = LADDER_START, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) from Gauss-Chebyshev quadrature of its integral representation.

    Starts at m nodes (raised when the integrand's concentration region
    needs finer resolution than m provides) and doubles, capped at
    LADDER_MAX, until two levels agree within max(1e-13, rtol*|value|);
    the error estimate is the last inter-level difference.  For c < 0 the
    integrand is a degree-l polynomial in t, so any node count past
    (l+1)/2 is already exact to rounding.
    """
    return _one(s_quad_grid(params, [x], m, rtol))


# ---------------------------------------------------------------------------
# Kernel T(x, y)
# ---------------------------------------------------------------------------


def t_closed(params: Params, x: float, y: float) -> float:
    """Kernel value from the closed forms; the diagonal reproduces S."""
    params.require_in_domain(x)
    params.require_in_domain(y)
    xf, yf = float(x), float(y)
    n = params.n_float
    c = params.c_float

    if c == 0.0:
        root = math.sqrt(xf * yf)
        spread = (math.sqrt(xf) - math.sqrt(yf)) ** 2
        return bessel_i0e(2.0 * n * root) * math.exp(-n * spread)

    px, py = 1.0 + c * xf, 1.0 + c * yf

    if c < 0:
        l = params.l
        if px == 0.0 and py == 0.0:
            return 1.0
        if px == 0.0:
            return (-c * yf) ** l
        if py == 0.0:
            return (-c * xf) ** l
        if xf == 0.0 or yf == 0.0:
            other = yf if xf == 0.0 else xf
            return math.exp(l * math.log1p(c * other))
        return _neg_c_log_sum(params, xf, yf)

    if xf == 0.0 or yf == 0.0:
        other = yf if xf == 0.0 else xf
        return math.exp(-(n / c) * math.log1p(c * other))
    a = n / c
    z = (c * c * xf * yf) / (px * py)
    pref_log = -a * (math.log1p(c * xf) + math.log1p(c * yf))
    if z > Z_SWITCH or pref_log < -_EXP_GUARD:
        # quadrature ladder: the kernel integrand concentrates no more sharply
        # than the worse of its two diagonal restrictions; kernel values can
        # be genuinely tiny, so the stop is purely relative here
        f, kind = _t_integrand(params, xf, yf)
        m = max(LADDER_START, _min_nodes(params, xf), _min_nodes(params, yf))
        (value,) = _means(f, kind, [0.0], [m])
        while m < LADDER_MAX:
            m *= 2
            old, (value,) = value, _means(f, kind, [0.0], [m])
            if value == 0.0 or abs(value - old) <= RTOL_DEFAULT * abs(value):
                break
        return value
    value, _, _ = _one(_hyp2f1_rows(a, [z], 1e-15))
    return math.exp(pref_log) * value


def _t_integrand(params: Params, x: float, y: float):
    """The kernel integrand over the rule's interval as f(t, _), whose
    second argument is ``_means``'s point parameter and unused, and the
    rule kind it uses."""
    n = params.n_float
    c = params.c_float
    if c == 0.0:
        root = math.sqrt(x * y)

        def f(t: np.ndarray, _) -> np.ndarray:
            return np.exp(-n * (x + y + 2.0 * t * root))

        return f, RuleKind.CHEBYSHEV_M11

    aa = abs(c) * math.sqrt(x * y)
    bb = math.sqrt((1.0 + c * x) * (1.0 + c * y))
    s2 = (aa + bb) ** 2
    cross = 4.0 * aa * bb

    if c < 0:
        l = params.l

        def f(t: np.ndarray, _) -> np.ndarray:
            return (s2 - cross * t) ** l

        return f, RuleKind.CHEBYSHEV_01

    e = -n / c

    def f(t: np.ndarray, _) -> np.ndarray:
        return np.exp(e * np.log(s2 - cross * t))

    return f, RuleKind.CHEBYSHEV_01


def t_quad(params: Params, x: float, y: float, m: int = 64) -> float:
    """Kernel value from the integral representation at a fixed node count."""
    if m < 2:
        raise ValueError("need m >= 2 quadrature nodes")
    params.require_in_domain(x)
    params.require_in_domain(y)
    f, kind = _t_integrand(params, float(x), float(y))
    (value,) = _means(f, kind, [0.0], [m])
    return value
