"""Floating-point evaluation of the squared-basis sum S(x) and the kernel
T(x, y) by three routes: positive-term series, closed forms built on
self-contained diagonal-hypergeometric and modified-Bessel kernels, and
Gauss-Chebyshev quadrature of the integral representations.

All three routes agree to near machine precision on the shared domain,
which is the backbone of the verification suite.

The series kernels sum their terms through ``core._certified_sum``, which
evaluates the term ratios and the geometric tail certificate of a whole
block of indices in numpy and reproduces the term-by-term loop bit for
bit.  The quadrature ladder reuses its Chebyshev rules through a small
cache keyed by (kind, node count).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Params, _certified_sum, _sq, _sum_unimodal_scaled

__all__ = [
    "EvalResult",
    "Method",
    "QuadratureRule",
    "RuleKind",
    "Z_SWITCH",
    "bessel_i0",
    "bessel_i0e",
    "hyp2f1_diag",
    "s_closed",
    "s_quad",
    "s_series",
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


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Chebyshev nodes and weights.

    The [-1, 1] rule integrates against 1/sqrt(1-t^2); its transplant to
    [0, 1] integrates against 1/sqrt(t(1-t)).  Both have equal weights
    pi/m and are exact for polynomials of degree 2m-1 times the weight.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: RuleKind

    @classmethod
    def chebyshev_m11(cls, m: int) -> "QuadratureRule":
        if m < 2:
            raise ValueError("need at least 2 nodes")
        j = np.arange(1, m + 1)
        nodes = np.cos((2 * j - 1) * np.pi / (2 * m))
        weights = np.full(m, np.pi / m)
        return cls(nodes, weights, RuleKind.CHEBYSHEV_M11)

    @classmethod
    def chebyshev_01(cls, m: int) -> "QuadratureRule":
        if m < 2:
            raise ValueError("need at least 2 nodes")
        j = np.arange(1, m + 1)
        nodes = (1.0 + np.cos((2 * j - 1) * np.pi / (2 * m))) / 2.0
        weights = np.full(m, np.pi / m)
        return cls(nodes, weights, RuleKind.CHEBYSHEV_01)


# ---------------------------------------------------------------------------
# Series kernels
# ---------------------------------------------------------------------------


def _is_nonpositive_int(a: float) -> bool:
    return a <= 0.0 and float(a).is_integer()


def _hyp2f1_diag_tail(a: float, z: float, rtol: float, max_terms: int = 2 * 10 ** 6):
    """Series value with a certified geometric tail bound and term count."""
    if z < 0.0:
        raise ValueError(f"series argument must be nonnegative, got z={z}")
    if z == 0.0:
        return 1.0, 0.0, 1
    if _is_nonpositive_int(a):
        m = int(-a)
        total = 1.0
        term = 1.0
        for k in range(m):
            term *= ((a + k) / (k + 1.0)) ** 2 * z
            total += term
        return total, 0.0, m + 1
    if a < 0.0:
        raise ValueError("negative non-integer parameter is outside the diagonal case")
    if z >= 1.0:
        raise ValueError(f"series diverges for z >= 1 with positive parameter (z={z})")
    # ratios decrease toward z for a >= 1 and increase toward z below it
    total, tail, steps = _certified_sum(
        lambda k: _sq((a + k) / (k + 1.0)) * z,
        0,
        rtol,
        max_terms,
        cert=lambda k: _sq((a + k + 1) / (k + 2.0)) * z,
        sup=z,
    )
    if tail is None:
        raise ArithmeticError(f"series did not converge within {max_terms} terms")
    return total, tail, steps + 1


def hyp2f1_diag(a: float, z: float, rtol: float = 1e-15) -> float:
    """Gauss series with equal upper parameters and unit lower parameter.

    Computes sum_k ((a)_k / k!)^2 z^k through the term-ratio recurrence
    term *= ((a+k)/(k+1))^2 z.  Terminates exactly after |a|+1 terms when a
    is a nonpositive integer; otherwise needs 0 <= z < 1 and stops once the
    geometric tail certificate falls below rtol times the partial sum.
    """
    value, _, _ = _hyp2f1_diag_tail(float(a), float(z), rtol)
    return value


def _i0_series(z: float, rtol: float = 1e-16):
    """Direct even series sum_k (z^2/4)^k / (k!)^2 with certified tail."""
    q = z * z / 4.0
    total, tail, steps = _certified_sum(lambda k: q / _sq(k + 1.0), 0, rtol, 10 ** 6 + 1)
    if tail is None:
        raise ArithmeticError("Bessel series did not converge")
    return total, steps + 1


def _scaled_poisson_sq(mu: float, tol: float = 1e-17):
    """exp(-2*mu) * sum_k (mu^k / k!)^2, summed around its peak in log space."""
    k0 = int(mu)
    log_anchor = 2.0 * (k0 * math.log(mu) - math.lgamma(k0 + 1))
    scaled, terms = _sum_unimodal_scaled(
        lambda k: _sq(mu / (k + 1.0)),
        lambda k: _sq(k / mu),
        k0,
        tol,
    )
    return math.exp(log_anchor - 2.0 * mu + math.log(scaled)), terms


def bessel_i0(z: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series with a certified truncation for moderate arguments; for
    large arguments the exponentially scaled value is unscaled in log space
    (returning inf once the true value exceeds the double range).
    """
    z = abs(float(z))
    if z <= 600.0:
        total, _ = _i0_series(z)
        return total
    scaled, _ = _scaled_poisson_sq(z / 2.0)
    try:
        return math.exp(z + math.log(scaled))
    except OverflowError:
        return math.inf


def bessel_i0e(z: float) -> float:
    """exp(-z) * I0(z), stable for every nonnegative argument."""
    z = abs(float(z))
    if z <= 600.0:
        total, _ = _i0_series(z)
        return math.exp(-z) * total
    scaled, _ = _scaled_poisson_sq(z / 2.0)
    return scaled


# ---------------------------------------------------------------------------
# S(x): series route
# ---------------------------------------------------------------------------


def _neg_c_terms_log(params: Params, x: float) -> list[float]:
    """Log-terms of the finite squared sum for c < 0, stable up to the endpoint."""
    n = params.n_float
    c = params.c_float
    l = params.l
    u = c * x
    lp1 = math.log1p(u) if 1.0 + u > 0.0 else -math.inf  # right endpoint
    lx = math.log(x)
    logs = []
    log_coef = 0.0  # log of prod_{j<k}(n + j c) / k!
    for k in range(l + 1):
        if k > 0:
            log_coef += math.log(n + (k - 1) * c) - math.log(k)
        if k == l and lp1 == -math.inf:
            logs.append(2.0 * (log_coef + k * lx))
            continue
        logs.append(2.0 * (log_coef + k * lx) + 2.0 * (l - k) * lp1)
    return logs


def s_series(params: Params, x: float, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) summed from the squared-coefficient power series.

    For c < 0 the series terminates after l+1 terms and the value is exact
    up to rounding; otherwise the geometric certificate stops the sum once
    the tail drops below rtol times the partial sum.
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    params.require_in_domain(x)
    xf = float(x)
    if xf == 0.0:
        return EvalResult(1.0, Method.SERIES, 0.0, 1)
    n = params.n_float
    c = params.c_float
    # stop well below the requested tolerance; the certificate is reported
    rtol = max(1e-16, 1e-3 * rtol)

    if c < 0:
        logs = _neg_c_terms_log(params, xf)
        top = max(logs)
        value = math.exp(top) * math.fsum(math.exp(lg - top) for lg in logs)
        return EvalResult(value, Method.SERIES, 4e-16 * (params.l + 1) * value, params.l + 1)

    if c == 0.0:
        mu = n * xf
        if mu <= 300.0:
            pref = math.exp(-2.0 * mu)
            total, tail, steps = _certified_sum(lambda k: _sq(mu / (k + 1.0)), 0, rtol)
            return EvalResult(pref * total, Method.SERIES, pref * tail, steps + 1)
        value, terms = _scaled_poisson_sq(mu, tol=min(rtol, 1e-16))
        return EvalResult(value, Method.SERIES, rtol * value, terms)

    # c > 0: prefactor (1+cx)^(-2n/c) times the squared-coefficient series in
    # (x/(1+cx))^2; the term ratio tends to (cx/(1+cx))^2 < 1.
    u = c * xf
    lp1 = math.log1p(u)
    pref_log = -(2.0 * n / c) * lp1
    if pref_log < -_EXP_GUARD:
        # the unscaled sum would overflow; sum around the peak in log space
        value, terms = _pos_c_series_window(n, c, xf, min(rtol, 1e-16))
        return EvalResult(value, Method.SERIES, rtol * value, terms)
    rr = (xf / (1.0 + u)) ** 2
    zlim = (c * xf / (1.0 + u)) ** 2
    total, tail, steps = _certified_sum(
        lambda k: _sq((n + k * c) / (k + 1.0)) * rr, 0, rtol, 2 * 10 ** 6 + 1, sup=zlim
    )
    if tail is None:
        raise ArithmeticError("series did not converge; use the quadrature route")
    value = math.exp(pref_log) * total
    return EvalResult(value, Method.SERIES, value * (tail / total + 1e-15), steps + 1)


def _pos_c_series_window(n: float, c: float, x: float, tol: float) -> tuple[float, int]:
    """Peak-anchored log-space sum of the c > 0 series with its prefactor.

    Terms are t_k = ((n + (k-1)c)...(n)/k!)^2 rho^(2k) (1+cx)^(-2n/c) with
    rho = x/(1+cx); the term-ratio stream tends to (c rho)^2 < 1 from above
    for n/c >= 1 and from below otherwise.
    """
    rho = x / (1.0 + c * x)
    zlim = (c * rho) ** 2
    k0 = max(0, int((n * rho - 1.0) / (1.0 - c * rho)))
    log_anchor = -(2.0 * n / c) * math.log1p(c * x) + 2.0 * (
        math.fsum(math.log(n + j * c) for j in range(k0))
        - math.lgamma(k0 + 1)
        + k0 * math.log(rho)
    )
    scaled, terms = _sum_unimodal_scaled(
        lambda k: _sq((n + k * c) * rho / (k + 1.0)),
        lambda k: _sq(k / ((n + (k - 1) * c) * rho)),
        k0,
        tol,
        up_sup=zlim,
    )
    return math.exp(log_anchor + math.log(scaled)), terms


# ---------------------------------------------------------------------------
# S(x): closed-form route
# ---------------------------------------------------------------------------


def s_closed(params: Params, x: float, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) from the closed forms.

    ``(1+cx)^(-2n/c) * hyp2f1_diag(n/c, (cx/(1+cx))^2)`` for c != 0 (the
    hypergeometric factor terminates for c < 0) and the scaled Bessel value
    ``exp(-2nx) I0(2nx)`` for c = 0.  Powers go through exp/log1p so the
    anchor S(0) = 1 keeps full relative accuracy.  For c > 0 with series
    argument beyond Z_SWITCH (or powers beyond the double range) the call
    delegates to the quadrature route.
    """
    params.require_in_domain(x)
    xf = float(x)
    if xf == 0.0:
        return EvalResult(1.0, Method.CLOSED_FORM, 0.0, 1)
    n = params.n_float
    c = params.c_float
    qtol = rtol
    rtol = max(1e-16, 1e-3 * rtol)  # kernel target below the public promise

    if c == 0.0:
        value = bessel_i0e(2.0 * n * xf)
        return EvalResult(value, Method.CLOSED_FORM, 1e-15 * value, 0)

    u = c * xf
    if c < 0:
        a = -float(params.l)
        if 1.0 + u == 0.0:  # right endpoint: only the top term survives
            logs = _neg_c_terms_log(params, xf)
            return EvalResult(math.exp(logs[-1]), Method.CLOSED_FORM, 0.0, 1)
        z = (u / (1.0 + u)) ** 2
        pref_log = -(2.0 * n / c) * math.log1p(u)
        if z < 1e10 and abs(pref_log) < _EXP_GUARD:
            value, tail, terms = _hyp2f1_diag_tail(a, z, rtol)
            value *= math.exp(pref_log)
            return EvalResult(value, Method.CLOSED_FORM, 1e-15 * value * (params.l + 1), terms)
        # near the endpoint the terminating series is unscaled in log space
        logs = _neg_c_terms_log(params, xf)
        top = max(logs)
        value = math.exp(top) * math.fsum(math.exp(lg - top) for lg in logs)
        return EvalResult(value, Method.CLOSED_FORM, 1e-15 * value * (params.l + 1), params.l + 1)

    a = n / c
    z = (u / (1.0 + u)) ** 2
    pref_log = -(2.0 * n / c) * math.log1p(u)
    if z > Z_SWITCH or pref_log < -_EXP_GUARD:
        return s_quad(params, xf, rtol=qtol)
    value, tail, terms = _hyp2f1_diag_tail(a, z, rtol)
    pref = math.exp(pref_log)
    return EvalResult(pref * value, Method.CLOSED_FORM, pref * tail + 1e-15 * pref * value, terms)


# ---------------------------------------------------------------------------
# S(x): quadrature route
# ---------------------------------------------------------------------------


def _s_integrand(params: Params, x: float):
    """Integrand over the rule's interval and the rule kind it uses."""
    n = params.n_float
    c = params.c_float
    if c == 0.0:
        def f(t: np.ndarray) -> np.ndarray:
            return np.exp(-2.0 * n * x * (1.0 + t))

        return f, RuleKind.CHEBYSHEV_M11

    b2 = (1.0 + 2.0 * c * x) ** 2

    if c < 0:
        l = params.l

        def f(t: np.ndarray) -> np.ndarray:
            return (t + (1.0 - t) * b2) ** l

        return f, RuleKind.CHEBYSHEV_01

    e = -n / c

    def f(t: np.ndarray) -> np.ndarray:
        return np.exp(e * np.log(t + (1.0 - t) * b2))

    return f, RuleKind.CHEBYSHEV_01


@functools.lru_cache(maxsize=8)
def _rule(kind: RuleKind, m: int) -> QuadratureRule:
    """The m-node rule of a kind, shared between calls and so read-only.

    Bounded: eight rules serve the ladder levels that neighbouring points
    revisit, where an unbounded cache would keep every level ever built.
    """
    if kind is RuleKind.CHEBYSHEV_01:
        rule = QuadratureRule.chebyshev_01(m)
    else:
        rule = QuadratureRule.chebyshev_m11(m)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _rule_mean(f, kind: RuleKind, m: int) -> float:
    """Mean of f over the m nodes: the rule's value divided by pi.

    The same bits as ``np.mean``, which sums pairwise and divides by m.
    """
    return float(np.add.reduce(f(_rule(kind, m).nodes))) / m


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


def s_quad(params: Params, x: float, m: int = LADDER_START, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) from Gauss-Chebyshev quadrature of its integral representation.

    Starts at m nodes (raised when the integrand's concentration region
    needs finer resolution than m provides) and doubles, capped at
    LADDER_MAX, until two levels agree within max(1e-13, rtol*|value|);
    the error estimate is the last inter-level difference.  For c < 0 the
    integrand is a degree-l polynomial in t, so any node count past
    (l+1)/2 is already exact to rounding.
    """
    if m < 2:
        raise ValueError("need m >= 2 quadrature nodes")
    params.require_in_domain(x)
    xf = float(x)
    m = max(m, _min_nodes(params, xf))
    f, kind = _s_integrand(params, xf)
    value = _rule_mean(f, kind, m)
    diff = math.inf
    while m < LADDER_MAX:
        m *= 2
        new = _rule_mean(f, kind, m)
        diff = abs(new - value)
        value = new
        if diff <= max(1e-13, rtol * abs(new)):
            break
    return EvalResult(value, Method.QUADRATURE, max(diff, 1e-16 * abs(value)), m)


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
        # finite sum in log space, stable to the domain corners
        lxy = 2.0 * math.log(-c) + math.log(xf) + math.log(yf)
        lp = math.log(px) + math.log(py)
        logs = []
        log_coef = 0.0
        for k in range(l + 1):
            if k > 0:
                log_coef += 2.0 * math.log((l - k + 1) / k)  # C(l,k) step, squared
            logs.append(log_coef + k * lxy + (l - k) * lp)
        top = max(logs)
        return math.exp(top) * math.fsum(math.exp(lg - top) for lg in logs)

    if xf == 0.0 or yf == 0.0:
        other = yf if xf == 0.0 else xf
        return math.exp(-(n / c) * math.log1p(c * other))
    a = n / c
    z = (c * c * xf * yf) / (px * py)
    pref_log = -a * (math.log1p(c * xf) + math.log1p(c * yf))
    if z > Z_SWITCH or pref_log < -_EXP_GUARD:
        return _t_quad_adaptive(params, xf, yf)
    value, _, _ = _hyp2f1_diag_tail(a, z, 1e-15)
    return math.exp(pref_log) * value


def _t_integrand(params: Params, x: float, y: float):
    n = params.n_float
    c = params.c_float
    if c == 0.0:
        root = math.sqrt(x * y)

        def f(t: np.ndarray) -> np.ndarray:
            return np.exp(-n * (x + y + 2.0 * t * root))

        return f, RuleKind.CHEBYSHEV_M11

    aa = abs(c) * math.sqrt(x * y)
    bb = math.sqrt((1.0 + c * x) * (1.0 + c * y))
    s2 = (aa + bb) ** 2
    cross = 4.0 * aa * bb

    if c < 0:
        l = params.l

        def f(t: np.ndarray) -> np.ndarray:
            return (s2 - cross * t) ** l

        return f, RuleKind.CHEBYSHEV_01

    e = -n / c

    def f(t: np.ndarray) -> np.ndarray:
        return np.exp(e * np.log(s2 - cross * t))

    return f, RuleKind.CHEBYSHEV_01


def t_quad(params: Params, x: float, y: float, m: int = 64) -> float:
    """Kernel value from the integral representation at a fixed node count."""
    if m < 2:
        raise ValueError("need m >= 2 quadrature nodes")
    params.require_in_domain(x)
    params.require_in_domain(y)
    f, kind = _t_integrand(params, float(x), float(y))
    return _rule_mean(f, kind, m)


def _t_quad_adaptive(params: Params, x: float, y: float, rtol: float = RTOL_DEFAULT) -> float:
    f, kind = _t_integrand(params, x, y)
    # the kernel integrand concentrates no more sharply than the worse of
    # its two diagonal restrictions; kernel values can be genuinely tiny,
    # so the stop is purely relative here
    m = max(LADDER_START, _min_nodes(params, x), _min_nodes(params, y))
    value = _rule_mean(f, kind, m)
    while m < LADDER_MAX:
        m *= 2
        new = _rule_mean(f, kind, m)
        diff = abs(new - value)
        value = new
        if new == 0.0 or diff <= rtol * abs(new):
            break
    return value
