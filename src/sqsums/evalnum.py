"""Floating-point evaluation of the squared-basis sum S(x) and the kernel
T(x, y) by three routes: positive-term series, closed forms built on
self-contained diagonal-hypergeometric, Legendre and modified-Bessel
kernels, and quadrature of the integral representations.

All three routes agree to near machine precision on the shared domain,
which is the backbone of the verification suite.

Each route of S evaluates a whole grid in one call (``s_series_grid``,
``s_closed_grid``, ``s_quad_grid``); the scalar ``s_series``, ``s_closed``
and ``s_quad`` are the one-point grids.  The series of all points are rows
of one ``core._certified_rows`` call, which evaluates the term ratios and
the geometric tail certificates of a block of indices for every row in
numpy and reproduces each row's term-by-term loop bit for bit.  Every
peak window (the c >= 0 series past its switch, and ``core.basis_sum``)
is one ``core._window_rows`` call, which raises ArithmeticError where the
walk reaches its 10^7-term cap.  The closed forms of S and T are one pair
grid, ``_closed_rows``, which classifies each pair (x, y) once and runs
each kernel over all its pairs: ``s_closed_grid`` is its diagonal and
``t_closed`` its one-pair call, so T(x, x) has the bits of S(x).  So is
the quadrature, ``_quad_grid``, by T(x, y) = a factor times S's integral
at a pair parameter: ``s_quad_grid`` is its diagonal, ``t_quad`` its
one-pair call, and the closed form's hand-over (at a = n/c neither whole
nor half-integer) runs its pairs.  One ladder, ``_ladder``, climbs level
by level for all pairs still short of agreement, with their nodes in one
array.  One exact
test (``_twice_a``), made once per route call, sorts a = n/c: where 2a is
a whole number, at every c < 0 (a = -l) among them, the closed forms of S
and T are one Legendre recurrence (``_legendre``, seeded by the AGM at
half-integer a) and never hand over.  The quadrature decides its regime in
one place, the plan ``_s_quad_plan``: the integrand, the map from a pair
(x, y) to its parameter and factor, the rule, the node count the ladder
starts from, the stop's floor and the claim's rounding and tail bound.
For c > 0 it integrates a polynomial on Gauss-Chebyshev nodes at integer
a and the same reflected integrand on a tanh-sinh rule at every other a;
c = 0 runs on that rule too, within 1024 nodes up to n x = 1e9.
The c < 0 series is a log-space sum (``_neg_c_log_sum``), which no other
route reads, and raises ArithmeticError past 10^6 terms (``_NEG_C_TERMS``).

Large arguments cost O(1) or O(sqrt(mu)) per point, never O(x):

- exp(-z) I0(z) for z > 600 (the c = 0 closed forms of S and T,
  ``bessel_i0e`` and ``bessel_i0``) is the 8-term Hankel expansion, whose
  truncation error is below 1e-21 of the value there (``_hankel_i0e``);
- the c = 0 series past mu = n x = 300, and the c > 0 series whose
  prefactor underflows, are walked from the peak, anchored at Loader's
  saddle-point log of the weight there (``core._poisson_peak``,
  ``core._nb_peak``), and raise ArithmeticError where the walk cannot
  reach the peak (index 2^53);
- the c > 0 series at whole 2a sums its expansion about z = 1 past
  u = cx = max(64, 4a) (``_far_series``), at most 27 terms up to 2a = 601;
- elsewhere the c > 0 series stops within 2*10^6 + 1 steps or raises, and
  ``_pos_c_capped`` decides in O(1) where it provably cannot stop, so that
  the error is raised without summing.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import _NEG_C_TERMS, Params, _certified_rows, _finish, _nb_peak, _one, _poisson_peak, _sq, _window_rows

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
# than ~1e4 terms, so the closed-form route hands over to quadrature (c > 0
# only where 2a = 2n/c is not a whole number; every other c > 0 runs the
# Legendre recurrence at every x).
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
    commits and its rounding; ``terms_or_nodes`` counts series terms or
    quadrature nodes.
    """

    value: float
    method: Method
    err_estimate: float
    terms_or_nodes: int


class RuleKind(enum.Enum):
    CHEBYSHEV_01 = "chebyshev_01"
    TANH_SINH = "tanh_sinh"


class QuadratureRule:
    """Not exported and empty: quadrature keeps no rule objects.

    The span table of ``perfbench/tracing.py`` looks this class up, so the
    name stays until that entry goes.
    """


def _chebyshev_nodes(ms: np.ndarray) -> np.ndarray:
    """The nodes of the m-node Gauss-Chebyshev rule on [0, 1] for each m in
    ``ms``, one rule after the other in one array.

    The rule integrates against 1/sqrt(t(1-t)) with equal weights pi/m and
    is exact for polynomials of degree 2m-1 times the weight.
    """
    m = np.repeat(ms, ms)
    j = np.arange(1, m.size + 1) - np.repeat(np.cumsum(ms) - ms, ms)
    return (1.0 + np.cos((2 * j - 1) * np.pi / (2 * m))) / 2.0


# The tanh-sinh rule samples |tau| < _TS_EDGE; beyond it lie sigma and
# 1 - sigma below exp(-pi sinh 4.5) = 4.6e-62.
_TS_EDGE = 4.5
# Bound on the mean the rule leaves out, per unit of the integrand's largest
# value: 2 * (2/pi) * sqrt(4.6e-62), for the two ends.
_TS_TAIL = 4.0 / math.pi * math.exp(-math.pi * math.sinh(_TS_EDGE) / 2.0)
# The tanh-sinh ladder starts from this many nodes (``_s_quad_plan``).
_TANH_SINH_START = 64
# At c = 0 it starts from 32 nodes below n x = 0.1 and doubles at each
# edge: the level below the one at which two levels first agree at the
# default rtol, measured on n x from 1e-3 to 1e9.
_SZASZ_START_EDGES = (0.1, 5.0, 150.0, 4e4)


def _tanh_sinh_rule(ms: np.ndarray) -> tuple:
    """Nodes and weights of the m-node tanh-sinh rule for each m in ``ms``,
    one rule after the other in two arrays; each level is built once
    (``_tanh_sinh_level``)."""
    levels = [_tanh_sinh_level(m) for m in ms.tolist()]
    return np.concatenate([nodes for nodes, _ in levels]), np.concatenate([w for _, w in levels])


@functools.lru_cache(maxsize=64)
def _tanh_sinh_level(m: int) -> tuple:
    """Nodes and weights of the m-node tanh-sinh rule.

    The rule integrates against 1/sqrt(sigma(1-sigma)) on [0, 1], as
    CHEBYSHEV_01 does: with sigma = 1/(1 + exp(pi sinh tau)),

        (1/pi) int f dsigma/sqrt(sigma(1-sigma)) = (1/2) int f cosh(tau)/cosh((pi/2) sinh tau) dtau,

    whose weight falls doubly exponentially (Takahasi & Mori 1974).  The m
    nodes sit at tau = (j - (m-1)/2) h, h = 2 _TS_EDGE/m, so doubling m
    halves the step, and the weights carry m h/2, so the left side is the
    mean of f times weight.  Each sigma is formed directly, not as 1 minus
    a rounded node, so the nodes near 0 keep their relative accuracy down
    to 4.6e-62.
    """
    tau = (np.arange(m) - (m - 1) / 2.0) * (2.0 * _TS_EDGE / m)
    half = (math.pi / 2.0) * np.sinh(tau)
    return 1.0 / (1.0 + np.exp(2.0 * half)), _TS_EDGE * np.cosh(tau) / np.cosh(half)


# ---------------------------------------------------------------------------
# Series kernels
# ---------------------------------------------------------------------------


def _is_nonpositive_int(a: float) -> bool:
    return a <= 0.0 and float(a).is_integer()


def _hyp2f1_rows(a: float, zs: Sequence[float], rtol: float, max_terms: int = 2 * 10 ** 6, overflow: str = "") -> list:
    """Series value with a certified geometric tail bound and term count at
    each z: (value, tail, terms), or the exception raised there.  The
    non-terminating series of all points are rows of one kernel call; an
    overflowing square names ``overflow`` where given (``_Rows.outcomes``)."""
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
    ).outcomes(f"series did not converge within {max_terms} terms", overflow)
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


def _scaled_poisson_rows(mus: Sequence[float], tol: float) -> list:
    """exp(-2*mu) * sum_k (mu^k / k!)^2 at each mu, summed around its peak in
    log space from Loader's anchor: (value, terms), or the exception raised
    there (ArithmeticError where the window cannot reach the peak or finish)."""
    peaks: list = []
    for mu in mus:
        try:
            k0, log_pmf = _poisson_peak(mu)
            peaks.append((k0, 2.0 * log_pmf))
        except Exception as exc:
            peaks.append(exc)
    return _window_rows(peaks, lambda k, mu: _sq(mu / (k + 1.0)), lambda k, mu: _sq(k / mu), tol, args=(mus,))


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
    digits up to z = 1e9).  Past about z = 2.86e307, where 2 pi z
    overflows, the root is taken as sqrt(2 pi) sqrt(z).
    """
    w = 0.5 / z
    total = 0.0
    for coef in reversed(_HANKEL):
        total = total * w + coef
    two_pi_z = 2.0 * math.pi * z
    return total / (math.sqrt(two_pi_z) if two_pi_z < math.inf else math.sqrt(2.0 * math.pi) * math.sqrt(z))


def _i0_scaled_rows(zs: Sequence[float]) -> list:
    """I0(z) = exp(scale) * value at each z >= 0 as (scale, value, terms),
    or the exception raised there: the certified power series with scale 0
    and its terms up to _HANKEL_Z, and the Hankel expansion of exp(-z) I0(z)
    with scale z and terms 0 past it.  Every Bessel value reads this one
    split."""
    out: list = [None] * len(zs)
    series = [(i, z) for i, z in enumerate(zs) if z <= _HANKEL_Z]
    _finish(out, series, _i0_rows([z for _, z in series]), lambda _, s: (0.0, *s))
    for i, z in enumerate(zs):
        if not z <= _HANKEL_Z:
            out[i] = (z, _hankel_i0e(z), 0)
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
    scale, value, _ = _one(_i0_scaled_rows([abs(float(z))]))
    if scale < 709.0:
        return math.exp(scale) * value
    if scale > 1000.0:  # I0 leaves the double range near z = 714
        return math.inf
    half = math.exp(scale / 2.0)
    return half * value * half


def _bessel_i0e_rows(zs: Sequence[float]) -> list:
    """exp(-z) * I0(z) at each z >= 0 and the power series' terms (0 for the
    Hankel value), or the exception raised there."""
    return [
        r if isinstance(r, Exception) else (math.exp(r[0] - z) * r[1], r[2])
        for z, r in zip(zs, _i0_scaled_rows(zs))
    ]


def bessel_i0e(z: float) -> float:
    """exp(-z) * I0(z), stable for every nonnegative argument."""
    return _one(_bessel_i0e_rows([abs(float(z))]))[0]


# ---------------------------------------------------------------------------
# S(x): the three routes
#
# Each route evaluates a whole grid in one call and returns, per point, the
# EvalResult or the exception the scalar call raises there; a point's
# exception is kept, not raised, so the other points still run.  The scalar
# routes are the one-point grids.
# ---------------------------------------------------------------------------


def _neg_c_log_sum(params: Params, xs: Sequence[float]) -> list:
    """The finite sum S(x) = sum_k p_k(x)^2 for c < 0 at each x > 0, summed
    in log space and unscaled by its largest term; ArithmeticError at each
    x where l + 1 is past ``_NEG_C_TERMS``, before anything is built.

    Term k is 2 log(prod_{j<k}(n + j c) / k!) + 2k log(x) + 2(l - k)
    log1p(cx), whose first part, the same at every x, is formed once.  That
    log is -inf at the right endpoint, where only the last term survives.
    """
    n = params.n_float
    c = params.c_float
    l = params.l
    if l + 1 > _NEG_C_TERMS:
        return [ArithmeticError(f"the c < 0 series at l = {l} takes {l + 1} terms, past its cap of {_NEG_C_TERMS}")
                for _ in xs]
    # twice the log of prod_{j<k}(n + j c) / k!
    steps = (math.log(n + (k - 1) * c) - math.log(k) for k in range(1, l + 1))
    coefs = [2.0 * log_coef for log_coef in itertools.accumulate(steps, initial=0.0)]
    out = []
    for x in xs:
        lxy = 2.0 * math.log(x)
        lp = 2.0 * math.log1p(c * x) if 1.0 + c * x > 0.0 else -math.inf
        logs = [coef + k * lxy + ((l - k) * lp if k < l else 0.0) for k, coef in enumerate(coefs)]
        top = max(logs)
        out.append(math.exp(top) * math.fsum(math.exp(lg - top) for lg in logs))
    return out


# The c > 0 series takes at most this many kernel steps, then raises.
_POS_C_STEPS = 2 * 10 ** 6 + 1
_POS_C_CAPPED = "series did not converge; use the quadrature route"


def _pos_c_capped(
    n: float, c: float, u: float, rr: float, zlim: float, pref_log: float, tol: float
) -> bool:
    """Whether the c > 0 series kernel of ``s_series_grid`` provably runs to
    its step cap without stopping at u = cx, decided in O(1).

    Its terms are t_k = ((a)_k / k!)^2 (c^2 rr)^k with a = n/c, the step
    ratios ((n + kc)/(k+1))^2 rr, and a step stops only when its certificate
    r = max(next ratio, zlim) is below 1 and term r/(1-r) <= tol * sum.
    The ratios move monotonically toward their limit below 1, so r < 1
    only past the peak.  No step stops, then, when

    - the ratio at index K = _POS_C_STEPS, the last step's certificate, is
      still above 1: the peak lies beyond the cap; or
    - past the peak, where terms fall, every term a stop could see is at
      least the last one, t_K; every partial sum is at most
      S (1+u)^(2a) = S exp(-pref_log); and r/(1-r) is at least
      zlim/(1-zlim).  So no stop comes when t_K zlim/(1-zlim) exceeds
      tol S exp(-pref_log).

    S = sum p_k^2 with p_k = C(a+k-1, k) q^k (1+u)^(-a), q = u/(1+u), the
    negative binomial weights, which sum to 1; so S <= max_k p_k <= 1.  The
    bound S <= 1 decides first.  Where it is too weak, p_0 = exp(pref_log/2)
    <= max_k p_k shows cheaply whether the sharper bound can decide, and
    only then is max_k p_k taken through lgamma at the mode, which lies at
    the floor or ceiling of (a - 1) u, or at 0 when that is negative.

    Every test keeps a margin that covers the rounding of lgamma and of the
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
    # the largest log S at which no step stops
    room = log_last + log_cert - margin - math.log(tol) + pref_log
    if room > 0.0 or room <= 0.5 * pref_log:
        return room > 0.0
    log_q = 0.5 * math.log(zlim)
    mode = max(0.0, (a - 1.0) * u)
    log_p_max = -math.inf
    for k in (math.floor(mode), math.ceil(mode)):
        terms = (math.lgamma(a + k), -lg_a, -math.lgamma(k + 1.0), k * log_q, 0.5 * pref_log)
        log_p_max = max(log_p_max, sum(terms) + 1e-12 * sum(map(abs, terms)))
    return room > log_p_max


# The c > 0 series at whole 2a leaves its walk, whose steps grow like a u,
# from u = cx = max(_FAR_U, 4a) on for the expansion about z = 1
# (``_far_series``).  From u = 4a and u = 8 on every term ratio of both its
# sums is at most 1/4 in size, which certifies its stop; below about u = a
# the bound fails, and at 2a = 121, u = 32 the sum stopped after 4 terms,
# 5.8 times the value off.  The floor of 64 keeps the criterion-1 battery
# (u <= 40) on the walk.
_FAR_U = 64.0


@functools.lru_cache(maxsize=64)
def _far_constants(two_a: int) -> tuple:
    """The constants of ``_far_series`` at a = two_a/2: the number of terms
    of its first sum, that sum's factor h, the log series' factor b, its
    first psi difference D_0 and the bound H_(2a-1) + 3 on |D_k|.

    With beta_j = C(2j, j)/4^j: h = beta_(a-1) at integer a, and at
    a = j + 1/2 h = 1/(pi j beta_j) (none at j = 0) and b = beta_j/(2 pi).
    D_0 = 2 psi(a) - psi(1) - psi(2a) = 4 sum_(i<=j) 1/(2i-1) - H_(2j) - 4 ln 2
    by psi(a) - psi(1) = 2 sum_(i<=j) 1/(2i-1) - 2 ln 2.  Each is O(a).
    """
    j = two_a // 2

    def beta(i: int) -> float:
        return math.prod((k - 0.5) / k for k in range(1, i + 1))

    if two_a % 2 == 0:
        return j, beta(j - 1), 0.0, 0.0, 0.0
    d0 = math.fsum(itertools.chain(
        (4.0 / (2 * i - 1) for i in range(1, j + 1)), (-1.0 / i for i in range(1, 2 * j + 1)), [-4.0 * math.log(2.0)]
    ))
    harmonic = math.fsum(1.0 / i for i in range(1, 2 * j + 1))
    return two_a - 1, 1.0 / (math.pi * j * beta(j)) if j else 0.0, beta(j) / (2.0 * math.pi), d0, harmonic + 3.0


def _far_series(two_a: int, u: float, tol: float) -> tuple:
    """S at a = two_a/2 and u = cx >= max(_FAR_U, 4a) from the expansion of
    2F1(a, a; 1; z) about z = 1 at c - a - b = -m, m = 2a - 1 (Abramowitz &
    Stegun 15.3.12, DLMF 15.8(ii)): (value, tail bound, terms).  With
    w = 1 - z = (1+2u)/(1+u)^2, q = (1+u)/(1+2u) and the constants h, b of
    ``_far_constants``,

        S = h (2q)^(2a-2)/(1+2u) sum_(k<m) (1-a)_k^2/(k! (1-m)_k) w^k
            - b w (2+2u)^(2-2a)/(1+2u) sum_(k>=0) (a)_k^2 m!/(k! (k+m)!) w^k (ln w + D_k),

    D_k = 2 psi(a+k) - psi(k+1) - psi(k+m+1).  The log series comes from
    1/Gamma(1-a)^2, which vanishes at integer a, where the first sum ends
    after a terms.

    - The first sum alternates, and each term ratio
      (k+1-a)^2/((k+1)(k+2-2a)) w is at most (a-1) w/2 <= 1/4 in size.
    - The log series' ratios (a+k)^2/((k+1)(k+m+1)) w are at most
      max(1, a/2) w <= 1/4, and |ln w + D_k| <= |ln w| + H_m + 3: D_k lies
      between psi(a) - psi(2a) and psi(a) - psi(1) for a >= 1, and in
      [-4 ln 2, 0] at a = 1/2.

    Each sum stops once its geometric tail bound is within tol of its
    partial sum.  w is formed as 1/((1+u) q), and (2q)^(2a-2) as exp of
    (2a-2) log1p(1/(1+2u)) <= 1/4, so nothing overflows or loses digits.
    """
    a = two_a / 2.0
    count, h, b, d, bound = _far_constants(two_a)
    top = 1.0 + 2.0 * u
    q = (1.0 + u) / top
    w = 1.0 / ((1.0 + u) * q)
    value, tail, terms = 0.0, 0.0, 0
    if h:
        ratio = (a - 1.0) * w / 2.0
        term, total, k = 1.0, 1.0, 1
        while k < count:
            term *= (k - a) ** 2 / (k * (k + 1 - two_a)) * w
            total += term
            k += 1
            if abs(term) * ratio <= tol * abs(total) * (1.0 - ratio):
                break
        pref = math.exp((two_a - 2) * math.log1p(1.0 / top)) * h / top
        value, terms = pref * total, k
        if k < count:
            tail = pref * abs(term) * ratio / (1.0 - ratio)
    if b:
        log_w, ratio, m = math.log(w), max(1.0, a / 2.0) * w, two_a - 1
        coef, total, k = 1.0, log_w + d, 0
        bound += abs(log_w)
        while True:
            coef *= (a + k) ** 2 / ((k + 1) * (k + m + 1)) * w
            d += 2.0 / (a + k) - 1.0 / (k + 1) - 1.0 / (k + m + 1)
            total += coef * (log_w + d)
            k += 1
            if coef * bound * ratio <= tol * abs(total) * (1.0 - ratio):
                break
        pref = b * w * (2.0 + 2.0 * u) ** (2 - two_a) / top
        value -= pref * total
        tail += pref * coef * bound * ratio / (1.0 - ratio)
        terms += k + 1
    return value, tail, terms


# Units of rounding error of the c > 0 hypergeometric series, the closed
# form's and the series route's walk: each step carries the roundings of its
# term ratio and of the running product and sum, and the prefactor
# exp(pref_log) adds |pref_log| units.  Against mpmath at 40 digits (n/c from
# 1/5 to 601/2, c from 1/3 to 3, x over five decades below the switches)
# both were off by at most 3.3 units per term; the claim takes 8 per term
# plus |pref_log|, on top of 1e-15.
_HYP_ROUNDING = 2.0 ** -53


def _hyp_result(method: Method, pref_log: float, total: float, tail: float, terms: int) -> EvalResult:
    """exp(pref_log) times a partial sum of the c > 0 hypergeometric series
    with its tail bound, claiming the tail and ``_HYP_ROUNDING``'s model."""
    pref = math.exp(pref_log)
    rounding = 1e-15 + _HYP_ROUNDING * (8 * terms + abs(pref_log))
    return EvalResult(pref * total, method, pref * tail + rounding * pref * total, terms)


# The peak windows claim this much of the value per standard deviation of
# their weights, plus 2, beyond their stop: a term |k - k0| steps from the
# peak carries a few units of rounding per step.  Against mpmath at 40
# digits c = 0 (deviation sqrt(mu)) stayed below 0.4e-16 sqrt(mu) and c > 0
# (sqrt(a u (1+u)), a from 201/4 to 4000, c from 1/3 to 3) below 0.77 units
# per deviation plus 2.
_WINDOW_ROUNDING = 4.5e-16


def s_series_grid(params: Params, xs: Sequence[float], rtol: float = RTOL_DEFAULT) -> list:
    """``s_series`` at every point of ``xs``; the c >= 0 series of all points
    are rows of one certified-series kernel call, the peak windows of one
    ``core._window_rows`` call, and the points past the switch at whole 2a
    take ``_far_series`` one by one."""
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    n = params.n_float
    c = params.c_float
    # stop well below the requested tolerance; the certificate is reported
    rtol = max(1e-16, 1e-3 * rtol)
    two_a = _twice_a(params)
    far_u = max(_FAR_U, 2.0 * two_a)
    out: list = [None] * len(xs)
    log_sum, direct, window, far = [], [], [], []  # (point, parameters) of each sum
    for i, x in enumerate(xs):
        try:
            params.require_in_domain(x)
            xf = float(x)
            if xf == 0.0:
                out[i] = EvalResult(1.0, Method.SERIES, 0.0, 1)
            elif c < 0:
                log_sum.append((i, xf))
            elif c == 0.0:
                mu = n * xf
                (direct if mu <= 300.0 else window).append((i, mu))
            else:
                # prefactor (1+cx)^(-2n/c) times the squared-coefficient series
                # in (x/(1+cx))^2; the term ratio tends to (cx/(1+cx))^2 < 1
                u = c * xf
                pref_log = -(2.0 * n / c) * math.log1p(u)
                if two_a and u >= far_u or u == math.inf:
                    if not math.isfinite(1.0 + u + u):
                        raise OverflowError("1 + 2cx is past the double range")
                    far.append((i, u))
                elif pref_log < -_EXP_GUARD:
                    # the unscaled sum would overflow; sum around the peak in log space
                    window.append((i, xf))
                else:
                    rr, zlim = (xf / (1.0 + u)) ** 2, (c * xf / (1.0 + u)) ** 2
                    if _pos_c_capped(n, c, u, rr, zlim, pref_log, rtol):
                        raise ArithmeticError(_POS_C_CAPPED)
                    direct.append((i, (pref_log, rr, zlim)))
        except Exception as exc:
            out[i] = exc

    if c < 0:
        # (l + 1)(8 + sqrt(l)) units: each of the l + 1 terms carries a few,
        # and the l roundings of log_coef, on partial sums up to about l in
        # size, add up like a walk of l sqrt(l).  On the sweep of
        # ``_NEG_C_ROUNDING`` it was within 0.68 of the claim
        l = params.l
        rounding = _HYP_ROUNDING * (l + 1) * (8.0 + math.sqrt(l))
        _finish(out, log_sum, _neg_c_log_sum(params, [x for _, x in log_sum]),
                lambda _, value: EvalResult(value, Method.SERIES, rounding * value, l + 1))
    elif c == 0.0:
        mu = [mu for _, mu in direct]
        sums = _certified_rows(lambda k, mu: _sq(mu / (k + 1.0)), 0.0, rtol, args=(mu,)).outcomes()

        def szasz(mu, s):
            # term k carries 4 units per step (mu/(k+1), its square and the
            # running product) and the sum 1: at most 5 units per term, and 3
            # more for the prefactor and mu = nx (at most 2.4 per term against
            # mpmath at 40 digits, n from 1 to 100 and mu from 1e-3 to 300)
            pref, terms = math.exp(-2.0 * mu), s[2] + 1
            value = pref * s[0]
            return EvalResult(value, Method.SERIES, pref * s[1] + _HYP_ROUNDING * (5 * terms + 3) * value, terms)

        _finish(out, direct, sums, szasz)

        def szasz_window(mu, s):
            return EvalResult(s[0], Method.SERIES, s[0] * (rtol + _WINDOW_ROUNDING * (math.sqrt(mu) + 2.0)), s[1])

        _finish(out, window, _scaled_poisson_rows([mu for _, mu in window], tol=1e-16), szasz_window)
    elif c > 0.0:
        sums = _certified_rows(
            lambda k, rr: _sq((n + k * c) / (k + 1.0)) * rr,
            0.0,
            rtol,
            _POS_C_STEPS,
            sup=[p[2] for _, p in direct],
            args=([p[1] for _, p in direct],),
        ).outcomes(_POS_C_CAPPED, "series route: ((n + kc)/(k + 1))^2 in the c > 0 term ratio")

        def pos_c(p, s):
            total, tail, steps = s
            return _hyp_result(Method.SERIES, p[0], total, tail, steps + 1)

        _finish(out, direct, sums, pos_c)

        def pos_c_window(x, s):
            u = c * x  # the negative binomial weights' variance is a u (1+u)
            deviation = math.sqrt(n / c * u * (1.0 + u))
            return EvalResult(s[0], Method.SERIES, s[0] * (rtol + _WINDOW_ROUNDING * (deviation + 2.0)), s[1])

        _finish(out, window, _pos_c_window_rows(n, c, [x for _, x in window], min(rtol, 1e-16)), pos_c_window)
        # the claim of the half-integer Legendre recurrence, and at least
        # 2^-1074 per term below the normal range: on 2a from 1 to 601 and
        # 12 u per decade from the switch to 1e12 the expansion was within
        # 0.29 of it (at a = 1/2) against mpmath at 40 digits
        rounding = _ROUNDING_PER_A * (two_a / 2.0 + 1.0)
        _finish(out, far, [_far_series(two_a, u, min(rtol, 1e-16)) for _, u in far],
                lambda _, s: EvalResult(s[0], Method.SERIES, s[1] + max(rounding * s[0], s[2] * 2.0 ** -1074), s[2]))
    return out


def s_series(params: Params, x: float, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) summed from the squared-coefficient power series.

    For c < 0 the series terminates after l+1 terms and the value is exact
    up to rounding, which the claim bounds by (l+1)(8 + sqrt(l)) units of
    2^-53 of the value; past 10^6 terms it raises ArithmeticError.
    Otherwise the geometric certificate stops the sum once the tail drops
    below rtol times the partial sum, and the claim adds the rounding: 5
    units per term at c = 0, the closed form's model (``_HYP_ROUNDING``) on
    the c > 0 walk, and ``_WINDOW_ROUNDING`` per deviation of the weights in
    the peak windows.  For c > 0 at whole
    2a = 2n/c, from u = cx = max(64, 4a) on, the series is instead the
    expansion of 2F1(a, a; 1; z) about z = 1 (``_far_series``), O(1) terms
    per point, with a claim of its tail plus 1e-15*(a+1) of the value, and
    OverflowError where 1 + 2cx overflows; at other a the walk raises
    ArithmeticError past its 2*10^6-step cap.
    """
    return _one(s_series_grid(params, [x], rtol))


def _pos_c_window_rows(n: float, c: float, xs: Sequence[float], tol: float) -> list:
    """Peak-anchored log-space sums of the c > 0 series with its prefactor
    at each x: (value, terms), or the exception raised there.

    Terms are t_k = ((n + (k-1)c)...(n)/k!)^2 rho^(2k) (1+cx)^(-2n/c) with
    rho = x/(1+cx), the squares of the negative binomial weights at a = n/c
    and u = cx, so the walk is anchored at twice Loader's log of the weight
    at its peak (``core._nb_peak``); the term-ratio stream tends to
    (c rho)^2 < 1 from above for n/c >= 1 and from below otherwise.
    """
    rhos = [x / (1.0 + c * x) for x in xs]
    peaks: list = []
    for x in xs:
        try:
            k0, log_pmf = _nb_peak(n / c, c * x)
            peaks.append((k0, 2.0 * log_pmf))
        except Exception as exc:
            peaks.append(exc)
    return _window_rows(
        peaks,
        lambda k, rho: _sq((n + k * c) * rho / (k + 1.0)),
        lambda k, rho: _sq(k / ((n + (k - 1) * c) * rho)),
        tol,
        up_sup=[(c * rho) ** 2 for rho in rhos],
        args=(rhos,),
    )


def _twice_a(params: Params) -> int:
    """2a = 2n/c where c != 0 and 2a is a whole number, else 0; for c < 0
    it is always whole, 2a = -2l.

    This one exact test sorts the closed forms.  Where 2a is a whole
    number, S's closed form and T run the Legendre recurrence
    (``_legendre``); for c > 0, where 2a is even (integer a), S's quadrature
    plan (``_s_quad_plan``) integrates the reflected polynomial integrand on
    Chebyshev nodes, and at every other a on the tanh-sinh rule.  Each
    route call reads it once.
    """
    n, c = params.n, params.c
    if c.numerator:
        two_a, rest = divmod(2 * n.numerator * c.denominator, n.denominator * c.numerator)
        if rest == 0:
            return two_a
    return 0


# Relative rounding error of the c > 0 Legendre recurrence and of the
# reflected quadrature per unit of a.  On n/c in {1, 2, 5, 10, 25, 60, 300},
# c in {1/3, 1/2, 1, 2, 3} and 24 x per decade on [1e-3, 1e8], the
# recurrence was within 0.4e-15 a of mpmath's value at 40 digits, and the
# reflected Gauss-Chebyshev rule within 0.2e-15 a: both claim 1e-15 a.  At
# half-integer a the recurrence claims 1e-15 (a + 1), for the AGM seeds: on
# the same sweep at n/c in {1/2, 3/2, 5/2, 11/2, 25/2, 121/2, 601/2} it was
# within 4.6e-16 at a = 1/2, 7.6e-16 at a = 3/2 and 0.42e-15 a from a = 5/2
# on, and from x = 1e8 to the top of the double range (c in {1/3, 1, 2, 3},
# 2 x per decade, normal values) within 0.43 of its claim.  The tanh-sinh
# rule claims 1e-15 (a + 6): on a from 1/7 to 601/2,
# c in {1/3, 1, 3} and 12 x per decade it was within 2.8e-15 below a = 1/2,
# where S sits in the sharp region and each of its nodes carries the
# rounding of exp(pi sinh tau), and within 1e-16 a from a = 5/4 on.
_ROUNDING_PER_A = 1e-15

# Relative rounding error of the c < 0 Legendre recurrence per unit of l.
# Against the exact S_{n,c}(x) = F_l(|c|x) (the rounding of cx included),
# on c in {-1, -1/2, -1/3, -2/3, -2/5, -5/7, -2/7}, l from 1 to 1200 and
# 513 x each, S was within 1.71 units of 2^-53 per unit of l; T off the
# diagonal (4284 pairs, many near x + y = -1/c with x near 0) within 2.1
# units of the exact sum at its rounded cx and cy, in which T is
# ill-conditioned there.
_NEG_C_ROUNDING = 4.0 * 2.0 ** -53

# The Legendre recurrence takes about |a| steps, some 8 us each at one
# point; past this many it raises rather than run for hours (2a = 2*10^300
# at c = 1e-300, n = 1).  Every index the tests run is below it, l = 8190
# the largest.
_LEGENDRE_STEPS = 10 ** 5

# Arithmetic-geometric mean steps of the half-integer seeds: they take
# A <= 1.4e154, the largest with a finite A^2, to a ratio of the two means
# within 1e-23 of 1 (A <= 1e4, u up to about 1e8, needs six).
_AGM_STEPS = 12


def _legendre(two_a: int, ux, uy):
    """P_(a-1)(W) / B^a at u = ux, v = uy, where B = 1 + u + v and
    W = 1 + 2uv/B, for a whole or half-integer a = two_a/2; ``ux`` and
    ``uy`` are arrays of one shape.

    For c != 0 and a = n/c this is T(x, y) at u = cx, v = cy, by
    2F1(a, a; 1; z) = (1-z)^(-a) P_(a-1)((1+z)/(1-z)) with
    z = uv/((1+u)(1+v)), for which (1+u)(1+v)(1-z) = B; where u = v it is
    S(x) = P_(a-1)(w) / (1+2u)^a with w = 1 + 2u^2/(1+2u).  For c < 0,
    a = -l and P_(a-1) = P_l, so T = B^l P_l(W), the polynomial
    sum_k C(l,k)^2 (uv)^k ((1+u)(1+v))^(l-k).

    Bonnet's recurrence runs upward in the degree nu on
    q_nu = P_nu(W)/B^(nu+d) and e_nu = (P_nu(W) - P_(nu-1)(W))/B^(nu+d),
    d fixed:

        (nu+1) e_(nu+1) = nu s e_nu + (2nu+1) r q_nu,   q_(nu+1) = s q_nu + e_(nu+1),

    with s = 1/B and r = (W-1)/B = 2 (us)(vs) <= 1/2.  P_nu is the dominant
    solution for W > 1, every term from nu = 0 or 1/2 on is positive and
    bounded, so nothing cancels or overflows, and W enters only through
    W - 1, whose rounding near W = 1 (small x) costs a relative error in
    W - 1, not in W.  For c < 0 the same steps run l times on B^nu P_nu(W)
    and B^nu (P_nu(W) - P_(nu-1)(W)), with s = B and r = B (W-1) = 2uv,
    both at least 0 where B >= 0; where B < 0, k -> l - k swaps uv and
    (1+u)(1+v) in the sum, so s = -B and r = 2 (1+u)(1+v), and every term
    is again positive.  B is formed with one rounding, as (1 + the more
    negative of u, v) plus the other; formed left to right, T at l = 5,
    x = 1e-4, y = 0.9992 (c = -1) came out 5.3e-14 of its value off,
    against 3.1e-17.  Integer a starts at P_0 = P_(-1) = 1 (d = 0).  Half-
    integer a starts at degree 1/2 (d = 1) from the complete elliptic
    integrals, which the AGM gives (DLMF 19.8(i)): Laplace's integral
    (DLMF 14.12(i)) of P_(-1/2) and P_(1/2) reads them off the AGM M of
    A = sqrt((W+1)/2) and 1 and the sum over its steps of 2^(k-1) c_k^2,

        P_(-1/2)(W) = 1/M,   P_(1/2)(W) - P_(-1/2)(W) = (A^2 - 1 - sum_(k>=2) 2^(k-1) c_k^2) / M,

    with a_1 = A, b_1 = 1, c_(k+1) = (a_k - b_k)/2 and A^2 - 1 = uv/B =
    (W-1)/2, so W enters the seeds only through (W-1)(W+1) = 4 A^2 (A^2-1).
    c_2 = (A^2-1)/(2(A+1)) is formed without cancellation.  For large A
    the numerator, about 2A^2/ln(4A), is a small difference of terms near
    A^2, but it telescopes into positive terms: its partial sums D_k
    (up to k) are 2^(k-1) c_k^2 + sum_(j<k) 2^(j+1) b_j c_(j+1).  Those
    terms are summed while a_j > 2 b_j, where c_(j+1) does not cancel, and
    the 2^(k-1) c_k^2 of the later steps, below a quarter of the partial
    sum, are subtracted.  The cost is O(|a|) per point plus _AGM_STEPS steps.
    """
    if two_a < 0:
        b = (1.0 + np.minimum(ux, uy)) + np.maximum(ux, uy)
        s, r = np.abs(b), 2.0 * np.where(b < 0.0, (1.0 + ux) * (1.0 + uy), ux * uy)
        steps, scale = -two_a // 2, 1.0
    else:
        s = 1.0 / (1.0 + ux + uy)
        r = 2.0 * (ux * s) * (uy * s)
        steps, scale = (two_a - 2) // 2, s
    if two_a % 2 == 0:
        q, e, nu = 1.0, 0.0, 0.0
    else:
        d = (ux * s) * uy  # A^2 - 1
        big, small = np.sqrt(1.0 + d), 1.0
        c, weight = d / (2.0 * (big + 1.0)), 2.0
        # D = part + last - low: the positive terms of the steps with
        # a_j > 2 b_j, the 2^(k-1) c_k^2 of the last of them (d if none) and
        # those of the steps after it, selected by multiplying with masks
        part, last, low, far, tail, settled = 0.0, 0.0, 0.0, True, d, False
        for step in range(_AGM_STEPS + 1):
            if step:
                big, small = (big + small) / 2.0, np.sqrt(big * small)
                c = (big - small) / 2.0
                weight *= 2.0
            if settled:  # past the last far step at every point
                low = low + weight * (c * c)
                continue
            was_far, far = far, big > 2.0 * small
            last = last + (was_far > far) * tail
            part = part + far * (2.0 * weight * (small * c))
            tail = weight * (c * c)
            low = low + (far < 1) * tail
            settled = not far.any()
        q = np.sqrt(s) / big  # P_(-1/2)(W) / B^(1/2)
        if two_a == 1:
            return q
        e = q * (s * ((part + last) - low))
        q, nu, scale = s * q + e, 0.5, 1.0
    for _ in range(steps):
        e = (nu * (s * e) + (2 * nu + 1) * (r * q)) / (nu + 1)
        q = s * q + e
        nu += 1.0
    return scale * q


def _closed_rows(params: Params, xs: Sequence[float], ys: Sequence[float], rtol: float) -> tuple:
    """The closed form of T at each pair of ``xs`` and ``ys`` (the EvalResult
    or the exception raised there), and the bound on the part of each value
    the hand-over's rule leaves out (0 elsewhere).  Each pair is classified
    once and each kernel runs once over its pairs.  Where x = y every step
    is S's own arithmetic."""
    n = params.n_float
    c = params.c_float
    a = n / c if c else 0.0
    two_a = _twice_a(params)
    qtol = rtol
    rtol = max(1e-16, 1e-3 * rtol)  # kernel target below the public promise
    out: list = [None] * len(xs)
    tails = [0.0] * len(xs)
    bessel, legendre, hyp, quad = [], [], [], []  # (point, parameters) per kernel, and the hand-over's points
    for i, (x, y) in enumerate(zip(xs, ys)):
        try:
            params.require_in_domain(x)
            if y is not x:  # S's points are checked once
                params.require_in_domain(y)
            xf, yf = float(x), float(y)
            u, v = c * xf, c * yf
            if xf == 0.0 or yf == 0.0:
                # T(x, 0) = p_0(x) p_0(0), the prefactor alone: exactly 1 at
                # x = y = 0, and 0 at the other end of a c < 0 domain
                log_p = -n * (xf + yf) if c == 0.0 else -a * sum(
                    math.log1p(t) if 1.0 + t > 0.0 else -math.inf for t in (u, v)
                )
                value = math.exp(log_p)
                err = _HYP_ROUNDING * abs(log_p) * value if value else 0.0
                out[i] = EvalResult(value, Method.CLOSED_FORM, err, 1)
            elif c == 0.0:
                # T = exp(-n (sqrt(x) - sqrt(y))^2) exp(-2mu) I0(2mu) at mu =
                # n sqrt(x) sqrt(y), which does not overflow, and
                # sqrt(x) - sqrt(y) = (x - y)/(sqrt(x) + sqrt(y)) does not cancel
                rx, ry = math.sqrt(xf), math.sqrt(yf)
                z = 2.0 * n * (xf if xf == yf else rx * ry)
                if not math.isfinite(z):
                    raise OverflowError(f"{'2nx' if xf == yf else '2n sqrt(x) sqrt(y)'} is past the double range")
                bessel.append((i, (z, ((xf - yf) / (rx + ry)) ** 2)))
            elif two_a:
                if abs(two_a) // 2 > _LEGENDRE_STEPS:
                    raise ArithmeticError(f"|a| = |n/c| is past the {_LEGENDRE_STEPS} steps of the Legendre recurrence")
                if not math.isfinite(1.0 + u + v):
                    raise OverflowError(f"1 + {'2cx' if u == v else 'cx + cy'} is past the double range")
                legendre.append((i, (u, v)))
            else:
                # c > 0: z = uv/((1+u)(1+v)), each quotient at most 1
                z = (u / (1.0 + u)) ** 2 if u == v else (u / (1.0 + u)) * (v / (1.0 + v))
                pref_log = -a * (math.log1p(u) + math.log1p(v))
                if z > Z_SWITCH or pref_log < -_EXP_GUARD:
                    quad.append(i)
                else:
                    hyp.append((i, (z, pref_log)))
        except Exception as exc:
            out[i] = exc

    if bessel:
        def szasz(p, s):
            # the power series below _HANKEL_Z is the series route's sum
            # (I0(2 mu) = sum (mu^k/k!)^2), with its rounding model and tail
            # off the diagonal the factor's exponent rounds by a few units of
            # its size: 2^-50 n e of the value, 0 on the diagonal
            value, terms = s[0] * math.exp(-n * p[1]), s[1]
            rel = 1e-16 + _HYP_ROUNDING * (5 * terms + 3) if terms else 1e-15
            return EvalResult(value, Method.CLOSED_FORM, (rel + 2.0 ** -50 * n * p[1]) * value, 0)

        _finish(out, bessel, _bessel_i0e_rows([z for _, (z, _) in bessel]), szasz)
    if legendre:
        us, vs = (np.array(col) for col in zip(*(p for _, p in legendre)))
        # c > 0: 1e-15 a at integer a, 1e-15 (a + 1) at half-integer a; the
        # terms count the degrees the recurrence passes, a + 1/2 at
        # half-integer a, and below the normal range each rounds to the
        # subnormal grid (on a up to 241/2 and x up to 1.7e308 within 0.6 of
        # terms 2^-1074).  c < 0: ``_NEG_C_ROUNDING`` per step; the terms
        # count the degrees 0 to l.
        if c < 0:
            rounding, terms = _NEG_C_ROUNDING * params.l, params.l + 1
        else:
            rounding, terms = _ROUNDING_PER_A * (two_a / 2 + two_a % 2), (two_a + 1) // 2
        for (i, _), value in zip(legendre, _legendre(two_a, us, vs).tolist()):
            out[i] = EvalResult(value, Method.CLOSED_FORM, max(rounding * value, terms * 2.0 ** -1074), terms)
    if hyp:
        over = "closed-form route: ((a + k)/(k + 1))^2 in the term ratio of 2F1(a, a; 1; z)"
        _finish(out, hyp, _hyp2f1_rows(a, [z for _, (z, _) in hyp], rtol, overflow=over),
                lambda p, s: _hyp_result(Method.CLOSED_FORM, p[1], *s))
    if quad:
        # S's quadrature pair grid, from the node count S starts from
        rows, quad_tails = _quad_grid(params, [xs[i] for i in quad], [ys[i] for i in quad], LADDER_START, qtol, two_a)
        for i, row, tail in zip(quad, rows, quad_tails):
            out[i], tails[i] = row, tail
    return out, tails


def s_closed_grid(params: Params, xs: Sequence[float], rtol: float = RTOL_DEFAULT) -> list:
    """``s_closed`` at every point of ``xs``: the diagonal of T's pair grid
    (``_closed_rows``), so each kernel runs once over all its points."""
    return _closed_rows(params, xs, xs, rtol)[0]


def s_closed(params: Params, x: float, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) from the closed forms: the diagonal of T's pair grid
    (``_closed_rows``).

    ``(1+cx)^(-2n/c) * hyp2f1_diag(n/c, (cx/(1+cx))^2)`` for c > 0 and the
    scaled Bessel value ``exp(-2nx) I0(2nx)`` for c = 0, which raises
    OverflowError where 2nx overflows.  Powers go through exp/log1p so the
    anchor S(0) = 1 keeps full relative accuracy; for c > 0 the claimed
    error covers the series' rounding, about 8 units per term.  For c < 0 it
    is the polynomial (1+2cx)^l P_l(w), l = -n/c, by the same Legendre
    recurrence (``_legendre``), with a claimed error of 4*l units of 2^-53
    of the value and a terms count of l + 1.  For c > 0
    with a whole or half-integer a = n/c it is instead P_(a-1)(w)/(1+2cx)^a,
    w = 1 + 2(cx)^2/(1+2cx), from the Legendre recurrence (``_legendre``,
    seeded by the AGM at half-integer a) at every x, with a claimed error
    of 1e-15*a of the value at integer a and 1e-15*(a+1) at half-integer
    a, and a terms count of a (a + 1/2), and at least 2^-1074 per term
    below the normal range; where 1 + 2cx overflows it raises
    OverflowError.  For c > 0 at any other a, with
    series argument beyond Z_SWITCH (or powers beyond the double range),
    it climbs the tanh-sinh ladder of the quadrature route, with that
    route's claim.
    """
    return _one(s_closed_grid(params, [x], rtol))


# ---------------------------------------------------------------------------
# S(x): quadrature route
# ---------------------------------------------------------------------------


# The integrand of many points is evaluated up to this many nodes at a
# time, which bounds the arrays of a large grid.
_NODES_PER_CALL = 4096


def _means(f, kind: RuleKind, ps: Sequence, ms: Sequence[int]) -> list[float]:
    """Mean of f(t, p) over the nodes t of the m-node rule of a kind, for
    each pair (p, m) of ``ps`` and ``ms``: the rule's value divided by pi
    (on the tanh-sinh rule, the mean of f(t, p) times the node's weight).

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
        p = np.repeat([ps[j] for j in chunk], sizes)
        if kind is RuleKind.TANH_SINH:
            nodes, weights = _tanh_sinh_rule(sizes)
            vals = f(nodes, p) * weights
        else:
            vals = f(_chebyshev_nodes(sizes), p)
        start = 0
        for mm, run in itertools.groupby(chunk, key=ms.__getitem__):
            run = list(run)
            rows = vals[start : start + mm * len(run)].reshape(len(run), mm)
            start += mm * len(run)
            for j, total in zip(run, np.add.reduce(rows, axis=1).tolist()):
                means[j] = total / mm
    return means


def _ladder(f, kind: RuleKind, ps: Sequence, ms: Sequence[int], rtol: float, floor: float) -> tuple:
    """The quadrature ladder of each pair (p, m) of ``ps`` and ``ms``, one
    ``_means`` call per level: m doubles, capped at LADDER_MAX, until a mean
    is 0 or within max(floor, rtol*|mean|) of the level below.  Returns the
    last means, their differences from the level below (inf where the first
    level is at the cap) and the last node counts."""
    ms = list(ms)
    values = _means(f, kind, ps, ms)
    diffs = [math.inf] * len(ms)
    climbing = [j for j in range(len(ms)) if ms[j] < LADDER_MAX]
    while climbing:
        for j in climbing:
            ms[j] *= 2
        for j, mean in zip(climbing, _means(f, kind, [ps[j] for j in climbing], [ms[j] for j in climbing])):
            diffs[j] = abs(mean - values[j])
            values[j] = mean
        climbing = [
            j for j in climbing
            if not (values[j] == 0.0 or diffs[j] <= max(floor, rtol * abs(values[j]))) and ms[j] < LADDER_MAX
        ]
    return values, diffs, ms


@dataclass(frozen=True)
class _QuadPlan:
    """How S's quadrature runs at one parameter pair (``_s_quad_plan``): the
    integrand f(t, p) over the rule's interval (``t`` and ``p`` may be
    arrays of equal length, so the nodes of many points go in one call),
    the map from a pair (x, y) to p, the factor by which T(x, y) is the
    integral at p and the relative rounding of that factor, the rule, the
    first node count at p where x, y > 0, the absolute floor of the
    ladder's stop, the relative rounding the claim covers at least, and the
    bound on the mean the rule leaves out at p."""

    f: Callable
    pair: Callable[[float, float], tuple]
    kind: RuleKind
    start: Callable[[float], int]
    floor: float
    rounding: float
    tail: Callable[[float], float]


def _s_quad_plan(params: Params, two_a: int) -> _QuadPlan:
    """S's quadrature at ``params`` with 2a = ``two_a`` (``_twice_a``): each
    regime is decided here once.

    The polynomial integrands (c < 0, and c > 0 at integer a) run on
    Gauss-Chebyshev nodes, every other one on the tanh-sinh rule.  For
    c < 0 the integrand is a degree-l polynomial and (l+2)/2 nodes are
    exact; so are (a+1)/2 nodes for the degree-(a-1) integrand of c > 0 at
    integer a.  At c = 0 the tanh-sinh rule starts from 32 to 512 nodes by
    n x (``_SZASZ_START_EDGES``).  At every other c > 0 it starts from 64:
    below that it can pass over the small share of S near sigma = s^2 on
    two levels alike (from 16 nodes, at a from 5/4 to 200 and x up to 1e8,
    levels agreed within 1e-12 while 5e-13 off mpmath).

    T(x, y) is a factor times the plan's integral at a pair parameter p
    (``pair``), which where x = y (u = v at c != 0) is S's own p, to the
    bit, with the factor 1 and no rounding of it.  With u = cx, v = cy,
    b = 1 + u + v, A = sqrt(uv), B = sqrt((1+u)(1+v)) and g = A + B:

    - c = 0: S's integral at mu = n sqrt(x) sqrt(y), times exp(-n e),
      e = (sqrt(x) - sqrt(y))^2, whose exponent rounds by a few units of its
      size: the claim adds 2^-50 n e of the value.
    - c > 0: by Laplace's integral T = P_(a-1)(W)/b^a, W = 1 + 2uv/b, is
      the mean of ((W+R)(1-t) + (W-R)t)^(a-1)/b^a, R = sqrt(W^2 - 1), and
      W - R = b/g^2 = 1/(W+R): S's integrand at s = b/g^2 times (g/b)^(2a).
    - c < 0: T = sum_k C(l,k)^2 A^(2k) B^(2(l-k)) is the mean over theta
      of |A + B e^(i theta)|^(2l) (Parseval), that is of (g^2 - 4ABt)^l at
      t = (1 - cos theta)/2.  As g^2 - (B-A)^2 = 4AB and B^2 - A^2 = b,
      t -> 1 - t makes it g^(2l) (t + (1-t) p)^l with p = (b/g^2)^2, and
      the m Chebyshev nodes (1 + cos((2j-1) pi/2m))/2 go to each other
      (j -> m+1-j), so the rule's mean is the same sum, node for node.
      g <= 1 by Cauchy-Schwarz on |u|, |v| <= 1, g = 1 where x = y, and
      g = 0 (x = 0 at y = -1/c, or the other way round) gives T = 0.
    """
    n = params.n_float
    c = params.c_float
    if c == 0.0:
        # exp(-2mu) I0(2mu), mu = n x, is (1/pi) int_0^1 exp(-4 mu sigma)
        # dsigma/sqrt(sigma(1-sigma)) (sigma = (1 - cos theta)/2 in DLMF
        # 10.32.1), which peaks at sigma = 0, where the tanh-sinh nodes
        # cluster.  S is at least about 1/sqrt(4 pi n x), so the stop is
        # purely relative; the rounding of the nodes' exponents was within
        # 3.3e-16 of the value on n x from 1e-3 to 1e9, and the integrand's
        # largest value is 1, at sigma = 0
        def szasz(x, y):
            if x == y:
                return -4.0 * n * x, 1.0, 0.0
            rx, ry = math.sqrt(x), math.sqrt(y)  # sqrt(x) - sqrt(y) = (x - y)/(rx + ry) does not cancel
            e = ((x - y) / (rx + ry)) ** 2
            return -4.0 * n * (rx * ry), math.exp(-n * e), 2.0 ** -50 * n * e

        return _QuadPlan(
            lambda sigma, p: np.exp(p * sigma), szasz, RuleKind.TANH_SINH,
            lambda p: _TANH_SINH_START // 2 << bisect.bisect(_SZASZ_START_EDGES, -0.25 * p), 0.0, 1e-15,
            lambda p: _TS_TAIL,
        )
    # two exact levels of a polynomial integrand differ by rounding alone,
    # which grows with its degree: the claim is the closed form's per degree
    # (c < 0: within 2.52 units of 2^-53 per unit of l against the exact
    # sums, on the sweep of ``_NEG_C_ROUNDING`` and on 2048 x at l up to 25)
    if c < 0:
        l = params.l
        start = min(LADDER_MAX, max(2, (l + 2) // 2))

        def neg_c(x, y):
            u, v = c * x, c * y
            if u == v:
                return (1.0 + 2.0 * u) ** 2, 1.0, 0.0
            b = (1.0 + min(u, v)) + max(u, v)
            g = math.sqrt(-u) * math.sqrt(-v) + math.sqrt(1.0 + u) * math.sqrt(1.0 + v)
            return ((b / g / g) ** 2, g ** (2 * l), 0.0) if g else (1.0, 0.0, 0.0)

        return _QuadPlan(
            lambda t, p: (t + (1.0 - t) * p) ** l, neg_c, RuleKind.CHEBYSHEV_01,
            lambda p: start, 1e-13, _NEG_C_ROUNDING * l, lambda p: 0.0,
        )
    a = n / c

    def pos_c(x, y):
        u, v = c * x, c * y
        if u == v:
            return 1.0 / (1.0 + 2.0 * u), 1.0, 0.0
        b = 1.0 + u + v
        if not math.isfinite(b):
            raise OverflowError("1 + cx + cy is past the double range")
        g = math.sqrt(u) * math.sqrt(v) + math.sqrt(1.0 + u) * math.sqrt(1.0 + v)
        return b / g / g, (g / b) ** (2.0 * a), 0.0

    # Laplace's integral at s = 1/(1+2cx), T's at a pair's s
    if two_a and two_a % 2 == 0:
        # at integer a a polynomial of degree a-1 in t
        degree = two_a // 2 - 1
        start = min(LADDER_MAX, max(2, (degree + 2) // 2))
        return _QuadPlan(
            lambda t, s: s * (1.0 - t + t * (s * s)) ** degree, pos_c,
            RuleKind.CHEBYSHEV_01, lambda s: start, 1e-13, _ROUNDING_PER_A * (two_a // 2), lambda s: 0.0,
        )
    # elsewhere it changes sharply at 1 - t of about s^2, so the tanh-sinh
    # rule passes sigma = 1 - t itself.  S can be far below 1e-13 here, so
    # the stop is purely relative; the claim adds the rounding of the power
    # and the mean the rule leaves out, _TS_TAIL times the integrand's
    # largest value, s at sigma = 1 or s^(2a-1) at sigma = 0 (inf where s
    # underflows)
    return _QuadPlan(
        lambda sigma, s: s * (sigma + (1.0 - sigma) * (s * s)) ** (a - 1.0), pos_c,
        RuleKind.TANH_SINH, lambda s: _TANH_SINH_START, 0.0, _ROUNDING_PER_A * (a + 6.0),
        lambda s: _TS_TAIL * max(s, s ** (2.0 * a - 1.0)) if s > 0.0 else math.inf,
    )


def _quad_grid(params: Params, xs: Sequence, ys: Sequence, m: int, rtol: float, two_a: int | None = None) -> tuple:
    """T(x, y) at each pair of ``xs`` and ``ys``, S(x) to the bit where
    x = y: the plan's integral at the pair's parameter times its factor
    (``_s_quad_plan``, at ``two_a`` where the caller has sorted a), one
    ``_ladder`` from max(m, the plan's first node count) nodes, 2 where x
    or y is 0.  Returns the EvalResult or the exception at each pair, each
    claiming the last difference of levels, at least the plan's rounding,
    plus the bound on the mean the rule leaves out, all times the factor,
    plus the factor's rounding of the value; and that bound times the
    factor (0 where it raised)."""
    if m < 2:
        raise ValueError("need m >= 2 quadrature nodes")
    plan = _s_quad_plan(params, _twice_a(params) if two_a is None else two_a)
    out: list = [None] * len(xs)
    tails = [0.0] * len(xs)
    rows = []  # (pair, parameter, factor, its rounding, first node count)
    for i, (x, y) in enumerate(zip(xs, ys)):
        try:
            params.require_in_domain(x)
            if y is not x:  # S's points are checked once
                params.require_in_domain(y)
            xf, yf = float(x), float(y)
            p, factor, spread = plan.pair(xf, yf)
            rows.append((i, p, factor, spread, max(m, 2 if xf == 0.0 or yf == 0.0 else plan.start(p))))
        except Exception as exc:
            out[i] = exc
    if rows:
        points, ps, factors, spreads, ms = zip(*rows)
        ladder = _ladder(plan.f, plan.kind, ps, ms, rtol, plan.floor)
        for i, p, factor, spread, v, d, nodes in zip(points, ps, factors, spreads, *ladder):
            tail = plan.tail(p)
            tails[i] = factor * tail
            err = factor * (max(d, plan.rounding * abs(v)) + tail)
            if spread:  # off the diagonal at c = 0 only (0 * inf would be NaN)
                err += spread * abs(factor * v)
            out[i] = EvalResult(factor * v, Method.QUADRATURE, err, nodes)
    return out, tails


def s_quad_grid(
    params: Params, xs: Sequence[float], m: int = LADDER_START, rtol: float = RTOL_DEFAULT
) -> list:
    """``s_quad`` at every point of ``xs``: the diagonal of T's quadrature
    pair grid (``_quad_grid``), whose one ladder gives every point the
    bits of the one-point ladder."""
    return _quad_grid(params, xs, xs, m, rtol)[0]


def s_quad(params: Params, x: float, m: int = LADDER_START, rtol: float = RTOL_DEFAULT) -> EvalResult:
    """S(x) from quadrature of its integral representation, on the plan of
    ``_s_quad_plan``.

    Starts at m nodes (raised to the plan's first node count) and doubles, capped at
    LADDER_MAX, until a level's mean is 0 or two levels agree within
    max(floor, rtol*|value|) (``_ladder``); the error estimate is the last
    difference of levels, at least the rounding of the integrand.  The
    polynomial integrands, of c < 0 and of c > 0 at integer a = n/c, run on
    Gauss-Chebyshev nodes, exact from (l+2)//2 or (a+1)//2 nodes, with a
    floor of 1e-13 and at least 4*l units of 2^-53 (c < 0) or 1e-15*a
    (c > 0) of the value.  Every other one, of
    c = 0 and of c > 0 at non-integer a, runs on the tanh-sinh rule with a
    purely relative stop, at least 1e-15 (c = 0) or 1e-15*(a+6) of the
    value, plus the part of the integral beyond the rule's ends.
    """
    return _one(s_quad_grid(params, [x], m, rtol))


# ---------------------------------------------------------------------------
# Kernel T(x, y)
# ---------------------------------------------------------------------------


def _kernel_value(rows: list, tails: list) -> float:
    """The value of a one-pair grid of T, or ArithmeticError where the part
    of the integral beyond the tanh-sinh rule's ends may exceed RTOL_DEFAULT
    of it (a < 1 with s^2 near or past the rule's 4.6e-62, x, y of 1e18 and
    beyond; c = 0 where the integral underflows)."""
    value = _one(rows).value
    if tails[0] > RTOL_DEFAULT * value:
        raise ArithmeticError("the kernel integrand peaks past the reach of the tanh-sinh rule")
    return value


def t_closed(params: Params, x: float, y: float) -> float:
    """Kernel value from the closed forms: the one-pair call of the pair
    grid (``_closed_rows``) whose diagonal is ``s_closed``, so T(x, x) has
    the bits of S(x).

    For c != 0 at a whole or half-integer a = n/c, every c < 0 among them,
    it is P_(a-1)(W)/B^a with B = 1 + cx + cy and W = 1 + 2c^2xy/B
    (``_legendre``; for c < 0 the polynomial B^l P_l(W)), and nothing hands
    over.  At any other a, past Z_SWITCH or with powers beyond the double
    range, it climbs the tanh-sinh ladder of ``s_quad`` at T's pair
    parameter (``_quad_grid``), and raises ArithmeticError where the part of
    the integral beyond the rule's ends may exceed RTOL_DEFAULT of the
    value.  Where B overflows it raises OverflowError at whole 2a, and off
    the diagonal at every other c > 0; at c = 0 it does where
    2n sqrt(x) sqrt(y) overflows.
    """
    return _kernel_value(*_closed_rows(params, [x], [y], RTOL_DEFAULT))


def t_quad(params: Params, x: float, y: float, m: int = LADDER_START) -> float:
    """Kernel value from quadrature: the one-pair call of the pair grid
    (``_quad_grid``) whose diagonal is ``s_quad_grid``, so T(x, x) has the
    bits of ``s_quad(params, x, m).value``.  m is the ladder's start, as in
    ``s_quad``, and rtol RTOL_DEFAULT.  It raises ArithmeticError where the
    part of the integral beyond the tanh-sinh rule's ends may exceed
    RTOL_DEFAULT of the value, as ``t_closed`` does, and OverflowError off
    the diagonal at c > 0 where 1 + cx + cy overflows."""
    return _kernel_value(*_quad_grid(params, [x], [y], m, RTOL_DEFAULT))
