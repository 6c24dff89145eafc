"""Legendre polynomials and their bridge to the squared Bernstein sum.

On [0, 1/2) the map t = (2x^2 - 2x + 1)/(1 - 2x) sends the Bernstein
variable to t >= 1, where the squared-basis sum factors as
(t - sqrt(t^2 - 1))^n P_n(t) with P_n the Legendre polynomial.  This module
evaluates both sides, in floating point on the forward recurrence and
exactly on rationals, and verifies the derivative relations the bridge
rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import DomainError
from .exactalg import RationalPoly, f_poly_direct, f_value

__all__ = [
    "LegendreMap",
    "cosine_rep",
    "derivative_relations_check",
    "legendre_from_binom",
    "legendre_p",
    "legendre_poly",
    "neuschel_check",
    "neuschel_check_exact",
]

# The map is singular at x = 1/2; points closer than this are rejected.
MAP_GUARD = 1e-8


@dataclass(frozen=True)
class LegendreMap:
    """The substitution x <-> t with its derivative.

    t = (2x^2 - 2x + 1)/(1 - 2x) maps [0, 1/2) onto [1, inf); the inverse is
    x = (1 - t + sqrt(t^2 - 1))/2, and t - sqrt(t^2 - 1) = 1 - 2x exactly.
    dx/dt = (1 - 2x)^2 / (4x(1-x)) on (0, 1/2) and is infinite at x = 0.
    """

    x: float
    t: float
    dxdt: float

    @classmethod
    def from_x(cls, x: float) -> "LegendreMap":
        if not 0.0 <= x < 0.5:
            raise DomainError(f"x={x} outside [0, 1/2)")
        t = (2.0 * x * x - 2.0 * x + 1.0) / (1.0 - 2.0 * x)
        if x == 0.0:
            return cls(x, t, math.inf)
        dxdt = (1.0 - 2.0 * x) ** 2 / (4.0 * x * (1.0 - x))
        return cls(x, t, dxdt)

    @classmethod
    def from_t(cls, t: float) -> "LegendreMap":
        if t < 1.0:
            raise DomainError(f"t={t} outside [1, inf)")
        x = (1.0 - t + math.sqrt(t * t - 1.0)) / 2.0
        return cls.from_x(min(x, 0.5 - 1e-17))

    @property
    def falling(self) -> float:
        """t - sqrt(t^2 - 1), computed through the identity with 1 - 2x."""
        return 1.0 - 2.0 * self.x


def legendre_p(n: int, t):
    """P_n(t) by the three-term recurrence from P_0 = 1, P_1 = t.

    Works elementwise on the scalar type of ``t``: exact on Fraction input,
    float on float.  The forward recurrence is stable for t >= 1, the only
    regime the Bernstein map produces.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    one = t * 0 + 1
    if n == 0:
        return one
    p_prev, p_cur = one, t
    for k in range(1, n):
        p_prev, p_cur = p_cur, ((2 * k + 1) * t * p_cur - k * p_prev) / (k + 1)
    return p_cur


@lru_cache(maxsize=None)
def legendre_poly(n: int) -> RationalPoly:
    """Exact coefficient form of P_n (variable 't'): ``legendre_p`` on the
    polynomial t."""
    return legendre_p(n, RationalPoly.x("t"))


def legendre_from_binom(n: int, t: Fraction) -> Fraction:
    """P_n(t) from the binomial double-square sum, exactly.

    2^(-n) sum_k C(n,k)^2 (t+1)^k (t-1)^(n-k).  Kept as the independent
    cross-check of the recurrence; in floating point this form cancels
    badly, so it is exact-only.
    """
    t = Fraction(t)
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(math.comb(n, k)) ** 2 * (t + 1) ** k * (t - 1) ** (n - k)
    return total / 2 ** n


def neuschel_check(n: int, x: float) -> float:
    """Residual F_n(x) - (t - sqrt(t^2-1))^n P_n(t) at the mapped point.

    The square root is taken through (t-1)(t+1) with t - 1 formed directly
    from x, which avoids the cancellation of t*t - 1 near t = 1.  Points
    within MAP_GUARD of the singular x = 1/2 are rejected.
    """
    if not 0.0 <= x <= 0.5 - MAP_GUARD:
        raise DomainError(f"x={x} outside [0, 1/2 - {MAP_GUARD}]")
    one_m2x = 1.0 - 2.0 * x
    t = (2.0 * x * x - 2.0 * x + 1.0) / one_m2x
    t_m1 = 2.0 * x * x / one_m2x
    falling = t - math.sqrt(t_m1 * (t + 1.0))
    return f_value(n, x) - falling ** n * legendre_p(n, t)


def neuschel_check_exact(n: int, x: Fraction) -> Fraction:
    """Exact residual F_n(x) - (1-2x)^n P_n(t), zero at every rational x.

    On rationals the falling factor t - sqrt(t^2-1) is exactly 1 - 2x, so
    the bridge is an identity of rational numbers.
    """
    x = Fraction(x)
    if not 0 <= x < Fraction(1, 2):
        raise DomainError(f"x={x} outside [0, 1/2)")
    t = (2 * x * x - 2 * x + 1) / (1 - 2 * x)
    return f_value(n, x) - (1 - 2 * x) ** n * legendre_p(n, t)


def _relation_residuals(
    p_prev: RationalPoly, p_cur: RationalPoly, p_next: RationalPoly, n: int, t: Fraction
) -> tuple[Fraction, Fraction]:
    """Exact residuals of the two derivative relations at the point t."""
    d_next = p_next.derivative()
    r1 = d_next(t) - t * p_cur.derivative()(t) - (n + 1) * p_cur(t)
    r2 = d_next(t) - p_prev.derivative()(t) - (2 * n + 1) * p_cur(t)
    return r1, r2


@lru_cache(maxsize=None)
def _bridge_derivative_identity(n: int) -> bool:
    """The mapped-derivative relation as a cleared integer polynomial identity.

    With t = N/D, N = 1 - 2x + 2x^2 and D = 1 - 2x, P_n'(t) must equal
    ((1-2x) F_n'(x) + 2n F_n(x)) / (D^(n-1) 4x(1-x)).  Cleared, that is
    D^(n-1) P_n'(N/D) 4x(1-x) = (1-2x) F_n' + 2n F_n, whose left side is the
    homogeneous composition sum_k p_k N^k D^(n-1-k), formed by Horner.
    """
    big_n, d = RationalPoly((1, -2, 2)), RationalPoly((1, -2))
    *lower, top = legendre_poly(n).derivative().coeffs
    acc, d_power = RationalPoly((top,)), RationalPoly.one()
    for c in reversed(lower):
        d_power = d_power * d
        acc = acc * big_n + c * d_power
    fn = f_poly_direct(n)
    return acc * RationalPoly((0, 4, -4)) == d * fn.derivative() + 2 * n * fn


def derivative_relations_check(n: int, t: Fraction) -> bool:
    """True iff both Legendre derivative relations hold exactly at t and the
    mapped-derivative bridge holds as a rational-function identity in x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = Fraction(t)
    if not t > 1:
        raise ValueError(f"need t > 1, got t={t}")
    r1, r2 = _relation_residuals(
        legendre_poly(n - 1), legendre_poly(n), legendre_poly(n + 1), n, t
    )
    return r1 == 0 and r2 == 0 and _bridge_derivative_identity(n)


def cosine_rep(n: int, theta: float) -> float:
    """P_n(cos theta) from the central-binomial cosine sum.

    4^(-n) C(2n,n) sum_k C(n,k)^2 C(2n,2k)^(-1) cos((n-2k) theta); the
    coefficients are positive, so the only cancellation is the cosines'.
    """
    if not 0.0 < theta < math.pi / 2:
        raise DomainError(f"theta={theta} outside (0, pi/2)")
    pref = Fraction(math.comb(2 * n, n), 4 ** n)
    total = 0.0
    for k in range(n + 1):
        coef = float(pref * math.comb(n, k) ** 2 / math.comb(2 * n, 2 * k))
        total += coef * math.cos((n - 2 * k) * theta)
    return total
