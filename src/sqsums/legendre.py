"""Legendre polynomials and their bridge to the squared Bernstein sum.

One integer Bonnet recurrence on coefficient lists,

    R_(k+1) = (2k+1) N R_k - k^2 D^2 R_(k-1),   R_0 = 1, R_1 = N,

gives R_k = k! D^k P_k(N/D), a polynomial in N and D^2 since P_k has the
parity of k.  At N = t, D = 1 it is k! P_k(t) (``legendre_poly``).  In the
centred s = x - 1/2, N = 1 + 4s^2 and D^2 = 16s^2, with D = 2(1 - 2x), it is
2^k k! (1-2x)^k P_k(t) at t = (2x^2 - 2x + 1)/(1 - 2x), so Neuschel's bridge
F_k(x) = (1-2x)^k P_k(t) is R_k = 2^k k! F_k as polynomials in s^2
(``bridge_check``): an identity on the whole line, and with it the
identities its derivatives give.  This is the exact twin of the c < 0 row
of ``evalnum._legendre``, which runs the same steps in floating point on
B^l P_l(W).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

from .exactalg import RationalPoly

__all__ = ["bridge_check", "derivative_relations_check"]


def _times(a: list[int], b: list[int], m: int) -> list[int]:
    """The coefficient list of m a b."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += m * u * v
    return out


def _bonnet(big_n: list[int], d2: list[int]) -> Iterator[list[int]]:
    """R_0, R_1, ... of the module's recurrence, as integer coefficient
    lists in the variable of N and D^2 (D^2 no longer than N, as in both
    uses)."""
    r_prev, r_cur = [1], list(big_n)
    yield r_prev
    for k in itertools.count(1):
        yield r_cur
        r_next = _times(big_n, r_cur, 2 * k + 1)
        for i, c in enumerate(_times(d2, r_prev, k * k)):
            r_next[i] -= c
        r_prev, r_cur = r_cur, r_next


@lru_cache(maxsize=None)
def legendre_poly(n: int) -> RationalPoly:
    """Exact coefficient form of P_n (variable 't'): R_n / n! at N = t, D = 1."""
    if n < 0:
        raise ValueError("n must be a natural number")
    r_n = next(itertools.islice(_bonnet([0, 1], [1]), n, None))
    return RationalPoly(r_n, "t") / math.factorial(n)


def bridge_check(ns: range, f_centred: Callable[[int], RationalPoly]) -> bool:
    """True iff F_n(x) = (1-2x)^n P_n(t) holds as a polynomial identity at
    every n of ns, for F_n = f_centred(n) in s = x - 1/2: F_n has no odd
    power of s, and R_n at N = 1 + 4s^2, D^2 = 16s^2 equals 2^n n! F_n
    coefficient by coefficient in s^2, cleared of F_n's denominator."""
    for k, r in zip(range(max(ns, default=-1) + 1), _bonnet([1, 4], [0, 16])):
        if k in ns:
            f, scale = f_centred(k), 2 ** k * math.factorial(k)
            if any(f._ints[1::2]) or [c * f._den for c in r] != [scale * c for c in f._ints[::2]]:
                return False
    return True


def _relation_residuals(
    p_prev: RationalPoly, p_cur: RationalPoly, p_next: RationalPoly, n: int, t: Fraction
) -> tuple[Fraction, Fraction]:
    """Exact residuals of the two derivative relations at the point t."""
    d_next = p_next.derivative()
    r1 = d_next(t) - t * p_cur.derivative()(t) - (n + 1) * p_cur(t)
    r2 = d_next(t) - p_prev.derivative()(t) - (2 * n + 1) * p_cur(t)
    return r1, r2


def derivative_relations_check(n: int, t: Fraction) -> bool:
    """True iff both Legendre derivative relations hold exactly at t:
    P_(n+1)' - t P_n' = (n+1) P_n and P_(n+1)' - P_(n-1)' = (2n+1) P_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = Fraction(t)
    if not t > 1:
        raise ValueError(f"need t > 1, got t={t}")
    r1, r2 = _relation_residuals(
        legendre_poly(n - 1), legendre_poly(n), legendre_poly(n + 1), n, t
    )
    return r1 == 0 and r2 == 0
