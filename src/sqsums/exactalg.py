"""Exact rational polynomial and rational-function algebra.

Builds the squared-basis sums that admit exact forms (the Bernstein
polynomial F_n, the Baskakov rational function G_n, the Meyer-Konig-Zeller
J_n and the Bleimann-Butzer-Hahn U_n) over arbitrary-precision rationals,
and verifies their recurrences, differential equations and Heun-form
solutions with exact zero residuals.

Scope is deliberately small: ring operations, formal derivatives, Moebius
substitutions and exact evaluation.  No factorization, polynomial gcd or
division, or general computer algebra.  Arithmetic is fraction-free: a
polynomial is a tuple of integers over one common denominator, residuals
are cleared polynomial identities, and evaluation at p/q is homogeneous
integer Horner with one Fraction built at the end, and points that share
a denominator share one pre-scaled coefficient list (``RationalPoly.values``).
The one rational function is the x-form of a series polynomial under a
Moebius map (``x_form``), in lowest terms by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Sequence, Union

from .core import Mobius, ParameterError, RationalLike, _fmt_rat

__all__ = [
    "IDENTITY",
    "NEGATE",
    "SERIES_MAPS",
    "HeunParams",
    "OdeSpec",
    "RationalFn",
    "RationalPoly",
    "eq_f",
    "eq_g",
    "eq_j",
    "eq_u",
    "f_poly_direct",
    "f_poly_parseval",
    "f_value",
    "g_rational",
    "g_series_coeffs",
    "g_value",
    "heun_residual",
    "j_rational",
    "j_series_coeffs",
    "j_value",
    "mobius_compose",
    "mobius_inverse",
    "mobius_same",
    "moved_operators",
    "ode_residual_poly",
    "recurrence_check",
    "recurrence_residuals",
    "substitution_identity",
    "u_rational",
    "u_series_coeffs",
    "u_value",
    "x_form",
]

CoefLike = Union[int, Fraction]


def _odd_part(v: int) -> int:
    """v with its factors of two divided out (v != 0)."""
    return v >> ((v & -v).bit_length() - 1)


# CPython's Fraction keeps its state in these two slots alone; any other
# layout may carry a field that a direct construction would leave unset.
_FRACTION_SLOTS = getattr(Fraction, "__slots__", None) == ("_numerator", "_denominator")


def _coprime_fraction(a: int, b: int) -> Fraction:
    """Fraction(a, b) for coprime a and b > 0.

    Where ``Fraction`` has CPython's two slots (``_FRACTION_SLOTS``), it is
    built without its gcd by setting them; this depends on CPython's
    ``fractions`` internals.  Elsewhere it is ``Fraction(a, b)``, whose gcd
    of an already reduced pair is 1.
    """
    if not _FRACTION_SLOTS:
        return Fraction(a, b)
    f = object.__new__(Fraction)
    f._numerator, f._denominator = a, b
    return f


def _reduced(a: int, b: int, m: int) -> Fraction:
    """Fraction(a, b) for b > 0 whose odd prime factors all divide m.

    The shared power of two is shifted out, and then g = gcd(a, gcd(b, m))
    is divided out until it is 1: each gcd has the small m or g as one
    argument, where ``Fraction(a, b)`` takes the gcd of the two long
    integers.
    """
    if not a:
        return _coprime_fraction(0, 1)
    shift = min((a & -a).bit_length(), (b & -b).bit_length()) - 1
    a, b = a >> shift, b >> shift
    g = math.gcd(a, math.gcd(b, m))
    while g > 1:
        a, b = a // g, b // g
        g = math.gcd(a, math.gcd(b, g))
    return _coprime_fraction(a, b)


class RationalPoly:
    """Dense univariate polynomial with rational coefficients, ascending degree.

    Stored as integer numerators over one positive common denominator, in
    lowest terms, and nothing else: ring operations run on Python integers,
    equal polynomials have equal representations, ``coeffs`` builds its
    Fractions per call, and float evaluation divides each numerator by the
    denominator as ``float(Fraction)`` does.  ``var`` is a symbol
    descriptor only ('x', 's', 'u', 'w', 't'); binary operations require
    matching descriptors.
    Trailing zeros are trimmed, the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("_ints", "_den", "var")

    def __init__(self, coeffs: Iterable[CoefLike] = (), var: str = "x") -> None:
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._init([c.numerator * (den // c.denominator) for c in cs], den, var)

    def _init(self, ints: list[int], den: int, var: str) -> None:
        while ints and not ints[-1]:
            ints.pop()
        if den != 1:
            g = math.gcd(den, *ints)
            if g != 1:
                ints = [c // g for c in ints]
                den //= g
        object.__setattr__(self, "_ints", tuple(ints))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "var", var)

    @classmethod
    def _from_ints(cls, ints: list[int], den: int, var: str) -> "RationalPoly":
        """sum ints[k] X^k / den (den > 0), without Fraction conversion."""
        p = object.__new__(cls)
        p._init(ints, den, var)
        return p

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("RationalPoly is immutable")

    @classmethod
    def zero(cls, var: str = "x") -> "RationalPoly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "x") -> "RationalPoly":
        return cls((1,), var)

    @classmethod
    def x(cls, var: str = "x") -> "RationalPoly":
        return cls((0, 1), var)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._ints)

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._ints[k], self._den) if 0 <= k < len(self._ints) else Fraction(0)

    def _check_var(self, other: "RationalPoly") -> None:
        if self.var != other.var and self._ints and other._ints:
            raise ValueError(f"mixed variables {self.var!r} and {other.var!r}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalPoly((other,), self.var)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self._ints == other._ints and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._ints, self._den))

    def __neg__(self) -> "RationalPoly":
        return RationalPoly._from_ints([-c for c in self._ints], self._den, self.var)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly((other,), self.var)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._check_var(other)
        a = [c * other._den for c in self._ints]
        b = [c * self._den for c in other._ints]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        var = self.var if self._ints else other.var
        return RationalPoly._from_ints(a, self._den * other._den, var)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalPoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a scalar scales the numerators
            return RationalPoly._from_ints(
                [c * other.numerator for c in self._ints], self._den * other.denominator, self.var
            )
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._check_var(other)
        if self.is_zero or other.is_zero:
            return RationalPoly.zero(self.var)
        b = other._ints
        out = [0] * (len(self._ints) + len(b) - 1)
        for i, a in enumerate(self._ints):
            if a:
                for j, c in enumerate(b):
                    out[i + j] += a * c
        return RationalPoly._from_ints(out, self._den * other._den, self.var)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, k: int) -> "RationalPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = RationalPoly.one(self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def derivative(self) -> "RationalPoly":
        return RationalPoly._from_ints(
            [i * c for i, c in enumerate(self._ints)][1:], self._den, self.var
        )

    def __call__(self, v):
        """Horner evaluation; exact on rational input, float on float."""
        if isinstance(v, float):
            acc = v * 0
            for c in reversed(self._ints):
                acc = acc * v + c / self._den
            return acc
        v = Fraction(v)
        return self.values(((v.numerator, v.denominator),))[0]

    def values(self, points: Sequence[tuple[int, int]]) -> list[Fraction]:
        """self(p/q) for each integer pair (p, q) with q > 0.

        Each distinct pair is evaluated once and builds one Fraction, which
        its repeats share (x and 1 - x give one t = (x - 1/2)^2).  Its
        value a/b has b = den q^deg, so ``_reduced`` brings it to lowest
        terms with gcds against odd(q) odd(den) alone.
        """
        distinct = list(dict.fromkeys(points))
        odd_den = _odd_part(self._den)
        value = {
            pt: _reduced(a, b, _odd_part(pt[1]) * odd_den) for pt, (a, b) in zip(distinct, self._at(distinct))
        }
        return [value[pt] for pt in points]

    def _at(self, points: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        """(a, b) with self(p/q) = a/b and b > 0 for each (p, q), q > 0:
        a = sum c_k p^k q^(deg-k) over b = den * q^deg.

        The points are grouped by q, or by p where fewer numerators than
        denominators are distinct (Baskakov's t = q^2/(q+2p)^2 on a scan
        grid).  A group scales the coefficients once, c_k q^(deg-k) or
        c_k p^k, so each of its points is one Horner pass in the other
        coordinate.
        """
        if not self._ints:
            return [(0, self._den)] * len(points)
        groups: dict[int, list[int]] = {}
        for i, (_, q) in enumerate(points):
            groups.setdefault(q, []).append(i)
        by_p = len({p for p, _ in points}) < len(groups)
        if by_p:
            groups = {}
            for i, (p, _) in enumerate(points):
                groups.setdefault(p, []).append(i)
        var = 1 if by_p else 0  # the coordinate of the Horner pass
        # the pass in q takes c_0 first, the pass in p c_deg first
        top, *rest = self._ints if by_p else reversed(self._ints)
        out: list = [None] * len(points)
        for g, members in groups.items():
            scaled, gk = [], 1
            for c in rest:
                gk *= g
                scaled.append(c * gk)
            b = self._den * gk
            for i in members:
                h, acc = points[i][var], top
                for c in scaled:
                    acc = acc * h + c
                out[i] = acc if by_p else (acc, b)
        if by_p:
            dens = {q: self._den * q ** len(rest) for _, q in points}
            return [(a, dens[q]) for a, (_, q) in zip(out, points)]
        return out

    def compose_linear(self, a: CoefLike, b: CoefLike) -> "RationalPoly":
        """p(a*X + b); the result is reported in variable 'x'."""
        return _poly_compose_mobius(self, a, b, 0, 1)

    def to_json(self) -> dict:
        return {"var": self.var, "coeffs": [_fmt_rat(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        if self.is_zero:
            return "RationalPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*{self.var}^{i}" if i else f"{c}")
        return "RationalPoly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class RationalFn:
    """num/den, the x-form of a series polynomial (``x_form``).

    ``x_form`` builds the pair in lowest terms with den a primitive integer
    polynomial with positive lead.  A function has one such pair, so two
    x-forms are equal records iff they are equal functions.  It is the
    witness ``verify --format json`` writes, and ``ode_residual_poly`` and
    ``heun_residual`` take it.
    """

    num: RationalPoly
    den: RationalPoly

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def _poly_compose_mobius(
    p: RationalPoly, a: CoefLike, b: CoefLike, c: CoefLike, d: CoefLike, var: str = "x", deg: int = 0
) -> RationalPoly:
    """(c*X+d)^deg * p((a*X+b)/(c*X+d)), a polynomial in ``var``; deg is
    raised to the degree of p when below it."""
    fs = [Fraction(v) for v in (a, b, c, d)]
    scale = math.lcm(*(f.denominator for f in fs))
    a, b, c, d = (int(f * scale) for f in fs)
    # Horner with a denominator ladder on integer lists, a..d scaled to
    # integers (one factor of `scale` per degree goes to the denominator),
    # over the coefficients of p padded with zeros to degree deg:
    # acc_k = acc_{k+1} * (b + aX) + c_k * (d + cX)^(deg-k)
    deg = max(deg, p.degree)
    coeffs = chain([0] * (deg - p.degree), reversed(p._ints))
    acc = []
    if c == 0:  # (d + cX)^k is the constant d^k, which adds to acc[0] alone
        d_k = 1
        for c_i in coeffs:
            acc = _times_linear(acc, b, a)
            acc[0] += c_i * d_k
            d_k *= d
    else:
        power = [1]
        for i, c_i in enumerate(coeffs):
            if i:
                power = _times_linear(power, d, c)
            acc = [u + c_i * v for u, v in zip(_times_linear(acc, b, a), power)]
    return RationalPoly._from_ints(acc, p._den * scale ** deg, var)


def _times_linear(ints: list[int], lo: int, hi: int) -> list[int]:
    """The integer coefficient list of ints * (lo + hi X), by shift-and-add."""
    out = [lo * v for v in ints] + [0]
    for i, v in enumerate(ints):
        out[i + 1] += hi * v
    return out


# A Moebius map (``core.Mobius``): composing maps multiplies matrices, and a
# nonzero multiple is the same map.
IDENTITY: Mobius = (1, 0, 0, 1)
NEGATE: Mobius = (-1, 0, 0, 1)
# Each series variable as a map of x, keyed by the variable name of the
# polynomials that ``f_poly_parseval`` and ``*_series_coeffs`` return.
SERIES_MAPS: dict[str, Mobius] = {
    "s": (2, -1, 0, 2),  # s = x - 1/2, Bernstein
    "u": (0, 1, 2, 1),  # u = 1/(1+2x), Baskakov
    "v": (1, -1, 1, 1),  # v = (x-1)/(x+1), Bleimann-Butzer-Hahn
    "w": (-1, 1, 1, 1),  # w = (1-x)/(1+x), Meyer-Konig-Zeller
}


def mobius_compose(outer: Mobius, inner: Mobius) -> Mobius:
    """The map outer(inner(X)): the matrix product outer * inner."""
    a, b, c, d = outer
    e, f, g, h = inner
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mobius_inverse(m: Mobius) -> Mobius:
    """The inverse map, as the adjugate matrix (a nonzero multiple of the inverse)."""
    a, b, c, d = m
    return (d, -b, -c, a)


def mobius_same(m1: Mobius, m2: Mobius) -> bool:
    """True iff m1 is nondegenerate and m2 is a nonzero multiple of it: one map."""
    a, b, c, d = m1
    return a * d != b * c and any(m2) and all(
        p * s == q * r for (p, q), (r, s) in combinations(zip(m1, m2), 2)
    )


def x_form(y: RationalPoly, inner: Mobius = IDENTITY) -> RationalFn:
    """x -> y(t(inner(x))), t = SERIES_MAPS[y.var], in lowest terms.

    With (a, b, c, d) the composed map and m the degree of y, it is N over
    (cx+d)^m, N = (cx+d)^m y((ax+b)/(cx+d)).  No gcd is needed: where
    c != 0, N(-d/c) = y_m ((bc - ad)/c)^m != 0, so the two share no factor,
    and where c = 0 the denominator is a constant.
    """
    a, b, c, d = mobius_compose(SERIES_MAPS[y.var], inner)
    if a * d == b * c:
        raise ValueError("degenerate substitution")
    # cx+d over g is primitive with positive lead, and so is its power
    g = math.gcd(c, d) * (1 if c > 0 or (c == 0 and d > 0) else -1)
    m = max(y.degree, 0)
    num = _poly_compose_mobius(y, a, b, c, d) * Fraction(1, g ** m)
    return RationalFn(num, RationalPoly((d // g, c // g)) ** m)


# ---------------------------------------------------------------------------
# Squared-basis sums in exact form
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def f_poly_direct(n: int) -> RationalPoly:
    """Squared Bernstein-basis sum as an exact polynomial in x (degree 2n).

    Expands sum_k (C(n,k) x^k (1-x)^(n-k))^2 in the monomial basis.  The
    index 0 case is the constant 1.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    out = [0] * (2 * n + 1)
    for k in range(n + 1):
        b = math.comb(n, k) ** 2
        m = 2 * (n - k)
        for j in range(m + 1):
            out[2 * k + j] += b * math.comb(m, j) * (-1 if j & 1 else 1)
    return RationalPoly(out, "x")


@lru_cache(maxsize=None)
def f_poly_parseval(n: int) -> RationalPoly:
    """The same sum in the centered variable s = x - 1/2.

    Only even powers appear and every coefficient is a positive rational,
    which makes symmetry about 1/2 and convexity immediate.  The s^(2k)
    coefficient is C(2n, n) C(n, k)^2 / (4^(n-k) C(2n, 2k)), which is
    4^k C(2k, k) C(2n-2k, n-k) / 4^n.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    out = [0] * (2 * n + 1)
    out[::2] = (4 ** k * c for k, c in enumerate(_central_products(n)))
    return RationalPoly._from_ints(out, 4 ** n, "s")


def f_value(n: int, x):
    """Evaluate F_n through its positive centered coefficients.

    Exact on Fraction input.  On floats it is the all-positive Horner sum of
    U_n(v) = F_n(v/2) at v^2 = 4 (x - 1/2)^2, which keeps the relative error
    at rounding level: U_n's coefficients are at most 1, where those of F_n
    pass the double range from n = 515 on, and a power of two apart the two
    sums have the same bits wherever both are finite.  Where v^2 is exactly
    1 (x = 0 and x = 1) the value is U_n(1) = 1 itself, which the sum of
    the rounded coefficients misses from n = 30 on.
    """
    if isinstance(x, Fraction):
        return f_poly_parseval(n)(x - Fraction(1, 2))
    t = 4.0 * (float(x) - 0.5) ** 2
    return 1.0 if t == 1.0 else _float_horner(_float_coeffs(u_series_coeffs, n, 0) if n else (1.0,), t)


@lru_cache(maxsize=None)
def _float_coeffs(series: Callable[[int], RationalPoly], n: int, first: int) -> tuple[float, ...]:
    """The coefficients of powers first, first + 2, ... of series(n) as
    floats, highest power first: converted once, not at every point."""
    p = series(n)
    return tuple(c / p._den for c in reversed(p._ints[first::2]))


def _float_horner(cs: Sequence[float], t: float) -> float:
    """The polynomial in t with coefficients cs, highest power first, in floats."""
    acc = 0.0
    for c in cs:
        acc = acc * t + c
    return acc


@lru_cache(maxsize=None)
def g_series_coeffs(n: int) -> RationalPoly:
    """Squared Baskakov-basis sum as an odd polynomial in u = 1/(1+2x).

    Its u^(2k+1) coefficient is C(2k, k) C(2n-2k-2, n-k-1) / 4^(n-1), the
    w^(2k+1) coefficient of J_(n-1).  As factorials the weight carries the
    square of (n-k-1)!; the unsquared variant fails the exact cross-check
    against the Meyer-Konig-Zeller series under the u <-> w substitution
    (first at n = 3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [0] * (2 * n)
    out[1::2] = _central_products(n - 1)
    return RationalPoly._from_ints(out, 4 ** (n - 1), "u")


@lru_cache(maxsize=None)
def g_rational(n: int) -> RationalFn:
    """G_n as a rational function of x (u-series with u = 1/(1+2x))."""
    return x_form(g_series_coeffs(n))


def g_value(n: int, x):
    """Evaluate G_n through its positive odd u-coefficients; 1 where u is
    exactly 1, as ``f_value`` is where its variable is."""
    if isinstance(x, Fraction):
        return g_series_coeffs(n)(1 / (1 + 2 * x))
    u = 1.0 / (1.0 + 2.0 * float(x))
    return 1.0 if u == 1.0 else _float_horner(_float_coeffs(g_series_coeffs, n, 1), u * u) * u


@lru_cache(maxsize=None)
def j_series_coeffs(n: int) -> RationalPoly:
    """Squared Meyer-Konig-Zeller sum as an odd polynomial in w = (1-x)/(1+x)."""
    if n < 0:
        raise ValueError("n must be a natural number")
    out = [0] * (2 * n + 2)
    out[1::2] = _central_products(n)
    return RationalPoly._from_ints(out, 4 ** n, "w")


def _central_products(n: int) -> list[int]:
    """C(2k, k) C(2n-2k, n-k) for k = 0..n.  By C(2j+2, j+1) = C(2j, j)
    2(2j+1)/(j+1) on both factors, step k -> k+1 multiplies the product by
    (2k+1)(n-k) / ((k+1)(2n-2k-1)), a small integer each way."""
    out = [math.comb(2 * n, n)]
    for k in range(n):
        out.append(out[k] * ((2 * k + 1) * (n - k)) // ((k + 1) * (2 * n - 2 * k - 1)))
    return out


@lru_cache(maxsize=None)
def j_rational(n: int) -> RationalFn:
    """J_n as a rational function of x (w-series with w = (1-x)/(1+x))."""
    return x_form(j_series_coeffs(n))


def j_value(n: int, x):
    """Evaluate J_n through its positive odd w-coefficients; 1 where w is
    exactly 1, as ``f_value`` is where its variable is."""
    if isinstance(x, Fraction):
        return j_series_coeffs(n)((1 - x) / (1 + x))
    xf = float(x)
    w = (1.0 - xf) / (1.0 + xf)
    return 1.0 if w == 1.0 else _float_horner(_float_coeffs(j_series_coeffs, n, 1), w * w) * w


@lru_cache(maxsize=None)
def u_series_coeffs(n: int) -> RationalPoly:
    """Squared Bleimann-Butzer-Hahn sum as an even polynomial in v = (x-1)/(x+1).

    Its v^(2k) coefficient is C(2k, k) C(2n-2k, n-k) / 4^n, which is
    C(2n, n) C(n, k)^2 / (4^n C(2n, 2k)): the s^(2k) coefficient of F_n
    divided by 4^k, as U_n(v) = F_n(v/2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [0] * (2 * n + 1)
    out[::2] = _central_products(n)
    return RationalPoly._from_ints(out, 4 ** n, "v")


@lru_cache(maxsize=None)
def u_rational(n: int) -> RationalFn:
    """U_n as a rational function of x, built twice and cross-checked.

    Route one expands the even series in v = (x-1)/(x+1); route two
    substitutes s = (x-1)/(2(x+1)), s at x/(1+x), into the centered
    Bernstein coefficients.  Both are lowest-terms x-forms, so they agree
    exactly iff they are equal records.
    """
    route_one = x_form(u_series_coeffs(n))
    route_two = x_form(f_poly_parseval(n), (1, 0, 1, 1))
    if route_one != route_two:
        raise ArithmeticError(f"the two constructions of U_{n} disagree")
    return route_one


def u_value(n: int, x):
    """Evaluate U_n as F_n at x/(1+x)."""
    if isinstance(x, Fraction):
        return f_value(n, x / (1 + x))
    xf = float(x)
    return f_value(n, xf / (1.0 + xf))


# ---------------------------------------------------------------------------
# Recurrences
# ---------------------------------------------------------------------------


def _poly(coeffs: Sequence[CoefLike]) -> RationalPoly:
    return RationalPoly(coeffs, "x")


def recurrence_residuals(
    f_prev: RationalPoly, f_n: RationalPoly, f_next: RationalPoly, n: int
) -> tuple[RationalPoly, RationalPoly, RationalPoly]:
    """Exact residual polynomials of the three F-family relations.

    All three reduce to the zero polynomial when the inputs are the genuine
    consecutive squared-Bernstein sums of index n-1, n, n+1.
    """
    one_m2x = _poly((1, -2))
    sq = one_m2x * one_m2x
    r1 = 2 * (n + 1) * f_next - (2 * n + 1) * (1 + sq) * f_n + 2 * n * sq * f_prev
    w = _poly((1, -2, 2))  # 1 - 2x(1-x)
    r2 = one_m2x * (f_next.derivative() - w * f_n.derivative()) - (
        2 * _poly((n, 2, -2)) * f_n - 2 * (n + 1) * f_next
    )
    r3 = f_next.derivative() - sq * f_prev.derivative() - 2 * one_m2x * (
        (2 * n - 1) * f_prev - (2 * n + 1) * f_n
    )
    return r1, r2, r3


def recurrence_check(n: int) -> bool:
    """True iff the three-term and both derivative relations hold exactly at n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rs = recurrence_residuals(f_poly_direct(n - 1), f_poly_direct(n), f_poly_direct(n + 1), n)
    return all(r.is_zero for r in rs)


# ---------------------------------------------------------------------------
# Differential equations and Heun forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeSpec:
    """Second-order linear operator a2*y'' + a1*y' + a0*y."""

    label: str
    a2: RationalPoly
    a1: RationalPoly
    a0: RationalPoly

    def in_variable(self, a: CoefLike, b: CoefLike, c: CoefLike, d: CoefLike, var: str) -> "OdeSpec":
        """The operator in ``var`` = v, where x = (a*v + b)/(c*v + d), by the chain rule.

        With L = c*v + d, Delta = a*d - b*c and A_i = L^m a_i(x(v)), m the
        largest degree of the a_i, dx/dv = Delta/L^2 gives, for Y = y o x,
        Delta^2 L^m (a2 y'' + a1 y' + a0 y) o x = P2 Y'' + P1 Y' + P0 Y with
        P2 = A2 L^4, P1 = 2c A2 L^3 + Delta A1 L^2 and P0 = Delta^2 A0.
        """
        delta = Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c)
        if delta == 0:
            raise ValueError("degenerate substitution")
        m = max(p.degree for p in (self.a2, self.a1, self.a0))
        a2, a1, a0 = (_poly_compose_mobius(p, a, b, c, d, var, m) for p in (self.a2, self.a1, self.a0))
        lin = RationalPoly((d, c), var)
        lin2 = lin * lin
        p1 = (2 * Fraction(c) * a2 * lin + delta * a1) * lin2
        return OdeSpec(self.label, a2 * lin2 * lin2, p1, delta * delta * a0)

    def apply(self, y: RationalPoly) -> RationalPoly:
        """a2*y'' + a1*y' + a0*y for a polynomial y in the operator's variable.

        The operator runs on the integer numerator of y, and the result is
        divided by y's denominator once: the sums then scale no terms to a
        common denominator.
        """
        num = RationalPoly._from_ints(list(y._ints), 1, y.var)
        y1 = num.derivative()
        return (self.a2 * y1.derivative() + self.a1 * y1 + self.a0 * num) * Fraction(1, y._den)


def _eq_nc(n: CoefLike, c: CoefLike, label: str) -> OdeSpec:
    """x(1+cx)(1+2cx) y'' + (4(n+c) x(1+cx) + 1) y' + 2n(1+2cx) y."""
    k = 4 * (n + c)
    return OdeSpec(label, _poly((0, 1, 3 * c, 2 * c * c)), _poly((1, k, k * c)), _poly((2 * n, 4 * n * c)))


# The F_n and G_n labels end in the index, which the benchmark's tracer reads.
def eq_f(n: int) -> OdeSpec:
    return _eq_nc(n, -1, f"F_{n}")


def eq_g(n: int) -> OdeSpec:
    return _eq_nc(n, 1, f"G_{n}")


def eq_j(n: int) -> OdeSpec:
    a2 = _poly((0, 1)) * _poly((1, 1)) * _poly((1, -1)) ** 2
    a1 = -1 * _poly((1, -1)) * _poly((-1, -4 * (n + 1), 1))
    a0 = 2 * (n + 1) * _poly((1, 1))
    return OdeSpec(f"J_{n}", a2, a1, a0)


def eq_u(n: int) -> OdeSpec:
    a2 = _poly((0, 1)) * _poly((1, -1)) * _poly((1, 1)) ** 2
    a1 = _poly((1, 1)) * _poly((1, 4 * n, -1))
    a0 = 2 * n * _poly((1, -1))
    return OdeSpec(f"U_{n}", a2, a1, a0)


def _as_pair(y: Union[RationalPoly, RationalFn]) -> tuple[RationalPoly, RationalPoly]:
    """(num, den) of y; a polynomial is over 1."""
    return (y.num, y.den) if isinstance(y, RationalFn) else (y, RationalPoly.one(y.var))


def _cleared_residual(n: RationalPoly, d: RationalPoly, op: OdeSpec) -> RationalPoly:
    """D^3 (a2*y'' + a1*y' + a0*y) for y = N/D, as a polynomial identity.

    With W = N'D - ND': y' = W/D^2 and y'' = ((N''D - ND'')D - 2D'W)/D^3.
    """
    a2, a1, a0 = op.a2, op.a1, op.a0
    n1, d1 = n.derivative(), d.derivative()
    w = n1 * d - n * d1
    return a2 * ((n1.derivative() * d - n * d1.derivative()) * d - 2 * d1 * w) + (a1 * w + a0 * n * d) * d


def ode_residual_poly(y: Union[RationalPoly, RationalFn], ode: OdeSpec) -> RationalPoly:
    """Exact residual of the named equation applied to y, cleared of its
    denominator (den^3 times it for y = num/den); zero iff y solves it.

    No verb runs it: ``verify`` moves each operator to the series variable
    (``moved_operators``).  It stays as the independent x-level witness of
    that path; ``test_criterion_04_ode_and_heun_solutions`` in
    ``tests/test_acceptance.py`` holds both at every n up to 30.
    """
    return _cleared_residual(*_as_pair(y), ode)


@dataclass(frozen=True)
class HeunParams:
    """The six constants of the Heun equation with singular points 0, 1/2, 1.

    The accessory parameter is ``q``.  Well-formed sets satisfy
    gamma + delta + epsilon = alpha + beta + 1.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    epsilon: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta", "epsilon", "q"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, Fraction(value))
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"Heun parameter {name} must be rational") from exc

    def operator(self) -> OdeSpec:
        """The Heun operator multiplied through by x(x-1)(2x-1), as an OdeSpec.

        x(x-1)(2x-1)*y'' + (gamma(x-1)(2x-1) + delta*x(2x-1) + 2*epsilon*x(x-1))*y'
        + 2(alpha*beta*x - q)*y.
        """
        g, d, e = self.gamma, self.delta, self.epsilon
        a1 = _poly((g, -3 * g - d - 2 * e, 2 * (g + d + e)))
        return OdeSpec("Heun", _poly((0, 1, -3, 2)), a1, _poly((-2 * self.q, 2 * self.alpha * self.beta)))

    @classmethod
    def for_s_family(cls, n: RationalLike, c: RationalLike) -> "HeunParams":
        """Parameter set solved by the reflected sum S(-x/c)."""
        n, c = Fraction(n), Fraction(c)
        if c == 0:
            raise ParameterError("the Heun form needs c != 0")
        return cls(Fraction(1), 2 * n / c, Fraction(1), Fraction(1), 2 * n / c, n / c)

    @classmethod
    def polynomial_case(cls, n: int) -> "HeunParams":
        """Parameters for which the degree-2n polynomial F_n is a solution."""
        return cls.for_s_family(n, -1)

    @classmethod
    def rational_case(cls, n: int) -> "HeunParams":
        """Parameters for which the reflected rational G_n(-x) is a solution."""
        return cls.for_s_family(n, 1)


_TRANSFORMS = ("none", "negate")


def heun_residual(
    y: Union[RationalPoly, RationalFn],
    hp: HeunParams,
    transform: str = "none",
) -> RationalPoly:
    """Exact residual of the Heun operator, multiplied through by
    x(x-1)(2x-1) (``HeunParams.operator``), applied to y after the
    transform, and cleared of y's denominator as ``ode_residual_poly``'s is.

    ``transform='negate'`` first substitutes X -> -X into y's numerator and
    denominator, matching the reflected-argument solutions of the
    positive-c families.  The residual is the zero polynomial iff y solves
    the equation identically.  Like ``ode_residual_poly`` it is the x-level
    witness of the series-variable path that ``verify`` runs.
    """
    if transform not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    num, den = _as_pair(y)
    if transform == "negate":
        num, den = (_poly_compose_mobius(p, *NEGATE) for p in (num, den))
    return _cleared_residual(num, den, hp.operator())


# ---------------------------------------------------------------------------
# Identities in the series variables
# ---------------------------------------------------------------------------


def _moved(spec: OdeSpec, var: str, inner: Mobius) -> OdeSpec:
    """spec in the series variable var of the function x -> y(var(inner(x)))."""
    return spec.in_variable(*mobius_inverse(mobius_compose(SERIES_MAPS[var], inner)), var)


def moved_operators(
    spec: Callable[[int], OdeSpec], var: str, inner: Mobius = IDENTITY
) -> Callable[[int], OdeSpec]:
    """n -> spec(n) moved to the series variable var, from two transforms
    and one check.

    ``moved(n).apply(y)`` is the cleared residual of spec(n) at the function
    x -> y(t(inner(x))), t = SERIES_MAPS[var]: a banded product with the
    coefficients of y, zero iff the function solves the equation.
    ``inner=NEGATE`` gives the reflected argument of the Heun forms.

    The coefficients of spec(n) are affine in n, and at a fixed padding
    degree ``in_variable`` is linear in them; the top degree is carried by
    a2 at every index.  So with M0 and M1 the moved spec(0) and spec(1),
    spec(n) moves to M0 + n (M1 - M0).  The difference is taken of the
    moved operators: the raw spec(1) - spec(0) has a2 = 0 and would be
    padded to a lower degree.  The form is compared with a direct transform
    at n = 2, and a mismatch raises ArithmeticError, so an operator that is
    not affine in n cannot pass.
    """
    m0, m1 = _moved(spec(0), var, inner), _moved(spec(1), var, inner)
    base = (m0.a2, m0.a1, m0.a0)
    slope = tuple(q - p for p, q in zip(base, (m1.a2, m1.a1, m1.a0)))

    def at(n: int) -> OdeSpec:
        parts = (p + n * q for p, q in zip(base, slope))
        return OdeSpec(f"{m0.label} + {n}({m1.label} - {m0.label})", *parts)

    direct, affine = _moved(spec(2), var, inner), at(2)
    if (direct.a2, direct.a1, direct.a0) != (affine.a2, affine.a1, affine.a0):
        raise ArithmeticError(f"the operator {direct.label} is not affine in its index")
    return at


def substitution_identity(y: RationalPoly, inner: Mobius, z: RationalPoly, scale: int = 1) -> bool:
    """True iff two exact identities hold that give y(t(inner(x))) = z(t'(x)).

    t and t' are the series variables of y and z.  The identities are the
    map identity t o inner = t'/scale, a 2x2 integer matrix product up to
    scale, and the coefficient identity y(r/scale) = z(r).
    """
    maps = mobius_compose(SERIES_MAPS[y.var], inner), mobius_compose((1, 0, 0, scale), SERIES_MAPS[z.var])
    return mobius_same(*maps) and len(y._ints) == len(z._ints) and all(
        a * z._den == b * y._den * scale ** k for k, (a, b) in enumerate(zip(y._ints, z._ints))
    )
