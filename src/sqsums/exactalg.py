"""Exact rational polynomial and rational-function algebra.

Builds the squared-basis sums that admit exact forms (the Bernstein
polynomial F_n, the Baskakov rational function G_n, the Meyer-Konig-Zeller
J_n and the Bleimann-Butzer-Hahn U_n) over arbitrary-precision rationals,
and verifies their recurrences, differential equations and Heun-form
solutions with exact zero residuals.

Scope is deliberately small: ring operations, formal derivatives, Moebius
substitutions and exact evaluation.  No factorization or general computer
algebra.  Arithmetic is fraction-free: a polynomial is a tuple of integers
over one common denominator, and a rational function keeps its numerator
and denominator unreduced.  Equality is cross-multiplication, residuals
are cleared polynomial identities, and evaluation at p/q is homogeneous
integer Horner with one Fraction built at the end.  A polynomial gcd runs
only when the lowest-terms form is observed (``num``, ``den``, hashing,
``repr``, serialization, float evaluation, or an exact evaluation where the
stored denominator vanishes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .core import ParameterError, Params, RationalLike

__all__ = [
    "HeunParams",
    "OdeSpec",
    "RationalFn",
    "RationalPoly",
    "UnsupportedFamilyError",
    "eq_f",
    "eq_g",
    "eq_j",
    "eq_s",
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
    "ode_residual_poly",
    "poly_on_rational",
    "recurrence_check",
    "recurrence_residuals",
    "u_rational",
    "u_value",
]

CoefLike = Union[int, Fraction]


class UnsupportedFamilyError(ValueError):
    """Raised for differential equations outside the exactly representable families."""


class RationalPoly:
    """Dense univariate polynomial with rational coefficients, ascending degree.

    Stored as integer numerators over one positive common denominator, in
    lowest terms, so ring operations run on Python integers and equal
    polynomials have equal representations.  ``coeffs`` gives the
    coefficients as Fractions.  ``var`` is a symbol descriptor only ('x',
    's', 'u', 'w', 't'); binary operations require matching descriptors.
    Trailing zeros are trimmed, the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("_ints", "_den", "var", "_coeffs")

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
        object.__setattr__(self, "_coeffs", None)

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
        if self._coeffs is None:
            object.__setattr__(
                self, "_coeffs", tuple(Fraction(c, self._den) for c in self._ints)
            )
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self._ints) else Fraction(0)

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
        if isinstance(other, (int, Fraction)):
            other = RationalPoly((other,), self.var)
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
            for c in reversed(self.coeffs):
                acc = acc * v + float(c)
            return acc
        return Fraction(*self._at(Fraction(v)))

    def _at(self, v: Fraction) -> tuple[int, int]:
        """(a, b) with self(v) = a/b and b > 0, by homogeneous integer Horner.

        With v = p/q, a/q = sum c_k p^k q^(deg-k) and b/q = den * q^deg.
        """
        p, q = v.numerator, v.denominator
        acc, qk = 0, 1
        for c in reversed(self._ints):
            acc = acc * p + c * qk
            qk *= q
        return acc * q, self._den * qk

    def compose_linear(self, a: CoefLike, b: CoefLike) -> "RationalPoly":
        """p(a*X + b); the result is reported in variable 'x'."""
        return _poly_compose_mobius(self, a, b, 0, 1)

    def divmod_linear(self, root: Fraction) -> tuple["RationalPoly", Fraction]:
        """Division by the monic linear (X - root)."""
        q, r = _divmod(self, RationalPoly((-Fraction(root), 1), self.var))
        return q, r.coeff(0)

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalPoly":
        return cls((Fraction(c) for c in data["coeffs"]), data.get("var", "x"))

    def __repr__(self) -> str:
        if self.is_zero:
            return "RationalPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*{self.var}^{i}" if i else f"{c}")
        return "RationalPoly(" + " + ".join(parts) + ")"


def _divmod(a: RationalPoly, b: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Quotient and remainder of polynomial division over the rationals."""
    rem, bc = list(a.coeffs), b.coeffs
    quo = [Fraction(0)] * max(0, len(rem) - len(bc) + 1)
    for i in range(len(quo) - 1, -1, -1):
        q = quo[i] = rem[i + len(bc) - 1] / bc[-1]
        for j, c in enumerate(bc):
            rem[i + j] -= q * c
    return RationalPoly(quo, a.var), RationalPoly(rem, a.var)


def _coprime_mod_p(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True certifies that the integer polynomials a, b have no common factor.

    Euclid in GF(p), p = 2^61 - 1.  When p divides neither leading
    coefficient, a common factor over Q survives reduction mod p with its
    degree, so a constant gcd mod p rules one out.  False is inconclusive.
    """
    p = (1 << 61) - 1
    a, b = [c % p for c in a], [c % p for c in b]
    if not (a[-1] and b[-1]):
        return False
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _lowest_terms(num: RationalPoly, den: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Divide out gcd(num, den): a modular coprimality test, else Euclid.

    Each Euclidean remainder is scaled to its primitive integer part, which
    keeps the coefficients of the remainder sequence small.
    """
    if den.degree == 0 or _coprime_mod_p(num._ints, den._ints):
        return num, den
    g, r = num, den
    while not r.is_zero:
        ints = _divmod(g, r)[1]._ints
        content = math.gcd(*ints)
        g, r = r, RationalPoly._from_ints([c // content for c in ints], 1, num.var)
    return _divmod(num, g)[0], _divmod(den, g)[0]


def _scaled(num: RationalPoly, den: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Scale so den is a primitive integer polynomial with positive lead."""
    if den.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero:
        return RationalPoly.zero(den.var), RationalPoly.one(den.var)
    content = math.gcd(*den._ints)
    if den._ints[-1] < 0:
        content = -content
    var = num.var if den.degree == 0 else den.var
    if content == 1 and den._den == 1 and var == den.var:
        return num, den
    return (
        num * Fraction(den._den, content),
        RationalPoly._from_ints([c // content for c in den._ints], 1, var),
    )


class RationalFn:
    """Quotient N/D of RationalPoly values, kept unreduced.

    The only normalization on construction is scalar: D is a primitive
    integer polynomial with a positive leading coefficient (and D = 1 when
    N = 0).  Arithmetic, equality (N1*D2 == N2*D1), derivatives and exact
    evaluation take no polynomial gcd; ``pair`` is the stored (N, D).
    ``num`` and ``den`` are the lowest-terms pair, computed by one gcd on
    first use and cached; hashing, serialization, ``repr``,
    ``is_polynomial`` and float evaluation use it.
    """

    __slots__ = ("_n", "_d", "_reduced")

    def __init__(
        self,
        num: Union[RationalPoly, CoefLike],
        den: Union[RationalPoly, CoefLike, None] = None,
    ) -> None:
        if not isinstance(num, RationalPoly):
            num = RationalPoly((num,))
        if den is None:
            den = RationalPoly.one(num.var)
        elif not isinstance(den, RationalPoly):
            den = RationalPoly((den,), num.var)
        if num.degree > 0 and den.degree > 0 and num.var != den.var:
            raise ValueError(f"mixed variables {num.var!r} and {den.var!r}")
        num, den = _scaled(num, den)
        object.__setattr__(self, "_n", num)
        object.__setattr__(self, "_d", den)
        object.__setattr__(self, "_reduced", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def _lowest(self) -> tuple[RationalPoly, RationalPoly]:
        if self._reduced is None:
            object.__setattr__(self, "_reduced", _scaled(*_lowest_terms(self._n, self._d)))
        return self._reduced

    @property
    def pair(self) -> tuple[RationalPoly, RationalPoly]:
        """The stored, unreduced (N, D)."""
        return self._n, self._d

    @property
    def num(self) -> RationalPoly:
        """Numerator of the lowest-terms form."""
        return self._lowest()[0]

    @property
    def den(self) -> RationalPoly:
        """Denominator of the lowest-terms form: primitive, integer, positive lead."""
        return self._lowest()[1]

    @property
    def is_zero(self) -> bool:
        return self._n.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, RationalPoly)):
            other = RationalFn(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        if self._d == other._d:
            return self._n == other._n
        return self._n * other._d == other._n * self._d

    def __hash__(self) -> int:
        return hash(self._lowest())

    @staticmethod
    def _coerce(v) -> "RationalFn":
        if isinstance(v, RationalFn):
            return v
        if isinstance(v, (int, Fraction, RationalPoly)):
            return RationalFn(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to RationalFn")

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self._n, self._d)

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFn(self._n * other._d + other._n * self._d, self._d * other._d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFn(self._n * other._n, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self._n * other._d, self._d * other._n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def derivative(self) -> "RationalFn":
        n, d = self._n, self._d
        return RationalFn(n.derivative() * d - n * d.derivative(), d * d)

    def __call__(self, v):
        """Exact on rational input; float input uses the lowest-terms pair."""
        if not isinstance(v, float):
            v = Fraction(v)
            a, b = self._n._at(v)
            c, d = self._d._at(v)
            if c:
                return Fraction(a * d, b * c)
        num, den = self._lowest()  # float input, or D(v) = 0
        dv = den(v)
        if dv == 0:
            raise ZeroDivisionError(f"evaluation at a pole ({v})")
        return num(v) / dv

    def compose_mobius(self, a: CoefLike, b: CoefLike, c: CoefLike, d: CoefLike) -> "RationalFn":
        """Substitute X -> (a*X + b)/(c*X + d)."""
        if Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c) == 0:
            raise ValueError("degenerate substitution")
        # With P_c = (cX+d)^deg(P) P((aX+b)/(cX+d)), N/D becomes
        # N_c (cX+d)^(deg D - deg N) / D_c: no surplus power of cX+d is formed.
        num_c = _poly_compose_mobius(self._n, a, b, c, d)
        den_c = _poly_compose_mobius(self._d, a, b, c, d)
        shift = self._d.degree - self._n.degree
        lin = RationalPoly((d, c), "x")
        return RationalFn(num_c * lin ** max(shift, 0), den_c * lin ** max(-shift, 0))

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFn":
        return cls(RationalPoly.from_json(data["num"]), RationalPoly.from_json(data["den"]))

    def __repr__(self) -> str:
        if self.is_polynomial:
            return f"RationalFn({self.num!r})"
        return f"RationalFn({self.num!r} / {self.den!r})"


def _poly_compose_mobius(
    p: RationalPoly, a: CoefLike, b: CoefLike, c: CoefLike, d: CoefLike
) -> RationalPoly:
    """(c*X+d)^deg * p((a*X+b)/(c*X+d)), a polynomial in 'x'."""
    lin_num = RationalPoly((b, a), "x")
    lin_den = RationalPoly((d, c), "x")
    # Horner with a denominator ladder on the integer numerators:
    # acc_k = acc_{k+1} * lin_num + c_k * lin_den^(deg-k)
    acc, power = RationalPoly.zero("x"), RationalPoly.one("x")
    for i, c_i in enumerate(reversed(p._ints)):
        if i:
            power = power * lin_den
        acc = acc * lin_num + power * c_i
    return acc / p._den


def poly_on_rational(p: RationalPoly, f: RationalFn) -> RationalFn:
    """Compose a polynomial with a rational function, p(f(X))."""
    acc = RationalFn(RationalPoly.zero("x"))
    for c in reversed(p.coeffs):
        acc = acc * f + RationalFn(RationalPoly((c,), "x"))
    return acc


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
    which makes symmetry about 1/2 and convexity immediate.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    pref = Fraction(math.comb(2 * n, n), 4 ** n)
    out = [Fraction(0)] * (2 * n + 1)
    for k in range(n + 1):
        out[2 * k] = pref * 4 ** k * math.comb(n, k) ** 2 / math.comb(2 * n, 2 * k)
    return RationalPoly(out, "s")


def f_value(n: int, x):
    """Evaluate F_n through its positive centered coefficients.

    Exact on Fraction input; on floats the all-positive Horner sum keeps the
    relative error at rounding level.
    """
    if isinstance(x, Fraction):
        return f_poly_parseval(n)(x - Fraction(1, 2))
    return _float_horner(f_poly_parseval(n).coeffs[::2], (float(x) - 0.5) ** 2)


def _float_horner(cs: Sequence[Fraction], t: float) -> float:
    """sum cs[k] t^k in floats, highest power first."""
    acc = 0.0
    for c in reversed(cs):
        acc = acc * t + float(c)
    return acc


@lru_cache(maxsize=None)
def g_series_coeffs(n: int) -> RationalPoly:
    """Squared Baskakov-basis sum as an odd polynomial in u = 1/(1+2x).

    The factorial weight carries the square of (n-k-1)!; the unsquared
    variant fails the exact cross-check against the Meyer-Konig-Zeller
    series under the u <-> w substitution (first at n = 3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [Fraction(0)] * (2 * n)
    for k in range(n):
        out[2 * k + 1] = Fraction(
            math.factorial(2 * k) * math.factorial(2 * n - 2 * k - 2),
            math.factorial(k) ** 2 * math.factorial(n - k - 1) ** 2 * 4 ** (n - 1),
        )
    return RationalPoly(out, "u")


@lru_cache(maxsize=None)
def g_rational(n: int) -> RationalFn:
    """G_n as a rational function of x (u-series with u = 1/(1+2x))."""
    return RationalFn(g_series_coeffs(n)).compose_mobius(0, 1, 2, 1)


def g_value(n: int, x):
    """Evaluate G_n through its positive odd u-coefficients."""
    if isinstance(x, Fraction):
        return g_series_coeffs(n)(1 / (1 + 2 * x))
    u = 1.0 / (1.0 + 2.0 * float(x))
    return _float_horner(g_series_coeffs(n).coeffs[1::2], u * u) * u


@lru_cache(maxsize=None)
def j_series_coeffs(n: int) -> RationalPoly:
    """Squared Meyer-Konig-Zeller sum as an odd polynomial in w = (1-x)/(1+x)."""
    if n < 0:
        raise ValueError("n must be a natural number")
    out = [Fraction(0)] * (2 * n + 2)
    for k in range(n + 1):
        out[2 * k + 1] = Fraction(
            math.factorial(2 * k) * math.factorial(2 * n - 2 * k),
            math.factorial(k) ** 2 * math.factorial(n - k) ** 2 * 4 ** n,
        )
    return RationalPoly(out, "w")


@lru_cache(maxsize=None)
def j_rational(n: int) -> RationalFn:
    """J_n as a rational function of x (w-series with w = (1-x)/(1+x))."""
    return RationalFn(j_series_coeffs(n)).compose_mobius(-1, 1, 1, 1)


def j_value(n: int, x):
    """Evaluate J_n through its positive odd w-coefficients."""
    if isinstance(x, Fraction):
        return j_series_coeffs(n)((1 - x) / (1 + x))
    xf = float(x)
    w = (1.0 - xf) / (1.0 + xf)
    return _float_horner(j_series_coeffs(n).coeffs[1::2], w * w) * w


@lru_cache(maxsize=None)
def u_rational(n: int) -> RationalFn:
    """U_n as a rational function of x, built twice and cross-checked.

    Route one expands the even series in v = (x-1)/(x+1); route two
    substitutes s = (x-1)/(2(x+1)) into the centered Bernstein coefficients.
    The two constructions must agree exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pref = Fraction(math.comb(2 * n, n), 4 ** n)
    series = [Fraction(0)] * (2 * n + 1)
    for k in range(n + 1):
        series[2 * k] = pref * math.comb(n, k) ** 2 / math.comb(2 * n, 2 * k)
    route_one = RationalFn(RationalPoly(series, "v")).compose_mobius(1, -1, 1, 1)
    route_two = RationalFn(f_poly_parseval(n)).compose_mobius(1, -1, 2, 2)
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


def _eq_nc(n: CoefLike, c: CoefLike, label: str) -> OdeSpec:
    """x(1+cx)(1+2cx) y'' + (4(n+c) x(1+cx) + 1) y' + 2n(1+2cx) y."""
    a2 = _poly((0, 1)) * _poly((1, c)) * _poly((1, 2 * c))
    a1 = 4 * (n + c) * _poly((0, 1)) * _poly((1, c)) + _poly((1,))
    a0 = 2 * n * _poly((1, 2 * c))
    return OdeSpec(label, a2, a1, a0)


def eq_s(params: Params) -> OdeSpec:
    """The general-family equation, exactly representable only for c = +-1."""
    if params.c not in (Fraction(-1), Fraction(1)):
        raise UnsupportedFamilyError(
            f"exact residuals support c in {{-1, 1}}, got c={params.c}"
        )
    return _eq_nc(params.n, params.c, f"S(n={params.n}, c={params.c})")


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


def _cleared_residual(
    f: RationalFn, a2: RationalPoly, a1: RationalPoly, a0: RationalPoly
) -> RationalFn:
    """a2*y'' + a1*y' + a0*y for y = N/D, as a polynomial identity over D^3.

    With W = N'D - ND': y' = W/D^2 and y'' = ((N''D - ND'')D - 2D'W)/D^3.
    A zero numerator needs no denominator, so D^3 is formed only otherwise.
    """
    n, d = f._n, f._d
    n1, d1 = n.derivative(), d.derivative()
    w = n1 * d - n * d1
    r = a2 * ((n1.derivative() * d - n * d1.derivative()) * d - 2 * d1 * w) + (
        a1 * w + a0 * n * d
    ) * d
    return RationalFn(r) if r.is_zero else RationalFn(r, d ** 3)


def ode_residual_poly(y: Union[RationalPoly, RationalFn], ode: OdeSpec) -> RationalFn:
    """Exact residual of the named equation applied to y; zero iff y solves it."""
    f = y if isinstance(y, RationalFn) else RationalFn(y)
    return _cleared_residual(f, ode.a2, ode.a1, ode.a0)


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
) -> RationalFn:
    """Exact residual of the Heun operator applied to y (after the transform).

    ``transform='negate'`` first substitutes X -> -X into y, matching the
    reflected-argument solutions of the positive-c families.  The residual
    is an exact rational function; it is the zero function iff y solves the
    equation identically.
    """
    if transform not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    f = y if isinstance(y, RationalFn) else RationalFn(y)
    if transform == "negate":
        f = f.compose_mobius(-1, 0, 0, 1)
    # Multiplied through by s = x(x-1)(2x-1), the Heun operator becomes
    # s*y'' + (gamma(x-1)(2x-1) + delta*x(2x-1) + 2*epsilon*x(x-1))*y'
    # + 2(alpha*beta*x - q)*y, whose residual is a cleared identity.
    x = RationalPoly.x()
    xm1, tx1 = x - 1, 2 * x - 1
    s = x * xm1 * tx1
    a1 = hp.gamma * xm1 * tx1 + hp.delta * x * tx1 + 2 * hp.epsilon * x * xm1
    a0 = 2 * (hp.alpha * hp.beta * x - hp.q)
    return _cleared_residual(f, s, a1, a0) / s
