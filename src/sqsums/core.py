"""Operator-family parameters and fundamental basis functions.

The discrete families handled here are indexed by a real parameter ``c``:
negative ``c`` gives finitely supported polynomial bases on ``[0, -1/c]``
(Bernstein for ``c = -1``), ``c = 0`` the Poisson-weight basis on
``[0, inf)`` (Szasz-Mirakjan), and positive ``c`` the negative-binomial
bases on ``[0, inf)`` (Baskakov for ``c = 1``).  Every basis is a partition
of unity: the functions are nonnegative and sum to 1 pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "DomainError",
    "FAMILY_NAMES",
    "FamilyId",
    "ParameterError",
    "Params",
    "RationalLike",
    "basis",
    "basis_sum",
    "gen_binom",
]

RationalLike = Union[int, float, str, Fraction]

# Above this many natural-log units the direct product form of a basis
# function would overflow or underflow double precision.
LOG_SPACE_THRESHOLD = 700.0


class ParameterError(ValueError):
    """An (n, c, l) triple violates the structural hypotheses."""


class DomainError(ValueError):
    """An evaluation point lies outside the family domain I_c."""


def _as_fraction(value: RationalLike, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"{name} must be rational, got {value!r}") from exc


class _Interval(NamedTuple):
    """[0, sup], or [0, sup) when not closed; [0, +inf) when sup is None."""

    sup: Optional[Fraction]
    closed: bool = True

    @classmethod
    def of_c(cls, c: Fraction) -> "_Interval":
        """The domain I_c: [0, -1/c] for c < 0, [0, +inf) otherwise."""
        return cls(-1 / c if c < 0 else None)

    def __contains__(self, x: Union[float, Fraction]) -> bool:
        if x < 0:
            return False
        sup = self.sup
        if sup is None:
            return True
        if sup.denominator == 1:
            sup = sup.numerator  # float-to-int comparison is exact and much cheaper
        return x <= sup if self.closed else x < sup

    def __str__(self) -> str:
        return "[0, +inf)" if self.sup is None else f"[0, {self.sup}{']' if self.closed else ')'}"


@dataclass(frozen=True)
class Params:
    """Validated operator parameters.

    ``n`` is the (positive) operator index and ``c`` the family parameter.
    For ``c < 0`` the index must satisfy ``n = -c*l`` for a natural ``l``,
    checked exactly on rationals (``l`` may be supplied or is inferred); for
    ``c >= 0`` any positive rational index is admissible.  Floats are
    converted to their exact binary rational, so dyadic inputs like
    ``c = -0.5`` validate exactly.
    """

    n: Fraction
    c: Fraction
    l: Optional[int] = None
    _domain: _Interval = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _as_fraction(self.n, "n")
        c = _as_fraction(self.c, "c")
        if n <= 0:
            raise ParameterError(f"operator index must be positive, got n={n}")
        if c >= 0:
            if self.l is not None:
                raise ParameterError("l is only meaningful for c < 0")
            l = None
        else:
            ratio = -n / c
            if ratio.denominator != 1 or ratio < 1:
                raise ParameterError(
                    f"need n = -c*l with natural l, got n={n}, c={c} (l would be {ratio})"
                )
            l = int(ratio)
            if self.l is not None and self.l != l:
                raise ParameterError(
                    f"supplied l={self.l} inconsistent with n = -c*l (expected l={l})"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "_domain", _Interval.of_c(c))

    @property
    def n_float(self) -> float:
        return float(self.n)

    @property
    def c_float(self) -> float:
        return float(self.c)

    @property
    def domain_sup(self) -> Optional[Fraction]:
        """Right endpoint of I_c (None for unbounded families)."""
        return self._domain.sup

    def domain_str(self) -> str:
        return str(self._domain)

    def in_domain(self, x: Union[float, Fraction]) -> bool:
        return x in self._domain

    def require_in_domain(self, x: Union[float, Fraction]) -> None:
        if not self.in_domain(x):
            raise DomainError(f"x={x} outside the domain I_c = {self.domain_str()}")


class _Family(NamedTuple):
    """One row of the family table.

    The squared-basis sum of the family is that of the (n, c) family ``base``
    at index ``n + shift`` and point ``to_base(x)``.  ``domain`` is the
    family's own domain where it is not I_c.
    """

    base: str
    c: Optional[Fraction]  # None: the tag carries its own c
    n_min: Optional[int] = None  # least natural index; None: any positive rational
    shift: int = 0
    to_base: Optional[Callable[[float], float]] = None
    domain: Optional[_Interval] = None


_FAMILIES = {
    "bernstein": _Family("bernstein", Fraction(-1), 1),
    "szasz": _Family("szasz", Fraction(0)),
    "baskakov": _Family("baskakov", Fraction(1)),
    "bbh": _Family("bernstein", Fraction(-1), 1, 0, lambda x: x / (1.0 + x), _Interval(None)),
    "mkz": _Family("baskakov", Fraction(1), 0, 1, lambda x: x / (1.0 - x), _Interval(Fraction(1), False)),
    "general": _Family("general", None),
}
FAMILY_NAMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class FamilyId:
    """Tag for an operator family.

    ``bernstein``/``szasz``/``baskakov`` are the canonical names of the
    ``c = -1, 0, 1`` families; ``general`` carries an explicit ``c``.
    ``bbh`` and ``mkz`` are substitution families: their squared-basis sums
    are the Bernstein sum composed with ``x/(1+x)`` and the Baskakov sum of
    index ``n+1`` composed with ``x/(1-x)`` respectively.
    """

    name: str
    c: Optional[Fraction] = None
    _domain: _Interval = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.name not in _FAMILIES:
            raise ParameterError(f"unknown family {self.name!r}")
        if self.name == "general":
            if self.c is None:
                raise ParameterError("general family requires an explicit c")
            object.__setattr__(self, "c", _as_fraction(self.c, "c"))
        elif self.c is not None:
            raise ParameterError(f"family {self.name!r} does not take a c parameter")
        object.__setattr__(self, "_domain", self._row.domain or _Interval.of_c(self.base_c))

    @classmethod
    def from_c(cls, c: RationalLike) -> "FamilyId":
        general = cls("general", c)
        return general if general.key == "general" else cls(general.key)

    @property
    def _row(self) -> _Family:
        return _FAMILIES[self.name]

    @property
    def key(self) -> str:
        """The named family this tag denotes (``general`` with c in {-1, 0, 1}
        resolves to bernstein, szasz or baskakov)."""
        if self.c is not None:
            for name, row in _FAMILIES.items():
                if row.base == name and row.c == self.c:
                    return name
        return self.name

    @property
    def base_family(self) -> str:
        """Name of the (n, c) family this family's sum is a substitution of."""
        return _FAMILIES[self.key].base

    @property
    def base_c(self) -> Fraction:
        """Family parameter of the underlying (n, c) family."""
        return self.c if self.c is not None else self._row.c

    def base_params(self, n: RationalLike) -> Params:
        """Params of the underlying family (index shift n -> n+1 for mkz)."""
        n = _as_fraction(n, "n")
        n_min = self._row.n_min
        if n_min is not None and (n.denominator != 1 or n < n_min):
            raise ParameterError(f"family {self.name!r} needs a natural index, got n={n}")
        return Params(n + self._row.shift, self.base_c)

    def substitution(self, x: float) -> float:
        """Map a point of this family's domain into the base family's domain."""
        to_base = self._row.to_base
        if to_base is None:
            return x
        if not self._domain.closed and x >= self._domain.sup:  # the map's pole
            raise DomainError(f"x={x} outside the domain {self.domain_str()} of family {self.name!r}")
        return to_base(x)

    @property
    def domain_sup(self) -> Optional[Fraction]:
        """Right endpoint of the family domain (None when unbounded)."""
        return self._domain.sup

    def domain_str(self) -> str:
        return str(self._domain)

    def in_domain(self, x: Union[float, Fraction]) -> bool:
        return x in self._domain

    def require_in_domain(self, x: Union[float, Fraction]) -> None:
        if not self.in_domain(x):
            raise DomainError(f"x={x} outside the domain {self.domain_str()} of family {self.name!r}")


def gen_binom(alpha, k: int):
    """Generalized binomial coefficient alpha*(alpha-1)*...*(alpha-k+1)/k!.

    Returns 1 for k = 0 and 0 when alpha is a natural number with k > alpha.
    Exact (Fraction) when alpha is an int or Fraction, float otherwise.
    """
    if k < 0:
        raise ValueError(f"k must be a natural number, got {k}")
    if isinstance(alpha, (int, Fraction)):
        acc = Fraction(1)
        a = Fraction(alpha)
        for i in range(k):
            acc = acc * (a - i) / (i + 1)
            if not acc:
                break
        return acc
    acc = 1.0
    a = float(alpha)
    for i in range(k):
        acc *= (a - i) / (i + 1.0)
        if acc == 0.0:
            break
    return acc


def _log_rising_over_fact(a: float, k: int) -> float:
    """log of (a)_k / k! for a > 0 (the magnitude of C(-a, k))."""
    if k == 0:
        return 0.0
    return math.lgamma(a + k) - math.lgamma(a) - math.lgamma(k + 1)


def basis(params: Params, k: int, x: float) -> float:
    """Fundamental function value p_k(x); nonnegative, at most 1.

    The binomial-type products are rearranged into positive factors and
    evaluated directly while the intermediate magnitudes stay well inside
    the double exponent range; past half of LOG_SPACE_THRESHOLD everything
    moves to log space, where the result (itself in [0, 1]) is safe to
    exponentiate.
    """
    if k < 0:
        raise ValueError(f"k must be a natural number, got {k}")
    params.require_in_domain(x)
    n = params.n_float
    c = params.c_float
    xf = float(x)
    guard = LOG_SPACE_THRESHOLD / 2
    if c < 0 and k > params.l:
        return 0.0
    if xf == 0.0:
        return 1.0 if k == 0 else 0.0

    if c == 0.0:
        mu = n * xf
        if k <= 30 and mu < guard:
            return (mu ** k) / math.factorial(k) * math.exp(-mu)
        return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))

    u = c * xf
    if c < 0 and 1.0 + u == 0.0:  # right endpoint, only k = l survives
        return 1.0 if k == params.l else 0.0
    lp1 = math.log1p(u)
    if c > 0:
        a = n / c
        r = u / (1.0 + u)  # cx/(1+cx) in [0, 1)
        if k == 0:
            return math.exp(-a * lp1)
        logp = _log_rising_over_fact(a, k) + k * math.log(r) - a * lp1
        if k <= 30 and abs(a * lp1) < guard and logp > -guard:
            coef = 1.0
            for i in range(k):
                coef *= (a + i) / (i + 1.0)
            return coef * r ** k * math.exp(-a * lp1)
        return math.exp(logp)

    # c < 0: p_k = C(l, k) * (|c|x)^k * (1+cx)^(l-k), finitely supported
    l = params.l
    v = -u  # |c| x > 0
    if l <= 60 and abs((l - k) * lp1) < guard and abs(k * math.log(v)) < guard:
        return math.comb(l, k) * v ** k * (1.0 + u) ** (l - k)
    logp = (
        math.lgamma(l + 1) - math.lgamma(k + 1) - math.lgamma(l - k + 1)
        + k * math.log(v) + (l - k) * lp1
    )
    return math.exp(logp)


# Blocks of the certified-series kernel grow fourfold from the first size to
# the last.  A block costs about as much as 50 loop steps whatever its size
# up to a few hundred, so most series of a table stop inside the first
# block, and a series of 10^6 terms costs a few hundred calls.
_BLOCK_FIRST = 256
_BLOCK_LAST = 4096


def _sq(v: np.ndarray) -> np.ndarray:
    """Elementwise ``v ** 2`` with the bits of Python's float power.

    Python's ``**`` calls libm ``pow``, which differs from ``v * v`` in the
    last bit for about one double in a thousand; numpy's ``power`` computes
    ``v * v`` and ``float_power`` calls ``pow``.
    """
    return np.float_power(v, 2.0)


def _certified_sum(
    ratio: Callable[[np.ndarray], np.ndarray],
    k0: int,
    tol: float,
    max_steps: Optional[int] = None,
    *,
    step: int = 1,
    cert: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    sup: float = 0.0,
    total: float = 1.0,
) -> tuple[float, Optional[float], int]:
    """Sum a positive series from its term ratios, with a geometric tail bound.

    The term starts at 1 and the sum at ``total``.  Step j (j = 0, 1, ...)
    takes the index k = k0 + j*step, multiplies the term by ``ratio(k)`` and
    adds it to the sum; it stops once r = max(cert(k), sup) has r < 1 and
    tail = term*r/(1-r) <= tol*sum.  ``cert(k)`` must bound every later
    ratio together with ``sup``; it defaults to the next ratio,
    ``ratio(k + step)``.  Returns (sum, tail, steps), with tail None when
    ``max_steps`` steps ran without a stop.

    ``ratio`` and ``cert`` take a float64 array of indices, so each block
    of steps costs one Python call.  Terms and partial sums come from
    ``multiply.accumulate`` and ``add.accumulate`` seeded with the carried
    term and sum; both run strictly left to right, so every value, tail
    and step count is the one of the term-by-term loop.  Entries past the
    stop may overflow; they are computed silently and never read.  A
    square that overflows at or before the stop, where Python's ``**``
    raises OverflowError, makes the partial sum inf or NaN; only then are
    the block's ratios evaluated again with overflow trapped, and the same
    OverflowError raised.  A certificate overflows no earlier than the
    next ratio does, which holds for every caller, so only the last step's
    certificate needs a separate look.
    """
    term = 1.0
    done = 0
    size = _BLOCK_FIRST
    with np.errstate(all="ignore"):
        while max_steps is None or done < max_steps:
            count = size if max_steps is None else min(size, max_steps - done)
            # float(k0) +- offset rounds once, to the float of the loop's int
            # index, also past 2^53 (every caller's k0 is a double)
            ks = np.arange(done, done + count + (cert is None), dtype=float)
            ks = float(k0) + ks if step == 1 else float(k0) - ks
            if cert is None:
                rs = ratio(ks)
                rc, rs = rs[1:], rs[:-1]
            else:
                rs, rc = ratio(ks), cert(ks)
            if sup:
                rc = np.maximum(rc, sup)
            terms = rs.copy()
            terms[0] *= term  # the carried term and sum seed the accumulations
            np.multiply.accumulate(terms, out=terms)
            sums = terms.copy()
            sums[0] += total
            np.add.accumulate(sums, out=sums)
            tails = terms * rc / (1.0 - rc)
            stop = (rc < 1.0) & (tails <= tol * sums)
            j = int(stop.argmax())
            end = j + 1 if stop[j] else count
            if not math.isfinite(sums[end - 1]):
                _raise_on_overflow(ratio, cert, ks[: end + (cert is None)])
            if stop[j]:
                return float(sums[j]), float(tails[j]), done + j + 1
            term, total = terms[-1], float(sums[-1])
            done += count
            size = min(4 * size, _BLOCK_LAST)
    if done:  # the certificate of the last step
        _raise_on_overflow(ratio, cert, ks[-1 - (cert is None):])
    return total, None, done


def _raise_on_overflow(
    ratio: Callable[[np.ndarray], np.ndarray],
    cert: Optional[Callable[[np.ndarray], np.ndarray]],
    ks: np.ndarray,
) -> None:
    """Raise where the loop's ``** 2`` would have: evaluate the ratios and
    certificates at ``ks`` again with overflow trapped (a square of inf or
    of NaN, which Python also allows, does not trap)."""
    with np.errstate(over="raise"):
        try:
            ratio(ks)
            if cert is not None:
                cert(ks)
        except FloatingPointError:
            raise OverflowError(34, "Numerical result out of range") from None


def _sum_unimodal_scaled(
    ratio_up: Callable[[np.ndarray], np.ndarray],
    ratio_down: Callable[[np.ndarray], np.ndarray],
    k0: int,
    tol: float,
    up_sup: float = 0.0,
    max_terms: int = 10 ** 7,
) -> tuple[float, int]:
    """Sum a positive unimodal sequence scaled so term k0 equals 1.

    ``ratio_up(k)`` is t_{k+1}/t_k and ``ratio_down(k)`` is t_{k-1}/t_k, both
    vectorised over an index array.  The geometric tail certificate needs an
    upper bound on all remaining ratios: the larger of the next ratio and
    ``up_sup`` (the limit of the ratio stream, for streams that increase
    toward it).  Downward ratios must be nonincreasing in the direction of
    travel, which holds for every family here because the downward walk only
    runs when the peak is interior.  At most ``max_terms`` terms are summed.
    Returns (scaled sum, number of terms).
    """
    acc, _, up = _certified_sum(ratio_up, k0, tol, max_terms - 1, sup=up_sup)
    terms = 1 + up
    acc, _, down = _certified_sum(
        ratio_down, k0, tol, min(k0, max_terms - terms), step=-1, total=acc
    )
    return acc, terms + down


def basis_sum(params: Params, x: float, tol: float = 1e-15) -> tuple[float, int]:
    """Certified truncation of sum_k p_k(x).

    Stops once the next term and its geometric tail bound drop below
    ``tol`` times the partial sum; the result should be 1 up to rounding.
    Returns (sum, number of terms).
    """
    params.require_in_domain(x)
    n = params.n_float
    c = params.c_float
    xf = float(x)
    if xf == 0.0:
        return 1.0, 1

    if c < 0:
        l = params.l
        total = math.fsum(basis(params, k, xf) for k in range(l + 1))
        return total, l + 1

    if c == 0.0:
        mu = n * xf
        k0 = int(mu)
        log_anchor = k0 * math.log(mu) - mu - math.lgamma(k0 + 1)
        scaled, terms = _sum_unimodal_scaled(
            lambda k: mu / (k + 1.0), lambda k: k / mu, k0, tol
        )
        return math.exp(log_anchor + math.log(scaled)), terms

    a = n / c
    u = c * xf
    r = u / (1.0 + u)
    lp1 = math.log1p(u)
    k0 = max(0, int((a * r - 1.0) / (1.0 - r)))
    log_anchor = _log_rising_over_fact(a, k0) + k0 * math.log(r) - a * lp1
    scaled, terms = _sum_unimodal_scaled(
        lambda k: (a + k) / (k + 1.0) * r,
        lambda k: k / ((a + k - 1.0) * r),
        k0,
        tol,
        up_sup=r,
    )
    return math.exp(log_anchor + math.log(scaled)), terms
