"""Operator-family parameters and fundamental basis functions.

The discrete families handled here are indexed by a real parameter ``c``:
negative ``c`` gives finitely supported polynomial bases on ``[0, -1/c]``
(Bernstein for ``c = -1``), ``c = 0`` the Poisson-weight basis on
``[0, inf)`` (Szasz-Mirakjan), and positive ``c`` the negative-binomial
bases on ``[0, inf)`` (Baskakov for ``c = 1``).  Every basis is a partition
of unity: the functions are nonnegative and sum to 1 pointwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal
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
]

RationalLike = Union[int, float, str, Fraction]
Real = Union[float, Fraction]  # a point: a float, or exact

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


# A float as every output writes it: 17 significant digits, which round-trip.
_FLOAT_TEXT = "%.17g"


def _fmt_float(v: float) -> str:
    """A float as every output writes it (``_FLOAT_TEXT``)."""
    return _FLOAT_TEXT % v


def _fmt_rat(v: Fraction) -> str:
    """A rational as every output writes it: "p/q", q = 1 included."""
    try:
        return f"{v.numerator}/{v.denominator}"
    except ValueError:
        # past sys.get_int_max_str_digits(), a guard against slow
        # conversion of untrusted text; these integers were computed
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"


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


class _OnDomain:
    """The domain accessors of a record with a ``_domain``; the record words
    the DomainError of a point outside it (``_outside``)."""

    _domain: _Interval

    @property
    def domain_sup(self) -> Optional[Fraction]:
        """Right endpoint of the domain (None when unbounded)."""
        return self._domain.sup

    def domain_str(self) -> str:
        return str(self._domain)

    def in_domain(self, x: Real) -> bool:
        return x in self._domain

    def require_in_domain(self, x: Real) -> None:
        if x not in self._domain:
            raise DomainError(self._outside(x))


@dataclass(frozen=True)
class Params(_OnDomain):
    """Validated operator parameters.

    ``n`` is the (positive) operator index and ``c`` the family parameter.
    For ``c < 0`` the index must satisfy ``n = -c*l`` for a natural ``l``,
    checked exactly on rationals, and ``l`` is inferred (None for
    ``c >= 0``, where any positive rational index is admissible).  Floats
    are converted to their exact binary rational, so dyadic inputs like
    ``c = -0.5`` validate exactly.
    """

    n: Fraction
    c: Fraction
    l: Optional[int] = field(init=False)
    _domain: _Interval = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _as_fraction(self.n, "n")
        c = _as_fraction(self.c, "c")
        if n <= 0:
            raise ParameterError(f"operator index must be positive, got n={n}")
        l = None
        if c < 0:
            ratio = -n / c
            if ratio.denominator != 1 or ratio < 1:
                raise ParameterError(
                    f"need n = -c*l with natural l, got n={n}, c={c} (l would be {ratio})"
                )
            l = int(ratio)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "_domain", _Interval.of_c(c))

    @functools.cached_property
    def n_float(self) -> float:
        return float(self.n)

    @functools.cached_property
    def c_float(self) -> float:
        return float(self.c)

    def _outside(self, x: Real) -> str:
        return f"x={x} outside the domain I_c = {self.domain_str()}"


# A Moebius map x -> (a*x + b)/(c*x + d) as the integer matrix (a, b, c, d).
Mobius = tuple[int, int, int, int]


def _mobius_at(m: Mobius, x: Real) -> Real:
    """m at the point x: exact on a Fraction, and on a float the quotient of
    the two rounded affine forms (a product by 1 or -1 and a sum with 0 add
    no rounding)."""
    a, b, c, d = m
    return (a * x + b) / (c * x + d)


class _Family(NamedTuple):
    """One row of the family table, the one home of each fact it holds.

    The squared-basis sum of a substitution family is that of the (n, c)
    family ``base`` at index ``n + shift`` and point ``to_base(x)``, a
    Moebius map (``_mobius_at``): ``FamilyId.substitution``, the family's
    bounds and its ``verify`` substitution item all read it here.
    ``domain`` is the family's own domain where it is not I_c.
    """

    base: str
    c: Optional[Fraction]  # None: the tag carries its own c
    n_min: Optional[int] = None  # least natural index; None: any positive rational
    shift: int = 0
    to_base: Optional[Mobius] = None
    domain: Optional[_Interval] = None


_FAMILIES = {
    "bernstein": _Family("bernstein", Fraction(-1), 1),
    "szasz": _Family("szasz", Fraction(0)),
    "baskakov": _Family("baskakov", Fraction(1)),
    "bbh": _Family("bernstein", Fraction(-1), 1, 0, (1, 0, 1, 1), _Interval(None)),  # x/(1+x)
    "mkz": _Family("baskakov", Fraction(1), 0, 1, (1, 0, -1, 1), _Interval(Fraction(1), False)),  # x/(1-x)
    "general": _Family("general", None),
}
FAMILY_NAMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class FamilyId(_OnDomain):
    """Tag for an operator family.

    ``bernstein``/``szasz``/``baskakov`` are the canonical names of the
    ``c = -1, 0, 1`` families; ``general`` carries an explicit ``c``.
    ``bbh`` and ``mkz`` are substitution families: their squared-basis sums
    are the Bernstein sum composed with ``x/(1+x)`` and the Baskakov sum of
    index ``n+1`` composed with ``x/(1-x)`` respectively, by the map and
    shift of their rows of ``_FAMILIES``.
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

    def substitution(self, x: Real) -> Real:
        """Map a point of this family's domain into the base family's domain
        by the row's Moebius map (exact on a Fraction)."""
        to_base = self._row.to_base
        if to_base is None:
            return x
        self.require_in_domain(x)
        return _mobius_at(to_base, x)

    def _outside(self, x: Real) -> str:
        return f"x={x} outside the domain {self.domain_str()} of family {self.name!r}"


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


# Blocks of the certified-series kernel.  A lone row's blocks grow fourfold
# from the first size to the last: a block costs about as much as 50 loop
# steps whatever its size up to a few hundred, so most single series stop
# inside the first block, and a series of 10^6 terms costs a few hundred
# calls.  Rows that share a block do not grow it, since they stop at
# different steps and every entry past a row's stop is computed for
# nothing; its width is set by the number of rows still running, about
# _BLOCK_ENTRIES entries in all and never under _BLOCK_ROWS steps.  A call
# sums at most _BATCH_ROWS rows at a time, which bounds its arrays.
_BLOCK_FIRST = 256
_BLOCK_LAST = 8192
_BLOCK_ROWS = 64
_BLOCK_ENTRIES = 8192
_BATCH_ROWS = 256


def _sq(v: np.ndarray) -> np.ndarray:
    """Elementwise ``v ** 2`` with the bits of Python's float power.

    Python's ``**`` calls libm ``pow``, which differs from ``v * v`` in the
    last bit for about one double in a thousand; numpy's ``power`` computes
    ``v * v`` and ``float_power`` calls ``pow``.
    """
    return np.float_power(v, 2.0)


class _Rows(NamedTuple):
    """Per-row outcome of ``_certified_rows``, one list entry per row."""

    total: list[float]
    tail: list[Optional[float]]  # None where the step cap came before a stop
    steps: list[int]
    overflow: list[bool]  # a square overflowed at or before the stop

    def outcomes(self, capped: str = "", overflow: str = "") -> list:
        """Per row (sum, tail, steps), or the exception the loop raised: the
        OverflowError of a square (``_overflow_error(overflow)``), or
        ArithmeticError(capped) where the step cap came before a stop."""
        return [
            _overflow_error(overflow) if over else ArithmeticError(capped) if tail is None else (total, tail, steps)
            for total, tail, steps, over in zip(self.total, self.tail, self.steps, self.overflow)
        ]


def _overflow_error(what: str = "") -> OverflowError:
    """The error Python's float ``**`` raises on overflow; where a route
    names what overflowed, one that says it is past the double range."""
    if what:
        return OverflowError(f"{what} is past the double range")
    return OverflowError(34, "Numerical result out of range")


def _certified_rows(
    ratio: Callable[..., np.ndarray],
    k0,
    tol: float,
    max_steps=None,
    *,
    step: int = 1,
    cert: Optional[Callable[..., np.ndarray]] = None,
    sup=None,
    total=1.0,
    args: tuple = (),
) -> _Rows:
    """Sum positive series from their term ratios, with geometric tail bounds.

    Row i's term starts at 1 and its sum at ``total[i]``.  Step j (j = 0,
    1, ...) takes the index k = k0[i] + j*step, multiplies the term by
    ``ratio(k)`` and adds it to the sum; the row stops once
    r = max(cert(k), sup[i]) has r < 1 and tail = term*r/(1-r) <= tol*sum,
    or after ``max_steps[i]`` steps.  ``cert(k)`` must bound every later
    ratio together with ``sup``; it defaults to the next ratio,
    ``ratio(k + step)``.  ``k0``, ``max_steps``, ``sup``, ``total`` and each
    entry of ``args`` are a sequence with one value per row or a number for
    all rows; ``max_steps`` and ``sup`` may be None (no cap, no sup).

    ``ratio`` and ``cert`` take a float64 array of indices, rows by block
    steps, followed by ``args`` (column vectors of the rows in the block,
    or the numbers), so each block costs one Python call for all rows, and
    a row leaves the batch when it stops.  Terms and partial sums come from
    ``multiply.accumulate`` and ``add.accumulate`` along each row, seeded
    with the carried term and sum; both run strictly left to right, so
    every value, tail and step count is the one of the term-by-term loop.
    Entries past a row's stop may overflow; they are computed silently and
    never read.  A square that overflows at or before the stop, where
    Python's ``**`` raises OverflowError, makes the partial sum inf or NaN;
    only then are the row's ratios evaluated again with overflow trapped,
    and the row flagged in ``overflow``.  A certificate overflows no earlier
    than the next ratio does, which holds for every caller, so only the
    last step's certificate needs a separate look.
    """
    values = (k0, total, sup, max_steps, *args)
    rows = next((len(v) for v in values if v is not None and not isinstance(v, (int, float))), 1)
    if not rows:
        return _Rows([], [], [], [])
    if rows > _BATCH_ROWS:  # batches bound the block arrays

        def part(v, first):
            return v if v is None or isinstance(v, (int, float)) else v[first : first + _BATCH_ROWS]

        parts = [
            _certified_rows(
                ratio, part(k0, first), tol, part(max_steps, first), step=step, cert=cert,
                sup=part(sup, first), total=part(total, first), args=tuple(part(a, first) for a in args),
            )
            for first in range(0, rows, _BATCH_ROWS)
        ]
        return _Rows(*([v for p in parts for v in getattr(p, name)] for name in _Rows._fields))

    def column(v):
        return v if v is None or isinstance(v, (int, float)) else np.asarray(v, dtype=float).reshape(rows, 1)

    # per-row values become columns, numbers stay numbers
    k0, total, sup, *args = map(column, (k0, total, sup, *args))
    if rows > 1 and isinstance(k0, (int, float)):
        k0 = np.full((rows, 1), float(k0))
    if isinstance(max_steps, (int, float)):
        max_steps = [max_steps] * rows
    caps = None if max_steps is None else [int(cap) for cap in max_steps]
    out = _Rows(
        [float(total)] * rows if isinstance(total, (int, float)) else total[:, 0].tolist(),
        [None] * rows,
        [0] * rows,
        [False] * rows,
    )
    idx = list(range(rows))  # the rows still running
    keep = None if caps is None else [cap > 0 for cap in caps]  # rows with a step to take
    term = 1.0
    extra = int(cert is None)  # one more index: the last step's next ratio
    done = 0
    size = _BLOCK_FIRST
    with np.errstate(all="ignore"):
        while True:
            if keep is not None and not all(keep):  # rows leave the batch
                if not any(keep):
                    break
                mask = np.array(keep)
                k0, total, term, sup, *args = (
                    v[mask] if isinstance(v, np.ndarray) else v for v in (k0, total, term, sup, *args)
                )
                idx = [i for i, kept in zip(idx, keep) if kept]
                caps = None if caps is None else [cap for cap, kept in zip(caps, keep) if kept]
            width = size if len(idx) == 1 else max(_BLOCK_ROWS, _BLOCK_ENTRIES // len(idx))
            capped = None  # the rows whose cap falls in this block
            if caps is not None:
                width = min(width, max(caps) - done)
                if min(caps) - done <= width:
                    capped = [cap - done <= width for cap in caps]
            # float(k0) +- offset rounds once, to the float of the loop's int
            # index, also past 2^53 (every caller's k0 is a double)
            offs = np.arange(done, done + width + extra, dtype=float)
            ks = k0 + offs if step == 1 else k0 - offs
            if ks.ndim == 1:  # one row with a number k0
                ks = ks[None]
            rs = ratio(ks, *args)
            if cert is None:
                rc, rs = rs[:, 1:], rs[:, :-1]
            else:
                rc = cert(ks, *args)
            if sup is not None:
                rc = np.maximum(rc, sup)
            terms = rs.copy()
            if done:  # the carried term and sum seed the accumulations
                terms[:, :1] *= term
            np.multiply.accumulate(terms, axis=1, out=terms)
            sums = terms.copy()
            sums[:, :1] += total
            np.add.accumulate(sums, axis=1, out=sums)
            tails = terms * rc / (1.0 - rc)
            stop = (rc < 1.0) & (tails <= tol * sums)
            if capped is not None:  # no stop past a cap
                stop &= offs[:width] < np.array(caps, dtype=float)[:, None]
            hit = np.logical_or.reduce(stop, axis=1)
            term, total = terms[:, -1:], sums[:, -1:]
            event = hit | ~np.isfinite(total[:, 0])
            if capped is not None:
                event |= np.array(capped)
            keep = None
            for r in event.nonzero()[0].tolist():
                # the row's last step in this block, and whether it ends there
                row_capped = capped is not None and capped[r]
                end = int(stop[r].argmax()) + 1 if hit[r] else caps[r] - done if row_capped else width
                row_ks = ks[r : r + 1]
                row_args = [a[r : r + 1] if isinstance(a, np.ndarray) else a for a in args]
                over = not math.isfinite(sums[r, end - 1]) and _overflows(
                    ratio, cert, row_ks[:, : end + extra], row_args
                )
                if row_capped and not hit[r] and not over:  # the certificate of the last step
                    over = _overflows(ratio, cert, row_ks[:, end - 1 : end + extra], row_args)
                if hit[r] or row_capped or over:
                    i = idx[r]
                    out.total[i] = float(sums[r, end - 1])
                    out.tail[i] = float(tails[r, end - 1]) if hit[r] else None
                    out.steps[i] = done + end
                    out.overflow[i] = over
                    if keep is None:
                        keep = [True] * len(idx)
                    keep[r] = False
            done += width
            if len(idx) == 1:
                size = min(4 * size, _BLOCK_LAST)
    return out


def _overflows(
    ratio: Callable[..., np.ndarray],
    cert: Optional[Callable[..., np.ndarray]],
    ks: np.ndarray,
    cols: list,
) -> bool:
    """Whether the loop's ``** 2`` raised: the ratios and certificates at
    ``ks`` evaluated again with overflow trapped (a square of inf or of NaN,
    which Python also allows, does not trap)."""
    with np.errstate(over="raise"):
        try:
            ratio(ks, *cols)
            if cert is not None:
                cert(ks, *cols)
        except FloatingPointError:
            return True
    return False


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


# The peak-window walks sum at most this many terms.
_WINDOW_TERMS = 10 ** 7


def _window_rows(
    peaks: list, ratio_up: Callable, ratio_down: Callable, tol: float, up_sup=None, args: tuple = ()
) -> list:
    """Per row, the sum of a positive unimodal sequence walked out from its
    peak times its peak term, and the number of terms; or the exception.
    ``peaks[i]`` is row i's (peak index k0, log of the peak term t_k0), or
    the exception raised finding them.

    ``ratio_up(k)`` is t_{k+1}/t_k and ``ratio_down(k)`` is t_{k-1}/t_k,
    both vectorised over index arrays as in ``_certified_rows``, which also
    takes the per-row ``up_sup`` and ``args`` (one value per row of
    ``peaks``).  Each walk sums the sequence scaled so its peak term is 1.
    The geometric tail certificate needs an upper bound on all remaining
    ratios: the larger of the next ratio and ``up_sup`` (the limit of the
    ratio stream, for streams that increase toward it).  Downward ratios
    must be nonincreasing in the direction of travel, which holds for every
    family here because the downward walk only runs when the peak is
    interior.  A square that overflows raises OverflowError, and a walk
    that reaches the term cap is short by an unknown amount and raises
    ArithmeticError."""
    cap = _WINDOW_TERMS
    rows = [(i, peak) for i, peak in enumerate(peaks) if not isinstance(peak, Exception)]

    def of_rows(v):
        return v if v is None else [v[i] for i, _ in rows]

    k0 = [float(peak[0]) for _, peak in rows]
    args = tuple(map(of_rows, args))
    up = _certified_rows(ratio_up, k0, tol, cap - 1, sup=of_rows(up_sup), args=args)
    terms = [1 + steps for steps in up.steps]
    down_cap = [0 if over else min(k, cap - t) for k, t, over in zip(k0, terms, up.overflow)]
    down = _certified_rows(ratio_down, k0, tol, down_cap, step=-1, total=up.total, args=args)
    sums = [
        _overflow_error() if over or over_down else (scaled, t + steps)
        for scaled, t, steps, over, over_down in zip(down.total, terms, down.steps, up.overflow, down.overflow)
    ]

    def finish(peak, s):
        if s[1] >= cap:
            raise ArithmeticError(f"peak window did not converge within {cap} terms")
        return math.exp(peak[1] + math.log(s[0])), s[1]

    out = list(peaks)
    _finish(out, rows, sums, finish)
    return out


# _stirlerr and _bd0 are the terms of Loader's saddle-point form of the
# Poisson and negative binomial weights (C. Loader, "Fast and Accurate
# Computation of Binomial Probabilities", 2000).


def _stirlerr(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for real n >= 1: past 15 from its
    asymptotic series, whose first omitted term is below 1.2e-16 there.  Up
    to 15 it steps up from n + K past 15 by

        stirlerr(n) - stirlerr(n+1) = (n + 1/2) log1p(1/n) - 1 = sum_(j>=1) v^(2j)/(2j+1),

    v = 1/(2n+1), whose terms are positive, where lgamma(n+1) minus
    (n + 1/2) log(n) cancels to about 1e-14."""
    if n <= 15.0:
        total = 0.0
        while n <= 15.0:
            v2 = (1.0 / (2.0 * n + 1.0)) ** 2
            term, j, step = v2, 1, 0.0
            while step + term / (2 * j + 1) != step:
                step += term / (2 * j + 1)
                term *= v2
                j += 1
            total += step
            n += 1.0
        return total + _stirlerr(n)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x without its cancellation: for |x - m| < 0.1 (x + m)
    the series 2x sum_j v^(2j+1)/(2j+1) - (x - m) in v = (x - m)/(x + m),
    and the direct form elsewhere, where it does not cancel."""
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = d / (x + m)
    s = d * v
    ej = 2.0 * x * v
    j = 1
    while True:
        ej *= v * v
        s1 = s + ej / (2 * j + 1)
        if s1 == s:
            return s
        s = s1
        j += 1


def _poisson_peak(mu: float) -> tuple[int, float]:
    """The peak index k0 = floor(mu) of the Poisson weights e^-mu mu^k / k!
    and the log of the weight there.

    Past k0 = 15 the log is Loader's -stirlerr(k0) - bd0(k0, mu)
    - log(2 pi k0)/2, accurate to a few units of 1e-16 however large mu is,
    where k0 log(mu) - mu - lgamma(k0 + 1) loses about mu log(mu) ulps.
    Raises ArithmeticError from k0 = 2^53 on, where float indices stop
    advancing and a walk from the peak cannot move.
    """
    if mu >= 2.0 ** 53:
        raise ArithmeticError(f"peak index of mu={mu} is past 2^53: the peak window cannot reach it")
    k0 = int(mu)
    if k0 <= 15:
        return k0, k0 * math.log(mu) - mu - math.lgamma(k0 + 1)
    return k0, -_stirlerr(k0) - _bd0(float(k0), mu) - 0.5 * math.log(2.0 * math.pi * k0)


def _nb_peak(a: float, u: float) -> tuple[int, float]:
    """A peak index k0 of the negative binomial weights
    p_k = C(a+k-1, k) r^k (1-r)^a, r = u/(1+u), and log p_k0.

    k0 = max(0, floor((a-1) u - 1)) is the mode or one below it: the ratio
    p_(k+1)/p_k = (a+k) r/(k+1) is at least 1 up to there.  Past k0 = 0 the
    log is Loader's form of the binomial weight b(k; k+a, r), which R's
    dnbinom uses as p_k = a/(k+a) b(k; k+a, r):

        stirlerr(k+a) - stirlerr(k) - stirlerr(a) - bd0(k, (k+a) r)
            - bd0(a, (k+a)/(1+u)) + log(a / (2 pi k (k+a)))/2,

    accurate to a few units of 1e-16 however large k0 is, where lgamma
    values of size k0 log k0 lose about that many ulps.  Where 2 pi k (k+a)
    overflows (a past about 1e291) the last log is a difference of two.
    Raises ArithmeticError from k0 = 2^53 on, as ``_poisson_peak`` does.
    """
    mode = (a - 1.0) * u - 1.0
    if mode >= 2.0 ** 53:
        raise ArithmeticError(f"peak index of a={a}, u={u} is past 2^53: the peak window cannot reach it")
    k0 = max(0, int(mode))
    if k0 == 0:
        return 0, -a * math.log1p(u)
    k, n = float(k0), k0 + a
    two_pi_kn = 2.0 * math.pi * k * n
    return k0, (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(a) - _bd0(k, n * (u / (1.0 + u))) - _bd0(a, n / (1.0 + u))
        + 0.5 * (math.log(a / two_pi_kn) if two_pi_kn < math.inf else math.log(a / (2.0 * math.pi * k)) - math.log(n))
    )


# The c < 0 sums take l + 1 terms: the series route's log-space sum builds
# l + 1 logs, then as many per point, about 0.6 us a term at one point
# (l = 2*10^5 took 0.12 s) and 32 bytes a term of memory, and
# ``basis_sum`` calls ``basis`` l + 1 times (l = 10^6 took 1.6 s).  Past
# this many terms both raise rather than fill the memory or the clock
# (l = 10^300 at c = -1e-300, n = 1).  Every index the tests run is below
# it, l = 8190 the largest.
_NEG_C_TERMS = 10 ** 6


def basis_sum(params: Params, x: float, tol: float = 1e-15) -> tuple[float, int]:
    """Certified truncation of sum_k p_k(x): (sum, number of terms).

    Stops once the next term and its geometric tail bound drop below
    ``tol`` times the partial sum.  For c >= 0 the sum is walked out from
    its peak k0 (``_window_rows``), anchored at Loader's log of the weight
    there (``_poisson_peak``, ``_nb_peak``); the walk raises
    ArithmeticError at the term cap, and where k0 reaches 2^53.  For c < 0
    it sums the l + 1 terms, and raises ArithmeticError first where they are
    more than ``_NEG_C_TERMS``.  Every sum is 1 up to rounding.  The walk's
    running product carries about one unit per step from the peak: at
    k0 = 0 (a <= 1) it runs over the whole weight, and n = 1, c = 2,
    x = 1e4 reads 1 - 1.6e-12.
    """
    params.require_in_domain(x)
    n = params.n_float
    c = params.c_float
    xf = float(x)
    if xf == 0.0:
        return 1.0, 1

    if c < 0:
        l = params.l
        if l + 1 > _NEG_C_TERMS:
            raise ArithmeticError(f"the c < 0 basis sum at l = {l} takes {l + 1} terms, past its cap of {_NEG_C_TERMS}")
        total = math.fsum(basis(params, k, xf) for k in range(l + 1))
        return total, l + 1

    if c == 0.0:
        mu = n * xf
        return _one(_window_rows([_poisson_peak(mu)], lambda k: mu / (k + 1.0), lambda k: k / mu, tol))

    a = n / c
    u = c * xf
    r = u / (1.0 + u)
    up, down = (lambda k: (a + k) / (k + 1.0) * r), (lambda k: k / ((a + k - 1.0) * r))
    return _one(_window_rows([_nb_peak(a, u)], up, down, tol, up_sup=[r]))
