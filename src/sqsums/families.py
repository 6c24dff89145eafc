"""The family table: one row per named operator family, with its structure
and what is exact or proven about its sum, and ``FamilyId``, the tag that
reads it.  Rows look builders up in ``exactalg`` and ``legendre`` at call
time, so a patched module attribute is the one that runs, and nothing they
build outlives the call; Bernstein's ``legendre`` item hands the centred
F_n to the polynomial bridge.  A substitution family's bounds and
``substitution`` item read its change of variable and index shift from its
row at call time, so the map the float routes run is the one ``verify``
proves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Optional

from . import exactalg, legendre
from .core import ParameterError, Params, RationalLike, Real, _as_fraction, _Interval, _OnDomain
from .exactalg import Mobius, _mobius_at

__all__ = ["FAMILIES", "FAMILY_NAMES", "Family", "FamilyId"]

# (label, value) per bound, and notes on the bounds left out.
Bounds = tuple[list[tuple[str, float]], list[str]]

_LOG_MAX = 709.782712893384  # the log of the largest double: math.exp is finite up to it


def _bernstein_bounds(n: int, x: float) -> Bounds:
    base = 1.0 + 4.0 * (n - 1) * x * (1.0 - x)
    out = [("inv_sqrt", base ** -0.5)]
    notes = []
    if n >= 2:
        out.append(("refined_power", base ** (-n / (2.0 * (n - 1)))))
    else:
        notes.append("refined_power needs n >= 2; omitted")
    return out, notes


@lru_cache(maxsize=None)
def _central_beta(m: int) -> float:
    """C(2m, m)/4^m, correctly rounded: once per index, not per point."""
    return math.comb(2 * m, m) / 4 ** m


def _baskakov_bounds(n: int, x: float, w: Optional[float] = None) -> Bounds:
    # the central-binomial envelope C(2m, m) (1+x)^m / (1+2x)^(m+1), m = n - 1,
    # as beta_m (2 + 2w)^m w with beta_m = C(2m, m)/4^m <= 1 and w = 1/(1+2x) =
    # 0.5/(0.5+x), the series variable, or the one a substitution family forms
    # from its own point: no factor overflows or vanishes but the power, and
    # past its overflow the product is taken in log space, inf only past the
    # double range
    m = n - 1
    if w is None:
        w = 0.5 / (0.5 + x)
    beta = _central_beta(m)
    try:
        envelope = beta * (2.0 + 2.0 * w) ** m * w
    except OverflowError:
        log = math.log(beta) + m * math.log(2.0 + 2.0 * w) + math.log(w)
        envelope = math.exp(log) if log <= _LOG_MAX else math.inf
    base = 4.0 * (n + 1) * x * (1.0 + x) + 1.0
    return [("refined_power", base ** (-n / (2.0 * (n + 1)))), ("central_binomial", envelope)], []


def _base_bounds(key: str, series_map: Optional[Mobius] = None) -> Callable[[int, float], Bounds]:
    """A substitution family's bounds: its base row's at the base index and
    point, by the family's own row.  Where the
    substitution keeps the base row's series variable, ``series_map`` forms
    it from the family's own point as the family's sum does, so the
    rounding of the base point never enters it (mkz's index-0 envelope is
    then its sum to the bit)."""
    def bounds(n, x):
        sub = FAMILIES[key]
        point = () if series_map is None else (_mobius_at(series_map, x),)
        return FAMILIES[sub.base].bounds(n + sub.shift, _mobius_at(sub.to_base, x), *point)
    return bounds


def _substitution_item(key: str, scale: int = 1) -> tuple[str, Callable[[range], bool]]:
    """A substitution family's ``verify`` item: its series at n is its base
    row's at n + shift under the map of its own row, read at call time, so a
    patched row is the one checked; ``scale`` relates the two series
    variables (``exactalg.substitution_identity``)."""
    def check(n):
        sub = FAMILIES[key]
        return exactalg.substitution_identity(
            FAMILIES[sub.base].series(n + sub.shift), sub.to_base, sub.series(n), scale)
    return "substitution", _each(check)


def _szasz_bounds(n: int, x: float) -> Bounds:
    return [("inv_sqrt", (4.0 * n * x + 1.0) ** -0.5)], []


def _each(check: Callable[[int], bool]) -> Callable[[range], bool]:
    """The item that holds where check(n) holds at every index."""
    return lambda ns: all(check(n) for n in ns)


def _solves(spec, series, inner=exactalg.IDENTITY) -> Callable[[range], bool]:
    """The item that series(n) solves spec(n) at every index, in the series
    variable of series(n).  The operators move there once per call
    (``exactalg.moved_operators``), and the residual is a banded product
    with the series coefficients."""
    def check(ns):
        moved = exactalg.moved_operators(spec, series(ns[0]).var, inner)
        return all(moved(n).apply(series(n)).is_zero for n in ns)
    return check


class Family(NamedTuple):
    """One named family, the one home of each fact it holds: its structure
    (the sum of a substitution family is that of the (n, c) family ``base``
    at index ``n + shift`` and point ``to_base(x)``, a Moebius map, and
    ``domain`` is its own where it is not I_c) and, at natural n, S in its
    series variable (whose ``var`` names its map in ``exactalg.SERIES_MAPS``)
    and S itself (None: the closed form only), the proven bounds at a point,
    the witness (label, build) that ``verify --format json`` builds at the
    least index, the ``verify`` items (name, check), where check(ns) holds at
    every index of ns, and the scan kinds with an exact route."""

    base: str
    c: Optional[Fraction]  # None: the tag carries its own c
    n_min: Optional[int] = None  # least natural index; None: any positive rational
    shift: int = 0
    to_base: Optional[Mobius] = None
    domain: Optional[_Interval] = None
    series: Optional[Callable[[int], exactalg.RationalPoly]] = None
    value: Optional[Callable[[int, Real], Real]] = None
    bounds: Optional[Callable[[int, float], Bounds]] = None
    witness: Optional[tuple[str, Callable[[int], Any]]] = None
    items: tuple[tuple[str, Callable[[range], bool]], ...] = ()
    scans: tuple[str, ...] = ()


FAMILIES = {
    "bernstein": Family("bernstein", Fraction(-1), 1, series=lambda n: exactalg.f_poly_parseval(n),
        value=lambda n, x: exactalg.f_value(n, x), bounds=_bernstein_bounds,
        witness=("f_poly", lambda n: exactalg.f_poly_direct(n)), items=(
        ("parseval", _each(lambda n: exactalg.f_poly_parseval(n).compose_linear(1, Fraction(-1, 2))
            == exactalg.f_poly_direct(n))),
        ("recurrences", _each(lambda n: exactalg.recurrence_check(n))),
        ("ode", _solves(lambda n: exactalg.eq_f(n), lambda n: exactalg.f_poly_parseval(n))),
        ("heun", _solves(lambda n: exactalg.HeunParams.polynomial_case(n).operator(),
            lambda n: exactalg.f_poly_parseval(n))),
        ("legendre", lambda ns: legendre.bridge_check(ns, exactalg.f_poly_parseval)  # F_n = (1-2x)^n P_n(t)
            and all(legendre.derivative_relations_check(n, Fraction(3, 2)) for n in ns if n <= 8)),
    ), scans=("convexity", "logconvexity", "monotonicity")),
    "szasz": Family("szasz", Fraction(0), bounds=_szasz_bounds),
    "baskakov": Family("baskakov", Fraction(1), series=lambda n: exactalg.g_series_coeffs(n),
        value=lambda n, x: exactalg.g_value(n, x), bounds=_baskakov_bounds,
        witness=("g_rational", lambda n: exactalg.g_rational(n)), items=(
        ("ode", _solves(lambda n: exactalg.eq_g(n), lambda n: exactalg.g_series_coeffs(n))),
        ("heun", _solves(lambda n: exactalg.HeunParams.rational_case(n).operator(),
            lambda n: exactalg.g_series_coeffs(n), exactalg.NEGATE)),
        ("substitution", _each(lambda n: exactalg.substitution_identity(  # G_n = J_(n-1)(x/(1+x))
            exactalg.j_series_coeffs(n - 1), (1, 0, 1, 1), exactalg.g_series_coeffs(n)))),
    ), scans=("logconvexity",)),
    "bbh": Family("bernstein", Fraction(-1), 1, 0, (1, 0, 1, 1), _Interval(None),  # x/(1+x)
        series=lambda n: exactalg.u_series_coeffs(n), value=lambda n, x: exactalg.u_value(n, x),
        bounds=_base_bounds("bbh"), witness=("u_rational", lambda n: exactalg.u_rational(n)), items=(
        ("ode", _solves(lambda n: exactalg.eq_u(n), lambda n: exactalg.u_series_coeffs(n))),
        _substitution_item("bbh", 2),  # U_n = F_n(x/(1+x)), s = v/2
    )),
    "mkz": Family("baskakov", Fraction(1), 0, 1, (1, 0, -1, 1), _Interval(Fraction(1), False),  # x/(1-x)
        series=lambda n: exactalg.j_series_coeffs(n), value=lambda n, x: exactalg.j_value(n, x),
        bounds=_base_bounds("mkz", exactalg.SERIES_MAPS["w"]),
        witness=("j_rational", lambda n: exactalg.j_rational(n)), items=(
        ("ode", _solves(lambda n: exactalg.eq_j(n), lambda n: exactalg.j_series_coeffs(n))),
        _substitution_item("mkz"),  # J_n = G_(n+1)(x/(1-x))
    )),
    "general": Family("general", None),  # nothing exact or proven at a general c
}
FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class FamilyId(_OnDomain):
    """Tag for an operator family.

    ``bernstein``/``szasz``/``baskakov`` are the canonical names of the
    ``c = -1, 0, 1`` families; ``general`` carries an explicit ``c``.
    ``bbh`` and ``mkz`` are substitution families: their squared-basis sums
    are the Bernstein sum composed with ``x/(1+x)`` and the Baskakov sum of
    index ``n+1`` composed with ``x/(1-x)`` respectively, by the map and
    shift of their rows.  Its index rule, shift, domain and map come from
    the row of its ``name``; what is exact or proven about its sum from
    ``row``, the row of its ``key``.
    """

    name: str
    c: Optional[Fraction] = None
    _domain: _Interval = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.name not in FAMILIES:
            raise ParameterError(f"unknown family {self.name!r}")
        if self.name == "general":
            if self.c is None:
                raise ParameterError("general family requires an explicit c")
            object.__setattr__(self, "c", _as_fraction(self.c, "c"))
        elif self.c is not None:
            raise ParameterError(f"family {self.name!r} does not take a c parameter")
        object.__setattr__(self, "_domain", FAMILIES[self.name].domain or _Interval.of_c(self.base_c))

    @classmethod
    def from_c(cls, c: RationalLike) -> "FamilyId":
        general = cls("general", c)
        return general if general.key == "general" else cls(general.key)

    @property
    def key(self) -> str:
        """The named family this tag denotes (``general`` with c in {-1, 0, 1}
        resolves to bernstein, szasz or baskakov)."""
        if self.c is not None:
            for name, row in FAMILIES.items():
                if row.base == name and row.c == self.c:
                    return name
        return self.name

    @property
    def row(self) -> Family:
        """The row of ``key``: what is exact or proven about this family's sum."""
        return FAMILIES[self.key]

    @property
    def least_index(self) -> int:
        """The least natural index of the family's bounds and identity suite (``row``'s; 1 where that is None)."""
        return 1 if (n_min := self.row.n_min) is None else n_min

    @property
    def base_family(self) -> str:
        """Name of the (n, c) family this family's sum is a substitution of."""
        return self.row.base

    @property
    def base_c(self) -> Fraction:
        """Family parameter of the underlying (n, c) family."""
        return self.c if self.c is not None else FAMILIES[self.name].c

    def base_params(self, n: RationalLike) -> Params:
        """Params of the underlying family (index shift n -> n+1 for mkz)."""
        n = _as_fraction(n, "n")
        own = FAMILIES[self.name]
        if own.n_min is not None and (n.denominator != 1 or n < own.n_min):
            raise ParameterError(f"family {self.name!r} needs a natural index, got n={n}")
        return Params(n + own.shift, self.base_c)

    def substitution(self, x: Real) -> Real:
        """Map a point of this family's domain into the base family's domain
        by its own row's Moebius map (exact on a Fraction); DomainError outside
        the family's domain, for every family."""
        self.require_in_domain(x)
        to_base = FAMILIES[self.name].to_base
        return x if to_base is None else _mobius_at(to_base, x)

    def _outside(self, x: Real) -> str:
        return f"x={x} outside the domain {self.domain_str()} of family {self.name!r}"
