"""One row per operator family, keyed by ``FamilyId.key``: what is exact or
proven about its sum (``core`` keeps its structure).  Rows look builders up
in ``exactalg`` and ``legendre`` at call time, so a patched module attribute
is the one that runs, and nothing they build outlives the call; Bernstein's
``legendre`` item hands the centred F_n to the polynomial bridge.  A
substitution family's bounds and ``substitution`` item read its change of
variable and index shift from its row of ``core._FAMILIES`` at call time,
so the map the float routes run is the one ``verify`` proves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Optional

from . import core, exactalg, legendre
from .core import Real

__all__ = ["FAMILIES", "Family", "least_index"]

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


def _base_bounds(key: str, series_map: Optional[exactalg.Mobius] = None) -> Callable[[int, float], Bounds]:
    """A substitution family's bounds: its base row's at the base index and
    point, by the family's row of ``core._FAMILIES``.  Where the
    substitution keeps the base row's series variable, ``series_map`` forms
    it from the family's own point as the family's sum does, so the
    rounding of the base point never enters it (mkz's index-0 envelope is
    then its sum to the bit)."""
    def bounds(n, x):
        sub = core._FAMILIES[key]
        point = () if series_map is None else (core._mobius_at(series_map, x),)
        return FAMILIES[sub.base].bounds(n + sub.shift, core._mobius_at(sub.to_base, x), *point)
    return bounds


def _substitution_item(key: str, scale: int = 1) -> tuple[str, Callable[[range], bool]]:
    """A substitution family's ``verify`` item: its series at n is its base
    row's at n + shift under the map of its row of ``core._FAMILIES``, read
    at call time, so a patched row is the one checked; ``scale`` relates the
    two series variables (``exactalg.substitution_identity``)."""
    def check(n):
        sub = core._FAMILIES[key]
        return exactalg.substitution_identity(
            FAMILIES[sub.base].series(n + sub.shift), sub.to_base, FAMILIES[key].series(n), scale)
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
    """What is exact or proven about one family, at natural n: S in its series
    variable (whose ``var`` names its map in ``exactalg.SERIES_MAPS``) and S
    itself (None: the closed form only), the proven bounds at a point, the
    witness (label, build) that ``verify --format json`` builds at the least
    index, the ``verify`` items (name, check), where check(ns) holds at every
    index of ns, and the scan kinds with an exact route."""

    series: Optional[Callable[[int], exactalg.RationalPoly]] = None
    value: Optional[Callable[[int, Real], Real]] = None
    bounds: Optional[Callable[[int, float], Bounds]] = None
    witness: Optional[tuple[str, Callable[[int], Any]]] = None
    items: tuple[tuple[str, Callable[[range], bool]], ...] = ()
    scans: tuple[str, ...] = ()


FAMILIES = {
    "bernstein": Family(lambda n: exactalg.f_poly_parseval(n), lambda n, x: exactalg.f_value(n, x),
        _bernstein_bounds, ("f_poly", lambda n: exactalg.f_poly_direct(n)), (
        ("parseval", _each(lambda n: exactalg.f_poly_parseval(n).compose_linear(1, Fraction(-1, 2))
            == exactalg.f_poly_direct(n))),
        ("recurrences", _each(lambda n: exactalg.recurrence_check(n))),
        ("ode", _solves(lambda n: exactalg.eq_f(n), lambda n: exactalg.f_poly_parseval(n))),
        ("heun", _solves(lambda n: exactalg.HeunParams.polynomial_case(n).operator(),
            lambda n: exactalg.f_poly_parseval(n))),
        ("legendre", lambda ns: legendre.bridge_check(ns, exactalg.f_poly_parseval)  # F_n = (1-2x)^n P_n(t)
            and all(legendre.derivative_relations_check(n, Fraction(3, 2)) for n in ns if n <= 8)),
    ), ("convexity", "logconvexity", "monotonicity")),
    "bbh": Family(lambda n: exactalg.u_series_coeffs(n), lambda n, x: exactalg.u_value(n, x),
        _base_bounds("bbh"), ("u_rational", lambda n: exactalg.u_rational(n)), (
        ("ode", _solves(lambda n: exactalg.eq_u(n), lambda n: exactalg.u_series_coeffs(n))),
        _substitution_item("bbh", 2),  # U_n = F_n(x/(1+x)), s = v/2
    )),
    "baskakov": Family(lambda n: exactalg.g_series_coeffs(n), lambda n, x: exactalg.g_value(n, x),
        _baskakov_bounds, ("g_rational", lambda n: exactalg.g_rational(n)), (
        ("ode", _solves(lambda n: exactalg.eq_g(n), lambda n: exactalg.g_series_coeffs(n))),
        ("heun", _solves(lambda n: exactalg.HeunParams.rational_case(n).operator(),
            lambda n: exactalg.g_series_coeffs(n), exactalg.NEGATE)),
        ("substitution", _each(lambda n: exactalg.substitution_identity(  # G_n = J_(n-1)(x/(1+x))
            exactalg.j_series_coeffs(n - 1), (1, 0, 1, 1), exactalg.g_series_coeffs(n)))),
    ), ("logconvexity",)),
    "mkz": Family(lambda n: exactalg.j_series_coeffs(n), lambda n, x: exactalg.j_value(n, x),
        _base_bounds("mkz", exactalg.SERIES_MAPS["w"]), ("j_rational", lambda n: exactalg.j_rational(n)), (
        ("ode", _solves(lambda n: exactalg.eq_j(n), lambda n: exactalg.j_series_coeffs(n))),
        _substitution_item("mkz"),  # J_n = G_(n+1)(x/(1-x))
    )),
    "szasz": Family(bounds=_szasz_bounds),
    "general": Family(),  # nothing exact or proven at a general c
}


def least_index(family: core.FamilyId) -> int:
    """The least natural index of the family's bounds and identity suite (core's; 1 where that is None)."""
    n_min = core._FAMILIES[family.key].n_min
    return 1 if n_min is None else n_min
