"""Upper bounds for the squared-basis sums and their grid verification.

Each family carries one or two proven upper bounds: an inverse-square-root
bound, a sharper power bound derived from convexity plus the differential
equation, or a central-binomial envelope.  ``bound_values`` evaluates every
applicable bound next to the most accurate available value of the sum and
reports the margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .core import FamilyId, ParameterError, RationalLike
from . import evalnum, exactalg

__all__ = [
    "BoundReport",
    "bound_values",
    "s_value",
    "standard_grid",
]

# Unbounded domains get Chebyshev coverage of a near field plus decades.
_NEARFIELD_SUP = 20.0
_DECADES = tuple(float(10 ** j) for j in range(0, 7))

Real = Union[float, Fraction]
# (label, value) per bound, and notes on the bounds left out.
_Bounds = tuple[list[tuple[str, float]], list[str]]


@dataclass(frozen=True)
class BoundReport:
    """All applicable bounds at one point, with the worst margin."""

    family: FamilyId
    n: int
    x: float
    s_value: float
    bounds: tuple[tuple[str, float], ...]
    min_margin: float
    notes: tuple[str, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "family": self.family.name,
            "n": self.n,
            "x": f"{self.x:.17g}",
            "s_value": f"{self.s_value:.17g}",
            "bounds": [{"label": lb, "value": f"{v:.17g}"} for lb, v in self.bounds],
            "min_margin": f"{self.min_margin:.17g}",
            "notes": list(self.notes),
        }


def _bernstein_bounds(n: int, x: float) -> _Bounds:
    base = 1.0 + 4.0 * (n - 1) * x * (1.0 - x)
    out = [("inv_sqrt", base ** -0.5)]
    notes = []
    if n >= 2:
        out.append(("refined_power", base ** (-n / (2.0 * (n - 1)))))
    else:
        notes.append("refined_power needs n >= 2; omitted")
    return out, notes


def _bbh_bounds(n: int, x: float) -> _Bounds:
    return [("inv_sqrt", (x + 1.0) / math.sqrt(x * x + (4.0 * n - 2.0) * x + 1.0))], []


def _baskakov_bounds(n: int, x: float) -> _Bounds:
    base = 4.0 * (n + 1) * x * (1.0 + x) + 1.0
    return [
        ("refined_power", base ** (-n / (2.0 * (n + 1)))),
        ("central_binomial", math.comb(2 * n - 2, n - 1) * (1.0 + x) ** (n - 1) / (1.0 + 2.0 * x) ** n),
    ], []


def _mkz_bounds(n: int, x: float) -> _Bounds:
    base = (1.0 - x) ** 2 / (x * x + (4.0 * n + 6.0) * x + 1.0)
    return [
        ("refined_power", base ** ((n + 1) / (2.0 * (n + 2)))),
        ("central_binomial", math.comb(2 * n, n) * (1.0 - x) / (1.0 + x) ** (n + 1)),
    ], []


def _szasz_bounds(n: int, x: float) -> _Bounds:
    return [("inv_sqrt", (4.0 * n * x + 1.0) ** -0.5)], []


class _Family(NamedTuple):
    """Exact value of S (None: closed form only), bound formulas, least index."""

    value: Optional[Callable[[int, Real], Real]]
    bounds: Callable[[int, float], _Bounds]
    n_min: int


# Keyed by FamilyId.key.  The exact values go through the module at call time
# so that a patched ``exactalg`` attribute is the one that runs.
_FAMILIES = {
    "bernstein": _Family(lambda n, x: exactalg.f_value(n, x), _bernstein_bounds, 1),
    "bbh": _Family(lambda n, x: exactalg.u_value(n, x), _bbh_bounds, 1),
    "baskakov": _Family(lambda n, x: exactalg.g_value(n, x), _baskakov_bounds, 1),
    "mkz": _Family(lambda n, x: exactalg.j_value(n, x), _mkz_bounds, 0),
    "szasz": _Family(None, _szasz_bounds, 1),
}


def s_value(family: FamilyId, n: RationalLike, x: Real, rtol: float = 1e-12) -> float:
    """The squared-basis sum of a family, by its most accurate route.

    Families with exact representations evaluate their positive-coefficient
    series at natural n (fully exact on Fraction input); the Szasz family,
    general non-exact parameters and fractional indices go through the
    closed-form kernels.
    """
    family.require_in_domain(x)
    row = _FAMILIES.get(family.key)
    if row is None or row.value is None or int(n) != n:
        return evalnum.s_closed(family.base_params(n), float(x), rtol).value
    v = row.value(int(n), x)
    return v if isinstance(x, Fraction) else float(v)


def bound_values(family: FamilyId, n: int, x: Real) -> BoundReport:
    """All applicable bounds for the family at x with their margins.

    Bounds that need a larger index (the refined power bound at n = 1 for
    the Bernstein family) are omitted with a note, never an error.
    """
    row = _FAMILIES.get(family.key)
    if row is None:
        raise ParameterError(f"no proven bounds for general c={family.c}")
    if n < row.n_min:
        raise ParameterError(f"family {family.key!r} bounds need n >= {row.n_min}, got n={n}")
    family.require_in_domain(x)
    xf = float(x)
    value = float(s_value(family, n, x))
    bounds, notes = row.bounds(n, xf)
    min_margin = min(b - value for _, b in bounds)
    return BoundReport(family, n, xf, value, tuple(bounds), min_margin, tuple(notes))


def standard_grid(family: FamilyId, count: int = 256) -> list[float]:
    """Verification grid: Chebyshev-clustered points on the compact part,
    plus decade points for unbounded domains."""
    sup = family.domain_sup
    if sup is not None:
        hi = float(sup)
        if not family.in_domain(hi):
            hi -= 2.0 ** -20  # open right end
        lo = 0.0
    else:
        lo, hi = 0.0, _NEARFIELD_SUP
    pts = [
        lo + (hi - lo) * 0.5 * (1.0 + math.cos((2 * j - 1) * math.pi / (2 * count)))
        for j in range(1, count + 1)
    ]
    pts.extend([lo, hi])
    if sup is None:
        pts.extend(_DECADES)
    return sorted(set(pts))
