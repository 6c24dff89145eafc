"""Upper bounds for the squared-basis sums and their grid verification.

Each family's row in ``families`` carries one or two proven upper bounds:
an inverse-square-root bound, a sharper power bound derived from convexity
plus the differential equation, or a central-binomial envelope.
``bound_values`` evaluates every applicable bound next to the most accurate
available value of the sum and reports the margins; ``bound_reports`` does
so for a grid, with the sums of its points from one call of the grid routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import ParameterError, RationalLike, Real, _fmt_float
from .families import FamilyId
from . import evalnum

__all__ = [
    "BoundReport",
    "bound_reports",
    "bound_values",
    "s_values",
    "standard_grid",
]

# Unbounded domains get Chebyshev coverage of a near field plus decades.
_NEARFIELD_SUP = 20.0
_DECADES = tuple(float(10 ** j) for j in range(0, 7))


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
            "x": _fmt_float(self.x),
            "s_value": _fmt_float(self.s_value),
            "bounds": [{"label": lb, "value": _fmt_float(v)} for lb, v in self.bounds],
            "min_margin": _fmt_float(self.min_margin),
            "notes": list(self.notes),
        }


def s_values(family: FamilyId, n: RationalLike, xs: Sequence[Real]) -> list:
    """The squared-basis sum of a family at every point of ``xs``, by its
    most accurate route: the value, or the exception raised there.

    Families with exact representations evaluate their positive-coefficient
    series at natural n (fully exact on Fraction input); the Szasz family,
    general non-exact parameters and fractional indices go through the
    closed-form kernels, whose points are one ``evalnum.s_closed_grid``
    call at ``evalnum.RTOL_DEFAULT``; each point is sorted once
    (``evalnum._sorted_rows``).
    """
    row = family.row
    exact = row.value is not None and int(n) == n

    def sort(x):
        family.require_in_domain(x)
        if not exact:
            return "closed", float(x)
        v = row.value(int(n), x)
        return None, v if isinstance(x, Fraction) else float(v)

    def closed(xs):
        try:
            return evalnum.s_closed_grid(family.base_params(n), xs, evalnum.RTOL_DEFAULT)
        except Exception as exc:  # the same for every point
            return [exc] * len(xs)

    return evalnum._sorted_rows(xs, sort, {"closed": (closed, lambda _, r: r.value)})


def bound_reports(family: FamilyId, n: int, xs: Sequence[Real]) -> list[BoundReport]:
    """``bound_values`` at every point of ``xs``, with the sums from one
    ``s_values`` call; raises the error of the first point that has one."""
    row = family.row
    if row.bounds is None:
        raise ParameterError(f"no proven bounds for general c={family.c}")
    if n < (least := family.least_index):
        raise ParameterError(f"family {family.key!r} bounds need n >= {least}, got n={n}")
    reports = []
    for x, value in zip(xs, s_values(family, n, xs)):
        if isinstance(value, Exception):
            raise value
        xf = float(x)
        value = float(value)
        bounds, notes = row.bounds(n, xf)
        min_margin = min(b - value for _, b in bounds)
        reports.append(BoundReport(family, n, xf, value, tuple(bounds), min_margin, tuple(notes)))
    return reports


def bound_values(family: FamilyId, n: int, x: Real) -> BoundReport:
    """All applicable bounds for the family at x with their margins.

    Bounds that need a larger index (the refined power bound at n = 1 for
    the Bernstein family) are omitted with a note, never an error.
    """
    return bound_reports(family, n, [x])[0]


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
