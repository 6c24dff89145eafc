"""Numerical residual scans, shape scans, and the log-convexity scanner.

Families without exact representations are checked against their
differential equation, and for log-convexity where Q has no exact form,
through finite differences of one ``s_closed_grid`` call per scan
(one-sided at the ends of the domain); convexity and monotonicity claims
are restated as sign conditions on differences; and the log-convexity
conjecture scanner evaluates Q = S*S'' - (S')^2 (exactly where the family
admits it) and reports margins without ever asserting the conjecture.
The exact scans are those a family's row in ``families`` lists, on the
row's series.  The exact Q is built in the paper's variables,
s = x - 1/2 (Bernstein) and
u = 1/(1+2x) (Baskakov), where it is an even polynomial R(t) in t = s^2 or
t = u^2 of degree 2n.  The exact scan stays on integers from the grid to
the margin: the grid is built as lowest-terms pairs (p, q), each point maps
to t as an integer pair, and ``RationalPoly.values`` groups the points by
the denominator of t, scales R's coefficients once per group and runs one
numerator-only Horner pass per distinct t, so each margin costs one
reduction (the Bernstein grid of 1024 points has 14 such denominators and
513 distinct t, as x and 1 - x share one; the Baskakov grid has 992
denominators for its 1024 points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .core import DomainError, Params, RationalLike, Real, _fmt_float, _fmt_rat, _one
from .bounds import s_values
from .evalnum import s_closed_grid
from .families import FamilyId
from . import exactalg

__all__ = [
    "ScanReport",
    "conjecture_grid",
    "conjecture_grid_minimum",
    "convexity_scan",
    "has_exact_q",
    "logconvexity_scan",
    "monotonicity_check",
    "ode_residual_scan",
]

# Default step for difference-based scans.
def _default_step(x: float) -> float:
    return max(1e-4, 1e-4 * abs(x))


def _fmt(v: Real) -> str:
    return _fmt_rat(v) if isinstance(v, Fraction) else _fmt_float(v)


@dataclass(frozen=True)
class ScanReport:
    """Grid scan outcome: one margin per reported grid point.

    ``margins`` and ``grid`` always have equal length; ``violations`` lists
    the (x, margin) pairs below zero.  ``status`` carries reporting-only
    context (the conjecture scanner marks itself 'unproven' and is never
    turned into an assertion).
    """

    kind: str
    subject: dict
    grid: tuple
    margins: tuple
    min_margin: Real
    argmin: Real
    violations: tuple
    status: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.grid) != len(self.margins):
            raise ValueError("grid and margins must have equal length")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "grid": [_fmt(x) for x in self.grid],
            "margins": [_fmt(m) for m in self.margins],
            "min_margin": _fmt(self.min_margin),
            "argmin": _fmt(self.argmin),
            "violations": [[_fmt(x), _fmt(m)] for x, m in self.violations],
            "status": dict(self.status),
        }


def _float_key(m: Fraction) -> float:
    """m rounded to a float, which is monotone in m; past the float range, +-inf."""
    try:
        return m.numerator / m.denominator
    except OverflowError:
        return math.inf if m.numerator > 0 else -math.inf


def _report(kind: str, subject: dict, grid: Sequence, margins: Sequence, status=None) -> ScanReport:
    if margins and all(isinstance(m, Fraction) for m in margins):
        # the float keys order the margins as their exact values do except
        # among equal keys, so only the margins at the least key are compared
        # exactly; min keeps the first of equal minima
        keys = [_float_key(m) for m in margins]
        least = min(keys)
        first = min((i for i, k in enumerate(keys) if k == least), key=margins.__getitem__)
        min_x, min_m = grid[first], margins[first]
        violations = tuple((x, m) for x, m in zip(grid, margins) if m.numerator < 0)
    else:
        pairs = list(zip(grid, margins))
        min_x, min_m = min(pairs, key=lambda p: p[1], default=(0, 0))
        violations = tuple((x, m) for x, m in pairs if m < 0)
    return ScanReport(
        kind,
        subject,
        tuple(grid),
        tuple(margins),
        min_m,
        min_x,
        violations,
        status or {},
    )


def _params_subject(params: Params) -> dict:
    return {"n": _fmt(params.n), "c": _fmt(params.c)}


# ---------------------------------------------------------------------------
# Differential-equation residual scan
# ---------------------------------------------------------------------------


def _stencil_rows(params: Params, points: Sequence[tuple[float, float]]) -> Iterator[tuple[float, float, float]]:
    """(S, S', S'') at each (x, h) of ``points``, from one ``s_closed_grid``
    call over every point's window.

    Within 2h of an end of the domain h is a quarter of the distance to it.
    S' is the fourth-order formula over x +- h, +- 2h and S'' the
    second-order inner one, which keeps the ODE residual at h^2 for the
    order tests; at an end (S(0) = 1 on the left) both are one-sided over
    x + k h, k = 0..3, with h = +-1e-4 inward.  The first error in the
    order of the points and of their abscissas is raised, and after a
    point's abscissas a DomainError where h^2 underflows to 0.
    """
    sup = math.inf if params.domain_sup is None else float(params.domain_sup)
    windows = []
    for x, h in points:
        if x - 2 * h <= 0:
            h = x / 4.0 if x > 0 else 0.0
        if x + 2 * h > sup:
            h = (sup - x) / 4.0 if x < sup else 0.0
        if h == 0.0:
            h = 1e-4 if x <= 0 else -1e-4
            windows.append((x, h, (x, x + h, x + 2 * h, x + 3 * h)))
        else:
            windows.append((x, h, (x - 2 * h, x - h, x, x + h, x + 2 * h)))
    values = iter(s_closed_grid(params, [t for _, _, window in windows for t in window]))
    for x, h, window in windows:
        f = [_one([next(values)]).value for _ in window]
        if h * h == 0.0:
            raise DomainError(f"x={x}: the finite-difference step h={h} squares to 0 in double precision")
        if len(f) == 5:
            fm2, fm1, f0, f1, f2 = f
            yield f0, (fm2 - 8.0 * fm1 + 8.0 * f1 - f2) / (12.0 * h), (fm1 - 2.0 * f0 + f1) / (h * h)
        else:
            f0, f1, f2, f3 = f
            yield f0, (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h), (2.0 * f0 - 5.0 * f1 + 4.0 * f2 - f3) / (h * h)


def ode_residual_scan(params: Params, grid: Sequence[float], h: float) -> ScanReport:
    """Residual of the second-order equation for S under finite differences.

    The margins are |a2*y'' + a1*y' + a0*y| normalized by the sum of the
    three term magnitudes (0 where all three vanish); they shrink like h^2
    toward the exact residual zero.  Points closer than 2h to the domain
    boundary are rejected (the leading coefficient vanishes at x = 0, where
    the equation instead pins the slope to y'(0) = -2n).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    n = params.n_float
    c = params.c_float
    sup = params.domain_sup
    for x in grid:
        if x - 2 * h <= 0 or (sup is not None and x + 2 * h >= float(sup)):
            raise DomainError(f"x={x} within 2h of the boundary of I_c = {params.domain_str()}")

    margins = []
    for x, (y0, y1, y2) in zip(grid, _stencil_rows(params, [(float(x), h) for x in grid])):
        a2 = x * (1.0 + c * x) * (1.0 + 2.0 * c * x)
        a1 = 4.0 * (n + c) * x * (1.0 + c * x) + 1.0
        a0 = 2.0 * n * (1.0 + 2.0 * c * x)
        residual = a2 * y2 + a1 * y1 + a0 * y0
        scale = abs(a2 * y2) + abs(a1 * y1) + abs(a0 * y0)
        margins.append(abs(residual) / scale if scale else 0.0)  # |residual| <= scale
    return _report(
        "ode_residual",
        _params_subject(params),
        [float(x) for x in grid],
        margins,
        {"h": h},
    )


# ---------------------------------------------------------------------------
# Convexity and monotonicity
# ---------------------------------------------------------------------------


def convexity_scan(family: FamilyId, n: RationalLike, grid: Sequence[Real]) -> ScanReport:
    """Second-difference margins of the squared-basis sum over a grid.

    A family whose row lists an exact convexity scan (Bernstein) gives the
    exact second x-derivative of its series at each point, exact on
    Fraction points.  Other families use second divided differences of
    neighbor triples of one ``bounds.s_values`` call, reported on the
    interior points.
    """
    family.base_params(n)  # rejects an index the family does not admit
    n = int(n) if Fraction(n).denominator == 1 else Fraction(n)  # the series builders need an int
    subject = {"family": family.name, "n": n if isinstance(n, int) else _fmt(n)}
    if "convexity" in family.row.scans:
        _, _, d2, mobius = _x_derivatives(family, n)
        xs = [x if isinstance(x, Fraction) else float(x) for x in grid]
        margins = [d2(exactalg._mobius_at(mobius, x)) for x in xs]
        return _report("convexity", subject, list(grid), margins, {"route": "exact"})
    if len(grid) < 3:
        raise ValueError("need at least 3 grid points")
    vals = [float(_one([v])) for v in s_values(family, n, grid)]  # the first error in grid order raises
    xs = [float(x) for x in grid]
    inner = []
    margins = []
    for i in range(1, len(xs) - 1):
        left = (vals[i] - vals[i - 1]) / (xs[i] - xs[i - 1])
        right = (vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i])
        inner.append(xs[i])
        margins.append(2.0 * (right - left) / (xs[i + 1] - xs[i - 1]))
    return _report("convexity", subject, inner, margins, {"route": "divided_differences"})


def monotonicity_check(n: int, grid: Sequence[Real]) -> ScanReport:
    """Decrease-then-increase margins for the Bernstein sum on [0, 1].

    Each point's margin is the drop toward the midpoint side: toward the
    next point left of 1/2, toward the previous point right of it, and
    against the exact midpoint value for a straddling point.  Exact: the
    grid is taken as Fractions, and F_n is the even polynomial R(t) in
    t = (x - 1/2)^2 evaluated at all points and the midpoint in one batch:
    the points i/(count-1) share a few denominators of t, and x and 1 - x
    share t.
    """
    xs = [Fraction(x) for x in grid]
    if any(xs[i] > xs[i + 1] for i in range(len(xs) - 1)):
        raise ValueError("grid must be sorted")
    half = Fraction(1, 2)
    r = _even_in_t(exactalg.f_poly_parseval(n))
    *vals, mid = r.values(_t_pairs(exactalg.SERIES_MAPS["s"], [*xs, half]))
    margins = []
    for i, x in enumerate(xs):
        cand = []
        if i + 1 < len(xs) and xs[i + 1] <= half:
            cand.append(vals[i] - vals[i + 1])
        if i >= 1 and xs[i - 1] >= half:
            cand.append(vals[i] - vals[i - 1])
        if not cand:
            cand.append(vals[i] - mid)
        margins.append(min(cand))
    return _report("monotonicity", {"family": "bernstein", "n": n}, xs, margins)


# ---------------------------------------------------------------------------
# Log-convexity conjecture scanner
# ---------------------------------------------------------------------------


def has_exact_q(params: Params) -> bool:
    """Whether Q has an exact form: natural n, and c's row (c = +-1) lists an exact log-convexity scan."""
    return params.n.denominator == 1 and "logconvexity" in FamilyId.from_c(params.c).row.scans


def _x_derivatives(family: FamilyId, n: int):
    """(S, S_x, S_xx) in the row's series variable y = (a x + b)/(c x + d), and
    (a, b, c, d): with phi = dy/dx = (a - c y)^2 / (a d - b c), S_x = phi S_y
    and S_xx = phi (phi S_yy + phi' S_y)."""
    s = family.row.series(n)
    a, b, c, d = mobius = exactalg.SERIES_MAPS[s.var]
    phi = exactalg.RationalPoly((a * a, -2 * a * c, c * c), s.var) / (a * d - b * c)
    s1 = s.derivative()
    return s, phi * s1, phi * (phi * s1.derivative() + phi.derivative() * s1), mobius


def _even_in_t(p: exactalg.RationalPoly) -> exactalg.RationalPoly:
    """R with p(y) = R(y^2), t = y^2; an odd power of y raises ArithmeticError."""
    if any(p._ints[1::2]):
        raise ArithmeticError(f"odd power of {p.var} in {p!r}")
    return exactalg.RationalPoly._from_ints(list(p._ints[::2]), p._den, "t")


def _t_pairs(mobius: exactalg.Mobius, xs: Sequence[Fraction]) -> list[tuple[int, int]]:
    """t = y^2 as a lowest-terms pair (N, D) for each x = p/q, y = (a p + b q)/(c p + d q)."""
    a, b, c, d = mobius
    out = []
    for x in xs:
        p, q = x.numerator, x.denominator
        num, den = a * p + b * q, c * p + d * q
        g = math.gcd(num, den)
        out.append(((num // g) ** 2, (den // g) ** 2))
    return out


def _q_even(params: Params) -> Optional[tuple[exactalg.RationalPoly, tuple[int, int, int, int]]]:
    """(R, (a, b, c, d)) with Q(x) = R(y^2) exactly, y = (a x + b)/(c x + d), or None.

    y is the series variable of the family's row: s = x - 1/2 for
    Bernstein, where S is the even polynomial ``f_poly_parseval``, and
    u = 1/(1+2x) for Baskakov, where S is the odd polynomial
    ``g_series_coeffs``.  Q = S S_xx - S_x^2 with the x-derivatives of
    ``_x_derivatives`` is even in y, and R holds its even-index coefficients.
    """
    if not has_exact_q(params):
        return None
    s, s1, s2, mobius = _x_derivatives(FamilyId.from_c(params.c), int(params.n))
    return _even_in_t(s * s2 - s1 * s1), mobius


def conjecture_grid_minimum(params: Params) -> int:
    """The least count ``conjecture_grid`` accepts: 4 on a compact domain,
    whose uniform part needs two points (count // 2 >= 2), else 1."""
    return 4 if params.domain_sup is not None else 1


def conjecture_grid(params: Params, count: int = 1024) -> list[Fraction]:
    """Rational scan grid: uniform plus quadratically clustered endpoints.

    Compact domains cluster at both ends; unbounded domains map a uniform
    rational grid through u -> u/(1-u) and cluster near the origin.  The
    grid is deduplicated and topped up to exactly ``count`` points; a count
    below ``conjecture_grid_minimum`` raises ValueError.  The points are
    built, deduplicated and sorted as lowest-terms integer pairs.
    """
    least = conjecture_grid_minimum(params)
    if count < least:
        raise ValueError(f"conjecture_grid needs count >= {least}, got {count}")
    pts: set[tuple[int, int]] = set()

    def add(p: int, q: int) -> None:
        g = math.gcd(p, q)
        pts.add((p // g, q // g))

    half = count // 2
    quarter = count // 4
    sup = params.domain_sup
    if sup is not None:
        bp, bq = sup.numerator, sup.denominator
        for j in range(half):
            add(bp * j, bq * (half - 1))
        sq = 2 * quarter * quarter
        for j in range(1, quarter + 1):
            add(bp * j * j, bq * sq)
            add(bp * (sq - j * j), bq * sq)
    else:
        bp = bq = 1
        for j in range(half):
            add(j, half - j)
        sq = quarter * quarter
        for j in range(1, quarter + 1):
            add(j * j, 4 * sq)
            add(sq + j * j, sq)
    extra = 1
    while len(pts) < count:
        add(bp * extra, bq * (count * 4 + 1))
        extra += 1
    # float rounding is monotone, so the float key orders as the exact values
    # do, and equal floats fall back to the exact compare
    return [x for _, x in sorted((p / q, Fraction(p, q)) for p, q in pts)]


def logconvexity_scan(
    params: Params,
    grid: Optional[Sequence[Real]] = None,
    count: int = 1024,
) -> ScanReport:
    """Margins Q(x) = S(x)S''(x) - S'(x)^2 over a grid; report only.

    Exact rational evaluation for c in {-1, +1} (integer index), finite
    differences of the closed form otherwise.  The scanner never asserts
    log-convexity: the report carries status 'unproven' and callers must
    not fail on negative margins.
    """
    even = _q_even(params)
    status = {"conjecture": "log-convexity of S", "status": "unproven", "asserted": False}
    if even is not None:
        # Q(x) = R(t) at t = y^2 = (a p + b q)^2 / (c p + d q)^2 for x = p/q
        r, mobius = even
        if grid is None:
            xs = conjecture_grid(params, count)
        else:
            xs = [Fraction(x) for x in grid]
            for x in xs:
                if not params.in_domain(x):
                    raise DomainError(f"x={x} outside I_c = {params.domain_str()}")
        margins = r.values(_t_pairs(mobius, xs))
        status["route"] = "exact"
        return _report("log_convexity", _params_subject(params), xs, margins, status)

    if grid is None:
        raise ValueError("a float grid is required for families without an exact route")

    xs = [float(x) for x in grid]
    margins = [y0 * y2 - y1 * y1 for y0, y1, y2 in _stencil_rows(params, [(x, _default_step(x)) for x in xs])]
    status["route"] = "finite_differences"
    return _report("log_convexity", _params_subject(params), xs, margins, status)
