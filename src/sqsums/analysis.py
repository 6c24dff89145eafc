"""Numerical residual scans, shape scans, and the log-convexity scanner.

Families without exact representations are checked against their
differential equation through finite differences of the closed-form
evaluator; convexity and monotonicity claims are restated as sign
conditions on differences; and the log-convexity conjecture scanner
evaluates Q = S*S'' - (S')^2 (exactly where the family admits it) and
reports margins without ever asserting the conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .core import DomainError, FamilyId, Params, RationalLike
from .bounds import s_value
from .evalnum import s_closed
from . import exactalg

__all__ = [
    "ScanReport",
    "conjecture_grid",
    "convexity_scan",
    "has_exact_q",
    "logconvexity_scan",
    "monotonicity_check",
    "ode_residual_scan",
]

Real = Union[float, Fraction]

# Default step for difference-based scans.
def _default_step(x: float) -> float:
    return max(1e-4, 1e-4 * abs(x))


def _fmt(v: Real) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return f"{v:.17g}"


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


def _report(kind: str, subject: dict, grid: Sequence, margins: Sequence, status=None) -> ScanReport:
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


def _fd_derivs(f: Callable[[float], float], x: float, h: float):
    """First and second derivatives on the symmetric 5-point window.

    The first derivative uses the fourth-order formula over x +- h, +- 2h;
    the second derivative uses the second-order inner formula, which keeps
    the overall residual scaling cleanly at h^2 for the order tests.
    """
    fm2, fm1, f0, f1, f2 = (f(x - 2 * h), f(x - h), f(x), f(x + h), f(x + 2 * h))
    d1 = (fm2 - 8.0 * fm1 + 8.0 * f1 - f2) / (12.0 * h)
    d2 = (fm1 - 2.0 * f0 + f1) / (h * h)
    return f0, d1, d2


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

    def f(xx: float) -> float:
        return s_closed(params, xx).value

    margins = []
    for x in grid:
        y0, y1, y2 = _fd_derivs(f, float(x), h)
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

    The Bernstein family uses the exact route: its centered representation
    has positive even coefficients, so the margins are exact second
    derivative values.  Other families use second divided differences of
    neighbor triples, reported on the interior points.
    """
    family.base_params(n)  # rejects an index the family does not admit
    n = int(n) if Fraction(n).denominator == 1 else Fraction(n)  # f_poly_parseval needs an int
    subject = {"family": family.name, "n": n if isinstance(n, int) else _fmt(n)}
    if family.key == "bernstein":
        d2 = exactalg.f_poly_parseval(n).derivative().derivative()
        margins = []
        for x in grid:
            s = (x - Fraction(1, 2)) if isinstance(x, Fraction) else (float(x) - 0.5)
            margins.append(d2(s))
        return _report("convexity", subject, list(grid), margins, {"route": "exact"})
    if len(grid) < 3:
        raise ValueError("need at least 3 grid points")
    vals = [float(s_value(family, n, x)) for x in grid]
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
    against the exact midpoint value for a straddling point.  Exact on
    Fraction grids.
    """
    xs = list(grid)
    if any(xs[i] > xs[i + 1] for i in range(len(xs) - 1)):
        raise ValueError("grid must be sorted")
    exact = all(isinstance(x, Fraction) for x in xs)
    half = Fraction(1, 2) if exact else 0.5
    vals = [exactalg.f_value(n, x if exact else float(x)) for x in xs]
    mid = exactalg.f_value(n, half)
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
    """Whether Q has an exact rational form: c in {-1, +1} at natural n."""
    return params.c in (-1, 1) and params.n.denominator == 1


def _q_exact(params: Params) -> Optional[exactalg.RationalFn]:
    """Q = S*S'' - (S')^2 as an exact rational function, or None.

    S = N/D is taken unreduced and Q comes from one cleared identity,
    Q*D^4 = D^2 (N N'' - N'^2) - N^2 (D D'' - D'^2), with no gcd.
    """
    if not has_exact_q(params):
        return None
    if params.c < 0:
        num, den = exactalg.RationalFn(exactalg.f_poly_direct(params.l)).pair
    else:
        num, den = exactalg.g_rational(int(params.n)).pair
    n1, d1 = num.derivative(), den.derivative()
    q = den * den * (num * n1.derivative() - n1 * n1) - num * num * (
        den * d1.derivative() - d1 * d1
    )
    return exactalg.RationalFn(q, den ** 4)


def conjecture_grid(params: Params, count: int = 1024) -> list[Fraction]:
    """Rational scan grid: uniform plus quadratically clustered endpoints.

    Compact domains cluster at both ends; unbounded domains map a uniform
    rational grid through u -> u/(1-u) and cluster near the origin.  The
    grid is deduplicated and topped up to exactly ``count`` points.
    """
    pts: set[Fraction] = set()
    sup = params.domain_sup
    half = count // 2
    quarter = count // 4
    if sup is not None:
        b = Fraction(sup)
        for j in range(half):
            pts.add(b * j / (half - 1))
        for j in range(1, quarter + 1):
            frac = Fraction(j * j, 2 * quarter * quarter)
            pts.add(b * frac)
            pts.add(b * (1 - frac))
        extra = 1
        while len(pts) < count:
            pts.add(b * extra / (count * 4 + 1))
            extra += 1
    else:
        for j in range(half):
            u = Fraction(j, half)
            pts.add(u / (1 - u))
        for j in range(1, quarter + 1):
            pts.add(Fraction(j * j, 4 * quarter * quarter))
            pts.add(Fraction(quarter * quarter + j * j, quarter * quarter))
        extra = 1
        while len(pts) < count:
            pts.add(Fraction(extra, count * 4 + 1))
            extra += 1
    return sorted(pts)[:count]


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
    qfun = _q_exact(params)
    status = {"conjecture": "log-convexity of S", "status": "unproven", "asserted": False}
    if qfun is not None:
        xs = [Fraction(x) for x in grid] if grid is not None else conjecture_grid(params, count)
        margins = []
        kept = []
        for x in xs:
            if not params.in_domain(x):
                raise DomainError(f"x={x} outside I_c = {params.domain_str()}")
            try:
                margins.append(qfun(x))
                kept.append(x)
            except ZeroDivisionError:
                continue
        status["route"] = "exact"
        return _report("log_convexity", _params_subject(params), kept, margins, status)

    if grid is None:
        raise ValueError("a float grid is required for families without an exact route")

    def f(xx: float) -> float:
        return s_closed(params, xx).value

    margins = []
    kept = []
    for x in grid:
        xf = float(x)
        h = _default_step(xf)
        if xf - 2 * h <= 0:
            h = xf / 4.0 if xf > 0 else 0.0
        if h == 0.0:
            # left anchor S(0) = 1: one-sided forward differences
            h1 = 1e-4
            d1 = (-3.0 * f(0.0) + 4.0 * f(h1) - f(2 * h1)) / (2.0 * h1)
            d2 = (2.0 * f(0.0) - 5.0 * f(h1) + 4.0 * f(2 * h1) - f(3 * h1)) / (h1 * h1)
            margins.append(f(0.0) * d2 - d1 * d1)
            kept.append(0.0)
            continue
        y0, y1, y2 = _fd_derivs(f, xf, h)
        margins.append(y0 * y2 - y1 * y1)
        kept.append(xf)
    status["route"] = "finite_differences"
    return _report("log_convexity", _params_subject(params), kept, margins, status)
