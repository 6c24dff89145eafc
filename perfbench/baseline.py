"""The failure classes the program shows at baseline.

Only ``far_field`` fails at baseline (README.md, "Baseline failures").  A
class names the verb, the family parameter, a band of x and the check's
reason.  A run is correct only if every failed operation falls in a class
of its workload, so on ``table_near``, ``verify_exact`` and
``logconvex_scan`` any failure makes it incorrect, and on ``far_field`` so
does a failure of a new kind or outside the band where the defect was seen.
Each band starts a little below the smallest x at which the class appeared
on a grid of 16 points per decade of x for the indices 1, 2 and 5.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from workloads import Op

# c > 0: the series stops at its term cap with ArithmeticError.
SERIES_CAP_X = 4e4
# c > 0: closed form hands over to quadrature, which is wrong.
HANDOVER_X = 200.0
# c = 0: series and closed form lose precision in the peak window, from n x.
PEAK_WINDOW_NX = 1.5e4
# c = 0: quadrature at its node cap is wrong too, from n x.
SZASZ_QUAD_NX = 5e5
# bounds --family szasz: s_value goes through the c = 0 closed form.
SZASZ_BOUNDS_X = 1e4

_WRONG = re.compile(r"wrong ([a-z_,]+) at x=([^:]+):")


def classify(workload: str, op: Op, reason: str) -> Optional[str]:
    """The baseline class of a failed operation, or None for a new failure."""
    if workload != "far_field":
        return None
    m = _WRONG.match(reason)
    routes, x = (set(m[1].split(",")), float(m[2])) if m else (set(), None)
    if op.verb == "bounds":
        if op.family == "szasz" and routes == {"s_value"} and x >= SZASZ_BOUNDS_X:
            return "szasz-bounds"
        return None
    if op.verb != "eval":
        return None
    c, x = op.base_c, float(Fraction(op.arg))
    nx = float(op.n) * x
    if c > 0:
        if reason.startswith("exit 1: ArithmeticError") and x >= SERIES_CAP_X:
            return "series-cap"
        if routes and routes <= {"closed_form", "quadrature"} and x >= HANDOVER_X:
            return "quadrature-handover"
    elif c == 0 and routes:
        if routes <= {"series", "closed_form"} and nx >= PEAK_WINDOW_NX:
            return "szasz-peak-window"
        if nx >= SZASZ_QUAD_NX:
            return "szasz-quadrature-cap"
    return None
