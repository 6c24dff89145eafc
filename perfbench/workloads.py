"""Seeded operation lists for the four benchmark workloads.

A workload is a fixed list of strata: a CLI verb, a family and a band of
parameter values.  The seed picks one value inside each band, which gives
one *round* of operations; a run repeats that round.  Changing the seed
therefore changes the inputs and nothing else: the verbs, families, bands
and the order they run in are the same for every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("table_near", "far_field", "verify_exact", "logconvex_scan")

# Baseline seconds of one round on a 2-vCPU x86-64 virtual machine (Python
# 3.11).  A run of `--seconds s` repeats the round round(s / ROUND_SECONDS)
# times, so it lasts about s at baseline and both sides of a comparison run
# the same operations.
ROUND_SECONDS = {
    "table_near": 2.0,
    "far_field": 23.0,
    "verify_exact": 10.4,
    "logconvex_scan": 10.0,
}

# Criterion-1 battery: five family parameters with five indices each.
BATTERY = (
    (Fraction(-1), (1, 2, 5, 10, 25)),
    (Fraction(-1, 2), tuple(Fraction(l, 2) for l in (1, 2, 5, 10, 25))),
    (Fraction(0), (1, 2, 5, 10, 25)),
    (Fraction(1), (1, 2, 5, 10, 25)),
    (Fraction(2), (1, 2, 5, 10, 25)),
)
TABLE_POINTS = 101
NEAR_CAP = 20

FAR_C = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
FAR_STRATA = 10  # equal-width bands of log10 x over [log10 20, 8]
FAR_LOG10 = (math.log10(20.0), 8.0)
# Indices cycle over the strata.  Indices of 10 and more reach the
# peak-window path of the c > 0 series at large x, where one evaluation
# takes from 12 s to hours at baseline (see README.md, "Not timed").
FAR_N = (1, 2, 5)
BOUND_FAMILIES = ("bernstein", "bbh", "baskakov", "mkz", "szasz")
# Six index bands, so that the bounds operations, which op_p50_ms on this
# workload should follow, hold its median: with three, the median sat on
# the edge between the cheap and the moderate evals and moved with the seed.
BOUND_N_BANDS = ((1, 5), (6, 10), (11, 15), (16, 20), (21, 25), (26, 30))

VERIFY_FAMILIES = ("bernstein", "baskakov", "bbh", "mkz")
# The three heaviest strata are single values: from n-max 9 one step of n
# moves an operation's latency by 15-45%, and a seeded choice there moved
# op_tail_ms between seeds by nearly its bound.
VERIFY_BANDS = ((3, 4), (5, 6), (7, 8), (9, 9), (11, 11), (13, 13))

SCAN_C = (Fraction(-1), Fraction(1))
SCAN_BANDS = ((3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14), (15, 16), (17, 18), (19, 20))
SCAN_COUNT = 1024

_NAMED = {Fraction(-1): "bernstein", Fraction(0): "szasz", Fraction(1): "baskakov"}


def _rat(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the parameters its oracle needs.

    ``c`` is the parameter of the general family (None for named families);
    ``arg`` is the verb's own argument: the grid spec of ``table``, the
    point of ``eval`` and the ``--n-max`` of ``verify``.
    """

    verb: str
    family: str
    n: Optional[Fraction] = None
    c: Optional[Fraction] = None
    arg: Optional[str] = None

    @property
    def argv(self) -> tuple[str, ...]:
        out = [self.verb, "--family", self.family]
        if self.c is not None:
            out += ["-c", _rat(self.c)]
        if self.n is not None:
            out += ["-n", _rat(self.n)]
        if self.verb == "table":
            out += ["--grid", self.arg, "--format", "csv"]
        elif self.verb == "eval":
            out += ["-x", self.arg, "--format", "json"]
        elif self.verb == "verify":
            out += ["--n-max", self.arg, "--format", "json"]
        elif self.verb == "bounds":
            out += ["--format", "json"]
        elif self.verb == "scan":
            out += ["--kind", "logconvexity", "--format", "json"]
        return tuple(out)

    @property
    def base_c(self) -> Fraction:
        """Parameter c of the (n, c) family a named or general family evaluates."""
        if self.c is not None:
            return self.c
        return next(c for c, name in _NAMED.items() if name == self.family)


def _family_op(verb: str, c: Fraction, n, arg: Optional[str] = None) -> Op:
    name = _NAMED.get(c)
    return Op(verb, name or "general", Fraction(n), None if name else c, arg)


def _table_round(rng: random.Random) -> list[Op]:
    ops = []
    for c, ns in BATTERY:
        hi = min(-1 / c, Fraction(NEAR_CAP)) if c < 0 else Fraction(NEAR_CAP)
        for n in ns:
            a = hi * rng.randint(0, 100) / 2000
            b = hi * (2000 - rng.randint(0, 100)) / 2000
            ops.append(_family_op("table", c, n, f"{_rat(a)}:{_rat(b)}:{TABLE_POINTS}"))
    return ops


def _far_round(rng: random.Random) -> list[Op]:
    ops = []
    lo0, hi0 = FAR_LOG10
    width = (hi0 - lo0) / FAR_STRATA
    for d in range(FAR_STRATA):
        lo, hi = lo0 + d * width, lo0 + (d + 1) * width
        for i, c in enumerate(FAR_C):
            x = float(f"{10.0 ** rng.uniform(lo, hi):.6g}")
            x = min(max(x, 20.0), 1e8)
            ops.append(_family_op("eval", c, FAR_N[(d + i) % len(FAR_N)], repr(x)))
    for band in BOUND_N_BANDS:
        for family in BOUND_FAMILIES:
            ops.append(Op("bounds", family, Fraction(rng.randint(*band))))
    return ops


def _verify_round(rng: random.Random) -> list[Op]:
    return [
        Op("verify", family, arg=str(rng.randint(*band)))
        for band in VERIFY_BANDS
        for family in VERIFY_FAMILIES
    ]


def _scan_round(rng: random.Random) -> list[Op]:
    return [_family_op("scan", c, rng.randint(*band)) for band in SCAN_BANDS for c in SCAN_C]


_ROUNDS = {
    "table_near": _table_round,
    "far_field": _far_round,
    "verify_exact": _verify_round,
    "logconvex_scan": _scan_round,
}


def strata_round(workload: str, seed: int) -> list[Op]:
    """The seeded round in stratum order; the same seed gives the same round."""
    return _ROUNDS[workload](random.Random(f"{workload}/{seed}"))


def make_round(workload: str, seed: int) -> list[Op]:
    """The seeded round in run order.

    The order is a fixed shuffle of the strata, the same for every seed, so
    light and heavy operations alternate and every statistic samples the
    whole run instead of one stretch of it: this host's speed changes over
    seconds.
    """
    ops = strata_round(workload, seed)
    random.Random(workload).shuffle(ops)
    return ops


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))
