import statistics
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqsums import analysis, evalnum, exactalg
from sqsums.core import DomainError, Params
from sqsums.analysis import (
    ScanReport,
    conjecture_grid,
    convexity_scan,
    logconvexity_scan,
    monotonicity_check,
    ode_residual_scan,
)
from sqsums.evalnum import s_closed
from sqsums.exactalg import RationalPoly, f_poly_direct, g_rational
from sqsums.families import FamilyId


X = RationalPoly.x()


class TestOdeResidualScan:
    def test_rational_family_small_residual(self):
        grid = [0.1 + i * 4.9 / 32 for i in range(33)]
        rep = ode_residual_scan(Params(2, 1), grid, h=1e-3)
        assert rep.min_margin < 1e-5
        assert max(rep.margins) < 1e-4

    def test_polynomial_family_near_exact(self):
        rep = ode_residual_scan(Params(1, -1), [0.3], h=1e-3)
        assert rep.margins[0] < 1e-8  # exact residual is zero

    def test_exact_route_is_the_oracle(self):
        # the exact residual is the zero polynomial, so the finite-difference
        # margin is rounding noise at every step size
        from sqsums.exactalg import eq_f, ode_residual_poly

        assert ode_residual_poly(f_poly_direct(1), eq_f(1)).is_zero
        for h in (4e-3, 2e-3, 1e-3):
            assert ode_residual_scan(Params(1, -1), [0.3], h=h).margins[0] < 1e-8

    def test_slope_anchor_at_origin(self):
        # at the singular left endpoint the equation pins y'(0) = -2n
        for n in (1, 2):
            f = lambda x: s_closed(Params(n, 0), x).value
            h = 1e-5
            slope = (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)
            assert slope == pytest.approx(-2.0 * n, abs=1e-4)

    def test_boundary_collar_enforced(self):
        with pytest.raises(DomainError):
            ode_residual_scan(Params(2, -1), [0.999], h=1e-3)
        with pytest.raises(DomainError):
            ode_residual_scan(Params(2, 1), [0.001], h=1e-3)

    @pytest.mark.parametrize(
        "n,c", [(2, Fraction(1, 2)), (1, 2), (2, 0), (2, -1), (2, 1)]
    )
    def test_second_order_convergence(self, n, c):
        # needs a nonvanishing fourth derivative, so the quadratic n=1, c=-1
        # case is excluded (its residual sits at the rounding floor)
        grid = [0.3 + 0.05 * i for i in range(8)]
        reps = [ode_residual_scan(Params(n, c), grid, h) for h in (1e-2, 5e-3, 2.5e-3)]
        for coarse, fine in zip(reps, reps[1:]):
            ratio = statistics.median(a / b for a, b in zip(coarse.margins, fine.margins))
            assert 2.0 <= ratio <= 8.0  # second order: about 4x per halving


class TestConvexityScan:
    def test_bernstein_exact_route(self):
        rep = convexity_scan(FamilyId("bernstein"), 1, [Fraction(i, 8) for i in range(9)])
        assert rep.status["route"] == "exact"
        assert set(rep.margins) == {Fraction(4)}  # constant second derivative

    def test_bernstein_exact_positive(self):
        for n in range(1, 12):
            rep = convexity_scan(FamilyId("bernstein"), n, [Fraction(i, 16) for i in range(17)])
            assert all(m > 0 for m in rep.margins)

    def test_szasz_numeric(self):
        grid = [3.0 * i / 48 for i in range(49)]
        rep = convexity_scan(FamilyId("szasz"), 1, grid)
        assert rep.min_margin >= -1e-8
        assert len(rep.grid) == len(grid) - 2  # interior points

    def test_mkz_matches_hand_derivative(self):
        # J_0 = (1-x)/(1+x) has second derivative 4/(1+x)^3
        grid = [i / 64 for i in range(63)]
        rep = convexity_scan(FamilyId("mkz"), 0, grid)
        for x, m in zip(rep.grid, rep.margins):
            assert m == pytest.approx(4.0 / (1.0 + x) ** 3, rel=5e-3)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            convexity_scan(FamilyId("szasz"), 1, [0.1, 0.2])

    def test_fractional_index_is_not_truncated(self):
        # the margins at n = 3/2 are the second divided differences of S at
        # n = 3/2, not those of the n = 1 sum
        params = Params(Fraction(3, 2), Fraction(1, 2))
        grid = [0.25 * i for i in range(9)]
        rep = convexity_scan(FamilyId("general", Fraction(1, 2)), Fraction(3, 2), grid)
        s = [s_closed(params, x).value for x in grid]
        expected = [
            2.0 * ((s[i + 1] - s[i]) / 0.25 - (s[i] - s[i - 1]) / 0.25) / 0.5
            for i in range(1, len(grid) - 1)
        ]
        assert list(rep.margins) == expected
        assert rep.subject == {"family": "general", "n": "3/2"}
        truncated = convexity_scan(FamilyId("general", Fraction(1, 2)), 1, grid)
        assert rep.margins != truncated.margins

    def test_natural_index_keeps_an_int_subject(self):
        rep = convexity_scan(FamilyId("baskakov"), Fraction(3), [0.0, 0.5, 1.0])
        assert rep.subject == {"family": "baskakov", "n": 3}

    @pytest.mark.parametrize(
        "family, n, hi",
        [
            (FamilyId("szasz"), 3, 20.0),
            (FamilyId("baskakov"), 7, 20.0),
            (FamilyId("bbh"), 5, 20.0),
            (FamilyId("mkz"), 4, 0.99),
            (FamilyId("general", Fraction(1, 2)), Fraction(3, 2), 20.0),
            (FamilyId("general", Fraction(2)), 5, 400.0),
        ],
    )
    def test_divided_differences_match_the_per_point_sums(self, family, n, hi):
        # one grid call of the sums gives the margins of one call per point,
        # bit for bit
        from sqsums.bounds import s_values

        grid = [hi * i / 100 for i in range(101)]
        rep = convexity_scan(family, n, grid)
        vals = [float(v) for x in grid for v in s_values(family, n, [x])]
        expected = [
            2.0 * ((vals[i + 1] - vals[i]) / (grid[i + 1] - grid[i]) - (vals[i] - vals[i - 1]) / (grid[i] - grid[i - 1]))
            / (grid[i + 1] - grid[i - 1])
            for i in range(1, len(grid) - 1)
        ]
        assert list(rep.margins) == expected

    def test_the_first_failing_point_in_grid_order_raises(self):
        from sqsums.bounds import s_values

        grid = [0.25, 0.5, 1.5, -1.0, 0.75]
        first = next(v for x in grid for v in s_values(FamilyId("mkz"), 2, [x]) if isinstance(v, Exception))
        assert isinstance(first, DomainError)
        with pytest.raises(DomainError) as got:
            convexity_scan(FamilyId("mkz"), 2, grid)
        assert "1.5" in str(got.value) and str(got.value) == str(first)


class TestMonotonicityCheck:
    def test_decrease_then_increase(self):
        rep = monotonicity_check(1, [Fraction(i, 16) for i in range(17)])
        assert rep.min_margin >= 0
        assert not rep.violations

    def test_exact_minimum_at_midpoint(self):
        from sqsums.exactalg import f_value

        assert f_value(2, Fraction(1, 2)) == Fraction(3, 8)
        rep = monotonicity_check(2, [Fraction(i, 32) for i in range(33)])
        assert rep.min_margin >= 0

    def test_margins_mirror_exactly(self):
        rep = monotonicity_check(3, [Fraction(i, 16) for i in range(17)])
        assert rep.margins == tuple(reversed(rep.margins))

    def test_float_grid_is_its_exact_rationals(self):
        # a float point is its exact binary rational, so the margins are
        # the Fraction grid's, exact
        grid = [i / 16 for i in range(17)]
        rep = monotonicity_check(3, grid)
        assert rep == monotonicity_check(3, [Fraction(x) for x in grid])
        assert all(isinstance(m, Fraction) for m in rep.margins)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_check(2, [Fraction(1, 2), Fraction(1, 4)])

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize("count", [2, 3, 100, 129])
    def test_exact_margins_match_pointwise_values(self, n, count):
        # the batch over t = (x - 1/2)^2 against one F_n(x) pass per point
        grid = [Fraction(i, count - 1) for i in range(count)]
        f = exactalg.f_poly_parseval(n)
        vals = [_reference_value(f, x - Fraction(1, 2)) for x in grid]
        mid = f.coeff(0)
        expected = []
        for i, x in enumerate(grid):
            cand = []
            if i + 1 < count and grid[i + 1] <= Fraction(1, 2):
                cand.append(vals[i] - vals[i + 1])
            if i >= 1 and grid[i - 1] >= Fraction(1, 2):
                cand.append(vals[i] - vals[i - 1])
            expected.append(min(cand) if cand else vals[i] - mid)
        assert monotonicity_check(n, grid).margins == tuple(expected)

    def test_default_grid_evaluates_in_one_batch(self, monkeypatch):
        real, sizes = RationalPoly._at, []

        def counting(self, points):
            sizes.append(len(points))
            return real(self, points)

        monkeypatch.setattr(RationalPoly, "_at", counting)
        monotonicity_check(5, [Fraction(i, 128) for i in range(129)])
        # x and 1 - x share t = (x - 1/2)^2, and the midpoint is i = 64
        assert sizes == [65]


class TestLogConvexityScan:
    def test_bernstein_unity_case_exact_profile(self):
        # S for n=1, c=-1 gives Q(x) = 2 - 8(x - 1/2)^2 = 8x(1-x)
        q = _q_exact(Params(1, -1))
        assert _same(q, (RationalPoly([0, 8, -8]), RationalPoly.one()))
        rep = logconvexity_scan(Params(1, -1), count=128)
        assert rep.min_margin == 0  # zero exactly at both endpoints
        assert rep.argmin in (Fraction(0), Fraction(1))
        assert not rep.violations

    def test_baskakov_unity_case_exact_profile(self):
        q = _q_exact(Params(1, 1))
        assert _same(q, (RationalPoly([4]), (2 * X + 1) ** 4))
        rep = logconvexity_scan(Params(1, 1), count=128)
        assert all(m > 0 for m in rep.margins)

    def test_report_never_asserts(self):
        rep = logconvexity_scan(Params(4, -1), count=64)
        assert rep.status["status"] == "unproven"
        assert rep.status["asserted"] is False
        assert rep.status["route"] == "exact"

    def test_exact_margins_nonnegative_small_sweep(self):
        for c in (Fraction(-1), Fraction(1)):
            for n in (1, 2, 5):
                rep = logconvexity_scan(Params(n, c), count=96)
                assert min(rep.margins) >= 0

    def test_float_route_with_endpoint(self):
        rep = logconvexity_scan(Params(2, 0), grid=[0.0, 0.5, 1.0, 2.0])
        assert rep.status["route"] == "finite_differences"
        assert len(rep.grid) == 4
        assert min(rep.margins) > 0

    def test_float_route_requires_grid(self):
        with pytest.raises(ValueError):
            logconvexity_scan(Params(2, 0))

    def test_right_end_mirrors_the_left(self):
        # at c < 0, S(x) = F_l(-cx) is symmetric about sup/2, so the margin
        # at sup (one-sided window, step -1e-4) and within 2h of it (h =
        # (sup - x)/4) mirror those at 0 and near 0; a stencil point past
        # sup used to raise a DomainError
        params = Params(3, Fraction(-1, 2))
        grid = [0.0, 1e-4, 1.0, 2.0 - 1e-4, 2.0]
        rep = logconvexity_scan(params, grid=grid)
        assert rep.grid == tuple(grid)
        for left, right in ((0, 4), (1, 3)):
            assert rep.margins[right] == pytest.approx(rep.margins[left], rel=1e-6)
        f = lambda x: s_closed(params, x).value
        h = -1e-4
        d1 = (-3.0 * f(2.0) + 4.0 * f(2.0 + h) - f(2.0 + 2 * h)) / (2.0 * h)
        d2 = (2.0 * f(2.0) - 5.0 * f(2.0 + h) + 4.0 * f(2.0 + 2 * h) - f(2.0 + 3 * h)) / (h * h)
        assert rep.margins[4] == f(2.0) * d2 - d1 * d1

    def test_point_outside_the_domain_raises(self):
        # a negative point was scanned at 0 and reported as 0.0
        with pytest.raises(DomainError, match="x=-0.5 outside"):
            logconvexity_scan(Params(2, 0), grid=[1.0, -0.5])
        with pytest.raises(DomainError, match="x=2.5 outside"):
            logconvexity_scan(Params(3, Fraction(-1, 2)), grid=[1.0, 2.5])


class TestFiniteDifferenceStencils:
    """Both finite-difference scans take S from one closed-form grid call."""

    SCANS = [  # each scan and its abscissas: five per point, four at an end
        pytest.param(lambda: ode_residual_scan(Params(2, Fraction(1, 3)), [0.5, 1.0, 7.0], 1e-3), 15, id="ode"),
        pytest.param(lambda: logconvexity_scan(Params(3, Fraction(-1, 2)), grid=[0.0, 0.5, 2.0]), 13,
                     id="logconvexity"),
    ]

    @pytest.mark.parametrize("scan, abscissas", SCANS)
    def test_one_grid_call(self, scan, abscissas, monkeypatch):
        calls = []
        real = evalnum.s_closed_grid

        def counting(params, xs, *rest):
            calls.append(len(xs))
            return real(params, xs, *rest)

        monkeypatch.setattr(analysis, "s_closed_grid", counting)
        for name in ("s_closed", "s_series", "s_quad"):
            monkeypatch.setattr(evalnum, name, mock.Mock(side_effect=AssertionError(name)))
        scan()
        assert calls == [abscissas]

    def test_first_error_in_point_order(self):
        # at x = 1e-300 the step's square underflows, which S'' would divide
        # by, before the next point's closed form overflows, and the other
        # way round
        with pytest.raises(DomainError, match="h=2.5e-301 squares to 0"):
            logconvexity_scan(Params(2, 0), grid=[1e-300, 1e308])
        with pytest.raises(OverflowError, match="2nx"):
            logconvexity_scan(Params(2, 0), grid=[1e308, 1e-300])
        with pytest.raises(OverflowError, match="2nx"):
            ode_residual_scan(Params(2, 0), [1.0, 1e308], 1e-3)


def _q_exact(params: Params) -> tuple[RationalPoly, RationalPoly]:
    """Q = S*S'' - (S')^2 as an exact pair (N, D), Q = N/D: R(y^2) with the
    paper's variable y = (ax+b)/(cx+d), N = sum r_k (ax+b)^(2k)
    (cx+d)^(2(K-k)) and D = (cx+d)^(2K), K the degree of R."""
    r, (a, b, c, d) = analysis._q_even(params)
    top, bot = RationalPoly((b, a)) ** 2, RationalPoly((d, c)) ** 2
    num = sum((top ** k * bot ** (r.degree - k) * coeff for k, coeff in enumerate(r.coeffs)), RationalPoly.zero())
    return num, bot ** r.degree


def _q_oracle(params: Params) -> tuple[RationalPoly, RationalPoly]:
    """Q in x from S = N/D: Q = P / D^4 with the cleared identity
    P = Q*D^4 = D^2 (N N'' - N'^2) - N^2 (D D'' - D'^2)."""
    if params.c < 0:
        num, den = f_poly_direct(params.l), RationalPoly.one()
    else:
        witness = g_rational(int(params.n))
        num, den = witness.num, witness.den
    n1, d1 = num.derivative(), den.derivative()
    q = den * den * (num * n1.derivative() - n1 * n1) - num * num * (
        den * d1.derivative() - d1 * d1
    )
    return q, den ** 4


def _same(p: tuple[RationalPoly, RationalPoly], q: tuple[RationalPoly, RationalPoly]) -> bool:
    """N1/D1 = N2/D2, by cross-multiplication."""
    return p[0] * q[1] == q[0] * p[1]


def _matches_oracle(params: Params, grid=None) -> bool:
    rep = logconvexity_scan(params, grid=grid)
    num, den = _q_oracle(params)
    return rep.margins == tuple(num(x) / den(x) for x in map(Fraction, rep.grid))


_EXACT = [Params(n, c) for c in (-1, 1) for n in (1, 2, 7, 16)]


class TestEvenQ:
    """Q = R(y^2) in the paper's variables against the x-variable identity."""

    @pytest.mark.parametrize("c", [-1, 1])
    def test_q_exact_is_the_x_identity(self, c):
        for n in range(1, 31):
            assert _same(_q_exact(Params(n, c)), _q_oracle(Params(n, c)))

    @pytest.mark.parametrize("params", _EXACT, ids=lambda p: f"c={p.c} n={p.n}")
    def test_margins_on_the_default_grid(self, params):
        assert _matches_oracle(params)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(_EXACT),
        st.one_of(
            st.fractions(0, 1, max_denominator=10 ** 6),
            st.fractions(0, 10 ** 4, max_denominator=997),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1e6),
        ),
    )
    def test_margins_at_drawn_points(self, params, x):
        # floats are dyadic rationals, as on the --grid path
        if params.c < 0:
            x = min(x, 1)
        assert _matches_oracle(params, grid=[x])

    @pytest.mark.parametrize("params", _EXACT[1::2], ids=lambda p: f"c={p.c} n={p.n}")
    def test_perturbed_coefficient_is_caught(self, params, monkeypatch):
        # R + t^k / 10^30 at the middle index k
        r, mobius = analysis._q_even(params)
        bad = r + RationalPoly([0] * (r.degree // 2) + [Fraction(1, 10 ** 30)], "t")
        monkeypatch.setattr(analysis, "_q_even", lambda _: (bad, mobius))
        assert not _matches_oracle(params)

    def test_odd_coefficient_raises(self, monkeypatch):
        # S = 1 + s + s^2 gives Q = 1 - 2s - 2s^2
        monkeypatch.setattr(exactalg, "f_poly_parseval", lambda n: RationalPoly([1, 1, 1], "s"))
        with pytest.raises(ArithmeticError, match="odd power"):
            logconvexity_scan(Params(2, -1))


def _reference_grid(params: Params, count: int) -> list[Fraction]:
    """conjecture_grid as it was built on Fractions, before the integer pairs."""
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
    return sorted(pts, key=lambda v: (float(v), v))[:count]


def _reference_value(poly: RationalPoly, v: Fraction) -> Fraction:
    """poly(v) by one homogeneous integer Horner pass, as RationalPoly
    evaluated a single point before the batch method."""
    p, q = v.numerator, v.denominator
    acc, qk = 0, 1
    for c in reversed(poly._ints):
        acc = acc * p + c * qk
        qk *= q
    return Fraction(acc * q, poly._den * qk)


def _reference_report(grid, margins) -> tuple:
    """(min_margin, argmin, violations) by rich compares, first minimum kept."""
    pairs = list(zip(grid, margins))
    min_x, min_m = min(pairs, key=lambda p: p[1], default=(0, 0))
    return min_m, min_x, tuple((x, m) for x, m in pairs if m < 0)


def _reference_scan(params: Params, r: RationalPoly, mobius, grid=None, count=1024) -> tuple:
    """The exact log-convexity scan as the Fraction loop it was: one reduced
    t and one evaluation per point, then the rich-compare report."""
    a, b, c, d = mobius
    xs = [Fraction(x) for x in grid] if grid is not None else _reference_grid(params, count)
    margins = []
    for x in xs:
        assert params.in_domain(x)
        p, q = x.numerator, x.denominator
        margins.append(_reference_value(r, Fraction((a * p + b * q) ** 2, (c * p + d * q) ** 2)))
    return (tuple(xs), tuple(margins), *_reference_report(xs, margins))


def _fields(rep: ScanReport) -> tuple:
    return rep.grid, rep.margins, rep.min_margin, rep.argmin, rep.violations


def _user_grid(c: int):
    """Rational and float points of the domain, some sharing a denominator."""
    top = 1 if c < 0 else 10 ** 4
    shared = st.integers(1, 10 ** 4).flatmap(
        lambda q: st.lists(st.integers(0, top * q), max_size=12).map(lambda ks: [Fraction(k, q) for k in ks])
    )
    loose = st.lists(
        st.one_of(
            st.fractions(0, top, max_denominator=10 ** 6),
            st.floats(0.0, float(top) if c < 0 else 1e6),
        ),
        max_size=12,
    )
    return st.tuples(shared, loose).map(lambda parts: parts[0] + parts[1]).filter(bool)


class TestIntegerScan:
    """The integer grid and the grouped pre-scaled Horner against the Fraction loop."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([-1, 1]), st.integers(1, 40), st.integers(4, 2049))
    @example(-1, 40, 2049)
    @example(1, 40, 2049)
    @example(-1, 1, 4)
    @example(1, 1, 4)
    def test_default_grid_matches_the_fraction_loop(self, c, n, count):
        params = Params(n, c)
        assert conjecture_grid(params, count) == _reference_grid(params, count)
        r, mobius = analysis._q_even(params)
        rep = logconvexity_scan(params, count=count)
        assert _fields(rep) == _reference_scan(params, r, mobius, count=count)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([-1, 1]).flatmap(lambda c: st.tuples(st.just(c), st.integers(1, 40), _user_grid(c))))
    def test_user_grid_matches_the_fraction_loop(self, case):
        c, n, grid = case
        params = Params(n, c)
        r, mobius = analysis._q_even(params)
        rep = logconvexity_scan(params, grid=grid)
        assert _fields(rep) == _reference_scan(params, r, mobius, grid=grid)

    @pytest.mark.parametrize("c", [-1, 1])
    @pytest.mark.parametrize("n", [1, 7, 19])
    def test_violations_of_a_shifted_r(self, c, n):
        # R minus its median margin on the grid is negative at about half the
        # points, so the violations and the minimum come from real negatives
        params = Params(n, c)
        r, mobius = analysis._q_even(params)
        mid = sorted(_reference_scan(params, r, mobius, count=64)[1])[32]
        shifted = r - mid
        with mock.patch.object(analysis, "_q_even", lambda _: (shifted, mobius)):
            rep = logconvexity_scan(params, count=64)
        expected = _reference_scan(params, shifted, mobius, count=64)
        assert len(expected[4]) >= 16
        assert _fields(rep) == expected

    @pytest.mark.parametrize("c", [-1, 1])
    @pytest.mark.parametrize("k", [0, None])
    def test_perturbed_coefficient_fails_the_comparison(self, c, k, monkeypatch):
        # R + t^k / 10^30 at the constant and at the middle coefficient
        params = Params(19, c)
        r, mobius = analysis._q_even(params)
        k = r.degree // 2 if k is None else k
        bad = r + RationalPoly([0] * k + [Fraction(1, 10 ** 30)], "t")
        monkeypatch.setattr(analysis, "_q_even", lambda _: (bad, mobius))
        assert _fields(logconvexity_scan(params)) != _reference_scan(params, r, mobius)

    @pytest.mark.parametrize("c", [-1, 1])
    def test_one_unscaled_group_fails_the_comparison(self, c, monkeypatch):
        # the largest group of points sharing a t-denominator runs Horner on
        # R's coefficients without the c_k D^(deg-k) scaling
        real = RationalPoly._at

        def skip_one_scaling(self, points):
            out = real(self, points)
            (q, size), = Counter(d for _, d in points).most_common(1)
            assert size > 1
            for i, (p, d) in enumerate(points):
                if d == q:
                    acc = 0
                    for coef in reversed(self._ints):
                        acc = acc * p + coef
                    out[i] = (acc, out[i][1])
            return out

        params = Params(12, c)
        r, mobius = analysis._q_even(params)
        monkeypatch.setattr(RationalPoly, "_at", skip_one_scaling)
        assert _fields(logconvexity_scan(params)) != _reference_scan(params, r, mobius)

    @pytest.mark.parametrize("c, distinct", [(-1, 513), (1, 1024)])
    def test_default_scan_evaluates_in_one_batch(self, c, distinct, monkeypatch):
        # no one-point evaluation runs: one batch call over the distinct t of
        # the grid (Bernstein's x and 1 - x share one t)
        real, sizes = RationalPoly._at, []

        def counting(self, points):
            sizes.append(len(points))
            return real(self, points)

        monkeypatch.setattr(RationalPoly, "_at", counting)
        logconvexity_scan(Params(7, c))
        assert sizes == [distinct]

    @pytest.mark.parametrize("c", [-1, 1])
    @pytest.mark.parametrize("count", [4, 5, 77, 1024, 2049])
    def test_generated_points_are_in_the_domain(self, c, count):
        # the scan checks the domain of --grid points only
        params = Params(3, c)
        assert all(params.in_domain(x) for x in conjecture_grid(params, count))

    def test_bernstein_grid_has_fourteen_t_denominators(self):
        params = Params(19, -1)
        pairs = analysis._t_pairs(analysis._q_even(params)[1], conjecture_grid(params))
        assert len({d for _, d in pairs}) == 14


class TestReport:
    """_report on exact margins against the rich-compare reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.fractions(-3, 3, max_denominator=50),
                st.sampled_from([Fraction(0), Fraction(-1, 3), Fraction(10 ** 400), -Fraction(10 ** 400, 7)]),
                st.integers(-10 ** 320, 10 ** 320).map(lambda k: Fraction(k, 3)),
            ),
            max_size=30,
        )
    )
    def test_exact_margins(self, margins):
        grid = [Fraction(i) for i in range(len(margins))]
        rep = analysis._report("k", {}, grid, margins)
        assert (rep.min_margin, rep.argmin, rep.violations) == _reference_report(grid, margins)
        if margins:
            first = min(range(len(margins)), key=margins.__getitem__)
            assert rep.argmin == grid[first]

    @given(st.lists(st.floats(-1e300, 1e300), max_size=30))
    def test_float_margins(self, margins):
        grid = [float(i) for i in range(len(margins))]
        rep = analysis._report("k", {}, grid, margins)
        assert (rep.min_margin, rep.argmin, rep.violations) == _reference_report(grid, margins)


class TestConjectureGrid:
    @pytest.mark.parametrize("c, counts, least", [(-1, (-5, 0, 1, 2, 3), 4), (1, (-5, 0), 1)])
    def test_count_below_the_minimum(self, c, counts, least):
        # compact counts 2 and 3 raised ZeroDivisionError and 0 gave no points
        params = Params(3, c)
        assert analysis.conjecture_grid_minimum(params) == least
        for count in counts:
            with pytest.raises(ValueError, match=f"count >= {least}, got {count}"):
                conjecture_grid(params, count)
        assert len(conjecture_grid(params, least)) == least

    def test_count_and_rationality(self):
        grid = conjecture_grid(Params(3, -1), count=1024)
        assert len(grid) == 1024
        assert all(isinstance(x, Fraction) for x in grid)
        assert grid[0] == 0 and grid[-1] == 1
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_unbounded_domain(self):
        grid = conjecture_grid(Params(2, 1), count=512)
        assert len(grid) == 512
        assert grid[0] == 0
        assert grid[-1] > 100


class TestScanReport:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            ScanReport("k", {}, (1.0,), (0.1, 0.2), 0.1, 1.0, ())

    def test_json_serialization(self):
        rep = logconvexity_scan(Params(1, -1), count=64)
        doc = rep.to_json()
        assert doc["kind"] == "log_convexity"
        assert len(doc["grid"]) == len(doc["margins"])
        assert all("/" in m for m in doc["margins"])  # rationals as p/q
        rep = ode_residual_scan(Params(2, 1), [0.5, 1.0], h=1e-3)
        doc = rep.to_json()
        assert doc["status"]["h"] == 1e-3
