import statistics
from fractions import Fraction

import pytest

from sqsums.core import DomainError, FamilyId, Params
from sqsums.analysis import (
    ScanReport,
    conjecture_grid,
    convexity_scan,
    logconvexity_scan,
    monotonicity_check,
    ode_residual_scan,
)
from sqsums.evalnum import s_closed
from sqsums.exactalg import RationalFn, RationalPoly, f_poly_direct


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

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_check(2, [Fraction(1, 2), Fraction(1, 4)])


class TestLogConvexityScan:
    def test_bernstein_unity_case_exact_profile(self):
        # S for n=1, c=-1 gives Q(x) = 2 - 8(x - 1/2)^2 = 8x(1-x)
        from sqsums.analysis import _q_exact

        q = _q_exact(Params(1, -1))
        assert q == RationalPoly([0, 8, -8])
        rep = logconvexity_scan(Params(1, -1), count=128)
        assert rep.min_margin == 0  # zero exactly at both endpoints
        assert rep.argmin in (Fraction(0), Fraction(1))
        assert not rep.violations

    def test_baskakov_unity_case_exact_profile(self):
        from sqsums.analysis import _q_exact

        q = _q_exact(Params(1, 1))
        assert q == RationalFn(RationalPoly([4]), (2 * X + 1) ** 4)
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


class TestConjectureGrid:
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
