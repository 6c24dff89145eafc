import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsums.core import DomainError
from sqsums.exactalg import RationalPoly, f_poly_direct
from sqsums.legendre import (
    LegendreMap,
    _relation_residuals,
    cosine_rep,
    derivative_relations_check,
    legendre_from_binom,
    legendre_p,
    legendre_poly,
    neuschel_check,
    neuschel_check_exact,
)


class TestRecurrence:
    def test_seeds(self):
        assert legendre_p(0, 3.7) == 1.0
        assert legendre_p(1, 3.7) == 3.7
        assert legendre_p(0, Fraction(2)) == 1

    def test_unit_argument(self):
        for n in range(0, 25):
            assert legendre_p(n, 1.0) == pytest.approx(1.0, rel=1e-14)
            assert legendre_p(n, Fraction(1)) == 1

    def test_one_step(self):
        t = Fraction(5, 4)
        assert legendre_p(2, t) == (3 * t * t - 1) / 2

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for n in (2, 5, 11):
            for t in (1.0, 1.3, 2.8, 9.0):
                assert legendre_p(n, t) == pytest.approx(float(special.eval_legendre(n, t)), rel=1e-12)

    def test_coefficient_form_matches_values(self):
        for n in range(0, 12):
            p = legendre_poly(n)
            t = Fraction(7, 5)
            assert p(t) == legendre_p(n, t)

    def test_integer_recurrence_matches_the_fraction_loop(self):
        for t in (Fraction(1, 8), Fraction(2, 5), Fraction(-7, 3), Fraction(0), Fraction(-1), Fraction(41, 9)):
            for n in range(61):
                assert legendre_p(n, t) == _fraction_loop(n, t)

    def test_coefficient_form_matches_the_loop_on_the_polynomial_t(self):
        for n in range(31):
            assert legendre_poly(n) == _fraction_loop(n, RationalPoly.x("t"))


def _fraction_loop(n, t):
    """The three-term recurrence in t's own arithmetic, one division a step."""
    one = t * 0 + 1
    if n == 0:
        return one
    p_prev, p_cur = one, t
    for k in range(1, n):
        p_prev, p_cur = p_cur, ((2 * k + 1) * t * p_cur - k * p_prev) / (k + 1)
    return p_cur


class TestBinomialForm:
    def test_documented_points(self):
        assert legendre_from_binom(2, Fraction(1)) == 1
        assert legendre_from_binom(2, Fraction(5, 4)) == Fraction(59, 32)
        assert legendre_from_binom(3, Fraction(0)) == 0

    @given(
        st.integers(min_value=0, max_value=14),
        st.fractions(min_value=1, max_value=6, max_denominator=32),
    )
    @settings(max_examples=80)
    def test_exactly_equals_recurrence(self, n, t):
        assert legendre_from_binom(n, t) == legendre_p(n, t)


class TestMap:
    def test_forward_values(self):
        m = LegendreMap.from_x(0.25)
        assert m.t == pytest.approx(1.25, rel=1e-15)
        assert m.falling == pytest.approx(0.5, rel=1e-15)
        assert m.dxdt == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_origin(self):
        m = LegendreMap.from_x(0.0)
        assert m.t == 1.0
        assert m.dxdt == math.inf

    def test_round_trip(self):
        for i in range(0, 46):
            x = 0.45 * i / 45
            m = LegendreMap.from_t(LegendreMap.from_x(x).t)
            assert abs(m.x - x) <= 1e-13

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            LegendreMap.from_x(0.5)
        with pytest.raises(DomainError):
            LegendreMap.from_t(0.9)

    def test_consistency_of_the_four_quantities(self):
        for x in (0.05, 0.21, 0.4):
            m = LegendreMap.from_x(x)
            assert m.falling * (m.t + math.sqrt(m.t ** 2 - 1)) == pytest.approx(1.0, rel=1e-12)
            assert m.dxdt == pytest.approx((1 - 2 * x) ** 2 / (4 * x * (1 - x)), rel=1e-13)


class TestBridge:
    def test_hand_computed_points(self):
        # x=1/4: t=5/4, falling factor 1/2, P_1 = 5/4, so 0.625 on both sides
        assert neuschel_check(1, 0.25) == pytest.approx(0.0, abs=1e-15)
        # x=1/4, n=2: 1/4 * P_2(5/4) = 0.4609375
        assert neuschel_check(2, 0.25) == pytest.approx(0.0, abs=1e-15)
        assert 0.25 * legendre_p(2, 1.25) == pytest.approx(0.4609375, rel=1e-15)

    def test_vanishes_at_origin(self):
        for n in (1, 4, 9):
            assert neuschel_check(n, 0.0) == 0.0

    def test_residual_small_on_grid(self):
        from sqsums.exactalg import f_value

        for n in (1, 5, 18, 30):
            for i in range(64):
                x = 0.45 * i / 63
                assert abs(neuschel_check(n, x)) <= 1e-12 * max(f_value(n, x), 1e-3)

    def test_exact_at_rational_points(self):
        for n in (1, 2, 7, 19):
            for x in (Fraction(1, 8), Fraction(1, 3), Fraction(2, 5)):
                assert neuschel_check_exact(n, x) == 0

    def test_map_singularity_guarded(self):
        with pytest.raises(DomainError):
            neuschel_check(3, 0.5 - 1e-9)

    def test_mirror_form_scales_by_falling_power(self):
        # the normalized residual P - (1-2x)^(-n) F is the same check rescaled
        n, x = 3, 0.2
        r = neuschel_check(n, x)
        one_m2x = 1 - 2 * x
        t = (2 * x * x - 2 * x + 1) / one_m2x
        mirror = legendre_p(n, t) - one_m2x ** -n * f_poly_direct(n)(x)
        assert mirror == pytest.approx(-r * one_m2x ** -n, abs=1e-13)


class TestDerivativeRelations:
    def test_hand_check_at_two(self):
        # P_2' = 3t: P_2'(2) - 2 P_1'(2) = 6 - 2 = 4 = 2 P_1(2)
        # P_2'(2) - P_0'(2) = 6 = 3 P_1(2)
        r1, r2 = _relation_residuals(legendre_poly(0), legendre_poly(1), legendre_poly(2), 1, Fraction(2))
        assert r1 == 0 and r2 == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_hold_exactly(self, n):
        assert derivative_relations_check(n, Fraction(2))
        assert derivative_relations_check(n, Fraction(17, 16))

    def test_injected_fault_detected(self):
        # a shifted middle polynomial breaks the n = 2 relations (the n = 1
        # relations see the top polynomial only through its derivative)
        bad = legendre_poly(2) + RationalPoly([1], "t")
        r1, r2 = _relation_residuals(legendre_poly(1), bad, legendre_poly(3), 2, Fraction(2))
        assert r1 != 0 or r2 != 0
        bad_top = legendre_poly(2) + RationalPoly([0, 1], "t")
        r1, r2 = _relation_residuals(legendre_poly(0), legendre_poly(1), bad_top, 1, Fraction(2))
        assert r1 != 0 or r2 != 0

    def test_argument_validated(self):
        with pytest.raises(ValueError):
            derivative_relations_check(2, Fraction(1))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_bridge_identity_detects_a_perturbed_coefficient(self, n, monkeypatch):
        from sqsums import exactalg, legendre

        bridge = legendre._bridge_derivative_identity.__wrapped__  # uncached
        assert bridge(n)
        eps = Fraction(1, 10 ** 30)
        monkeypatch.setattr(legendre, "f_poly_direct", lambda k: exactalg.f_poly_direct(k) + RationalPoly([0, eps]))
        assert not bridge(n)
        monkeypatch.undo()
        monkeypatch.setattr(legendre, "legendre_poly", lambda k: legendre_poly(k) + RationalPoly([0, eps], "t"))
        assert not bridge(n)


class TestCosineForm:
    def test_single_cosine(self):
        for theta in (0.3, 0.7, 1.2):
            assert cosine_rep(1, theta) == pytest.approx(math.cos(theta), rel=1e-14)

    def test_documented_point(self):
        assert cosine_rep(2, math.pi / 3) == pytest.approx(-0.125, abs=1e-14)

    def test_matches_recurrence(self):
        for n in (2, 5, 12, 30):
            for theta in (0.2, 0.9, 1.4):
                assert cosine_rep(n, theta) == pytest.approx(legendre_p(n, math.cos(theta)), abs=5e-14)

    def test_continuity_anchor_toward_zero(self):
        for n in (3, 8):
            assert cosine_rep(n, 1e-7) == pytest.approx(1.0, abs=1e-9)

    def test_open_interval_enforced(self):
        with pytest.raises(DomainError):
            cosine_rep(2, 0.0)
        with pytest.raises(DomainError):
            cosine_rep(2, math.pi / 2)


class TestMonotoneRestatement:
    def test_decreasing_then_increasing(self):
        from sqsums.exactalg import f_value

        for n in (1, 2, 6):
            xs = [i / 128 for i in range(65)]
            vals = [f_value(n, x) for x in xs]
            assert all(vals[i + 1] <= vals[i] + 1e-14 for i in range(len(vals) - 1))
            xs = [0.5 + i / 128 for i in range(65)]
            vals = [f_value(n, x) for x in xs]
            assert all(vals[i] <= vals[i + 1] + 1e-14 for i in range(len(vals) - 1))
