import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsums.core import DomainError, Params
from sqsums.evalnum import (
    LADDER_MAX,
    Method,
    QuadratureRule,
    RuleKind,
    Z_SWITCH,
    bessel_i0,
    bessel_i0e,
    hyp2f1_diag,
    s_closed,
    s_quad,
    s_series,
    t_closed,
    t_quad,
)


class TestHyp2f1Diag:
    def test_unit_at_origin(self):
        assert hyp2f1_diag(7.3, 0.0) == 1.0

    def test_terminating_cases(self):
        # two-term and three-term exact expansions
        for z in (0.0, 0.3, 2.0, 50.0):
            assert hyp2f1_diag(-1, z) == pytest.approx(1 + z, rel=1e-15)
            assert hyp2f1_diag(-2, z) == pytest.approx(1 + 4 * z + z * z, rel=1e-15)

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for a in (0.5, 1.0, 2.5, 12.5):
            for z in (0.01, 0.3, 0.8, 0.97):
                expect = float(special.hyp2f1(a, a, 1.0, z))
                assert hyp2f1_diag(a, z) == pytest.approx(expect, rel=1e-12)

    def test_divergence_rejected(self):
        with pytest.raises(ValueError):
            hyp2f1_diag(2.0, 1.0)
        with pytest.raises(ValueError):
            hyp2f1_diag(0.5, -0.1)
        with pytest.raises(ValueError):
            hyp2f1_diag(-0.5, 0.3)  # negative non-integer is out of scope


class TestBesselI0:
    def test_series_anchors(self):
        assert bessel_i0(0.0) == 1.0
        brute = math.fsum(1.0 / math.factorial(k) ** 2 for k in range(40))
        assert bessel_i0(2.0) == pytest.approx(brute, rel=1e-15)

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for z in (0.1, 1.0, 10.0, 100.0, 650.0, 1000.0):
            assert bessel_i0e(z) == pytest.approx(float(special.i0e(z)), rel=1e-13)
        for z in (0.5, 5.0, 50.0):
            assert bessel_i0(z) == pytest.approx(float(special.i0(z)), rel=1e-13)

    def test_scaled_consistency_with_closed_form(self):
        lhs = math.exp(-2.0) * bessel_i0(2.0)
        assert s_closed(Params(1, 0), 1.0).value == pytest.approx(lhs, rel=1e-14)

    def test_overflow_saturates(self):
        assert bessel_i0(10000.0) == math.inf

    @given(st.floats(min_value=0, max_value=30))
    @settings(max_examples=50)
    def test_lower_bound_and_monotone(self, z):
        assert bessel_i0(z) >= 1.0
        assert bessel_i0(z + 0.5) > bessel_i0(z)


def _weight_moment_01(k: int) -> float:
    """Oracle: integral of t^k/sqrt(t(1-t)) over [0,1] is pi*C(2k,k)/4^k,
    built by the recursion I_k = I_(k-1)*(2k-1)/(2k)."""
    val = math.pi
    for i in range(1, k + 1):
        val *= (2 * i - 1) / (2 * i)
    return val


class TestQuadratureRules:
    def test_node_and_weight_formulas(self):
        m = 7
        rule = QuadratureRule.chebyshev_01(m)
        for j in range(1, m + 1):
            expect = (1 + math.cos((2 * j - 1) * math.pi / (2 * m))) / 2
            assert rule.nodes[j - 1] == pytest.approx(expect, rel=1e-15)
        assert np.allclose(rule.weights, math.pi / m)
        rule = QuadratureRule.chebyshev_m11(m)
        assert rule.kind is RuleKind.CHEBYSHEV_M11
        assert np.allclose(np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m)), rule.nodes)

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_exact_for_low_degree_moments(self, m):
        rule = QuadratureRule.chebyshev_01(m)
        for k in range(0, 2 * m):
            got = float(np.sum(rule.weights * rule.nodes ** k))
            assert got == pytest.approx(_weight_moment_01(k), rel=1e-13)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule.chebyshev_01(1)

    def test_cached_rules_are_shared_and_read_only(self):
        from sqsums.evalnum import _rule

        rule = _rule(RuleKind.CHEBYSHEV_01, 48)
        assert _rule(RuleKind.CHEBYSHEV_01, 48) is rule
        assert _rule(RuleKind.CHEBYSHEV_M11, 48) is not rule
        assert np.array_equal(rule.nodes, QuadratureRule.chebyshev_01(48).nodes)
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert _rule.cache_info().maxsize == 8
        # the public constructors still hand out arrays of their own
        QuadratureRule.chebyshev_01(48).nodes[0] = 0.5

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300))
    def test_rule_mean_has_the_bits_of_np_mean(self, values):
        from sqsums.evalnum import _rule_mean

        m = len(values)
        got = _rule_mean(lambda nodes: np.array(values), RuleKind.CHEBYSHEV_01, m)
        assert got == float(np.mean(np.array(values)))


def _brute_s(n: float, c: float, x: float, kmax: int = 4000) -> float:
    """Independent oracle: direct summation of squared basis values."""
    total = 0.0
    for k in range(kmax):
        if c == 0.0:
            p = math.exp(k * math.log(n * x) - n * x - math.lgamma(k + 1))
        else:
            coef = 1.0
            for i in range(k):
                coef *= (-n / c - i) / (i + 1.0)
            p = (-1) ** k * coef * (c * x) ** k * (1 + c * x) ** (-n / c - k)
        total += p * p
        if k > 5 and p * p < 1e-18 * total:
            break
    return total


class TestSeriesRoute:
    def test_anchor(self):
        for params in (Params(3, -1), Params(2, 0), Params(4, 2)):
            r = s_series(params, 0.0)
            assert r.value == 1.0 and r.err_estimate == 0.0

    def test_documented_values(self):
        assert s_series(Params(1, -1), 0.25).value == pytest.approx(0.625, rel=1e-14)
        assert s_series(Params(1, 1), 0.5).value == pytest.approx(0.5, rel=1e-13)

    def test_terminating_exact_count(self):
        r = s_series(Params(6, -1), 0.37)
        assert r.terms_or_nodes == 7
        assert r.method is Method.SERIES

    def test_against_brute_force(self):
        for n, c, x in [(2, -1, 0.8), (5, -1, 0.31), (3, 0, 1.7), (2, 1, 2.2), (3, 2, 0.9)]:
            assert s_series(Params(n, c), x).value == pytest.approx(_brute_s(n, c, x), rel=1e-12)

    def test_rtol_validated(self):
        with pytest.raises(ValueError):
            s_series(Params(2, -1), 0.5, rtol=0.0)


class TestClosedRoute:
    def test_documented_values(self):
        assert s_closed(Params(2, -1), 0.5).value == pytest.approx(0.375, rel=1e-14)
        assert s_closed(Params(1, 0), 0.0).value == 1.0
        assert s_closed(Params(1, 1), 0.5).value == pytest.approx(0.5, rel=1e-14)

    def test_right_endpoint_negative_c(self):
        assert s_closed(Params(8, -1), 1.0).value == pytest.approx(1.0, rel=1e-13)
        assert s_closed(Params(3, Fraction(-1, 2)), 2.0).value == pytest.approx(1.0, rel=1e-13)

    def test_delegates_past_series_switch(self):
        # c > 0 with huge x pushes the series argument beyond Z_SWITCH
        params = Params(1, 2)
        x = 300.0
        z = (2 * x / (1 + 2 * x)) ** 2
        assert z > Z_SWITCH
        r = s_closed(params, x)
        assert r.method is Method.QUADRATURE
        assert r.value == pytest.approx(s_quad(params, x).value, rel=1e-10)


class TestQuadratureRoute:
    def test_constant_integrand(self):
        assert s_quad(Params(1, -1), 0.0, m=2).value == pytest.approx(1.0, rel=1e-15)

    def test_polynomial_integrand_is_exact(self):
        r = s_quad(Params(2, -1), 0.5, m=3)
        assert r.value == pytest.approx(0.375, rel=5e-15)

    def test_documented_bessel_point(self):
        expect = math.exp(-0.5) * bessel_i0(0.5)
        assert s_quad(Params(1, 0), 0.25).value == pytest.approx(expect, rel=1e-13)

    def test_terminating_families_reproduce_series(self):
        for n in (3, 7, 11):
            params = Params(n, -1)
            for x in (0.2, 0.5, 0.9):
                a = s_series(params, x).value
                q = s_quad(params, x, m=n + 1).value
                assert q == pytest.approx(a, rel=5e-15)

    def test_minimum_nodes_enforced(self):
        with pytest.raises(ValueError):
            s_quad(Params(2, -1), 0.5, m=1)

    def test_ladder_is_capped(self):
        r = s_quad(Params(25, 2), 20.0)
        assert r.terms_or_nodes <= LADDER_MAX


class TestErrorEstimates:
    def test_series_estimate_bounds_true_error(self):
        # reference: the same sum driven far below the requested tolerance
        for n, c, x in [(2, 1, 1.7), (3, 2, 4.0), (4, 0, 2.2)]:
            params = Params(n, c)
            ref = s_series(params, x, rtol=1e-15).value
            r = s_series(params, x, rtol=1e-9)
            assert abs(r.value - ref) <= r.err_estimate + 5e-15 * abs(ref)

    def test_quadrature_estimate_bounds_true_error(self):
        for n, c, x in [(2, 1, 1.7), (5, 2, 3.0), (3, 0, 1.1)]:
            params = Params(n, c)
            ref = s_series(params, x, rtol=1e-15).value
            r = s_quad(params, x)
            assert abs(r.value - ref) <= r.err_estimate + 5e-14 * abs(ref)


class TestThreeWayAgreement:
    @pytest.mark.parametrize(
        "n,c", [(3, -1), (Fraction(5, 2), Fraction(-1, 2)), (4, 0), (2, 1), (5, 2), (Fraction(7, 3), Fraction(1, 3))]
    )
    def test_pairwise(self, n, c):
        params = Params(n, c)
        sup = params.domain_sup
        hi = float(sup) if sup is not None else 12.0
        for i in range(0, 21):
            x = hi * i / 20
            a = s_series(params, x)
            b = s_closed(params, x)
            q = s_quad(params, x)
            assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(a.value))
            assert abs(q.value - a.value) <= max(
                a.err_estimate + q.err_estimate, 1e-13 * max(1.0, abs(a.value))
            )

    def test_range_property(self):
        for n, c in [(3, -1), (4, 0), (2, 1)]:
            params = Params(n, c)
            sup = params.domain_sup
            hi = float(sup) if sup is not None else 15.0
            for i in range(0, 16):
                x = hi * i / 15
                v = s_closed(params, x).value
                assert 0.0 < v <= 1.0 + 1e-14


class TestExtremeParameters:
    """Large-index regimes where naive sums overflow or the quadrature
    ladder's coarse levels miss the integrand's concentration region."""

    def test_series_log_window_matches_exact(self):
        from sqsums.exactalg import g_value

        exact = g_value(200, 20.0)
        got = s_series(Params(200, 1), 20.0)
        assert got.value == pytest.approx(exact, rel=1e-10)
        assert math.isfinite(got.value)

    def test_quadrature_resolves_thin_layer(self):
        from sqsums.exactalg import g_value

        exact = g_value(200, 20.0)
        assert s_quad(Params(200, 1), 20.0).value == pytest.approx(exact, rel=1e-9)
        assert s_closed(Params(200, 1), 20.0).value == pytest.approx(exact, rel=1e-9)

    def test_kernel_fallback_matches_brute_force(self):
        from sqsums.core import basis

        params = Params(200, 1)
        want = math.fsum(basis(params, k, 20.0) * basis(params, k, 10.0) for k in range(4000))
        assert t_closed(params, 20.0, 10.0) == pytest.approx(want, rel=1e-9)

    def test_scaled_bessel_far_field(self):
        # closed form for c = 0 stays finite and positive arbitrarily far out
        v = s_closed(Params(25, 0), 1000.0).value
        assert 0.0 < v < 1e-2


class TestKernel:
    def test_documented_values(self):
        assert t_closed(Params(1, 1), 1.0, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert t_closed(Params(2, 0), 0.3, 0.0) == pytest.approx(math.exp(-0.6), rel=1e-14)
        assert t_closed(Params(2, -1), 0.5, 0.5) == pytest.approx(0.375, rel=1e-14)

    @given(
        st.sampled_from([(3, -1), (2, 0), (2, 1), (3, 2)]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80)
    def test_symmetry(self, nc, x, y):
        params = Params(*nc)
        a = t_closed(params, x, y)
        b = t_closed(params, y, x)
        assert abs(a - b) <= 1e-14 * max(abs(a), 1e-300)

    def test_diagonal_reproduces_s(self):
        for n, c in [(3, -1), (4, 0), (2, 1), (5, 2), (Fraction(5, 2), Fraction(-1, 2))]:
            params = Params(n, c)
            sup = params.domain_sup
            hi = float(sup) if sup is not None else 6.0
            for i in range(1, 10):
                x = hi * i / 10
                s = s_closed(params, x).value
                assert abs(t_closed(params, x, x) - s) <= 1e-13 * abs(s)

    def test_quadrature_constant_case(self):
        assert t_quad(Params(1, 1), 0.0, 0.0, m=8) == pytest.approx(1.0, rel=1e-15)

    def test_quadrature_matches_closed(self):
        assert t_quad(Params(2, -1), 0.5, 0.5, m=16) == pytest.approx(0.375, abs=1e-12)
        a = t_quad(Params(1, 0), 0.25, 0.25, m=64)
        b = s_quad(Params(1, 0), 0.25, m=64).value
        assert a == pytest.approx(b, rel=1e-13)
        for n, c, x, y in [(3, -1, 0.2, 0.9), (2, 0, 0.4, 1.3), (2, 1, 0.6, 2.0)]:
            got = t_quad(Params(n, c), x, y, m=256)
            assert got == pytest.approx(t_closed(Params(n, c), x, y), rel=1e-11)

    def test_corner_cases_negative_c(self):
        params = Params(4, -1)
        assert t_closed(params, 1.0, 1.0) == 1.0
        assert t_closed(params, 1.0, 0.5) == pytest.approx(0.5 ** 4, rel=1e-14)
        assert t_closed(params, 0.0, 0.7) == pytest.approx(0.3 ** 4, rel=1e-14)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            t_closed(Params(2, -1), 0.5, 1.5)
