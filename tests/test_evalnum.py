import hashlib
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsums import evalnum
from sqsums.core import DomainError, Params, basis_sum
from sqsums.evalnum import (
    LADDER_MAX,
    LADDER_START,
    RTOL_DEFAULT,
    Method,
    RuleKind,
    Z_SWITCH,
    _EXP_GUARD,
    _TANH_SINH_START,
    _chebyshev_nodes,
    _means,
    _tanh_sinh_rule,
    bessel_i0,
    bessel_i0e,
    hyp2f1_diag,
    s_closed,
    s_closed_grid,
    s_quad,
    s_quad_grid,
    s_series,
    s_series_grid,
    t_closed,
    t_quad,
)
from sqsums.exactalg import f_value, g_value


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
        for z in (0.1, 1.0, 10.0, 100.0, 650.0, 1000.0, 1e4, 1e6, 1e8):
            assert bessel_i0e(z) == pytest.approx(float(special.i0e(z)), rel=1e-15)
        for z in (0.5, 5.0, 50.0):
            assert bessel_i0(z) == pytest.approx(float(special.i0(z)), rel=1e-13)

    def test_scaled_consistency_with_closed_form(self):
        lhs = math.exp(-2.0) * bessel_i0(2.0)
        assert s_closed(Params(1, 0), 1.0).value == pytest.approx(lhs, rel=1e-14)

    def test_overflow_saturates(self):
        assert bessel_i0(10000.0) == math.inf
        assert bessel_i0(math.inf) == math.inf

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
        nodes = _chebyshev_nodes(np.array([m]))
        for j in range(1, m + 1):
            expect = (1 + math.cos((2 * j - 1) * math.pi / (2 * m))) / 2
            assert nodes[j - 1] == pytest.approx(expect, rel=1e-15)
        # equal weights pi/m: the rule's value is pi times the mean
        assert _means(lambda t, p: p * np.ones_like(t), RuleKind.CHEBYSHEV_01, [2.5], [m]) == [2.5]

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_exact_for_low_degree_moments(self, m):
        ks = list(range(2 * m))
        got = _means(lambda t, k: t ** k, RuleKind.CHEBYSHEV_01, ks, [m] * len(ks))
        for k, mean in zip(ks, got):
            assert math.pi * mean == pytest.approx(_weight_moment_01(k), rel=1e-13)

    def test_too_few_nodes_rejected(self):
        for m in (1, 0):
            with pytest.raises(ValueError):
                s_quad(Params(2, 1), 0.5, m=m)
            with pytest.raises(ValueError):
                t_quad(Params(2, 1), 0.5, 0.25, m=m)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300))
    def test_means_have_the_bits_of_np_mean(self, values):
        m = len(values)
        got = _means(lambda t, p: np.array(values), RuleKind.CHEBYSHEV_01, [0.0], [m])
        assert got == [float(np.mean(np.array(values)))]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-30.0, 30.0), st.integers(2, 300)), min_size=1, max_size=40),
        st.sampled_from(list(RuleKind)),
    )
    def test_means_of_mixed_node_counts_have_the_bits_of_np_mean(self, pairs, kind):
        # several chunks of up to _NODES_PER_CALL nodes, sorted by node count
        def f(t, p):
            return np.exp(p * t) * np.sin(1e3 * t + p)

        got = _means(f, kind, [p for p, _ in pairs], [m for _, m in pairs])
        want = [float(np.mean(_rule_values(f, kind, m, p))) for p, m in pairs]
        assert got == want


def _rule_values(f, kind, m, p):
    """f at the nodes of the m-node rule of a kind on its own, times the
    weights of the tanh-sinh rule."""
    if kind is RuleKind.TANH_SINH:
        nodes, weights = _tanh_sinh_rule(np.array([m]))
        return f(nodes, np.full(m, p)) * weights
    return f(_chebyshev_nodes(np.array([m])), np.full(m, p))


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
        # S = p_l^2 = 1 exactly at x = -1/c.  A float x below it whose c*x
        # only rounds to -1 (-3/17 and -2/105 have one) gets 1 as well, with
        # a bound on its distance from the exact S_{n,c}(x) = F_l(|c| x).
        inexact = 0
        for c in (Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(-3, 17), Fraction(-2, 105)):
            xs = [float(-1 / c)]
            while len(xs) < 5:
                xs.append(math.nextafter(xs[-1], 0.0))
            xs = [x for x in xs if Fraction(x) <= -1 / c and 1.0 + float(c) * x == 0.0]
            for l in (1, 3, 8, 25, 120):
                for x, r in zip(xs, s_closed_grid(Params(-c * l, c), xs)):
                    error = abs(1 - f_value(l, -c * Fraction(x)))
                    assert r.value == 1.0
                    assert error <= r.err_estimate <= 4 * l * 2.0 ** -53
                    inexact += Fraction(x) != -1 / c
        assert inexact >= 2 * 5

    def test_delegates_past_series_switch(self):
        # c > 0 with huge x pushes the series argument beyond Z_SWITCH; at
        # a = n/c = 4/3, neither whole nor half-integer, the closed form
        # still hands over there
        params = Params(Fraction(8, 3), 2)
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

    def test_kernel_ladder_matches_brute_force(self):
        # 2a = 2n/c = 400.5 is not a whole number and pref_log is about -1090
        # at (20, 10), past -_EXP_GUARD, so T climbs its ladder here
        from sqsums.core import basis

        params = Params(Fraction(801, 4), 1)
        want = math.fsum(basis(params, k, 20.0) * basis(params, k, 10.0) for k in range(4000))
        assert t_closed(params, 20.0, 10.0) == pytest.approx(want, rel=1e-9)

    def test_szasz_routes_against_i0e(self):
        # series (peak window) and closed form (Hankel) against scipy's i0e,
        # each within its own claimed error; 2 n x = z exactly for n = 1, 2, 4
        special = pytest.importorskip("scipy.special")
        zs = [math.nextafter(600.0, 700.0)] + np.geomspace(601.0, 2e8, 40).tolist()
        for n in (1, 2, 4):
            for z in zs:
                want = float(special.i0e(z))
                for got in (s_series(Params(n, 0), z / (2 * n)), s_closed(Params(n, 0), z / (2 * n))):
                    assert abs(got.value - want) <= got.err_estimate, (n, z, got)

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
        # T and S share one classifier, so T(x, x) has the bits of S(x) in
        # every regime, each switch taken from both sides
        for params, xs in _diagonal_cases():
            for x in xs:
                assert t_closed(params, x, x) == s_closed(params, x).value, (params, x)

    def test_diagonal_at_random_points(self):
        # the parameters at which the two forms used to differ most often
        rng = np.random.default_rng(23)
        for n, c in [(5, -1), (Fraction(25, 2), Fraction(-1, 2)), (4, 3), (Fraction(4, 3), 1)]:
            params = Params(n, c)
            hi = float(params.domain_sup) if c < 0 else 1e3
            for x in (hi * rng.random(400)).tolist():
                assert t_closed(params, x, x) == s_closed(params, x).value, (params, x)

    def test_szasz_past_the_overflow_of_xy(self):
        # x y overflows at x = y = 1e160, where sqrt(xy) was inf and T nan
        mpmath = pytest.importorskip("mpmath")
        params = Params(3, 0)
        t = t_closed(params, 1e160, 1e160)
        assert math.isfinite(t) and t == s_closed(params, 1e160).value
        want = _szasz_t(mpmath, 3, 1e160, 1e160 * (1.0 + 1e-80))
        assert abs(t_closed(params, 1e160, 1e160 * (1.0 + 1e-80)) / want - 1) <= 2e-14

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

    @pytest.mark.parametrize(
        "n, c, x, y, quadrature",
        [
            (Fraction(1, 3), 1, 398.0, 398.0, False),
            (Fraction(1, 3), 1, 400.0, 400.0, True),
            (Fraction(801, 4), 1, 4.5, 4.5, False),
            (Fraction(801, 4), 1, 4.7, 4.7, True),
            # off the diagonal, where g = sqrt(uv) + sqrt((1+u)(1+v)) < B
            (Fraction(4, 3), 1, 300.0, 600.0, True),
            (Fraction(801, 4), 1, 3.0, 7.0, True),
            (Fraction(801, 4), 1, 20.0, 10.0, True),
            (Fraction(7, 3), 1, 5000.0, 3600.0, True),
            (Fraction(1, 3), Fraction(1, 3), 1e6, 1e3, True),
            (Fraction(7, 3), Fraction(1, 2), 3e4, 1e7, True),
        ],
    )
    def test_hand_over_against_mpmath(self, n, c, x, y, quadrature):
        # both sides of Z_SWITCH (n = 1/3) and of _EXP_GUARD (n = 801/4), and
        # the ladder off the diagonal, against (1+u)^(-a) (1+v)^(-a)
        # 2F1(a, a; 1; z) at 40 digits within the ladder's stop; the ladder
        # runs only where 2a = 2n/c is not a whole number
        mpmath = pytest.importorskip("mpmath")
        cf = float(c)
        a = float(n) / cf
        z = (cf * cf * x * y) / ((1.0 + cf * x) * (1.0 + cf * y))
        pref_log = -a * (math.log1p(cf * x) + math.log1p(cf * y))
        assert (z > Z_SWITCH or pref_log < -_EXP_GUARD) is quadrature
        with mpmath.workdps(40):
            am = _mpf(mpmath, n) / _mpf(mpmath, c)
            u, v = _mpf(mpmath, c) * _mpf(mpmath, x), _mpf(mpmath, c) * _mpf(mpmath, y)
            want = mpmath.hyp2f1(am, am, 1, u * v / ((1 + u) * (1 + v))) / ((1 + u) * (1 + v)) ** am
        assert abs(t_closed(Params(n, c), x, y) / want - 1) <= RTOL_DEFAULT

    def test_corner_cases_negative_c(self):
        params = Params(4, -1)
        assert t_closed(params, 1.0, 1.0) == 1.0
        assert t_closed(params, 1.0, 0.5) == pytest.approx(0.5 ** 4, rel=1e-14)
        assert t_closed(params, 0.0, 0.7) == pytest.approx(0.3 ** 4, rel=1e-14)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            t_closed(Params(2, -1), 0.5, 1.5)


# ---------------------------------------------------------------------------
# Grid routes against the one-point routes
# ---------------------------------------------------------------------------


@st.composite
def _grid_case(draw):
    c = draw(st.sampled_from([Fraction(c, 6) for c in (-6, -3, -2, 0, 2, 3, 6, 12, 18)]))
    if c < 0:
        params = Params(-c * draw(st.integers(1, 30)), c)
        sup = float(params.domain_sup)
        x = st.one_of(st.floats(0.0, sup), st.sampled_from([0.0, sup, math.nextafter(sup, 0.0)]))
    else:
        params = Params(draw(st.fractions(Fraction(1, 4), Fraction(300), max_denominator=8)), c)
        x = st.one_of(
            st.just(0.0),
            st.floats(1e-300, 1e-6),
            st.floats(0.0, 30.0),
            st.floats(30.0, 1000.0),
            st.floats(1e3, 1e5) if c == 0 else st.nothing(),  # deep in the Bessel peak window
        )
    xs = draw(st.lists(x, min_size=1, max_size=25))
    return params, xs, draw(st.sampled_from([1e-12, 1e-15, 1e-8, 1e-3]))


def _outcomes(route, params, xs, *args):
    out = []
    for x in xs:
        try:
            out.append(repr(route(params, x, *args)))
        except Exception as exc:
            out.append((type(exc), str(exc)))
    return out


def _grid_outcomes(results):
    return [(type(r), str(r)) if isinstance(r, Exception) else repr(r) for r in results]


@settings(max_examples=150, deadline=None)
@given(_grid_case())
def test_grid_routes_are_the_point_routes(case):
    # rows of one batch, points grouped by node count and chunked nodes give
    # the EvalResult (or the exception) of each point on its own
    params, xs, rtol = case
    assert _grid_outcomes(s_series_grid(params, xs, rtol)) == _outcomes(s_series, params, xs, rtol)
    assert _grid_outcomes(s_closed_grid(params, xs, rtol)) == _outcomes(s_closed, params, xs, rtol)
    quad = _outcomes(s_quad, params, xs, 16, rtol)
    assert _grid_outcomes(s_quad_grid(params, xs, 16, rtol)) == quad


def test_grid_routes_keep_point_errors():
    # a point outside the domain holds its DomainError; the others still run
    params = Params(3, -1)
    for route, point in ((s_series_grid, s_series), (s_closed_grid, s_closed), (s_quad_grid, s_quad)):
        got = route(params, [0.5, 1.5, 0.25])
        assert isinstance(got[1], DomainError) and "x=1.5" in str(got[1])
        assert got[0] == point(params, 0.5)
        assert got[2].value == pytest.approx(s_series(params, 0.25).value, rel=1e-14)


def test_chebyshev_nodes_have_the_bits_of_each_rule():
    # the nodes at each m, built on their own by the textbook expression
    ms = np.array([2, 3, 16, 17, 100, 4096, 16])
    for m, m01 in zip(ms, np.split(_chebyshev_nodes(ms), np.cumsum(ms)[:-1])):
        j = np.arange(1, m + 1)
        assert np.array_equal(m01, (1.0 + np.cos((2 * j - 1) * np.pi / (2 * m))) / 2.0)


def test_grid_routes_in_small_batches(monkeypatch):
    # kernel batches of 3 rows and integrand calls of at most 40 nodes split
    # every grid here; the results stay those of the whole grid at once
    from sqsums import core, evalnum

    cases = [
        (Params(5, 1), [20.0 * i / 16 for i in range(17)]),
        (Params(25, 0), [20.0 * i / 16 for i in range(17)]),
        (Params(Fraction(25, 2), Fraction(-1, 2)), [2.0 * i / 16 for i in range(17)]),
        (Params(3, 2), [100.0 + 300.0 * i / 10 for i in range(11)]),
    ]
    routes = (s_series_grid, s_closed_grid, s_quad_grid)
    whole = [[_grid_outcomes(route(params, xs)) for route in routes] for params, xs in cases]
    monkeypatch.setattr(core, "_BATCH_ROWS", 3)
    monkeypatch.setattr(evalnum, "_NODES_PER_CALL", 40)
    assert [[_grid_outcomes(route(params, xs)) for route in routes] for params, xs in cases] == whole


# ---------------------------------------------------------------------------
# One quadrature ladder for S and T
# ---------------------------------------------------------------------------


def _plan(params):
    """S's quadrature plan at params."""
    return evalnum._s_quad_plan(params, evalnum._twice_a(params))


def _first(params, x):
    """The node count S's ladder starts from at x > 0."""
    plan = _plan(params)
    return plan.start(plan.pair(x, x)[0])


def _t_reflected(params, x, y):
    """S's reflected integrand and rule, the parameter s = B/g^2 of T's
    Laplace integral and its factor (g/B)^(2a), g = sqrt(uv) + sqrt((1+u)(1+v));
    on the diagonal S's own s = 1/(1+2cx) and the factor 1."""
    c = params.c_float
    u, v = c * x, c * y
    plan = _plan(params)
    f, kind = plan.f, plan.kind
    if x == y:
        return f, kind, 1.0 / (1.0 + 2.0 * c * x), 1.0
    g, b = math.sqrt(u) * math.sqrt(v) + math.sqrt(1.0 + u) * math.sqrt(1.0 + v), 1.0 + u + v
    return f, kind, b / g / g, (g / b) ** (2.0 * params.n_float / c)


def ref_t_closed_pos_c(params, x, y):
    """t_closed for c > 0 and x, y > 0 at a = n/c neither whole nor
    half-integer, with its hand-over ladder as a loop: a purely relative
    stop, and a stop at 0.  On the diagonal z is S's (cx/(1+cx))^2."""
    n, c = params.n_float, params.c_float
    a = n / c
    if x == y:
        z = (c * x / (1.0 + c * x)) ** 2
    else:
        z = (c * c * x * y) / ((1.0 + c * x) * (1.0 + c * y))
    pref_log = -a * (math.log1p(c * x) + math.log1p(c * y))
    if z > Z_SWITCH or pref_log < -_EXP_GUARD:
        f, kind, s, scale = _t_reflected(params, x, y)
        m = _TANH_SINH_START
        (value,) = _means(f, kind, [s], [m])
        while m < LADDER_MAX:
            m *= 2
            old, (value,) = value, _means(f, kind, [s], [m])
            if value == 0.0 or abs(value - old) <= RTOL_DEFAULT * abs(value):
                break
        return scale * value
    return math.exp(pref_log) * hyp2f1_diag(a, z, 1e-15)


def _first_float(switched, lo, hi):
    """The float at which ``switched`` turns true between lo and hi."""
    while True:
        mid = lo / 2.0 + hi / 2.0
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if switched(mid) else (mid, hi)


def _switch_sides(switched, lo, hi):
    """The last float before ``switched`` turns true between lo and hi, and the first after."""
    at = _first_float(switched, lo, hi)
    return [math.nextafter(at, 0.0), at]


def _diagonal_cases():
    """(params, xs) covering every regime of the closed form of S and T."""
    cases = [
        # c < 0: the Legendre rows on both sides of B = 1 + 2cx = 0, at the
        # endpoint and near it, where z = (cx/(1+cx))^2 passes 1e10 and
        # |2l log1p(cx)| passes _EXP_GUARD
        (Params(5, -1), [0.3, 0.7, 1.0] + _switch_sides(lambda x: (x / (1.0 - x)) ** 2 >= 1e10, 0.5, 1.0)),
        (Params(125, Fraction(-1, 2)), [0.5, 1.998, 2.0]
            + _switch_sides(lambda x: abs(500.0 * math.log1p(-0.5 * x)) >= _EXP_GUARD, 0.0, 2.0)),
        # c = 0 both sides of the Hankel switch 2 n x = 600, and past the
        # overflow of x y
        (Params(3, 0), [0.0, 0.25, 7.0, 1e5, 1e160] + _switch_sides(lambda x: 6.0 * x > evalnum._HANKEL_Z, 50.0, 150.0)),
        # whole 2a at integer and half-integer a, where no switch applies
        # (the points at which the other a switch)
        (Params(2, 1), [0.05, 1.0, 20.0, 400.0, 1e8]),
        (Params(1, 1), [400.0]),
        (Params(200, 1), [3.0, 7.0]),
        (Params(5, 2), [0.3, 150.0, 1e4]),
        (Params(1, 2), [400.0]),
        (Params(601, 2), [3.0, 7.0]),
    ]
    # 2a not whole: the series, and the hand-over past Z_SWITCH and _EXP_GUARD
    cases += [(Params(n, c), [x]) for n, c, x, y in _hand_over_cases() if x == y]
    return cases


def _hand_over_cases():
    cases = []
    # 2a = 2n/c is never a whole number here: only there does T climb a ladder
    for n, c, lo, hi in [(Fraction(4, 3), 1, 300.0, 500.0), (Fraction(7, 3), Fraction(1, 2), 300.0, 2000.0)]:
        nf, cf = float(n), float(c)
        at = _first_float(lambda x: (cf * x / (1.0 + cf * x)) ** 2 > Z_SWITCH, lo, hi)
        cases += [(n, c, x, x) for x in (math.nextafter(at, 0.0), at)]  # both sides of Z_SWITCH
    for n, c in [(Fraction(801, 4), 1), (Fraction(361, 3), Fraction(1, 2)), (Fraction(2102, 3), 2)]:
        nf, cf = float(n), float(c)
        at = _first_float(lambda x: -2.0 * (nf / cf) * math.log1p(cf * x) < -_EXP_GUARD, 1e-3, 1e3)
        cases += [(n, c, x, x) for x in (math.nextafter(at, 0.0), at)]  # both sides of _EXP_GUARD
    # off the diagonal, and far out
    cases += [
        (Fraction(4, 3), 1, 300.0, 600.0),
        (Fraction(801, 4), 1, 3.0, 7.0),
        (Fraction(4, 3), 1, 4000.0, 4000.0),
        (Fraction(7, 3), 1, 5000.0, 3600.0),
    ]
    return cases


@pytest.mark.parametrize("n, c, x, y", _hand_over_cases())
def test_t_closed_ladder_is_its_own_loop(n, c, x, y):
    params = Params(n, c)
    assert t_closed(params, x, y) == ref_t_closed_pos_c(params, x, y)


def test_t_closed_first_level_at_the_cap(monkeypatch):
    # the tanh-sinh ladder starts at _TANH_SINH_START nodes at every x, so
    # its first level is at the cap only when the cap is lowered to it
    from sqsums import evalnum

    monkeypatch.setattr(evalnum, "LADDER_MAX", _TANH_SINH_START)
    for n, c, x, y in _hand_over_cases()[-2:]:
        params = Params(n, c)
        f, kind, s, scale = _t_reflected(params, x, y)
        assert t_closed(params, x, y) == scale * _means(f, kind, [s], [evalnum.LADDER_MAX])[0]


def test_s_quad_grid_first_level_at_the_cap():
    # points whose first level is LADDER_MAX take that level's mean, with an
    # infinite error claim, next to a point that climbs.  Only the
    # polynomial integrands still start there: c < 0 with l >= 8190 (here)
    # and integer a >= 8191; the tanh-sinh rule of c = 0 and of every other
    # c > 0 starts at most at 512 nodes
    params = Params(8190, -1)
    xs = [0.5, 0.0, 0.75]
    plan = _plan(params)
    got = s_quad_grid(params, xs)
    for i in (0, 2):
        p, factor, _ = plan.pair(xs[i], xs[i])
        assert factor == 1.0 and plan.start(p) == LADDER_MAX
        assert got[i] == s_quad(params, xs[i])
        assert (got[i].value, got[i].err_estimate, got[i].terms_or_nodes) == (
            _means(plan.f, plan.kind, [p], [LADDER_MAX])[0],
            math.inf,
            LADDER_MAX,
        )
    assert got[1] == s_quad(params, 0.0) and got[1].terms_or_nodes < LADDER_MAX


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: s_series(Params(1, 0), 301.0), id="szasz-window"),  # past mu = 300
        pytest.param(lambda: s_series(Params(300, 1), 3.0), id="pos-c-window"),  # past _EXP_GUARD
        pytest.param(lambda: basis_sum(Params(1, 0), 5.0), id="basis-sum-szasz"),
        pytest.param(lambda: basis_sum(Params(2, 1), 5.0), id="basis-sum-pos-c"),
        pytest.param(lambda: s_quad(Params(2, 1), 1.0), id="s-quad"),
        pytest.param(lambda: s_closed(Params(Fraction(4, 3), 1), 400.0), id="s-closed-hand-over"),  # past Z_SWITCH
        pytest.param(lambda: t_closed(Params(Fraction(4, 3), 1), 400.0, 400.0), id="t-closed-hand-over"),
    ],
)
def test_every_window_and_ladder_runs_on_the_shared_helpers(monkeypatch, call):
    # with the window helper and the ladder replaced, each route that walks
    # a peak window or climbs a ladder reaches the replacement
    from sqsums import core, evalnum

    for module, name in ((core, "_window_rows"), (evalnum, "_window_rows"), (evalnum, "_ladder")):
        monkeypatch.setattr(module, name, _reached)
    with pytest.raises(_Reached):
        call()


# ---------------------------------------------------------------------------
# Integer a = n/c > 0: the Legendre recurrence and the reflected rule
# ---------------------------------------------------------------------------


def _mpf(mpmath, v):
    v = Fraction(v)
    return mpmath.mpf(v.numerator) / v.denominator


def _s_by_hyp2f1(mpmath, n, c, x):
    """S from its definition (1+u)^(-2a) 2F1(a, a; 1; (u/(1+u))^2), u = cx, at 40 digits."""
    with mpmath.workdps(40):
        a, u = _mpf(mpmath, n) / _mpf(mpmath, c), _mpf(mpmath, c) * _mpf(mpmath, x)
        return mpmath.hyp2f1(a, a, 1, (u / (1 + u)) ** 2, maxterms=10 ** 6) / (1 + u) ** (2 * a)


def _assert_within_claims(want, results):
    for r in results:
        assert abs(r.value - want) <= r.err_estimate, (r, want)


def test_integer_a_battery_against_mpmath():
    # the integer-a pairs of acceptance criterion 1's battery, each point
    # within each route's own claim of the 40-digit value
    mpmath = pytest.importorskip("mpmath")
    xs = [20.0 * i / 100 for i in range(101)]
    for n, c in [(1, 1), (2, 1), (5, 1), (10, 1), (25, 1), (2, 2), (10, 2)]:
        params = Params(n, c)
        for x, r, q in zip(xs, s_closed_grid(params, xs), s_quad_grid(params, xs)):
            assert (r.method, q.method) == (Method.CLOSED_FORM, Method.QUADRATURE)
            _assert_within_claims(_s_by_hyp2f1(mpmath, n, c, x), (r, q))


def test_integer_a_sweep_against_mpmath():
    # n/c in {1, 2, 5, 10, 25, 60, 300}, c in {1/3, 1/2, 1, 2, 3}, 24 x per
    # decade on [1e-3, 1e8]: both routes within their claims of mpmath's
    # Legendre function, the closed form never hands over, and T's diagonal
    # is S's closed form bit for bit
    mpmath = pytest.importorskip("mpmath")
    xs = [10.0 ** (-3 + i / 24) for i in range(11 * 24 + 1)]
    for a in (1, 2, 5, 10, 25, 60, 300):
        for c in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
            params = Params(a * c, c)
            closed, quad = s_closed_grid(params, xs), s_quad_grid(params, xs)
            for x, r, q in zip(xs, closed, quad):
                with mpmath.workdps(40):
                    u = _mpf(mpmath, c) * _mpf(mpmath, x)
                    want = mpmath.legendre(a - 1, 1 + 2 * u * u / (1 + 2 * u)) / (1 + 2 * u) ** a
                assert r.method is Method.CLOSED_FORM and r.terms_or_nodes == a
                _assert_within_claims(want, (r, q))
            assert [t_closed(params, x, x) for x in xs[::12]] == [r.value for r in closed[::12]]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 3)])
def test_integer_a_straddle(c):
    # a = 2 takes the recurrence and the reflected rule; n/c = 2 -+ 1/1000
    # keep the hypergeometric series and the unreflected ladder.  Each side
    # is checked against mpmath: the integer side within its claims, the
    # other within criterion 1's 1e-10
    mpmath = pytest.importorskip("mpmath")
    xs = [0.05, 1.0, 20.0, 300.0]
    for shift in (Fraction(-1, 1000), Fraction(0), Fraction(1, 1000)):
        params = Params((2 + shift) * c, c)
        for x, r, q in zip(xs, s_closed_grid(params, xs), s_quad_grid(params, xs)):
            want = _s_by_hyp2f1(mpmath, (2 + shift) * c, c, x)
            t = t_closed(params, x, x)
            assert (r.method, q.method) == (Method.CLOSED_FORM, Method.QUADRATURE)
            if shift == 0:
                assert r.terms_or_nodes == 2 and q.terms_or_nodes == 2 * LADDER_START
                _assert_within_claims(want, (r, q))
                assert t == r.value
            else:
                assert r.terms_or_nodes > 2  # the series' own terms
                for v in (r.value, q.value, t):
                    assert abs(v - want) <= 1e-10 * want


def test_integer_a_kernel_against_mpmath():
    # T off the diagonal, from 2F1(a, a; 1; z) at 40 digits, within the
    # closed form's claim of S; values past the double range underflow to 0
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = int(rng.choice([1, 2, 5, 10, 25, 60]))
        c = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)][rng.integers(5)]
        x, y = 10.0 ** rng.uniform(-3, 6, size=2)
        with mpmath.workdps(40):
            u, v = _mpf(mpmath, c) * _mpf(mpmath, x), _mpf(mpmath, c) * _mpf(mpmath, y)
            z = u * v / ((1 + u) * (1 + v))
            want = float(mpmath.hyp2f1(a, a, 1, z, maxterms=10 ** 6) / ((1 + u) * (1 + v)) ** a)
        got = t_closed(Params(a * c, c), x, y)
        assert abs(got - want) <= 1e-15 * a * want, (a, c, x, y)


def test_integer_a_quadrature_starts_at_its_exact_node_count():
    # the degree-(a-1) integrand needs (a+1)//2 nodes, as c < 0's degree-l
    # one needs (l+2)//2; two exact levels then agree at once
    for a, c in [(1, Fraction(1, 3)), (2, Fraction(1)), (33, Fraction(2)), (300, Fraction(1, 2)), (9000, Fraction(1))]:
        params = Params(a * c, c)
        assert _first(params, 1e6) == min(LADDER_MAX, max(2, (a + 1) // 2))
        if a < 9000:
            (r,) = s_quad_grid(params, [1e6])
            assert r.terms_or_nodes == 2 * max(LADDER_START, (a + 1) // 2)
    assert _first(Params(2.001, 1), 1e6) == _TANH_SINH_START  # the tanh-sinh rule at every x


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: s_closed(Params(1, 1), 400.0), id="s-closed-past-z-switch"),
        pytest.param(lambda: s_closed_grid(Params(300, 1), [3.0, 1e8]), id="s-closed-past-exp-guard"),
        pytest.param(lambda: t_closed(Params(200, 1), 3.0, 7.0), id="t-closed-past-exp-guard"),
    ],
)
def test_integer_a_never_hands_over(monkeypatch, call):
    # neither the hypergeometric series nor the ladder runs at integer a
    # (``test_diagonal_reproduces_s`` has T's diagonal points)
    from sqsums import evalnum

    for name in ("_hyp2f1_rows", "_ladder"):
        monkeypatch.setattr(evalnum, name, _reached)
    results = call()
    for r in results if isinstance(results, list) else [results]:
        assert isinstance(r, float) or r.method is Method.CLOSED_FORM


# ---------------------------------------------------------------------------
# Half-integer a = n/c > 0: the AGM-seeded recurrence; every other
# non-integer a: the tanh-sinh rule
# ---------------------------------------------------------------------------


def _half_integer_s(mpmath, c, x, two_as):
    """S at each a = two_a/2 (two_a odd) from mpmath's complete elliptic
    integrals at 40 digits, P_(-1/2)(w) = (2/pi) sqrt(2/(w+1)) K((w-1)/(w+1))
    and P_(1/2)(w) = (2/pi) sqrt(e) E(1 - 1/e^2) with e = w + sqrt(w^2-1),
    and Bonnet's recurrence (nu+1) P_(nu+1) = (2nu+1) w P_nu - nu P_(nu-1)
    upward in 200-bit fixed point (P_nu(w) is the dominant solution)."""
    bits = 200
    with mpmath.workdps(40):
        u = _mpf(mpmath, c) * _mpf(mpmath, x)
        w = 1 + 2 * u * u / (1 + 2 * u)
        e = w + mpmath.sqrt((w - 1) * (w + 1))
        seeds = (
            2 / mpmath.pi * mpmath.sqrt(2 / (w + 1)) * mpmath.ellipk((w - 1) / (w + 1)),
            2 / mpmath.pi * mpmath.sqrt(e) * mpmath.ellipe(1 - 1 / e ** 2),
        )
        prev, cur = (int(mpmath.nint(p * 2 ** bits)) for p in seeds)
        wf = int(mpmath.nint(w * 2 ** bits))
        fixed = {-1: prev, 1: cur}  # P_(t/2) by t = 2 nu
        for t in range(1, max(two_as) - 2, 2):
            prev, cur = cur, (2 * (t + 1) * ((wf * cur) >> bits) - t * prev) // (t + 2)
            fixed[t + 2] = cur
        return [mpmath.mpf(fixed[t - 2]) / 2 ** bits / (1 + 2 * u) ** (mpmath.mpf(t) / 2) for t in two_as]


_HALF_TWO_AS = (1, 3, 5, 11, 25, 121, 601)


def test_half_integer_oracle_is_mpmath_legendre():
    mpmath = pytest.importorskip("mpmath")
    for x in (1e-3, 0.7, 30.0, 5e4, 1e8):
        for t, got in zip(_HALF_TWO_AS, _half_integer_s(mpmath, 2, x, _HALF_TWO_AS)):
            with mpmath.workdps(40):
                u = 2 * _mpf(mpmath, x)
                want = mpmath.legendre(mpmath.mpf(t) / 2 - 1, 1 + 2 * u * u / (1 + 2 * u)) / (1 + 2 * u) ** (
                    mpmath.mpf(t) / 2
                )
                assert abs(got / want - 1) < 1e-30, (x, t)


def test_half_integer_sweep_against_mpmath():
    # n/c in {1/2, 3/2, 5/2, 11/2, 25/2, 121/2, 601/2}, c in {1/3, 1/2, 1, 2, 3},
    # 24 x per decade on [1e-3, 1e8]: the recurrence and the tanh-sinh rule
    # within their claims of the 40-digit value, the closed form never hands
    # over, and T's diagonal is S's closed form bit for bit
    mpmath = pytest.importorskip("mpmath")
    xs = [10.0 ** (-3 + i / 24) for i in range(11 * 24 + 1)]
    for c in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
        wants = [_half_integer_s(mpmath, c, x, _HALF_TWO_AS) for x in xs]
        for k, t in enumerate(_HALF_TWO_AS):
            params = Params(Fraction(t, 2) * c, c)
            closed, quad = s_closed_grid(params, xs), s_quad_grid(params, xs)
            for x, r, q, want in zip(xs, closed, quad, wants):
                assert r.method is Method.CLOSED_FORM and r.terms_or_nodes == (t + 1) // 2
                assert r.err_estimate == 1e-15 * (t / 2 + 1) * r.value
                _assert_within_claims(want[k], (r, q))
            assert [t_closed(params, x, x) for x in xs[::12]] == [r.value for r in closed[::12]]


def test_half_integer_kernel_against_mpmath():
    # T off the diagonal, from 2F1(a, a; 1; z) at 40 digits, within the
    # closed form's claim of S
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = int(rng.choice([1, 3, 5, 11, 25, 121]))
        c = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)][rng.integers(5)]
        x, y = 10.0 ** rng.uniform(-3, 6, size=2)
        with mpmath.workdps(40):
            a = mpmath.mpf(t) / 2
            u, v = _mpf(mpmath, c) * _mpf(mpmath, x), _mpf(mpmath, c) * _mpf(mpmath, y)
            z = u * v / ((1 + u) * (1 + v))
            want = float(mpmath.hyp2f1(a, a, 1, z, maxterms=10 ** 6) / ((1 + u) * (1 + v)) ** a)
        got = t_closed(Params(Fraction(t, 2) * c, c), x, y)
        # below the normal range the claim is taken of its least value
        assert abs(got - want) <= 1e-15 * (t / 2 + 1) * max(want, 2.0 ** -1022), (t, c, x, y)


def test_half_integer_far_out_against_mpmath():
    # x from 1e12 to 1e300, where A = sqrt((w+1)/2) reaches 1e150 and the
    # seed's numerator, about 2A^2/ln(4A), is far below its terms near A^2:
    # the recurrence within its claim of mpmath's Legendre function at 40
    # digits
    mpmath = pytest.importorskip("mpmath")
    xs = [10.0 ** (12 + 4 * i) for i in range(73)]
    for t in (1, 3, 5, 11):
        for c in (Fraction(1, 3), Fraction(2)):
            params = Params(Fraction(t, 2) * c, c)
            closed = s_closed_grid(params, xs)
            for x, r in zip(xs, closed):
                with mpmath.workdps(40):
                    u, a = _mpf(mpmath, c) * _mpf(mpmath, x), mpmath.mpf(t) / 2
                    want = mpmath.legendre(a - 1, 1 + 2 * u * u / (1 + 2 * u)) / (1 + 2 * u) ** a
                assert r.method is Method.CLOSED_FORM
                assert abs(r.value - want) <= 1e-15 * (t / 2 + 1) * want, (t, c, x, r)
            assert [t_closed(params, x, x) for x in xs[::8]] == [r.value for r in closed[::8]]


# ---------------------------------------------------------------------------
# c > 0 series at whole 2a past u = max(64, 4a): the expansion about z = 1
# ---------------------------------------------------------------------------

_FAR_TWO_AS = (1, 2, 3, 5, 20, 121, 601)


def _far_switch(two_a):
    return max(evalnum._FAR_U, 2.0 * two_a)


def _whole_2a_s(mpmath, c, x, two_a):
    """S at a = two_a/2: the exact G_a at integer a, else 40 digits."""
    if two_a % 2 == 0:
        return g_value(two_a // 2, Fraction(c) * Fraction(x))
    return _half_integer_s(mpmath, c, x, [two_a])[0]


def test_far_series_sweep_against_mpmath():
    # 12 u = cx per decade from the switch to 1e12: every point within its
    # claim, the claim within 1.1e-15 (a + 1) of the value (the tail stays
    # far below it), and at most 27 terms
    mpmath = pytest.importorskip("mpmath")
    for two_a in _FAR_TWO_AS:
        u0 = _far_switch(two_a)
        us = [u0 * 10.0 ** (i / 12) for i in range(int(12 * math.log10(1e12 / u0)) + 1)]
        for c in (Fraction(1, 3), Fraction(2)) if two_a % 2 else (Fraction(1),):
            params = Params(Fraction(two_a, 2) * c, c)
            xs = [u / float(c) for u in us]
            for x, r in zip(xs, s_series_grid(params, xs)):
                assert r.method is Method.SERIES and r.terms_or_nodes <= 27, (two_a, x, r)
                assert r.err_estimate <= 1.1e-15 * (two_a / 2 + 1) * r.value
                _assert_within_claims(_whole_2a_s(mpmath, c, x, two_a), (r,))


@pytest.mark.parametrize("two_a", [1, 2, 5, 25, 121, 601])
def test_far_series_straddles_its_switch(two_a):
    # one float either side of u = max(64, 4a) at c = 2: the walk (or at
    # 2a = 601 the peak window) below and the expansion above, each within
    # its claim; the walk's rounding grows with its steps, 4.4e-13 of the
    # value at 2a = 121, so the sides agree to 1e-12
    mpmath = pytest.importorskip("mpmath")
    c = Fraction(2)
    params = Params(Fraction(two_a, 2) * c, c)
    above = _first_float(lambda x: 2.0 * x >= _far_switch(two_a), 1.0, 1e6)
    below = math.nextafter(above, 0.0)
    low, high = s_series(params, below), s_series(params, above)
    assert 2.0 * below < _far_switch(two_a) <= 2.0 * above
    assert low.terms_or_nodes > 900 and high.terms_or_nodes <= 27
    _assert_within_claims(_whole_2a_s(mpmath, c, above, two_a), (high,))
    _assert_within_claims(_whole_2a_s(mpmath, c, below, two_a), (low,))
    assert high.value == pytest.approx(low.value, rel=1e-12)


def test_series_claims_against_mpmath():
    # every c >= 0 series row below its switches claims its rounding, with
    # the claims' measured margins: the c = 0 direct sum (5 units per term
    # and 3, within 0.27 of that), the c > 0 walk (the closed form's model,
    # 8 units per term and |pref_log|, within 0.37) and the c > 0 peak
    # window (4.5e-16 per deviation of its weights, within 0.18)
    mpmath = pytest.importorskip("mpmath")
    cases = [(n, 0, [mu / n for mu in 10.0 ** np.linspace(-3, math.log10(300.0), 25)]) for n in (1, 5, 25, 100)]
    for a in (Fraction(1, 5), Fraction(4, 3), Fraction(5, 2), Fraction(25, 2), Fraction(201, 4), Fraction(300)):
        for c in (Fraction(1, 3), Fraction(2)):
            us = [10.0 ** (-3 + i / 4) for i in range(25)]
            cases.append((a * c, c, [u / float(c) for u in us if u < min(2.0 * float(2 * a), 3e3) or 2 * a % 1]))
    # the window at 2a = 601 and the walk at 2a = 121 just below the switch
    # of the expansion about z = 1, which missed their old claims 250 and
    # 1000 times over
    cases += [(601, 2, [math.nextafter(601.0, 0.0)]), (Fraction(121, 6), Fraction(1, 3), [math.nextafter(363.0, 0.0)])]
    for n, c, xs in cases:
        params = Params(n, c)
        for x, r in zip(xs, s_series_grid(params, xs)):
            assert r.method is Method.SERIES
            with mpmath.workdps(40):
                if c == 0:
                    want = _szasz_s(mpmath, _mpf(mpmath, n) * _mpf(mpmath, x))
                else:
                    am, u = _mpf(mpmath, n) / _mpf(mpmath, c), _mpf(mpmath, c) * _mpf(mpmath, x)
                    want = mpmath.legenp(am - 1, 0, 1 + 2 * u * u / (1 + 2 * u), type=3) / (1 + 2 * u) ** am
            _assert_within_claims(want, (r,))


@pytest.mark.parametrize("two_a", [1, 2, 3, 4, 7, 20, 25, 50, 121, 200, 600, 601])
def test_whole_2a_series_finishes_up_to_the_double_range(two_a):
    # from x = 1e-3 up to the last x where 1 + 2cx is finite the series
    # returns a value, never the cap's error, within 1e-11 of the closed form
    # (the walk below the switch carries up to 2.2e-12); past it the series
    # raises OverflowError, as the closed form does
    c = 2.0
    params = Params(two_a, 2)
    top = _first_float(lambda x: not math.isfinite(1.0 + 2.0 * c * x), 1e300, 1.7e308)
    xs = [10.0 ** (-3 + i / 3) for i in range(3 * 310) if 10.0 ** (-3 + i / 3) < top]
    xs += [math.nextafter(top, 0.0), top]
    series, closed = s_series_grid(params, xs), s_closed_grid(params, xs)
    for x, r, cl in zip(xs[:-1], series, closed):
        assert isinstance(r, evalnum.EvalResult) and r.value > 0.0, (x, r)
        assert r.value == pytest.approx(cl.value, rel=1e-11), (x, r, cl)
    assert isinstance(series[-1], OverflowError) and isinstance(closed[-1], OverflowError)


@pytest.mark.parametrize("n, c", [(1, 2), (5, 2), (2, 2), (4, 2), (3, 1), (Fraction(9, 2), 3)])
def test_legendre_past_the_double_range_raises(n, c):
    # where 1 + 2cx (1 + cx + cy for T) overflows, the recurrence of whole
    # or half-integer a raises OverflowError rather than return nan or 0;
    # its grid row holds the error next to a finite point
    params = Params(n, c)
    cf, top = float(c), 1.7e308
    near = _first_float(lambda x: not math.isfinite(1.0 + cf * x + cf * x), 1.0, top)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (top, near):
            with pytest.raises(OverflowError):
                s_closed(params, x)
            with pytest.raises(OverflowError):
                t_closed(params, x, x)
        below = math.nextafter(near, 0.0)
        assert math.isfinite(s_closed(params, below).value) and math.isfinite(t_closed(params, below, below))
        low, over = s_closed_grid(params, [1e300, top])
        assert low == s_closed(params, 1e300) and low.value > 0.0 and isinstance(over, OverflowError)


def test_tanh_sinh_sweep_against_mpmath():
    # a in {1/3, 4/3, 1.999, 2.001, 200.25}, neither whole nor half-integer,
    # c in {1/3, 1}, 6 x per decade on [1e-3, 1e8]: the tanh-sinh rule within
    # its claim of mpmath's Legendre function at 40 digits
    mpmath = pytest.importorskip("mpmath")
    xs = [10.0 ** (-3 + i / 6) for i in range(11 * 6 + 1)]
    for a in (Fraction(1, 3), Fraction(4, 3), Fraction(1999, 1000), Fraction(2001, 1000), Fraction(801, 4)):
        for c in (Fraction(1, 3), Fraction(1)):
            params = Params(a * c, c)
            for x, q in zip(xs, s_quad_grid(params, xs)):
                with mpmath.workdps(40):
                    u = _mpf(mpmath, c) * _mpf(mpmath, x)
                    am = _mpf(mpmath, a)
                    want = mpmath.legendre(am - 1, 1 + 2 * u * u / (1 + 2 * u)) / (1 + 2 * u) ** am
                assert q.method is Method.QUADRATURE and q.terms_or_nodes >= 2 * _TANH_SINH_START
                _assert_within_claims(want, (q,))


@pytest.mark.parametrize("c", [Fraction(1), Fraction(2)])
def test_half_integer_straddle(c):
    # a = 5/2 takes the AGM-seeded recurrence; n/c = 5/2 -+ 1/1000 keep the
    # hypergeometric series below Z_SWITCH and hand over past it.  Every
    # route on both sides is within its own claim of mpmath's value
    mpmath = pytest.importorskip("mpmath")
    xs = [0.05, 1.0, 20.0, 150.0, 1e4]
    for shift in (Fraction(-1, 1000), Fraction(0), Fraction(1, 1000)):
        a = Fraction(5, 2) + shift
        params = Params(a * c, c)
        closed, quad = s_closed_grid(params, xs), s_quad_grid(params, xs)
        for x, r, q in zip(xs, closed, quad):
            with mpmath.workdps(40):
                u, am = _mpf(mpmath, c) * _mpf(mpmath, x), _mpf(mpmath, a)
                want = mpmath.legendre(am - 1, 1 + 2 * u * u / (1 + 2 * u)) / (1 + 2 * u) ** am
            assert q.method is Method.QUADRATURE and q.terms_or_nodes >= 2 * _TANH_SINH_START
            _assert_within_claims(want, (r, q))
            if shift == 0:
                assert r.method is Method.CLOSED_FORM and r.terms_or_nodes == 3
                assert t_closed(params, x, x) == r.value
            elif (float(c) * x / (1 + float(c) * x)) ** 2 > Z_SWITCH:
                assert r.method is Method.QUADRATURE
            else:
                assert r.method is Method.CLOSED_FORM and r.terms_or_nodes > 3  # the series' own terms


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: s_closed_grid(Params(5, 2), [400.0, 1e8]), id="s-closed-past-z-switch"),
        pytest.param(lambda: s_closed_grid(Params(601, 2), [3.0, 1e8]), id="s-closed-past-exp-guard"),
        pytest.param(lambda: s_closed(Params(Fraction(3, 2), Fraction(1, 3)), 5e7), id="s-closed-a-9/2"),
        pytest.param(lambda: t_closed(Params(601, 2), 3.0, 7.0), id="t-closed-past-exp-guard"),
    ],
)
def test_half_integer_never_hands_over(monkeypatch, call):
    # at odd 2a neither the hypergeometric series nor a ladder runs in the
    # closed forms (``test_diagonal_reproduces_s`` has T's diagonal points)
    from sqsums import evalnum

    for name in ("_hyp2f1_rows", "_ladder"):
        monkeypatch.setattr(evalnum, name, _reached)
    results = call()
    for r in results if isinstance(results, list) else [results]:
        assert isinstance(r, float) or r.method is Method.CLOSED_FORM


def test_non_integer_series_claim_against_mpmath():
    # the c > 0 hypergeometric series below Z_SWITCH claims its rounding:
    # n/c = 1.999 and 2.001 at x = 300, where a claim of 2e-15 was an order
    # too small, and a sweep over a, c and five decades of x below the switch
    mpmath = pytest.importorskip("mpmath")
    cases = [(Fraction(1999, 1000), Fraction(1), 300.0), (Fraction(2001, 1000), Fraction(1), 300.0)]
    for a in (Fraction(1, 5), Fraction(4, 3), Fraction(1999, 1000), Fraction(7, 3), Fraction(201, 4)):
        for c in (Fraction(1, 3), Fraction(3)):
            cases += [(a, c, 397.0 / float(c) * 10.0 ** (-i / 4)) for i in range(21)]
    for a, c, x in cases:
        (r,) = s_closed_grid(Params(a * c, c), [x])
        assert r.method is Method.CLOSED_FORM and r.terms_or_nodes > 1
        _assert_within_claims(_s_by_hyp2f1(mpmath, a * c, c, x), (r,))


# ---------------------------------------------------------------------------
# c < 0: S and T against the exact sums
# ---------------------------------------------------------------------------

_NEG_C = [Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(-2, 3), Fraction(-2, 5), Fraction(-5, 7),
          Fraction(-2, 7)]


def _pair_sum(l, y1, y2):
    """sum_k C(l,k)^2 (y1 y2)^k ((1-y1)(1-y2))^(l-k) at rationals y1, y2 as
    a numerator and a denominator, summed by Horner in integers."""
    (p1, q1), (p2, q2) = y1.as_integer_ratio(), y2.as_integer_ratio()
    a, b = p1 * p2, (q1 - p1) * (q2 - p2)
    total = term = 1  # C(l,k)^2 b^(l-k) at k = l
    for k in range(l, 0, -1):
        term = term * b * k * k // (l - k + 1) ** 2
        total = total * a + term
    return total, (q1 * q2) ** l


def _claim_holds(r, num, den):
    """|value - num/den| <= err_estimate, in integers."""
    (m, d), (em, ed) = r.value.as_integer_ratio(), r.err_estimate.as_integer_ratio()
    return abs(m * den - num * d) * ed <= em * d * den


@pytest.mark.parametrize("c", _NEG_C, ids=str)
def test_neg_c_claims_against_the_exact_sums(c):
    # S_{n,c}(x) = F_l(|c|x): the closed form (the Legendre rows), the
    # series (the log sum) and the quadrature (Chebyshev means, which claimed
    # 1e-16 and missed by up to 1.3e-15) each within its claim of the exact
    # value at the float x, on an even grid of (0, -1/c] with the float
    # below the right end, up to l = 1200
    sup = -1 / c
    for l, count in ((1, 64), (2, 64), (5, 128), (25, 128), (125, 64), (1200, 8)):
        xs = [float(sup * i / count) for i in range(1, count + 1)]
        xs = [x for x in xs + [math.nextafter(float(sup), 0.0)] if Fraction(x) <= sup]
        params = Params(-c * l, c)
        routes = zip(s_closed_grid(params, xs), s_series_grid(params, xs), s_quad_grid(params, xs))
        for x, (closed, series, quad) in zip(xs, routes):
            exact = f_value(l, -c * Fraction(x)).as_integer_ratio()
            assert closed.method is Method.CLOSED_FORM and _claim_holds(closed, *exact), (l, x, closed)
            assert _claim_holds(series, *exact), (l, x, series)
            assert quad.method is Method.QUADRATURE and _claim_holds(quad, *exact), (l, x, quad)


@pytest.mark.parametrize("c", _NEG_C, ids=str)
def test_neg_c_kernel_claims_against_the_exact_sum(c):
    # T off the diagonal at random pairs and at pairs near x + y = -1/c with x
    # near 0, where B = 1 + cx + cy changes sign, each within its claim of the
    # exact sum.  T is held at the rounded u = cx and v = cy it sums: with x
    # near 0 and y near -1/c, one rounding of cy alone moves T by up to about
    # l/(|c|x) units
    rng = np.random.default_rng(c.denominator - c.numerator)
    sup, cf = -1 / c, float(c)
    for l, count in ((1, 24), (2, 24), (5, 24), (25, 24), (125, 12), (1200, 1)):
        xs, ys = (float(sup) * rng.random(count)).tolist(), (float(sup) * rng.random(count)).tolist()
        for x in float(sup) * 10.0 ** -rng.uniform(1.0, 8.0, count // 2 + 1):
            y = float(sup - Fraction(x))
            xs += [x] * 3
            ys += [math.nextafter(y, 0.0), y, math.nextafter(y, 4.0)]
        if c == -1:
            xs, ys = xs + [1.0e-4], ys + [0.9992]
        pairs = [(x, y) for x, y in zip(xs, ys) if max(Fraction(x), Fraction(y)) <= sup]
        rows, _ = evalnum._closed_rows(Params(-c * l, c), *zip(*pairs), RTOL_DEFAULT)
        for (x, y), r in zip(pairs, rows):
            exact = _pair_sum(l, -Fraction(cf * x), -Fraction(cf * y))
            assert r.method is Method.CLOSED_FORM and _claim_holds(r, *exact), (l, x, y, r)


# ---------------------------------------------------------------------------
# c = 0: S and T on the tanh-sinh rule
# ---------------------------------------------------------------------------


def _szasz_s(mpmath, mu):
    """exp(-2 mu) I0(2 mu) at 40 digits, mu = n x exactly as the route forms it."""
    with mpmath.workdps(40):
        return mpmath.besseli(0, 2 * mpmath.mpf(mu)) * mpmath.exp(-2 * mpmath.mpf(mu))


_SZASZ_MUS = [10.0 ** (-3 + i / 24) for i in range(12 * 24 + 1)]


def test_szasz_quadrature_sweep_against_mpmath():
    # n x from 1e-3 to 1e9 at 24 points per decade: every point within its
    # claim of the 40-digit value, the rule's cut ends and rounding included
    mpmath = pytest.importorskip("mpmath")
    for n in (1, 25):
        xs = [mu / n for mu in _SZASZ_MUS]
        for x, q in zip(xs, s_quad_grid(Params(n, 0), xs)):
            assert q.method is Method.QUADRATURE
            _assert_within_claims(_szasz_s(mpmath, n * x), (q,))


def test_szasz_closed_form_claims_against_mpmath():
    # the I0 power series up to 2 n x = 600 is the series route's sum and
    # claims its model, 5 units of 2^-53 per summed term, 3 more and the
    # tail's 1e-16 (within 0.17 of that; its old claim of 1e-15 was missed
    # by up to 25 times), and the Hankel value past it 1e-15
    mpmath = pytest.importorskip("mpmath")
    zs = [600.0 * (i / 120) ** 2 for i in range(1, 121)] + [600.0 * m for m in (0.99999, 1.00001, 1.001, 1.5, 10.0)]
    for n in (1, 2, 5, 10, 25):
        xs = [z / (2 * n) for z in zs]
        for x, r in zip(xs, s_closed_grid(Params(n, 0), xs)):
            assert r.method is Method.CLOSED_FORM
            _assert_within_claims(_szasz_s(mpmath, n * x), (r,))


def test_szasz_quadrature_never_reaches_the_cap():
    # the tanh-sinh rule needs at most 1024 nodes up to n x = 1e9, so the c = 0
    # ladder never meets LADDER_MAX and every claim is finite
    xs = _SZASZ_MUS + [1e9]
    for q in s_quad_grid(Params(1, 0), xs):
        assert q.terms_or_nodes <= 1024 < LADDER_MAX and math.isfinite(q.err_estimate)
    assert max(_first(Params(1, 0), x) for x in xs) == 512


def test_legendre_recurrence_past_its_cap_raises_at_once():
    # a = 10^300 (c = 10^-300, n = 1) ran the recurrence's 10^300 steps, and
    # l = 10^6 its 8 s; past _LEGENDRE_STEPS each raises before the loop.
    # A child process bounds the run, so a loop that starts fails the test
    code = (
        "from fractions import Fraction\n"
        "from sqsums import Params, s_closed, t_closed\n"
        "big = Params(1, Fraction(1, 10 ** 300)), Params(10 ** 6, -1), Params(Fraction(100001, 2), Fraction(1, 2))\n"
        "for params in big:\n"
        "    for route, args in ((s_closed, (0.5,)), (t_closed, (0.5, 0.25))):\n"
        "        try:\n"
        "            route(params, *args)\n"
        "        except ArithmeticError as exc:\n"
        "            assert 'Legendre' in str(exc), exc\n"
        "        else:\n"
        "            raise AssertionError(params)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(evalnum.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=20)


def test_neg_c_series_past_its_cap_raises_before_building(monkeypatch):
    # l + 1 terms past _NEG_C_TERMS raise at each x > 0 before a list is
    # built (l = 10^300 at c = -1e-300, n = 1, would fill the memory), x = 0
    # still reads 1; below the cap the sum keeps its bits
    assert evalnum._NEG_C_TERMS > 8191  # every index the tests run is below it
    params = Params(evalnum._NEG_C_TERMS, -1)
    got = s_series_grid(params, [0.0, 0.5, 1.0])
    assert got[0] == s_series(params, 0.0) and got[0].value == 1.0
    for r in got[1:]:
        assert isinstance(r, ArithmeticError) and str(r) == (
            f"the c < 0 series at l = {params.l} takes {params.l + 1} terms, past its cap of {evalnum._NEG_C_TERMS}")
    small = Params(9, -1)
    want = s_series(small, 0.25)
    monkeypatch.setattr(evalnum, "_NEG_C_TERMS", 10)
    assert s_series(small, 0.25) == want
    monkeypatch.setattr(evalnum, "_NEG_C_TERMS", 9)
    with pytest.raises(ArithmeticError, match="past its cap of 9"):
        s_series(small, 0.25)


def test_a_kernel_overflow_names_its_route():
    # a square that overflows in the certified-series kernel reaches the
    # route as an OverflowError naming the route and the square, where it
    # read "(34, 'Numerical result out of range')"
    with pytest.raises(OverflowError, match=(
            r"^series route: \(\(n \+ kc\)/\(k \+ 1\)\)\^2 in the c > 0 term ratio is past the double range$")):
        s_series(Params(10 ** 200, 1), 1e-300)
    with pytest.raises(OverflowError, match=(
            r"^closed-form route: \(\(a \+ k\)/\(k \+ 1\)\)\^2 in the term ratio of 2F1\(a, a; 1; z\) "
            r"is past the double range$")):
        s_closed(Params(10 ** 155, 3), 1e-154)
    # cx = inf away from whole 2a, where the peak raised "cannot convert
    # float infinity to integer"
    with pytest.raises(OverflowError, match=r"^1 \+ 2cx is past the double range$"):
        s_series(Params(Fraction(1, 3), 10 ** 200), 1e200)


def test_szasz_closed_form_past_the_double_range_raises():
    # where 2nx (2n sqrt(x) sqrt(y) off the diagonal) overflows, the c = 0
    # closed form raises OverflowError, as c > 0 does where 1 + 2cx does,
    # rather than return nan from exp(z - z) at z = inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, x in ((Params(1, 0), 1e308), (Params(3, 0), 1.7e308)):
            with pytest.raises(OverflowError):
                s_closed(params, x)
            with pytest.raises(OverflowError):
                t_closed(params, x, x)
        with pytest.raises(OverflowError):
            t_closed(Params(1, 0), 1e308, 1.7e308)
        below, over = s_closed_grid(Params(1, 0), [1e307, 1e308])
        assert below.value == pytest.approx((4.0 * math.pi * 1e307) ** -0.5, rel=1e-15)
        assert isinstance(over, OverflowError)
        assert t_closed(Params(1, 0), 1e308, 1e300) == 0.0


def _szasz_t(mpmath, n, x, y):
    with mpmath.workdps(40):
        rx, ry = mpmath.sqrt(mpmath.mpf(x)), mpmath.sqrt(mpmath.mpf(y))
        return _szasz_s(mpmath, n * rx * ry) * mpmath.exp(-n * (rx - ry) ** 2)


def test_szasz_kernel_quadrature_against_mpmath():
    # t_quad and t_closed at c = 0, on and off the diagonal, against
    # exp(-n (sqrt(x) - sqrt(y))^2) exp(-2 mu) I0(2 mu), mu = n sqrt(xy), at
    # 40 digits.  Both round the exponent n (sqrt(x) - sqrt(y))^2, a few units
    # of its size, and form sqrt(x) - sqrt(y) as (x - y)/(sqrt(x) + sqrt(y)).
    # Below z = 600 t_closed's I0 power series is off by up to about 3e-14;
    # on these cases t_closed was within 1.54e-14 more than the rounding (it
    # took 2.6e-11 more near the diagonal when it subtracted rounded roots)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    cases = [(1, 0.25, 0.25), (2, 0.4, 1.3), (5, 1e3, 1e3), (1, 1e8, 1e8), (25, 1e-3, 2.0)]
    for _ in range(120):
        n = int(rng.choice([1, 2, 5, 25]))
        x = 10.0 ** rng.uniform(-3, 8)
        y = [x, x * (1.0 + rng.uniform(-1e-2, 1e-2)), 10.0 ** rng.uniform(-3, 8)][rng.integers(3)]
        cases.append((n, x, y))
    for n, x, y in cases:
        want = _szasz_t(mpmath, n, x, y)
        if want < 1e-300:
            continue
        d = abs(math.sqrt(x) - math.sqrt(y))
        rounding = 1e-15 + 2.0 ** -50 * n * d * d
        q = t_quad(Params(n, 0), x, y, m=1024)
        assert abs(q - want) <= rounding * want, (n, x, y, q)
        t = t_closed(Params(n, 0), x, y)
        assert abs(t - want) <= (rounding + 2e-14) * want, (n, x, y, t)


def _exact_t(params, x, y):
    """T(x, y) as an exact finite sum at the float inputs, with u = |c|x and
    v = |c|y: sum_k C(l,k)^2 (uv)^k ((1-u)(1-v))^(l-k) at every c < 0, and
    at c = 1 with integer n Euler's transformation of 2F1(n, n; 1; rho),
    ((1+x)(1+y))^(-n) (1-rho)^(1-2n) sum_(k<n) C(n-1,k)^2 rho^k with
    rho = xy/((1+x)(1+y)); None elsewhere.

    At c < 0 u and v are the doubles the routes form, as in the sweep of
    ``_NEG_C_ROUNDING`` (exact at c = -1 and -1/2): near y = -1/c, T is
    ill-conditioned in 1 - v, and the rounding of cy alone moved it by
    1.9e-12 at c = -1/3, l = 30, x = 0.1, y = 3 - 1.2e-10."""
    c, x, y = params.c, Fraction(x), Fraction(y)
    if c < 0:
        l, u, v = params.l, -Fraction(params.c_float * float(x)), -Fraction(params.c_float * float(y))
        return sum(math.comb(l, k) ** 2 * (u * v) ** k * ((1 - u) * (1 - v)) ** (l - k) for k in range(l + 1))
    if c == 1 and params.n.denominator == 1:
        n, rho = int(params.n), x * y / ((1 + x) * (1 + y))
        series = sum(math.comb(n - 1, k) ** 2 * rho ** k for k in range(n))
        return ((1 + x) * (1 + y)) ** -n * (1 - rho) ** (1 - 2 * n) * series
    return None


def _oracle_t(mpmath, params, x, y):
    """T(x, y) exactly where ``_exact_t`` has it, else at 40 digits: the
    c = 0 Bessel form, or ((1+u)(1+v))^(-a) 2F1(a, a; 1; z) at c > 0."""
    exact = _exact_t(params, x, y)
    if exact is not None:
        return exact
    if params.c == 0:
        return _szasz_t(mpmath, params.n_float, x, y)
    with mpmath.workdps(40):
        c = _mpf(mpmath, params.c)
        a, u, v = _mpf(mpmath, params.n) / c, c * _mpf(mpmath, x), c * _mpf(mpmath, y)
        return mpmath.hyp2f1(a, a, 1, u * v / ((1 + u) * (1 + v)), maxterms=10 ** 6) / ((1 + u) * (1 + v)) ** a


def _kernel_sweep():
    """(params, x, y) of the kernel sweep: the table of t_quad errors in
    ROADMAP.md, both sides of Z_SWITCH and _EXP_GUARD on and off the
    diagonal, and random pairs at each c, near c < 0's endpoint and its
    x + y = -1/c among them."""
    cases = [
        (Params(n, c), x, y)
        for n, c, x, y in [(1, 1, 100.0, 100.0), (5, 1, 30.0, 10.0), (25, 1, 100.0, 100.0),
                           (25, 1, 1000.0, 500.0), (5, 2, 1000.0, 500.0), (5, 0, 1000.0, 500.0)]
    ]
    cases += [(Params(n, c), x, y) for n, c, x, y in _hand_over_cases()]
    # off the diagonal at y = 2x: z = (u/(1+u)) (v/(1+v)) past Z_SWITCH,
    # and a (log1p(u) + log1p(v)) past _EXP_GUARD
    for n, c in [(Fraction(4, 3), 1), (Fraction(7, 3), Fraction(1, 2)), (Fraction(801, 4), 1), (Fraction(2102, 3), 2)]:
        a, cf = float(n / c), float(c)
        if a < 100:
            at = _first_float(
                lambda x: cf * x / (1.0 + cf * x) * (cf * 2.0 * x / (1.0 + cf * 2.0 * x)) > Z_SWITCH, 1.0, 1e4)
        else:
            at = _first_float(lambda x: -a * (math.log1p(cf * x) + math.log1p(cf * 2.0 * x)) < -_EXP_GUARD, 1e-3, 1e3)
        cases += [(Params(n, c), x, 2.0 * x) for x in (math.nextafter(at, 0.0), at)]
    rng = np.random.default_rng(33)
    for c, ns in [
        (Fraction(-1), [1, 3, 25, 120]),
        (Fraction(-1, 2), [Fraction(5, 2), 12]),
        (Fraction(-1, 3), [Fraction(7, 3), 10]),
        (Fraction(0), [1, 5, 25]),
        (Fraction(1, 3), [Fraction(1, 9), Fraction(7, 3), 5]),
        (Fraction(1, 2), [Fraction(1, 4), 3, Fraction(61, 2)]),
        (Fraction(1), [1, 5, 25, Fraction(5, 2), Fraction(4, 3)]),
        (Fraction(2), [5, 7, Fraction(9, 4)]),
    ]:
        for n in ns:
            params = Params(n, c)
            for _ in range(6):
                if c < 0:
                    end = float(-1 / c)
                    x = end * rng.uniform()
                    # anywhere, near x + y = -1/c, or near the end
                    ys = [end * rng.uniform(), end - x * rng.uniform(0.99, 1.01)]
                    y = (ys + [end * (1 - 10.0 ** rng.uniform(-12, -2))])[rng.integers(3)]
                else:
                    x = 10.0 ** rng.uniform(-3, 6)
                    y = [10.0 ** rng.uniform(-3, 6), x * 10.0 ** rng.uniform(-0.3, 0.3)][rng.integers(2)]
                cases.append((params, x, min(y, float(params.domain_sup)) if c < 0 else y))
    return cases


def test_kernel_routes_against_exact_and_mpmath():
    # t_quad and t_closed off the diagonal against the exact T at c < 0 and
    # at c = 1 with integer n, and 40-digit mpmath elsewhere, all at the
    # float inputs.  t_quad is within (|a| + 16) 1e-15 at c != 0, a = n/c,
    # and at c = 0 within 1e-15, plus the rounding its pair's factor
    # claims (off the diagonal at c = 0, that of the exponent of
    # exp(-n (sqrt(x) - sqrt(y))^2)); t_closed within the claim of its pair
    # row.  A T below the normal range is left out, where a relative bound
    # means nothing
    mpmath = pytest.importorskip("mpmath")
    for params, x, y in _kernel_sweep():
        want = _oracle_t(mpmath, params, x, y)
        if want < 1e-300:
            continue
        spread = evalnum._s_quad_plan(params, evalnum._twice_a(params)).pair(x, y)[2]
        (row,), _ = evalnum._closed_rows(params, [x], [y], RTOL_DEFAULT)
        assert row.value == t_closed(params, x, y)
        bounds = [((abs(params.n / params.c) + 16) * 1e-15 if params.c else 1e-15) + spread,
                  row.err_estimate / row.value]
        for name, got, claim in zip(("t_quad", "t_closed"), (t_quad(params, x, y), row.value), bounds):
            if isinstance(want, Fraction):
                err = abs(Fraction(got) / want - 1)
            else:
                with mpmath.workdps(40):
                    err = abs(mpmath.mpf(got) / want - 1)
            assert err <= claim, (name, params, x, y, got, float(err))


def test_szasz_pair_rows_claim_the_rounding_of_their_factor():
    # off the diagonal at c = 0 both pair rows scale by exp(-n e), e =
    # ((x - y)/(sqrt(x) + sqrt(y)))^2, whose exponent rounds by a few units
    # of its size, and each claim covers it: the closed row was 2.3e-14 off
    # with a claim of 1e-15 of the value where it left that out
    mpmath = pytest.importorskip("mpmath")
    params, x, y = Params(5, 0), 1000.0, 500.0
    want = _szasz_t(mpmath, 5, x, y)
    (closed,), _ = evalnum._closed_rows(params, [x], [y], RTOL_DEFAULT)
    (quad,), _ = evalnum._quad_grid(params, [x], [y], LADDER_START, RTOL_DEFAULT)
    for name, row in (("closed", closed), ("quadrature", quad)):
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(row.value) - want)
        assert err <= row.err_estimate, (name, row, float(err))


def test_tanh_sinh_levels_have_the_bits_of_the_rule():
    # each level is built once and reused; the concatenated levels have the
    # bits of every node formed in one array
    ms = np.array([2, 3, 32, 64, 64, 128, 4096, 64])
    m = np.repeat(ms, ms)
    j = np.arange(m.size) - np.repeat(np.cumsum(ms) - ms, ms)
    tau = (j - (m - 1) / 2.0) * (9.0 / m)
    half = (math.pi / 2.0) * np.sinh(tau)
    nodes, weights = _tanh_sinh_rule(ms)
    assert np.array_equal(nodes, 1.0 / (1.0 + np.exp(2.0 * half)))
    assert np.array_equal(weights, 4.5 * np.cosh(tau) / np.cosh(half))


def _kernel_by_legendre(mpmath, n, c, x, y):
    """T = P_(a-1)(W)/B^a, B = 1 + u + v, W = 1 + 2uv/B, at 60 digits (z
    is too close to 1 for the hypergeometric series at the top of the
    double range)."""
    with mpmath.workdps(60):
        a = _mpf(mpmath, n) / _mpf(mpmath, c)
        u, v = _mpf(mpmath, c) * _mpf(mpmath, x), _mpf(mpmath, c) * _mpf(mpmath, y)
        b = 1 + u + v
        return mpmath.legenp(a - 1, 0, 1 + 2 * u * v / b, type=3) / b ** a


def test_t_closed_far_out_at_non_half_integer_a():
    # where 2a is not whole and (1+cx)(1+cy) overflows, z is formed as
    # (u/(1+u)) (v/(1+v)) and the point hands over to the ladder.  It is
    # within RTOL_DEFAULT of the Legendre function at a >= 1; at a < 1 the
    # integrand's peak near sigma = s^2 lies past the rule's reach there and
    # the ladder raises; where 1 + cx + cy overflows, T raises OverflowError
    mpmath = pytest.importorskip("mpmath")
    for n, c, x in [(Fraction(8, 3), 2, 1e200), (Fraction(4, 3), Fraction(1, 2), 1.7e308), (Fraction(7, 3), 1, 1e17)]:
        want = _kernel_by_legendre(mpmath, n, c, x, x / 3)
        assert abs(t_closed(Params(n, c), x, x / 3) / want - 1) <= RTOL_DEFAULT
    for n, c, x in [(Fraction(2, 3), 2, 1e200), (Fraction(1, 3), Fraction(1, 2), 1.7e308), (Fraction(1, 3), 1, 1e19)]:
        with pytest.raises(ArithmeticError, match="reach of the tanh-sinh rule"):
            t_closed(Params(n, c), x, x / 3)
    with pytest.raises(OverflowError):
        t_closed(Params(Fraction(2, 3), 2), 1.7e308, 1.7e308 / 3)
    # on the diagonal the hand-over is S's own ladder
    assert t_closed(Params(Fraction(1, 3), 1), 1e17, 1e17) == ref_t_closed_pos_c(Params(Fraction(1, 3), 1), 1e17, 1e17)


def test_subnormal_legendre_claim_against_mpmath():
    # below the normal range each degree of the recurrence rounds to the
    # subnormal grid; the claim is max(1e-15 (a+1) S, terms 2^-1074)
    mpmath = pytest.importorskip("mpmath")
    for n, c, x in [(Fraction(25, 4), Fraction(1, 2), 1.7e308), (Fraction(25, 2), 1, 8e307), (25, 2, 4e307)]:
        (r,) = s_closed_grid(Params(n, c), [x])
        assert 0.0 < r.value < 2.0 ** -1022 and r.terms_or_nodes == 13
        assert r.err_estimate == 13 * 2.0 ** -1074
        with mpmath.workdps(40):
            u = _mpf(mpmath, c) * _mpf(mpmath, x)
            want = mpmath.legendre(mpmath.mpf(23) / 2, 1 + 2 * u * u / (1 + 2 * u)) / (1 + 2 * u) ** (mpmath.mpf(25) / 2)
        _assert_within_claims(want, (r,))


# ---------------------------------------------------------------------------
# Every bit of the five float routes
# ---------------------------------------------------------------------------


def _bit_pin_cases():
    """(params, xs) on which the five float routes are pinned: the
    criterion-1 battery and both sides of every switch of the routes."""
    cases = []
    for c, ns in [
        (Fraction(-1), [1, 2, 5, 10, 25]),
        (Fraction(-1, 2), [Fraction(l, 2) for l in (1, 2, 5, 10, 25)]),
        (Fraction(0), [1, 2, 5, 10, 25]),
        (Fraction(1), [1, 2, 5, 10, 25]),
        (Fraction(2), [1, 2, 5, 10, 25]),
    ]:
        for n in ns:
            params = Params(n, c)
            hi = float(params.domain_sup) if params.domain_sup is not None else 20.0
            cases.append((params, [hi * i / 100 for i in range(101)]))
    # Z_SWITCH and _EXP_GUARD of the closed form where 2a is not whole
    cases += [(Params(n, c), [x, y]) for n, c, x, y in _hand_over_cases()]
    # _EXP_GUARD of the c > 0 series walk and its peak window
    for n, c in [(300, 1), (Fraction(801, 4), 1), (Fraction(2102, 3), 2)]:
        nf, cf = float(n), float(c)
        cases.append((Params(n, c), _switch_sides(lambda x: -2.0 * (nf / cf) * math.log1p(cf * x) < -_EXP_GUARD, 1e-3, 1e3)))
    # mu = 300 of the c = 0 series, z = 600 of its closed form, and each
    # edge of the c = 0 ladder's start
    for n in (1, 7):
        xs = _switch_sides(lambda x: n * x > 300.0, 0.0, 1e3)
        xs += _switch_sides(lambda x: 2.0 * n * x > evalnum._HANKEL_Z, 0.0, 1e3)
        for edge in (0.1, 5.0, 150.0, 4e4):
            xs += _switch_sides(lambda x: n * x >= edge, 0.0, 1e6)
        cases.append((Params(n, 0), xs))
    # far_u = max(64, 4a) of the c > 0 series at whole 2a
    for n, c in [(2, 1), (60, 1), (Fraction(121, 4), Fraction(1, 2)), (5, 2)]:
        two_a, cf = int(2 * Fraction(n) / Fraction(c)), float(c)
        far_u = max(evalnum._FAR_U, 2.0 * two_a)
        cases.append((Params(n, c), _switch_sides(lambda x: cf * x >= far_u, 0.0, 1e4)))
    # a first level at LADDER_MAX
    cases.append((Params(8190, -1), [0.0, 0.5, 0.75]))
    # points that raise: outside the domain, past the double range, and
    # past the reach of the tanh-sinh rule
    cases += [(Params(5, -1), [-0.5, 1.5]), (Params(1, 0), [1e307, 1e308]), (Params(Fraction(1, 3), 1), [1e19, 1e19 / 3])]
    return cases


def _bits(outcome) -> str:
    if isinstance(outcome, Exception):
        return repr(outcome)
    if isinstance(outcome, float):
        return outcome.hex()
    return f"{outcome.value.hex()} {outcome.err_estimate.hex()} {outcome.terms_or_nodes}"


def _pairs(xs):
    """Each point with itself and with the next point."""
    return [(x, x) for x in xs] + list(zip(xs, xs[1:]))


def _route_bits(route: str) -> list:
    out = []
    for params, xs in _bit_pin_cases():
        if route.startswith("s_"):
            out += map(_bits, getattr(evalnum, route)(params, xs))
        else:
            out += [_bits(_outcome_of(getattr(evalnum, route), params, x, y)) for x, y in _pairs(xs)]
    return out


def _outcome_of(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return exc


# sha256 of every value, err_estimate and terms_or_nodes (the value alone
# for T), or exception repr, over ``_bit_pin_cases``: recorded before S's
# quadrature moved to one plan per parameter pair.  t_quad's entry was
# re-recorded when T's quadrature became S's plan at a pair parameter
# (5c8c5144... before): 4589 of its 5148 outcomes moved, and its worst
# |t_quad/t_closed - 1| fell from 1.0 to 2.2e-12 (l = 8190); at c = 0,
# x = y = 1e307 and 1e308 it now raises ArithmeticError where it returned 0
FLOAT_ROUTE_BITS = {
    "s_series_grid": "f4ddf3ee1c4f23295fd4a7513186ded71a8068493bc9d64dd8e424bd788fa980",
    "s_closed_grid": "84ad1b78bff3a8933d28489a2e1129a1acf7056f744b2e16522652e9fa0f0a3e",
    "s_quad_grid": "7ee04deb7d00bcf9f9dfad4bdcc8201f71d595691017902aa30329e9e9994a4e",
    "t_closed": "2e042ea7cb370f66b70d78581546d1e40c83771dc0574a4d687c6ec2d6057752",
    "t_quad": "7ef4ec94e3592c07e2df74f6083b66b6262dcaac242aa82c15fecd63bdfe8f8b",
}


@pytest.mark.parametrize("route", list(FLOAT_ROUTE_BITS))
def test_float_routes_keep_every_bit(route):
    digest = hashlib.sha256("\n".join(_route_bits(route)).encode()).hexdigest()
    assert digest == FLOAT_ROUTE_BITS[route]
