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
    RuleKind,
    Z_SWITCH,
    _EXP_GUARD,
    _chebyshev_nodes,
    _means,
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
from sqsums.exactalg import f_value


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
        nodes = _chebyshev_nodes(RuleKind.CHEBYSHEV_01, np.array([m]))
        for j in range(1, m + 1):
            expect = (1 + math.cos((2 * j - 1) * math.pi / (2 * m))) / 2
            assert nodes[j - 1] == pytest.approx(expect, rel=1e-15)
        nodes = _chebyshev_nodes(RuleKind.CHEBYSHEV_M11, np.array([m]))
        assert np.allclose(np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m)), nodes)
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
        want = [float(np.mean(f(_chebyshev_nodes(kind, np.array([m])), np.full(m, p)))) for p, m in pairs]
        assert got == want


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
                    assert (r.err_estimate == 0.0) == (Fraction(x) == -1 / c)
                    inexact += Fraction(x) != -1 / c
        assert inexact >= 2 * 5

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

    @pytest.mark.parametrize(
        "n, x, quadrature",
        [(1, 398.0, False), (1, 400.0, True), (200, 4.5, False), (200, 4.7, True)],
    )
    def test_hand_over_against_mpmath(self, n, x, quadrature):
        # both sides of Z_SWITCH (n = 1) and of _EXP_GUARD (n = 200), c = 1
        mpmath = pytest.importorskip("mpmath")
        z = (x / (1.0 + x)) ** 2
        pref_log = -2.0 * n * math.log1p(x)
        assert (z > Z_SWITCH or pref_log < -_EXP_GUARD) is quadrature
        with mpmath.workdps(40):
            u = mpmath.mpf(x)
            want = mpmath.hyp2f1(n, n, 1, (u / (1 + u)) ** 2) / (1 + u) ** (2 * n)
            assert abs(t_closed(Params(n, 1), x, x) / want - 1) <= 1e-10

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
    # each rule's nodes, built on their own by the textbook expressions
    ms = np.array([2, 3, 16, 17, 100, 4096, 16])
    for m, m11, m01 in zip(
        ms,
        np.split(_chebyshev_nodes(RuleKind.CHEBYSHEV_M11, ms), np.cumsum(ms)[:-1]),
        np.split(_chebyshev_nodes(RuleKind.CHEBYSHEV_01, ms), np.cumsum(ms)[:-1]),
    ):
        j = np.arange(1, m + 1)
        assert np.array_equal(m11, np.cos((2 * j - 1) * np.pi / (2 * m)))
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
