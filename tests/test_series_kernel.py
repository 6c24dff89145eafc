"""The row-batched certified-series kernel against the loops it replaced.

Each reference below is the term-by-term loop that summed its series
before the certified-series kernel (``core._certified_rows``) existed,
kept verbatim.  The kernel promises the same bits for every row of a
batch: equal values, tails and term counts, and the same exception at the
same point.
"""

import math
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqsums import core, evalnum
from sqsums.core import Params, basis_sum
from sqsums.evalnum import (
    Method,
    Z_SWITCH,
    _EXP_GUARD,
    bessel_i0,
    bessel_i0e,
    s_closed,
    s_series,
    s_series_grid,
)


def _i0_series(z, rtol=1e-16):
    """The kernel's direct even series sum_k (z^2/4)^k / (k!)^2 at one z."""
    return evalnum._one(evalnum._i0_rows([z], rtol))


def _hyp2f1_tail(a, z, rtol, max_terms):
    """The kernel's diagonal hypergeometric series at one z."""
    return evalnum._one(evalnum._hyp2f1_rows(a, [z], rtol, max_terms))


# ---------------------------------------------------------------------------
# The five reference loops
# ---------------------------------------------------------------------------


def ref_hyp2f1_tail(a, z, rtol, max_terms):
    total = 1.0
    term = 1.0
    for k in range(max_terms):
        term *= ((a + k) / (k + 1.0)) ** 2 * z
        total += term
        r = max(((a + k + 1) / (k + 2.0)) ** 2 * z, z)
        if r < 1.0:
            tail = term * r / (1.0 - r)
            if tail <= rtol * total:
                return total, tail, k + 2
    raise ArithmeticError(f"series did not converge within {max_terms} terms")


def ref_i0_series(z, rtol):
    q = z * z / 4.0
    total = 1.0
    term = 1.0
    k = 0
    while True:
        term *= q / ((k + 1.0) ** 2)
        total += term
        k += 1
        r = q / ((k + 1.0) ** 2)
        if r < 1.0 and term * r / (1.0 - r) <= rtol * total:
            return total, k + 1
        if k > 10 ** 6:
            raise ArithmeticError("Bessel series did not converge")


def ref_szasz_series(mu, rtol):
    """The c = 0 loop of s_series (mu <= 300): (total, tail, terms)."""
    total = 1.0
    term = 1.0
    k = 0
    while True:
        term *= (mu / (k + 1.0)) ** 2
        total += term
        k += 1
        r = (mu / (k + 1.0)) ** 2
        if r < 1.0 and term * r / (1.0 - r) <= rtol * total:
            tail = term * r / (1.0 - r)
            return total, tail, k + 1


def ref_pos_c_series(n, c, rr, zlim, rtol):
    """The c > 0 loop of s_series: (total, tail, terms)."""
    total = 1.0
    term = 1.0
    k = 0
    tail = math.inf
    while True:
        term *= ((n + k * c) / (k + 1.0)) ** 2 * rr
        total += term
        k += 1
        r = max(((n + k * c) / (k + 1.0)) ** 2 * rr, zlim)
        if r < 1.0:
            tail = term * r / (1.0 - r)
            if tail <= rtol * total:
                break
        if k > 2 * 10 ** 6:
            raise ArithmeticError("series did not converge; use the quadrature route")
    return total, tail, k + 1


def ref_sum_unimodal_scaled(ratio_up, ratio_down, k0, tol, up_sup=0.0, max_terms=10 ** 7):
    acc = 1.0
    terms = 1
    t = 1.0
    k = k0
    while terms < max_terms:
        r = ratio_up(k)
        t *= r
        k += 1
        acc += t
        terms += 1
        r_next = max(ratio_up(k), up_sup)
        if r_next < 1.0 and t * r_next / (1.0 - r_next) <= tol * acc:
            break
    t = 1.0
    k = k0
    while k > 0 and terms < max_terms:
        r = ratio_down(k)
        t *= r
        k -= 1
        acc += t
        terms += 1
        if k == 0:
            break
        r_next = ratio_down(k)
        if r_next < 1.0 and t * r_next / (1.0 - r_next) <= tol * acc:
            break
    return acc, terms


def one_row(ratio, k0, tol, max_steps=None, **kwargs):
    """One series through the row kernel, reported as the loops did:
    (sum, tail, steps) with tail None at the cap; an overflowing square
    raises OverflowError."""
    rows = core._certified_rows(ratio, float(k0), tol, max_steps, **kwargs)
    if rows.overflow[0]:
        raise OverflowError(34, "Numerical result out of range")
    return rows.total[0], rows.tail[0], rows.steps[0]


def one_walk(ratio_up, ratio_down, k0, tol, max_terms=10 ** 7):
    """One sequence through the window kernel at a peak term of 1 and a
    term cap of max_terms: (exp(log(scaled sum)), number of terms); an
    overflowing square raises OverflowError, a walk at the cap
    ArithmeticError."""
    with mock.patch.object(core, "_WINDOW_TERMS", max_terms):
        return core._one(core._window_rows([(k0, 0.0)], ratio_up, ratio_down, tol))


def ref_window(ratio_up, ratio_down, k0, tol, max_terms=10 ** 7):
    """The reference walk as the window kernel reports it at a peak term of 1."""
    scaled, terms = ref_sum_unimodal_scaled(ratio_up, ratio_down, k0, tol, max_terms=max_terms)
    if terms >= max_terms:
        raise ArithmeticError(f"peak window did not converge within {max_terms} terms")
    return math.exp(0.0 + math.log(scaled)), terms


def _outcome(f, *args):
    try:
        return ("value", f(*args))
    except ArithmeticError as exc:
        return (type(exc), str(exc))


_RTOLS = st.sampled_from([1e-16, 1e-15, 1e-13, 1e-10, 1e-6, 1e-2])


# ---------------------------------------------------------------------------
# Kernel against references
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.floats(0.01, 3.0), st.floats(0.0, 60.0), st.integers(1, 40).map(float)),
    st.one_of(st.floats(0.0, 0.999), st.floats(0.9, 0.99999), st.floats(1e-300, 1e-3)),
    _RTOLS,
    st.one_of(st.just(20000), st.integers(0, 300)),
)
# the certificate's (a + k) + 1 rounds differently from the next ratio's a + (k + 1)
@example(2.4200926070971116, 0.48262632937968614, 1e-16, 20000)
def test_hyp2f1_tail_matches_loop(a, z, rtol, max_terms):
    assume(a > 0.0 and z > 0.0)  # a = 0 terminates and z = 0 returns at once
    assert _outcome(_hyp2f1_tail, a, z, rtol, max_terms) == _outcome(
        ref_hyp2f1_tail, a, z, rtol, max_terms
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(0.0, 600.0), st.floats(0.0, 5.0)), st.sampled_from([1e-16, 1e-13, 1e-8]))
def test_i0_series_matches_loop(z, rtol):
    assert _i0_series(z, rtol) == ref_i0_series(z, rtol)


def _far(params, x):
    """Whether the c > 0 series sums its expansion about z = 1 at x, which
    no loop summed: u = cx at or past max(64, 4a) at whole 2a."""
    two_a = evalnum._twice_a(params)
    return bool(two_a) and params.c_float * x >= max(evalnum._FAR_U, 2.0 * two_a)


def _series_expect(params, x, rtol):
    """What s_series returned through the reference loops (c >= 0)."""
    n, c = params.n_float, params.c_float
    rtol = max(1e-16, 1e-3 * rtol)
    if c == 0.0:
        mu = n * x
        assert mu <= 300.0
        pref = math.exp(-2.0 * mu)
        total, tail, terms = ref_szasz_series(mu, rtol)
        # the tail, and 5 units per term and 3 more of rounding
        err = pref * tail + 2.0 ** -53 * (5 * terms + 3) * (pref * total)
        return evalnum.EvalResult(pref * total, Method.SERIES, err, terms)
    u = c * x
    pref_log = -(2.0 * n / c) * math.log1p(u)
    assert pref_log >= -_EXP_GUARD
    rr = (x / (1.0 + u)) ** 2
    zlim = (c * x / (1.0 + u)) ** 2
    total, tail, terms = ref_pos_c_series(n, c, rr, zlim, rtol)
    pref = math.exp(pref_log)
    # the tail, and the closed form's model: 8 units per term and |pref_log|
    rounding = 1e-15 + 2.0 ** -53 * (8 * terms + abs(pref_log))
    return evalnum.EvalResult(pref * total, Method.SERIES, pref * tail + rounding * pref * total, terms)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([Fraction(c, 6) for c in (0, 2, 3, 6, 12, 14)]),
    st.one_of(
        st.integers(1, 40).map(Fraction),
        st.fractions(Fraction(1, 8), Fraction(60), max_denominator=16),
    ),
    st.one_of(st.floats(1e-6, 20.0), st.floats(1e-300, 1e-6), st.floats(20.0, 400.0)),
    st.sampled_from([1e-12, 1e-15, 1e-9, 1e-20, 1e-4]),
)
def test_s_series_matches_loops(c, n, x, rtol):
    params = Params(n, c)
    while c == 0 and float(n) * x > 300.0:  # the peak window from there
        x = min(300.0 / float(n), math.nextafter(x, 0.0))
    if c > 0 and -(2.0 * float(n) / float(c)) * math.log1p(float(c) * x) < -_EXP_GUARD:
        return  # the peak window: see test_peak_windows_match_loops
    if _far(params, x):
        return  # the expansion about z = 1: see test_evalnum
    assert s_series(params, x, rtol) == _series_expect(params, x, rtol)


def ref_scaled_poisson_sq(mu, tol):
    k0, log_pmf = core._poisson_peak(mu)
    scaled, terms = ref_sum_unimodal_scaled(
        lambda k: (mu / (k + 1.0)) ** 2, lambda k: (k / mu) ** 2, k0, tol
    )
    return math.exp(2.0 * log_pmf + math.log(scaled)), terms


# The c > 0 walks are anchored at Loader's log of the negative binomial
# weight (core._nb_peak), checked against mpmath in test_nb_peak_against_mpmath;
# the loops here pin the walk's bits from that anchor.


def ref_pos_c_series_window(n, c, x, tol):
    rho = x / (1.0 + c * x)
    zlim = (c * rho) ** 2
    k0, log_pmf = core._nb_peak(n / c, c * x)
    log_anchor = 2.0 * log_pmf
    scaled, terms = ref_sum_unimodal_scaled(
        lambda k: ((n + k * c) * rho / (k + 1.0)) ** 2,
        lambda k: (k / ((n + (k - 1) * c) * rho)) ** 2,
        k0,
        tol,
        up_sup=zlim,
    )
    return math.exp(log_anchor + math.log(scaled)), terms


def ref_basis_sum(n, c, x, tol):
    """basis_sum for c >= 0 and x > 0."""
    if c == 0.0:
        mu = n * x
        k0, log_anchor = core._poisson_peak(mu)
        scaled, terms = ref_sum_unimodal_scaled(lambda k: mu / (k + 1.0), lambda k: k / mu, k0, tol)
        return math.exp(log_anchor + math.log(scaled)), terms
    a = n / c
    u = c * x
    r = u / (1.0 + u)
    k0, log_anchor = core._nb_peak(a, u)
    scaled, terms = ref_sum_unimodal_scaled(
        lambda k: (a + k) / (k + 1.0) * r,
        lambda k: k / ((a + k - 1.0) * r),
        k0,
        tol,
        up_sup=r,
    )
    return math.exp(log_anchor + math.log(scaled)), terms


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]),
    st.one_of(st.integers(1, 30).map(float), st.floats(0.2, 40.0)),
    st.one_of(st.floats(1e-3, 50.0), st.floats(50.0, 500.0)),
    st.sampled_from([1e-17, 1e-16, 1e-15, 1e-10]),
)
def test_peak_windows_match_loops(c, n, x, tol):
    if c == 0.0:
        peak = core._poisson_peak(n * x)
        assert evalnum._scaled_poisson_rows([n * x], [peak], tol) == [ref_scaled_poisson_sq(n * x, tol)]
    else:
        peak = core._nb_peak(n / c, c * x)
        assert evalnum._pos_c_window_rows(n, c, [x], [peak], tol) == [ref_pos_c_series_window(n, c, x, tol)]
    assert basis_sum(Params(n, c), x) == ref_basis_sum(n, c, x, 1e-15)


def test_nb_peak_against_mpmath():
    # Loader's log of the negative binomial weight at its peak index
    # against log((a)_k0 r^k0 / (k0! (1+u)^a)) at 40 digits, on both sides of
    # stirlerr's switch at 15 and far past 2^31; the fsum of logs and the
    # lgamma differences it replaced lost about k0 log k0 ulps
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for a in (0.5, 1.0, 1.5, 2.0, 1.0 / 3.0 + 1.0, 6.0, 14.5, 15.0, 16.5, 25.0, 120.0, 300.5):
        for i in range(49):
            u = 10.0 ** (-2 + i / 4.8)
            k0, log_pmf = core._nb_peak(a, u)
            assert k0 == max(0, int((a - 1.0) * u - 1.0))
            with mpmath.workdps(40):
                aa, uu = mpmath.mpf(a), mpmath.mpf(u)
                want = (mpmath.loggamma(aa + k0) - mpmath.loggamma(aa) - mpmath.loggamma(k0 + 1)
                        + k0 * mpmath.log(uu / (1 + uu)) - aa * mpmath.log1p(uu))
            worst = max(worst, abs(log_pmf - float(want)) / max(1.0, abs(float(want))))
    assert worst < 5e-16


@pytest.mark.parametrize("n, c, x, off", [
    (2, Fraction(1, 3), 1e5, 1e-12),  # lgamma differences of size k0 log k0 read 1 + 1.37e-11
    (25, 1, 1e3, 1e-13),  # they read 1 - 8.3e-12
    (1, 2, 1e4, 2e-12),  # k0 = 0: the walk's rounding over the whole weight, 1 - 1.6e-12
])
def test_basis_sum_is_one_from_the_peak(n, c, x, off):
    total, _ = basis_sum(Params(n, c), x)
    assert abs(total - 1.0) < off


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(0.5, 500.0), st.floats(2.0 ** 52, 1e19)), st.integers(0, 400))
def test_sum_unimodal_term_cap(mu, max_terms):
    # past 2^53 the loop's int index k converts to float(k) with rounding
    up, down = (lambda k: core._sq(mu / (k + 1.0))), (lambda k: core._sq(k / mu))
    ref_up, ref_down = (lambda k: (mu / (k + 1.0)) ** 2), (lambda k: (k / mu) ** 2)
    got = _outcome(one_walk, up, down, int(mu), 1e-16, max_terms)
    assert got == _outcome(ref_window, ref_up, ref_down, int(mu), 1e-16, max_terms)


def test_downward_walk_reaches_index_zero():
    # a tolerance no tail meets walks down to index 0, the loop's own stop
    for mu in (3.5, 40.0):
        down, ref_down = (lambda k: k / mu), (lambda k: k / mu)
        got = one_walk(lambda k: mu / (k + 1.0), down, int(mu), 1e-300)
        ref = ref_window(lambda k: mu / (k + 1.0), ref_down, int(mu), 1e-300)
        assert got == ref and got[1] > int(mu)


def test_overflowing_square_raises_like_python():
    # (a)^2 overflows at the first step, where the loop's ** raises
    with pytest.raises(OverflowError):
        ref_hyp2f1_tail(1e200, 1e-300, 1e-15, 10)
    with pytest.raises(OverflowError):
        _hyp2f1_tail(1e200, 1e-300, 1e-15, 10)
    # c = 1e200: (x/(1+cx))^2 underflows to 0, so the overflowed square
    # times it is NaN, not inf; the loop still raised at the square
    n, c, x = 1e6, 1e200, 0.3
    rr, zlim = (x / (1.0 + c * x)) ** 2, (c * x / (1.0 + c * x)) ** 2
    assert rr == 0.0
    with pytest.raises(OverflowError):
        ref_pos_c_series(n, c, rr, zlim, 1e-15)
    with pytest.raises(OverflowError):
        s_series(Params(10 ** 6, 10 ** 200), x)


def test_entries_past_the_stop_stay_silent():
    # c = 2e154: the squared ratio base overflows a few steps after the
    # stop; the loop never computes it, so the kernel must not raise
    n, c, x = 1.0, 2e154, 1e-160
    u = c * x
    rr = (x / (1.0 + u)) ** 2
    zlim = (c * x / (1.0 + u)) ** 2
    expect = ref_pos_c_series(n, c, rr, zlim, 1e-15)
    total, tail, steps = one_row(
        lambda k: core._sq((n + k * c) / (k + 1.0)) * rr, 0, 1e-15, 2 * 10 ** 6 + 1, sup=zlim
    )
    assert (total, tail, steps + 1) == expect


def _block_edges(limit):
    edges, size, done = [], core._BLOCK_FIRST, 0
    while done < limit:
        done += size
        edges.append(done)
        size = min(4 * size, core._BLOCK_LAST)
    return edges


def test_block_boundaries():
    # the ratio drops to 1/2 at index stop - 1, so with tol = 1 the loop
    # stops after stop - 1 steps: on each side of every block edge
    for stop in [1, 2] + [e + d for e in _block_edges(10 ** 4) for d in (0, 1, 2)]:
        def ratio(k, stop=stop):
            return np.where(k + 1 < stop, 1.0, 0.5)

        loop_total, t = 1.0, 1.0
        for k in range(stop + 3):
            t *= float(ratio(np.float64(k)))
            loop_total += t
            r = float(ratio(np.float64(k + 1)))
            if r < 1.0 and t * r / (1.0 - r) <= 1.0 * loop_total:
                break
        total, tail, steps = one_row(ratio, 0, 1.0, stop + 3)
        assert (total, tail, steps) == (loop_total, t * r / (1.0 - r), k + 1)
        assert steps == max(1, stop - 1)
        # a cap one step short of the stop
        total, tail, steps = one_row(ratio, 0, 1.0, k)
        assert tail is None and steps == k


# a = 4/3: 2a is not whole, so the c > 0 series walks at every x, and its
# walk stops on the last step its cap allows at _LAST_STEP_X (found by
# bisection) and caps one float later
_CAPPED = Params(Fraction(4, 3), 1)
_LAST_STEP_X = 107910.16700623253


def test_caps_raise_where_the_loops_did():
    with pytest.raises(ArithmeticError, match="within 5 terms"):
        _hyp2f1_tail(0.5, 0.99, 1e-16, 5)
    # the c > 0 series at x = 1e5 needs more than 2*10^6 terms; 2a is not
    # whole, so the walk runs
    with pytest.raises(ArithmeticError, match="use the quadrature route"):
        s_series(Params(Fraction(16, 3), 1), 1e5)


def test_caps_at_their_last_step():
    # adjacent floats where the loops (run once to find them) stopped on the
    # last step their cap allows and raised one step later
    x = _LAST_STEP_X
    assert s_series(_CAPPED, x).terms_or_nodes == 2 * 10 ** 6 + 2
    with pytest.raises(ArithmeticError, match="use the quadrature route"):
        s_series(_CAPPED, math.nextafter(x, math.inf))
    z = 2000003.9999999998
    assert _i0_series(z) == (math.inf, 10 ** 6 + 2)
    with pytest.raises(ArithmeticError, match="Bessel series did not converge"):
        _i0_series(math.nextafter(z, math.inf))


def test_overflow_checks_only_the_steps_taken():
    def ref(ratio, tol):
        total, term, k = 1.0, 1.0, 0
        while True:
            term *= ratio(k)
            total += term
            r = ratio(k + 1)
            if r < 1.0 and term * r / (1.0 - r) <= tol * total:
                return total, term * r / (1.0 - r), k + 1
            k += 1

    # a square overflows at step 3, after which the sum is inf and the
    # tail test inf <= inf passes: the loop raised at step 3
    with pytest.raises(OverflowError):
        ref(lambda k: (1e200 if k == 3 else 0.5) ** 2, 1e-16)
    with pytest.raises(OverflowError):
        one_row(lambda k: core._sq(np.where(k == 3, 1e200, 0.5)), 0, 1e-16)
    # the sum overflows by multiplication at step 1 and stops there; the
    # square that would overflow at step 5 is never taken
    expect = ref(lambda k: (1e100 if k < 2 else 0.5 if k < 5 else 1e200) ** 2, 1e-16)
    assert expect == (math.inf, math.inf, 2)
    got = one_row(
        lambda k: core._sq(np.where(k < 2, 1e100, np.where(k < 5, 0.5, 1e200))), 0, 1e-16
    )
    assert got == expect


def test_last_certificate_overflow_at_the_cap():
    # the loop forms the certificate of its last step before checking the
    # cap, so a square that overflows there raises before the cap does
    def ratio(k):
        return core._sq(np.where(k < 5, 1.5, 1e200))

    with pytest.raises(OverflowError):
        one_row(ratio, 0, 1e-16, 5)
    assert one_row(ratio, 0, 1e-16, 4) == (1 + 2.25 + 2.25 ** 2 + 2.25 ** 3 + 2.25 ** 4, None, 4)
    # an inf or NaN that no square produced is summed on, as the loop did
    total, tail, steps = one_row(lambda k: np.where(k < 5, 2.0, np.inf), 0, 1e-16, 8)
    assert (total, tail, steps) == (math.inf, None, 8)
    total, tail, steps = one_row(lambda k: np.where(k < 5, 2.0, np.nan), 0, 1e-16, 8)
    assert math.isnan(total) and (tail, steps) == (None, 8)
    # the diagonal series never sums a NaN argument: it raises first
    with pytest.raises(ValueError, match="got z=nan"):
        _hyp2f1_tail(0.5, math.nan, 1e-15, 50)


# ---------------------------------------------------------------------------
# Both sides of every switch the kernel sits behind
# ---------------------------------------------------------------------------


def _around(v):
    return math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)


@pytest.mark.parametrize("n", [1, 3, 25])
def test_szasz_series_straddles_mu_300(n):
    below, at, above = (mu / n for mu in _around(300.0))
    params = Params(n, 0)
    results = []
    for x in (below, at, above):
        got = s_series(params, x)
        if n * x <= 300.0:
            assert got == _series_expect(params, x, 1e-12)
        else:
            assert (got.value, got.terms_or_nodes) == ref_scaled_poisson_sq(n * x, 1e-16)
        results.append(got)
    assert any(n * x > 300.0 for x in (below, at, above))
    low, high = results[0], results[-1]
    assert low.value == pytest.approx(high.value, rel=1e-13)
    assert abs(low.value - high.value) <= low.err_estimate + high.err_estimate


def ref_hankel_i0e(z):
    """exp(-z) I0(z) from the Hankel expansion, its terms by their ratios."""
    terms, term = [], 1.0
    for k in range(1, 12):
        terms.append(term)
        term *= (k - 0.5) ** 2 / (2.0 * k * z)
    return math.fsum(terms) / math.sqrt(2.0 * math.pi * z)


def test_bessel_straddles_z_600():
    below, at, above = _around(600.0)
    for z in (below, at):
        total, _ = ref_i0_series(z, 1e-16)
        assert bessel_i0e(z) == math.exp(-z) * total
    # the closed form (2 n x = z for n = 1): the Hankel side is within its
    # claim of the reference; the series side is off by up to 3e-14 on
    # [100, 600] and claims its rounding per term, so the sides agree to
    # 1e-13 and within their claims
    low, high = s_closed(Params(1, 0), below / 2.0), s_closed(Params(1, 0), above / 2.0)
    assert (low.value, high.value) == (bessel_i0e(below), bessel_i0e(above))
    assert abs(high.value - ref_hankel_i0e(above)) <= high.err_estimate
    assert low.value == pytest.approx(high.value, rel=1e-13)
    assert abs(low.value - high.value) <= low.err_estimate + high.err_estimate


def test_hankel_past_the_overflow_of_2_pi_z():
    # 2 pi z overflows from z = 2.86e307 on; there exp(-z) I0(z) is still
    # (2 pi z)^(-1/2) to 1e-300, not 0, and within the claim at 2 n x = z
    mpmath = pytest.importorskip("mpmath")

    def oracle(z):
        with mpmath.workdps(40):
            return float(1 / mpmath.sqrt(2 * mpmath.pi * mpmath.mpf(z)))

    edge = sys.float_info.max / (2.0 * math.pi)
    for z in (edge, math.nextafter(edge, math.inf), 3e307, 1.6e308, sys.float_info.max):
        assert bessel_i0e(z) == pytest.approx(oracle(z), rel=1e-15)
    for x in (1.5e307, 8e307):
        r = s_closed(Params(1, 0), x)
        assert r.value > 0.0 and abs(r.value - oracle(2.0 * x)) <= r.err_estimate


def test_bessel_i0_straddles_z_600_and_saturates():
    # both sides of z = 600, z = 700 and the last finite value; the oracle
    # splits exp(z) in halves so that it overflows no earlier
    special = pytest.importorskip("scipy.special")

    def oracle(z):
        half = math.exp(z / 2.0)
        return half * float(special.i0e(z)) * half

    finite, inf = _crossing(lambda z: bessel_i0(z) == math.inf, 700.0, 720.0)
    below, at, above = _around(600.0)
    # the power series up to z = 600 misses scipy by up to 3e-14 (ROADMAP
    # item 2); past it the Hankel value, unscaled by exp(z) or by two
    # halves exp(z/2), keeps the kernel's accuracy
    for z in (below, at):
        assert bessel_i0(z) == pytest.approx(oracle(z), rel=1e-13)
    for z in (above, 650.0, 700.0, 709.0, 712.0, finite):
        assert bessel_i0(z) == pytest.approx(oracle(z), rel=1e-15)
    assert bessel_i0(inf) == math.inf
    # the edge sits where log I0 leaves the double range, to rounding
    for z in (finite, inf):
        assert z + math.log(float(special.i0e(z))) == pytest.approx(math.log(sys.float_info.max), abs=1e-12)


def test_szasz_window_fails_loudly():
    # peak indices past 2^53 cannot be walked; below that, a window wider
    # than the walk's term cap cannot be finished: both raise at the route
    for x in (2.0 ** 53, 1e17):
        with pytest.raises(ArithmeticError, match="past 2"):
            s_series(Params(1, 0), x)
        with pytest.raises(ArithmeticError, match="past 2"):
            basis_sum(Params(1, 0), x)
    with pytest.raises(ArithmeticError, match="did not converge within 10000000 terms"):
        s_series(Params(1, 0), 1e13)
    with pytest.raises(ArithmeticError, match="did not converge within 10000000 terms"):
        basis_sum(Params(1, 0), 1e13)


def test_nb_window_fails_loudly_past_2_53():
    # the negative binomial peak index past 2^53 cannot be walked: it raised
    # "math domain error" (a usage error at the command line) where
    # 2 pi k0 (k0 + a) overflowed, and walked all 10^7 terms elsewhere
    for n, x in ((10 ** 200, 5.0), (10 ** 8, 1e8)):
        with pytest.raises(ArithmeticError, match="past 2\\^53"):
            s_series(Params(n, 1), x)
        with pytest.raises(ArithmeticError, match="past 2\\^53"):
            basis_sum(Params(n, 1), x)


def test_nb_peak_where_its_normalisation_overflows():
    # at a = 10^300 and u = 1e-290, 2 pi k0 (k0 + a) overflows and its log is
    # a difference of two; S is then the Szasz sum at mu = a u = 10^10 to
    # about u, the scaled Bessel value exp(-2 mu) I0(2 mu)
    params, x = Params(10 ** 300, 1), 1e-290
    r = s_series(params, x)
    limit = evalnum.bessel_i0e(2e10)
    assert abs(r.value - limit) <= r.err_estimate
    total, _ = basis_sum(params, x)
    assert abs(total - 1.0) < 1e-11
    # where the product is finite the anchor keeps its bits
    k0, log_pmf = core._nb_peak(1e290, 1e-280)
    k, m = float(k0), k0 + 1e290
    assert math.isfinite(2.0 * math.pi * k * m)
    assert log_pmf == (
        core._stirlerr(m) - core._stirlerr(k) - core._stirlerr(1e290)
        - core._bd0(k, m * (1e-280 / (1.0 + 1e-280))) - core._bd0(1e290, m / (1.0 + 1e-280))
        + 0.5 * math.log(1e290 / (2.0 * math.pi * k * m))
    )


@pytest.mark.parametrize(
    "route, params, x",
    [
        (s_series, Params(300, 1), 3.0),  # c > 0 past _EXP_GUARD
        (s_series, Params(1, 0), 400.0),  # c = 0 past mu = 300
        (basis_sum, Params(2, Fraction(1, 3)), 10.0),
        (basis_sum, Params(1, 0), 400.0),
    ],
)
def test_windows_fail_at_the_term_cap(monkeypatch, route, params, x):
    # a walk of T terms keeps its bits under a cap of T + 1 and raises under
    # a cap of T, where its sum would be cut short; c >= 0 alike
    got = route(params, x)
    terms = got.terms_or_nodes if route is s_series else got[1]
    monkeypatch.setattr(core, "_WINDOW_TERMS", terms + 1)
    assert route(params, x) == got
    monkeypatch.setattr(core, "_WINDOW_TERMS", terms)
    with pytest.raises(ArithmeticError, match=f"peak window did not converge within {terms} terms"):
        route(params, x)


def test_pos_c_window_grid_fails_only_where_capped(monkeypatch):
    # one grid: the point whose walk fits the lowered cap keeps its bits
    params = Params(300, 1)
    short, long = s_series(params, 3.0), s_series(params, 30.0)
    assert short.terms_or_nodes < long.terms_or_nodes
    monkeypatch.setattr(core, "_WINDOW_TERMS", long.terms_or_nodes)
    got = s_series_grid(params, [3.0, 30.0])
    assert got[0] == short
    assert isinstance(got[1], ArithmeticError)


def test_pos_c_window_fails_loudly():
    # the walk needs more than 10^7 terms; at n = 50 (whole 2a), where it
    # summed to the cap and read 0.16% short of mpmath, the series now sums
    # its expansion about z = 1
    with pytest.raises(ArithmeticError, match="did not converge within 10000000 terms"):
        s_series(Params(Fraction(151, 3), 1), 1.5e5)
    assert s_series(Params(50, 1), 1.5e5).value == pytest.approx(2.679763e-7, rel=1e-6)


def _pref_log(n, c, x):
    return -(2.0 * n / c) * math.log1p(c * x)


def _crossing(f, lo, hi):
    """Adjacent floats lo < hi with f(lo) false and f(hi) true."""
    while True:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            return lo, hi
        if f(mid):
            hi = mid
        else:
            lo = mid


# 2a = 2n/c is not a whole number here, so the closed form still hands over
@pytest.mark.parametrize("n, c", [(Fraction(1201, 4), 1), (Fraction(361, 3), Fraction(1, 2)), (Fraction(2102, 3), 2)])
def test_pos_c_series_straddles_exp_guard(n, c):
    nf, cf = float(n), float(c)
    below, above = _crossing(lambda x: _pref_log(nf, cf, x) < -_EXP_GUARD, 1e-3, 1e3)
    params = Params(n, c)
    low, high = s_series(params, below), s_series(params, above)
    assert low == _series_expect(params, below, 1e-12)
    # the peak window: its stop and 4.5e-16 per deviation of its weights, plus 2
    u = cf * above
    assert high.err_estimate == high.value * (1e-15 + 4.5e-16 * (math.sqrt(nf / cf * u * (1.0 + u)) + 2.0))
    assert low.value == pytest.approx(high.value, rel=1e-13)
    # the closed form hands over to quadrature on the same side
    assert s_closed(params, below).method is Method.CLOSED_FORM
    assert s_closed(params, above).method is Method.QUADRATURE


# 2a = 2n/c is not a whole number here, so the closed form still hands over
@pytest.mark.parametrize("n, c", [(Fraction(4, 3), 1), (Fraction(16, 3), 1), (Fraction(7, 3), Fraction(1, 2))])
def test_closed_form_straddles_z_switch(n, c):
    nf, cf = float(n), float(c)

    def z_of(x):
        u = cf * x
        return (u / (1.0 + u)) ** 2

    below, above = _crossing(lambda x: z_of(x) > Z_SWITCH, 1.0, 1e4)
    params = Params(n, c)
    low, high = s_closed(params, below), s_closed(params, above)
    assert low.method is Method.CLOSED_FORM and high.method is Method.QUADRATURE
    value, tail, terms = ref_hyp2f1_tail(nf / cf, z_of(below), 1e-15, 2 * 10 ** 6)
    pref_log = _pref_log(nf, cf, below)
    pref = math.exp(pref_log)
    # the claim covers the series' rounding: 8 units per term and |pref_log|
    rounding = 1e-15 + 2.0 ** -53 * (8 * terms + abs(pref_log))
    assert (low.value, low.err_estimate, low.terms_or_nodes) == (
        pref * value,
        pref * tail + rounding * pref * value,
        terms,
    )
    # quadrature is poor out here (its error bar says so); the two sides
    # agree within their claimed errors
    gap = abs(low.value - high.value)
    assert gap <= low.err_estimate + high.err_estimate + 1e-15 * low.value


def test_a_sum_that_overflows_is_no_overflow_error():
    # the partial sums pass the double range while every ratio stays finite:
    # the loop returns inf, and so must the kernel
    expect = ref_hyp2f1_tail(53.0, 0.998046875, 1e-16, 2 * 10 ** 6)
    assert expect[0] == math.inf
    assert _hyp2f1_tail(53.0, 0.998046875, 1e-16, 2 * 10 ** 6) == expect


# ---------------------------------------------------------------------------
# Row batches: every row of a batch is its own loop
# ---------------------------------------------------------------------------


def _row_outcomes(rows):
    """The kernel's rows as the scalar kernel reports them."""
    return [
        OverflowError if over else (total, tail, steps)
        for total, tail, steps, over in zip(rows.total, rows.tail, rows.steps, rows.overflow)
    ]


def ref_spike_loop(q, spike, k0, tol, cap):
    """A loop of ratios q^2, with the square (1e200)^2 at index ``spike``."""

    def ratio(k):
        return (1e200 if k == spike else q) ** 2

    total, term, j = 1.0, 1.0, 0
    try:
        while j < cap:
            # the index of an int loop, rounded once to a float as the
            # kernel's is (k + 1 would round twice past 2^53)
            term *= ratio(k0 + j)
            total += term
            r = ratio(k0 + (j + 1))
            j += 1
            if r < 1.0 and term * r / (1.0 - r) <= tol * total:
                return total, term * r / (1.0 - r), j
    except OverflowError:
        return OverflowError
    return total, None, j


@st.composite
def _spike_rows(draw):
    q = draw(st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.5, math.nan]))
    k0 = float(draw(st.one_of(st.integers(0, 1000), st.integers(2 ** 53 - 2000, 2 ** 60))))
    offset = draw(st.one_of(st.none(), st.integers(0, 3000)))
    spike = -1.0 if offset is None else k0 + offset  # rounds as the loop's index does
    return q, spike, k0, draw(st.integers(0, 3000))


@settings(max_examples=150, deadline=None)
@given(st.lists(_spike_rows(), min_size=1, max_size=40), st.sampled_from([1e-16, 1e-10, 1e-3]))
# the certificate of the step at 2^53 + 1 takes index 2^53 + 2, the spike
@example([(0.5, 2.0 ** 53 + 2, 2.0 ** 53, 2)], 1e-16)
def test_row_batches_match_their_loops(rows, tol):
    # rows stop in different blocks or hit their own cap; a spike at, past
    # or after a row's stop raises, is never computed, or is never reached;
    # NaN rows run to the cap; indices past 2^53 round as the loop's do
    q, spike, k0, cap = (np.array(v) for v in zip(*rows))
    got = core._certified_rows(
        lambda k, q, spike: core._sq(np.where(k == spike, 1e200, q)), k0, tol, cap, args=(q, spike)
    )
    expect = [ref_spike_loop(qq, s, k, tol, c) for qq, s, k, c in rows]
    assert repr(_row_outcomes(got)) == repr(expect)  # NaN sums compare by repr


def _rows_outcome(result):
    return (type(result), str(result)) if isinstance(result, Exception) else ("value", result)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.floats(0.01, 3.0), st.integers(1, 40).map(float)),
    st.lists(
        st.one_of(st.floats(1e-300, 0.999), st.floats(0.9, 0.99999), st.just(math.nan)),
        min_size=1,
        max_size=16,
    ),
    _RTOLS,
    st.one_of(st.just(20000), st.integers(0, 300)),
)
def test_hyp2f1_rows_match_loop(a, zs, rtol, max_terms):
    # a NaN z raises before anything is summed, where the loop walks its cap
    got = [_rows_outcome(r) for r in evalnum._hyp2f1_rows(a, zs, rtol, max_terms)]
    expect = [
        (ValueError, "series argument must be nonnegative, got z=nan") if math.isnan(z)
        else _outcome(ref_hyp2f1_tail, a, z, rtol, max_terms)
        for z in zs
    ]
    assert repr(got) == repr(expect)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 600.0), st.floats(0.0, 5.0)), min_size=1, max_size=30))
def test_i0_rows_match_loop(zs):
    assert evalnum._i0_rows(zs) == [ref_i0_series(z, 1e-16) for z in zs]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([Fraction(c, 6) for c in (0, 2, 3, 6, 12, 14)]),
    st.integers(1, 40).map(Fraction),
    st.lists(st.one_of(st.floats(1e-6, 20.0), st.floats(1e-300, 1e-6), st.floats(20.0, 400.0)), max_size=30),
    st.sampled_from([1e-12, 1e-15, 1e-4]),
)
def test_series_grid_rows_match_loops(c, n, xs, rtol):
    params = Params(n, c)
    nf, cf = float(n), float(c)
    if c == 0:  # below the peak window
        xs = [min(x, 300.0 / nf) for x in xs if nf * min(x, 300.0 / nf) <= 300.0]
    else:
        xs = [x for x in xs if -(2.0 * nf / cf) * math.log1p(cf * x) >= -_EXP_GUARD and not _far(params, x)]
    assert s_series_grid(params, xs, rtol) == [_series_expect(params, x, rtol) for x in xs]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.floats(0.5, 500.0), st.floats(2.0 ** 52, 1e19)), min_size=1, max_size=20),
    st.integers(0, 400),
)
def test_unimodal_rows_match_loop(mus, max_terms):
    # peak indices past 2^53 take the loop's rounded float(k)
    with mock.patch.object(core, "_WINDOW_TERMS", max_terms):
        got = core._window_rows(
            [(int(mu), 0.0) for mu in mus],
            lambda k, mu: core._sq(mu / (k + 1.0)),
            lambda k, mu: core._sq(k / mu),
            1e-16,
            args=(mus,),
        )
    expect = [
        _outcome(
            ref_window,
            lambda k, mu=mu: (mu / (k + 1.0)) ** 2,
            lambda k, mu=mu: (k / mu) ** 2,
            int(mu),
            1e-16,
            max_terms,
        )
        for mu in mus
    ]
    assert list(map(_rows_outcome, got)) == expect


def test_heavy_rows_in_one_batch():
    # caps met on their last step next to the floats that raise one step
    # later, among rows that stop early
    x = _LAST_STEP_X
    xs = [1.0, x, math.nextafter(x, math.inf), 20.0]
    got = [_rows_outcome(r) for r in s_series_grid(_CAPPED, xs)]
    assert got[1][1].terms_or_nodes == 2 * 10 ** 6 + 2
    assert got[2] == (ArithmeticError, "series did not converge; use the quadrature route")
    assert got == [_rows_outcome(r) for r in map(_unraised(s_series, _CAPPED), xs)]
    z = 2000003.9999999998
    zs = [0.5, z, math.nextafter(z, math.inf), 600.0]
    got = [_rows_outcome(r) for r in evalnum._i0_rows(zs)]
    assert got[1] == ("value", (math.inf, 10 ** 6 + 2))
    assert got[2] == (ArithmeticError, "Bessel series did not converge")
    assert got == [_outcome(ref_i0_series, z, 1e-16) for z in zs]


def test_overflow_rows_in_one_batch():
    # per-row n, c of the c > 0 series: a square that overflows at the first
    # step (NaN after the underflowed rr), one past the stop that is never
    # computed, and rows that stop normally
    cases = [(3.0, 1.0, 2.0), (1e6, 1e200, 0.3), (1.0, 2e154, 1e-160), (25.0, 2.0, 20.0)]
    n, c, rr, zlim = [], [], [], []
    for nn, cc, x in cases:
        u = cc * x
        n.append(nn)
        c.append(cc)
        rr.append((x / (1.0 + u)) ** 2)
        zlim.append((cc * x / (1.0 + u)) ** 2)
    rows = core._certified_rows(
        lambda k, n, c, rr: core._sq((n + k * c) / (k + 1.0)) * rr,
        0.0,
        1e-15,
        2 * 10 ** 6 + 1,
        sup=zlim,
        args=(n, c, rr),
    )
    got = [
        OverflowError if isinstance(r, OverflowError) else (r[0], r[1], r[2] + 1)
        for r in rows.outcomes("capped")
    ]
    expect = []
    for args in zip(n, c, rr, zlim):
        try:
            expect.append(ref_pos_c_series(*args, 1e-15))
        except OverflowError:
            expect.append(OverflowError)
    assert got == expect and got[1] is OverflowError and got[2] is not OverflowError


def _unraised(route, params):
    def call(x):
        try:
            return route(params, x)
        except ArithmeticError as exc:
            return exc

    return call


# ---------------------------------------------------------------------------
# The O(1) verdict on the c > 0 series cap
# ---------------------------------------------------------------------------


def _pos_c_parts(n, c, x):
    """The prefactor log, rr and ratio limit the c > 0 series route forms."""
    u = c * x
    return -(2.0 * n / c) * math.log1p(u), (x / (1.0 + u)) ** 2, (c * x / (1.0 + u)) ** 2


def _kernel_caps(n, c, x, tol):
    """Whether the c > 0 series kernel, run without the verdict, reaches its
    step cap without a stop."""
    _, rr, zlim = _pos_c_parts(n, c, x)
    rows = core._certified_rows(
        lambda k, rr: core._sq((n + k * c) / (k + 1.0)) * rr, 0.0, tol, evalnum._POS_C_STEPS,
        sup=zlim, args=(rr,),
    )
    return rows.tail[0] is None and not rows.overflow[0]


def _verdict(n, c, x, tol):
    pref_log, rr, zlim = _pos_c_parts(n, c, x)
    return evalnum._pos_c_capped(n, c, c * x, rr, zlim, pref_log, tol)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1, 3)]),
    # 2a = 2n/c is whole at none of these, so s_series runs the verdict
    st.sampled_from([Fraction(6, 5), Fraction(11, 5), Fraction(26, 5), Fraction(8, 5), Fraction(2, 7)]),
    st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    st.sampled_from([1e-12, 1e-16, 1e-8]),
)
# the verdict is not monotone in x near its first firing point: here it reads
# False one float past it
@example(c=Fraction(1, 3), n=Fraction(6, 5), offset=2.3e-16, rtol=1e-8)
def test_cap_verdict_is_sound(c, n, offset, rtol):
    # wherever the verdict fires, at its first firing float or up to half
    # again past it, the kernel run without the verdict reaches its cap too
    nf, cf = float(n), float(c)
    tol = max(1e-16, 1e-3 * rtol)
    on = _crossing(lambda x: _verdict(nf, cf, x, tol), 1e3, 1e9)[1]
    assert _verdict(nf, cf, on, tol)
    for x in (on, on * (1.0 + offset)):
        if _verdict(nf, cf, x, tol):
            assert _kernel_caps(nf, cf, x, tol)
            with pytest.raises(ArithmeticError, match="use the quadrature route"):
                s_series(Params(n, c), x, rtol)


def test_cap_verdict_unsure_at_the_boundary():
    # the kernel stops on its last step at x and caps one float later; the
    # verdict leaves both to the kernel, so the result there is the kernel's
    x, n = _LAST_STEP_X, _CAPPED.n_float
    for xx in (x, math.nextafter(x, math.inf)):
        assert not _verdict(n, 1.0, xx, 1e-15)
    assert not _kernel_caps(n, 1.0, x, 1e-15)
    assert _kernel_caps(n, 1.0, math.nextafter(x, math.inf), 1e-15)
    # far past it the verdict fires, and so would the kernel's cap
    assert _verdict(n, 1.0, 1e6, 1e-15) and _kernel_caps(n, 1.0, 1e6, 1e-15)


def _verdict_s_at_most_1(n, c, u, rr, zlim, pref_log, tol):
    """The verdict before it bounded S by the largest negative binomial
    weight: the same tests with S <= 1 alone."""
    if not (rr > 0.0 and zlim > 0.0) or max(n, c) >= 1e150:
        return False
    a, steps = n / c, evalnum._POS_C_STEPS
    lg_top, lg_a, lg_k = math.lgamma(a + steps), math.lgamma(a), math.lgamma(steps + 1.0)
    log_ratio = 2.0 * math.log(c) + math.log(rr)
    if 2.0 * math.log((a + steps) / (steps + 1.0)) + log_ratio > 1e-12 * (1.0 + abs(log_ratio)):
        return True
    log_last = 2.0 * (lg_top - lg_a - lg_k) + steps * log_ratio
    log_cert = math.log(zlim) - math.log1p(-zlim)
    margin = 1e-6 + 1e-12 * (abs(lg_top) + abs(lg_a) + lg_k + steps * abs(log_ratio) + abs(pref_log))
    return log_last + log_cert - margin > math.log(tol) - pref_log


def test_cap_verdict_sides_at_c_1():
    # 1e5 lies below the kernel's own cap and returns a value; 1.2e5 lies
    # past it, and the verdict raises there without walking 2*10^6 steps
    assert s_series(_CAPPED, 1e5).value > 0.0
    took = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="use the quadrature route"):
            s_series(_CAPPED, 1.2e5)
        took.append(time.perf_counter() - start)
    assert min(took) < 5e-3


# (n, c, i) of x = 10^(3 + i/24), where the bound S <= max_k p_k decides and
# S <= 1 did not; 2a = 2n/c is not whole, so s_series runs the verdict
@pytest.mark.parametrize("n, c, i", [
    (Fraction(6, 5), Fraction(1, 3), 58), (Fraction(11, 5), Fraction(1, 2), 53), (Fraction(6, 5), Fraction(1), 50),
    (Fraction(26, 5), Fraction(1), 45), (Fraction(16, 5), Fraction(2), 42), (10, Fraction(3), 35),
])
def test_sharper_cap_verdict_fires_only_where_the_walk_caps(n, c, i, monkeypatch):
    x = 10.0 ** (3 + i / 24)
    nf, cf = float(n), float(c)
    pref_log, rr, zlim = _pos_c_parts(nf, cf, x)
    tol = max(1e-16, 1e-3 * evalnum.RTOL_DEFAULT)
    assert _verdict(nf, cf, x, tol)
    assert not _verdict_s_at_most_1(nf, cf, cf * x, rr, zlim, pref_log, tol)
    monkeypatch.setattr(evalnum, "_pos_c_capped", _verdict_s_at_most_1)
    with pytest.raises(ArithmeticError, match="use the quadrature route"):
        s_series(Params(n, c), x)
