import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqsums import core
from sqsums.bounds import standard_grid
from sqsums.core import FamilyId, Params
from sqsums.evalnum import s_closed
from sqsums.exactalg import (
    IDENTITY,
    NEGATE,
    SERIES_MAPS,
    HeunParams,
    OdeSpec,
    RationalFn,
    RationalPoly,
    _central_products,
    _poly_compose_mobius,
    _odd_part,
    _reduced,
    eq_f,
    eq_g,
    eq_j,
    eq_u,
    f_poly_direct,
    f_poly_parseval,
    f_value,
    g_rational,
    g_series_coeffs,
    g_value,
    heun_residual,
    j_rational,
    j_series_coeffs,
    j_value,
    mobius_compose,
    mobius_inverse,
    mobius_same,
    moved_operators,
    ode_residual_poly,
    recurrence_check,
    recurrence_residuals,
    substitution_identity,
    u_rational,
    u_series_coeffs,
    u_value,
    x_form,
)

X = RationalPoly.x()

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
small_polys = st.lists(small_fracs, min_size=0, max_size=5).map(RationalPoly)


class TestRationalPoly:
    def test_trimming_and_degree(self):
        assert RationalPoly([1, 2, 0, 0]).degree == 1
        assert RationalPoly([]).degree == -1
        assert RationalPoly([0]).is_zero

    @given(small_polys, small_polys, small_polys)
    def test_ring_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(small_polys, small_polys)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()

    @given(small_polys, st.integers(min_value=0, max_value=4))
    def test_power_is_repeated_product(self, p, k):
        acc = RationalPoly.one()
        for _ in range(k):
            acc = acc * p
        assert p ** k == acc

    def test_evaluation_types(self):
        p = RationalPoly([1, -2, 2])
        assert p(Fraction(1, 4)) == Fraction(5, 8)
        assert p(0.25) == pytest.approx(0.625)

    @settings(max_examples=300)
    @given(
        st.lists(st.integers(-(10 ** 400), 10 ** 400), min_size=1, max_size=6),
        st.integers(1, 10 ** 400),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @example([10 ** 400, 1], 3, 0.5)  # both raise at the first coefficient
    def test_float_evaluation_is_horner_over_float_coefficients(self, nums, den, v):
        # numerator / denominator is the int true division of float(Fraction):
        # the same bits, and the same OverflowError past the double range
        p = RationalPoly([Fraction(a, den) for a in nums])

        def horner():
            acc = v * 0
            for c in reversed(p.coeffs):
                acc = acc * v + float(c)
            return acc

        def outcome(f):
            try:
                return f().hex()
            except OverflowError as exc:
                return repr(exc)

        assert outcome(lambda: p(v)) == outcome(horner)

    @given(
        small_polys,
        st.lists(st.integers(1, 12), min_size=1, max_size=4).flatmap(
            lambda qs: st.lists(st.tuples(st.integers(-30, 30), st.sampled_from(qs)), max_size=24)
        ),
    )
    def test_values_match_fraction_horner(self, p, points):
        # points drawn from a few denominators, so groups and repeats occur
        def horner(x):
            acc = Fraction(0)
            for c in reversed(p.coeffs):
                acc = acc * x + c
            return acc

        assert p.values(points) == [horner(Fraction(a, b)) for a, b in points]

    @settings(max_examples=300)
    @given(
        st.integers(-(10 ** 40), 10 ** 40),
        st.integers(1, 10 ** 6),
        st.integers(1, 5000),
        st.integers(0, 12),
    )
    def test_reduced_is_the_fraction(self, a, den, q, deg):
        # a margin's denominator den q^deg has no odd prime outside
        # odd(q) odd(den), so the small gcds give Fraction's lowest terms
        b = den * q ** deg
        got, want = _reduced(a, b, _odd_part(q) * _odd_part(den)), Fraction(a, b)
        assert (got.numerator, got.denominator, hash(got)) == (want.numerator, want.denominator, hash(want))
        assert got == want and type(got) is Fraction

    def test_reduced_divides_repeated_factors(self):
        # 3^5 * 5 shared by a and b is divided out over several rounds
        for a, b, m in [(3 ** 7 * 5 * 7, 3 ** 5 * 5 ** 2 * 2 ** 4, 15), (-(2 ** 9) * 9, 2 ** 5 * 27, 3), (0, 7, 7)]:
            got, want = _reduced(a, b, m), Fraction(a, b)
            assert (got.numerator, got.denominator, hash(got)) == (want.numerator, want.denominator, hash(want))

    def test_reduced_without_the_slot_layout(self, monkeypatch):
        # where Fraction's slots are not CPython's two, the pair goes through
        # Fraction's own constructor, with the same result
        from sqsums import exactalg

        assert exactalg._FRACTION_SLOTS
        monkeypatch.setattr(exactalg, "_FRACTION_SLOTS", False)
        for a, b, m in [(3 ** 7 * 5 * 7, 3 ** 5 * 5 ** 2 * 2 ** 4, 15), (-(2 ** 9) * 9, 2 ** 5 * 27, 3), (0, 7, 7)]:
            got, want = _reduced(a, b, m), Fraction(a, b)
            assert (got.numerator, got.denominator, hash(got)) == (want.numerator, want.denominator, hash(want))
        p = RationalPoly([1, -2, 2])
        assert p.values([(1, 4), (3, 4)]) == [Fraction(5, 8), Fraction(5, 8)]

    def test_values_share_one_fraction_per_distinct_point(self):
        vals = RationalPoly([1, -2, 2]).values([(1, 4), (3, 4), (1, 4)])
        assert vals == [Fraction(5, 8), Fraction(5, 8), Fraction(5, 8)]
        assert vals[0] is vals[2] and vals[0] is not vals[1]

    def test_either_grouping_gives_the_exact_pairs(self):
        # grouped by p (3 numerators against 40 denominators) and by q, each
        # pair is a = sum c_k p^k q^(deg-k) over b = den q^deg
        poly = RationalPoly([3, -1, Fraction(2, 7), 5, 0, -4])
        deg = len(poly._ints) - 1
        few_p = [(p, q) for p in (0, 2, 5) for q in range(1, 41)]
        few_q = [(p, q) for q in (1, 2, 5) for p in range(-20, 20)]
        for points in (few_p, few_q, few_p[:1], [(7, 3), (7, 4), (8, 3)]):
            assert poly._at(points) == [
                (sum(c * p ** k * q ** (deg - k) for k, c in enumerate(poly._ints)), poly._den * q ** deg)
                for p, q in points
            ]

    def test_compose_linear(self):
        p = RationalPoly([0, 0, 1], "s")  # s^2
        assert p.compose_linear(1, Fraction(-1, 2)) == RationalPoly([Fraction(1, 4), -1, 1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.fractions(max_denominator=50), min_size=1, max_size=12),
        st.fractions(max_denominator=9).filter(bool),
        st.fractions(max_denominator=9),
        st.fractions(max_denominator=9).filter(bool),
        st.integers(0, 15),
    )
    def test_affine_composition_is_the_full_horner(self, coeffs, a, b, d, deg):
        # with c = 0 the power (d + cX)^k stays the constant d^k; the result
        # is the full Horner's, which pads the power with zeros
        from itertools import chain

        from sqsums.exactalg import _times_linear

        p = RationalPoly(coeffs)
        got = _poly_compose_mobius(p, a, b, 0, d, deg=deg)
        scale = math.lcm(a.denominator, b.denominator, d.denominator)
        ai, bi, di = (int(v * scale) for v in (a, b, d))
        top = max(deg, p.degree)
        acc, power = [], [1]
        for i, c_i in enumerate(chain([0] * (top - p.degree), reversed(p._ints))):
            if i:
                power = _times_linear(power, di, 0)
            acc = [u + c_i * v for u, v in zip(_times_linear(acc, bi, ai), power)]
        assert got == RationalPoly._from_ints(acc, p._den * scale ** top, "x")

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RationalPoly([1, 1], "s") * RationalPoly([1, 1], "x")

    def test_json_roundtrip(self):
        # every coefficient as the "p/q" text of core._fmt_rat
        p = RationalPoly([Fraction(1, 3), 0, -2], "u")
        assert json.loads(json.dumps(p.to_json())) == {"var": "u", "coeffs": ["1/3", "0/1", "-2/1"]}


class TestRationalFn:
    def test_json_roundtrip(self):
        f = RationalFn(X * X + 1, 2 * X + 1)
        assert json.loads(json.dumps(f.to_json())) == {
            "num": {"var": "x", "coeffs": ["1/1", "0/1", "1/1"]},
            "den": {"var": "x", "coeffs": ["1/1", "2/1"]},
        }


def _den_factor(c: int, d: int) -> RationalPoly:
    """cx+d scaled to a primitive integer polynomial with positive lead."""
    return RationalPoly((d, c)) * Fraction(1 if c > 0 or (c == 0 and d > 0) else -1, math.gcd(c, d))


def _lemma_holds(r: RationalFn, mobius) -> bool:
    """True iff r = N/D is lowest terms by the x-form lemma for the map
    (a, b, c, d): D is the primitive (cx+d)^m with deg N <= m, and where
    c != 0, c^deg(N) N(-d/c) = sum N_i (-d)^i c^(deg N - i) != 0, in the
    integer numerators of N.  D's one irreducible factor is then not a
    factor of N."""
    a, b, c, d = mobius
    m = r.den.degree
    if r.den != _den_factor(c, d) ** m or r.num.degree > m:
        return False
    ints = r.num._ints
    return c == 0 or sum(k * (-d) ** i * c ** (len(ints) - 1 - i) for i, k in enumerate(ints)) != 0


def _x_forms(n: int):
    """(x-form, its composed map) for each rational witness at n and each
    x_form with an inner map that the tests build."""
    bbh = core._FAMILIES["bbh"].to_base
    return [
        (g_rational(n), SERIES_MAPS["u"]),
        (j_rational(n), SERIES_MAPS["w"]),
        (u_rational(n), SERIES_MAPS["v"]),
        (x_form(j_series_coeffs(n - 1), (1, 0, 1, 1)), mobius_compose(SERIES_MAPS["w"], (1, 0, 1, 1))),
        (x_form(g_series_coeffs(n + 1), (1, 0, -1, 1)), mobius_compose(SERIES_MAPS["u"], (1, 0, -1, 1))),
        (x_form(f_poly_parseval(n), bbh), mobius_compose(SERIES_MAPS["s"], bbh)),
    ]


# SHA-256 of the compact json of [build(n).to_json() for n in ns], recorded
# while RationalFn was still a general quotient reduced by a polynomial gcd:
# the x-forms write the same bytes
_WITNESS_DIGESTS = [
    (g_rational, range(1, 41), "4ead7728b2693050534159b982d48631e42fa1ce04da2640293f02f877c6f359"),
    (j_rational, range(0, 41), "3ac8e70f000081f4ee41229cfdc4a77fe9a844763fe04c9228007ab81ac2c9f8"),
    (u_rational, range(1, 41), "f7774199c0ac5a8b30e980c47ee2c80f5246d4e9fed052635c29fc5dbbf563c6"),
]


class TestXForm:
    def test_every_x_form_is_lowest_terms_by_the_lemma(self):
        for n in range(1, 61):
            for r, mobius in _x_forms(n):
                assert mobius[2] != 0 and _lemma_holds(r, mobius), (n, mobius)

    def test_a_planted_common_factor_fails_the_lemma_check(self):
        # the only factor a power of cx+d can share is cx+d itself; another
        # linear factor makes the denominator no power of it
        for r, (a, b, c, d) in _x_forms(5):
            lin = _den_factor(c, d)
            assert not _lemma_holds(RationalFn(r.num * lin, r.den * lin), (a, b, c, d))
            assert not _lemma_holds(RationalFn(r.num * (X - 3), r.den * (X - 3)), (a, b, c, d))

    @pytest.mark.parametrize("build, ns, digest", _WITNESS_DIGESTS, ids=["g", "j", "u"])
    def test_witness_bytes_are_pinned(self, build, ns, digest):
        doc = json.dumps([build(n).to_json() for n in ns], separators=(",", ":"))
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    def test_equal_functions_are_equal_records(self):
        # one map as two matrices, and one function through two maps
        y = j_series_coeffs(3)
        assert x_form(y, (1, 0, 1, 1)) == x_form(y, (-2, 0, -2, -2)) == g_rational(4)
        assert len({x_form(y, (1, 0, 1, 1)), x_form(y, (3, 0, 3, 3)), g_rational(4), g_rational(5)}) == 2

    def test_a_shift_is_a_polynomial(self):
        # c = 0: the denominator is the constant 1
        for n in (1, 4, 9):
            assert x_form(f_poly_parseval(n)) == RationalFn(f_poly_direct(n), RationalPoly.one())

    def test_degenerate_map_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            x_form(g_series_coeffs(2), (1, 2, 2, 4))

    @given(
        st.sampled_from(sorted(SERIES_MAPS)),
        st.lists(small_fracs, max_size=6),
        st.tuples(*[st.integers(-4, 4)] * 4),
        small_fracs,
    )
    @settings(max_examples=100)
    def test_values_are_the_substitution(self, var, coeffs, inner, v):
        # x_form(y, inner) at a rational v against plain Fraction arithmetic
        def at(m, x):
            return (m[0] * x + m[1]) / (m[2] * x + m[3])

        a, b, c, d = inner
        if a * d == b * c or c * v + d == 0:
            return
        w = at(inner, v)
        t_map = SERIES_MAPS[var]
        if t_map[2] * w + t_map[3] == 0:
            return
        y = RationalPoly(coeffs, var)
        assert _value(x_form(y, inner), v) == sum(k * at(t_map, w) ** i for i, k in enumerate(y.coeffs))


def _value(r: RationalFn, x):
    """r at x: exact on a Fraction, in floats on a float."""
    return r.num(x) / r.den(x)


def _shift_to_centered(p: RationalPoly) -> RationalPoly:
    """Oracle direction: move the monomial form into the centered variable."""
    return p.compose_linear(1, Fraction(1, 2))


class TestBernsteinPolys:
    def test_smallest_cases(self):
        assert f_poly_direct(1) == RationalPoly([1, -2, 2])
        assert f_poly_direct(0) == RationalPoly([1])

    def test_value_anchor_and_midpoint(self):
        for n in range(1, 12):
            assert f_poly_direct(n)(Fraction(0)) == 1
        assert f_poly_direct(2)(Fraction(1, 2)) == Fraction(3, 8)

    def test_centered_small_cases(self):
        assert f_poly_parseval(1) == RationalPoly([Fraction(1, 2), 0, 2], "s")
        # independent oracle: change of variable from the direct expansion
        expected = _shift_to_centered(f_poly_direct(2))
        assert expected == RationalPoly([Fraction(3, 8), 0, 1, 0, 6])
        assert f_poly_parseval(2) == RationalPoly([Fraction(3, 8), 0, 1, 0, 6], "s")

    def test_centered_constant_term(self):
        for n in range(1, 15):
            assert f_poly_parseval(n).coeff(0) == Fraction(math.comb(2 * n, n), 4 ** n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_two_constructions_agree(self, n):
        assert f_poly_parseval(n).compose_linear(1, Fraction(-1, 2)) == f_poly_direct(n)

    def test_even_powers_only_and_positive(self):
        for n in range(1, 20):
            p = f_poly_parseval(n)
            assert all(p.coeff(2 * k + 1) == 0 for k in range(n))
            assert all(p.coeff(2 * k) > 0 for k in range(n + 1))

    def test_symmetry_about_midpoint(self):
        for n in (1, 4, 9):
            p = f_poly_direct(n)
            assert p.compose_linear(-1, 1) == p  # F(1-x) = F(x)

    def test_f_value_matches_poly(self):
        assert f_value(2, Fraction(1, 4)) == Fraction(59, 128)
        assert f_value(2, 0.25) == pytest.approx(0.4609375, rel=1e-15)


def _horner_per_point(cs, t):
    """The float Horner sum converting each Fraction coefficient at every point."""
    acc = 0.0
    for c in reversed(cs):
        acc = acc * t + float(c)
    return acc


def _f_per_point(n, x):
    return _horner_per_point(f_poly_parseval(n).coeffs[::2], (x - 0.5) ** 2)


def _g_per_point(n, x):
    u = 1.0 / (1.0 + 2.0 * x)
    return _horner_per_point(g_series_coeffs(n).coeffs[1::2], u * u) * u


def _j_per_point(n, x):
    w = (1.0 - x) / (1.0 + x)
    return _horner_per_point(j_series_coeffs(n).coeffs[1::2], w * w) * w


# family: (value, per-point float reference, exact reference in the series
# variable, least index)
_VALUE_ROUTES = {
    "bernstein": (f_value, _f_per_point, lambda n, x: f_poly_parseval(n)(x - Fraction(1, 2)), 0),
    "baskakov": (g_value, _g_per_point, lambda n, x: g_series_coeffs(n)(1 / (1 + 2 * x)), 1),
    "mkz": (j_value, _j_per_point, lambda n, x: j_series_coeffs(n)((1 - x) / (1 + x)), 0),
    "bbh": (u_value, lambda n, x: _f_per_point(n, x / (1.0 + x)),
            lambda n, x: f_poly_parseval(n)(x / (1 + x) - Fraction(1, 2)), 1),
}


# the points of the standard grids where the series variable (its square
# for bernstein and bbh) is exactly 1, and S is exactly 1
_ANCHORS = {"bernstein": (0.0, 1.0), "baskakov": (0.0,), "mkz": (0.0,), "bbh": (0.0,)}


@pytest.mark.parametrize("family", list(_VALUE_ROUTES))
def test_float_values_keep_every_bit(family):
    # every bit of the per-point sums, except at the anchors, where those
    # sums of rounded coefficients miss 1 from n = 30 on
    value, per_point, exact, n_min = _VALUE_ROUTES[family]
    xs = standard_grid(FamilyId(family)) + [1.0] * (family == "mkz")  # the open right end
    for n in range(n_min, 61):
        expect = [1.0 if x in _ANCHORS[family] else per_point(n, x) for x in xs]
        assert [value(n, x).hex() for x in xs] == [v.hex() for v in expect]
        if n in (n_min, 7, 60):
            for x in map(Fraction, xs[::16]):
                assert value(n, x) == exact(n, x)


def test_float_values_are_one_at_the_anchors():
    for n in range(1, 601):
        assert f_value(n, 0.0) == f_value(n, 1.0) == g_value(n, 0.0) == j_value(n, 0.0) == u_value(n, 0.0) == 1.0


class TestRecurrences:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_hold_exactly(self, n):
        assert recurrence_check(n)

    def test_injected_fault_detected(self):
        n = 3
        f_prev, f_n, f_next = f_poly_direct(n - 1), f_poly_direct(n), f_poly_direct(n + 1)
        bad = f_n + RationalPoly([Fraction(1, 10 ** 6)])
        residuals = recurrence_residuals(f_prev, bad, f_next, n)
        assert not all(r.is_zero for r in residuals)


class TestOdeResiduals:
    def test_bernstein_solution(self):
        assert ode_residual_poly(f_poly_direct(1), eq_f(1)).is_zero
        assert ode_residual_poly(f_poly_direct(4), eq_f(4)).is_zero

    def test_baskakov_solution(self):
        assert ode_residual_poly(g_rational(1), eq_g(1)).is_zero
        assert ode_residual_poly(g_rational(5), eq_g(5)).is_zero

    def test_mkz_and_bbh_solutions(self):
        assert ode_residual_poly(j_rational(0), eq_j(0)).is_zero
        assert ode_residual_poly(j_rational(4), eq_j(4)).is_zero
        assert ode_residual_poly(u_rational(3), eq_u(3)).is_zero

    def test_constant_is_not_a_solution(self):
        res = ode_residual_poly(RationalPoly.one(), eq_f(1))
        assert res == RationalPoly([2, -4])  # 2n(1-2x) at n=1

    @given(small_polys, small_polys)
    @settings(max_examples=40)
    def test_linearity(self, y1, y2):
        spec = eq_f(2)
        lhs = ode_residual_poly(y1 + y2, spec)
        assert lhs == ode_residual_poly(y1, spec) + ode_residual_poly(y2, spec)


class TestHeun:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polynomial_solutions(self, n):
        hp = HeunParams.polynomial_case(n)
        assert (hp.beta, hp.epsilon, hp.q) == (-2 * n, -2 * n, -n)
        assert heun_residual(f_poly_direct(n), hp).is_zero

    @pytest.mark.parametrize("n", [1, 2])
    def test_rational_solutions_with_reflected_argument(self, n):
        hp = HeunParams.rational_case(n)
        assert (hp.beta, hp.epsilon, hp.q) == (2 * n, 2 * n, n)
        assert heun_residual(g_rational(n), hp, "negate").is_zero

    def test_generic_parameters_reject_linear(self):
        hp = HeunParams(1, 3, 1, 1, 4, 2)
        assert not heun_residual(X, hp).is_zero

    def test_consistency_constraint_of_families(self):
        for n in (1, 5):
            for hp in (HeunParams.polynomial_case(n), HeunParams.rational_case(n)):
                assert hp.gamma + hp.delta + hp.epsilon == hp.alpha + hp.beta + 1

    def test_malformed_parameters_rejected(self):
        from sqsums.core import ParameterError

        with pytest.raises(ParameterError):
            HeunParams(1.5e-310, "x", 1, 1, 1, 1)

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            heun_residual(X, HeunParams.polynomial_case(1), "reflect")


_EPS = Fraction(1, 10 ** 30)


def _perturbed(y):
    """y with _EPS added to its degree-1 numerator coefficient."""
    if isinstance(y, RationalPoly):
        return y + RationalPoly([0, _EPS], y.var)
    return RationalFn(y.num + _EPS * X, y.den)


class TestFaultInjection:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_ode_residuals_detect_a_tiny_coefficient_fault(self, n):
        cases = [
            (f_poly_direct(n), eq_f(n)),
            (g_rational(n), eq_g(n)),
            (j_rational(n), eq_j(n)),
            (u_rational(n), eq_u(n)),
        ]
        for y, spec in cases:
            assert ode_residual_poly(y, spec).is_zero
            assert not ode_residual_poly(_perturbed(y), spec).is_zero, spec.label

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_heun_residuals_detect_a_tiny_coefficient_fault(self, n):
        f_hp, g_hp = HeunParams.polynomial_case(n), HeunParams.rational_case(n)
        assert not heun_residual(_perturbed(f_poly_direct(n)), f_hp).is_zero
        assert not heun_residual(_perturbed(g_rational(n)), g_hp, "negate").is_zero

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_substitutions_detect_a_tiny_coefficient_fault(self, n):
        bbh = core._FAMILIES["bbh"].to_base
        assert _perturbed(g_rational(n)) != x_form(j_series_coeffs(n - 1), (1, 0, 1, 1))
        assert g_rational(n) != x_form(_perturbed(j_series_coeffs(n - 1)), (1, 0, 1, 1))
        assert _perturbed(u_rational(n)) != x_form(f_poly_parseval(n), bbh)
        assert u_rational(n) != x_form(_perturbed(f_poly_parseval(n)), bbh)

    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("route", ["u_series_coeffs", "f_poly_parseval"])
    def test_u_cross_check_detects_a_tiny_coefficient_fault(self, n, route, monkeypatch):
        # u_rational builds U_n from either series; a fault in one must raise
        from sqsums import exactalg

        real = getattr(exactalg, route)
        monkeypatch.setattr(exactalg, route, lambda k: _perturbed(real(k)))
        u_rational.cache_clear()
        with pytest.raises(ArithmeticError, match="disagree"):
            u_rational(n)


def test_central_products_by_recurrence_are_the_binomial_products():
    # the recurrence's products against math.comb, and g's odd coefficients
    # against the factorial weights they replaced
    for n in range(201):
        assert _central_products(n) == [math.comb(2 * k, k) * math.comb(2 * (n - k), n - k) for k in range(n + 1)]
    for n in range(1, 201):
        g = g_series_coeffs(n)
        assert g == RationalPoly([0 if i % 2 == 0 else Fraction(
            math.factorial(i - 1) * math.factorial(2 * n - i - 1),
            math.factorial((i - 1) // 2) ** 2 * math.factorial(n - (i + 1) // 2) ** 2 * 4 ** (n - 1),
        ) for i in range(2 * n)], "u")


class TestLargeIndex:
    @pytest.mark.parametrize("n", [60, 100])
    def test_baskakov_ode_and_heun(self, n):
        g = g_rational(n)
        assert ode_residual_poly(g, eq_g(n)).is_zero
        assert heun_residual(g, HeunParams.rational_case(n), "negate").is_zero

    def test_mkz_and_bbh_ode(self):
        n = 60
        assert ode_residual_poly(j_rational(n), eq_j(n)).is_zero
        assert ode_residual_poly(u_rational(n), eq_u(n)).is_zero


def _geom_sq_sum_baskakov(n: int, x: Fraction, terms: int = 400) -> Fraction:
    """Oracle: direct summation of the defining squared series (truncated).

    Exact rational partial sum; the tail is geometric with ratio
    (x/(1+x))^2 < 1, far below any coefficient difference this certifies.
    """
    total = Fraction(0)
    for k in range(terms):
        total += (Fraction(math.comb(n + k - 1, k)) * x ** k / (1 + x) ** (n + k)) ** 2
    return total


class TestRationalFamilies:
    def test_baskakov_small_cases(self):
        assert g_rational(1) == RationalFn(RationalPoly.one(), 2 * X + 1)
        expected = RationalFn(2 * X * X + 2 * X + 1, (2 * X + 1) ** 3)
        assert g_rational(2) == expected

    def test_baskakov_u_series_n3(self):
        # derived through the n=2 Meyer-Konig-Zeller series and the
        # substitution bridge, which fixes the squared factorial weight
        assert g_series_coeffs(3) == RationalPoly(
            [0, Fraction(3, 8), 0, Fraction(1, 4), 0, Fraction(3, 8)], "u"
        )

    def test_baskakov_series_is_the_factorial_quotient(self):
        # the u^(2k+1) coefficient as the Fraction of factorials it was built from
        f = math.factorial
        for n in range(1, 41):
            expected = [Fraction(0)] * (2 * n)
            for k in range(n):
                expected[2 * k + 1] = Fraction(
                    f(2 * k) * f(2 * n - 2 * k - 2), f(k) ** 2 * f(n - k - 1) ** 2 * 4 ** (n - 1)
                )
            assert g_series_coeffs(n) == RationalPoly(expected, "u")

    def test_baskakov_matches_defining_series(self):
        x = Fraction(1, 3)
        for n in (1, 2, 4):
            approx = _geom_sq_sum_baskakov(n, x)
            assert abs(_value(g_rational(n), x) - approx) < Fraction(1, 10 ** 60)

    def test_mkz_small_cases(self):
        assert j_rational(0) == RationalFn(1 - X, 1 + X)
        assert j_series_coeffs(2) == RationalPoly(
            [0, Fraction(3, 8), 0, Fraction(1, 4), 0, Fraction(3, 8)], "w"
        )

    def test_mkz_value_at_origin(self):
        for n in range(0, 12):
            assert _value(j_rational(n), Fraction(0)) == 1

    def test_bbh_small_cases(self):
        assert u_rational(1) == RationalFn(X * X + 1, (X + 1) ** 2)

    def test_bbh_anchors(self):
        for n in (1, 2, 5, 9):
            assert _value(u_rational(n), Fraction(0)) == 1
            assert _value(u_rational(n), Fraction(1)) == Fraction(math.comb(2 * n, n), 4 ** n)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_substitution_coherence(self, n):
        # J_(n-1)(x/(1+x)) reproduces G_n and G_(n+1)(x/(1-x)) reproduces J_n
        assert g_rational(n) == x_form(j_series_coeffs(n - 1), (1, 0, 1, 1))
        assert j_rational(n) == x_form(g_series_coeffs(n + 1), (1, 0, -1, 1))

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_numerical_coherence_with_closed_form(self, n):
        params = Params(n, 1)
        for x in (0.05, 0.8, 3.7, 11.0):
            exact = _value(g_rational(n), x)
            closed = s_closed(params, x).value
            assert closed == pytest.approx(exact, rel=1e-12)

    def test_value_helpers_match_rational_forms(self):
        assert g_value(3, Fraction(2, 5)) == _value(g_rational(3), Fraction(2, 5))
        assert j_value(2, Fraction(1, 3)) == _value(j_rational(2), Fraction(1, 3))
        assert u_value(2, Fraction(3, 2)) == _value(u_rational(2), Fraction(3, 2))
        assert g_value(3, 0.4) == pytest.approx(float(_value(g_rational(3), Fraction(2, 5))), rel=1e-14)

    def test_index_preconditions(self):
        with pytest.raises(ValueError):
            g_rational(0)
        with pytest.raises(ValueError):
            u_rational(0)
        j_rational(0)  # allowed from index 0


# ---------------------------------------------------------------------------
# The identities in the series variables, against the x-level route
# ---------------------------------------------------------------------------

# x as a Moebius map (a, b, c, d) of the series variable, for each operator
# that verify moves there: the Bernstein ODE and Heun form, the Baskakov ODE,
# the Baskakov Heun form on G(-x), and the Meyer-Konig-Zeller and
# Bleimann-Butzer-Hahn ODEs.
_MAPS = {
    "bernstein-ode": (lambda n: eq_f(n), "s", (2, 1, 0, 2), IDENTITY),
    "bernstein-heun": (lambda n: HeunParams.polynomial_case(n).operator(), "s", (2, 1, 0, 2), IDENTITY),
    "baskakov-ode": (lambda n: eq_g(n), "u", (-1, 1, 2, 0), IDENTITY),
    "baskakov-heun": (lambda n: HeunParams.rational_case(n).operator(), "u", (1, -1, 2, 0), NEGATE),
    "mkz-ode": (lambda n: eq_j(n), "w", (-1, 1, 1, 1), IDENTITY),
    "bbh-ode": (lambda n: eq_u(n), "v", (1, 1, -1, 1), IDENTITY),
}


def _series_residual(name: str, n: int, y: RationalPoly) -> RationalPoly:
    """The residual verify reads: the operator of _MAPS[name] at index n,
    moved to y's series variable, applied to y."""
    build, _, _, inner = _MAPS[name]
    return moved_operators(build, y.var, inner)(n).apply(y)


def _as_x(p: RationalPoly) -> RationalPoly:
    return RationalPoly(p.coeffs, "x")


class TestChainRule:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_MAPS))
    def test_transformed_operator_matches_the_x_level_residual(self, name, seed):
        # an arbitrary non-solution y(t): the residual of the moved operator is
        # Delta^2 L^m times the x-level residual r/D^3 of y o t, read at
        # x = x(t).  With P_c = L^deg(P) P(x(t)) that is, cross-multiplied,
        # moved (D^3)_c L^deg(r) = Delta^2 L^m r_c L^deg(D^3).
        rng = random.Random(seed)
        build, var, (a, b, c, d), inner = _MAPS[name]
        n = rng.randint(1, 12)
        spec = build(n)
        y = RationalPoly([rng.randint(-50, 50) for _ in range(rng.randint(1, 31))], var)
        moved = spec.in_variable(a, b, c, d, var).apply(y)
        on_x = x_form(y, inner)
        r, d3 = ode_residual_poly(on_x, spec), on_x.den ** 3
        r_c, d3_c = (_poly_compose_mobius(p, a, b, c, d) for p in (r, d3))
        m = max(p.degree for p in (spec.a2, spec.a1, spec.a0))
        lin = RationalPoly((d, c))
        assert not moved.is_zero
        lhs = _as_x(moved) * d3_c * lin ** r.degree
        assert lhs == (a * d - b * c) ** 2 * lin ** (m + d3.degree) * r_c

    @pytest.mark.parametrize("name", list(_MAPS))
    def test_series_residual_reads_the_stated_map(self, name):
        # the moved operator inverts the variable's map itself: a multiple of the stated x(t)
        build, var, x_of_t, inner = _MAPS[name]
        assert mobius_same(mobius_inverse(mobius_compose(SERIES_MAPS[var], inner)), x_of_t)
        y = RationalPoly(range(1, 12), var)
        r, stated = _series_residual(name, 5, y), build(5).in_variable(*x_of_t, var).apply(y)
        assert r * (stated.coeffs[-1] / r.coeffs[-1]) == stated

    def test_degenerate_map_rejected(self):
        with pytest.raises(ValueError):
            eq_g(2).in_variable(1, 2, 2, 4, "u")


class TestMovedOperators:
    @pytest.mark.parametrize("name", list(_MAPS))
    def test_equal_to_the_direct_transform_at_every_index(self, name):
        build, var, _, inner = _MAPS[name]
        x_of_t = mobius_inverse(mobius_compose(SERIES_MAPS[var], inner))
        moved = moved_operators(build, var, inner)
        for n in range(31):
            op, direct = moved(n), build(n).in_variable(*x_of_t, var)
            assert (op.a2, op.a1, op.a0) == (direct.a2, direct.a1, direct.a0)
            assert op.a2.var == direct.a2.var == var

    @pytest.mark.parametrize("name", list(_MAPS))
    def test_an_index_squared_term_raises(self, name):
        build, var, _, inner = _MAPS[name]

        def quadratic(n):
            spec = build(n)
            return OdeSpec(spec.label, spec.a2, spec.a1 + n * n * X, spec.a0)

        with pytest.raises(ArithmeticError, match="not affine"):
            moved_operators(quadratic, var, inner)


class TestMobius:
    def test_product_is_composition(self):
        f, g, x = (1, 2, 3, 5), (-1, 1, 1, 1), Fraction(2, 7)

        def at(m, v):
            return (m[0] * v + m[1]) / (m[2] * v + m[3])

        assert at(mobius_compose(f, g), x) == at(f, at(g, x))
        assert mobius_same(mobius_compose(f, mobius_inverse(f)), (1, 0, 0, 1))

    def test_same_map_up_to_scale(self):
        assert mobius_same((0, 1, 2, 1), (0, -3, -6, -3))
        assert not mobius_same((0, 1, 2, 1), (0, 1, 2, -1))
        assert not mobius_same((0, 1, 2, 1), (0, 0, 0, 0))
        assert not mobius_same((1, 2, 2, 4), (1, 2, 2, 4))  # degenerate

    def test_series_variables_compose_as_the_families_do(self):
        # w(x/(1+x)) = u, u(x/(1-x)) = w, s(x/(1+x)) = v/2
        assert mobius_same(mobius_compose(SERIES_MAPS["w"], (1, 0, 1, 1)), SERIES_MAPS["u"])
        assert mobius_same(mobius_compose(SERIES_MAPS["u"], (1, 0, -1, 1)), SERIES_MAPS["w"])
        assert mobius_same(mobius_compose(SERIES_MAPS["s"], (1, 0, 1, 1)),
                           mobius_compose((1, 0, 0, 2), SERIES_MAPS["v"]))


class TestSeriesRoute:
    @pytest.mark.parametrize("n", [1, 2, 7, 30, 200])
    def test_identities_hold(self, n):
        f, g, j, u = f_poly_parseval(n), g_series_coeffs(n), j_series_coeffs(n), u_series_coeffs(n)
        assert _series_residual("bernstein-ode", n, f).is_zero
        assert _series_residual("bernstein-heun", n, f).is_zero
        assert _series_residual("baskakov-ode", n, g).is_zero
        assert _series_residual("baskakov-heun", n, g).is_zero
        assert _series_residual("mkz-ode", n, j).is_zero
        assert _series_residual("bbh-ode", n, u).is_zero
        assert substitution_identity(j_series_coeffs(n - 1), (1, 0, 1, 1), g)
        assert substitution_identity(g_series_coeffs(n + 1), (1, 0, -1, 1), j)
        assert substitution_identity(f_poly_parseval(n), (1, 0, 1, 1), u, 2)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_x_level_substitutions_agree(self, n):
        # what the series route proves, read at the x level through x_form
        assert g_rational(n) == x_form(j_series_coeffs(n - 1), (1, 0, 1, 1))
        assert j_rational(n) == x_form(g_series_coeffs(n + 1), (1, 0, -1, 1))
        assert u_rational(n) == x_form(f_poly_parseval(n), core._FAMILIES["bbh"].to_base)

    @pytest.mark.parametrize("n", [1, 4, 9, 30])
    def test_x_level_residuals_agree(self, n):
        assert ode_residual_poly(g_rational(n), eq_g(n)).is_zero
        assert heun_residual(g_rational(n), HeunParams.rational_case(n), "negate").is_zero
        assert ode_residual_poly(j_rational(n), eq_j(n)).is_zero
        assert ode_residual_poly(u_rational(n), eq_u(n)).is_zero

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_a_tiny_coefficient_fault_is_detected(self, n):
        eps = Fraction(1, 10 ** 30)
        f = f_poly_parseval(n) + RationalPoly([eps], "s")
        assert not _series_residual("bernstein-ode", n, f).is_zero
        assert not _series_residual("bernstein-heun", n, f).is_zero
        g = g_series_coeffs(n) + RationalPoly([0, eps], "u")
        j = j_series_coeffs(n) + RationalPoly([0, eps], "w")
        u = u_series_coeffs(n) + RationalPoly([eps], "v")
        assert not _series_residual("baskakov-ode", n, g).is_zero
        assert not _series_residual("baskakov-heun", n, g).is_zero
        assert not _series_residual("mkz-ode", n, j).is_zero
        assert not _series_residual("bbh-ode", n, u).is_zero
        assert not substitution_identity(j_series_coeffs(n - 1), (1, 0, 1, 1), g)
        assert not substitution_identity(g_series_coeffs(n + 1), (1, 0, -1, 1), j)
        assert not substitution_identity(f_poly_parseval(n), (1, 0, 1, 1), u, 2)

    def test_a_wrong_map_fails_the_substitution(self):
        n = 4
        assert not substitution_identity(j_series_coeffs(n - 1), (1, 0, 2, 1), g_series_coeffs(n))
        assert not substitution_identity(g_series_coeffs(n + 1), (1, 0, 1, 1), j_series_coeffs(n))
        assert not substitution_identity(f_poly_parseval(n), (1, 0, 1, 1), u_series_coeffs(n), 4)

    def test_series_builders_match_their_factorial_forms(self):
        for n in range(1, 31):
            pref = Fraction(math.comb(2 * n, n), 4 ** n)
            assert f_poly_parseval(n).coeffs[::2] == tuple(
                pref * 4 ** k * math.comb(n, k) ** 2 / math.comb(2 * n, 2 * k) for k in range(n + 1)
            )
            assert u_series_coeffs(n).coeffs[::2] == tuple(
                pref * math.comb(n, k) ** 2 / math.comb(2 * n, 2 * k) for k in range(n + 1)
            )
            assert j_series_coeffs(n).coeffs[1::2] == tuple(
                Fraction(math.factorial(2 * k) * math.factorial(2 * n - 2 * k),
                         math.factorial(k) ** 2 * math.factorial(n - k) ** 2 * 4 ** n)
                for k in range(n + 1)
            )
