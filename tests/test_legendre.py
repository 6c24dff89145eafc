import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsums import exactalg, legendre
from sqsums.core import Params
from sqsums.evalnum import s_closed_grid
from sqsums.exactalg import RationalPoly, f_poly_parseval, f_value
from sqsums.families import FAMILIES
from sqsums.legendre import _relation_residuals, bridge_check, derivative_relations_check, legendre_poly


def legendre_from_binom(n: int, t: Fraction) -> Fraction:
    """P_n(t) from the binomial double-square sum, exactly.

    2^(-n) sum_k C(n,k)^2 (t+1)^k (t-1)^(n-k): the oracle for
    ``legendre_poly`` that shares nothing with its recurrence.  In floating
    point this form cancels badly, so it is exact-only.
    """
    t = Fraction(t)
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(math.comb(n, k)) ** 2 * (t + 1) ** k * (t - 1) ** (n - k)
    return total / 2 ** n


class TestRecurrence:
    def test_seeds(self):
        assert legendre_poly(0) == 1
        assert legendre_poly(1) == RationalPoly.x("t")
        with pytest.raises(ValueError):
            legendre_poly(-1)

    def test_unit_argument(self):
        for n in range(0, 25):
            assert legendre_poly(n)(Fraction(1)) == 1
            assert legendre_poly(n)(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_one_step(self):
        t = Fraction(5, 4)
        assert legendre_poly(2)(t) == (3 * t * t - 1) / 2

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for n in (2, 5, 11):
            for t in (1.0, 1.3, 2.8, 9.0):
                value = float(legendre_poly(n)(Fraction(t)))
                assert value == pytest.approx(float(special.eval_legendre(n, t)), rel=1e-12)

    def test_coefficient_form_matches_values(self):
        t = Fraction(7, 5)
        for n in range(0, 12):
            assert legendre_poly(n)(t) == legendre_from_binom(n, t)

    def test_parity_and_leading_coefficient(self):
        # P_n has the parity of n and leads with C(2n, n) / 2^n
        for n in range(0, 31):
            coeffs = legendre_poly(n).coeffs
            assert len(coeffs) == n + 1
            assert coeffs[-1] == Fraction(math.comb(2 * n, n), 2 ** n)
            assert not any(coeffs[1 - n % 2::2]), n

    def test_integer_recurrence_matches_the_fraction_loop(self):
        for t in (Fraction(1, 8), Fraction(2, 5), Fraction(-7, 3), Fraction(0), Fraction(-1), Fraction(41, 9)):
            for n in range(61):
                assert legendre_poly(n)(t) == _fraction_loop(n, t)

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
        assert legendre_from_binom(n, t) == legendre_poly(n)(t)


def _nudged(n: int, i: int):
    """f_poly_parseval with 1e-30 more on the s^i coefficient of F_n alone."""
    eps = RationalPoly([0] * i + [Fraction(1, 10 ** 30)], "s")
    return lambda k: f_poly_parseval(k) + eps if k == n else f_poly_parseval(k)


def _residual(n: int, x: Fraction) -> Fraction:
    """F_n(x) - (1-2x)^n P_n(t), t = (2x^2 - 2x + 1)/(1 - 2x), exactly."""
    t = (2 * x * x - 2 * x + 1) / (1 - 2 * x)
    return f_value(n, x) - (1 - 2 * x) ** n * legendre_poly(n)(t)


class TestBridge:
    def test_hand_computed_points(self):
        # x = 1/4: t = 5/4, falling factor 1/2, P_1 = 5/4, so 5/8 on both sides
        assert f_value(1, Fraction(1, 4)) == Fraction(5, 8) == Fraction(1, 2) * legendre_poly(1)(Fraction(5, 4))
        # x = 1/4, n = 2: 1/4 P_2(5/4) = 59/128 = 0.4609375
        assert f_value(2, Fraction(1, 4)) == Fraction(59, 128) == Fraction(1, 4) * legendre_poly(2)(Fraction(5, 4))
        assert _residual(1, Fraction(1, 4)) == _residual(2, Fraction(1, 4)) == 0

    def test_vanishes_at_origin(self):
        # x = 0 maps to t = 1, where every P_n and F_n is 1
        for n in (1, 4, 9):
            assert f_value(n, Fraction(0)) == 1
            assert _residual(n, Fraction(0)) == 0

    def test_residual_small_on_grid(self):
        # the float bridge is the c = -1 closed form, (1-2x)^n P_n(t)
        xs = [0.45 * i / 63 for i in range(64)]
        for n in (1, 5, 18, 30):
            for x, r in zip(xs, s_closed_grid(Params(n, -1), xs)):
                exact = f_value(n, Fraction(x))
                assert abs(Fraction(r.value) - exact) <= Fraction(1e-12) * max(exact, Fraction(1, 1000)), (n, x)

    def test_exact_at_rational_points(self):
        # R_n of the recurrence, evaluated at s = x - 1/2, is 2^n n! F_n(x)
        xs = (Fraction(1, 8), Fraction(1, 3), Fraction(2, 5))
        rs = list(itertools.islice(legendre._bonnet([1, 4], [0, 16]), 20))
        for n in (1, 2, 7, 19):
            r_n = RationalPoly(rs[n], "u")
            for x in xs:
                assert r_n((x - Fraction(1, 2)) ** 2) == 2 ** n * math.factorial(n) * f_value(n, x), (n, x)

    def test_mirror_form_scales_by_falling_power(self):
        # P_n(t) = (1-2x)^(-n) F_n(x), the bridge solved for P_n
        for n, x in ((3, Fraction(1, 5)), (6, Fraction(3, 7)), (4, Fraction(5, 2))):
            t = (2 * x * x - 2 * x + 1) / (1 - 2 * x)
            assert legendre_poly(n)(t) == (1 - 2 * x) ** -n * f_value(n, x)

    def test_no_singularity_at_the_centre(self):
        # t has a pole at x = 1/2, the identity in s^2 none: at s = 0,
        # R_(k+1) = (2k+1) R_k, so F_n(1/2) = (2n-1)!! / (2^n n!) = C(2n, n) / 4^n
        for n, r in zip(range(0, 25), legendre._bonnet([1, 4], [0, 16])):
            assert Fraction(r[0], 2 ** n * math.factorial(n)) == Fraction(math.comb(2 * n, n), 4 ** n)
            assert f_value(n, Fraction(1, 2)) == Fraction(math.comb(2 * n, n), 4 ** n)

    def test_first_terms_by_hand(self):
        # R_1 = N = 1 + 4s^2 = 2 F_1; R_2 = 3 N R_1 - 16 s^2 = 3 + 8s^2 + 48s^4 = 8 F_2
        assert list(itertools.islice(legendre._bonnet([1, 4], [0, 16]), 3)) == [[1], [1, 4], [3, 8, 48]]
        assert f_poly_parseval(1) == RationalPoly([Fraction(1, 2), 0, 2], "s")
        assert f_poly_parseval(2) == RationalPoly([Fraction(3, 8), 0, 1, 0, 6], "s")

    def test_holds_as_a_polynomial_identity(self):
        assert bridge_check(range(0, 61), f_poly_parseval)
        assert bridge_check(range(40, 41), f_poly_parseval)
        assert bridge_check(range(1, 1), f_poly_parseval)

    @pytest.mark.parametrize("n", [1, 5, 13])
    def test_a_nudge_of_any_coefficient_fails(self, n):
        # odd powers included, where F_n has none; indices below n never
        # read the nudged F_n
        for i in range(2 * n + 1):
            assert not bridge_check(range(1, n + 1), _nudged(n, i)), i
            assert bridge_check(range(1, n), _nudged(n, i)), i

    def test_a_stepped_range_reads_only_its_indices(self):
        ns = range(1, 30, 7)
        assert bridge_check(ns, f_poly_parseval)
        assert bridge_check(ns, _nudged(2, 0))
        assert not bridge_check(ns, _nudged(8, 0))

    def test_values_on_and_off_the_map_interval(self):
        # the identity holds at every rational x != 1/2, t < 1 included
        for n in (1, 2, 7, 19):
            for x in (Fraction(1, 8), Fraction(1, 3), Fraction(2, 5), Fraction(7, 10), Fraction(3), Fraction(-2, 7)):
                t = (2 * x * x - 2 * x + 1) / (1 - 2 * x)
                assert f_value(n, x) == (1 - 2 * x) ** n * legendre_poly(n)(t), (n, x)


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

    def test_index_validated(self):
        with pytest.raises(ValueError):
            derivative_relations_check(0, Fraction(2))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_bridge_identity_detects_a_perturbed_coefficient(self, n, monkeypatch):
        # the bernstein legendre item: the whole-domain bridge, which implies
        # its derivative, and the relations at t = 3/2 for n <= 8
        item = dict(FAMILIES["bernstein"].items)["legendre"]
        ns = range(n, n + 1)
        assert item(ns)
        eps = Fraction(1, 10 ** 30)
        # eps x = eps (s + 1/2) on F_n, an odd and an even power of s
        monkeypatch.setattr(exactalg, "f_poly_parseval",
            lambda k: f_poly_parseval(k) + RationalPoly([eps / 2, eps], "s"))
        assert not item(ns)
        monkeypatch.undo()
        monkeypatch.setattr(legendre, "legendre_poly", lambda k: legendre_poly(k) + RationalPoly([0, eps], "t"))
        assert item(ns) == (n > 8)


class TestMonotoneRestatement:
    def test_decreasing_then_increasing(self):
        for n in (1, 2, 6):
            xs = [i / 128 for i in range(65)]
            vals = [f_value(n, x) for x in xs]
            assert all(vals[i + 1] <= vals[i] + 1e-14 for i in range(len(vals) - 1))
            xs = [0.5 + i / 128 for i in range(65)]
            vals = [f_value(n, x) for x in xs]
            assert all(vals[i] <= vals[i + 1] + 1e-14 for i in range(len(vals) - 1))
