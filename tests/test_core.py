import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsums import core
from sqsums.core import (
    LOG_SPACE_THRESHOLD,
    DomainError,
    FamilyId,
    ParameterError,
    Params,
    _log_rising_over_fact,
    basis,
    basis_sum,
)


class TestParams:
    def test_negative_c_infers_l(self):
        p = Params(2, -1)
        assert p.l == 2
        assert p.domain_sup == 1

    def test_negative_c_exact_divisibility(self):
        p = Params(Fraction(5, 2), Fraction(-1, 2))
        assert p.l == 5
        with pytest.raises(ParameterError):
            Params(Fraction(5, 3), Fraction(-1, 2))

    def test_positive_index_required(self):
        with pytest.raises(ParameterError):
            Params(0, 1)
        with pytest.raises(ParameterError):
            Params(-1, 0)

    def test_domains(self):
        assert Params(2, -1).domain_str() == "[0, 1]"
        assert Params(1, Fraction(-1, 2)).domain_str() == "[0, 2]"
        assert Params(1, 0).domain_str() == "[0, +inf)"
        assert Params(1, 0).in_domain(1e9)
        assert not Params(2, -1).in_domain(1.0000001)
        with pytest.raises(DomainError):
            Params(2, -1).require_in_domain(2.0)

    def test_irrational_float_c_rejected_without_exact_ratio(self):
        # 0.1 is not dyadic; its exact binary value does not divide 1
        with pytest.raises(ParameterError):
            Params(1, -0.1)

    def test_hashable(self):
        assert len({Params(2, -1), Params(2, -1), Params(3, -1)}) == 2

    def test_l_is_inferred_not_taken(self):
        # l is a field of the record, in its repr, equality and hash, and
        # never an argument
        assert repr(Params(2, -1)) == "Params(n=Fraction(2, 1), c=Fraction(-1, 1), l=2)"
        assert repr(Params(3, 0)) == "Params(n=Fraction(3, 1), c=Fraction(0, 1), l=None)"
        assert Params(2, -1) == Params(Fraction(2), -1.0)
        assert hash(Params(2, -1)) == hash((Fraction(2), Fraction(-1), 2))
        with pytest.raises(TypeError):
            Params(3, -1, l=3)

    def test_one_implementation_of_the_domain_accessors(self):
        # Params and FamilyId share them, each wording its own DomainError
        for name in ("domain_sup", "domain_str", "in_domain", "require_in_domain"):
            assert getattr(Params, name) is getattr(FamilyId, name)
        with pytest.raises(DomainError, match=r"^x=1\.5 outside the domain I_c = \[0, 1\]$"):
            Params(2, -1).require_in_domain(1.5)
        with pytest.raises(DomainError, match=r"^x=-1 outside the domain I_c = \[0, \+inf\)$"):
            Params(2, 1).require_in_domain(-1)


class TestFamilyId:
    def test_canonical_classification(self):
        assert FamilyId.from_c(-1) == FamilyId("bernstein")
        assert FamilyId.from_c(0) == FamilyId("szasz")
        assert FamilyId.from_c(1) == FamilyId("baskakov")
        assert FamilyId.from_c(Fraction(1, 2)).name == "general"

    def test_substitution_families(self):
        bbh = FamilyId("bbh")
        assert bbh.base_params(3) == Params(3, -1)
        assert bbh.substitution(1.0) == 0.5
        mkz = FamilyId("mkz")
        assert mkz.base_params(0) == Params(1, 1)
        assert mkz.substitution(0.5) == 1.0

    @pytest.mark.parametrize("name, sup, old", [
        ("bbh", sys.float_info.max, lambda x: x / (1.0 + x)),
        ("mkz", math.nextafter(1.0, 0.0), lambda x: x / (1.0 - x)),
    ])
    def test_substitution_has_the_bits_of_the_float_map(self, name, sup, old):
        # the row's integer matrix on a float has the bits of the quotient
        # it stands for, from 0 and the least subnormal to the domain's top
        rng = np.random.default_rng(34)
        xs = [0.0, 5e-324, sup, math.nextafter(sup, 0.0), 1.0 if name == "bbh" else 0.5]
        xs += (10.0 ** rng.uniform(-323.5, math.log10(sup), 6000)).tolist()
        xs += (rng.uniform(0.0, 1.0, 6000)).tolist()
        family = FamilyId(name)
        assert [family.substitution(x).hex() for x in xs] == [old(x).hex() for x in xs]

    def test_substitution_is_exact_on_fractions(self):
        assert FamilyId("bbh").substitution(Fraction(1, 3)) == Fraction(1, 4)
        assert FamilyId("mkz").substitution(Fraction(1, 3)) == Fraction(1, 2)
        assert FamilyId("bernstein").substitution(Fraction(1, 3)) == Fraction(1, 3)

    def test_substitution_checks_the_point(self):
        # the message of every DomainError of a family, a negative point included
        with pytest.raises(DomainError, match=r"^x=-0\.5 outside the domain \[0, \+inf\) of family 'bbh'$"):
            FamilyId("bbh").substitution(-0.5)
        with pytest.raises(DomainError, match=r"^x=1 outside the domain \[0, 1\) of family 'mkz'$"):
            FamilyId("mkz").substitution(Fraction(1))

    def test_mkz_domain_is_half_open(self):
        mkz = FamilyId("mkz")
        assert mkz.in_domain(0.999999)
        assert not mkz.in_domain(1.0)
        with pytest.raises(DomainError):
            mkz.substitution(1.0)

    def test_general_requires_c(self):
        with pytest.raises(ParameterError):
            FamilyId("general")
        with pytest.raises(ParameterError):
            FamilyId("bernstein", c=Fraction(-1))

    def test_natural_index_enforced(self):
        with pytest.raises(ParameterError):
            FamilyId("bernstein").base_params(Fraction(3, 2))

    @pytest.mark.parametrize(
        "name,c,key,base",
        [
            ("bernstein", None, "bernstein", "bernstein"),
            ("szasz", None, "szasz", "szasz"),
            ("bbh", None, "bbh", "bernstein"),
            ("mkz", None, "mkz", "baskakov"),
            ("general", -1, "bernstein", "bernstein"),
            ("general", 0, "szasz", "szasz"),
            ("general", 1, "baskakov", "baskakov"),
            ("general", Fraction(1, 2), "general", "general"),
        ],
    )
    def test_key_and_base_family(self, name, c, key, base):
        family = FamilyId(name, c)
        assert family.key == key
        assert family.base_family == base

    def test_domains_match_base_params(self):
        # a family without a change of variable has the domain of its Params
        for c in (-1, Fraction(-1, 2), 0, 1, 2):
            family = FamilyId("general", c)
            params = family.base_params(-c if c < 0 else 1)
            assert family.domain_sup == params.domain_sup
            assert family.domain_str() == params.domain_str()
        assert FamilyId("bbh").domain_str() == "[0, +inf)"
        assert FamilyId("bernstein").domain_sup == 1


def _brute_basis(n: float, c: float, k: int, x: float) -> float:
    """Independent: the defining product formula, no shared code."""
    if c == 0.0:
        return (n * x) ** k / math.factorial(k) * math.exp(-n * x)
    coef = 1.0
    for i in range(k):
        coef *= (-n / c - i) / (i + 1.0)
    return (-1) ** k * coef * (c * x) ** k * (1.0 + c * x) ** (-n / c - k)


class TestBasis:
    def test_anchor_at_zero(self):
        for params in (Params(2, -1), Params(3, 0), Params(4, 1)):
            assert basis(params, 0, 0.0) == 1.0
            assert basis(params, 3, 0.0) == 0.0

    def test_documented_points(self):
        assert basis(Params(2, -1), 1, 0.5) == pytest.approx(0.5, rel=1e-15)
        assert basis(Params(1, 1), 1, 1.0) == pytest.approx(0.25, rel=1e-15)
        assert basis(Params(1, 0), 0, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_matches_defining_formula(self):
        for params, x in [
            (Params(5, -1), 0.33),
            (Params(3, Fraction(-1, 2)), 1.7),
            (Params(2, 0), 2.5),
            (Params(4, 1), 0.8),
            (Params(3, 2), 1.1),
            (Params(Fraction(7, 2), Fraction(1, 2)), 3.0),
        ]:
            for k in range(0, 8):
                expect = _brute_basis(params.n_float, params.c_float, k, x)
                assert basis(params, k, x) == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_finite_support_for_negative_c(self):
        p = Params(4, -1)
        assert basis(p, 5, 0.3) == 0.0
        assert basis(p, 17, 0.3) == 0.0

    def test_right_endpoint_for_negative_c(self):
        p = Params(6, -1)
        assert basis(p, 6, 1.0) == 1.0
        assert basis(p, 2, 1.0) == 0.0

    def test_log_space_large_parameters(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        p = Params(5000, -1)
        got = basis(p, 2500, 0.5)
        expect = float(scipy_stats.binom.pmf(2500, 5000, 0.5))
        assert got == pytest.approx(expect, rel=1e-10)
        p0 = Params(800, 0)
        got = basis(p0, 790, 1.0)
        expect = float(scipy_stats.poisson.pmf(790, 800))
        assert got == pytest.approx(expect, rel=1e-10)

    @given(
        st.sampled_from([(2, -1), (5, -1), (3, 0), (1, 1), (3, 2)]),
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=120)
    def test_nonnegative_and_at_most_one(self, nc, k, x):
        params = Params(*nc)
        value = basis(params, k, x)
        assert 0.0 <= value <= 1.0 + 1e-12

    def test_domain_rejection(self):
        with pytest.raises(DomainError):
            basis(Params(2, -1), 0, 1.5)
        with pytest.raises(DomainError):
            basis(Params(2, 0), 0, -0.5)


_GUARD = LOG_SPACE_THRESHOLD / 2


def _adjacent(direct, lo, hi):
    """Adjacent floats (x, y) from lo toward hi with direct(x) true and direct(y) false."""
    while math.nextafter(lo, hi) != hi:
        mid = lo + (hi - lo) / 2
        lo, hi = (mid, hi) if direct(mid) else (lo, mid)
    return lo, hi


def _pos_c_logp(a, k, x):  # c = 1: the log of p_k as basis forms it
    return _log_rising_over_fact(a, k) + k * math.log(x / (1.0 + x)) - a * math.log1p(x)


# (params, k, the condition under which basis keeps the direct product, as
# basis states it, and a point on each side of it)
_STRADDLES = [
    pytest.param(Params(1, 0), 30, lambda x: x < _GUARD, 300.0, 400.0, id="c=0 mu"),
    pytest.param(Params(100, 1), 5, lambda x: abs(100.0 * math.log1p(x)) < _GUARD, 1.0, 100.0,
                 id="c>0 a*log1p(cx)"),
    pytest.param(Params(1, 1), 30, lambda x: _pos_c_logp(1.0, 30, x) > -_GUARD, 1e-3, 1e-7,
                 id="c>0 log p"),
    pytest.param(Params(60, -1), 1, lambda x: abs(59 * math.log1p(-x)) < _GUARD, 0.5, 0.999,
                 id="c<0 (l-k)*log1p(cx)"),
    pytest.param(Params(60, -1), 30, lambda x: abs(30 * math.log(x)) < _GUARD, 1e-3, 1e-7,
                 id="c<0 k*log|cx|"),
]


@pytest.mark.parametrize("params, k, direct, lo, hi", _STRADDLES)
def test_basis_straddles_the_log_space_switch(params, k, direct, lo, hi):
    # the adjacent floats on each side of LOG_SPACE_THRESHOLD / 2 against
    # mpmath at 40 digits.  In log space p_k is exp of a sum of terms, each
    # rounded to about one ulp of its own size, so the exponent is off by
    # about 2^-52 times the sum of their magnitudes (|log p| or more, where
    # the lgamma terms cancel), and exp adds one rounding; the direct
    # product stays within the same bound
    mpmath = pytest.importorskip("mpmath")
    n, c = params.n_float, params.c_float
    assert direct(lo) and not direct(hi)
    for x in _adjacent(direct, lo, hi):
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            if c == 0:
                want = xm ** k / mpmath.factorial(k) * mpmath.exp(-xm)
                terms = [k * mpmath.log(xm), xm, mpmath.loggamma(k + 1)]
            elif c > 0:
                r = xm / (1 + xm)
                want = mpmath.rf(n, k) / mpmath.factorial(k) * r ** k * (1 + xm) ** -n
                terms = [mpmath.loggamma(n + k), mpmath.loggamma(n), mpmath.loggamma(k + 1),
                         k * mpmath.log(r), n * mpmath.log1p(xm)]
            else:
                l = params.l
                want = mpmath.binomial(l, k) * xm ** k * (1 - xm) ** (l - k)
                terms = [mpmath.loggamma(l + 1), mpmath.loggamma(k + 1), mpmath.loggamma(l - k + 1),
                         k * mpmath.log(xm), (l - k) * mpmath.log1p(-xm)]
            tol = 2.0 ** -52 * (float(sum(abs(t) for t in terms)) + 1.0)
            assert abs(basis(params, k, x) - want) <= tol * want, (x, float(mpmath.log(want)))


class TestPartitionOfUnity:
    @pytest.mark.parametrize(
        "params,xs",
        [
            (Params(7, -1), [0.1, 0.5, 0.93, 1.0]),
            (Params(3, Fraction(-1, 2)), [0.2, 1.0, 1.9]),
            (Params(4, 0), [0.01, 1.0, 7.5, 40.0]),
            (Params(2, 1), [0.3, 2.0, 15.0]),
            (Params(5, 2), [0.4, 3.0, 20.0]),
            (Params(Fraction(3, 2), Fraction(1, 2)), [0.7, 9.0]),
            (Params(50, 0), [10.0]),
            (Params(1, 0), [1e6, 1e8]),  # Loader's anchor; k0 log mu - mu - lgamma was off by 7e-10
        ],
    )
    def test_sums_to_one(self, params, xs):
        for x in xs:
            total, _ = basis_sum(params, x)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_terminates_for_negative_c(self):
        total, terms = basis_sum(Params(9, -1), 0.4)
        assert terms == 10
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_negative_c_past_its_cap_raises_before_summing(self, monkeypatch):
        # l + 1 terms past _NEG_C_TERMS raise before a term is summed (l =
        # 10^6 took 1.6 s, and l = 10^300 at c = -1e-300, n = 1, would not
        # finish); x = 0 still reads 1, and below the cap the sum is unchanged
        for l in (core._NEG_C_TERMS, core._NEG_C_TERMS + 1):
            with pytest.raises(ArithmeticError, match=(
                    rf"^the c < 0 basis sum at l = {l} takes {l + 1} terms, past its cap of {core._NEG_C_TERMS}$")):
                basis_sum(Params(l, -1), 0.5)
            assert basis_sum(Params(l, -1), 0.0) == (1.0, 1)
        want = basis_sum(Params(9, -1), 0.4)
        monkeypatch.setattr(core, "_NEG_C_TERMS", 10)
        assert basis_sum(Params(9, -1), 0.4) == want
        monkeypatch.setattr(core, "_NEG_C_TERMS", 9)
        with pytest.raises(ArithmeticError, match="past its cap of 9"):
            basis_sum(Params(9, -1), 0.4)
