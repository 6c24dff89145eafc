import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsums.core import (
    DomainError,
    FamilyId,
    ParameterError,
    Params,
    basis,
    basis_sum,
    gen_binom,
)


class TestGenBinom:
    def test_k_zero_is_one(self):
        assert gen_binom(5.5, 0) == 1.0
        assert gen_binom(Fraction(7, 3), 0) == 1

    def test_natural_alpha_vanishes_past_alpha(self):
        assert gen_binom(3, 5) == 0
        assert gen_binom(3, 4) == 0
        assert gen_binom(3, 3) == 1

    def test_negative_alpha(self):
        # (-2)(-3)/2! forced by the definition
        assert gen_binom(-2, 2) == 3
        assert gen_binom(Fraction(-2), 2) == Fraction(3)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            gen_binom(2.0, -1)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=45))
    def test_matches_comb_on_naturals(self, alpha, k):
        assert gen_binom(alpha, k) == math.comb(alpha, k)

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=16),
        st.integers(min_value=1, max_value=12),
    )
    def test_pascal_rule(self, alpha, k):
        assert gen_binom(alpha, k) == gen_binom(alpha - 1, k - 1) + gen_binom(alpha - 1, k)


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

    def test_supplied_l_checked(self):
        assert Params(3, -1, l=3).l == 3
        with pytest.raises(ParameterError):
            Params(3, -1, l=2)

    def test_l_rejected_for_nonnegative_c(self):
        with pytest.raises(ParameterError):
            Params(3, 0, l=3)

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
