import math
from fractions import Fraction

import pytest

from sqsums.core import ParameterError
from sqsums.bounds import bound_reports, bound_values, s_values, standard_grid
from sqsums.exactalg import RationalFn, RationalPoly, g_rational, j_rational
from sqsums.families import FAMILIES, FamilyId


BERNSTEIN = FamilyId("bernstein")
BASKAKOV = FamilyId("baskakov")
SZASZ = FamilyId("szasz")
BBH = FamilyId("bbh")
MKZ = FamilyId("mkz")

X = RationalPoly.x()


class TestSValue:
    def test_exact_on_fraction_input(self):
        assert s_values(BERNSTEIN, 2, [Fraction(1, 2)]) == [Fraction(3, 8)]
        assert s_values(BASKAKOV, 1, [Fraction(1, 2)]) == [Fraction(1, 2)]
        assert s_values(MKZ, 0, [Fraction(1, 3)]) == [Fraction(1, 2)]

    def test_float_routes(self):
        assert s_values(BERNSTEIN, 2, [0.5]) == [pytest.approx(0.375, rel=1e-15)]
        assert s_values(SZASZ, 1, [1.0]) == [pytest.approx(math.exp(-2) * 2.2795853023360673, rel=1e-13)]
        assert s_values(BBH, 1, [1.0]) == [pytest.approx(0.5, rel=1e-15)]

    def test_general_aliases(self):
        fam = FamilyId("general", Fraction(-1))
        assert s_values(fam, 2, [Fraction(1, 2)]) == [Fraction(3, 8)]


class TestDocumentedMargins:
    def test_bernstein_midpoint(self):
        r = bound_values(BERNSTEIN, 1, 0.5)
        assert dict(r.bounds)["inv_sqrt"] == 1.0
        assert r.s_value == pytest.approx(0.5, rel=1e-15)
        assert r.min_margin == pytest.approx(0.5, rel=1e-15)
        assert any("refined_power" in note for note in r.notes)

    def test_baskakov_equality_anchor(self):
        # the central-binomial envelope at index 1 is the function itself
        for x in (0.0, 0.37, 2.0, 50.0):
            r = bound_values(BASKAKOV, 1, x)
            assert dict(r.bounds)["central_binomial"] - r.s_value == 0.0

    def test_mkz_equality_anchor(self):
        for x in (0.0, 0.42, 0.9):
            r = bound_values(MKZ, 0, x)
            assert dict(r.bounds)["central_binomial"] - r.s_value == 0.0

    def test_szasz_anchor_at_origin(self):
        r = bound_values(SZASZ, 3, 0.0)
        assert r.s_value == 1.0
        assert dict(r.bounds)["inv_sqrt"] == 1.0
        assert r.min_margin == 0.0

    def test_central_beta_is_one_comb_per_index(self, monkeypatch):
        # the envelope's beta_m = C(2m, m)/4^m over a whole grid: one
        # math.comb for baskakov at n and none more for mkz at n - 1, which
        # reads baskakov's row at the same m, with the bits of the formula
        from sqsums import families

        real, calls = math.comb, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        families._central_beta.cache_clear()
        monkeypatch.setattr(math, "comb", counting)
        for family, n in ((BASKAKOV, 40), (MKZ, 39)):
            for x in standard_grid(family):
                FAMILIES[family.key].bounds(n, x)
        assert calls == [(78, 39)]
        for m in (0, 1, 39, 3000):
            assert families._central_beta(m) == real(2 * m, m) / 4 ** m

    def test_equality_anchors_as_rational_functions(self):
        assert g_rational(1) == RationalFn(RationalPoly.one(), 2 * X + 1)
        assert j_rational(0) == RationalFn(1 - X, 1 + X)


class TestGridMargins:
    @pytest.mark.parametrize(
        "family,n_lo", [(BERNSTEIN, 1), (BBH, 1), (BASKAKOV, 1), (MKZ, 0), (SZASZ, 1)]
    )
    def test_nonnegative_margins(self, family, n_lo):
        grid = standard_grid(family, count=64)
        for n in range(n_lo, 13):
            for x in grid:
                assert bound_values(family, n, x).min_margin >= -1e-12

    def test_dominance_of_refined_bound(self):
        for n in range(2, 15):
            for x in standard_grid(BERNSTEIN, count=64):
                bs = dict(bound_values(BERNSTEIN, n, x).bounds)
                assert bs["refined_power"] <= bs["inv_sqrt"] + 1e-15


class TestSubstitutionBounds:
    def test_bbh_bounds_are_bernsteins(self):
        # bernstein's bounds and notes at the same index and t = x/(1+x)
        for n in (1, 2, 7, 30):
            for x in standard_grid(BBH, count=32):
                r, b = bound_values(BBH, n, x), bound_values(BERNSTEIN, n, x / (1.0 + x))
                assert (r.bounds, r.notes) == (b.bounds, b.notes)

    def test_mkz_bounds_are_baskakovs(self):
        # baskakov's bounds at index n + 1 and t = x/(1-x), the envelope's
        # variable 1/(1+2t) formed from x as the mkz sum forms it,
        # (1-x)/(1+x); at the rounded t itself the envelope moves by ulps
        row = FAMILIES["baskakov"].bounds
        for n in (0, 1, 2, 7, 30):
            for x in standard_grid(MKZ, count=32):
                r, b = bound_values(MKZ, n, x), bound_values(BASKAKOV, n + 1, x / (1.0 - x))
                assert (list(r.bounds), list(r.notes)) == row(n + 1, x / (1.0 - x), (1.0 - x) / (1.0 + x))
                assert dict(r.bounds)["refined_power"] == dict(b.bounds)["refined_power"]
                cb = dict(b.bounds)["central_binomial"]
                assert dict(r.bounds)["central_binomial"] == pytest.approx(cb, rel=1e-13)

    def test_bbh_gains_the_refined_power(self):
        for n in range(2, 31):
            for r in bound_reports(BBH, n, standard_grid(BBH)):
                assert dict(r.bounds)["refined_power"] - r.s_value >= 0.0


class TestLargeIndex:
    @pytest.mark.parametrize("family", [BASKAKOV, MKZ], ids=lambda f: f.name)
    def test_envelope_past_the_overflow_of_its_factors(self, family):
        # (1 + x)^(n-1) overflowed at x = 1e6 from n = 49 on, and C(2n, n)
        # from n = 515: the envelope is finite there, or inf where it leaves
        # the double range, never an error or nan
        for n in (49, 60, 600):
            for x in standard_grid(family):
                cb = dict(bound_values(family, n, x).bounds)["central_binomial"]
                assert cb > 0.0 and not math.isnan(cb)
        bs = dict(bound_values(BASKAKOV, 1100, 1.7e308).bounds)
        assert 0.0 <= bs["central_binomial"] < math.inf and bs["refined_power"] == 0.0
        assert dict(bound_values(BASKAKOV, 600, 0.0).bounds)["central_binomial"] == math.inf


class TestDecay:
    def test_szasz_bound_collapses_far_out(self):
        for n in (1, 2, 5):
            r = bound_values(SZASZ, n, 1e6)
            assert dict(r.bounds)["inv_sqrt"] < 1e-2

    def test_baskakov_bound_collapses_far_out(self):
        for n in (1, 2, 5):
            r = bound_values(BASKAKOV, n, 1e6)
            assert dict(r.bounds)["refined_power"] < 1e-2


class TestValidation:
    def test_inadmissible_index(self):
        with pytest.raises(ParameterError):
            bound_values(MKZ, -1, 0.5)
        with pytest.raises(ParameterError):
            bound_values(BERNSTEIN, 0, 0.5)

    def test_general_without_bounds(self):
        with pytest.raises(ParameterError):
            bound_values(FamilyId("general", Fraction(1, 2)), 2, 0.5)

    def test_report_serializes(self):
        doc = bound_values(BERNSTEIN, 3, 0.25).to_json()
        assert doc["family"] == "bernstein"
        assert isinstance(doc["bounds"], list) and doc["bounds"]

    def test_grid_shapes(self):
        grid = standard_grid(BERNSTEIN)
        assert min(grid) == 0.0 and max(grid) == 1.0
        grid = standard_grid(SZASZ)
        assert max(grid) == 1e6
        grid = standard_grid(MKZ)
        assert max(grid) < 1.0


class TestGridReports:
    @pytest.mark.parametrize("family", [BERNSTEIN, BASKAKOV, SZASZ, BBH, MKZ], ids=lambda f: f.name)
    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_reports_are_the_point_reports(self, family, n):
        # the szasz sums of the whole grid come from one closed-form grid call
        grid = standard_grid(family)
        assert bound_reports(family, n, grid) == [bound_values(family, n, x) for x in grid]

    def test_first_point_error_is_raised(self):
        with pytest.raises(Exception) as point:
            bound_values(MKZ, 2, 1.5)
        with pytest.raises(type(point.value)) as grid:
            bound_reports(MKZ, 2, [0.5, 1.5, 2.5])
        assert str(grid.value) == str(point.value) and "x=1.5" in str(grid.value)
        values = s_values(BBH, Fraction(5, 2), [0.5, 1.0])
        assert all(isinstance(v, ParameterError) and "natural index" in str(v) for v in values)
