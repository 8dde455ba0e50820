"""Verification checks: verdicts, witnesses and report serialization."""

import json
from fractions import Fraction

import pytest

from inflectionary.conjectures import (
    DEFAULT_LAMBDA_GRID,
    _affine_singular_candidates,
    check_coeff_symmetry,
    check_determinant_identity,
    check_face_structure,
    check_homogenization_symmetry,
    check_shift_symmetry,
    check_support,
    conjecture4_scan,
    gamma_faces,
    lemma_range_probe,
    predicted_support,
    real_root_census,
    separability_check,
    sigma_reflection,
    singular_probe,
)
from inflectionary.inflection import basic_inflection, legendre_f
from inflectionary.poly import VAR_LAMBDA, VAR_X, SparsePoly, poly_to_json
from inflectionary.reports import FAIL, OUT_OF_RANGE, PASS, CheckReport, jsonable
from inflectionary.roots import RootIsolator, SturmChain, squarefree_part

XL = (VAR_X, VAR_LAMBDA)
X = SparsePoly.variable(XL, VAR_X)
L = SparsePoly.variable(XL, VAR_LAMBDA)


def perturbed(k, exponent, delta):
    p = basic_inflection(k).poly
    return p + SparsePoly(p.vars, {exponent: Fraction(delta)})


class TestReports:
    def test_json_field_order(self):
        report = CheckReport("demo", {"k": 2}, PASS, data={"n": 1})
        keys = list(report.to_json_dict())
        assert keys == ["check", "params", "verdict", "data"]

    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            CheckReport("demo", {}, FAIL)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            CheckReport("demo", {}, "MAYBE")

    def test_jsonable_fractions_and_sets(self):
        out = jsonable({"r": Fraction(-1, 3), "s": {2, 1}, "t": (0, 1)})
        assert out == {"r": "-1/3", "s": [1, 2], "t": [0, 1]}

    def test_jsonable_rejects_floats(self):
        with pytest.raises(TypeError):
            jsonable({"bad": 0.5})

    def test_to_json_round_trips(self):
        report = CheckReport("demo", {"lambda0": Fraction(1, 2)}, PASS)
        assert json.loads(report.to_json()) == report.to_json_dict()


class TestSymmetry:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_homogenization_swap_passes(self, k):
        assert check_homogenization_symmetry(k).verdict == PASS

    @pytest.mark.parametrize("k", range(1, 7))
    def test_unit_shift_passes(self, k):
        assert check_shift_symmetry(k).verdict == PASS

    def test_homogenization_swap_catches_perturbation(self):
        report = check_homogenization_symmetry(2, poly=perturbed(2, (1, 1), 1))
        assert report.verdict == FAIL
        assert "exponent" in report.witness

    def test_unit_shift_catches_perturbation(self):
        report = check_shift_symmetry(2, poly=perturbed(2, (1, 0), 1))
        assert report.verdict == FAIL
        assert report.witness["difference_coefficient"] != 0

    def test_bad_k(self):
        with pytest.raises(ValueError):
            check_homogenization_symmetry(0)
        with pytest.raises(ValueError):
            check_shift_symmetry(-1)


class TestSupport:
    def test_first_support_frozen(self):
        assert predicted_support(1) == {(0, 2), (2, 1), (3, 1), (3, 0), (4, 0)}

    @pytest.mark.parametrize("k", range(1, 6))
    def test_support_matches_prediction(self, k):
        report = check_support(k)
        assert report.verdict == PASS
        assert report.data["size"] == len(predicted_support(k))

    def test_support_reports_missing_and_extra(self):
        p = basic_inflection(2).poly
        q = p - SparsePoly(p.vars, {(0, 3): p.coefficient((0, 3))})
        q = q + SparsePoly(p.vars, {(1, 1): Fraction(7)})
        report = check_support(2, poly=q)
        assert report.verdict == FAIL
        assert report.witness["missing"] == [[0, 3]]
        assert report.witness["unexpected"] == [[1, 1]]

    def test_sigma_is_an_involution(self):
        for k in range(1, 6):
            for e in basic_inflection(k).poly.support():
                assert sigma_reflection(k, sigma_reflection(k, e)) == e

    def test_sigma_preserves_support(self):
        for k in range(1, 6):
            support = basic_inflection(k).poly.support()
            assert {sigma_reflection(k, e) for e in support} == support

    @pytest.mark.parametrize("k", range(1, 6))
    def test_coeff_symmetry_passes(self, k):
        assert check_coeff_symmetry(k).verdict == PASS

    def test_coeff_symmetry_catches_perturbation(self):
        report = check_coeff_symmetry(2, poly=perturbed(2, (1, 2), 1))
        assert report.verdict == FAIL
        assert report.witness["coefficient"] != report.witness["mirror_coefficient"]


class TestFaceStructure:
    def test_faces_of_first_admissible_k(self):
        assert gamma_faces(2) == (((0, 3), (1, 2)), ((1, 2), (5, 0)))

    def test_faces_need_k_at_least_two(self):
        with pytest.raises(ValueError):
            gamma_faces(1)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_face_structure_passes(self, k):
        report = check_face_structure(k)
        assert report.verdict == PASS
        assert report.data["faces_are_lower_hull"] is True
        assert report.data["gamma1_cofactor_degree"] == k - 1
        assert report.data["gamma1_cofactor_squarefree"] is True

    def test_shallow_face_coefficients_recorded(self):
        data = check_face_structure(2).data
        coeffs = data["gamma2_coefficients"]
        assert coeffs["x^(k-1)*lambda^2"] != 0
        assert coeffs["x^(2k+1)"] != 0


class TestSeparability:
    @pytest.mark.parametrize("lambda0", DEFAULT_LAMBDA_GRID)
    def test_basic_case_separable(self, lambda0):
        report = separability_check(1, 2, lambda0)
        assert report.verdict == PASS
        assert "gcd_degree" in report.data

    def test_higher_series_separable(self):
        assert separability_check(2, 3, Fraction(-1, 2)).verdict == PASS

    @pytest.mark.parametrize("lambda0", (0, 1))
    def test_degenerate_parameter_rejected(self, lambda0):
        with pytest.raises(ValueError):
            separability_check(1, 2, lambda0)


class TestRootCensus:
    def test_census_frozen(self):
        census = real_root_census(1, 2, 2)
        assert census.total_real_roots == 4
        assert census.roots_f_positive == 2
        assert census.roots_at_01 == {0: 0, 1: 0}
        assert census.separable_away_from_01 is True

    def test_census_even_parity(self):
        census = real_root_census(1, 3, Fraction(1, 2))
        assert census.roots_f_positive == 1

    def test_census_serializes(self):
        data = jsonable(real_root_census(1, 2, -3))
        assert data["lambda0"] == "-3"
        assert len(data["intervals"]) == data["total_real_roots"]

    def test_degenerate_parameter_rejected(self):
        with pytest.raises(ValueError):
            real_root_census(1, 2, 1)

    def test_one_isolator_per_fiber(self, monkeypatch):
        built = []
        init = RootIsolator.__init__

        def counting_init(self, p):
            built.append(p)
            init(self, p)

        monkeypatch.setattr(RootIsolator, "__init__", counting_init)
        census = real_root_census(1, 4, Fraction(-3, 2))
        assert census.total_real_roots > 1
        assert len(built) == 1

    def test_one_chain_of_f_per_fiber(self, monkeypatch):
        built = []
        init = SturmChain.__init__

        def counting_init(self, p):
            built.append(p)
            init(self, p)

        monkeypatch.setattr(SturmChain, "__init__", counting_init)
        lambda0 = Fraction(-3, 2)
        census = real_root_census(1, 4, lambda0)
        f_here = squarefree_part(legendre_f().specialize(VAR_LAMBDA, lambda0))
        assert census.total_real_roots > 1
        assert built.count(f_here) == 1
        # the isolator's chain and f's: gcd(p, f) is constant here
        assert len(built) == 2


class TestScan:
    def test_odd_gap_gives_two_positive_roots(self):
        report = conjecture4_scan(1, 2)
        assert report.verdict == PASS
        assert report.data["parity"] == "odd"
        assert report.data["expected"] == 2
        assert set(report.data["counts"]) == {2}

    def test_even_gap_gives_one_positive_root(self):
        report = conjecture4_scan(1, 3)
        assert report.verdict == PASS
        assert report.data["expected"] == 1

    def test_degenerate_grid_entries_warned_not_silent(self):
        report = conjecture4_scan(1, 2, (0, 2))
        assert report.verdict == PASS
        assert report.data["warnings"] == ["skipped degenerate lambda = 0"]
        assert report.data["samples"] == [Fraction(2)]

    def test_all_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            conjecture4_scan(1, 2, (0, 1))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            conjecture4_scan(1, 2, ())

    @pytest.mark.parametrize("k,agrees", [(0, False), (1, True)])
    def test_k_at_most_mu_is_out_of_range(self, k, agrees):
        # the law was calibrated for k > mu: counts are recorded, not judged
        report = conjecture4_scan(1, k, (2,))
        assert report.verdict == OUT_OF_RANGE
        assert report.witness is None
        assert report.data["counts"] == [1]
        assert report.data["agrees"] is agrees


class TestDeterminantIdentity:
    def test_routes_agree(self):
        report = check_determinant_identity(2, 3)
        assert report.verdict == PASS
        assert report.data["terms"] > 0

    def test_shape_constraint_enforced(self):
        with pytest.raises(ValueError):
            check_determinant_identity(2, 2)

    def test_out_of_range_probe_reports_not_asserts(self):
        report = lemma_range_probe()
        assert report.verdict == OUT_OF_RANGE
        assert report.params == {"mu": 2, "k": 2}
        assert report.data["agrees"] is True


class TestSingularCandidates:
    def test_smooth_conic_has_none(self):
        q = SparsePoly(XL, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
        assert _affine_singular_candidates(q, VAR_X, VAR_LAMBDA) == ([], [], [])

    def test_nodal_cubic_certified_exactly(self):
        # lambda^2 = (x - 2)^2 (x + 1) has one node, at (2, 0)
        q = SparsePoly(XL, {(0, 2): 1, (3, 0): -1, (2, 0): 3, (0, 0): -4})
        certified, unresolved, residuals = _affine_singular_candidates(
            q, VAR_X, VAR_LAMBDA)
        assert certified == [{VAR_LAMBDA: Fraction(0), VAR_X: Fraction(2)}]
        assert unresolved == []
        assert residuals == []

    def test_singular_line_surfaces_as_witness(self):
        # lambda^2 (x^2 - lambda - 2): the whole line lambda = 0 is singular
        q = SparsePoly(XL, {(2, 2): 1, (0, 3): -1, (0, 2): -2})
        certified, unresolved, residuals = _affine_singular_candidates(
            q, VAR_X, VAR_LAMBDA)
        assert certified == []
        assert residuals == [{"reason": "entire line of singular points",
                              VAR_LAMBDA: Fraction(0)}]

    def test_vanishing_resultant_surfaces_as_witness(self):
        q = SparsePoly(XL, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
        _, _, residuals = _affine_singular_candidates(q, VAR_X, VAR_LAMBDA)
        assert residuals == [{"reason": "identically vanishing resultant"}]

    def test_nonreal_common_zeros_not_dropped(self):
        # lambda (lambda - x^2 - 1) is singular only at (x, lambda) = (+-i, 0)
        q = SparsePoly(XL, {(0, 2): 1, (2, 1): -1, (0, 1): -1})
        certified, unresolved, residuals = _affine_singular_candidates(
            q, VAR_X, VAR_LAMBDA)
        assert certified == []
        assert len(residuals) == 1
        assert residuals[0]["reason"] == "nonreal common zeros"

    def test_nonreal_candidate_values_stay_unresolved(self):
        # (x^2 + 1)^2 + lambda^2: the candidate x-values are the roots of
        # x^2 + 1, none real, so they are handed back rather than dropped
        q = (X ** 2 + 1) ** 2 + L ** 2
        certified, unresolved, residuals = _affine_singular_candidates(
            q, VAR_X, VAR_LAMBDA)
        assert certified == []
        assert residuals == []
        x = SparsePoly.variable((VAR_X,), VAR_X)
        assert unresolved == [{"variable": VAR_X,
                               "reason": "nonreal candidate values",
                               "residual": poly_to_json(x ** 2 + 1)}]


class TestSingularProbe:
    def test_first_nontrivial_curve(self):
        report = singular_probe(2)
        assert report.verdict == PASS
        assert all(report.data["allowed_points"].values())
        for info in report.data["distinguished"].values():
            assert info["on_curve"] is True
            assert info["singular"] is True

    def test_chart_breakdown_recorded(self):
        data = singular_probe(2).data
        assert set(data["charts"]) == {"z", "x", "lambda"}
        union = set()
        for chart in data["charts"].values():
            union.update(chart["certified"])
            assert chart["unresolved"] == 0
        assert union == {"[0:0:1]", "[0:1:0]", "[1:1:1]"}

    def test_report_serializes(self):
        text = singular_probe(2).to_json()
        assert json.loads(text)["verdict"] == "PASS"

    def test_bad_k(self):
        with pytest.raises(ValueError):
            singular_probe(0)
