"""Verification checks: verdicts, witnesses and report serialization."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from test_acceptance import separability_check

from inflectionary import conjectures
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
    predicted_support,
    real_root_census,
    sigma_reflection,
    singular_probe,
)
from inflectionary.inflection import (
    _checked,
    basic_inflection,
    derivative_oracle,
    general_inflection,
    legendre_f,
    q_template,
    shift_var_name,
)
from inflectionary.matrices import det_polymatrix
from inflectionary.poly import VAR_LAMBDA, VAR_X, SparsePoly, poly_to_json, substitute_polys
from inflectionary.reports import (
    FAIL,
    OUT_OF_RANGE,
    PASS,
    CheckReport,
    PreconditionError,
    jsonable,
)
from inflectionary.roots import (
    MAX_DENOMINATOR,
    IsolatingInterval,
    RootIsolator,
    SturmChain,
    deflate,
)

XL = (VAR_X, VAR_LAMBDA)
X = SparsePoly.variable(XL, VAR_X)
L = SparsePoly.variable(XL, VAR_LAMBDA)


def template_side(mu, k):
    """The template side of the determinant identity, without the range
    check k > mu: P(1, k + l) substituted for each t_l of the q template at
    n = k + 1."""
    n = k + 1
    return substitute_polys(q_template(mu, n), {
        shift_var_name(off): basic_inflection(n + off - 1)
        for off in range(1 - mu, mu)})


def lemma_range_probe(mu, k):
    """Both sides of the determinant identity, without the range check k > mu.

    The Wronskian side is the determinant of the scaled derivative-oracle
    numerators (k+1+j) falling i * N(k+1+j-i).
    """
    n = k + 1
    wronskian = det_polymatrix([
        [math.perm(n + j, i) * derivative_oracle(n + j - i)
         for j in range(mu)] for i in range(mu)])
    return template_side(mu, k), wronskian


def perturbed(k, exponent, delta):
    p = basic_inflection(k)
    return p + SparsePoly(p.vars, {exponent: Fraction(delta)})


def feed(monkeypatch, poly):
    """Make the checks on P(1, k) read ``poly`` as P(1, k)."""
    monkeypatch.setattr(conjectures, "basic_inflection",
                        lambda k: _checked(1, k, poly))


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

    def test_jsonable_serializes_an_interval_as_its_ends(self):
        # a named tuple, so its to_json_dict must win over the tuple branch
        iv = IsolatingInterval(Fraction(1, 3), Fraction(1, 2), 2, 1)
        assert jsonable({"interval": iv}) == {"interval": {"lo": "1/3", "hi": "1/2"}}

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

    def test_homogenization_swap_catches_perturbation(self, monkeypatch):
        feed(monkeypatch, perturbed(2, (1, 1), 1))
        report = check_homogenization_symmetry(2)
        assert report.verdict == FAIL
        assert "exponent" in report.witness

    def test_unit_shift_catches_perturbation(self, monkeypatch):
        feed(monkeypatch, perturbed(2, (1, 0), 1))
        report = check_shift_symmetry(2)
        assert report.verdict == FAIL
        assert report.witness["difference_coefficient"] != 0

    def test_witness_is_the_first_differing_exponent(self, monkeypatch):
        # the differences are x*z^4 - x*z and 1 - 2x: two terms each, so the
        # witness pins which of them the report names
        feed(monkeypatch, perturbed(2, (1, 1), 1))
        swap = check_homogenization_symmetry(2)
        assert swap.witness == {"exponent": [1, 1], "difference_coefficient": -1}
        feed(monkeypatch, perturbed(2, (1, 0), 1))
        shift = check_shift_symmetry(2)
        assert shift.witness == {"exponent": [0, 0], "difference_coefficient": 1}

    def test_bad_k(self):
        with pytest.raises(ValueError):
            check_homogenization_symmetry(0)
        with pytest.raises(ValueError):
            check_shift_symmetry(-1)

    # every (mu, k) that the benchmark's census, lemma1 and plot jobs build
    @pytest.mark.parametrize("mu, k", [(1, k) for k in range(2, 11)]
                             + [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    def test_unit_shift_holds_for_every_mu(self, mu, k):
        p = general_inflection(mu, k)
        assert substitute_polys(p, {VAR_X: 1 - X, VAR_LAMBDA: 1 - L}) == p


class TestSupport:
    def test_first_support_frozen(self):
        assert predicted_support(1) == {(0, 2), (2, 1), (3, 1), (3, 0), (4, 0)}

    @pytest.mark.parametrize("k", range(1, 6))
    def test_support_matches_prediction(self, k):
        report = check_support(k)
        assert report.verdict == PASS
        assert report.data["size"] == len(predicted_support(k))

    def test_support_reports_missing_and_extra(self, monkeypatch):
        p = basic_inflection(2)
        q = p - SparsePoly(p.vars, {(0, 3): p.coefficient((0, 3))})
        q = q + SparsePoly(p.vars, {(1, 1): Fraction(7)})
        feed(monkeypatch, q)
        report = check_support(2)
        assert report.verdict == FAIL
        assert report.witness["missing"] == [[0, 3]]
        assert report.witness["unexpected"] == [[1, 1]]

    def test_sigma_is_an_involution(self):
        for k in range(1, 6):
            for e in basic_inflection(k).support():
                assert sigma_reflection(k, sigma_reflection(k, e)) == e

    def test_sigma_preserves_support(self):
        for k in range(1, 6):
            support = basic_inflection(k).support()
            assert {sigma_reflection(k, e) for e in support} == support

    @pytest.mark.parametrize("k", range(1, 6))
    def test_coeff_symmetry_passes(self, k):
        assert check_coeff_symmetry(k).verdict == PASS

    @pytest.mark.parametrize("check, k", [(check_coeff_symmetry, 0), (check_support, -1)])
    def test_k_below_one_is_a_precondition_error(self, check, k):
        with pytest.raises(PreconditionError, match="k must be positive"):
            check(k)

    def test_coeff_symmetry_catches_perturbation(self, monkeypatch):
        feed(monkeypatch, perturbed(2, (1, 2), 1))
        report = check_coeff_symmetry(2)
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

    def test_float_parameter_rejected(self):
        with pytest.raises(TypeError):
            separability_check(1, 2, 0.5)


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

    def test_float_parameter_rejected(self):
        # 0.1 would otherwise run at its binary value 3602879701896397/2**55
        with pytest.raises(TypeError):
            real_root_census(1, 2, 0.1)

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
        lambda0 = Fraction(-3, 2)
        # the primitive squarefree integer list of f at lambda0
        f_here = RootIsolator(legendre_f().specialize(VAR_LAMBDA, lambda0)).reduced
        built = []
        init = SturmChain.__init__

        def counting_init(self, var, c):
            built.append(c)
            init(self, var, c)

        monkeypatch.setattr(SturmChain, "__init__", counting_init)
        census = real_root_census(1, 4, lambda0)
        assert census.total_real_roots > 1
        assert built.count(f_here) == 0
        # only the isolator's chain: the count reads it between f's roots
        assert len(built) == 1

    @pytest.mark.parametrize("roots_, factor", [
        ((0, 0, 1, 1, 1), -2),  # x^2 (x - 1)^3 (x^2 - 2)
        ((1,), 1),              # (x - 1)(x^2 + 1)
        ((0, 0, 0), 3),         # x^3 (x^2 + 3)
        ((2, 2, -3), -5),       # no root at 0 or 1
    ])
    def test_roots_at_01_match_deflation(self, monkeypatch, roots_, factor):
        x = SparsePoly.variable((VAR_X,), VAR_X)
        p = x * x + factor
        for r in roots_:
            p = p * (x - r)
        monkeypatch.setattr(conjectures, "inflection_fiber", lambda mu, k, lambda0: p)
        census = real_root_census(1, 2, 2)
        assert census.roots_at_01 == {r: deflate(p, r)[0] for r in (0, 1)}
        assert all(type(m) is int for m in census.roots_at_01.values())

    def test_census_deflates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(conjectures, "deflate", lambda *a: calls.append(a) or deflate(*a))
        census = real_root_census(1, 4, Fraction(-3, 2))
        assert census.roots_at_01 == {0: 0, 1: 0}
        assert calls == []


class TestScan:
    def test_scan_isolates_nothing(self, monkeypatch):
        isolated = []
        isolate = RootIsolator.isolate
        monkeypatch.setattr(RootIsolator, "isolate",
                            lambda self: isolated.append(self) or isolate(self))
        report = conjecture4_scan(1, 4)
        assert report.verdict == PASS
        assert isolated == []

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

    def test_float_grid_entry_rejected(self):
        with pytest.raises(TypeError):
            conjecture4_scan(1, 2, [2, 0.1])

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

    def test_routes_agree_outside_the_proven_range(self):
        # (2, 2) is below k > mu, where general_inflection refuses to build
        template, wronskian = lemma_range_probe(2, 2)
        assert not template.is_zero
        assert template == wronskian
        # in range, the rebuilt sides are the two construction routes
        assert lemma_range_probe(2, 3) == (general_inflection(2, 3),) * 2

    def test_expansion_by_minors_equals_the_substituted_template(self):
        # general_inflection never builds the template; the substitution
        # into it is the oracle for the expansion of P(1, j) entries
        general_inflection.cache_clear()
        pairs = [(mu, k) for mu in range(1, 5) for k in range(mu + 1, 8)] + [(5, 6)]
        for mu, k in pairs:
            assert general_inflection(mu, k) == template_side(mu, k), (mu, k)


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


    def test_irrational_candidates_record_the_cap(self):
        # (x^2 - 2)^2 + lambda^2 is singular at (+-sqrt 2, 0): no rational of
        # denominator <= MAX_DENOMINATOR certifies them, so each interval entry
        # says where certification stopped
        q = (X ** 2 - 2) ** 2 + L ** 2
        certified, unresolved, residuals = _affine_singular_candidates(
            q, VAR_X, VAR_LAMBDA)
        assert certified == [] and residuals == []
        assert [(e["variable"], e["max_denominator"]) for e in unresolved] == [
            (VAR_X, MAX_DENOMINATOR)] * 2
        neg, pos = [e["interval"] for e in unresolved]
        assert neg.hi ** 2 < 2 < neg.lo ** 2 and neg.hi < 0
        assert pos.lo ** 2 < 2 < pos.hi ** 2 and pos.lo > 0
        # the intervals where bisection stopped, denominators 2^73 and 2^74
        text = json.dumps(jsonable(unresolved), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "45be28ecb3533288182173a15100442647adfef8f3394d7a437aa00ace392f83")


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
