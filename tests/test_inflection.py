"""Construction routes and their cross-checks, all against frozen oracles."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import (
    RECURRENCE_COEFFICIENT_VARIANTS,
    SELECTED_RECURRENCE_COEFFICIENT,
    calibrate_recurrence_coefficient,
)
from test_poly import oracle_divexact

from inflectionary import inflection
from inflectionary.inflection import (
    _checked,
    basic_inflection,
    derivative_oracle,
    division_polynomial,
    general_inflection,
    inflection_fiber,
    legendre_f,
    predicted_delta,
    predicted_genus,
    q_template,
    shift_var_name,
    torsion_check,
    wronskian_direct,
    _recurrence_step,
)
from inflectionary.poly import VAR_LAMBDA, VAR_X, SparsePoly
from inflectionary.reports import PreconditionError

XL = (VAR_X, VAR_LAMBDA)
X = SparsePoly.variable(XL, VAR_X)
LAMBDA = SparsePoly.variable(XL, VAR_LAMBDA)


def xl(d):
    return SparsePoly(XL, d)


# Hand expansions of the first three family members.  P(1,1) was expanded
# from (f''/2) f - f'^2/4 and P(1,2) by one more recurrence step; both were
# reproduced independently before being frozen here.
SEED = xl({(2, 0): Fraction(3, 2), (1, 1): -1, (1, 0): -1, (0, 1): Fraction(1, 2)})
P11 = xl({
    (4, 0): Fraction(3, 4), (3, 0): -1, (3, 1): -1,
    (2, 1): Fraction(3, 2), (0, 2): Fraction(-1, 4),
})
P12 = xl({
    (6, 0): Fraction(-3, 8), (5, 0): Fraction(3, 4), (5, 1): Fraction(3, 4),
    (4, 1): Fraction(-15, 8), (2, 2): Fraction(15, 8),
    (1, 2): Fraction(-3, 4), (1, 3): Fraction(-3, 4), (0, 3): Fraction(3, 8),
})


class TestLegendreCubic:
    def test_expansion(self):
        f = legendre_f()
        assert f == xl({(3, 0): 1, (2, 0): -1, (2, 1): -1, (1, 1): 1})

    def test_roots(self):
        f = legendre_f()
        for x0, lam in ((0, 7), (1, 7), (7, 7)):
            assert f.evaluate({VAR_X: x0, VAR_LAMBDA: lam}) == 0


class TestRecurrence:
    def test_seed_frozen(self):
        assert basic_inflection(0) == SEED

    def test_first_step_frozen(self):
        assert basic_inflection(1) == P11

    def test_second_step_frozen(self):
        assert basic_inflection(2) == P12

    def test_point_evaluation(self):
        value = basic_inflection(1).evaluate({VAR_X: 2, VAR_LAMBDA: -1})
        assert value == Fraction(23, 4)

    def test_degrees_through_k8(self):
        for k in range(9):
            p = basic_inflection(k)
            assert p.degree(VAR_X) == 2 * (k + 1)
            assert p.degree(VAR_LAMBDA) == k + 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            basic_inflection(-1)


class TestDerivativeOracle:
    def test_matches_recurrence(self):
        for m in range(1, 10):
            numerator = derivative_oracle(m)
            # N_m(0, lambda) = (lambda^m / 2) * prod_(j<m) (1/2 - j) is
            # nonzero, so neither x nor f divides N_m: f^m is reduced
            at_zero = Fraction(1, 2) * math.prod(Fraction(1, 2) - j for j in range(1, m))
            assert numerator.specialize(VAR_X, 0) == SparsePoly((VAR_LAMBDA,), {(m,): at_zero})
            assert numerator == basic_inflection(m - 1)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            derivative_oracle(0)

    def test_calibration_selects_the_derived_coefficient(self):
        result = calibrate_recurrence_coefficient()
        assert result["selected"] == SELECTED_RECURRENCE_COEFFICIENT
        assert result["results"]["-(k+1/2)"] is True
        assert result["results"]["(1/2-k)"] is False
        assert set(result["results"]) == set(RECURRENCE_COEFFICIENT_VARIANTS)


class TestDegreeContract:
    def test_contract_violation_raises(self):
        with pytest.raises(ValueError):
            _checked(1, 2, basic_inflection(1))


def oracle_q_template(mu, n):
    """The q template by its permutation expansion: each sigma contributes
    sign(sigma) * prod_i (n+sigma(i)) falling i * t_(sigma(i)-i).

    mu! terms, so an oracle only; ``q_template`` expands by minors.
    """
    names = tuple(shift_var_name(off) for off in range(1 - mu, mu))
    terms = {}
    for sigma in itertools.permutations(range(mu)):
        coeff = 1
        exponents = [0] * (2 * mu - 1)
        for i, j in enumerate(sigma):
            coeff *= math.perm(n + j, i)
            exponents[mu - 1 + j - i] += 1
        if sum(a > b for a, b in itertools.combinations(sigma, 2)) % 2:
            coeff = -coeff
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + coeff
    return SparsePoly(names, terms)


class TestQTemplate:
    def test_matches_the_permutation_oracle(self):
        # n < mu included: there (n+j) falling i vanishes below the diagonal
        for mu in range(1, 7):
            for n in range(1, 10):
                assert q_template(mu, n) == oracle_q_template(mu, n), (mu, n)

    def test_mu2_closed_form(self):
        # det [[t0, (n+1) t1], [n t-1, (n+1) t0]] / scaling = (n+1) t0^2 - n t-1 t1
        for n in (2, 4, 7):
            t = q_template(2, n)
            names = t.vars
            assert names == ("t-1", "t0", "t1")
            expected = SparsePoly(names, {
                (0, 2, 0): n + 1,
                (1, 0, 1): -n,
            })
            assert t == expected

    def test_homogeneity(self):
        for mu in (2, 3, 4):
            for n in (mu, mu + 2):
                t = q_template(mu, n)
                assert all(sum(e) == mu for e in t.support())

    def test_shift_names(self):
        assert shift_var_name(-2) == "t-2"
        assert shift_var_name(0) == "t0"


class TestRouteAgreement:
    def test_wronskian_equals_recurrence_for_single_section(self):
        for k in (1, 2, 3):
            assert wronskian_direct(1, k) == basic_inflection(k)

    def test_template_equals_wronskian(self):
        assert general_inflection(2, 3) == wronskian_direct(2, 3)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            general_inflection(2, 2)
        with pytest.raises(ValueError):
            wronskian_direct(3, 3)
        with pytest.raises(ValueError):
            general_inflection(0, 3)

    @pytest.mark.parametrize("mu, k", [(0, 3), (1, 0)])
    def test_wronskian_preconditions(self, mu, k):
        # raised before any determinant is built, so no degree check sees mu < 1
        with pytest.raises(PreconditionError):
            wronskian_direct(mu, k)

    def test_general_does_not_build_the_template(self, monkeypatch):
        def no_template(mu, n):
            raise AssertionError("general_inflection built the q template")

        expected = wronskian_direct(3, 5)
        general_inflection.cache_clear()
        monkeypatch.setattr(inflection, "q_template", no_template)
        assert general_inflection(3, 5) == expected

    def test_general_is_memoized(self):
        assert general_inflection(2, 4) is general_inflection(2, 4)

    def test_concurrent_cold_fills_agree(self):
        expected = [basic_inflection(k) for k in (11, 5, 8)]
        _recurrence_step.cache_clear()
        results = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(
                [basic_inflection(k) for k in (11, 5, 8)])) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert results == [expected] * 4
        # filled in ascending order: the cache holds exactly k = 0..11
        assert _recurrence_step.cache_info().currsize == 12

    @pytest.mark.parametrize("build,args", [
        (basic_inflection, (5,)),
        (derivative_oracle, (4,)),
        (general_inflection, (1, 3)),
        (division_polynomial, (7,)),
    ])
    def test_repeat_call_returns_the_same_object(self, build, args):
        assert build(*args) is build(*args)

    def test_general_degrees(self):
        p = general_inflection(2, 3)
        assert p.degree(VAR_X) == 2 * 2 * 4
        assert p.degree(VAR_LAMBDA) == 2 * 4


# Series up to (3, 5) and lambdas from each real regime of the curve
# parameter: lambda < 0, 0 < lambda < 1 and lambda > 1.
FIBER_SERIES = [(1, k) for k in range(6)] + [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]
FIBER_LAMBDAS = (Fraction(-3), Fraction(-1, 2), Fraction(1, 4), Fraction(3, 4),
                 Fraction(2), Fraction(7, 3))


class TestInflectionFiber:
    @pytest.mark.parametrize("mu,k", FIBER_SERIES)
    def test_matches_bivariate_specialization(self, mu, k):
        bivariate = general_inflection(mu, k)
        for lambda0 in FIBER_LAMBDAS:
            fiber = inflection_fiber(mu, k, lambda0)
            assert fiber == bivariate.specialize(VAR_LAMBDA, lambda0)
            # the leading x-coefficient is a nonzero constant, so no fiber vanishes
            assert fiber.degree(VAR_X) == 2 * mu * (k + 1)

    @settings(max_examples=40)
    @given(st.sampled_from([(1, 2), (1, 4), (2, 3), (2, 4)]),
           st.fractions(min_value=-9, max_value=9, max_denominator=40)
           .filter(lambda v: v not in (0, 1)),
           st.fractions(min_value=-5, max_value=5, max_denominator=12))
    def test_rational_lambda_fiber(self, series, lambda0, x0):
        mu, k = series
        bivariate = general_inflection(mu, k)
        fiber = inflection_fiber(mu, k, lambda0)
        assert fiber == bivariate.specialize(VAR_LAMBDA, lambda0)
        assert fiber.evaluate({VAR_X: x0}) == bivariate.evaluate({VAR_X: x0, VAR_LAMBDA: lambda0})

    def test_lambda_is_validated(self):
        for lambda0 in (0, 1, Fraction(1)):
            with pytest.raises(PreconditionError, match="degenerate curve parameter"):
                inflection_fiber(2, 3, lambda0)
        with pytest.raises(TypeError):
            inflection_fiber(2, 3, 0.5)


class TestDivisionPolynomials:
    def test_small_indices(self):
        assert division_polynomial(1) == SparsePoly.constant(XL, 1)
        assert division_polynomial(2) == SparsePoly.constant(XL, 2)

    def test_psi3_matches_short_weierstrass_at_lambda_minus_one(self):
        # lambda = -1 gives y^2 = x^3 - x, where psi_3 = 3x^4 + 6ax^2 + 12bx - a^2
        psi3 = division_polynomial(3).specialize(VAR_LAMBDA, -1)
        assert psi3 == SparsePoly.from_univariate(VAR_X, [-1, 0, -6, 0, 3])

    def test_psi4_matches_short_weierstrass_at_lambda_minus_one(self):
        g4 = division_polynomial(4).specialize(VAR_LAMBDA, -1)
        assert g4 == SparsePoly.from_univariate(VAR_X, [4, 0, -20, 0, -20, 0, 4])

    def test_degrees(self):
        for m in (3, 5, 7):
            assert division_polynomial(m).degree(VAR_X) == (m * m - 1) // 2
        for m in (4, 6, 8):
            assert division_polynomial(m).degree(VAR_X) == (m * m - 4) // 2

    def test_divisibility_of_compound_index(self):
        # 3 divides 6, so the reduced 6-division polynomial inherits psi_3
        g6 = division_polynomial(6)
        psi3 = division_polynomial(3)
        assert oracle_divexact(g6, psi3) * psi3 == g6

    def test_index_validation(self):
        with pytest.raises(ValueError):
            division_polynomial(0)


class TestTorsionIdentity:
    def test_k2_ratio_frozen(self):
        report = torsion_check(2, -1)
        assert report.verdict == "PASS"
        assert report.data["ratio"] == Fraction(-3, 32)
        assert report.data["degree_inflection"] == 6

    def test_k3_ratio_frozen(self):
        report = torsion_check(3, Fraction(1, 3))
        assert report.verdict == "PASS"
        assert report.data["ratio"] == Fraction(-45, 512)
        assert report.data["degree_inflection"] == 16

    def test_ratio_is_lambda_independent(self):
        ratios = {torsion_check(2, lam).data["ratio"]
                  for lam in (-1, Fraction(-1, 2), Fraction(1, 3), 2, 5)}
        assert ratios == {Fraction(-3, 32)}

    def test_degenerate_lambda_rejected(self):
        with pytest.raises(ValueError):
            torsion_check(2, 0)
        with pytest.raises(ValueError):
            torsion_check(2, 1)

    def test_float_lambda_rejected(self):
        with pytest.raises(TypeError):
            torsion_check(2, -0.5)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            torsion_check(1, -1)


class TestTorsionFailures:
    """The two FAIL branches, reached by perturbing the division polynomial
    the check reads; the report bytes are pinned."""

    def _report(self, monkeypatch, perturb, k, lambda0):
        exact = inflection.division_polynomial
        monkeypatch.setattr(inflection, "division_polynomial", lambda m: perturb(exact(m)))
        return torsion_check(k, lambda0).to_json()

    def test_degree_mismatch(self, monkeypatch):
        sizes = '"degree_inflection":6,"degree_division":7,"expected_degree":6'
        assert self._report(monkeypatch, lambda g: g * X, 2, -1) == (
            '{"check":"torsion_identity","params":{"k":2,"lambda0":"-1"},"verdict":"FAIL",'
            '"witness":{"reason":"degree mismatch",' + sizes + '},"data":{' + sizes + '}}')

    @pytest.mark.parametrize("perturb, k, lambda0, first, count", [
        # a scaled divisor with two extra low terms
        (lambda g: 3 * g + X * X + 1, 2, -1, 0, 2),
        # x^3 / 3 - x at lambda = 1/3
        (lambda g: g + LAMBDA * X ** 3 - X, 3, Fraction(1, 3), 1, 2),
        # a changed leading coefficient moves every term of the monic form
        (lambda g: g + X ** 6, 2, -1, 0, 3),
    ])
    def test_monic_forms_differ(self, monkeypatch, perturb, k, lambda0, first, count):
        degree = 2 * k * k - 2
        assert self._report(monkeypatch, perturb, k, lambda0) == (
            f'{{"check":"torsion_identity","params":{{"k":{k},"lambda0":"{lambda0}"}},'
            f'"verdict":"FAIL","witness":{{"reason":"monic forms differ",'
            f'"first_mismatch_exponent":[{first}],"mismatch_count":{count}}},'
            f'"data":{{"degree_inflection":{degree},"degree_division":{degree},'
            f'"expected_degree":{degree}}}}}')

    def test_scaled_divisor_passes_with_its_ratio(self, monkeypatch):
        assert self._report(monkeypatch, lambda g: g * Fraction(-5, 7), 2, -1) == (
            '{"check":"torsion_identity","params":{"k":2,"lambda0":"-1"},"verdict":"PASS",'
            '"data":{"degree_inflection":6,"degree_division":6,"expected_degree":6,'
            '"ratio":"21/160"}}')


class TestPredictions:
    def test_delta(self):
        assert predicted_delta(1) == 1
        assert predicted_delta(2) == 4
        assert predicted_delta(3) == 7

    def test_genus(self):
        assert predicted_genus(3) == 0
        assert predicted_genus(2) == -2
        assert predicted_genus(5) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_delta(0)
        with pytest.raises(ValueError):
            predicted_genus(0)
