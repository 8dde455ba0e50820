"""Core polynomial arithmetic, ordering and serialization."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflectionary.poly import (
    VAR_LAMBDA,
    VAR_X,
    SparsePoly,
    as_fraction,
    divexact,
    parse_rational,
    poly_from_json,
    poly_from_json_dict,
    poly_to_json,
    poly_to_json_dict,
    substitute_polys,
    try_divexact,
)

XL = (VAR_X, VAR_LAMBDA)


def xl(d):
    return SparsePoly(XL, d)


X = xl({(1, 0): 1})
L = xl({(0, 1): 1})


def substitute_affine(p, mapping):
    """Oracle for affine substitution: apply ``v -> scale*v + shift`` for
    each variable in ``mapping`` term by term, expanding each power by the
    binomial theorem; variables not mentioned are left alone."""
    result_terms = {}
    for e, c in p.terms.items():
        # expand this term as a product over mapped variables
        partial = {tuple(0 if p.vars[i] in mapping else e[i] for i in range(len(e))): c}
        for idx, name in enumerate(p.vars):
            if name not in mapping or not e[idx]:
                continue
            scale, shift = (Fraction(v) for v in mapping[name])
            n = e[idx]
            expanded = {}
            for i in range(n + 1):
                coeff = math.comb(n, i) * scale ** i * shift ** (n - i)
                for pe, pc in partial.items():
                    ne = pe[:idx] + (pe[idx] + i,) + pe[idx + 1:]
                    expanded[ne] = expanded.get(ne, Fraction(0)) + pc * coeff
            partial = expanded
        for pe, pc in partial.items():
            result_terms[pe] = result_terms.get(pe, Fraction(0)) + pc
    return SparsePoly(p.vars, result_terms)


class TestParseRational:
    def test_integers_and_fractions(self):
        assert parse_rational("3") == 3
        assert parse_rational("-3") == -3
        assert parse_rational("+2/4") == Fraction(1, 2)
        assert parse_rational(" 5/7 ") == Fraction(5, 7)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "", "x", "1/-2", "--3", "1/0"])
    def test_rejects_inexact_and_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_as_fraction_types(self):
        assert as_fraction(2) == 2
        assert as_fraction("1/3") == Fraction(1, 3)
        assert as_fraction(Fraction(5, 2)) == Fraction(5, 2)
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = xl({(1, 0): 1, (0, 1): 0})
        assert p.support() == {(1, 0)}

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError):
            xl({(1,): 1})
        with pytest.raises(ValueError):
            xl({(-1, 0): 1})

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            xl({(1, 0): 0.5})

    def test_constant_and_variable(self):
        assert SparsePoly.constant(XL, 0).is_zero
        assert SparsePoly.variable(XL, VAR_LAMBDA) == L
        with pytest.raises(ValueError):
            SparsePoly.variable(XL, "y")

    def test_from_univariate(self):
        p = SparsePoly.from_univariate("t", [1, 0, -2])
        assert p.coefficient((0,)) == 1
        assert p.coefficient((2,)) == -2


class TestArithmetic:
    def test_binomial_square(self):
        assert (X + L) ** 2 == X * X + 2 * X * L + L * L

    def test_scalar_mixing(self):
        assert 2 * X - X == X
        assert (X - 1) * (X + 1) == X * X - 1
        assert Fraction(1, 2) * (2 * X) == X

    def test_pow(self):
        assert X ** 0 == SparsePoly.constant(XL, 1)
        assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1
        with pytest.raises(ValueError):
            X ** -1

    def test_degrees(self):
        p = X ** 3 * L + L ** 2
        assert p.degree(VAR_X) == 3
        assert p.degree(VAR_LAMBDA) == 2
        assert p.total_degree() == 4
        z = SparsePoly.zero(XL)
        assert z.degree(VAR_X) == -1
        assert z.total_degree() == -1

    def test_graded_lex_leading_order(self):
        p = X ** 2 + X * L + L ** 2 + X
        exps = [e for e, _ in p.sorted_terms()]
        assert exps == [(2, 0), (1, 1), (0, 2), (1, 0)]


class TestCalculusAndSubstitution:
    def test_derivative(self):
        p = X ** 3 * L - 2 * X
        assert p.derivative(VAR_X) == 3 * X ** 2 * L - 2
        assert p.derivative(VAR_LAMBDA) == X ** 3

    def test_evaluate_requires_all_vars(self):
        p = X * L + 1
        assert p.evaluate({VAR_X: 2, VAR_LAMBDA: Fraction(1, 2)}) == 2
        with pytest.raises(ValueError):
            p.evaluate({VAR_X: 2})

    def test_specialize_removes_variable(self):
        p = X ** 2 * L - L
        q = p.specialize(VAR_LAMBDA, 3)
        assert q.vars == (VAR_X,)
        assert q == SparsePoly.from_univariate(VAR_X, [-3, 0, 3])

    def test_substitute_affine_shift_composition(self):
        p = X ** 2 * L - X * L ** 2 + 3
        once = substitute_polys(p, {VAR_X: X + 1, VAR_LAMBDA: L})
        twice = substitute_polys(once, {VAR_X: X + 1, VAR_LAMBDA: L})
        assert twice == substitute_polys(p, {VAR_X: X + 2, VAR_LAMBDA: L})
        assert substitute_polys(p, {VAR_X: X, VAR_LAMBDA: L}) == p

    def test_substitute_affine_negation(self):
        p = X ** 3 + X
        assert substitute_polys(p, {VAR_X: -X, VAR_LAMBDA: L}) == -(X ** 3) - X

    def test_homogenize_dehomogenize_roundtrip(self):
        p = X ** 2 + L
        hom = p.homogenize("z", 3)
        assert hom.vars == (VAR_X, VAR_LAMBDA, "z")
        assert all(sum(e) == 3 for e in hom.support())
        assert hom.specialize("z", 1) == p
        with pytest.raises(ValueError):
            p.homogenize("z", 1)

    def test_rename_and_views(self):
        p = X * L
        q = p.rename_var(VAR_LAMBDA, "z")
        assert q.vars == (VAR_X, "z")
        name, coeffs = (X ** 2 - 1).specialize(VAR_LAMBDA, 0).univariate_coeffs()
        assert name == VAR_X
        assert coeffs == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_coefficients_in(self):
        p = X ** 2 * L + X ** 2 - L ** 3
        by_x = p.coefficients_in(VAR_X)
        assert set(by_x) == {0, 2}
        assert by_x[2] == SparsePoly(("lambda",), {(1,): 1, (0,): 1})

    def test_substitute_polys(self):
        t = SparsePoly(("t0", "t1"), {(2, 0): 1, (0, 1): -1})
        out = substitute_polys(t, {"t0": X + L, "t1": X * L})
        assert out == (X + L) ** 2 - X * L


class TestDivision:
    def test_divexact(self):
        assert divexact(X ** 2 - L ** 2, X - L) == X + L

    def test_try_divexact_failure(self):
        assert try_divexact(X ** 2 + 1, X) is None
        assert try_divexact(X ** 2 - L ** 2, X + L) == X - L

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divexact(X, SparsePoly.zero(XL))


class TestJson:
    def test_canonical_bytes(self):
        p = xl({(2, 0): Fraction(3, 2), (1, 1): -1, (0, 1): Fraction(1, 2)})
        text = poly_to_json(p)
        assert text == ('{"vars":["x","lambda"],"terms":['
                        '{"e":[2,0],"n":"3","d":"2"},'
                        '{"e":[1,1],"n":"-1","d":"1"},'
                        '{"e":[0,1],"n":"1","d":"2"}]}')
        assert poly_from_json(text) == p

    def test_roundtrip_zero(self):
        z = SparsePoly.zero(XL)
        assert poly_from_json(poly_to_json(z)) == z

    def test_rejects_duplicate_exponents(self):
        data = {"vars": ["x"], "terms": [
            {"e": [1], "n": "1", "d": "1"},
            {"e": [1], "n": "2", "d": "1"},
        ]}
        with pytest.raises(ValueError):
            poly_from_json_dict(data)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            poly_from_json_dict({"vars": ["x"]})
        with pytest.raises(ValueError):
            poly_from_json_dict({"vars": ["x"], "terms": [], "extra": 1})
        with pytest.raises(ValueError):
            poly_from_json_dict({"vars": ["x"], "terms": [{"e": [0], "n": "1", "d": "0"}]})
        with pytest.raises(ValueError):
            poly_from_json_dict({"vars": ["x"], "terms": [{"e": [0], "n": "1", "d": "-2"}]})

    def test_json_dict_matches_module_json(self):
        p = X ** 2 - L
        assert json.dumps(poly_to_json_dict(p), separators=(",", ":")) == poly_to_json(p)


def _random_poly(rng, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = (rng.randint(0, 4), rng.randint(0, 4))
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SparsePoly(XL, terms)


class TestAlgebraProperties:
    def test_ring_laws_on_random_samples(self):
        rng = random.Random(20230817)
        for _ in range(60):
            a, b, c = (_random_poly(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a + b == b + a
            assert a - a == SparsePoly.zero(XL)

    def test_evaluation_is_ring_morphism(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b = _random_poly(rng), _random_poly(rng)
            point = {VAR_X: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                     VAR_LAMBDA: Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
            assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
            assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)

    def test_json_roundtrip_identity(self):
        rng = random.Random(99)
        for _ in range(40):
            p = _random_poly(rng)
            assert poly_from_json(poly_to_json(p)) == p

    def test_exact_division_inverts_multiplication(self):
        rng = random.Random(7)
        for _ in range(30):
            a, b = _random_poly(rng), _random_poly(rng)
            if a.is_zero or b.is_zero:
                continue
            assert divexact(a * b, b) == a


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
small_polys = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                              small_rationals, max_size=8).map(xl)
affine_maps = st.one_of(st.none(), st.tuples(small_rationals, small_rationals))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_polys, affine_maps, affine_maps)
def test_substitute_polys_matches_affine_oracle(p, x_map, lambda_map):
    mapping = {}
    assignments = {}
    for name, var, v_map in ((VAR_X, X, x_map), (VAR_LAMBDA, L, lambda_map)):
        assignments[name] = var if v_map is None else v_map[0] * var + v_map[1]
        if v_map is not None:
            mapping[name] = v_map
    assert substitute_polys(p, assignments) == substitute_affine(p, mapping)
