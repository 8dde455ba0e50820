"""Core polynomial arithmetic, ordering and serialization."""

import contextlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from inflectionary import poly as poly_module
from inflectionary.poly import (
    PACK_MIN_PAIRS,
    VAR_LAMBDA,
    VAR_X,
    SparsePoly,
    _product_sum,
    as_fraction,
    divexact,
    parse_rational,
    poly_to_json,
    substitute_polys,
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

    def test_constant_hashes_like_its_value(self):
        three = SparsePoly.constant(XL, 3)
        assert three == 3 and hash(three) == hash(3)
        assert len({three, 3, Fraction(3)}) == 1
        assert {SparsePoly.zero(XL), 0} == {0}
        assert hash(SparsePoly.constant(XL, Fraction(1, 2))) == hash(Fraction(1, 2))

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
        univariate = (X ** 2 - 1).specialize(VAR_LAMBDA, 0)
        assert univariate == SparsePoly.from_univariate(VAR_X, [-1, 0, 1])

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
        assert divexact(2 * X - 4 * L, SparsePoly.constant(XL, 2)) == X - 2 * L
        assert divexact(X * L, SparsePoly.constant(XL, Fraction(1, 3))) == 3 * X * L
        assert oracle_divexact(X ** 2 - L ** 2, X - L) == X + L

    def test_try_divexact_failure(self):
        # divexact divides by constants only
        with pytest.raises(ValueError):
            divexact(X ** 2 - L ** 2, X + L)
        assert oracle_divexact(X ** 2 + 1, X) is None
        assert oracle_divexact(X ** 2 - L ** 2, X + L) == X - L

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divexact(X, SparsePoly.zero(XL))


# -- the JSON reader: the round-trip oracle of poly_to_json -------------------

def poly_from_json_dict(data) -> SparsePoly:
    if not isinstance(data, dict) or set(data) != {"vars", "terms"}:
        raise ValueError("polynomial JSON needs exactly the keys 'vars' and 'terms'")
    variables = data["vars"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ValueError("'vars' must be a list of strings")
    terms = {}
    for item in data["terms"]:
        if not isinstance(item, dict) or set(item) != {"e", "n", "d"}:
            raise ValueError("each term needs exactly the keys 'e', 'n' and 'd'")
        exps = tuple(int(e) for e in item["e"])
        if exps in terms:
            raise ValueError(f"duplicate exponent tuple {exps!r}")
        num = int(str(item["n"]), 10)
        den = int(str(item["d"]), 10)
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        terms[exps] = Fraction(num, den)
    return SparsePoly(variables, terms)


def poly_from_json(text: str) -> SparsePoly:
    return poly_from_json_dict(json.loads(text))


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
            assert oracle_divexact(a * b, b) == a
            if b.is_constant:
                assert divexact(a * b, b) == a


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
small_polys = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                              small_rationals, max_size=8).map(xl)
affine_maps = st.one_of(st.none(), st.tuples(small_rationals, small_rationals))


@settings(max_examples=60)
@given(small_polys, affine_maps, affine_maps)
def test_substitute_polys_matches_affine_oracle(p, x_map, lambda_map):
    mapping = {}
    assignments = {}
    for name, var, v_map in ((VAR_X, X, x_map), (VAR_LAMBDA, L, lambda_map)):
        assignments[name] = var if v_map is None else v_map[0] * var + v_map[1]
        if v_map is not None:
            mapping[name] = v_map
    assert substitute_polys(p, assignments) == substitute_affine(p, mapping)


def oracle_specialize(p, name, value):
    """``p`` with ``name`` set to ``value``, term by term over Fractions.

    Slow and obviously right: the oracle for ``SparsePoly.specialize``.
    """
    idx = p.vars.index(name)
    value = as_fraction(value)
    terms = {}
    for e, c in p.terms.items():
        ne = e[:idx] + e[idx + 1:]
        s = terms.get(ne, Fraction(0)) + c * value ** e[idx]
        if s:
            terms[ne] = s
        else:
            terms.pop(ne, None)
    return SparsePoly(p.vars[:idx] + p.vars[idx + 1:], terms)


def oracle_add(a, b):
    """Terms of ``a + b``, added term by term over Fractions."""
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, 0) + c
    return {e: c for e, c in terms.items() if c}


def oracle_mul(a, b):
    """Terms of ``a * b``: every pair of terms multiplied over Fractions."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def oracle_derivative(p, name):
    idx = p.vars.index(name)
    return {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
            for e, c in p.terms.items() if e[idx]}


def oracle_homogenize(p, degree):
    return {e + (degree - sum(e),): c for e, c in p.terms.items()}


def oracle_coefficients_in(p, name):
    """``power -> terms`` of ``p`` grouped by the power of ``name``."""
    idx = p.vars.index(name)
    grouped = {}
    for e, c in p.terms.items():
        grouped.setdefault(e[idx], {})[e[:idx] + e[idx + 1:]] = c
    return grouped


def oracle_json(variables, terms):
    """``poly_to_json`` of a Fraction term dict, terms in graded lexicographic
    descending order."""
    order = sorted(terms, key=lambda e: (sum(e), e), reverse=True)
    return json.dumps({"vars": list(variables),
                       "terms": [{"e": list(e), "n": str(terms[e].numerator),
                                  "d": str(terms[e].denominator)} for e in order]},
                      separators=(",", ":"))


specialize_values = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9),
                              st.fractions(min_value=-9, max_value=9, max_denominator=12))


@settings(max_examples=80)
@given(small_polys, st.sampled_from([VAR_X, VAR_LAMBDA]), specialize_values)
@example(xl({}), VAR_X, Fraction(2, 3))
@example(X ** 2 - 2 * X * L + L ** 2, VAR_X, 1)  # (x - lambda)^2 at x = 1
@example(X * L - 2 * X, VAR_LAMBDA, 2)           # vanishes at lambda = 2
def test_specialize_matches_fraction_oracle(p, name, value):
    got = p.specialize(name, value)
    expected = oracle_specialize(p, name, value)
    assert got.vars == expected.vars
    assert got.terms == expected.terms
    assert all(type(c) is Fraction and c for c in got.terms.values())


# -- packed-integer routes against the dict loops ------------------------------

@contextlib.contextmanager
def dict_route():
    """A context in which every product sum takes the dict loop; as a
    decorator, ``@dict_route()``, it keeps an oracle that multiplies
    independent of the packed kernel its subject runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "PACK_MIN_PAIRS", math.inf)
        yield


def oracle_divexact(p, d):
    """``p / d`` by schoolbook division on the dict of terms, or None.

    Each step cancels the remainder's leading term in graded lexicographic
    order, so the loop ends; it fails as soon as that term is not a
    multiple of the divisor's.  Slow and obviously right: the oracle for
    ``divexact``.
    """
    def lead(terms):
        return max(terms, key=lambda e: (sum(e), e))

    d_lead = lead(d.terms)
    remainder = dict(p.terms)
    quotient = {}
    while remainder:
        r_lead = lead(remainder)
        shift = tuple(a - b for a, b in zip(r_lead, d_lead))
        if min(shift, default=0) < 0:
            return None
        c = remainder[r_lead] / d.terms[d_lead]
        quotient[shift] = c
        for e, dc in d.terms.items():
            e = tuple(a + b for a, b in zip(shift, e))
            rest = remainder.get(e, 0) - c * dc
            if rest:
                remainder[e] = rest
            else:
                remainder.pop(e, None)
    return SparsePoly(p.vars, quotient)


XLZ = (VAR_X, VAR_LAMBDA, "z")
mixed_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12).map(
    lambda c: c or Fraction(1, 7))


def polys_in(nvars, max_degree=4, max_size=8):
    exponents = st.tuples(*[st.integers(0, max_degree)] * nvars)
    return st.dictionaries(exponents, mixed_rationals, min_size=1,
                           max_size=max_size).map(lambda t: SparsePoly(XLZ[:nvars], t))


poly_pairs = st.one_of(*(st.tuples(polys_in(n), polys_in(n)) for n in (1, 2, 3)))
PACKED = settings(max_examples=40)


def operands(nvars):
    """Mixed-rational polynomials, the zero polynomial and nonzero constants."""
    variables = XLZ[:nvars]
    return st.one_of(polys_in(nvars), st.just(SparsePoly.zero(variables)),
                     mixed_rationals.map(lambda c: SparsePoly.constant(variables, c)))


operand_pairs = st.one_of(*(st.tuples(operands(n), operands(n)) for n in (1, 2, 3)))


@dict_route()
def oracle_substitute_polys(template, assignments):
    """The powers-dict loop on ``SparsePoly`` arithmetic: each power of an
    assigned polynomial is computed once, each template term adds its power
    product, scaled by its numerator, to the sum, and the sum is divided by
    the template's denominator once.  The oracle for the packed evaluation."""
    target_vars = assignments[template.vars[0]].vars
    powers = {}
    total = SparsePoly.zero(target_vars)
    for e, c in template.nums.items():
        product = c
        for name, exp in zip(template.vars, e):
            if exp:
                power = powers.get((name, exp))
                if power is None:
                    power = powers[name, exp] = assignments[name] ** exp
                product = power * product
        total = total + product
    return SparsePoly._make(target_vars, total.nums, total.den * template.den)


TEMPLATE_VARS = ("t0", "t1", "t2")


@st.composite
def substitutions(draw):
    """A template in 1 to 3 variables (zero, constant or up to degree 3 in
    each) and an assignment of polynomials in 1 to 3 variables to it, with
    mixed denominators and signs, zero and constants among them."""
    variables = TEMPLATE_VARS[:draw(st.integers(1, 3))]
    exponents = st.tuples(*[st.integers(0, 3)] * len(variables))
    template = draw(st.one_of(
        st.dictionaries(exponents, mixed_rationals, max_size=6).map(
            lambda t: SparsePoly(variables, t)),
        mixed_rationals.map(lambda c: SparsePoly.constant(variables, c))))
    nvars = draw(st.integers(1, 3))
    assigned = st.one_of(polys_in(nvars, max_degree=2, max_size=4),
                         st.just(SparsePoly.zero(XLZ[:nvars])),
                         mixed_rationals.map(lambda c: SparsePoly.constant(XLZ[:nvars], c)))
    return template, {v: draw(assigned) for v in variables}


@settings(max_examples=80)
@given(substitutions())
@example((SparsePoly(("t0", "t1"), {(2, 1): Fraction(-5, 6), (0, 3): 1, (1, 0): 4}),
          {"t0": 1 - X * Fraction(1, 3), "t1": xl({})}))  # a zero assignment
@example((xl({(4, 2): Fraction(1, 2), (0, 0): -3}), {VAR_X: 1 - X, VAR_LAMBDA: 1 - L}))
def test_substitute_polys_matches_the_powers_oracle(case):
    template, assignments = case
    assert substitute_polys(template, assignments) == oracle_substitute_polys(template, assignments)


@pytest.mark.parametrize("sign", [1, -1])
def test_substituted_coefficient_at_the_width_bound(sign):
    # the one result coefficient, 3 * (sign * (2^61 - 1))^5, has the
    # absolute value of the width bound sum_e |c_e| prod_i ||N_i||_1^e_i
    m = 2 ** 61 - 1
    template = SparsePoly(("t",), {(5,): 3})
    result = substitute_polys(template, {"t": xl({(1, 0): sign * m})})
    assert result == xl({(5, 0): 3 * (sign * m) ** 5})


def assert_matches_oracle(p, variables, terms):
    """``p`` is the canonical form of the Fraction term dict ``terms``."""
    assert p.vars == variables
    assert p.terms == terms
    assert p.den > 0 and math.gcd(p.den, *p.nums.values()) == 1
    assert all(type(c) is int and c for c in p.nums.values())
    assert poly_to_json(p) == oracle_json(variables, terms)
    same = SparsePoly(variables, terms)
    assert same == p and hash(same) == hash(p)
    if p.is_constant:
        value = terms.get((0,) * len(variables), Fraction(0))
        assert p == value and hash(p) == hash(value)


@PACKED
@given(operand_pairs, st.integers(0, 2))
@example((xl({(1, 0): Fraction(1, 2)}), xl({(0, 1): 2})), 0)   # x/2 * 2 lambda: content cancels
@example((xl({(0, 0): Fraction(3, 4)}), xl({(0, 0): Fraction(-3, 4)})), 1)  # sums to zero
def test_integer_form_matches_the_fraction_oracle(pair, extra):
    a, b = pair
    name = a.vars[-1]
    assert_matches_oracle(a + b, a.vars, oracle_add(a, b))
    assert_matches_oracle(a * b, a.vars, oracle_mul(a, b))
    assert_matches_oracle(a.derivative(name), a.vars, oracle_derivative(a, name))
    degree = max(a.total_degree(), 0) + extra
    assert_matches_oracle(a.homogenize("w", degree), a.vars + ("w",),
                          oracle_homogenize(a, degree))
    pieces = a.coefficients_in(name)
    expected = oracle_coefficients_in(a, name)
    assert set(pieces) == set(expected)
    for power, terms in expected.items():
        assert_matches_oracle(pieces[power], a.vars[:-1], terms)


def oracle_product_sum(products):
    """The sum of (-1)^odd x y over integer term dicts (x, y, odd), one term
    pair at a time, zero terms dropped: the oracle for ``_product_sum``."""
    terms = {}
    for x, y, odd in products:
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + (-c1 * c2 if odd else c1 * c2)
    return {e: c for e, c in terms.items() if c}


@st.composite
def signed_products(draw):
    """1 to 4 signed products of integer term dicts in 1 to 3 variables, with
    small and wide coefficients and empty operands; at times the last product
    cancels the first."""
    exponents = st.tuples(*[st.integers(0, 3)] * draw(st.integers(1, 3)))
    coefficient = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70)).filter(bool)
    terms = st.dictionaries(exponents, coefficient, max_size=8)
    products = draw(st.lists(st.tuples(terms, terms, st.booleans()), min_size=1, max_size=3))
    if draw(st.booleans()):
        x, y, odd = products[0]
        products.append((y, x, not odd))
    return products


NINETY = {(i,): 90 for i in range(4)}  # 90 (1 + t + t^2 + t^3)


@settings(max_examples=120)
@given(signed_products(), st.sampled_from([1, PACK_MIN_PAIRS]))
@example([({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}, False)], 1)  # (x + l)(x - l)
@example([({(3, 1): -2}, {(0, 2): 9}, False)], 1)
# the 2 by 2 determinant 90q * 90q - 90q * (-90q): each product reaches its
# own bound 4 * 90^2 = 32400 at t^3, in 15 bits, and their sum 64800 needs the
# next byte, so a per-product width would overflow
@example([(NINETY, NINETY, False), (NINETY, {e: -c for e, c in NINETY.items()}, True)],
         PACK_MIN_PAIRS)
def test_product_sum_matches_the_dict_loop(products, min_pairs):
    # at min_pairs = 1 every sum whose box is dense packs, however few its pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "PACK_MIN_PAIRS", min_pairs)
        terms = _product_sum(products)
    assert {e: c for e, c in terms.items() if c} == oracle_product_sum(products)


@PACKED
@given(poly_pairs, st.sampled_from([2, 6, Fraction(3, 4), Fraction(-10, 7)]))
@example((X * L + 1, X - L), 1)
# exact but for the L**3 term, which x does not divide
@example((2 * L ** 3 - 2 * X * L ** 3 - 3 * X ** 2 * L ** 3 - 2 * X ** 2 * L, 3 * X), 1)
def test_packed_quotient_matches_dict_division(pair, scale):
    a, b = pair
    b = b * scale  # a divisor whose cleared coefficients share a factor
    assume(not b.is_constant)
    product = a * b
    assert oracle_divexact(product, b) == a
    assert oracle_divexact(product + 1, b) is None
    # divexact divides by constants only
    with pytest.raises(ValueError):
        divexact(product, b)


class TestRouteSelection:
    def test_sparse_nine_variable_product_takes_dict_route(self, product_sums):
        names = tuple(f"t{i}" for i in range(9))
        t = [SparsePoly.variable(names, n) for n in names]
        a = sum(t[1:], t[0])
        b = sum((v * v for v in t[1:]), t[0] * t[0])
        product = a * b
        assert len(product.terms) == 81
        pairs, boxes = product_sums[-1]
        assert pairs == 81 >= PACK_MIN_PAIRS and not boxes

    def test_dense_product_is_packed(self, product_sums):
        a = (X + L + 1) ** 4
        product = a * a
        pairs, boxes = product_sums[-1]
        assert boxes and all(box <= pairs for box in boxes)
        with dict_route():
            assert product == (X + L + 1) ** 8
