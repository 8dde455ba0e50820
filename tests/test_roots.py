"""Univariate gcd, Sturm counting, isolation and rational certification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflectionary.poly import SparsePoly
from inflectionary.roots import (
    IsolatingInterval,
    RootIsolator,
    SturmChain,
    cauchy_root_bound,
    certified_rational_roots,
    deflate,
    gcd_univariate,
    sign_at_root,
    simplest_rational_between,
    squarefree_part,
    sturm_count,
)

T = SparsePoly.variable(("t",), "t")
ONE = SparsePoly.constant(("t",), 1)


def from_roots(*roots):
    p = ONE
    for r in roots:
        p = p * (T - r)
    return p


class TestGcd:
    def test_shared_linear_factor(self):
        a = from_roots(1, 1, -2)
        b = from_roots(1, -3)
        assert gcd_univariate(a, b) == T - 1

    def test_coprime(self):
        g = gcd_univariate(from_roots(1), from_roots(2))
        assert g == ONE

    def test_zero_inputs(self):
        z = SparsePoly.zero(("t",))
        assert gcd_univariate(z, z).is_zero
        assert gcd_univariate(from_roots(2) * 5, z) == T - 2

    def test_result_is_monic(self):
        a = 6 * from_roots(Fraction(1, 3), 4)
        b = 10 * from_roots(Fraction(1, 3), 7)
        assert gcd_univariate(a, b) == T - Fraction(1, 3)

    def test_big_coefficient_stability(self):
        # primitive PRS should not blow up on moderately sized inputs
        rng = random.Random(11)
        for _ in range(10):
            common = from_roots(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
            a = common * _random_upoly(rng)
            b = common * _random_upoly(rng)
            if a.is_zero or b.is_zero:
                continue
            g = gcd_univariate(a, b)
            assert g.degree("t") >= 1


def _random_upoly(rng, max_deg=4):
    coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
              for _ in range(rng.randint(1, max_deg + 1))]
    if not any(coeffs):
        coeffs[-1] = Fraction(1)
    return SparsePoly.from_univariate("t", coeffs)


class TestSquarefreeAndMultiplicity:
    def test_squarefree_part(self):
        p = from_roots(1, 1, 1, -2)
        assert squarefree_part(p) == from_roots(1, -2)

    def test_already_squarefree_is_monicized(self):
        assert squarefree_part(3 * from_roots(0, 2)) == from_roots(0, 2)

    def test_root_multiplicity(self):
        p = from_roots(Fraction(1, 2), Fraction(1, 2), 3)
        assert deflate(p, Fraction(1, 2)) == (2, from_roots(3))
        assert deflate(p, 3) == (1, from_roots(Fraction(1, 2), Fraction(1, 2)))
        assert deflate(p, 0) == (0, p)
        assert deflate(-2 * ONE, 1) == (0, -2 * ONE)
        with pytest.raises(ValueError):
            deflate(SparsePoly.zero(("t",)), 0)

    def test_cauchy_bound_contains_roots(self):
        p = from_roots(-7, Fraction(9, 2), 1)
        bound = cauchy_root_bound(p)
        assert bound > 7 and bound > Fraction(9, 2)


class TestSturm:
    def test_distinct_count_ignores_multiplicity(self):
        p = from_roots(1, 1, 4)
        assert sturm_count(p) == 2

    def test_half_open_endpoints(self):
        p = from_roots(1)
        assert sturm_count(p, 0, 1) == 1
        assert sturm_count(p, 1, 2) == 0

    def test_x_squared_minus_two(self):
        p = T * T - 2
        assert sturm_count(p) == 2
        assert sturm_count(p, 0, None) == 1
        assert sturm_count(p, None, 0) == 1

    def test_no_real_roots(self):
        assert sturm_count(T * T + 1) == 0

    def test_constant_poly(self):
        assert sturm_count(ONE) == 0
        with pytest.raises(ValueError):
            sturm_count(SparsePoly.zero(("t",)))

    def test_chain_shape(self):
        chain = SturmChain(T * T - 2)
        degrees = [p.degree("t") for p in chain.polys]
        assert degrees == [2, 1, 0]


class TestIsolation:
    def test_intervals_are_ordered_and_disjoint(self):
        p = from_roots(-3, Fraction(1, 4), 2)
        ivs = RootIsolator(p).isolate()
        assert len(ivs) == 3
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo
        for iv, root in zip(ivs, (-3, Fraction(1, 4), 2)):
            assert iv.lo < root <= iv.hi

    def test_multiple_roots_isolated_once(self):
        assert len(RootIsolator(from_roots(5, 5, 5)).isolate()) == 1


class TestSignAtRoot:
    def test_sign_of_offset_at_sqrt2(self):
        iso = RootIsolator(T * T - 2)
        intervals = iso.isolate()
        assert sign_at_root(T - 1, iso, intervals) == [-1, 1]
        assert sign_at_root(T - 2, iso, intervals) == [-1, -1]
        assert sign_at_root(T, iso, intervals[:1]) == [-1]

    def test_certified_zero_through_gcd(self):
        iso = RootIsolator(from_roots(2, 5))
        assert sign_at_root(T - 2, iso, iso.isolate()) == [0, 1]

    def test_zero_poly_and_constants(self):
        iso = RootIsolator(T * T - 3)
        intervals = iso.isolate()
        assert sign_at_root(SparsePoly.zero(("t",)), iso, intervals) == [0, 0]
        assert sign_at_root(-2 * ONE, iso, intervals) == [-1, -1]
        assert sign_at_root(T, iso, []) == []

    def test_shared_irrational_root(self):
        iso = RootIsolator(T * T - 2)
        q = (T * T - 2) * (T - 10)
        assert sign_at_root(q, iso, iso.isolate()) == [0, 0]

    def test_rejects_a_non_isolating_interval(self):
        iso = RootIsolator(from_roots(1, 2))
        whole = IsolatingInterval(Fraction(0), Fraction(3))
        with pytest.raises(ValueError):
            sign_at_root(T, iso, [iso.isolate()[0], whole])


class TestSimplestRational:
    @pytest.mark.parametrize("lo,hi,expected", [
        (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(3, 10), Fraction(17, 50), Fraction(1, 3)),
        (Fraction(2), Fraction(3), Fraction(2)),
        (Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 2)),
        (Fraction(-1, 4), Fraction(1, 7), Fraction(0)),
        (Fraction(7, 5), Fraction(7, 5), Fraction(7, 5)),
    ])
    def test_known_values(self, lo, hi, expected):
        assert simplest_rational_between(lo, hi) == expected

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            simplest_rational_between(1, 0)

    def test_minimality_on_random_intervals(self):
        rng = random.Random(301)
        for _ in range(50):
            lo = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            hi = lo + Fraction(rng.randint(1, 9), rng.randint(1, 12))
            best = simplest_rational_between(lo, hi)
            assert lo <= best <= hi
            for q in range(1, best.denominator):
                p_lo = -((-lo.numerator * q) // lo.denominator)
                assert not any(
                    lo <= Fraction(p, q) <= hi
                    for p in range(p_lo, int(hi * q) + 1)
                ), (lo, hi, best, q)


class TestCertifiedRationalRoots:
    def test_mixed_rational_and_irrational(self):
        p = (3 * T - 1) * (7 * T + 2) * (T * T - 2)
        rationals, unresolved = certified_rational_roots(p)
        assert rationals == [Fraction(-2, 7), Fraction(1, 3)]
        assert len(unresolved) == 2
        for iv in unresolved:
            assert iv.width <= Fraction(1, 2 ** 48)

    def test_pure_rational_roots(self):
        roots = [Fraction(-5, 3), Fraction(0), Fraction(7, 11)]
        p = from_roots(*roots)
        rationals, unresolved = certified_rational_roots(p)
        assert rationals == sorted(roots)
        assert unresolved == []

    def test_no_real_roots(self):
        rationals, unresolved = certified_rational_roots(T * T + 4)
        assert rationals == [] and unresolved == []

    def test_denominator_cap_is_honest(self):
        p = from_roots(Fraction(1, 2 ** 30))
        rationals, unresolved = certified_rational_roots(p, max_denominator=2 ** 8)
        # the root survives either as a certified value or as an interval
        if rationals:
            assert rationals == [Fraction(1, 2 ** 30)]
        else:
            assert len(unresolved) == 1

    def test_random_rational_polynomials_fully_certified(self):
        rng = random.Random(1213)
        for _ in range(20):
            roots = sorted({Fraction(rng.randint(-30, 30), rng.randint(1, 16))
                            for _ in range(rng.randint(1, 4))})
            p = from_roots(*roots)
            rationals, unresolved = certified_rational_roots(p)
            assert rationals == roots
            assert unresolved == []


class TestIsolatorObject:
    def test_count_none_bounds(self):
        iso = RootIsolator(from_roots(-10, 0, 10))
        assert iso.count() == 3
        assert iso.count(lo=0) == 1
        assert iso.count(hi=0) == 2
        with pytest.raises(ValueError):
            iso.count(3, 3)

    def test_interval_json(self):
        iv = IsolatingInterval(Fraction(1, 3), Fraction(1, 2))
        assert iv.to_json_dict() == {"lo": "1/3", "hi": "1/2"}


# -- deflation against the two-step oracle ---------------------------------------

def oracle_multiplicity(p: SparsePoly, r: Fraction) -> int:
    """Multiplicity of ``r`` as a root of ``p``, one synthetic division at a time."""
    _, c = p.univariate_coeffs()
    count = 0
    while len(c) > 1:
        acc = Fraction(0)
        steps = []
        for coeff in reversed(c):
            acc = acc * r + coeff
            steps.append(acc)
        if steps[-1]:
            break
        c = list(reversed(steps[:-1]))
        count += 1
    return count


def oracle_linear_quotient(p: SparsePoly, r: Fraction) -> SparsePoly:
    """``p / (t - r)``, which must be exact."""
    name, coeffs = p.univariate_coeffs()
    out = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
        out.append(acc)
    if out[-1]:
        raise ValueError(f"{r} is not a root")
    return SparsePoly.from_univariate(name, list(reversed(out[:-1])))


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(small_rationals, min_size=0, max_size=6),
       st.lists(small_rationals, min_size=1, max_size=4).filter(lambda c: c[-1]),
       small_rationals)
def test_deflate_matches_the_oracle_pair(roots_, cofactor, r):
    p = from_roots(*roots_) * SparsePoly.from_univariate("t", cofactor)
    expected = oracle_multiplicity(p, r)
    quotient = p
    for _ in range(expected):
        quotient = oracle_linear_quotient(quotient, r)
    assert deflate(p, r) == (expected, quotient)
