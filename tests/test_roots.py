"""Univariate gcd, Sturm counting, isolation and rational certification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflectionary import roots
from inflectionary.inflection import inflection_fiber
from inflectionary.poly import SparsePoly
from inflectionary.roots import (
    MAX_DENOMINATOR,
    IsolatingInterval,
    RootIsolator,
    SturmChain,
    certified_rational_roots,
    deflate,
    gcd_univariate,
    sign_at_root,
    simplest_rational_between,
    squarefree_part,
)

T = SparsePoly.variable(("t",), "t")
ONE = SparsePoly.constant(("t",), 1)


def from_roots(*roots_):
    p = ONE
    for r in roots_:
        p = p * (T - r)
    return p


def to_ints(p):
    """The primitive integer list of the nonzero one-variable ``p``."""
    return roots._ints(p)[1]


def univariate_coeffs(p):
    """``(name, [c0, c1, ...])``: the Fraction coefficients of the
    one-variable ``p``."""
    (name,) = p.vars
    return name, [p.coefficient((i,)) for i in range(p.degree(name) + 1)]


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
        assert squarefree_part(to_ints(p)) == to_ints(from_roots(1, -2))

    def test_squarefree_leading_coefficient_is_positive(self):
        assert squarefree_part(to_ints(-3 * from_roots(0, 2))) == [0, -2, 1]
        assert squarefree_part(to_ints(-2 * from_roots(Fraction(1, 3)) ** 2)) == [-1, 3]

    def test_repeated_part(self):
        p = 6 * from_roots(Fraction(1, 2), Fraction(1, 2), 3, 3, 3, -1)
        assert RootIsolator(p).repeated_part() == from_roots(Fraction(1, 2), 3, 3)
        assert RootIsolator(from_roots(2, -2)).repeated_part() == ONE

    def test_one_remainder_sequence_per_squarefree_fiber(self, monkeypatch):
        # p's own chain ends at gcd(p, p'); only a repeated factor makes a
        # second sequence, the chain of the squarefree part
        runs = []
        sequence = roots._remainders

        def spy(a, b):
            runs.append(a)
            return sequence(a, b)

        monkeypatch.setattr(roots, "_remainders", spy)
        iso = RootIsolator(-3 * from_roots(0, 2, Fraction(1, 3)))
        assert len(runs) == 1
        assert iso.repeated_part() == ONE
        runs.clear()
        iso = RootIsolator(from_roots(1, 1, -2))
        assert len(runs) == 2
        assert runs[1] == iso.reduced == to_ints(from_roots(1, -2))
        assert [(iv.lo, iv.hi) for iv in iso.isolate()] == [(-3, 0), (0, 3)]

    def test_inexact_division_is_an_internal_fault(self):
        with pytest.raises(RuntimeError, match="internal fault"):
            roots._exact_quotient([1, 0, 1], [-1, 1])

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
        bound = RootIsolator(p).bound
        assert bound > 7 and bound > Fraction(9, 2)


def count_in(p, lo, hi):
    """Distinct real roots of p in (lo, hi], by the isolator's chain."""
    chain = RootIsolator(p).chain
    return chain.variations_at(lo) - chain.variations_at(hi)


class TestSturm:
    def test_distinct_count_ignores_multiplicity(self):
        p = from_roots(1, 1, 4)
        assert len(RootIsolator(p).isolate()) == 2

    def test_half_open_endpoints(self):
        p = from_roots(1)
        assert count_in(p, 0, 1) == 1
        assert count_in(p, 1, 2) == 0

    def test_x_squared_minus_two(self):
        p = T * T - 2
        assert len(RootIsolator(p).isolate()) == 2
        assert count_in(p, 0, 2) == 1
        assert count_in(p, -2, 0) == 1

    def test_no_real_roots(self):
        assert len(RootIsolator(T * T + 1).isolate()) == 0

    def test_constant_poly(self):
        assert len(RootIsolator(ONE).isolate()) == 0
        with pytest.raises(ValueError):
            RootIsolator(SparsePoly.zero(("t",)))

    def test_chain_shape(self):
        chain = SturmChain("t", [-2, 0, 1])
        degrees = [p.degree("t") for p in chain.polys]
        assert degrees == [2, 1, 0]

    def test_counts_past_the_root_bound_come_from_the_leading_signs(self, monkeypatch):
        # t^2 - 2: R = 4 > Fujiwara's 2 sqrt(2); the chain t^2 - 2, 2t, 2
        # has signs +, +, + at +infinity and +, -, + at -infinity
        chain = SturmChain("t", [-2, 0, 1])
        assert chain.root_bound == 4
        assert SturmChain("t", [-12, 1]).root_bound == 32
        assert SturmChain("t", [7]).root_bound == 2
        monkeypatch.setattr(roots, "_powers", None)  # any evaluation fails
        for t, expected in ((4, 0), (Fraction(10 ** 40, 7), 0), (-4, 2), (Fraction(-9, 2), 2)):
            assert chain.variations_at(t) == expected


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

    @pytest.mark.parametrize("mu,k,lam,evaluations", [
        (1, 10, Fraction(-3, 2), 5),
        (2, 5, Fraction(4, 3), 14),
        (3, 4, Fraction(2, 3), 23),
    ])
    def test_chain_is_evaluated_only_inside_the_root_bound(self, monkeypatch, mu, k, lam,
                                                           evaluations):
        # bisection starts at the Cauchy bound, far past every root; out
        # there the counts come from the chain's leading signs, so the
        # Horner evaluations (one _powers call each) are of midpoints inside R
        iso = RootIsolator(inflection_fiber(mu, k, lam))
        assert iso.bound > 2 * iso.chain.root_bound
        powers, scaled_value = roots._powers, roots._scaled_value
        counted = []
        points = set()

        def spy_value(c, a, b_powers):
            points.add(Fraction(a, b_powers[1]))
            return scaled_value(c, a, b_powers)

        monkeypatch.setattr(roots, "_powers", lambda b, n: counted.append(b) or powers(b, n))
        monkeypatch.setattr(roots, "_scaled_value", spy_value)
        iso.isolate()
        assert len(counted) == evaluations
        assert len(points) == evaluations
        assert all(abs(t) < iso.chain.root_bound for t in points)


class TestRootsBetween:
    def test_open_interval_leaves_out_both_ends(self):
        iso = RootIsolator(from_roots(-1, 0, 2, 2, 3))
        assert iso.roots_between(Fraction(-1), Fraction(3)) == 2
        assert iso.roots_between(Fraction(-2), Fraction(2)) == 2
        assert iso.roots_between(Fraction(2), Fraction(3)) == 0

    def test_hi_past_the_bound_counts_every_root_above_lo(self):
        iso = RootIsolator((T * T - 2) * (T - 5))
        assert iso.roots_between(Fraction(0), iso.bound) == 2
        assert iso.roots_between(Fraction(0), 10 * iso.bound) == 2
        assert iso.roots_between(-iso.bound, iso.bound) == 3
        assert iso.roots_between(iso.bound, 2 * iso.bound) == 0
        # lo past hi: both ends are past the bound, as when lambda0 >= bound
        assert iso.roots_between(3 * iso.bound, iso.bound) == 0

    def test_no_real_root(self):
        for p in (T * T + 1, 3 * ONE):
            iso = RootIsolator(p)
            assert iso.roots_between(-iso.bound, iso.bound) == 0


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
        # (0, 3] holds both roots: the chain's own counts there differ by two
        whole = IsolatingInterval(Fraction(0), Fraction(3),
                                  iso.chain.variations_at(0), iso.chain.variations_at(3))
        with pytest.raises(ValueError):
            sign_at_root(T, iso, [iso.isolate()[0], whole])

    def test_evaluates_the_chain_only_at_midpoints(self, monkeypatch):
        iso = RootIsolator(T * T - 2)
        intervals = iso.isolate()
        seen = []
        variations = iso.chain.variations_at
        monkeypatch.setattr(iso.chain, "variations_at", lambda t: seen.append(t) or variations(t))
        # T - 10 has no root near either interval: no halving, no evaluation
        assert sign_at_root(T - 10, iso, intervals) == [-1, -1]
        assert seen == []
        # 7/5 lies next to sqrt(2): halving evaluates new midpoints only
        assert sign_at_root(5 * T - 7, iso, intervals) == [-1, 1]
        assert seen
        ends = {iv.lo for iv in intervals} | {iv.hi for iv in intervals}
        assert not ends & set(seen)


def oracle_simplest_rational_between(lo, hi):
    """The smallest-denominator rational in [lo, hi] by the continued
    fraction recursion on ``Fraction``s."""
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -oracle_simplest_rational_between(-hi, -lo)
    floor = lo.numerator // lo.denominator
    ceil = -((-lo.numerator) // lo.denominator)
    if ceil <= hi:
        return Fraction(ceil)
    return floor + 1 / oracle_simplest_rational_between(1 / (hi - floor), 1 / (lo - floor))


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

    @settings(max_examples=200)
    @given(st.fractions(), st.integers(0, 90), st.integers(0, 5))
    def test_matches_the_fraction_recursion(self, lo, log_width, steps):
        # bisection intervals are dyadic and down to 2^-72 wide
        for hi in (lo + Fraction(steps, 2 ** log_width), lo + Fraction(steps, 3 ** log_width)):
            assert simplest_rational_between(lo, hi) == oracle_simplest_rational_between(lo, hi)


class TestCertifiedRationalRoots:
    def test_mixed_rational_and_irrational(self):
        p = (3 * T - 1) * (7 * T + 2) * (T * T - 2)
        rationals, unresolved = certified_rational_roots(p)
        assert rationals == [Fraction(-2, 7), Fraction(1, 3)]
        assert len(unresolved) == 2
        for iv in unresolved:
            assert iv.hi - iv.lo <= Fraction(1, 2 ** 48)

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
        root = Fraction(1, 3 ** 40)
        assert root.denominator > MAX_DENOMINATOR
        rationals, unresolved = certified_rational_roots(from_roots(root, 1))
        # the root survives either as a certified value or as an interval
        assert Fraction(1) in rationals
        if root in rationals:
            assert unresolved == []
        else:
            (iv,) = unresolved
            assert iv.lo < root <= iv.hi

    def test_random_rational_polynomials_fully_certified(self):
        rng = random.Random(1213)
        for _ in range(20):
            roots = sorted({Fraction(rng.randint(-30, 30), rng.randint(1, 16))
                            for _ in range(rng.randint(1, 4))})
            p = from_roots(*roots)
            rationals, unresolved = certified_rational_roots(p)
            assert rationals == roots
            assert unresolved == []


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def oracle_certified_rational_roots(p):
    """Rational certification with no early acceptance: each root's interval
    is bisected to width 1/MAX_DENOMINATOR^2, then up to four rounds 2^8
    times finer, and the simplest rational is tested at each round's end."""
    iso = RootIsolator(p)
    rationals = []
    unresolved = []
    for iv in iso.isolate():
        width = Fraction(1, MAX_DENOMINATOR ** 2)
        for _ in range(4):
            while iv.hi - iv.lo > width:
                iv = iso._halve(iv)
            cand = oracle_simplest_rational_between(iv.lo, iv.hi)
            if iv.lo < cand <= iv.hi and not roots._sign_at(iso.reduced, cand):
                rationals.append(cand)
                break
            width /= 2 ** 8
        else:
            unresolved.append(iv)
    return rationals, unresolved


M = MAX_DENOMINATOR
# roots past the cap: the widening rounds certify the first five, whose
# denominators are just past it, and leave the last two, past 2^36
PAST_THE_CAP = [Fraction(1, M + 1), Fraction(M - 1, M + 1), Fraction(M, M + 3),
                Fraction(7, 2 * M + 1), Fraction(-M - 2, M + 1),
                Fraction(2 ** 37 - 1, 2 ** 37 + 1), Fraction(M * M - 1, M * M + 1)]


@pytest.mark.parametrize("p", [
    from_roots(0, 1, -1, Fraction(1, 2)),
    from_roots(Fraction(1, M), Fraction(M - 1, M), Fraction(-5, M)),
    *(from_roots(r, 1) for r in PAST_THE_CAP),
    T * T - 2,
    (T - 1) ** 2 * (2 * T + 1) ** 3 * (T * T - 2) * (T - PAST_THE_CAP[0]) * (3 * T - 1),
    (T * T - 2) ** 2 * (T * T - 3) * T ** 3 * from_roots(Fraction(1, M), PAST_THE_CAP[1]),
])
def test_early_certification_matches_full_bisection(p):
    assert certified_rational_roots(p) == oracle_certified_rational_roots(p)


def test_small_denominator_roots_are_taken_before_full_bisection(monkeypatch):
    halvings = []
    halve = RootIsolator._halve
    monkeypatch.setattr(RootIsolator, "_halve",
                        lambda self, iv: halvings.append(iv) or halve(self, iv))
    rationals, _ = certified_rational_roots(from_roots(0, 1, -1, Fraction(1, 2)))
    assert rationals == [-1, 0, Fraction(1, 2), 1]
    assert len(halvings) <= 4  # the full bisection takes 190


def test_roots_past_the_cap_are_both_certified_and_left():
    certified = [bool(certified_rational_roots(from_roots(r))[0]) for r in PAST_THE_CAP]
    assert certified == [True] * 5 + [False] * 2


@settings(max_examples=40)
@given(st.lists(small_rationals | st.sampled_from(PAST_THE_CAP)
               | st.builds(Fraction, st.integers(-2 * M, 2 * M), st.integers(M - 2, M + 9)),
               max_size=4),
       st.integers(min_value=-3, max_value=5), st.integers(1, 3))
def test_early_certification_matches_the_oracle(roots_, n, power):
    # t^2 - n adds irrational roots for n = 2, 3, 5 and none for n < 0
    p = from_roots(*roots_) ** power * (T * T - n)
    assert certified_rational_roots(p) == oracle_certified_rational_roots(p)


class TestIsolatorObject:
    def test_interval_json(self):
        iv = IsolatingInterval(Fraction(1, 3), Fraction(1, 2), 2, 1)
        assert iv.to_json_dict() == {"lo": "1/3", "hi": "1/2"}


# -- deflation against the two-step oracle ---------------------------------------

def oracle_multiplicity(p: SparsePoly, r: Fraction) -> int:
    """Multiplicity of ``r`` as a root of ``p``, one synthetic division at a time."""
    _, c = univariate_coeffs(p)
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
    name, coeffs = univariate_coeffs(p)
    out = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
        out.append(acc)
    if out[-1]:
        raise ValueError(f"{r} is not a root")
    return SparsePoly.from_univariate(name, list(reversed(out[:-1])))


@settings(max_examples=60)
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


@settings(max_examples=40)
@given(st.lists(small_rationals, min_size=0, max_size=5),
       st.lists(small_rationals, min_size=1, max_size=4).filter(lambda c: c[-1]),
       st.integers(min_value=-3, max_value=5))
def test_intervals_carry_the_chain_counts_at_their_ends(roots_, cofactor, n):
    # t^2 - n adds irrational roots for n = 2, 3, 5 and none for n < 0
    p = from_roots(*roots_) * SparsePoly.from_univariate("t", cofactor) * (T * T - n)
    iso = RootIsolator(p)
    _, unresolved = certified_rational_roots(p)
    for iv in iso.isolate() + unresolved:
        assert (iv.vlo, iv.vhi) == (iso.chain.variations_at(iv.lo),
                                    iso.chain.variations_at(iv.hi))
        assert iv.vlo - iv.vhi == 1
