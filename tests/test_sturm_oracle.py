"""The integer univariate machinery against plain Fraction and sparse routes.

``FractionSturmChain`` is the textbook chain: Euclid over Fractions, each
element the negated remainder of the two before it.  It is slow and its
coefficients swell, but it is obviously right, so it serves as the oracle
for the primitive integer chain in ``inflectionary.roots``.  The sparse
routes the integer lists replaced are oracles too: the squarefree part by
``gcd_univariate`` and ``oracle_divexact``, and the Cauchy bound over the monic
coefficient list.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_poly import oracle_divexact
from test_roots import to_ints, univariate_coeffs

from inflectionary import conjectures, roots
from inflectionary.inflection import legendre_f
from inflectionary.poly import VAR_LAMBDA, VAR_X, SparsePoly
from inflectionary.roots import (
    RootIsolator,
    SturmChain,
    gcd_univariate,
    sign_at_root,
    squarefree_part,
)

T = SparsePoly.variable(("t",), "t")
X = SparsePoly.variable((VAR_X,), VAR_X)

PROPERTY = settings(max_examples=40)


# -- the oracle ----------------------------------------------------------------

def _eval(c, t: Fraction) -> Fraction:
    value = Fraction(0)
    for coeff in reversed(c):
        value = value * t + coeff
    return value


def _neg_rem(a, b):
    """Return -(a mod b) for Fraction coefficient lists."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        factor = a[-1] / lead
        for i in range(db + 1):
            a[shift + i] -= factor * b[i]
        a.pop()
        while a and not a[-1]:
            a.pop()
    return [-v for v in a]


class FractionSturmChain:
    """Standard Sturm chain over Fractions: p, p', then negated remainders."""

    def __init__(self, p: SparsePoly):
        _, c0 = univariate_coeffs(p)
        chain = [c0]
        c1 = [c0[i] * i for i in range(1, len(c0))]
        if c1:
            chain.append(c1)
            while len(chain[-1]) > 1:
                nxt = _neg_rem(chain[-2], chain[-1])
                if not nxt:
                    break
                chain.append(nxt)
        self.chain = chain

    def variations_at(self, t: Fraction) -> int:
        signs = [v > 0 for v in (_eval(c, t) for c in self.chain) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _monic(p: SparsePoly) -> SparsePoly:
    _, c = univariate_coeffs(p)
    return p * (1 / c[-1])


def oracle_squarefree_part(p: SparsePoly) -> SparsePoly:
    """The monic radical p / gcd(p, p') by the sparse exact division."""
    return _monic(oracle_divexact(p, gcd_univariate(p, p.derivative("t"))))


def oracle_cauchy_bound(p: SparsePoly) -> Fraction:
    """1 + max |c_i| / |c_n| over the coefficient list of p."""
    _, c = univariate_coeffs(p)
    top = max((abs(v) for v in c[:-1]), default=Fraction(0))
    return 1 + top / abs(c[-1])


def oracle_isolate(p: SparsePoly):
    """(lo, hi] pairs by plain bisection with two oracle counts per step."""
    reduced = oracle_squarefree_part(p)
    if reduced.degree("t") < 1:
        return []
    chain = FractionSturmChain(reduced)

    def count(lo, hi):
        return chain.variations_at(lo) - chain.variations_at(hi)

    bound = oracle_cauchy_bound(reduced)
    out = []
    stack = [(-bound, bound, count(-bound, bound))]
    while stack:
        lo, hi, n = stack.pop()
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            left = count(lo, mid)
            stack.append((mid, hi, n - left))
            stack.append((lo, mid, left))
    return sorted(out)


# -- strategies ----------------------------------------------------------------

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=9)
nonzero = rationals.filter(bool)


@st.composite
def rooted_polys(draw):
    """A nonzero multiple of prod (t - r)^m, optionally times an irrational
    or a root-free quadratic; returns the polynomial and its rational roots."""
    roots_ = draw(st.lists(rationals, min_size=1, max_size=5, unique=True))
    p = SparsePoly.constant(("t",), draw(nonzero))
    for r in roots_:
        p = p * (T - r) ** draw(st.integers(1, 3))
    extra = draw(st.sampled_from([None, 2, 3, -1, -5]))
    if extra is not None:
        p = p * (T * T - extra)
    return p, roots_


# Zero coefficients make the remainder degrees skip, the case where only a
# positive scale factor keeps the signs of the chain.
random_polys = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                        min_size=2, max_size=8).filter(
    lambda c: any(c[1:])).map(lambda c: SparsePoly.from_univariate("t", c))

any_polys = st.one_of(rooted_polys().map(lambda pr: pr[0]), random_polys)

# Curve parameters in each real regime: lambda < 0, 0 < lambda < 1, lambda > 1.
regime_lambdas = st.one_of(
    st.fractions(min_value=-12, max_value=Fraction(-1, 9), max_denominator=9),
    st.fractions(min_value=Fraction(1, 9), max_value=Fraction(8, 9), max_denominator=9),
    st.fractions(min_value=Fraction(10, 9), max_value=12, max_denominator=9),
)


@st.composite
def planted_fibers(draw):
    """``(p, lambda0)``: p in x with roots planted at 0, 1 and lambda0, each
    of multiplicity 0 to 3, times other rational roots and perhaps a
    quadratic without a rational root."""
    lambda0 = draw(regime_lambdas)
    p = SparsePoly.constant((VAR_X,), draw(nonzero))
    for r in (0, 1, lambda0):
        p = p * (X - r) ** draw(st.integers(0, 3))
    for r in draw(st.lists(rationals, max_size=3)):
        p = p * (X - r) ** draw(st.integers(1, 2))
    extra = draw(st.sampled_from([None, 2, 3, -1]))
    if extra is not None:
        p = p * (X * X - extra)
    return p, lambda0


# -- properties ----------------------------------------------------------------

@PROPERTY
@given(any_polys, st.lists(rationals, min_size=1, max_size=6))
@example(T ** 4 + T - 1, [Fraction(-2), Fraction(0), Fraction(1, 2)])
def test_variation_counts_match_the_oracle(p, points):
    chain = SturmChain("t", to_ints(p))
    oracle = FractionSturmChain(p)
    for t in points:
        assert chain.variations_at(t) == oracle.variations_at(t), t


@PROPERTY
@given(any_polys)
def test_elements_are_positive_multiples_of_the_standard_chain(p):
    elements = [univariate_coeffs(poly)[1] for poly in SturmChain("t", to_ints(p)).polys]
    oracle = FractionSturmChain(p).chain
    assert len(elements) == len(oracle)
    for ints, exact in zip(elements, oracle):
        assert len(ints) == len(exact)
        scale = ints[-1] / exact[-1]
        assert scale > 0
        assert [v * scale for v in exact] == ints


# repeated roots: an irrational pair, and double roots at 0 and 1
REPEATED = ((T * T - 2) ** 2 * (T + 1), (T * (T - 1)) ** 2)


@PROPERTY
@given(any_polys)
@example(REPEATED[0])
@example(REPEATED[1])
def test_isolate_matches_the_oracle(p):
    got = [(iv.lo, iv.hi) for iv in RootIsolator(p).isolate()]
    assert got == oracle_isolate(p)


@PROPERTY
@given(st.one_of(rooted_polys(), random_polys.map(lambda p: (p, []))), st.integers(1, 9))
@example((REPEATED[0], [Fraction(-1)]), 1)
@example((T ** 3 * (T - 1) ** 2, [Fraction(0), Fraction(1)]), 5)
def test_counts_at_and_past_the_root_bound_match_the_oracle(rooted, b):
    # past R the chain reads its counts off the leading signs; at one step
    # inside R, and at the planted roots, it evaluates
    p, planted = rooted
    chain = SturmChain("t", to_ints(p))
    oracle = FractionSturmChain(p)
    bound = chain.root_bound
    points = (bound, Fraction(bound * b - 1, b), Fraction(10 ** 40, 7),
              oracle_cauchy_bound(p), *planted)
    for t in points:
        for s in (t, -t):
            assert chain.variations_at(s) == oracle.variations_at(s), s


@PROPERTY
@given(rooted_polys(), st.sampled_from([None, 2, -5]))
@example((T - 12, [Fraction(12)]), None)
@example((7 * T - 48, [Fraction(48, 7)]), 2)
def test_root_bound_is_strict(rooted, extra):
    # every planted root lies strictly inside R, also times t^2 - 2 (roots
    # +-sqrt(2)) and t^2 + 5 (no real root), for p's chain and the isolator's
    p, planted = rooted
    if extra is not None:
        p = p * (T * T - extra)
    for chain in (SturmChain("t", to_ints(p)), RootIsolator(p).chain):
        bound = chain.root_bound
        assert bound & (bound - 1) == 0
        assert all(abs(r) < bound for r in planted)
        assert extra != 2 or 2 < bound * bound


@PROPERTY
@given(rooted_polys(), random_polys)
def test_sign_at_rational_root_is_exact(rooted, q):
    # One call signs q at every root of the fiber; check the rational ones.
    p, known = rooted
    iso = RootIsolator(p)
    intervals = iso.isolate()
    signs = sign_at_root(q, iso, intervals)
    assert len(signs) == len(intervals)
    for iv, sign in zip(intervals, signs):
        inside = [r for r in known if iv.lo < r <= iv.hi]
        if not inside:
            continue  # a root of the quadratic factor
        (r,) = inside
        value = _eval(univariate_coeffs(q)[1], r)
        assert sign == (value > 0) - (value < 0)
        assert sign_at_root(q, iso, [iv]) == [sign]


@PROPERTY
@given(planted_fibers())
@example((X * X + 1, Fraction(-2)))
@example((3 * X ** 0, Fraction(1, 2)))
@example((X ** 2 * (X - 1) ** 3 * (2 * X - 1) ** 2 * (X - 3), Fraction(1, 2)))
@example((X * (X + 2) ** 2 * (X - Fraction(1, 2)) * (X * X - 2), Fraction(-2)))
# lambda0 = 5 lies past the isolator's bound 3/2: f's last root is past it
@example(((2 * X - 1) * (X + 1), Fraction(5)))
def test_count_between_f_roots_matches_signs_at_roots(fiber):
    # The census and the scan count the roots with f > 0 from f's own roots;
    # the oracle signs f at every isolated root.
    p, lambda0 = fiber
    iso = RootIsolator(p)
    f_here = legendre_f().specialize(VAR_LAMBDA, lambda0)
    signed = sum(s > 0 for s in sign_at_root(f_here, iso, iso.isolate()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjectures, "inflection_fiber", lambda mu, k, lam: p)
        assert conjectures.real_root_census(1, 2, lambda0).roots_f_positive == signed
        assert conjectures.conjecture4_scan(1, 2, (lambda0,)).data["counts"] == [signed]


def test_inexact_pseudo_division_raises(monkeypatch):
    # The check must hold under ``python -O`` too, so it cannot be an assert.
    monkeypatch.setattr(roots, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(RuntimeError, match="inexact"):
        SturmChain("t", [1, -2, 0, 1])


# -- the one integer division against the sparse routes -------------------------

int_lists = st.lists(st.integers(-40, 40), min_size=1, max_size=9).filter(lambda c: c[-1])


@PROPERTY
@given(int_lists, int_lists)
@example([1, 0, 0, 0, 5], [0, -3])
@example([7, 0, 2], [-4])
def test_pseudo_division_identity(a, b):
    if len(a) < len(b):
        a, b = b, a
    q, r = roots._pseudo_divmod(a, b)
    scale = abs(b[-1]) ** (len(a) - len(b) + 1)
    pa, pb, pq, pr = (SparsePoly.from_univariate("t", c) for c in (a, b, q, r))
    assert pa * scale == pq * pb + pr
    assert len(r) < len(b) and (not r or r[-1])


@PROPERTY
@given(int_lists, st.one_of(st.integers(-40, 40), rationals))
@example([2, 0, -4], Fraction(-3, 10))
@example([3, -6], 5)
def test_integer_builder_matches_the_fraction_route(c, lead):
    # the oracle scales every coefficient as a Fraction and parses the list;
    # equality compares the canonical (nums, den): den > 0 in lowest terms
    oracle = SparsePoly.from_univariate("t", [v * Fraction(lead) / c[-1] for v in c])
    assert roots._poly("t", c, lead) == oracle


@PROPERTY
@given(any_polys)
def test_squarefree_list_is_a_positive_multiple_of_the_oracle(p):
    reduced = squarefree_part(to_ints(p))
    _, oracle = univariate_coeffs(oracle_squarefree_part(p))
    assert reduced[-1] > 0
    assert reduced == [v * reduced[-1] for v in oracle]


@PROPERTY
@given(any_polys)
@example(REPEATED[0])
@example(REPEATED[1])
def test_isolator_bound_and_repeated_part_match_the_oracles(p):
    iso = RootIsolator(p)
    assert iso.bound == oracle_cauchy_bound(oracle_squarefree_part(p))
    assert iso.repeated_part() == gcd_univariate(p, p.derivative("t"))
