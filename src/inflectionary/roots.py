"""Univariate machinery: gcd, Sturm chains, root isolation, exact signs.

Inputs are one-variable :class:`~inflectionary.poly.SparsePoly` values, and
every result is exact.  Inside, a polynomial has one form: a primitive
integer list, the ascending coprime coefficients of a positive multiple of
it.  ``_ints`` reads it off the numerators, whose denominator is positive,
and ``_primitive`` clears the content, a positive factor, so every sign is
kept.  There is one division, the integer pseudo-division
``_pseudo_divmod``, whose quotient and remainder are scaled by a positive
power of the divisor's leading coefficient, and one remainder sequence on
it, ``_remainders``, which ends at the gcd and is the Sturm chain when its
second list is the derivative of its first.  The same division gives
p / gcd(p, p') and deflates a rational root a/b by b x - a.  An integer
list is evaluated at a rational a/b (b > 0) by homogeneous Horner, sum
c_i a^i b^(d-i), which has the sign of its value at a/b.  A Sturm chain is
evaluated only inside its root bound R, a power of two past every root of
its first element: at |a| >= R b its count is V(+inf) or V(-inf), read
off the elements' leading signs when the chain is built.

A :class:`RootIsolator` is built once per polynomial, e.g. one fiber of
P(mu, k) at a fixed lambda, and owns that fiber's univariate work: p's
chain ends at gcd(p, p'), its ``repeated_part``; the squarefree part's
chain and root bound serve isolation, rational certification and
``roots_between``, which counts the roots in an open interval from the
chain's variations at its ends, with no isolation and no bisection.
``sign_at_root`` signs another polynomial q at all the fiber's roots in one
call; the checks count instead, and it stays as the slower, independent
route that the tests set those counts against.  An interval carries the
chain's variation counts at its ends and isolates one root when they differ
by one.  Isolation, signing and certification bisect through one step,
``RootIsolator._split``, which evaluates the chain only at the midpoint.
``deflate`` splits a rational root off with its multiplicity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .poly import SparsePoly, _powers, as_fraction

# Largest denominator ``certified_rational_roots`` is sure to recognize: by
# the time bisection reaches width 1/MAX_DENOMINATOR^2, such a root is its
# interval's simplest rational (a step often finds it sooner).  Bisection
# stops at the first width at or below _FINAL_WIDTH, 2^-72, so larger
# denominators are recognized only if that holds by then.
MAX_DENOMINATOR = 2 ** 24
_FINAL_WIDTH = Fraction(1, MAX_DENOMINATOR ** 2 * 2 ** 24)


# -- integer lists --------------------------------------------------------------

def _degree(c):
    return len(c) - 1


def _derive(c):
    return [c[i] * i for i in range(1, len(c))]


def _primitive(c):
    """The integer list ``c`` over its content, a positive factor, so the
    sign of every coefficient is kept."""
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _positive(c):
    """The primitive list ``±c`` whose leading coefficient is positive."""
    c = _primitive(c)
    return c if c[-1] > 0 else [-v for v in c]


def _ints(p: SparsePoly):
    """``(name, c)``: the variable of the nonzero one-variable ``p`` and
    its primitive integer list, read off its numerators."""
    if len(p.vars) != 1:
        raise ValueError(f"not univariate: variables {p.vars!r}")
    c = [0] * (p.degree(p.vars[0]) + 1)
    for (i,), v in p.nums.items():
        c[i] = v
    return p.vars[0], _primitive(c)


def _poly(name, c, lead=1) -> SparsePoly:
    """The multiple of the integer list ``c`` with leading coefficient ``lead``,
    an int or Fraction: c lead / c[-1], with c[-1]'s sign moved to the
    numerators so that the denominator is positive."""
    scale = lead.numerator if c[-1] > 0 else -lead.numerator
    return SparsePoly._make((name,), {(i,): v * scale for i, v in enumerate(c)},
                            abs(c[-1]) * lead.denominator)


def _pseudo_divmod(a, b):
    """``(q, r)`` with |lc(b)|^(deg a - deg b + 1) a = q b + r, deg r < deg b.

    ``a`` and ``b`` are integer lists with deg a >= deg b >= 0.  The scale
    is positive, so q and r are positive multiples of the quotient and the
    remainder over the rationals.
    """
    db = _degree(b)
    lead = b[-1]
    steps = _degree(a) - db + 1
    scale = abs(lead) ** steps
    r = [v * scale for v in a]
    q = [0] * steps
    for shift in range(steps - 1, -1, -1):
        factor, rem = divmod(r.pop(), lead)
        if rem:
            raise RuntimeError(
                "internal fault: inexact step in integer pseudo-division")
        if factor:
            q[shift] = factor
            for i in range(db):
                r[shift + i] -= factor * b[i]
    while r and not r[-1]:
        r.pop()
    return q, r


def _exact_quotient(a, b):
    """The primitive a / b with a positive leading coefficient; b must divide a."""
    q, r = _pseudo_divmod(a, b)
    if r:
        raise RuntimeError("internal fault: inexact polynomial division")
    return _positive(q)


def _remainders(a, b):
    """The primitive lists a, b, then the negated pseudo-remainder of the two
    before, up to the last nonzero one, a multiple of gcd(a, b); a != [] and
    deg a >= deg b."""
    seq = [a]
    while b:
        seq.append(b)
        if _degree(b) < 1:
            break
        b = _primitive([-v for v in _pseudo_divmod(seq[-2], b)[1]])
    return seq


def _gcd_lists(a, b):
    """The primitive gcd, leading coefficient positive, of the primitive
    lists ``a`` != [] and ``b``."""
    if _degree(a) < _degree(b):
        a, b = b, a
    return _positive(_remainders(a, b)[-1])


def _scaled_value(c, a, b_powers):
    """b^deg(c) * c(a/b) for an integer list ``c``, given b's powers."""
    d = len(c) - 1
    value = c[d]
    for i in range(d - 1, -1, -1):
        value = value * a + c[i] * b_powers[d - i]
    return value


def _sign_at(c, t: Fraction) -> int:
    """Exact sign of the nonzero integer list ``c`` at the rational ``t``."""
    value = _scaled_value(c, t.numerator, _powers(t.denominator, _degree(c)))
    return (value > 0) - (value < 0)


def _root_bound(c):
    """2^(k+1), a power of two past every root of the nonzero list ``c``.

    k is the least k >= 0 with bitlen|c_i| - bitlen|c_n| + 1 <= k (n - i)
    for every nonzero c_i, i < n.  Then |c_i / c_n| < 2^(k (n - i)), so
    2^(k+1) strictly exceeds Fujiwara's bound 2 max |c_i / c_n|^(1 / (n - i))
    on the moduli of the roots.
    """
    n = _degree(c)
    top = abs(c[-1]).bit_length() - 1
    k = max((-((top - abs(v).bit_length()) // (n - i)) for i, v in enumerate(c[:-1]) if v),
            default=0)
    return 1 << (max(k, 0) + 1)


def _flips(ups):
    """Sign changes along a list of booleans, True for a positive sign."""
    return sum(a != b for a, b in zip(ups, ups[1:]))


def squarefree_part(c):
    """The radical c / gcd(c, c') of the primitive list ``c`` != [], as a
    primitive list with a positive leading coefficient."""
    return _exact_quotient(c, _gcd_lists(c, _primitive(_derive(c))))


# -- public gcd and deflation ---------------------------------------------------

def gcd_univariate(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """Monic greatest common divisor of two one-variable polynomials."""
    if a.is_zero and b.is_zero:
        return a
    if a.is_zero:
        a, b = b, a
    name, ca = _ints(a)
    if b.is_zero:
        return _poly(name, ca)
    name_b, cb = _ints(b)
    if name_b != name:
        raise ValueError(f"variable mismatch: {name!r} vs {name_b!r}")
    return _poly(name, _gcd_lists(ca, cb))


def deflate(p: SparsePoly, r):
    """``(m, p / (x - r)^m)`` where m is the multiplicity of the rational
    point ``r`` as a root of ``p``."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    r = as_fraction(r)
    name, c = _ints(p)
    lead = p.coefficient((_degree(c),))
    linear = [-r.numerator, r.denominator]
    count = 0
    while len(c) > 1:
        q, rem = _pseudo_divmod(c, linear)
        if rem:
            break
        c = _primitive(q)
        count += 1
    return count, _poly(name, c, lead)


# -- Sturm chains -------------------------------------------------------------

class SturmChain:
    """Sturm chain: the remainder sequence of a nonzero primitive list and
    its derivative.

    Element i is a coprime integer coefficient list that is a positive
    multiple of the standard element: the input, its derivative, then the
    negated remainder of the two before it.  Positive factors keep every
    sign, so the sign variations are those of the standard chain.  The chain
    ends at the last nonzero element, a constant multiple of gcd(p, p').

    ``root_bound`` R is a power of two past every root of p.  By Sturm's
    theorem the count changes only at a root of p, and dividing the chain
    by gcd(p, p') keeps it wherever the gcd is nonzero, so for |t| >= R it
    is V(+inf), the variations of the leading coefficients, or V(-inf),
    those of lc * (-1)^deg.  Both are fixed here; ``variations_at`` then
    evaluates the chain only at |t| < R.
    """

    def __init__(self, var, c):
        self.var = var
        self._chain = _remainders(c, _primitive(_derive(c)))
        self.root_bound = _root_bound(c)
        ups = [e[-1] > 0 for e in self._chain]  # the signs at +infinity
        # at -infinity an element of odd degree, of even length, flips sign
        downs = [up != (len(e) % 2 == 0) for up, e in zip(ups, self._chain)]
        self._past_bound = (_flips(ups), _flips(downs))

    @property
    def polys(self):
        """The elements as integer polynomials, each a positive multiple of
        the matching element of the standard chain."""
        return [SparsePoly.from_univariate(self.var, c) for c in self._chain]

    def variations_at(self, t) -> int:
        """Sign changes along the chain at the rational ``t``, zeros skipped."""
        t = as_fraction(t)
        a = t.numerator
        if abs(a) >= self.root_bound * t.denominator:
            return self._past_bound[a < 0]
        b_powers = _powers(t.denominator, _degree(self._chain[0]))
        flips = 0
        last = 0
        for c in self._chain:
            value = _scaled_value(c, a, b_powers)
            if value:
                sign = 1 if value > 0 else -1
                if last and sign != last:
                    flips += 1
                last = sign
        return flips


class IsolatingInterval(NamedTuple):
    """Half-open rational interval (lo, hi] with the isolator chain's
    variation counts ``vlo`` and ``vhi`` at its ends.  It holds vlo - vhi
    distinct roots, so it isolates one when vlo = vhi + 1.  A named tuple,
    since bisection builds two per step; reports serialize it by
    ``to_json_dict``."""

    lo: Fraction
    hi: Fraction
    vlo: int
    vhi: int

    def to_json_dict(self):
        return {"lo": str(self.lo), "hi": str(self.hi)}


class RootIsolator:
    """Isolates, signs and certifies the real roots of one polynomial.

    p's chain ends at ``shared`` = gcd(p, p'); only a non-constant
    ``shared`` makes the squarefree part p / shared a chain of its own.
    That chain and the part's Cauchy bound 1 + max |c_i| / c_n serve every
    query, so multiple roots count once and endpoints never degenerate.  The
    one bisection step, ``_split``, evaluates the chain only at the midpoint.
    """

    def __init__(self, p: SparsePoly):
        if p.is_zero:
            raise ValueError("cannot isolate roots of the zero polynomial")
        name, coeffs = _ints(p)
        self.chain = SturmChain(name, _positive(coeffs))
        self.shared = _positive(self.chain._chain[-1])
        self.reduced = self.chain._chain[0]
        if _degree(self.shared) >= 1:
            self.reduced = _exact_quotient(coeffs, self.shared)
            self.chain = SturmChain(name, self.reduced)
        self.bound = 1 + Fraction(max(map(abs, self.reduced[:-1]), default=0),
                                  self.reduced[-1])

    def repeated_part(self) -> SparsePoly:
        """The monic gcd(p, p'), the last element of p's own chain."""
        return _poly(self.chain.var, self.shared)

    def isolate(self):
        """Disjoint isolating intervals, in ascending order of the roots."""
        if _degree(self.reduced) < 1:
            return []
        variations = self.chain.variations_at
        out = []
        stack = [IsolatingInterval(-self.bound, self.bound,
                                   variations(-self.bound), variations(self.bound))]
        while stack:
            iv = stack.pop()
            if iv.vlo - iv.vhi == 1:
                out.append(iv)
            elif iv.vlo - iv.vhi > 1:
                # the left half is popped first, so ``out`` comes out ascending
                stack.extend(reversed(self._split(iv)))
        return out

    def roots_between(self, lo, hi) -> int:
        """Distinct real roots in the open interval (lo, hi).

        Chain variations count the roots in (lo, hi], lo < hi; a root at hi
        is taken off by one sign test.  A hi at or past ``bound`` skips it,
        since no root reaches the bound, and then any lo is allowed: the
        count is that of the roots above lo, none when lo is past the bound.
        """
        variations = self.chain.variations_at
        if hi >= self.bound:
            return variations(lo) - variations(self.bound)
        return variations(lo) - variations(hi) - (not _sign_at(self.reduced, hi))

    def _split(self, iv):
        """The halves (lo, mid] and (mid, hi] of ``iv``, each with the
        chain's counts at its ends; the chain is evaluated at mid only."""
        mid = (iv.lo + iv.hi) / 2
        vmid = self.chain.variations_at(mid)
        return (IsolatingInterval(iv.lo, mid, iv.vlo, vmid),
                IsolatingInterval(mid, iv.hi, vmid, iv.vhi))

    def _halve(self, iv):
        """The half of ``iv``, which isolates one root, that holds it."""
        left, right = self._split(iv)
        return left if left.vlo - left.vhi == 1 else right


def sign_at_root(q: SparsePoly, iso: RootIsolator, intervals):
    """Exact signs of q at the roots of ``iso``'s polynomial p isolated by
    ``intervals``, one sign per interval.

    The intervals carry iso's variation counts, as ``iso.isolate()`` gives
    them; counts that do not differ by one raise ValueError.  gcd(p, q), its
    chain and the chain of q's squarefree part are built once for all the
    intervals.  A zero sign is certified through gcd(p, q); otherwise the
    interval is halved with iso's chain until q provably has no root
    inside, making its sign constant.
    """
    intervals = list(intervals)
    if any(iv.vlo - iv.vhi != 1 for iv in intervals):
        raise ValueError("interval does not isolate a root of this polynomial")
    if q.is_zero:
        return [0] * len(intervals)
    name = iso.chain.var
    qname, qc = _ints(q)
    if qname != name:
        raise ValueError(f"variable mismatch: {name!r} vs {qname!r}")
    if _degree(qc) < 1:
        return [1 if qc[0] > 0 else -1] * len(intervals)
    common = _gcd_lists(iso.reduced, qc)
    common_chain = SturmChain(name, common) if _degree(common) >= 1 else None
    qchain = SturmChain(name, squarefree_part(qc))
    signs = []
    for iv in intervals:
        if (common_chain is not None
                and common_chain.variations_at(iv.lo) - common_chain.variations_at(iv.hi) == 1):
            signs.append(0)
            continue
        qlo, qhi = qchain.variations_at(iv.lo), qchain.variations_at(iv.hi)
        while qlo != qhi:
            half = iso._halve(iv)
            if half.lo == iv.lo:
                qhi = qchain.variations_at(half.hi)
            else:
                qlo = qchain.variations_at(half.lo)
            iv = half
        # q has no root in (lo, hi], so q(hi) is nonzero
        signs.append(_sign_at(qc, iv.hi))
    return signs


# -- rational root certification ----------------------------------------------

def simplest_rational_between(lo, hi) -> Fraction:
    """The smallest-denominator rational in the closed interval [lo, hi].

    Past the sign cases, lo = a/b and hi = c/d are positive: the answer is
    ceil(lo) when that is at most hi, else floor(lo) + 1/y for y the simplest
    rational in [1/(hi - floor(lo)), 1/(lo - floor(lo))].  The loop runs that
    recursion on the four integers and keeps the continued fraction's last
    two convergents, p/q and p_prev/q_prev, so it makes no ``Fraction`` but
    the answer.
    """
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_between(-hi, -lo)
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    p, p_prev, q, q_prev = 1, 0, 0, 1
    while True:
        whole, rest = divmod(a, b)
        ceil = whole + (rest > 0)
        if ceil * d <= c:
            return Fraction(p * ceil + p_prev, q * ceil + q_prev)
        a, b, c, d = d, c - whole * d, b, rest
        p, p_prev, q, q_prev = p * whole + p_prev, p, q * whole + q_prev, q


def certified_rational_roots(p: SparsePoly):
    """Split the real roots of ``p`` into exact rationals and leftovers.

    Returns ``(rationals, unresolved)`` where ``rationals`` are certified
    exact roots and ``unresolved`` are isolating intervals whose root could
    not be recognized as a rational of denominator <= MAX_DENOMINATOR.  No
    root is ever dropped.  A zero ``p`` raises ValueError.

    A root's interval is halved until its simplest rational is the root,
    which it then stays in every half holding the root, or until its width
    is at most ``_FINAL_WIDTH``.
    """
    iso = RootIsolator(p)
    rationals = []
    unresolved = []
    for iv in iso.isolate():
        while True:
            cand = simplest_rational_between(iv.lo, iv.hi)
            if iv.lo < cand and not _sign_at(iso.reduced, cand):
                rationals.append(cand)
                break
            if iv.hi - iv.lo <= _FINAL_WIDTH:
                unresolved.append(iv)
                break
            iv = iso._halve(iv)
    return rationals, unresolved
