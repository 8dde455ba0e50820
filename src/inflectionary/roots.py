"""Univariate machinery: gcd, Sturm chains, root isolation, exact signs.

Inputs are one-variable :class:`~inflectionary.poly.SparsePoly` values with
Fraction coefficients, and every result is exact.  Internally polynomials
travel as ascending coefficient lists.  The gcd and the Sturm chains run on
primitive integer lists: denominators and content are cleared by positive
factors and pseudo-remainders are scaled by a positive power of the divisor's
leading coefficient, so every sign is kept and coefficients do not swell.
An integer list is evaluated at a rational a/b (b > 0) by homogeneous
Horner, sum c_i a^i b^(d-i), which has the sign of its value at a/b.

A :class:`RootIsolator` is built once per polynomial, e.g. one fiber of
P(mu, k) at a fixed lambda, and owns that fiber's univariate work: the
squarefree part, its chain and root bound serve isolation, rational
certification and ``sign_at_root``, which signs q at all the fiber's roots
in one call; ``repeated_part`` recovers gcd(p, p') from the squarefree part
without a second gcd.  ``deflate`` splits a rational root off with its
multiplicity.  Exact polynomial division is ``poly.divexact``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import SparsePoly, as_fraction, divexact


# -- coefficient-list helpers -------------------------------------------------

def _strip(c):
    while c and not c[-1]:
        c.pop()
    return c


def _degree(c):
    return len(c) - 1


def _derive(c):
    return [c[i] * i for i in range(1, len(c))]


def _primitive(c):
    """The coprime integer list that is a positive multiple of ``c``.

    ``c`` holds Fractions or ints.  Denominators and content are cleared by
    positive factors, so the sign of every coefficient is kept.
    """
    denom = math.lcm(*(v.denominator for v in c))
    ints = [v.numerator * (denom // v.denominator) for v in c]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _pseudo_rem_int(a, b):
    """|lc(b)|^(deg a - deg b + 1) * (a mod b) for integer lists, deg a >= deg b.

    The scale factor is positive, so the result is a positive multiple of
    the remainder.
    """
    db = _degree(b)
    lead = b[-1]
    scale = abs(lead) ** (_degree(a) - db + 1)
    a = [v * scale for v in a]
    while a and _degree(a) >= db:
        shift = _degree(a) - db
        factor, rem = divmod(a[-1], lead)
        if rem:
            raise RuntimeError(
                "internal fault: inexact step in integer pseudo-division")
        for i in range(db + 1):
            a[shift + i] -= factor * b[i]
        a.pop()
        _strip(a)
    return a


def _powers(base, n):
    out = [1]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


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


def _gcd_lists(a, b):
    """Monic gcd via the primitive pseudo-remainder sequence over the integers."""
    a = _strip(list(a))
    b = _strip(list(b))
    if not a and not b:
        return []
    if not a:
        a, b = b, a
    if not b:
        lead = a[-1]
        return [v / lead for v in a]
    a = _primitive(a)
    b = _primitive(b)
    if _degree(a) < _degree(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem_int(a, b))
    lead = Fraction(a[-1])
    return [Fraction(v) / lead for v in a]


# -- public gcd and squarefree helpers ---------------------------------------

def gcd_univariate(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """Monic greatest common divisor of two one-variable polynomials."""
    if a.is_zero and b.is_zero:
        return a
    if a.is_zero:
        a, b = b, a
    name, ca = a.univariate_coeffs()
    if b.is_zero:
        return _monic(name, ca)
    name_b, cb = b.univariate_coeffs()
    if name_b != name:
        raise ValueError(f"variable mismatch: {name!r} vs {name_b!r}")
    return SparsePoly.from_univariate(name, _gcd_lists(ca, cb))


def squarefree_part(p: SparsePoly) -> SparsePoly:
    """The monic radical ``p / gcd(p, p')``."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    name, c = p.univariate_coeffs()
    g = _gcd_lists(c, _derive(c))
    if _degree(g) < 1:
        return _monic(name, c)
    return _monic(*divexact(p, SparsePoly.from_univariate(name, g)).univariate_coeffs())


def _monic(name, c) -> SparsePoly:
    lead = c[-1]
    return SparsePoly.from_univariate(name, [v / lead for v in c])


def cauchy_root_bound(p: SparsePoly) -> Fraction:
    """A rational B with every real root of p strictly inside (-B, B)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root bound")
    _, c = p.univariate_coeffs()
    lead = abs(c[-1])
    top = max((abs(v) for v in c[:-1]), default=Fraction(0))
    return 1 + top / lead


def deflate(p: SparsePoly, r):
    """``(m, p / (x - r)^m)`` where m is the multiplicity of the rational
    point ``r`` as a root of ``p``."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    r = as_fraction(r)
    name, c = p.univariate_coeffs()
    count = 0
    while len(c) > 1:
        # one synthetic division by (x - r); the final accumulator is p(r)
        acc = Fraction(0)
        steps = []
        for coeff in reversed(c):
            acc = acc * r + coeff
            steps.append(acc)
        if steps[-1]:
            break
        c = list(reversed(steps[:-1]))
        count += 1
    return count, SparsePoly.from_univariate(name, c)


# -- Sturm chains -------------------------------------------------------------

class SturmChain:
    """Sturm remainder chain of a nonzero polynomial, kept over the integers.

    Element i is a coprime integer coefficient list that is a positive
    multiple of the standard element: the input, its derivative, then the
    negated remainder of the two before it.  Positive factors keep every
    sign, so the sign variations are those of the standard chain.  The chain
    ends at the last nonzero element, a constant multiple of gcd(p, p').
    """

    def __init__(self, p: SparsePoly):
        if p.is_zero:
            raise ValueError("Sturm chain of the zero polynomial")
        self.var, coeffs = p.univariate_coeffs()
        chain = [_primitive(coeffs)]
        derivative = _primitive(_derive(chain[0]))
        if derivative:
            chain.append(derivative)
            while _degree(chain[-1]) > 0:
                nxt = _primitive([-v for v in _pseudo_rem_int(chain[-2], chain[-1])])
                if not nxt:
                    break
                chain.append(nxt)
        self._chain = chain

    @property
    def polys(self):
        """The elements as integer polynomials, each a positive multiple of
        the matching element of the standard chain."""
        return [SparsePoly.from_univariate(self.var, c) for c in self._chain]

    def variations_at(self, t) -> int:
        """Sign changes along the chain at the rational ``t``, zeros skipped."""
        t = as_fraction(t)
        a = t.numerator
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

    def count(self, lo, hi) -> int:
        """Distinct roots in the half-open interval (lo, hi]."""
        return self.variations_at(lo) - self.variations_at(hi)


@dataclass(frozen=True)
class IsolatingInterval:
    """Half-open rational interval (lo, hi] isolating one real root."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json_dict(self):
        return {"lo": str(self.lo), "hi": str(self.hi)}


class RootIsolator:
    """Isolates, signs and certifies the real roots of one polynomial.

    The squarefree part, its Sturm chain and its root bound are built once
    and reused by every query, ``repeated_part``, ``sign_at_root`` and
    ``certified_rational_roots`` included; multiple roots of the input are
    counted once and endpoint degeneracies cannot occur.  Each bisection
    carries the variation counts of the endpoints it already knows, so a
    step evaluates the chain only at the new midpoint.
    """

    def __init__(self, p: SparsePoly):
        if p.is_zero:
            raise ValueError("cannot isolate roots of the zero polynomial")
        self.poly = p
        self.reduced = squarefree_part(p)
        self.chain = SturmChain(self.reduced)
        self.bound = cauchy_root_bound(self.reduced)

    def repeated_part(self) -> SparsePoly:
        """The monic gcd(p, p'), recovered as p divided by its squarefree part."""
        return _monic(*divexact(self.poly, self.reduced).univariate_coeffs())

    def count(self, lo=None, hi=None) -> int:
        """Distinct real roots in (lo, hi]; None means the matching infinity."""
        if lo is not None and hi is not None and as_fraction(lo) >= as_fraction(hi):
            raise ValueError("empty interval: lo >= hi")
        b = self.bound
        if lo is not None:
            b = max(b, abs(as_fraction(lo)) + 1)
        if hi is not None:
            b = max(b, abs(as_fraction(hi)) + 1)
        lo = -b if lo is None else as_fraction(lo)
        hi = b if hi is None else as_fraction(hi)
        return self.chain.count(lo, hi)

    def isolate(self):
        """Disjoint isolating intervals, in ascending order of the roots."""
        if self.reduced.degree(self.chain.var) < 1:
            return []
        variations = self.chain.variations_at
        out = []
        stack = [(-self.bound, variations(-self.bound), self.bound, variations(self.bound))]
        while stack:
            lo, vlo, hi, vhi = stack.pop()
            n = vlo - vhi
            if n == 0:
                continue
            if n == 1:
                out.append(IsolatingInterval(lo, hi))
                continue
            mid = (lo + hi) / 2
            vmid = variations(mid)
            stack.append((mid, vmid, hi, vhi))
            stack.append((lo, vlo, mid, vmid))
        out.sort(key=lambda iv: iv.lo)
        return out

    def _isolating_variations(self, iv: IsolatingInterval):
        """Variation counts at the endpoints of ``iv``, which must hold one root."""
        vlo = self.chain.variations_at(iv.lo)
        vhi = self.chain.variations_at(iv.hi)
        if vlo - vhi != 1:
            raise ValueError("interval does not isolate a root of this polynomial")
        return vlo, vhi

    def _shrink(self, lo, vlo, hi, vhi, width):
        """Bisect (lo, hi], which holds one root, until hi - lo <= width."""
        while hi - lo > width:
            mid = (lo + hi) / 2
            vmid = self.chain.variations_at(mid)
            if vlo - vmid == 1:
                hi, vhi = mid, vmid
            else:
                lo, vlo = mid, vmid
        return lo, vlo, hi, vhi


def sturm_count(p: SparsePoly, lo=None, hi=None) -> int:
    """Number of distinct real roots of ``p`` in (lo, hi]; None means infinite.

    Infinite endpoints are realized with a Cauchy bound 1 + max|c_i / c_lead|,
    outside which the polynomial provably has no roots.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    name, c = p.univariate_coeffs()
    if _degree(c) < 1:
        if lo is not None and hi is not None and as_fraction(lo) >= as_fraction(hi):
            raise ValueError("empty interval: lo >= hi")
        return 0
    return RootIsolator(p).count(lo, hi)


def sign_at_root(q: SparsePoly, iso: RootIsolator, intervals):
    """Exact signs of q at the roots of ``iso``'s polynomial p isolated by
    ``intervals``, one sign per interval.

    gcd(p, q), its chain and the chain of q's squarefree part are built once
    for all the intervals.  A zero sign is certified through gcd(p, q);
    otherwise the interval is refined with iso's chain until q provably has
    no root inside, making its sign constant.
    """
    intervals = list(intervals)
    counts = [iso._isolating_variations(iv)[0] for iv in intervals]
    if q.is_zero:
        return [0] * len(intervals)
    name = iso.chain.var
    qname, qc = q.univariate_coeffs()
    if qname != name:
        raise ValueError(f"variable mismatch: {name!r} vs {qname!r}")
    q_ints = _primitive(qc)
    if _degree(qc) < 1:
        return [1 if q_ints[0] > 0 else -1] * len(intervals)
    shared = gcd_univariate(iso.reduced, q)
    shared_chain = SturmChain(shared) if shared.degree(name) >= 1 else None
    qchain = SturmChain(squarefree_part(q))
    signs = []
    for iv, vlo in zip(intervals, counts):
        lo, hi = iv.lo, iv.hi
        if shared_chain is not None and shared_chain.count(lo, hi) == 1:
            signs.append(0)
            continue
        qlo, qhi = qchain.variations_at(lo), qchain.variations_at(hi)
        while qlo != qhi:
            mid = (lo + hi) / 2
            vmid = iso.chain.variations_at(mid)
            qmid = qchain.variations_at(mid)
            if vlo - vmid == 1:
                hi, qhi = mid, qmid
            else:
                lo, vlo, qlo = mid, vmid, qmid
        # q has no root in (lo, hi], so q(hi) is nonzero
        signs.append(_sign_at(q_ints, hi))
    return signs


# -- rational root certification ----------------------------------------------

def simplest_rational_between(lo, hi) -> Fraction:
    """The smallest-denominator rational in the closed interval [lo, hi]."""
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_between(-hi, -lo)
    floor = lo.numerator // lo.denominator
    ceil = -((-lo.numerator) // lo.denominator)
    if ceil <= hi:
        return Fraction(ceil)
    inner = simplest_rational_between(1 / (hi - floor), 1 / (lo - floor))
    return floor + 1 / inner


def certified_rational_roots(p: SparsePoly, max_denominator=2 ** 24):
    """Split the real roots of ``p`` into exact rationals and leftovers.

    Returns ``(rationals, unresolved)`` where ``rationals`` are certified
    exact roots and ``unresolved`` are isolating intervals whose root could
    not be recognized as a rational of denominator <= max_denominator.  No
    root is ever dropped.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    iso = RootIsolator(p)
    reduced = _primitive(iso.reduced.univariate_coeffs()[1])
    rationals = []
    unresolved = []
    for iv in iso.isolate():
        found = None
        lo, hi = iv.lo, iv.hi
        vlo, vhi = iso._isolating_variations(iv)
        width = Fraction(1, max_denominator ** 2)
        for _ in range(4):
            lo, vlo, hi, vhi = iso._shrink(lo, vlo, hi, vhi, width)
            cand = simplest_rational_between(lo, hi)
            if lo < cand <= hi and not _sign_at(reduced, cand):
                found = cand
                break
            width /= 2 ** 8
        if found is not None:
            rationals.append(found)
        else:
            unresolved.append(IsolatingInterval(lo, hi))
    return rationals, unresolved
