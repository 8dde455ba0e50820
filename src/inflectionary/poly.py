"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a fixed tuple of variable names, which gives the exponent
order, and integer numerators ``nums`` over one denominator ``den``: a map
from exponent tuples to nonzero ints, den > 0 and gcd(den, *nums) = 1, the
layout of FLINT's ``fmpq_poly``.  The form is canonical, so equality and
hashing compare it directly.  Instances are treated as immutable values:
every operation builds a fresh polynomial through ``_make``, which drops zero
numerators and cancels the content, and nothing mutates ``nums`` after
construction.  Arithmetic, comparisons and rebuilds run on the integers.  A
``Fraction`` is made only at the edges: in parsing (``parse_rational``,
``as_fraction`` and the ``SparsePoly(...)`` constructor) and for the values
a caller reads, from ``coefficient``, ``constant_value``, ``evaluate``,
``sorted_terms`` and ``terms``.  All arithmetic is exact; floats are
rejected everywhere.

Products of dense operands take a packed-integer route (Kronecker
substitution).  The numerators become one integer: each exponent tuple is a
slot of a mixed-radix index whose radices are per-variable degree bounds,
and each slot holds its numerator at a fixed byte width, so that the
integer is the polynomial evaluated at x_i = 2**(8*width*s_i) for the slot
strides s_i.  Evaluation is a ring homomorphism, so one big-integer product
is the packed product, over the product of the denominators.  Unpacking
adds a bias of half a slot to every slot, which makes each slot's digit
nonnegative, and reads the digits back; it is exact when every coefficient
of the result is below half a slot in absolute value and every exponent
lies inside the degree box, because then the encoding is injective.

``_product_sum`` is the one product kernel.  It sums signed products
sum_p (-1)^odd_p x_p y_p of integer terms: ``SparsePoly.__mul__`` is the
case of one product, and each minor of ``matrices.expand_by_minors`` a sum
of several.  The box's radices are 1 plus the largest degree sum
deg x_p + deg y_p in each variable, and the slot width holds
sum_p min(max|x_p| * ||y_p||_1, max|y_p| * ||x_p||_1), which bounds every
coefficient of the sum.  A sum is packed when its products make at least
``PACK_MIN_PAIRS`` term pairs (an O(1) test made first) and the box holds
no more slots than those pairs; then the packed products are summed on the
integers and unpacked once.  Sparse sums keep the dict loop, where packing
would spend its time on empty slots.

``substitute_polys`` evaluates on the same encoding.  With the assigned
polynomials written as A_i = N_i / d over their common denominator and top
the template's total degree, it packs each N_i once, in the result's degree
box (per variable, 1 plus the largest sum_i e_i deg N_i over the template's
exponents e), and evaluates sum_e c_e d^(top - |e|) prod_i N_i^e_i at those
integers.  That value is the packed result, so it alone is unpacked: the
values on the way may carry across slots and are never read, and only the
result's coefficients must fit, which are at most
sum_e |c_e| d^(top - |e|) prod_i ||N_i||_1^e_i, besides each N_i itself.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

VAR_X = "x"
VAR_LAMBDA = "lambda"

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# A product sum with fewer term pairs than this stays on the dict loop
# whatever its density: below it packing costs more than the dict loop.
PACK_MIN_PAIRS = 16


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction.

    Decimal or scientific notation is rejected on purpose: every quantity in
    this package is an exact rational and accepting ``0.1`` would silently
    smuggle in a binary float rounding step.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"expected an integer or p/q rational, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _exact(value):
    """``value`` kept as an int or Fraction, or a parsed str; else TypeError."""
    return value if isinstance(value, (int, Fraction)) else as_fraction(value)


def _grade_key(exponents):
    # graded lexicographic: total degree first, then the exponent tuple
    return (sum(exponents), exponents)


class SparsePoly:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("vars", "nums", "den")

    def __init__(self, variables, terms=None):
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables!r}")
        arity = len(variables)
        clean = {}
        for exponents, coeff in (terms or {}).items():
            exponents = tuple(map(int, exponents))
            if len(exponents) != arity:
                raise ValueError(
                    f"exponent tuple {exponents!r} does not match variables {variables!r}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents!r}")
            clean[exponents] = clean.get(exponents, 0) + as_fraction(coeff)
        # over the lcm of reduced denominators the numerators are coprime to it
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.vars = variables
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items() if c}
        self.den = den

    @classmethod
    def _make(cls, variables, nums, den):
        """The polynomial sum nums[e] x^e / den for a den > 0: zero
        numerators are dropped and the content gcd(den, *nums) cancelled."""
        p = cls.__new__(cls)
        p.vars = variables
        p.nums = {e: c for e, c in nums.items() if c}
        g = math.gcd(den, *p.nums.values()) if den > 1 else 1
        if g > 1:
            p.nums = {e: c // g for e, c in p.nums.items()}
        p.den = den // g
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): as_fraction(value)})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} for {variables!r}")
        return cls(variables, {tuple(int(v == name) for v in variables): 1})

    @classmethod
    def from_univariate(cls, name, coeffs):
        """Build a one-variable polynomial from ascending coefficients."""
        return cls((name,), {(i,): c for i, c in enumerate(coeffs) if c})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self):
        """A fresh map from exponent tuples to nonzero Fraction coefficients."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    @property
    def is_zero(self):
        return not self.nums

    @property
    def is_constant(self):
        return all(not any(e) for e in self.nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.nums.values()), 0), self.den)

    def degree(self, name) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        idx = self._index(name)
        return max((e[idx] for e in self.nums), default=-1)

    def total_degree(self) -> int:
        return max(map(sum, self.nums), default=-1)

    def coefficient(self, exponents) -> Fraction:
        return Fraction(self.nums.get(tuple(exponents), 0), self.den)

    def support(self):
        return set(self.nums)

    def sorted_terms(self):
        """Terms in graded lexicographic descending order."""
        return [(e, Fraction(self.nums[e], self.den))
                for e in sorted(self.nums, key=_grade_key, reverse=True)]

    def _index(self, name) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} for {self.vars!r}") from None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if other.vars != self.vars:
                raise ValueError(
                    f"variable tuple mismatch: {self.vars!r} vs {other.vars!r}"
                )
            return other
        value = _exact(other)
        return SparsePoly._make(self.vars, {(0,) * len(self.vars): value.numerator},
                                value.denominator)

    def __add__(self, other):
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        scale = den // self.den
        nums = {e: c * scale for e, c in self.nums.items()} if scale > 1 else dict(self.nums)
        scale = den // other.den
        for e, c in other.nums.items():
            nums[e] = nums.get(e, 0) + c * scale
        return SparsePoly._make(self.vars, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _scaled(self, -1)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return _scaled(self, _exact(other))
        other = self._coerce(other)
        return SparsePoly._make(self.vars, _product_sum([(self.nums, other.nums, False)]),
                                self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            if isinstance(other, (int, Fraction)):
                return self.is_constant and self.constant_value() == other
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # a constant equals its value, so it must hash like it
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.vars, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        return f"SparsePoly({self.vars!r}, {self.to_text()!r})"

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name):
        """Exact partial derivative with respect to one variable."""
        idx = self._index(name)
        nums = {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
                for e, c in self.nums.items() if e[idx]}
        return SparsePoly._make(self.vars, nums, self.den)

    def evaluate(self, values) -> Fraction:
        """Evaluate at a full rational point.  Every variable needs a value."""
        p = self
        for v in self.vars:
            if v not in values:
                raise ValueError(f"evaluate: no value given for {v!r}")
            p = p.specialize(v, values[v])
        return p.constant_value()

    def specialize(self, name, value):
        """Substitute an exact value for one variable and drop it.

        With value = a/b, each remaining exponent sums c a^s b^(top-s) over
        the numerators c of the powers s of ``name``, top the largest power,
        over the denominator den b^top.
        """
        idx = self._index(name)
        value = _exact(value)
        top = max((e[idx] for e in self.nums), default=0)
        a_powers = _powers(value.numerator, top)
        b_powers = _powers(value.denominator, top)
        sums = {}
        for e, c in self.nums.items():
            s = e[idx]
            ne = e[:idx] + e[idx + 1:]
            sums[ne] = sums.get(ne, 0) + c * a_powers[s] * b_powers[top - s]
        return SparsePoly._make(self.vars[:idx] + self.vars[idx + 1:], sums,
                                self.den * b_powers[top])

    def homogenize(self, new_var, target_degree):
        """Pad every term with a power of ``new_var`` up to ``target_degree``."""
        if new_var in self.vars:
            raise ValueError(f"variable {new_var!r} already present")
        if not self.is_zero and target_degree < self.total_degree():
            raise ValueError(
                f"target degree {target_degree} below total degree {self.total_degree()}"
            )
        nums = {e + (target_degree - sum(e),): c for e, c in self.nums.items()}
        return SparsePoly._make(self.vars + (new_var,), nums, self.den)

    def rename_var(self, old, new):
        idx = self._index(old)
        if new in self.vars and new != old:
            raise ValueError(f"variable {new!r} already present")
        new_vars = self.vars[:idx] + (new,) + self.vars[idx + 1:]
        return SparsePoly._make(new_vars, self.nums, self.den)

    # -- coefficient views --------------------------------------------------

    def coefficients_in(self, name):
        """Group terms by the power of ``name``.

        Returns a dict ``power -> SparsePoly`` over the remaining variables.
        """
        idx = self._index(name)
        rest = self.vars[:idx] + self.vars[idx + 1:]
        grouped = {}
        for e, c in self.nums.items():
            grouped.setdefault(e[idx], {})[e[:idx] + e[idx + 1:]] = c
        return {p: SparsePoly._make(rest, nums, self.den) for p, nums in grouped.items()}

    # -- display -------------------------------------------------------------

    def to_text(self) -> str:
        if not self.nums:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            factors = []
            for name, exp in zip(self.vars, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            mag = abs(c)
            body = "*".join(factors)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def _scaled(p: SparsePoly, q) -> SparsePoly:
    """``p`` times the rational (Fraction or int) ``q``, on the numerators."""
    return SparsePoly._make(p.vars, {e: c * q.numerator for e, c in p.nums.items()},
                            p.den * q.denominator)


def substitute_polys(template: SparsePoly, assignments) -> SparsePoly:
    """Evaluate ``template`` with polynomials substituted for its variables.

    Every variable of the template must be assigned; all assigned polynomials
    must share one variable tuple, which becomes the result's.  The template
    is evaluated once, at the packed assigned numerators in the result's
    degree box (the module docstring), and the value is unpacked once.
    """
    missing = [v for v in template.vars if v not in assignments]
    if missing:
        raise ValueError(f"no assignment for {missing!r}")
    polys = [assignments[v] for v in template.vars]
    for v, p in zip(template.vars, polys):
        if not isinstance(p, SparsePoly):
            raise TypeError(f"assignment for {v!r} is not a polynomial")
        if p.vars != polys[0].vars:
            raise ValueError("assigned polynomials disagree on variables")
    if not polys:
        raise ValueError("template has no variables")
    target_vars = polys[0].vars
    if not template.nums:
        return SparsePoly.zero(target_vars)
    # the N_i over the common denominator d, and c_e d^(top - |e|) (module docstring)
    ints, den = _cleared(polys)
    tops, top = _degrees(template.nums), template.total_degree()
    scaled = {e: c * den ** (top - sum(e)) for e, c in template.nums.items()}
    radices = [1 + max(sum(map(int.__mul__, e, column)) for e in scaled) for column in
               zip(*(_degrees(t) or [0] * len(target_vars) for t in ints))]
    norms = [sum(map(abs, t.values())) for t in ints]
    # every N_i is packed, so its slots must hold it even where the result's
    # bound misses it: a variable the template leaves unused, or a zero factor
    width = _slot_width(max(sum(abs(c) * math.prod(map(pow, norms, e)) for e, c in scaled.items()),
                            *norms))
    # one Horner pass over the last variable, with powers of the others
    *inner, point = (_pack(t, radices, width) for t in ints)
    tables = list(map(_powers, inner, tops))
    sums = [0] * (tops[-1] + 1)
    for e, c in scaled.items():
        for table, i in zip(tables, e):
            c *= table[i]
        sums[e[-1]] += c
    value = 0
    for c in reversed(sums):
        value = value * point + c
    return SparsePoly._make(target_vars, _unpack(value, radices, width),
                            template.den * den ** top)


def divexact(p: SparsePoly, d: SparsePoly) -> SparsePoly:
    """``p`` divided by the nonzero constant polynomial ``d``; a non-constant
    divisor raises ValueError."""
    if d.vars != p.vars:
        raise ValueError(f"variable tuple mismatch: {p.vars!r} vs {d.vars!r}")
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if not d.is_constant:
        raise ValueError("divexact divides by constants only")
    return _scaled(p, 1 / d.constant_value())


# -- packed integers ----------------------------------------------------------

def _degrees(terms):
    """Per-variable degrees of nonzero terms keyed by exponent tuples."""
    return [max(column) for column in zip(*terms)]


def _powers(base, n):
    """[1, base, ..., base^n]."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def _cleared(polys):
    """Numerators of each ``den * p`` and the polys' least common denominator ``den``."""
    den = math.lcm(*(p.den for p in polys))
    return [{e: c * (den // p.den) for e, c in p.nums.items()} for p in polys], den


def _repeat(digit: int, width: int, n: int) -> int:
    """The packed constant with ``digit`` in each of n slots of ``width`` bytes."""
    return int.from_bytes(digit.to_bytes(width, "little") * n, "little")


def _slot_width(bound: int) -> int:
    """Bytes per slot for coefficients of absolute value at most ``bound``.

    One bit is left over for the sign, so every such coefficient lies
    strictly inside half a slot.
    """
    return bound.bit_length() // 8 + 1


def _pack(ints, radices, width: int) -> int:
    """Evaluate integer terms at x_i = 2**(8 * width * s_i), where s_i is
    the product of the radices before the i-th."""
    if not ints:
        return 0
    strides = [math.prod(radices[:i]) for i in range(len(radices))]
    slots = {sum(map(int.__mul__, e, strides)): c for e, c in ints.items()}
    size = (max(slots) + 1) * width
    positive = bytearray(size)
    negative = bytearray(size)
    for slot, c in slots.items():
        at = slot * width
        if c > 0:
            positive[at:at + width] = c.to_bytes(width, "little")
        else:
            negative[at:at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _unpack(value: int, radices, width: int):
    """Integer terms of a packed value, read back inside the degree box.

    Exact when every coefficient is below half a slot in absolute value;
    a value outside the box's range raises OverflowError.
    """
    slots = math.prod(radices)
    half = 1 << (8 * width - 1)
    digits = (value + _repeat(half, width, slots)).to_bytes(slots * width, "little")
    # the first exponent varies fastest across the slots, and the last
    # iterable of a product does: decode reversed tuples, in slot order
    reversed_exponents = itertools.product(*map(range, reversed(radices)))
    terms = {}
    for start, exponents in zip(range(0, slots * width, width), reversed_exponents):
        c = int.from_bytes(digits[start:start + width], "little") - half
        if c:
            terms[exponents[::-1]] = c
    return terms


def _product_sum(products):
    """Integer terms of the sum of (-1)^odd x y over the integer terms of
    each (x, y, odd), packed by the rule of the module docstring or summed by
    the dict loop, which may leave zero terms for ``SparsePoly._make``."""
    pairs = sum(len(x) * len(y) for x, y, _ in products)
    if pairs >= PACK_MIN_PAIRS:
        # an empty operand adds no pairs, no degrees and nothing to the sum
        products = [p for p in products if p[0] and p[1]]
        radices = [1 + max(column) for column in
                   zip(*(map(int.__add__, _degrees(x), _degrees(y)) for x, y, _ in products))]
        if math.prod(radices) <= pairs:
            bound = 0
            for x, y, _ in products:
                x_abs, y_abs = [*map(abs, x.values())], [*map(abs, y.values())]
                bound += min(max(x_abs) * sum(y_abs), max(y_abs) * sum(x_abs))
            width = _slot_width(bound)
            value = 0
            for x, y, odd in products:
                product = _pack(x, radices, width) * _pack(y, radices, width)
                value = value - product if odd else value + product
            return _unpack(value, radices, width) if value else {}
    terms = {}
    for x, y, odd in products:
        for e1, c1 in x.items():
            c1 = -c1 if odd else c1
            for e2, c2 in y.items():
                e = tuple(map(int.__add__, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
    return terms


# -- canonical JSON interchange ---------------------------------------------

def poly_to_json(p: SparsePoly) -> str:
    """Canonical byte-stable JSON for a polynomial.

    Terms are emitted in graded lexicographic descending order with reduced
    fractions, so equal polynomials serialize to identical bytes.
    """
    terms = [{"e": list(e), "n": str(c.numerator), "d": str(c.denominator)}
             for e, c in p.sorted_terms()]
    return json.dumps({"vars": list(p.vars), "terms": terms}, separators=(",", ":"))
