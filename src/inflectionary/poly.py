"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from exponent tuples to nonzero ``Fraction``
coefficients, together with a fixed tuple of variable names that gives the
exponent order.  Instances are treated as immutable values: every operation
returns a fresh polynomial and nothing here mutates ``terms`` after
construction.  All arithmetic is exact; floats are rejected everywhere.

Products of dense operands take a packed-integer route (Kronecker
substitution).  A polynomial with integer coefficients becomes one integer:
each exponent tuple is a slot of a mixed-radix index whose radices are
per-variable degree bounds, and each slot holds its coefficient at a fixed
byte width, so that the integer is the polynomial evaluated at
x_i = 2**(8*width*s_i) for the slot strides s_i.  Evaluation is a ring
homomorphism, so one big-integer product is the packed product.  Unpacking
adds a bias of half a slot to every slot, which makes each slot's digit
nonnegative, and reads the digits back; it is exact when every coefficient
of the result is below half a slot in absolute value and every exponent
lies inside the degree box, because then the encoding is injective.  The
product's width comes from max|a| * ||b||_1.

A product is packed when the product of the two term counts reaches
``PACK_MIN_PAIRS`` (an O(1) test made first) and the dense slot box holds
no more slots than the dict loop makes term pairs; sparse factors keep the
dict loop, where packing would spend its time on empty slots.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

VAR_X = "x"
VAR_LAMBDA = "lambda"

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# A product with fewer term pairs than this stays on the dict loop whatever
# its density: below it packing costs more than the Fraction loop it
# replaces.
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


def _grade_key(exponents):
    # graded lexicographic: total degree first, then the exponent tuple
    return (sum(exponents), exponents)


class SparsePoly:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables!r}")
        arity = len(variables)
        clean = {}
        for exponents, coeff in (terms or {}).items():
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != arity:
                raise ValueError(
                    f"exponent tuple {exponents!r} does not match variables {variables!r}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents!r}")
            coeff = as_fraction(coeff)
            if coeff:
                clean[exponents] = clean.get(exponents, Fraction(0)) + coeff
                if not clean[exponents]:
                    del clean[exponents]
        self.vars = variables
        self.terms = clean

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
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    @classmethod
    def from_univariate(cls, name, coeffs):
        """Build a one-variable polynomial from ascending coefficients."""
        return cls((name,), {(i,): c for i, c in enumerate(coeffs) if c})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def degree(self, name) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        idx = self._index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def support(self):
        return set(self.terms)

    def sorted_terms(self):
        """Terms in graded lexicographic descending order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_grade_key, reverse=True)]

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
        return SparsePoly.constant(self.vars, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return self._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        pairs = len(self.terms) * len(other.terms)
        if pairs >= PACK_MIN_PAIRS:
            radices = [a + b + 1 for a, b in zip(_degrees(self.terms), _degrees(other.terms))]
            if math.prod(radices) <= pairs:
                return self._raw(self.vars, _packed_product(self, other, radices))
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return self._raw(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
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

    @classmethod
    def _raw(cls, variables, terms):
        # internal fast path: terms already normalized (no zeros, tuples ok)
        p = cls.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            if isinstance(other, (int, Fraction)):
                return self.is_constant and self.constant_value() == other
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it must hash like it
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"SparsePoly({self.vars!r}, {self.to_text()!r})"

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name):
        """Exact partial derivative with respect to one variable."""
        idx = self._index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[idx]:
                ne = e[:idx] + (e[idx] - 1,) + e[idx + 1:]
                terms[ne] = terms.get(ne, Fraction(0)) + c * e[idx]
        return SparsePoly(self.vars, terms)

    def evaluate(self, values) -> Fraction:
        """Evaluate at a full rational point.  Every variable needs a value."""
        point = []
        for v in self.vars:
            if v not in values:
                raise ValueError(f"evaluate: no value given for {v!r}")
            point.append(as_fraction(values[v]))
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for exp, val in zip(e, point):
                if exp:
                    term *= val ** exp
            total += term
        return total

    def specialize(self, name, value):
        """Substitute an exact value for one variable and drop it.

        With the terms cleared to integers c over one denominator den and
        value = a/b, each remaining exponent sums c a^s b^(top-s) over the
        powers s of ``name`` as integers, top the largest power, and takes
        one Fraction of that sum over den b^top.
        """
        idx = self._index(name)
        value = as_fraction(value)
        new_vars = self.vars[:idx] + self.vars[idx + 1:]
        (ints,), den = _cleared([self])
        top = max((e[idx] for e in ints), default=0)
        a_powers = _powers(value.numerator, top)
        b_powers = _powers(value.denominator, top)
        sums = {}
        for e, c in ints.items():
            s = e[idx]
            ne = e[:idx] + e[idx + 1:]
            sums[ne] = sums.get(ne, 0) + c * a_powers[s] * b_powers[top - s]
        scale = den * b_powers[top]
        return SparsePoly._raw(new_vars, {ne: Fraction(v, scale) for ne, v in sums.items() if v})

    def homogenize(self, new_var, target_degree):
        """Pad every term with a power of ``new_var`` up to ``target_degree``."""
        if new_var in self.vars:
            raise ValueError(f"variable {new_var!r} already present")
        target_degree = int(target_degree)
        if not self.is_zero and target_degree < self.total_degree():
            raise ValueError(
                f"target degree {target_degree} below total degree {self.total_degree()}"
            )
        new_vars = self.vars + (new_var,)
        terms = {e + (target_degree - sum(e),): c for e, c in self.terms.items()}
        return SparsePoly._raw(new_vars, terms)

    def rename_var(self, old, new):
        idx = self._index(old)
        if new in self.vars and new != old:
            raise ValueError(f"variable {new!r} already present")
        new_vars = self.vars[:idx] + (new,) + self.vars[idx + 1:]
        return SparsePoly._raw(new_vars, dict(self.terms))

    # -- univariate views ---------------------------------------------------

    def univariate_coeffs(self):
        """Return ``(name, [c0, c1, ...])`` for a one-variable polynomial."""
        if len(self.vars) != 1:
            raise ValueError(f"not univariate: variables {self.vars!r}")
        n = self.degree(self.vars[0])
        coeffs = [Fraction(0)] * (n + 1) if n >= 0 else []
        for e, c in self.terms.items():
            coeffs[e[0]] = c
        return self.vars[0], coeffs

    def coefficients_in(self, name):
        """Group terms by the power of ``name``.

        Returns a dict ``power -> SparsePoly`` over the remaining variables.
        """
        idx = self._index(name)
        rest = self.vars[:idx] + self.vars[idx + 1:]
        grouped = {}
        for e, c in self.terms.items():
            ne = e[:idx] + e[idx + 1:]
            grouped.setdefault(e[idx], {})[ne] = c
        return {p: SparsePoly._raw(rest, t) for p, t in grouped.items()}

    # -- display -------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
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


def substitute_polys(template: SparsePoly, assignments) -> SparsePoly:
    """Evaluate ``template`` with polynomials substituted for its variables.

    Every variable of the template must be assigned; all assigned polynomials
    must share one variable tuple, which becomes the result's.  Each power of
    an assigned polynomial is computed once per call, and every template term
    adds its power product, scaled by its coefficient, into one sum.
    """
    missing = [v for v in template.vars if v not in assignments]
    if missing:
        raise ValueError(f"no assignment for {missing!r}")
    target_vars = None
    for v in template.vars:
        p = assignments[v]
        if not isinstance(p, SparsePoly):
            raise TypeError(f"assignment for {v!r} is not a polynomial")
        if target_vars is None:
            target_vars = p.vars
        elif p.vars != target_vars:
            raise ValueError("assigned polynomials disagree on variables")
    if target_vars is None:
        raise ValueError("template has no variables")
    powers = {}
    total = {}
    unit = {(0,) * len(target_vars): Fraction(1)}
    for e, c in template.sorted_terms():
        product = None
        for name, exp in zip(template.vars, e):
            if exp:
                power = powers.get((name, exp))
                if power is None:
                    power = powers[name, exp] = assignments[name] ** exp
                product = power if product is None else product * power
        for pe, pc in (unit if product is None else product.terms).items():
            old = total.get(pe)
            total[pe] = c * pc if old is None else old + c * pc
    return SparsePoly._raw(target_vars, {e: c for e, c in total.items() if c})


def divexact(p: SparsePoly, d: SparsePoly) -> SparsePoly:
    """``p`` divided by the nonzero constant polynomial ``d``; a non-constant
    divisor raises ValueError."""
    if d.vars != p.vars:
        raise ValueError(f"variable tuple mismatch: {p.vars!r} vs {d.vars!r}")
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if not d.is_constant:
        raise ValueError("divexact divides by constants only")
    inv = 1 / d.constant_value()
    return SparsePoly._raw(p.vars, {e: c * inv for e, c in p.terms.items()})


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
    """Integer terms of each ``den * p`` and the polys' least common denominator ``den``."""
    den = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return [{e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
            for p in polys], den


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
    terms = {}
    for slot in range(slots):
        c = int.from_bytes(digits[slot * width:(slot + 1) * width], "little") - half
        if c:
            exponents = []
            rest = slot
            for r in radices:
                rest, e = divmod(rest, r)
                exponents.append(e)
            terms[tuple(exponents)] = c
    return terms


def _packed_product(a: SparsePoly, b: SparsePoly, radices):
    """Terms of ``a * b`` from one big-integer product.

    Every product coefficient is at most max|A| * ||B||_1 for the cleared
    integer operands A and B, and ``radices`` bound its exponents.
    """
    (a_ints,), a_den = _cleared([a])
    (b_ints,), b_den = _cleared([b])
    a_abs = [abs(c) for c in a_ints.values()]
    b_abs = [abs(c) for c in b_ints.values()]
    width = _slot_width(min(max(a_abs) * sum(b_abs), max(b_abs) * sum(a_abs)))
    value = _pack(a_ints, radices, width) * _pack(b_ints, radices, width)
    den = a_den * b_den
    return {e: Fraction(c, den) for e, c in _unpack(value, radices, width).items()}


# -- canonical JSON interchange ---------------------------------------------

def poly_to_json_dict(p: SparsePoly) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [
            {"e": list(e), "n": str(c.numerator), "d": str(c.denominator)}
            for e, c in p.sorted_terms()
        ],
    }


def poly_to_json(p: SparsePoly) -> str:
    """Canonical byte-stable JSON for a polynomial.

    Terms are emitted in graded lexicographic descending order with reduced
    fractions, so equal polynomials serialize to identical bytes.
    """
    return json.dumps(poly_to_json_dict(p), separators=(",", ":"), sort_keys=False)
