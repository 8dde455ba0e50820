"""Inflection polynomials of the Legendre curve y^2 = x(x-1)(x-lambda).

The central objects are the polynomials P(mu, k) whose roots are the
x-coordinates of inflection points of the degree-2(k+1) linear series
spanned by 1, x, ..., x^k, y, yx, ..., yx^(mu-1).  Three independent routes
are implemented:

* a first-order recurrence in k for mu = 1 (``basic_inflection``),
* a quotient-rule oracle for the numerators N_m of D^m y = y * N_m / f^m
  (``derivative_oracle``),
* a Wronskian determinant for general mu (``wronskian_direct``), together
  with its symbolic determinant template (``q_template`` and
  ``general_inflection``).

Keeping the routes separate is the point: they cross-validate each other,
so none of them is ever rewritten in terms of another.  The Wronskian is a
Bareiss determinant (``det_polymatrix``) of oracle entries; the template
route expands by minors (``expand_by_minors``), with shift variables as
entries in ``q_template`` and P(1, j) in ``general_inflection``.

Each route has one entry point, which checks the series range.  The three
that build P(mu, k) return it as a ``SparsePoly`` that ``_checked`` has
verified: variables (x, lambda), x-degree 2mu(k+1), lambda-degree mu(k+1).
The checks that read P(mu, k) at one curve parameter do so through
``inflection_fiber``, the one place that validates lambda and specializes.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .matrices import det_polymatrix, expand_by_minors
from .poly import VAR_LAMBDA, VAR_X, SparsePoly, as_fraction, divexact
from .reports import FAIL, PASS, CheckReport, PreconditionError

_XL = (VAR_X, VAR_LAMBDA)


def legendre_f() -> SparsePoly:
    """The cubic x(x-1)(x-lambda) = x^3 - (1+lambda)x^2 + lambda*x."""
    return SparsePoly(_XL, {
        (3, 0): 1,
        (2, 0): -1,
        (2, 1): -1,
        (1, 1): 1,
    })


def _checked(mu: int, k: int, poly: SparsePoly) -> SparsePoly:
    """``poly`` once its variables and degrees are those of P(mu, k)."""
    expected_x = 2 * mu * (k + 1)
    expected_l = mu * (k + 1)
    if poly.vars != _XL:
        raise ValueError(f"expected variables {_XL!r}, got {poly.vars!r}")
    if poly.degree(VAR_X) != expected_x or poly.degree(VAR_LAMBDA) != expected_l:
        raise ValueError(
            f"degree contract violated for (mu={mu}, k={k}): "
            f"deg_x={poly.degree(VAR_X)} (want {expected_x}), "
            f"deg_lambda={poly.degree(VAR_LAMBDA)} (want {expected_l})"
        )
    return poly


def basic_inflection(k: int) -> SparsePoly:
    """P(1, k) via the first-order recurrence, memoized."""
    k = int(k)
    if k < 0:
        raise PreconditionError(f"k must be nonnegative, got {k}")
    for j in range(k):  # ascending, so no step recurses more than one deep
        _recurrence_step(j)
    return _recurrence_step(k)


@functools.cache
def _recurrence_step(k: int) -> SparsePoly:
    f = legendre_f()
    if k == 0:
        return _checked(1, 0, divexact(f.derivative(VAR_X), SparsePoly.constant(_XL, 2)))
    # P(1, k) = D(P(1, k-1)) * f - (2k - 1)/2 * P(1, k-1) * D(f).  Deriving the
    # recurrence from y' = y*D(f)/(2f) forces this coefficient, -(j + 1/2) at
    # the step from j = k - 1; the variant (1/2 - j) circulates in print but
    # fails the derivative oracle already at the first step.
    prev = _recurrence_step(k - 1)
    return _checked(1, k, prev.derivative(VAR_X) * f
                    + Fraction(1 - 2 * k, 2) * prev * f.derivative(VAR_X))


def derivative_oracle(m: int) -> SparsePoly:
    """The numerator N_m of D^m y = y * N_m / f^m, memoized.

    Starting from N_1 = D(f)/2, since y' = y*D(f)/(2f), the quotient rule
    on y * N_d / f^d gives N_(d+1) = D(N_d) * f + (1/2 - d) * N_d * D(f).
    The exponent m is already the reduced one: f vanishes at x = 0 and
    D(f) is lambda there, so N_1(0, lambda) = lambda/2 and
    N_(d+1)(0, lambda) = (1/2 - d) * lambda * N_d(0, lambda), which is
    never zero.  Hence x does not divide N_m, and neither does f.  This
    route never consults the recurrence, so agreement between the two is a
    real check, not a tautology.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"derivative order must be positive, got {m}")
    for j in range(1, m):  # ascending, so no step recurses more than one deep
        _quotient_rule_step(j)
    return _quotient_rule_step(m)


@functools.cache
def _quotient_rule_step(m: int) -> SparsePoly:
    f = legendre_f()
    df = f.derivative(VAR_X)
    if m == 1:
        return divexact(df, SparsePoly.constant(_XL, 2))
    num = _quotient_rule_step(m - 1)
    return num.derivative(VAR_X) * f + (Fraction(1, 2) - (m - 1)) * num * df


def shift_var_name(offset: int) -> str:
    return f"t{offset}"


def q_template(mu: int, n: int) -> SparsePoly:
    """det((n+j) falling i * t_(j-i)) over 0 <= i, j < mu, expanded by minors.

    The result is homogeneous of degree mu in the 2*mu - 1 shift variables
    t_(1-mu), ..., t_(mu-1).
    """
    mu = int(mu)
    n = int(n)
    if mu < 1:
        raise ValueError(f"mu must be positive, got {mu}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    names = tuple(shift_var_name(off) for off in range(1 - mu, mu))
    t = {off: SparsePoly.variable(names, name) for off, name in zip(range(1 - mu, mu), names)}
    return expand_by_minors([[math.perm(n + j, i) * t[j - i] for j in range(mu)] for i in range(mu)])


@functools.cache
def general_inflection(mu: int, k: int) -> SparsePoly:
    """P(mu, k) as the q template with each t_l replaced by P(1, n + l - 1), memoized.

    For mu = 1 this delegates to the recurrence.  For mu >= 2 the series
    parameters must satisfy k > mu, which puts k in the template's proven
    range k >= 3 automatically.  With n = k + 1, the template's matrix is
    expanded by minors with entry (i, j) = (n+j) falling i * P(1, n+j-i-1),
    so the template itself is never built.
    """
    mu = int(mu)
    k = int(k)
    if mu < 1:
        raise PreconditionError(f"mu must be positive, got {mu}")
    if mu == 1:
        return basic_inflection(k)
    if k <= mu:
        raise PreconditionError(f"series parameters out of range: need k > mu, got ({mu}, {k})")
    n = k + 1
    rows = [[math.perm(n + j, i) * basic_inflection(n + j - i - 1) for j in range(mu)]
            for i in range(mu)]
    return _checked(mu, k, expand_by_minors(rows))


def inflection_fiber(mu: int, k: int, lambda0) -> SparsePoly:
    """P(mu, k) at one curve parameter lambda0, a polynomial in x.

    lambda0 is read exactly (a float raises TypeError) and must not be 0
    or 1, where the curve degenerates.
    """
    lambda0 = as_fraction(lambda0)
    if lambda0 in (0, 1):
        raise PreconditionError(f"degenerate curve parameter lambda = {lambda0}")
    fiber = general_inflection(mu, k).specialize(VAR_LAMBDA, lambda0)
    if fiber.is_zero:
        raise RuntimeError(f"inflection polynomial vanished at lambda = {lambda0}")
    return fiber


def wronskian_direct(mu: int, k: int) -> SparsePoly:
    """P(mu, k) straight from the Wronskian of 1..x^k, y..yx^(mu-1).

    Entries come from derivative_oracle, so this route is independent of
    both the recurrence and the q template.  Entry (i, j) carries
    (k+1+j) falling i times N(k+1+j-i); since D^m y = y * N_m / f^m, the f
    powers pulled from row i and column j cancel exactly.
    """
    mu = int(mu)
    k = int(k)
    if mu < 1:
        raise PreconditionError(f"mu must be positive, got {mu}")
    if k <= mu and mu > 1:
        raise PreconditionError(f"series parameters out of range: need k > mu, got ({mu}, {k})")
    if mu == 1 and k < 1:
        raise PreconditionError(f"k must be positive for the Wronskian route, got {k}")
    rows = [[math.perm(k + 1 + j, i) * derivative_oracle(k + 1 + j - i) for j in range(mu)]
            for i in range(mu)]
    return _checked(mu, k, det_polymatrix(rows))


# -- division polynomials -----------------------------------------------------

def division_polynomial(m: int) -> SparsePoly:
    """The m-th division polynomial of the Legendre curve, y-factor stripped.

    For odd m this is psi_m itself, a polynomial in x and lambda of
    x-degree (m^2 - 1)/2.  For even m, psi_m = y * g_m and the reduced g_m
    of x-degree (m^2 - 4)/2 is returned; in particular g_2 = 2, so that
    psi_2 = 2y and psi_2^2 = 4f.

    Built from the curve invariants b2 = 4*a2, b4 = 2*a4, b6 = 0,
    b8 = -a4^2 (with a2 = -(1+lambda), a4 = lambda) and the standard
    doubling recurrences, with y^2 reduced to f throughout; memoized.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"division polynomial index must be positive, got {m}")
    return _divpoly(m)


@functools.cache
def _divpoly(m: int) -> SparsePoly:
    if m <= 2:
        return SparsePoly.constant(_XL, m)
    if m <= 4:
        one = SparsePoly.constant(_XL, 1)
        lam = SparsePoly.variable(_XL, VAR_LAMBDA)
        x = SparsePoly.variable(_XL, VAR_X)
        b2 = -4 * (one + lam)
        b4 = 2 * lam
        b8 = -(lam * lam)
        if m == 3:
            return 3 * x ** 4 + b2 * x ** 3 + 3 * b4 * x ** 2 + b8
        return 2 * (
            2 * x ** 6 + b2 * x ** 5 + 5 * b4 * x ** 4
            + 10 * b8 * x ** 2 + (b2 * b8) * x + b4 * b8
        )
    f = legendre_f()
    f2 = f * f
    r = m // 2
    if m % 2:
        # psi products mixing even indices pick up y^4 = f^2
        if r % 2 == 0:
            return f2 * _divpoly(r + 2) * _divpoly(r) ** 3 \
                - _divpoly(r - 1) * _divpoly(r + 1) ** 3
        return _divpoly(r + 2) * _divpoly(r) ** 3 \
            - f2 * _divpoly(r - 1) * _divpoly(r + 1) ** 3
    return divexact(
        _divpoly(r) * (_divpoly(r + 2) * _divpoly(r - 1) ** 2
                       - _divpoly(r - 2) * _divpoly(r + 1) ** 2),
        SparsePoly.constant(_XL, 2),
    )


def torsion_check(k: int, lambda0) -> CheckReport:
    """Compare P(k-1, k) against the 2k-division polynomial at one lambda.

    Both specializations must have x-degree 2k^2 - 2 and agree after monic
    normalization; the report records the constant of proportionality.
    """
    k = int(k)
    if k < 2:
        raise PreconditionError(f"torsion comparison needs k >= 2, got {k}")
    inflect = inflection_fiber(k - 1, k, lambda0)
    lambda0 = as_fraction(lambda0)
    params = {"k": k, "lambda0": lambda0}
    expected_degree = 2 * k * k - 2

    divisor = division_polynomial(2 * k).specialize(VAR_LAMBDA, lambda0)
    name = VAR_X
    deg_i = inflect.degree(name)
    deg_d = divisor.degree(name)
    data = {"degree_inflection": deg_i, "degree_division": deg_d,
            "expected_degree": expected_degree}
    if deg_i != expected_degree or deg_d != expected_degree:
        return CheckReport("torsion_identity", params, FAIL,
                           witness={"reason": "degree mismatch", **data}, data=data)
    lc_i = inflect.coefficient((deg_i,))
    lc_d = divisor.coefficient((deg_d,))
    # cross-scaled, the two sides differ exactly where the monic forms do
    scaled_i = inflect * lc_d
    scaled_d = divisor * lc_i
    if scaled_i == scaled_d:
        data["ratio"] = lc_i / lc_d
        return CheckReport("torsion_identity", params, PASS, data=data)
    exps = (scaled_i - scaled_d).support()
    return CheckReport(
        "torsion_identity", params, FAIL,
        witness={"reason": "monic forms differ",
                 "first_mismatch_exponent": list(min(exps)),
                 "mismatch_count": len(exps)},
        data=data,
    )


def predicted_delta(k: int) -> int:
    """Conjectured total delta invariant floor(k^2/2) + k of the plane model."""
    k = int(k)
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    return k * k // 2 + k


def predicted_genus(k: int) -> int:
    """Geometric genus C(2k+1, 2) - 3*floor(k^2/2) - 3k of the plane model.

    The formula is reported verbatim; it goes negative at k = 2, which the
    callers surface rather than clamp.
    """
    k = int(k)
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    return math.comb(2 * k + 1, 2) - 3 * (k * k // 2) - 3 * k
