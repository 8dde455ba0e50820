"""Desk-scale mechanical verification of the conjectured structure.

Each check returns a :class:`~inflectionary.reports.CheckReport` whose JSON
serialization is deterministic, and a FAIL always carries a witness that
reproduces the failure.  Nothing here rounds: every comparison is exact.
The checks at one curve parameter read P(mu, k) there through
``inflection_fiber``, which validates lambda.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .inflection import (
    basic_inflection,
    general_inflection,
    inflection_fiber,
    wronskian_direct,
)
from .newton import face_restriction, lattice_points_in_hull, newton_data
from .poly import (
    VAR_LAMBDA,
    VAR_X,
    SparsePoly,
    as_fraction,
    poly_to_json,
    substitute_polys,
)
from .reports import FAIL, OUT_OF_RANGE, PASS, UNRESOLVED, CheckReport, PreconditionError
from .roots import (
    MAX_DENOMINATOR,
    RootIsolator,
    certified_rational_roots,
    deflate,
    gcd_univariate,
)
from .matrices import resultant

VAR_Z = "z"

# Sampling grid with at least two values in each real regime of the curve
# parameter: lambda < 0, 0 < lambda < 1 and lambda > 1.
DEFAULT_LAMBDA_GRID = (
    Fraction(-3), Fraction(-1), Fraction(-1, 2),
    Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
    Fraction(2), Fraction(5),
)


# -- symmetry -----------------------------------------------------------------

def _symmetry_report(params: dict, lhs: SparsePoly, rhs: SparsePoly) -> CheckReport:
    """PASS when the two sides agree, else FAIL at the first differing exponent."""
    if lhs == rhs:
        return CheckReport("symmetry", params, PASS)
    diff = lhs - rhs
    exponent = min(diff.support())
    return CheckReport(
        "symmetry", params, FAIL,
        witness={"exponent": list(exponent),
                 "difference_coefficient": diff.coefficient(exponent)},
    )


def _basic_poly(k: int) -> SparsePoly:
    """P(1, k) for the checks on P(1, k), which start at k = 1."""
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    return basic_inflection(k)


def check_homogenization_symmetry(k: int) -> CheckReport:
    """Homogenizing to degree 2(k+1) and returning along lambda = 1 must
    reproduce the polynomial with lambda renamed to the new variable."""
    p = _basic_poly(k)
    hom = p.homogenize(VAR_Z, 2 * (k + 1))
    lhs = hom.specialize(VAR_LAMBDA, 1)
    rhs = p.rename_var(VAR_LAMBDA, VAR_Z)
    return _symmetry_report({"k": k, "identity": "homogenization-swap"}, lhs, rhs)


def check_shift_symmetry(k: int) -> CheckReport:
    """P(1 - x, 1 - lambda) must equal P(x, lambda): the involution
    (x, lambda) -> (1 - x, 1 - lambda) of the Legendre family sends f to -f."""
    p = _basic_poly(k)
    x = SparsePoly.variable(p.vars, VAR_X)
    lam = SparsePoly.variable(p.vars, VAR_LAMBDA)
    flipped = substitute_polys(p, {VAR_X: 1 - x, VAR_LAMBDA: 1 - lam})
    return _symmetry_report({"k": k, "identity": "unit-shift"}, flipped, p)


# -- support and coefficient symmetry ----------------------------------------

def predicted_support(k: int):
    """Lattice points of the two conjectured hull pieces of Supp P(1, k)."""
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    upper = [(0, k + 1), (k - 1, k + 1), (k - 1, 2), (2 * k - 2, 2)]
    lower = [(2 * k, 1), (2 * k + 1, 1), (2 * k + 1, 0), (2 * k + 2, 0)]
    return lattice_points_in_hull(upper) | lattice_points_in_hull(lower)


def sigma_reflection(k: int, exponent):
    """The involution (i, j) -> (i, 2k+2-i-j) on exponent pairs."""
    i, j = exponent
    return (i, 2 * k + 2 - i - j)


def check_support(k: int) -> CheckReport:
    p = _basic_poly(k)
    params = {"k": k, "claim": "support"}
    actual = p.support()
    expected = predicted_support(k)
    if actual == expected:
        return CheckReport("support", params, PASS,
                           data={"size": len(actual)})
    missing = sorted(expected - actual)
    extra = sorted(actual - expected)
    return CheckReport(
        "support", params, FAIL,
        witness={"missing": [list(e) for e in missing],
                 "unexpected": [list(e) for e in extra]},
        data={"size": len(actual)},
    )


def check_coeff_symmetry(k: int) -> CheckReport:
    """Coefficients must be invariant under the sigma involution."""
    p = _basic_poly(k)
    params = {"k": k, "claim": "coefficient-symmetry"}
    for exponent in sorted(p.support()):
        mirror = sigma_reflection(k, exponent)
        # both coefficients share p's denominator
        if p.nums[exponent] != p.nums.get(mirror):
            return CheckReport(
                "support", params, FAIL,
                witness={"exponent": list(exponent), "mirror": list(mirror),
                         "coefficient": p.coefficient(exponent),
                         "mirror_coefficient": p.coefficient(mirror)},
            )
    return CheckReport("support", params, PASS)


# -- face structure -----------------------------------------------------------

def gamma_faces(k: int):
    """The two conjectured origin-facing faces of the Newton polygon."""
    if k < 2:
        raise PreconditionError(f"face structure needs k >= 2, got {k}")
    gamma1 = ((0, k + 1), (k - 1, 2))
    gamma2 = ((k - 1, 2), (2 * k + 1, 0))
    return gamma1, gamma2


def check_face_structure(k: int) -> CheckReport:
    """Verify the two-face description of the singularity at the origin.

    The restriction to the steeper face must be lambda^2 times a squarefree
    binary form of degree k - 1, and the shallower face must carry exactly
    the two monomials x^(k-1) lambda^2 and x^(2k+1).
    """
    gamma1, gamma2 = gamma_faces(k)
    p = basic_inflection(k)
    params = {"k": k}
    lower_faces = newton_data(p)
    data = {"lower_faces": [[list(a), list(b)] for a, b in lower_faces],
            "faces_expected": [[list(a), list(b)] for a, b in (gamma1, gamma2)]}
    faces_match = lower_faces == (gamma1, gamma2)
    data["faces_are_lower_hull"] = faces_match

    restricted1 = face_restriction(p, gamma1)
    if any(e[1] < 2 for e in restricted1.support()):
        return CheckReport("face_structure", params, FAIL,
                           witness={"reason": "face term below lambda^2",
                                    "support": sorted(restricted1.support())},
                           data=data)
    cofactor = SparsePoly._make(
        p.vars, {(i, j - 2): c for (i, j), c in restricted1.nums.items()}, restricted1.den)
    dehom = cofactor.specialize(VAR_LAMBDA, 1)
    expected_deg = k - 1
    data["gamma1_cofactor_degree"] = dehom.degree(VAR_X)
    if dehom.degree(VAR_X) != expected_deg or (0, k - 1) not in cofactor.nums:
        return CheckReport("face_structure", params, FAIL,
                           witness={"reason": "cofactor degree drop",
                                    "degree": dehom.degree(VAR_X),
                                    "expected": expected_deg},
                           data=data)
    shared = gcd_univariate(dehom, dehom.derivative(VAR_X))
    squarefree = shared.degree(VAR_X) < 1
    data["gamma1_cofactor_squarefree"] = squarefree
    if not squarefree:
        return CheckReport("face_structure", params, FAIL,
                           witness={"reason": "cofactor not squarefree",
                                    "gcd": poly_to_json(shared)},
                           data=data)

    restricted2 = face_restriction(p, gamma2)
    expected_support = {(k - 1, 2), (2 * k + 1, 0)}
    data["gamma2_support"] = sorted(restricted2.support())
    data["gamma2_coefficients"] = {
        "x^(k-1)*lambda^2": restricted2.coefficient((k - 1, 2)),
        "x^(2k+1)": restricted2.coefficient((2 * k + 1, 0)),
    }
    if restricted2.support() != expected_support:
        return CheckReport("face_structure", params, FAIL,
                           witness={"reason": "shallow face support",
                                    "support": sorted(restricted2.support()),
                                    "expected": sorted(expected_support)},
                           data=data)
    if not faces_match:
        # reported, not fatal: the conjectured segments exist with the right
        # structure but are not the computed lower hull
        return CheckReport("face_structure", params, FAIL,
                           witness={"reason": "conjectured faces are not the lower hull",
                                    "lower_faces": data["lower_faces"]},
                           data=data)
    return CheckReport("face_structure", params, PASS, data=data)


# -- separability and root censuses -------------------------------------------

def _separability(shared: SparsePoly):
    """The census's separability test: is ``shared``, the repeated part
    gcd(p, p') of p, supported on {0, 1}?

    Returns ``(ok, details)`` where details records the gcd degree, the
    multiplicities split off at x = 0 and x = 1, and a witness interval for
    a stray real root when one exists.
    """
    details = {"gcd_degree": max(shared.degree(VAR_X), 0)}
    if shared.degree(VAR_X) < 1:
        details["mult_at_0"] = 0
        details["mult_at_1"] = 0
        return True, details
    details["mult_at_0"], residual = deflate(shared, 0)
    details["mult_at_1"], residual = deflate(residual, 1)
    if residual.degree(VAR_X) < 1:
        return True, details
    intervals = RootIsolator(residual).isolate()
    details["stray_real_roots"] = len(intervals)
    if not intervals:
        return True, details
    details["witness_interval"] = intervals[0]
    return False, details


class RootCensus(NamedTuple):
    """Exact census of the real roots of P(mu, k) at one curve parameter.
    ``reports.jsonable`` writes the Fraction, the ``roots_at_01`` keys and
    the intervals as exact strings."""

    mu: int
    k: int
    lambda0: Fraction
    total_real_roots: int
    roots_f_positive: int
    roots_at_01: dict
    separable_away_from_01: bool
    intervals: list

    def to_json_dict(self):
        return self._asdict()


def _roots_f_positive(iso: RootIsolator, lambda0: Fraction) -> int:
    """Distinct real roots of iso's polynomial where f = x (x - 1) (x - lambda0)
    is positive.  With f's roots sorted as e1 < e2 < e3, f > 0 exactly on
    (e1, e2) and (e3, infinity), so a root at 0, 1 or lambda0 never counts."""
    e1, e2, e3 = sorted((Fraction(0), Fraction(1), lambda0))
    return iso.roots_between(e1, e2) + iso.roots_between(e3, iso.bound)


def real_root_census(mu: int, k: int, lambda0) -> RootCensus:
    """Isolate the distinct real roots at one lambda and count those where
    f > 0 between f's own roots.  A root r in {0, 1} of p of multiplicity
    m >= 1 is one of gcd(p, p') of multiplicity m - 1, so ``roots_at_01[r]``
    is the gcd's multiplicity plus one when p(r), the constant coefficient
    or the coefficient sum, is zero."""
    p = inflection_fiber(mu, k, lambda0)
    lambda0 = as_fraction(lambda0)
    iso = RootIsolator(p)
    intervals = iso.isolate()
    separable, details = _separability(iso.repeated_part())
    return RootCensus(
        mu=mu, k=k, lambda0=lambda0,
        total_real_roots=len(intervals),
        roots_f_positive=_roots_f_positive(iso, lambda0),
        roots_at_01={0: details["mult_at_0"] + ((0,) not in p.nums),
                     1: details["mult_at_1"] + (not sum(p.nums.values()))},
        separable_away_from_01=separable,
        intervals=intervals,
    )


def conjecture4_scan(mu: int, k: int, lambda_grid) -> CheckReport:
    """Sweep a lambda grid and test the two-valued real-root-count law.

    The number of real roots where f > 0 must be constant across the grid
    and equal to mu (k - mu even) or 2*mu (k - mu odd).  Degenerate grid
    entries are skipped with a warning, never silently.  The law was
    calibrated for k > mu; below that the counts are reported OUT_OF_RANGE
    with their agreement recorded, not asserted.
    """
    samples = [as_fraction(v) for v in lambda_grid]
    if not samples:
        raise PreconditionError("empty lambda grid")
    parity = "even" if (k - mu) % 2 == 0 else "odd"
    # observed on the default grid for (mu, k) in (1,2), (1,3), (1,4), (2,3):
    # mu roots with f > 0 when k - mu is even, 2*mu when it is odd
    expected = mu if parity == "even" else 2 * mu
    params = {"mu": mu, "k": k, "grid": samples}
    counts = []
    used = []
    warnings = []
    for lam in samples:
        if lam in (0, 1):
            warnings.append(f"skipped degenerate lambda = {lam}")
            continue
        iso = RootIsolator(inflection_fiber(mu, k, lam))
        counts.append(_roots_f_positive(iso, lam))
        used.append(lam)
    if not used:
        raise PreconditionError("lambda grid contains only degenerate values")
    data = {
        "samples": used,
        "counts": counts,
        "parity": parity,
        "expected": expected,
        "expected_set": [mu, 2 * mu],
        "warnings": warnings,
    }
    deviating = [lam for lam, c in zip(used, counts) if c != expected]
    if k <= mu:
        # reachable for mu = 1, k in {0, 1} only: general_inflection rejects
        # k <= mu for mu >= 2
        return CheckReport(
            "real_root_dichotomy", params, OUT_OF_RANGE,
            data={**data, "agrees": not deviating,
                  "note": "outside the calibrated range k > mu"})
    if not deviating:
        return CheckReport("real_root_dichotomy", params, PASS, data=data)
    return CheckReport(
        "real_root_dichotomy", params, FAIL,
        witness={"lambda0": deviating[0],
                 "count": counts[used.index(deviating[0])],
                 "expected": expected},
        data=data,
    )


# -- determinant identity -------------------------------------------------------

def check_determinant_identity(mu: int, k: int) -> CheckReport:
    """The template route and the direct Wronskian must agree exactly."""
    params = {"mu": mu, "k": k}
    via_template = general_inflection(mu, k)
    via_wronskian = wronskian_direct(mu, k)
    if via_template == via_wronskian:
        return CheckReport("determinant_identity", params, PASS,
                           data={"terms": len(via_template.nums)})
    diff = via_template - via_wronskian
    exponent = min(diff.support())
    return CheckReport(
        "determinant_identity", params, FAIL,
        witness={"exponent": list(exponent),
                 "template_coefficient": via_template.coefficient(exponent),
                 "wronskian_coefficient": via_wronskian.coefficient(exponent)},
    )


# -- singular locus probe -------------------------------------------------------

_ALLOWED_SINGULAR = (
    (Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1), Fraction(1)),
)


def _normalize_projective(coords):
    for c in coords:
        if c:
            return tuple(v / c for v in coords)
    raise ValueError("zero projective point")


def _point_key(pt) -> str:
    return "[" + ":".join(str(c) for c in pt) + "]"


def _chart_point(chart: str, u_name: str, u, v_name: str, v):
    values = {chart: Fraction(1), u_name: Fraction(u), v_name: Fraction(v)}
    return _normalize_projective((values[VAR_X], values[VAR_LAMBDA], values[VAR_Z]))


def _certify_and_deflate(poly: SparsePoly, var: str):
    """``(roots, intervals, residual)`` for a univariate ``poly``.

    ``roots`` are its certified rational roots and ``intervals`` isolate its
    other real roots.  ``residual`` is ``poly`` with the rational roots
    deflated when that is nonconstant and has no real root, i.e. when every
    zero it has left is nonreal, and None otherwise.
    """
    if poly.degree(var) < 1:
        return [], [], None
    roots, intervals = certified_rational_roots(poly)
    residual = poly
    for root in roots:
        _, residual = deflate(residual, root)
    if intervals or residual.degree(var) < 1:
        residual = None
    return roots, intervals, residual


def _affine_singular_candidates(q: SparsePoly, u_name: str, v_name: str):
    """Certified singular points and unresolved candidates of q = 0.

    Eliminates the lower-degree variable by resultants of (q, q_u, q_v),
    extracts the rational candidate values on the other axis, and certifies
    by exact back-substitution: the gcd of the three specializations is
    nonzero exactly at singular points.  Candidates whose coordinates cannot
    be certified rational are returned as unresolved intervals, nonreal
    candidate values as an unresolved residual, and a nonconstant residual
    with no real root after back-substitution (nonreal common zeros) as a
    fail witness.
    """
    qu = q.derivative(u_name)
    qv = q.derivative(v_name)
    if qu.is_zero and qv.is_zero:
        raise ValueError("input has no variables to probe")
    elim, keep = (u_name, v_name) if q.degree(u_name) <= q.degree(v_name) else (v_name, u_name)
    r1 = resultant(q, qu, elim)
    r2 = resultant(q, qv, elim)
    r3 = resultant(qu, qv, elim)
    certified = []
    unresolved = []
    residual_witnesses = []
    if r1.is_zero or r2.is_zero or r3.is_zero:
        # a vanishing resultant means a curve of common zeros; nothing small
        # to enumerate, so surface it as a witness
        residual_witnesses.append({"reason": "identically vanishing resultant"})
        return certified, unresolved, residual_witnesses
    shared = gcd_univariate(gcd_univariate(r1, r2), r3)
    keep_values, keep_intervals, keep_residual = _certify_and_deflate(shared, keep)
    for iv in keep_intervals:
        unresolved.append({"variable": keep, "interval": iv,
                           "max_denominator": MAX_DENOMINATOR})
    if keep_residual is not None:
        # every remaining candidate value is nonreal; it still needs a
        # verdict, so hand it back as unresolved rather than dropping it
        unresolved.append({"variable": keep,
                           "reason": "nonreal candidate values",
                           "residual": poly_to_json(keep_residual)})
    for value in keep_values:
        specialized = [
            poly.specialize(keep, value) for poly in (q, qu, qv)
        ]
        if all(s.is_zero for s in specialized):
            residual_witnesses.append({"reason": "entire line of singular points",
                                       keep: value})
            continue
        nonzero = [s for s in specialized if not s.is_zero]
        shared_x = nonzero[0]
        for s in nonzero[1:]:
            shared_x = gcd_univariate(shared_x, s)
        elim_values, elim_intervals, residual = _certify_and_deflate(shared_x, elim)
        for iv in elim_intervals:
            unresolved.append({"variable": elim, "interval": iv, keep: value,
                               "max_denominator": MAX_DENOMINATOR})
        for root in elim_values:
            certified.append({keep: value, elim: root})
        if residual is not None:
            residual_witnesses.append({
                "reason": "nonreal common zeros",
                keep: value,
                "residual": poly_to_json(residual),
            })
    return certified, unresolved, residual_witnesses


def singular_probe(k: int) -> CheckReport:
    """Probe the projective closure for singular points beyond the known three.

    Works chart by chart ((x:lambda:1), (1:lambda:z), (x:1:z)), eliminating
    with resultants and certifying candidates by exact back-substitution.
    Verdicts: FAIL with a witness if a certified singular point falls outside
    the allowed set, UNRESOLVED if any candidate resists exact
    classification, PASS otherwise.
    """
    p = _basic_poly(k)
    hom = p.homogenize(VAR_Z, 2 * (k + 1))
    params = {"mu": 1, "k": k}
    charts = (
        (VAR_Z, VAR_X, VAR_LAMBDA),
        (VAR_X, VAR_LAMBDA, VAR_Z),
        (VAR_LAMBDA, VAR_X, VAR_Z),
    )
    certified_points = set()
    unresolved = []
    stray_witnesses = []
    chart_data = {}
    for chart, u_name, v_name in charts:
        affine = hom.specialize(chart, 1)
        certified, open_candidates, residuals = _affine_singular_candidates(
            affine, u_name, v_name)
        points = []
        for item in certified:
            point = _chart_point(chart, u_name, item[u_name], v_name, item[v_name])
            certified_points.add(point)
            points.append(point)
        chart_data[chart] = {
            "certified": sorted(_point_key(pt) for pt in points),
            "unresolved": len(open_candidates),
            "residual_witnesses": residuals,
        }
        for cand in open_candidates:
            unresolved.append({"chart": chart, **cand})
        for res in residuals:
            stray_witnesses.append({"chart": chart, **res})
    allowed = {pt: (pt in certified_points) for pt in _ALLOWED_SINGULAR}
    data = {
        "charts": chart_data,
        "allowed_points": {_point_key(pt): hit for pt, hit in allowed.items()},
        "distinguished": _distinguished_point_data(hom),
    }
    strays = sorted(pt for pt in certified_points if pt not in _ALLOWED_SINGULAR)
    if strays or stray_witnesses:
        return CheckReport(
            "singular_locus", params, FAIL,
            witness={"points": [_point_key(pt) for pt in strays],
                     "residuals": stray_witnesses},
            data=data,
        )
    if unresolved:
        return CheckReport("singular_locus", params, UNRESOLVED,
                           witness=None,
                           data={**data, "unresolved": unresolved})
    return CheckReport("singular_locus", params, PASS, data=data)


def _distinguished_point_data(hom: SparsePoly) -> dict:
    out = {}
    partials = [hom.derivative(v) for v in hom.vars]
    for pt in _ALLOWED_SINGULAR:
        values = dict(zip((VAR_X, VAR_LAMBDA, VAR_Z), pt))
        on_curve = hom.evaluate(values) == 0
        singular = on_curve and all(d.evaluate(values) == 0 for d in partials)
        out[_point_key(pt)] = {"on_curve": on_curve, "singular": singular}
    return out
