"""Acceptance gate: twelve end-to-end guarantees at literal-equality tolerance.

Every criterion prints exactly one [PASS]/[FAIL] line on the terminal
(outside pytest capture) and then asserts, so a full run reads as a
twelve-line scoreboard whatever else the suite prints.
"""

import io
import math
from fractions import Fraction

from inflectionary.conjectures import (
    DEFAULT_LAMBDA_GRID,
    check_coeff_symmetry,
    check_determinant_identity,
    check_face_structure,
    check_homogenization_symmetry,
    check_shift_symmetry,
    check_support,
    conjecture4_scan,
    _separability,
    real_root_census,
    singular_probe,
)
from inflectionary.inflection import (
    basic_inflection,
    derivative_oracle,
    general_inflection,
    inflection_fiber,
    legendre_f,
    predicted_delta,
    predicted_genus,
    q_template,
    torsion_check,
)
from inflectionary.poly import VAR_LAMBDA, VAR_X, SparsePoly, as_fraction
from inflectionary.render import Window, render_curve, sample_sign_grid
from inflectionary.reports import FAIL, PASS, CheckReport
from inflectionary.roots import RootIsolator, gcd_univariate, sign_at_root

XL = (VAR_X, VAR_LAMBDA)

LEMMA1_PAIRS = ((2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5))
TORSION_LAMBDAS = (Fraction(-1), Fraction(-1, 2), Fraction(1, 3),
                   Fraction(2), Fraction(5))
SEPARABILITY_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3))
# Both parities of k - mu for mu = 1, 2, 3, up to P(3, 6) of x-degree 42.
DICHOTOMY_PAIRS = SEPARABILITY_PAIRS + ((2, 4), (2, 5), (3, 4), (3, 5), (3, 6))
ALLOWED_SINGULAR_KEYS = {"[0:0:1]", "[0:1:0]", "[1:1:1]"}

# Ten sampled grid rows of the default 512-row window, avoiding the two
# degenerate parameter rows lambda = 0 (j = 128) and lambda = 1 (j = 256).
CENSUS_ROWS = (32, 96, 160, 200, 224, 288, 320, 384, 448, 500)


def _criterion(capsys, number, label, failures):
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"[{status}] criterion {number:02d}: {label}")
    assert not failures, f"criterion {number:02d} ({label}): {failures[:4]}"


def test_criterion_01_seed_and_degrees(capsys):
    failures = []
    seed = basic_inflection(0)
    expected = SparsePoly(XL, {(2, 0): Fraction(3, 2), (1, 0): -1,
                               (1, 1): -1, (0, 1): Fraction(1, 2)})
    if seed != expected:
        failures.append("seed polynomial mismatch")
    for k in range(9):
        p = basic_inflection(k)
        if p.degree(VAR_X) != 2 * (k + 1):
            failures.append(f"x-degree at k={k}: {p.degree(VAR_X)}")
        if p.degree(VAR_LAMBDA) != k + 1:
            failures.append(f"lambda-degree at k={k}: {p.degree(VAR_LAMBDA)}")
    _criterion(capsys, 1, "seed polynomial and degree growth", failures)


# Candidate coefficients c(k) for the D(f) term of the recurrence
#   P(1, k+1) = D(P(1, k)) * f + c(k) * P(1, k) * D(f).
# Deriving the recurrence from y' = y*D(f)/(2f) forces c(k) = -(k + 1/2),
# which is what the recurrence applies; the variant (1/2 - k) circulates in
# print but fails the oracle already at k = 0.
RECURRENCE_COEFFICIENT_VARIANTS = {
    "-(k+1/2)": lambda k: Fraction(-(2 * k + 1), 2),
    "(1/2-k)": lambda k: Fraction(1 - 2 * k, 2),
}
SELECTED_RECURRENCE_COEFFICIENT = "-(k+1/2)"


def _recurrence_apply(prev: SparsePoly, c: Fraction) -> SparsePoly:
    """One recurrence step D(prev) * f + c * prev * D(f)."""
    f = legendre_f()
    return prev.derivative(VAR_X) * f + c * prev * f.derivative(VAR_X)


def calibrate_recurrence_coefficient() -> dict:
    """Compare every recurrence coefficient variant against the oracle.

    Returns ``{"selected": name, "results": {name: bool}}`` where a variant
    passes when its sequence, from the seed D(f)/2, reproduces
    derivative_oracle(m) for all m <= 5.
    """
    results = {}
    for name, coeff in RECURRENCE_COEFFICIENT_VARIANTS.items():
        seq = [legendre_f().derivative(VAR_X) * Fraction(1, 2)]
        for j in range(4):
            seq.append(_recurrence_apply(seq[-1], coeff(j)))
        results[name] = all(derivative_oracle(m) == p for m, p in enumerate(seq, 1))
    return {"selected": SELECTED_RECURRENCE_COEFFICIENT, "results": results}


def test_criterion_02_derivative_oracle(capsys):
    failures = []
    for m in range(1, 10):
        numerator = derivative_oracle(m)
        # N_m(0, lambda) != 0: neither x nor f divides N_m, so f^m is reduced
        at_zero = Fraction(1, 2) * math.prod(Fraction(1, 2) - j for j in range(1, m))
        if numerator.specialize(VAR_X, 0) != SparsePoly((VAR_LAMBDA,), {(m,): at_zero}):
            failures.append(f"N_m(0, lambda) at m={m}: {numerator.specialize(VAR_X, 0)}")
        if numerator != basic_inflection(m - 1):
            failures.append(f"numerator mismatch at m={m}")
    calibration = calibrate_recurrence_coefficient()
    if not calibration["results"].get(calibration["selected"]):
        failures.append("selected recurrence coefficient fails its own calibration")
    if sum(1 for ok in calibration["results"].values() if ok) != 1:
        failures.append("coefficient calibration is not decisive")
    _criterion(capsys, 2, "derivative oracle agrees with the recurrence", failures)


def test_criterion_03_determinant_identity(capsys):
    failures = []
    for mu, k in LEMMA1_PAIRS:
        report = check_determinant_identity(mu, k)
        if report.verdict != "PASS":
            failures.append(f"routes disagree at (mu,k)=({mu},{k})")
    for mu in range(1, 5):
        for n in range(1, 9):
            template = q_template(mu, n)
            if template.is_zero:
                failures.append(f"template vanishes at (mu,n)=({mu},{n})")
            if any(sum(e) != mu for e in template.support()):
                failures.append(f"inhomogeneous template at (mu,n)=({mu},{n})")
    _criterion(capsys, 3, "determinant identity and template homogeneity", failures)


def test_criterion_04_torsion_identity(capsys):
    failures = []
    for k in range(2, 6):
        for lambda0 in TORSION_LAMBDAS:
            report = torsion_check(k, lambda0)
            if report.verdict != "PASS":
                failures.append(f"not proportional at k={k}, lambda={lambda0}")
                continue
            expected_degree = 2 * k * k - 2
            if report.data["degree_inflection"] != expected_degree:
                failures.append(f"inflection degree at k={k}, lambda={lambda0}")
            if report.data["degree_division"] != expected_degree:
                failures.append(f"division degree at k={k}, lambda={lambda0}")
    _criterion(capsys, 4, "torsion proportionality against division polynomials",
               failures)


def test_criterion_05_symmetries(capsys):
    failures = []
    for k in range(1, 9):
        if check_homogenization_symmetry(k).verdict != "PASS":
            failures.append(f"homogenization swap at k={k}")
        if check_shift_symmetry(k).verdict != "PASS":
            failures.append(f"unit shift at k={k}")
    _criterion(capsys, 5, "homogenization and shift symmetries", failures)


def test_criterion_06_support_and_involution(capsys):
    failures = []
    frozen_k1 = {(0, 2), (2, 1), (3, 1), (3, 0), (4, 0)}
    if basic_inflection(1).support() != frozen_k1:
        failures.append("k=1 support drifted")
    for k in range(1, 9):
        if check_support(k).verdict != "PASS":
            failures.append(f"support prediction at k={k}")
        if check_coeff_symmetry(k).verdict != "PASS":
            failures.append(f"coefficient involution at k={k}")
    _criterion(capsys, 6, "support prediction and coefficient involution", failures)


def test_criterion_07_face_structure(capsys):
    failures = []
    for k in range(2, 7):
        report = check_face_structure(k)
        if report.verdict != "PASS":
            failures.append(f"face structure at k={k}: {report.witness}")
    _criterion(capsys, 7, "two-face boundary structure", failures)


def separability_check(mu: int, k: int, lambda0) -> CheckReport:
    """PASS when every repeated or clustered root at this lambda sits in {0, 1}.

    It reads the repeated part as gcd(p, p') through ``gcd_univariate``; the
    census reads it through ``RootIsolator.repeated_part``.
    """
    p = inflection_fiber(mu, k, lambda0)
    params = {"mu": int(mu), "k": int(k), "lambda0": as_fraction(lambda0)}
    ok, details = _separability(gcd_univariate(p, p.derivative(VAR_X)))
    if ok:
        return CheckReport("separability", params, PASS, data=details)
    witness = details.pop("witness_interval")
    return CheckReport("separability", params, FAIL,
                       witness={"interval": witness}, data=details)


def test_criterion_08_separability(capsys):
    failures = []
    for mu, k in SEPARABILITY_PAIRS:
        for lambda0 in DEFAULT_LAMBDA_GRID:
            report = separability_check(mu, k, lambda0)
            if report.verdict != "PASS":
                failures.append(f"(mu,k)=({mu},{k}) at lambda={lambda0}")
    _criterion(capsys, 8, "separability away from x in {0, 1}", failures)


def test_criterion_09_root_count_dichotomy(capsys):
    failures = []
    for i, (mu, k) in enumerate(DICHOTOMY_PAIRS):
        report = conjecture4_scan(mu, k, DEFAULT_LAMBDA_GRID)
        expected = mu * (1 if (k - mu) % 2 == 0 else 2)
        if report.verdict != "PASS":
            failures.append(f"scan failed at (mu,k)=({mu},{k})")
            continue
        if report.data["expected"] != expected:
            failures.append(f"scan expects {report.data['expected']} at (mu,k)=({mu},{k})")
        counts = set(report.data["counts"])
        if counts != {expected}:
            failures.append(f"counts {sorted(counts)} at (mu,k)=({mu},{k})")
        if expected not in (mu, 2 * mu):
            failures.append(f"expected count outside {{mu, 2mu}} at ({mu},{k})")
        # the count between f's roots against the sign of f at each root,
        # one grid lambda per pair, cycling through the three regimes
        lambda0 = DEFAULT_LAMBDA_GRID[i % len(DEFAULT_LAMBDA_GRID)]
        census = real_root_census(mu, k, lambda0)
        f_here = legendre_f().specialize(VAR_LAMBDA, lambda0)
        iso = RootIsolator(inflection_fiber(mu, k, lambda0))
        signed = sum(s > 0 for s in sign_at_root(f_here, iso, census.intervals))
        if census.roots_f_positive != signed:
            failures.append(f"{census.roots_f_positive} roots counted, {signed} signed "
                            f"at (mu,k)=({mu},{k}), lambda={lambda0}")
    _criterion(capsys, 9, "real-root-count dichotomy across the grid", failures)


def test_criterion_10_singular_locus(capsys):
    failures = []
    for k in (2, 3, 4):
        report = singular_probe(k)
        if report.verdict != "PASS":
            failures.append(f"probe verdict {report.verdict} at k={k}")
            continue
        for chart, info in report.data["charts"].items():
            strays = set(info["certified"]) - ALLOWED_SINGULAR_KEYS
            if strays:
                failures.append(f"stray points {sorted(strays)} in chart {chart}")
    _criterion(capsys, 10, "no singular points beyond the three known", failures)


def test_criterion_11_invariant_formulas(capsys):
    failures = []
    for k, expected in ((2, 4), (3, 7)):
        if predicted_delta(k) != expected:
            failures.append(f"delta({k}) = {predicted_delta(k)}")
    if predicted_genus(3) != 0:
        failures.append(f"genus(3) = {predicted_genus(3)}")
    _criterion(capsys, 11, "closed-form delta and genus values", failures)


def test_criterion_12_render_census_consistency(capsys):
    failures = []
    w = Window(-1, 3, -1, 3, 512, 512)  # the plot's default
    for mu, k in ((1, 2), (1, 3)):
        p = general_inflection(mu, k)
        grid = sample_sign_grid(p, w)
        for j in CENSUS_ROWS:
            lambda0 = w.lambda_min + Fraction(j, w.nlambda) * (w.lambda_max - w.lambda_min)
            # sign flips along row j, zeros counted as positive (the tie rule):
            # bit i of the row's nonneg mask is set where p >= 0 at x_i
            nonneg = grid.rows[j][0]
            signs = [1 if nonneg >> i & 1 else -1 for i in range(w.nx + 1)]
            changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            chain = RootIsolator(p.specialize(VAR_LAMBDA, lambda0)).chain
            expected = chain.variations_at(w.x_min) - chain.variations_at(w.x_max)
            if changes != expected:
                failures.append(
                    f"(mu,k)=({mu},{k}) row j={j}: {changes} != {expected}")
        first = render_curve(p, w, io.BytesIO())
        second = render_curve(p, w, io.BytesIO())
        if first != second:
            failures.append(f"render bytes differ for (mu,k)=({mu},{k})")
    _criterion(capsys, 12, "render rows match Sturm counts; bytes deterministic",
               failures)
