"""Exact inflection polynomials of Legendre elliptic curves.

Construction of the two-parameter family P(mu, k), mechanical verification
of its conjectured structure (symmetries, Newton polygon support and faces,
separability, real-root counts, singular locus, torsion specialization) and
deterministic SVG rendering of the real loci.  All arithmetic is exact.
"""

from .poly import (
    VAR_LAMBDA,
    VAR_X,
    SparsePoly,
    as_fraction,
    parse_rational,
    poly_from_json,
    poly_to_json,
)
from .roots import (
    IsolatingInterval,
    RootIsolator,
    SturmChain,
    certified_rational_roots,
    gcd_univariate,
    sign_at_root,
    simplest_rational_between,
    squarefree_part,
    sturm_count,
)
from .matrices import det_polymatrix, resultant, sylvester_matrix
from .reports import FAIL, OUT_OF_RANGE, PASS, UNRESOLVED, CheckReport
from .inflection import (
    DerivativeForm,
    InflectionPoly,
    basic_inflection,
    calibrate_recurrence_coefficient,
    derivative_oracle,
    division_polynomial,
    general_inflection,
    legendre_f,
    predicted_delta,
    predicted_genus,
    q_template,
    torsion_check,
    wronskian_direct,
)
from .newton import NewtonData, convex_hull, lattice_points_in_hull, newton_data
from .conjectures import (
    DEFAULT_LAMBDA_GRID,
    RootCensus,
    check_coeff_symmetry,
    check_determinant_identity,
    check_face_structure,
    check_homogenization_symmetry,
    check_shift_symmetry,
    check_support,
    conjecture4_scan,
    lemma_range_probe,
    predicted_support,
    real_root_census,
    separability_check,
    singular_probe,
)
from .render import (
    DEFAULT_WINDOW,
    SignGrid,
    Window,
    contour_segments,
    render_curve,
    row_sign_changes,
    sample_sign_grid,
    write_svg,
)

__version__ = "0.1.0"

__all__ = [
    "VAR_LAMBDA", "VAR_X", "SparsePoly", "as_fraction", "parse_rational",
    "poly_from_json", "poly_to_json",
    "IsolatingInterval", "RootIsolator", "SturmChain",
    "certified_rational_roots", "gcd_univariate", "sign_at_root",
    "simplest_rational_between",
    "squarefree_part", "sturm_count",
    "det_polymatrix", "resultant", "sylvester_matrix",
    "FAIL", "OUT_OF_RANGE", "PASS", "UNRESOLVED", "CheckReport",
    "DerivativeForm", "InflectionPoly", "basic_inflection",
    "calibrate_recurrence_coefficient", "derivative_oracle",
    "division_polynomial", "general_inflection", "legendre_f",
    "predicted_delta", "predicted_genus", "q_template", "torsion_check",
    "wronskian_direct",
    "NewtonData", "convex_hull", "lattice_points_in_hull", "newton_data",
    "DEFAULT_LAMBDA_GRID", "RootCensus", "check_coeff_symmetry",
    "check_determinant_identity", "check_face_structure",
    "check_homogenization_symmetry", "check_shift_symmetry", "check_support",
    "conjecture4_scan", "lemma_range_probe", "predicted_support",
    "real_root_census", "separability_check", "singular_probe",
    "DEFAULT_WINDOW", "SignGrid", "Window", "contour_segments",
    "render_curve", "row_sign_changes", "sample_sign_grid", "write_svg",
]
