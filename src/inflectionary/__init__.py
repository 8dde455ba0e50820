"""Exact inflection polynomials of Legendre elliptic curves.

Construction of the two-parameter family P(mu, k), mechanical verification
of its conjectured structure (symmetries, Newton polygon support and faces,
separability, real-root counts, singular locus, torsion specialization) and
deterministic SVG rendering of the real loci.  All arithmetic is exact.
"""

__version__ = "0.1.0"
