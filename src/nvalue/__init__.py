"""Exact computer algebra for the n-valued group multiplication on C.

Builds the multiplication polynomials p_n(z; x, y), expresses them in the
elementary-symmetric basis, computes their Newton polytopes, checks the
group axioms numerically, and scans coefficient conjectures.
"""

from .polyring import (
    IndivisibleExponent,
    NonIntegralCoefficient,
    Polynomial,
    VariableMismatch,
)
from .construct import (
    NonConstantInT,
    build_pn,
    build_pn_cyclo,
    build_pn_newton_identities,
    cyclotomic,
    power_sum,
    restrict_y0,
)
from .symdecomp import (
    EBasisPolynomial,
    InvalidPartition,
    NotHomogeneous,
    NotSymmetric,
    decompose,
    recompose,
    verify_proposition,
)
from .newton import (
    HypothesisNotMet,
    NewtonPolytope,
    ZeroPolynomial,
    convex_hull_2d,
    is_k_simplex,
    newton_polytope,
    render_svg,
    verify_theorem,
)
from .mvgroup import (
    RootFindingFailure,
    check_associativity,
    eq_multiset,
    inv,
    mul_n,
    roots_match_pn,
)
from .conjectures import (
    NotEven,
    NotPrimePower,
    ScanReport,
    factor_report,
    factorize,
    scan_even_nonzero,
    scan_prime_power,
)

__version__ = "0.1.0"

__all__ = [
    "EBasisPolynomial",
    "HypothesisNotMet",
    "IndivisibleExponent",
    "InvalidPartition",
    "NewtonPolytope",
    "NonConstantInT",
    "NonIntegralCoefficient",
    "NotEven",
    "NotHomogeneous",
    "NotPrimePower",
    "NotSymmetric",
    "Polynomial",
    "RootFindingFailure",
    "ScanReport",
    "VariableMismatch",
    "ZeroPolynomial",
    "build_pn",
    "build_pn_cyclo",
    "build_pn_newton_identities",
    "check_associativity",
    "convex_hull_2d",
    "cyclotomic",
    "decompose",
    "eq_multiset",
    "factor_report",
    "factorize",
    "inv",
    "is_k_simplex",
    "mul_n",
    "newton_polytope",
    "power_sum",
    "recompose",
    "render_svg",
    "restrict_y0",
    "roots_match_pn",
    "scan_even_nonzero",
    "scan_prime_power",
    "verify_proposition",
    "verify_theorem",
]
