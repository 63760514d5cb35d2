"""Deformed Lie superalgebra brackets on exterior algebras, exact over Q[t]."""

from .brackets import (
    DeformationKind,
    DeformationSpec,
    FSpec,
    SuperElement,
    deformed_schouten,
    extension_bracket,
    form_bracket,
    solve_g0_doubleprime,
    solve_g0_prime,
)
from .chains import ChainComplexSystem, ChainElement, normalize
from .exterior import (
    FORM,
    MULTIVECTOR,
    GradedElement,
    ce_differential,
    contract,
    d,
    interior_vector,
    is_closed,
    lie_derivative,
    schouten,
    wedge,
)
from .homology import BettiReport, betti_piecewise, boundary_matrix, generic_rank, special_locus
from .liealg import LieAlgebraSpec, OneForm, VectorField, abelian, heisenberg3, solvable2, validate_jacobi
from .scalars import PolyT, Rational, T, poly, poly_gcd, rational_roots

__version__ = "0.1.0"

__all__ = [
    "BettiReport",
    "ChainComplexSystem",
    "ChainElement",
    "DeformationKind",
    "DeformationSpec",
    "FORM",
    "FSpec",
    "GradedElement",
    "LieAlgebraSpec",
    "MULTIVECTOR",
    "OneForm",
    "PolyT",
    "Rational",
    "SuperElement",
    "T",
    "VectorField",
    "abelian",
    "betti_piecewise",
    "boundary_matrix",
    "ce_differential",
    "contract",
    "d",
    "deformed_schouten",
    "extension_bracket",
    "form_bracket",
    "generic_rank",
    "heisenberg3",
    "interior_vector",
    "is_closed",
    "lie_derivative",
    "normalize",
    "poly",
    "poly_gcd",
    "rational_roots",
    "schouten",
    "solvable2",
    "solve_g0_doubleprime",
    "solve_g0_prime",
    "special_locus",
    "validate_jacobi",
    "wedge",
]
