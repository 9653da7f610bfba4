"""No-spillover eigenvalue updating for structured matrix pencils.

Compute perturbations (dM, dK) of a pencil lambda*M + K that move a chosen
set of eigenvalues (or a deflating pair) to prescribed targets while the
complementary deflating pair provably stays put, preserving symmetry
structures (symmetric, Hermitian, *-odd/even, T-odd/even and
skew-Hamiltonian/Hamiltonian pencils) along the way.
"""

from .errors import NoSpilloverError
from .linalg import eig_pencil, herm_eigs, pseudoinverse
from .pencil import (
    ALL_TAGS,
    HERMITIAN,
    STAR_EVEN,
    STAR_ODD,
    SYMMETRIC,
    T_EVEN,
    T_ODD,
    DeflatingPair,
    StructuredPencil,
    StructureTag,
    classify_structure,
    normalize_columns,
)
from .shh import SHHPencil, shh_update, t_shh_update
from .special import (
    QuadraticSpec,
    hermitian_update,
    select_psd_params,
    solve_quadratic,
    star_even_update,
    star_odd_update,
    t_even_real_update,
    t_odd_real_update,
)
from .structured import (
    CoreSolution,
    build_update_basis,
    change_gramian,
    complete_core,
    core_from_parameters,
    parametrized_core,
    scaled_gramian_core,
    structured_update,
)
from .unstructured import (
    UpdateProblem,
    UpdateResult,
    dual_basis_update,
    solve_general,
)
from .verify import Certificate, certify, spectrum_match

__version__ = "0.1.0"

__all__ = [
    "ALL_TAGS",
    "Certificate",
    "CoreSolution",
    "DeflatingPair",
    "HERMITIAN",
    "NoSpilloverError",
    "QuadraticSpec",
    "SHHPencil",
    "STAR_EVEN",
    "STAR_ODD",
    "SYMMETRIC",
    "StructureTag",
    "StructuredPencil",
    "T_EVEN",
    "T_ODD",
    "UpdateProblem",
    "UpdateResult",
    "build_update_basis",
    "certify",
    "change_gramian",
    "classify_structure",
    "complete_core",
    "core_from_parameters",
    "dual_basis_update",
    "eig_pencil",
    "herm_eigs",
    "hermitian_update",
    "normalize_columns",
    "parametrized_core",
    "pseudoinverse",
    "scaled_gramian_core",
    "select_psd_params",
    "shh_update",
    "solve_general",
    "solve_quadratic",
    "spectrum_match",
    "star_even_update",
    "star_odd_update",
    "structured_update",
    "t_even_real_update",
    "t_odd_real_update",
    "t_shh_update",
]
