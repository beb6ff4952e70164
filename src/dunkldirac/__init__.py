"""Exact verification engine for Dunkl angular momentum algebras and
their Dirac operators.

The layers, bottom up: scalars (the field Q(i, sqrt2)), linalg (exact
matrices as integer component arrays), roots (reflection groups and
multiplicity functions), polyrep (truncated standard modules and graded
operators), clifford (Clifford algebra and a spinor representation),
cover (the pin double cover and its twisted group algebra), angmom (the
angular momentum algebra and its Casimir), diracops (Dirac elements,
kernel cohomology, spectra, and the rescaling search), cli
(configuration and reporting).

Everything upstream of the float spectrum reports is computed in exact
arithmetic; a report line is an exact matrix identity.
"""

from .scalars import ExactScalar, HALF, IUNIT, ONE, SQRT2, ZERO, rat
from .linalg import Matrix, intersection_dim, is_positive_definite, kernel
from .roots import ParamFunction, ReflectionGroup, RootSystem, root_system
from .polyrep import (
    GradedOperator,
    ModuleFamily,
    TauRep,
    adjointness_check,
    builtin_rep,
    classical_harmonic_dim,
    contravariant_form,
    custom_rep,
    harmonic_dims,
    harmonic_subspace,
    rca_relation_check,
)
from .clifford import (
    CliffordElement,
    SpinorRep,
    anticommutator_check,
    vector_embed,
)
from .cover import (
    HatElement,
    PinCover,
    build_C2,
    build_T,
    build_T_bullet,
    build_Z3,
    center_shift,
    is_admissible,
    jm_elements,
    jm_symmetric_elements,
    jucys_murphy,
    ztilde,
)
from .angmom import (
    AmaContext,
    ama_relations_check,
    casimir_centrality_check,
    centralizer_check,
    msquared_identities_check,
    report_passes,
)
from .diracops import (
    CohomologyResult,
    DiracContext,
    DiracOperator,
    basis_independence_check,
    build_context,
    build_dirac,
    c2_decomposition_check,
    center_transport,
    central_character_check,
    dirac_cohomology,
    dirac_in_basis,
    dirac_square_check,
    harmonic_spin_basis,
    nonzero_cohomology_search,
    rho_invariance_check,
    scasimir_check,
    unitarity_and_spectrum,
    vogan_witness_check,
)

__version__ = "0.1.0"

__all__ = [
    "AmaContext", "CliffordElement", "CohomologyResult", "DiracContext",
    "DiracOperator", "ExactScalar", "GradedOperator",
    "HALF", "HatElement", "IUNIT", "Matrix",
    "ModuleFamily", "ONE", "ParamFunction", "PinCover",
    "ReflectionGroup", "RootSystem", "SQRT2", "SpinorRep", "TauRep",
    "ZERO", "adjointness_check", "ama_relations_check",
    "anticommutator_check", "basis_independence_check",
    "build_C2", "build_T", "build_T_bullet", "build_Z3",
    "build_context", "build_dirac",
    "builtin_rep", "c2_decomposition_check", "casimir_centrality_check",
    "center_shift", "center_transport", "central_character_check",
    "centralizer_check", "classical_harmonic_dim", "contravariant_form",
    "custom_rep", "dirac_cohomology", "dirac_in_basis",
    "dirac_square_check", "harmonic_dims", "harmonic_spin_basis",
    "harmonic_subspace", "intersection_dim", "is_admissible",
    "is_positive_definite", "jm_elements", "jm_symmetric_elements",
    "jucys_murphy", "kernel", "msquared_identities_check",
    "nonzero_cohomology_search", "rat",
    "rca_relation_check", "report_passes", "rho_invariance_check",
    "root_system", "scasimir_check", "unitarity_and_spectrum",
    "vector_embed", "vogan_witness_check", "ztilde",
]
