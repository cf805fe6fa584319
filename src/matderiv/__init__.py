"""Exact computations with derivations on structure-constant algebras.

The package works over the rationals throughout: algebras and bimodules are
given by structure constants, derivation and Jordan-derivation spaces are
solved exactly, matrix extensions M_n(A) come with the inner-plus-lift
decomposition of their derivations, and 2-local derivation oracles can be
reconstructed from two canonical queries and verified on seeded samples.
"""

from .exactlin import (
    ONE,
    Subspace,
    Vector,
    ZERO,
    Matrix,
    basis_vec,
    member,
    nullspace,
    nullspace_sparse,
    quotient_dim,
    same_space,
    solve,
    vadd,
    vscale,
    vsub,
    zero_vec,
)
from .algcore import (
    Algebra,
    Bimodule,
    CATALOG_NAMES,
    Violation,
    act,
    catalog,
    catalog_algebra,
    commutes,
    direct_sum,
    multiply,
    regular_bimodule,
    validate_algebra,
    validate_bimodule,
)
from .dercalc import (
    Derivation,
    DerivationSpace,
    InnerSpace,
    LinearMap,
    certify,
    derivation_space,
    h1_dim,
    inner_derivation,
    inner_space,
    is_inner,
    jordan_derivation_space,
    jordan_pair,
    leibniz_failures,
)
from .matext import (
    Decomposition,
    DecompositionError,
    IdentityResult,
    Lemma22Report,
    MatrixAlgebra,
    MatrixBimodule,
    PairIso,
    component,
    decompose,
    lift,
    matrix_algebra,
    matrix_bimodule,
    matrix_pair,
    reblock_iso,
    verify_lemma22,
)
from .twolocal import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    NotTwoLocalError,
    PERTURBATION_KINDS,
    TwoLocalOracle,
    WitnessReport,
    agreement_failures,
    canonical_S_T,
    central_idempotent_compat,
    pair_witness,
    perturbed_oracle,
    reconstruct,
    seeded_elements,
    verify_2local_property,
    wrap_derivation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
