"""Exact computation kernel for Block-type Lie conformal algebras.

Everything is exact rational arithmetic: bracket tables and module actions
are polynomial data, the axiom checkers expand identities symbolically, and
the command-line layer emits deterministic JSON certificates.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    DEL,
    LAM,
    MU,
    MissingVariableError,
    Poly,
    ScheduleExhaustedError,
    Var,
    divmod_in_var,
    pit_points,
    pit_verify,
)
from .conformal import (  # noqa: F401
    ConfElement,
    ConfMorphism,
    ConformalAlgebra,
    LambdaValue,
    NotAnIdealError,
    TruncationPolicy,
    UnsupportedAlgebraError,
    WindowOverflowError,
    block_embedding,
    bracket,
    check_jacobi,
    check_morphism,
    check_skew,
    compose,
    make_block,
    make_bn,
    make_heisenberg_virasoro,
    make_heisenberg_virasoro_misprint,
    make_schrodinger_virasoro,
    make_virasoro,
    quotient_by_tail,
)
from .annihilation import (  # noqa: F401
    ClosedFormMismatchError,
    FiniteLieAlgebra,
    annihilation_subquotient,
    build_annihilation,
    characters,
    check_central,
    check_lie,
    ideal_and_nilpotency,
    k_products,
    lie_bracket,
    resonance_analysis,
    trace_certificate,
)
from .linalg import RatMatrix  # noqa: F401
from .modules import (  # noqa: F401
    ConformalModule,
    FamilyTag,
    UnsupportedModuleError,
    act,
    check_module,
    infer_family,
    is_irreducible_rank_one,
    is_isomorphic_rank_one,
    rank_one_beta_module,
    rank_one_module,
    submodule_action,
    trivial_module,
)
from .classify import (  # noqa: F401
    ClassificationReport,
    classify_bn,
    classify_rank_one,
    shift_kernel,
    symmetry_residual,
    verify_report,
)
