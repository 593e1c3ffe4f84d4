"""Exact computation kernel for Block-type Lie conformal algebras.

Everything is exact rational arithmetic: bracket tables and module actions
are polynomial data, the axiom checkers expand identities symbolically, and
the command-line layer emits deterministic JSON certificates.

``import confal`` loads no submodule.  Each public name is resolved on first
access (PEP 562 ``__getattr__``) from the submodule that defines it, so a
caller pays only for the stages it uses.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("DEL", "LAM", "MU", "Poly", "Var", "divmod_in_var"), "poly"),
    **dict.fromkeys(
        ("ConformalAlgebra", "LambdaValue", "TruncationPolicy",
         "UnsupportedAlgebraError", "WindowOverflowError", "check_jacobi",
         "check_skew", "make_block", "make_bn", "make_heisenberg_virasoro",
         "make_heisenberg_virasoro_misprint", "make_schrodinger_virasoro",
         "make_virasoro"), "conformal"),
    **dict.fromkeys(
        ("ClosedFormMismatchError", "FiniteLieAlgebra",
         "annihilation_subquotient", "build_annihilation", "characters",
         "check_central", "check_lie", "ideal_and_nilpotency",
         "resonance_analysis", "trace_certificate"),
        "annihilation"),
    **dict.fromkeys(
        ("ConformalModule", "FamilyTag", "UnsupportedModuleError",
         "check_module", "infer_family", "is_irreducible_rank_one",
         "rank_one_module", "submodule_action", "trivial_module"), "modules"),
    **dict.fromkeys(
        ("ClassificationReport", "classify_bn", "classify_rank_one",
         "symmetry_residual", "verify_report"), "classify"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
