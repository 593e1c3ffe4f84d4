"""The names ``confal`` exports from its package root, pinned.

Adding or removing a public name means editing this list, so the public
surface only changes on purpose.  The names are read from the import
statements of ``confal/__init__.py``, then looked up on the package.
"""

import ast
from pathlib import Path

import confal

EXPORTS = [
    "ClassificationReport",
    "ClosedFormMismatchError",
    "ConformalAlgebra",
    "ConformalModule",
    "DEL",
    "FamilyTag",
    "FiniteLieAlgebra",
    "LAM",
    "LambdaValue",
    "MU",
    "Poly",
    "TruncationPolicy",
    "UnsupportedAlgebraError",
    "UnsupportedModuleError",
    "Var",
    "WindowOverflowError",
    "annihilation_subquotient",
    "build_annihilation",
    "characters",
    "check_central",
    "check_jacobi",
    "check_lie",
    "check_module",
    "check_skew",
    "classify_bn",
    "classify_rank_one",
    "divmod_in_var",
    "ideal_and_nilpotency",
    "infer_family",
    "is_irreducible_rank_one",
    "k_products",
    "lie_bracket",
    "make_block",
    "make_bn",
    "make_heisenberg_virasoro",
    "make_heisenberg_virasoro_misprint",
    "make_schrodinger_virasoro",
    "make_virasoro",
    "rank_one_beta_module",
    "rank_one_module",
    "resonance_analysis",
    "shift_kernel",
    "submodule_action",
    "symmetry_residual",
    "trace_certificate",
    "trivial_module",
    "verify_report",
]


def test_package_root_exports_exactly_the_pinned_names():
    tree = ast.parse(Path(confal.__file__).read_text(encoding="utf-8"))
    exported = sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    )
    assert exported == EXPORTS
    assert len(EXPORTS) == 47
    assert all(hasattr(confal, name) for name in EXPORTS)
