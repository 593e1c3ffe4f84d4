"""The names ``confal`` exports from its package root, pinned.

Adding or removing a public name means editing this list, so the public
surface only changes on purpose.  The package root resolves its names on
first access, so the list is compared with ``confal.__all__`` and
``dir(confal)``, and each name is looked up on the package.
"""

import importlib

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
    assert confal.__all__ == EXPORTS
    assert len(EXPORTS) == 46
    assert set(EXPORTS) <= set(dir(confal))
    for name in EXPORTS:
        # The package hands out the object its defining module binds.
        module = importlib.import_module(f"confal.{confal._EXPORTS[name]}")
        assert getattr(confal, name) is module.__dict__[name], name


def test_unknown_names_are_attribute_errors():
    assert not hasattr(confal, "no_such_name")
