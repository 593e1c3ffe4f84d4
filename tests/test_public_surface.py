"""The names ``confal`` exports from its package root, pinned.

Adding or removing a public name means editing this list, so the public
surface only changes on purpose.  The package root resolves its names on
first access, so the list is compared with ``confal.__all__`` and
``dir(confal)``, and each name is looked up on the package.
"""

import ast
import importlib
import pkgutil
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
    "make_block",
    "make_bn",
    "make_heisenberg_virasoro",
    "make_heisenberg_virasoro_misprint",
    "make_schrodinger_virasoro",
    "make_virasoro",
    "rank_one_module",
    "resonance_analysis",
    "submodule_action",
    "symmetry_residual",
    "trivial_module",
    "verify_report",
]


def test_package_root_exports_exactly_the_pinned_names():
    assert confal.__all__ == EXPORTS
    assert len(EXPORTS) == 42
    assert set(EXPORTS) <= set(dir(confal))
    for name in EXPORTS:
        # The package hands out the object its defining module binds.
        module = importlib.import_module(f"confal.{confal._EXPORTS[name]}")
        assert getattr(confal, name) is module.__dict__[name], name


def test_a_refusal_is_a_value_error_and_a_disagreement_a_runtime_error():
    # The command line turns every ValueError into exit 2; a cross-check
    # disagreement is a finding, not a refusal of the input.
    assert issubclass(confal.WindowOverflowError, ValueError)
    assert issubclass(confal.UnsupportedAlgebraError, ValueError)
    assert issubclass(confal.UnsupportedModuleError, ValueError)
    assert issubclass(confal.ClosedFormMismatchError, RuntimeError)
    assert not issubclass(confal.ClosedFormMismatchError, ValueError)


def test_unknown_names_are_attribute_errors():
    assert not hasattr(confal, "no_such_name")


def test_records_store_only_what_they_cannot_derive():
    # Each derived value is a read-only property, so no record can be built
    # in a state that contradicts itself.
    from confal import annihilation, certificates, classify, modules

    fields = {
        modules.ConformalModule: ["rank", "alpha", "action"],
        modules.FamilyTag: ["p", "delta", "alpha", "beta"],
        modules.IrreducibilityVerdict: ["criterion_irreducible", "witness", "candidates_checked"],
        modules.SubmoduleResult: ["module", "offending_generator", "remainder"],
        annihilation.CharacterReport: ["dimension", "derived_rank", "characters"],
        certificates.Certificate: ["command", "inputs", "results", "caveats"],
        classify.ClassificationReport: [
            "alg", "top_index_bound", "degree_bound", "families", "steps", "battery",
            "caveats", "undecided"],
    }
    for cls, names in fields.items():
        # A certificate is a builder with slots; every record is a named tuple.
        stored = cls.__slots__ if cls is certificates.Certificate else cls._fields
        assert list(stored) == names, cls
    assert sum(map(len, fields.values())) == 28

    assert modules.trivial_module(1).kind == modules.KIND_SCALAR_DEL
    assert modules.IrreducibilityVerdict(True, None, []).search_irreducible
    assert not modules.SubmoduleResult(None, 0, None).invariant
    assert certificates.Certificate("c", {}).tool_version == confal.__version__
    report = classify.classify_bn(2)
    assert report.p == -2 and report.to_payload()["algebra"] == report.alg.name == "b(2)"


#: The value records of each module, every one a ``typing.NamedTuple``.
RECORDS = {
    "conformal": ["ConformalAlgebra", "PairResidual", "TripleResidual", "SkewReport",
                  "JacobiReport"],
    "modules": ["FamilyTag", "ConformalModule", "ModuleFailure", "ModuleReport",
                "SubmoduleResult", "IrreducibilityVerdict"],
    "annihilation": ["CentralityReport", "LieReport", "ResonanceReport", "IdealReport",
                     "CharacterReport"],
    "classify": ["DerivationStep", "FamilyPattern", "ViolationCertificate", "BatteryResult",
                 "ClassificationReport"],
    "certificates": ["CheckResult"],
}


def test_records_are_named_tuples_with_no_mutable_default():
    # A named tuple shares its defaults between instances, so a list, dict or
    # set default would be one object that every record appends to.
    for module_name, names in RECORDS.items():
        module = importlib.import_module(f"confal.{module_name}")
        for name in names:
            cls = getattr(module, name)
            assert cls.__bases__ == (tuple,), name
            assert tuple(cls.__annotations__) == cls._fields, name
            defaults = cls._field_defaults.values()
            assert not any(isinstance(v, (list, dict, set)) for v in defaults), name
    assert sum(map(len, RECORDS.values())) == 22
    # Apart from the records' empty ones, only these classes declare slots.
    stages = [importlib.import_module(f"confal.{info.name}")
              for info in pkgutil.iter_modules(confal.__path__) if info.name != "__main__"]
    slotted = {
        cls.__name__
        for module in stages
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and cls.__dict__.get("__slots__")
    }
    assert slotted == {"Poly", "Certificate"}


def test_no_module_asserts():
    # python -O strips an assert, so a refusal must be a raise.
    paths = sorted(Path(confal.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts at lines {lines}"
