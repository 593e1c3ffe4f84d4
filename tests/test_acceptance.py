"""Release gate: nine end-to-end checks, one test per numbered criterion.

Every check is exact (rational arithmetic, tolerance zero).  Structure
coefficients of the bracket family are cubic in the family parameter, so the
four parameter values 1, -1, 2, -2 decide polynomial identities in that
parameter exactly.  Each test prints one "CRITERION n: PASS" line; run with
-v (or -s) to see them as a checklist.  The whole file is budgeted to finish
in well under a minute.
"""

import contextlib
import io
from fractions import Fraction

from confal.annihilation import (
    ResonanceCase,
    annihilation_subquotient,
    build_annihilation,
    check_central,
    check_lie,
    characters,
    ideal_and_nilpotency,
    label_J,
    label_L,
    resonance_analysis,
)
from confal.classify import classify_bn, classify_rank_one
from confal.cli import main
from confal.conformal import (
    TruncationPolicy,
    check_jacobi,
    check_skew,
    make_block,
    make_bn,
    make_heisenberg_virasoro,
    make_heisenberg_virasoro_misprint,
    make_schrodinger_virasoro,
)
from confal.modules import (
    check_module,
    is_irreducible_rank_one,
    rank_one_module,
    submodule_action,
)
from confal.poly import DEL, LAM, MU

SCHEDULE = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]

GRID = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
BETA_GRID = [Fraction(0), Fraction(1), Fraction(-2)]


def _axioms_clean(alg) -> None:
    skew = check_skew(alg)
    jac = check_jacobi(alg)
    assert skew.ok and skew.failures == [], alg.name
    assert jac.ok and jac.failures == [], alg.name


def test_criterion_1_axiom_suite():
    """Bracket family, its quotients, and the two handwritten tables are Lie."""
    for p in SCHEDULE:
        for window in (3, 6):
            _axioms_clean(make_block(p, window))
    for n in (1, 2, 3):
        _axioms_clean(make_bn(n))
    _axioms_clean(make_heisenberg_virasoro())
    _axioms_clean(make_schrodinger_virasoro())
    print("CRITERION 1: PASS (axiom suite exact, zero residuals)")


def test_criterion_2_misprint_falsifier():
    """The documented sign slip fails on exactly one pair; the fix passes."""
    bad = make_heisenberg_virasoro_misprint()
    skew = check_skew(bad)
    assert not skew.ok
    assert [(f.i, f.j) for f in skew.failures] == [(1, 0)]
    residual = skew.failures[0].residual
    assert residual == {0: LAM, 1: -LAM}
    good = make_heisenberg_virasoro()
    assert check_skew(good).ok
    assert check_jacobi(good).ok
    print("CRITERION 2: PASS (one failing pair, residual x*(gen0 - gen1))")


def test_criterion_3_mode_expansion_matches_closed_form():
    """The binomial-sum mode table equals the closed form on every pair.

    build_annihilation already computes both routes and raises on any
    disagreement; this test re-derives the closed form a third time, in
    place, and counts the comparisons.
    """
    compared = 0
    for p in SCHEDULE:
        for w in (2, 4, 6):
            base = make_block(p, w, TruncationPolicy.TRUNCATE_TO_ZERO)
            ann = build_annihilation(base, w, w)
            coords = ann.coords
            for x, (i, m) in coords.items():
                for y, (j, n) in coords.items():
                    coeff = (j + p) * (m + 1) - (i + p) * (n + 1)
                    ti, tm = i + j, m + n
                    expected = {}
                    if coeff and ti <= w and tm <= w:
                        expected = {label_L(ti, tm): coeff}
                    assert ann.bracket_basis(x, y) == expected
                    compared += 1
    assert compared == 4 * (12**2 + 30**2 + 56**2)
    print(f"CRITERION 3: PASS (mode expansion vs closed form, {compared} pairs)")


def test_criterion_4_translation_recentering_is_central():
    """T - (1/p) L(0,-1) commutes with the whole (4,4) window."""
    for p in (1, -1, -2):
        base = make_block(p, 4, TruncationPolicy.TRUNCATE_TO_ZERO)
        ext = build_annihilation(base, 4, 4, extended=True)
        report = check_central(ext)
        assert report.ok
        assert report.failures == []
        assert report.excluded == []
        assert report.checked == len(ext.basis)
    print("CRITERION 4: PASS (central element, zero nonzero brackets)")


def test_criterion_5_module_dichotomy():
    """Rank-one tables pass on the grids; the bolted-on constant row fails."""
    for p in SCHEDULE:
        alg = make_block(p, 3)
        for delta in GRID:
            for alpha in GRID:
                report = check_module(alg, rank_one_module(alg, delta, alpha))
                assert report.ok, (p, delta, alpha)

    special = make_block(-1, 3)
    for delta in GRID:
        for alpha in GRID:
            for beta in BETA_GRID:
                mod = rank_one_module(special, delta, alpha, beta)
                report = check_module(special, mod)
                assert report.ok, (delta, alpha, beta)

    for p in (1, 2, -2, Fraction(1, 2)):
        alg = make_block(p, 3)
        mod = rank_one_module(alg, 1, 0, 5)
        report = check_module(alg, mod)
        assert not report.ok, p
        by_pair = {(f.i, f.j): f.residual for f in report.failures}
        assert (0, 1) in by_pair, p
        assert any(not poly.is_zero() for poly in by_pair[(0, 1)].values())
    print("CRITERION 5: PASS (grid identities hold; constant row fails at (0,1))")


def test_criterion_6_classification_replay():
    """One family per parameter, with the cross-relation kill where expected."""
    report = classify_rank_one(-1, top_index_bound=4, degree_bound=6)
    assert [f.tag for f in report.families] == ["M_delta_alpha_beta"]
    assert report.undecided == []

    for p in (1, 2, -2, -3, Fraction(1, 2)):
        report = classify_rank_one(Fraction(p), top_index_bound=4, degree_bound=6)
        assert [f.tag for f in report.families] == ["M_delta_alpha"], p
        assert report.undecided == []
        cross = [s for s in report.steps if s.rule == "CROSS_RELATION_KILL"]
        if p in (-2, -3):
            assert cross, p
            expected = LAM + (1 + Fraction(p)) * MU
            assert any(
                s.polys["relation_coefficient"] == expected for s in cross
            ), p

    for n in (1, 2, 3, 4):
        report = classify_bn(n, degree_bound=6)
        want = "M_delta_alpha_beta" if n == 1 else "M_delta_alpha"
        assert [f.tag for f in report.families] == [want], n
        assert report.undecided == []
    print("CRITERION 6: PASS (families and beta-kill steps as expected)")


def test_criterion_7_submodule_structure():
    """The shift generator realizes the unique proper submodule chain."""
    for p in (1, -1):
        alg = make_block(p, 3)
        for alpha in (Fraction(0), Fraction(1), Fraction(-2)):
            bottom = rank_one_module(alg, 0, alpha)
            shift = DEL + alpha
            sub = submodule_action(bottom, shift)
            assert sub.invariant
            assert sub.remainder is None
            assert sub.module.action == rank_one_module(alg, 1, alpha).action
            verdict = is_irreducible_rank_one(bottom, degree_bound=3)
            assert verdict.irreducible is False
            assert verdict.witness == shift
            assert verdict.candidates_checked == [
                shift,
                shift * shift,
                shift * shift * shift,
            ]

    fixture = [
        (Fraction(1), Fraction(0), Fraction(0), None),
        (Fraction(1), Fraction(1), Fraction(0), None),
        (Fraction(1), Fraction(0), Fraction(1), None),
        (Fraction(1), Fraction(2), Fraction(-1), None),
        (Fraction(2), Fraction(0), Fraction(0), None),
        (Fraction(2), Fraction(1), Fraction(2), None),
        (Fraction(2), Fraction(3), Fraction(1, 2), None),
        (Fraction(-2), Fraction(0), Fraction(1), None),
        (Fraction(-2), Fraction(1), Fraction(-1), None),
        (Fraction(1, 2), Fraction(0), Fraction(-2), None),
        (Fraction(1, 2), Fraction(2), Fraction(0), None),
        (Fraction(-3), Fraction(1), Fraction(1), None),
        (Fraction(-1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(0), Fraction(0), Fraction(3)),
        (Fraction(-1), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(-1), Fraction(1), Fraction(1), Fraction(-2)),
        (Fraction(-1), Fraction(2), Fraction(0), Fraction(1)),
        (Fraction(-1), Fraction(0), Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(3), Fraction(1), Fraction(0)),
    ]
    assert len(fixture) == 20
    for p, delta, alpha, beta in fixture:
        alg = make_block(p, 3)
        if beta is None:
            mod = rank_one_module(alg, delta, alpha)
        else:
            mod = rank_one_module(alg, delta, alpha, beta)
        verdict = is_irreducible_rank_one(mod, degree_bound=3)
        assert verdict.criterion_irreducible == verdict.search_irreducible, (
            p,
            delta,
            alpha,
            beta,
        )
    print("CRITERION 7: PASS (submodule chain and 20-case dichotomy, 0 disagreements)")


def test_criterion_8_subquotient_structural_suite():
    """Resonance taxonomy, scaling spectrum, ideals, a central corner, solvability.

    The corner fact is read off the table: at a corner resonance ``J(i0,m0)``
    brackets to zero with every label, so it is central, and it is ``1/b``
    times ``[J(i0,0), J(0,m0)]`` with ``b != 0``.  A central element acts by
    a scalar on a finite-dimensional irreducible representation, and a
    commutator has trace zero, so the corner acts by zero there (Cheng and
    Kac, "Conformal modules", 1997).
    """
    cases = [
        (Fraction(1), 2, 3, ResonanceCase.RESONANCE_BELOW_MODE_CAP, "top_mode_slice"),
        (Fraction(1, 2), 2, 4, ResonanceCase.RESONANCE_AT_CORNER, "corner_hook"),
        (Fraction(-1), 2, 2, ResonanceCase.P_NOT_POSITIVE_RATIONAL, "scaling_complement"),
        (Fraction(3, 7), 2, 4, ResonanceCase.NO_RESONANCE, "scaling_complement"),
    ]
    corner_b = None
    for p, k, N, want_case, want_ideal in cases:
        G = annihilation_subquotient(p, k, N)
        res = resonance_analysis(G)
        if want_case is ResonanceCase.RESONANCE_AT_CORNER:
            corner = label_J(*res.top_resonance)
            assert not any(G.bracket_basis(corner, x) or G.bracket_basis(x, corner)
                           for x in G.basis), (p, k, N)
            assert res.corner_coefficient != 0

        # [G, G] lies in the span of the bracket targets, a nilpotent ideal,
        # so G is solvable.
        targets = {target for target, _ in G.table.values()}
        derived = ideal_and_nilpotency(G, [x for x in G.basis if x in targets])
        assert derived.is_ideal and derived.nilpotent, (p, k, N)

        lie = check_lie(G)
        assert lie.ok and lie.triples_excluded == 0, (p, k, N)

        scaler = label_J(0, 0)
        for x, (i, m) in G.coords.items():
            eig = i - p * m
            expected = {x: eig} if eig else {}
            assert G.bracket_basis(scaler, x) == expected, (p, x)

        assert res.case is want_case, (p, k, N)
        assert res.ideal_name == want_ideal, (p, k, N)

        ideal = ideal_and_nilpotency(G, list(res.ideal))
        assert ideal.is_ideal, (p, k, N)
        assert ideal.nilpotent, (p, k, N)
        if want_ideal == "top_mode_slice":
            assert ideal.abelian
        if want_case is ResonanceCase.RESONANCE_AT_CORNER:
            i0, m0 = res.top_resonance
            corner_b = res.corner_coefficient
            assert corner_b == -(i0 + p) * m0 - i0
            assert corner_b < 0
            assert ideal.nilpotency_class == 2
            assert ideal.series_dims == [7, 1]

        # The one character is the dual of J(0,0), which no bracket targets,
        # and it vanishes on every bracket.
        chars = characters(G)
        assert chars.characters == [{scaler: 1}], (p, k, N)
        assert not any(
            scaler in G.bracket_basis(x, y) for x in G.basis for y in G.basis), (p, k, N)

    assert corner_b == Fraction(-12)
    print("CRITERION 8: PASS (taxonomy, spectrum, ideals, central corner, solvable)")


def test_criterion_9_certificates_are_deterministic():
    """Same command line, same bytes, for every subcommand."""

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    invocations = [
        ["verify-algebra", "--alg", "bn", "--n", "2"],
        ["verify-module", "--alg", "bn", "--n", "1", "--mod", "M:1:2"],
        ["classify", "--p", "1", "--K", "4"],
        ["annihilation", "--p", "1", "--idx", "3", "--mode", "3", "--extended"],
        ["annihilation", "--p", "1", "--G", "--k", "2", "--N", "2"],
    ]
    for argv in invocations:
        first = run(argv)
        second = run(argv)
        assert first == second, argv
        assert first[0] == 0, argv
        assert first[1].endswith("\n")
    print("CRITERION 9: PASS (byte-identical certificates run to run)")
