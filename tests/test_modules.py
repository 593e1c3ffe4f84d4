"""Tests for rank-one conformal modules over the bracket family.

Action oracles were computed by hand from the defining formulas.  The module
identity runs over parameter and coefficient grids; the beta-extension and
irreducibility tests pin down the exact boundaries the library claims: the
extension is a module only at parameter -1, and reducibility happens exactly on
the advertised locus with an explicit generator witness.
"""

import random
from fractions import Fraction

import pytest

from confal.conformal import (
    ConformalAlgebra,
    TruncationPolicy,
    UnsupportedAlgebraError,
    family_parameter,
    make_block,
    make_bn,
    make_virasoro,
)
from confal.modules import (
    KIND_FREE,
    KIND_SCALAR_DEL,
    ConformalModule,
    FamilyTag,
    UnsupportedModuleError,
    check_module,
    infer_family,
    is_irreducible_rank_one,
    rank_one_module,
    submodule_action,
    trivial_module,
)
from confal.poly import DEL, LAM, MU, Poly

TRUNC = TruncationPolicy.TRUNCATE_TO_ZERO
GRID = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


# -- construction oracles -----------------------------------------------------------


def test_rank_one_action_oracle():
    alg = make_block(2, 3, TRUNC)
    mod = rank_one_module(alg, 3, Fraction(1, 2))
    assert mod.action == {(0, 0): {0: 2 * DEL + 6 * LAM + 1}}


def test_beta_action_oracle():
    alg = make_bn(1)
    mod = rank_one_module(alg, 1, 0, 7)
    assert mod.action[(0, 0)] == {0: -(DEL + LAM)}
    assert mod.action[(1, 0)] == {0: Poly.const(7)}
    # beta = 0 leaves no index-one row at all.
    assert rank_one_module(alg, 1, 0, 0) == rank_one_module(alg, 1, 0)
    assert (1, 0) not in rank_one_module(alg, 1, 0).action


def test_module_needs_bracket_family():
    # p is read from [L_0 L_0]; Vir's (D + 2x) L gives p = 1, the table of
    # B(1) on window 0, and a table whose L_0 part has no D term gives none.
    assert rank_one_module(make_virasoro(), 1, 0) == rank_one_module(make_block(1, 0), 1, 0)
    no_d = ConformalAlgebra("no-D", TRUNC, {(0, 0): {0: 2 * LAM}}, ("L",))
    with pytest.raises(UnsupportedAlgebraError, match="has no D term"):
        rank_one_module(no_d, 1, 0)


# -- the module identity ---------------------------------------------------------------


def test_plain_family_identity_on_grid():
    for p in [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]:
        alg = make_block(p, 4, TRUNC)
        for delta in GRID:
            for alpha in GRID:
                rep = check_module(alg, rank_one_module(alg, delta, alpha))
                assert rep.ok, (p, delta, alpha, rep.failures[:1])


def test_beta_family_identity_at_minus_one():
    alg = make_block(-1, 4, TRUNC)
    for delta in GRID:
        for alpha in GRID:
            for beta in (Fraction(0), Fraction(1), Fraction(-2)):
                rep = check_module(alg, rank_one_module(alg, delta, alpha, beta))
                assert rep.ok, (delta, alpha, beta)


def test_beta_bolt_on_fails_at_exact_pairs():
    # away from p = -1 the extension breaks the identity on the pairs
    # (0,1) and (1,0) with residual beta (1+p) x (resp. its mirror), and
    # nowhere else.
    alg = make_block(1, 3, TRUNC)
    mod = rank_one_module(alg, 1, 0, 5)
    rep = check_module(alg, mod)
    assert not rep.ok
    assert sorted((f.i, f.j) for f in rep.failures) == [(0, 1), (1, 0)]
    by_pair = {(f.i, f.j): f.residual for f in rep.failures}
    assert by_pair[(0, 1)] == {0: 10 * LAM}
    assert by_pair[(1, 0)] == {0: -10 * MU}


def test_beta_bolt_on_failure_scales_with_parameter():
    for p in (Fraction(2), Fraction(-2), Fraction(1, 2)):
        alg = make_block(p, 3, TRUNC)
        mod = rank_one_module(alg, 1, 0, 5)
        rep = check_module(alg, mod)
        by_pair = {(f.i, f.j): f.residual for f in rep.failures}
        assert by_pair[(0, 1)] == {0: 5 * (1 + p) * LAM}


def test_trivial_module_identity():
    for p in (Fraction(1), Fraction(-1)):
        alg = make_block(p, 4, TRUNC)
        for alpha in (Fraction(0), Fraction(2), Fraction(-1, 2)):
            assert check_module(alg, trivial_module(alpha)).ok


def test_scalar_del_module_with_an_action_is_refused():
    # D acts by a scalar there, so the module is not free over the algebra's D.
    alg = make_block(1, 2, TRUNC)
    mod = ConformalModule(rank=1, alpha=Fraction(1), action={(0, 0): {0: LAM}})
    assert mod.kind == KIND_SCALAR_DEL
    with pytest.raises(UnsupportedModuleError):
        check_module(alg, mod)


def test_action_rows_of_generators_the_algebra_lacks_are_refused():
    # Vir has only L_0; a row for L_3 would never be walked.
    mod = ConformalModule(rank=1, alpha=None, action={(0, 0): {0: DEL + LAM}, (3, 0): {0: DEL**5}})
    assert mod.kind == KIND_FREE
    message = "action key '3,0' names generator 3, but 'Vir' has generators 0..0"
    with pytest.raises(UnsupportedModuleError, match=message):
        check_module(make_virasoro(), mod)
    # The beta family acts by L_1, which the window-0 table lacks.
    alg = make_block(1, 0, TRUNC)
    with pytest.raises(UnsupportedModuleError, match="action key '1,0' names generator 1"):
        check_module(alg, rank_one_module(alg, 0, 0, 1))
    assert check_module(alg, rank_one_module(alg, 0, 0, 0)).ok


def test_check_module_counts_available_pairs():
    alg = make_block(1, 3, TRUNC)
    rep = check_module(alg, rank_one_module(alg, 1, 0))
    assert rep.pairs_checked == 16


def test_module_residual_matches_sympy():
    # Re-derive [L_i x L_j]_{x+y} v - L_i x (L_j y v) + L_j y (L_i x v) from
    # the table entries with sympy's own substitution.  An algebra element
    # f(D) L_m acts with variable x+y as f(-x-y) L_m, and pulling L_i x past
    # a module coefficient g(D) turns it into g(D+x).
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("D x y")
    D, x, y = symbols

    def to_sympy(poly):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, exp)))
            for exp, c in poly.terms()
        ))

    def expected(alg, mod, i, j):
        act = {g: to_sympy(mod.action_of(g, 0).get(0, Poly.zero())) for g in alg.generators()}
        outer = sum((
            to_sympy(s).subs(D, -x - y) * act[m].subs(x, x + y)
            for m, s in alg.structure_of(i, j).items()
        ), sympy.Integer(0))
        inner_ij = act[j].subs({D: D + x, x: y}, simultaneous=True) * act[i]
        inner_ji = act[i].subs(D, D + y) * act[j].subs(x, y)
        return sympy.expand(outer - inner_ij + inner_ji)

    rng = random.Random(808)

    def draw():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    nonzero = 0
    for p in (Fraction(-1), Fraction(1, 2), Fraction(2)):
        alg = make_block(p, 3, TRUNC)
        mods = [rank_one_module(alg, draw(), draw()) for _ in range(2)]
        mods += [rank_one_module(alg, draw(), draw(), draw() or 1)
                 for _ in range(2)]
        for mod in mods:
            # A pair that does not fail must give 0 in sympy too.
            failures = {(f.i, f.j): f.residual for f in check_module(alg, mod).failures}
            for i in alg.generators():
                for j in alg.generators():
                    got = to_sympy(failures.get((i, j), {}).get(0, Poly.zero()))
                    assert sympy.expand(got - expected(alg, mod, i, j)) == 0, (p, i, j)
                    nonzero += got != 0
    # The beta tables off p = -1 fail the identity, so both outcomes are compared.
    assert nonzero


# -- submodules --------------------------------------------------------------------


def test_submodule_generator_shifts_delta_by_one():
    for p in (Fraction(1), Fraction(-1)):
        alg = make_block(p, 4, TRUNC)
        for alpha in (Fraction(0), Fraction(1), Fraction(-2)):
            m0 = rank_one_module(alg, 0, alpha)
            result = submodule_action(m0, DEL + alpha)
            assert result.invariant
            target = rank_one_module(alg, 1, alpha)
            assert result.module.action == target.action
            tag = infer_family(result.module)
            assert (tag.delta, tag.alpha) == (1, alpha)


def test_submodule_rejects_non_invariant_generator():
    alg = make_block(1, 3, TRUNC)
    m0 = rank_one_module(alg, 0, 1)
    result = submodule_action(m0, DEL)  # wrong root: alpha is 1, not 0
    assert not result.invariant
    assert result.offending_generator == 0
    assert result.remainder is not None and not result.remainder.is_zero()


def test_submodule_input_validation():
    alg = make_block(1, 3, TRUNC)
    m = rank_one_module(alg, 1, 0)
    with pytest.raises(ValueError):
        submodule_action(m, Poly.zero())
    with pytest.raises(ValueError):
        submodule_action(m, DEL + LAM)
    with pytest.raises(UnsupportedModuleError):
        submodule_action(trivial_module(0), DEL)


# -- family recognition ----------------------------------------------------------------


def test_infer_family_round_trip():
    # The table is the only record of the parameters that built it: reading
    # it back recovers each of them, and beta = 0 reads as the plain family.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(max_denominator=50).filter(lambda q: abs(q) <= 100)
    algebras = [make_bn(1), make_bn(3)] + [
        make_block(p, 2, TRUNC) for p in (Fraction(1), Fraction(-1), Fraction(2, 7))
    ]

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(algebras), rationals, rationals, rationals)
    def round_trip(alg, delta, alpha, beta):
        tag = infer_family(rank_one_module(alg, delta, alpha, beta))
        expected = FamilyTag(p=family_parameter(alg), delta=delta, alpha=alpha,
                             beta=beta or None)
        assert tag == expected and hash(tag) == hash(expected)

    round_trip()


def test_a_family_tag_is_read_only():
    tag = FamilyTag(Fraction(1), Fraction(0), Fraction(2))
    for name in FamilyTag._fields:
        with pytest.raises(AttributeError):
            setattr(tag, name, Fraction(3))
        with pytest.raises(AttributeError):
            delattr(tag, name)
    assert (tag.p, tag.delta, tag.alpha, tag.beta) == (1, 0, 2, None)


def test_infer_family_rejects_foreign_tables():
    from confal.modules import ConformalModule

    bad_shapes = [
        {(0, 0): {0: DEL + MU}},        # stray bracket variable
        {(0, 0): {0: DEL**2 + LAM}},    # nonlinear in D
        {(0, 0): {0: LAM + 1}},         # no D part
        {(0, 0): {0: DEL}, (2, 0): {0: Poly.const(1)}},  # unexpected row
        {(0, 0): {0: DEL}, (1, 0): {0: LAM}},         # L_1 row not a constant
    ]
    for action in bad_shapes:
        mod = ConformalModule(rank=1, alpha=None, action=action)
        assert infer_family(mod) is None, action


# -- irreducibility ---------------------------------------------------------------------


def test_irreducibility_dichotomy_plain():
    alg = make_block(1, 3, TRUNC)
    for alpha in (Fraction(0), Fraction(1), Fraction(-2)):
        reducible = is_irreducible_rank_one(rank_one_module(alg, 0, alpha))
        assert reducible.irreducible is False
        assert reducible.witness == DEL + alpha
        for delta in (Fraction(1), Fraction(-1), Fraction(1, 2)):
            verdict = is_irreducible_rank_one(rank_one_module(alg, delta, alpha))
            assert verdict.irreducible is True
            assert verdict.witness is None
            assert verdict.criterion_irreducible == verdict.search_irreducible


def test_irreducibility_dichotomy_beta():
    alg = make_bn(1)
    assert is_irreducible_rank_one(rank_one_module(alg, 0, 1, 3)).irreducible is True
    assert is_irreducible_rank_one(rank_one_module(alg, 0, 1, 0)).irreducible is False
    assert is_irreducible_rank_one(rank_one_module(alg, 2, 1, 0)).irreducible is True


def test_irreducibility_candidates_are_binomial_powers():
    alg = make_block(1, 3, TRUNC)
    verdict = is_irreducible_rank_one(rank_one_module(alg, 2, 1), degree_bound=3)
    assert verdict.candidates_checked == [
        DEL + 1,
        (DEL + 1) ** 2,
        (DEL + 1) ** 3,
    ]


def test_invariance_candidate_solves_the_linear_condition():
    # g = (D + alpha)^d solves g'(D) (D + alpha) - d g(D) = 0, and no other
    # monic g of degree d does: the condition maps D^j to
    # (j - d) D^j + j alpha D^(j-1), so it is injective below degree d.
    def condition(g, alpha, d):
        deriv = sum((c * e * DEL ** (e - 1) for (e, *_), c in g.terms() if e), Poly.zero())
        return deriv * (DEL + alpha) - d * g

    for alpha in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5)):
        for d in range(7):
            assert condition((DEL + alpha) ** d, alpha, d).is_zero()
            for j in range(d):
                lower = j * alpha * DEL ** (j - 1) if j else 0
                assert condition(DEL**j, alpha, d) == (j - d) * DEL**j + lower


def test_irreducibility_cross_check_reports_a_disagreement(blind_submodule_search):
    # With a search that finds no invariant span, a reducible module must come
    # back as a disagreement carrying both answers instead of silently
    # trusting either one.
    alg = make_block(1, 3, TRUNC)
    verdict = is_irreducible_rank_one(rank_one_module(alg, 0, 1))
    assert not verdict.agreed
    with pytest.raises(RuntimeError, match="disagree"):
        verdict.irreducible
    assert not verdict.criterion_irreducible and verdict.search_irreducible
    assert verdict.witness is None
    assert verdict.candidates_checked == [DEL + 1, (DEL + 1) ** 2, (DEL + 1) ** 3]
    payload = verdict.to_payload()
    assert (payload["verdict"], payload["criterion"], payload["search"]) == (
        "DISAGREED", False, True)


def test_irreducibility_needs_recognised_table():
    with pytest.raises(UnsupportedModuleError):
        is_irreducible_rank_one(trivial_module(1))


def test_random_reducible_points_have_witnesses():
    rng = random.Random(111)
    alg = make_block(-1, 3, TRUNC)
    for _ in range(20):
        alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        verdict = is_irreducible_rank_one(rank_one_module(alg, 0, alpha))
        assert verdict.irreducible is False
        assert verdict.witness == DEL + alpha
        assert submodule_action(rank_one_module(alg, 0, alpha), verdict.witness).invariant
