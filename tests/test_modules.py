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

from confal.conformal import TruncationPolicy, make_block, make_bn, make_virasoro
from confal.modules import (
    FAMILY_BETA,
    FAMILY_PLAIN,
    KIND_SCALAR_DEL,
    ConformalModule,
    FamilyTag,
    UnsupportedModuleError,
    check_module,
    infer_family,
    is_irreducible_rank_one,
    is_isomorphic_rank_one,
    module_residual,
    rank_one_beta_module,
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
    assert mod.family == FamilyTag(
        FAMILY_PLAIN, p=Fraction(2), delta=Fraction(3), alpha=Fraction(1, 2)
    )


def test_beta_action_oracle():
    alg = make_bn(1)
    mod = rank_one_beta_module(alg, 1, 0, 7)
    assert mod.action[(0, 0)] == {0: -(DEL + LAM)}
    assert mod.action[(1, 0)] == {0: Poly.const(7)}
    # beta = 0 leaves no index-one row at all.
    assert (1, 0) not in rank_one_beta_module(alg, 1, 0, 0).action


def test_module_needs_bracket_family():
    with pytest.raises(Exception):
        rank_one_module(make_virasoro(), 1, 0)


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
                rep = check_module(alg, rank_one_beta_module(alg, delta, alpha, beta))
                assert rep.ok, (delta, alpha, beta)


def test_beta_bolt_on_fails_at_exact_pairs():
    # away from p = -1 the extension breaks the identity on the pairs
    # (0,1) and (1,0) with residual beta (1+p) x (resp. its mirror), and
    # nowhere else.
    alg = make_block(1, 3, TRUNC)
    mod = rank_one_beta_module(alg, 1, 0, 5)
    rep = check_module(alg, mod)
    assert not rep.ok
    assert sorted((f.i, f.j) for f in rep.failures) == [(0, 1), (1, 0)]
    by_pair = {(f.i, f.j): f.residual for f in rep.failures}
    assert by_pair[(0, 1)] == {0: 10 * LAM}
    assert by_pair[(1, 0)] == {0: -10 * MU}


def test_beta_bolt_on_failure_scales_with_parameter():
    for p in (Fraction(2), Fraction(-2), Fraction(1, 2)):
        alg = make_block(p, 3, TRUNC)
        mod = rank_one_beta_module(alg, 1, 0, 5)
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
    mod = ConformalModule(
        kind=KIND_SCALAR_DEL, rank=1, alpha=Fraction(1), action={(0, 0): {0: LAM}}
    )
    with pytest.raises(UnsupportedModuleError):
        check_module(alg, mod)
    with pytest.raises(UnsupportedModuleError):
        module_residual(alg, mod, 0, 0, 0)


def test_module_residual_zero_spot_checks():
    alg = make_block(Fraction(1, 2), 3, TRUNC)
    mod = rank_one_module(alg, Fraction(1, 2), 2)
    assert module_residual(alg, mod, 0, 0, 0) == {}
    assert module_residual(alg, mod, 1, 2, 0) == {}


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
    symbols = sympy.symbols("D x y u w")
    D, x, y = symbols[:3]

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
        mods += [rank_one_beta_module(alg, draw(), draw(), draw() or 1)
                 for _ in range(2)]
        for mod in mods:
            for i in alg.generators():
                for j in alg.generators():
                    got = to_sympy(module_residual(alg, mod, i, j, 0).get(0, Poly.zero()))
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
            assert is_isomorphic_rank_one(result.module, target)
            assert result.module.family.delta == 1
            assert result.module.family.alpha == alpha


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
    alg = make_bn(1)
    plain = rank_one_module(alg, 2, 3)
    beta = rank_one_beta_module(alg, 2, 3, 4)
    for mod in (plain, beta):
        fresh = mod.__class__(
            kind=mod.kind, rank=mod.rank, alpha=mod.alpha, action=mod.action
        )
        assert infer_family(fresh) == mod.family


def test_infer_family_rejects_foreign_tables():
    from confal.modules import ConformalModule, KIND_FREE

    bad_shapes = [
        {(0, 0): {0: DEL + MU}},        # stray bracket variable
        {(0, 0): {0: DEL**2 + LAM}},    # nonlinear in D
        {(0, 0): {0: LAM + 1}},         # no D part
        {(0, 0): {0: DEL}, (2, 0): {0: Poly.one()}},  # unexpected row
    ]
    for action in bad_shapes:
        mod = ConformalModule(kind=KIND_FREE, rank=1, alpha=None, action=action)
        assert infer_family(mod) is None, action


# -- irreducibility ---------------------------------------------------------------------


def test_irreducibility_dichotomy_plain():
    alg = make_block(1, 3, TRUNC)
    for alpha in (Fraction(0), Fraction(1), Fraction(-2)):
        reducible = is_irreducible_rank_one(rank_one_module(alg, 0, alpha))
        assert not reducible.irreducible
        assert reducible.witness == DEL + alpha
        for delta in (Fraction(1), Fraction(-1), Fraction(1, 2)):
            verdict = is_irreducible_rank_one(rank_one_module(alg, delta, alpha))
            assert verdict.irreducible
            assert verdict.witness is None
            assert verdict.criterion_irreducible == verdict.search_irreducible


def test_irreducibility_dichotomy_beta():
    alg = make_bn(1)
    assert is_irreducible_rank_one(rank_one_beta_module(alg, 0, 1, 3)).irreducible
    assert not is_irreducible_rank_one(rank_one_beta_module(alg, 0, 1, 0)).irreducible
    assert is_irreducible_rank_one(rank_one_beta_module(alg, 2, 1, 0)).irreducible


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


def test_irreducibility_cross_check_catches_mistagged_module():
    # a module whose tag lies about delta must trip the hard disagreement
    # error instead of silently trusting either answer.
    alg = make_block(1, 3, TRUNC)
    mod = rank_one_module(alg, 0, 1)
    mod.family = FamilyTag(FAMILY_PLAIN, p=Fraction(1), delta=Fraction(1), alpha=Fraction(1))
    with pytest.raises(RuntimeError):
        is_irreducible_rank_one(mod)


def test_irreducibility_needs_recognised_table():
    with pytest.raises(UnsupportedModuleError):
        is_irreducible_rank_one(trivial_module(1))


def test_random_reducible_points_have_witnesses():
    rng = random.Random(111)
    alg = make_block(-1, 3, TRUNC)
    for _ in range(20):
        alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        verdict = is_irreducible_rank_one(rank_one_module(alg, 0, alpha))
        assert not verdict.irreducible
        assert verdict.witness == DEL + alpha
        assert submodule_action(rank_one_module(alg, 0, alpha), verdict.witness).invariant


# -- isomorphism --------------------------------------------------------------------------


def test_isomorphism_is_table_equality():
    alg = make_block(1, 3, TRUNC)
    a = rank_one_module(alg, 1, 2)
    b = rank_one_module(alg, 1, 2)
    c = rank_one_module(alg, 1, 3)
    d = rank_one_module(alg, 2, 2)
    assert is_isomorphic_rank_one(a, b)
    assert not is_isomorphic_rank_one(a, c)
    assert not is_isomorphic_rank_one(a, d)


def test_isomorphism_distinguishes_beta():
    alg = make_bn(1)
    plain = rank_one_module(alg, 1, 0)
    with_beta = rank_one_beta_module(alg, 1, 0, 1)
    zero_beta = rank_one_beta_module(alg, 1, 0, 0)
    assert not is_isomorphic_rank_one(plain, with_beta)
    assert is_isomorphic_rank_one(plain, zero_beta)
