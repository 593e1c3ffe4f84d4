"""Bracket axiom tests for the windowed conformal algebra layer.

Bracket oracles were computed by hand from the defining table and frozen
before the checkers existed; the axiom runs then confirm the checkers agree
with them.  Falsification cases assert that a wrong table is caught at the
exact advertised location.
"""

import random
from fractions import Fraction

import pytest

from confal import conformal
from confal.conformal import (
    ConformalAlgebra,
    TruncationPolicy,
    WindowOverflowError,
    check_jacobi,
    check_skew,
    family_parameter,
    jacobi_residual,
    make_block,
    make_bn,
    make_heisenberg_virasoro,
    make_heisenberg_virasoro_misprint,
    make_schrodinger_virasoro,
    make_virasoro,
    skew_residual,
)
from confal.linalg import add_terms
from confal.modules import KIND_FREE, ConformalModule, check_module, module_residual
from confal.poly import DEL, LAM, MU, Poly, Var

TRUNC = TruncationPolicy.TRUNCATE_TO_ZERO
ERROR = TruncationPolicy.ERROR_ON_OVERFLOW


# -- table oracles -------------------------------------------------------------


def test_block_table_entries_oracle():
    # [L_i L_j] = ((i+p) D + (i+j+2p) x) L_{i+j}, frozen for p=1 by hand.
    alg = make_block(1, 4, TRUNC)
    assert alg.structure_of(0, 0) == {0: DEL + 2 * LAM}
    assert alg.structure_of(1, 2) == {3: 2 * DEL + 5 * LAM}
    assert alg.structure_of(2, 2) == {4: 3 * DEL + 6 * LAM}
    # p = -2 zeroes the D part at i = 2.
    alg2 = make_block(-2, 4, TRUNC)
    assert alg2.structure_of(2, 1) == {3: -LAM}


def test_block_rejects_zero_parameter():
    with pytest.raises(ValueError):
        make_block(0, 3)


def test_window_policies():
    err = make_block(1, 2, ERROR)
    trunc = make_block(1, 2, TRUNC)
    assert err.structure_of(1, 1) == trunc.structure_of(1, 1)
    with pytest.raises(WindowOverflowError):
        err.structure_of(2, 2)
    assert trunc.structure_of(2, 2) == {}
    assert not err.pair_defined(2, 2)
    assert trunc.pair_defined(2, 2)


def test_bn_is_block_at_minus_n():
    bn = make_bn(3)
    ref = make_block(-3, 3, TRUNC)
    assert family_parameter(bn) == Fraction(-3)
    assert bn.window == 3
    for i in range(4):
        for j in range(4):
            assert bn.structure_of(i, j) == ref.structure_of(i, j)
    with pytest.raises(ValueError):
        make_bn(0)


def test_an_algebra_is_its_table_and_its_generator_names():
    assert ConformalAlgebra._fields == ("name", "policy", "structure", "gen_names")
    alg = make_bn(3)
    assert alg.window == len(alg.gen_names) - 1 == 3
    with pytest.raises(AttributeError):
        alg.window = 4


def test_family_parameter_is_read_from_the_index_zero_bracket():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nonzero = st.fractions(max_denominator=30).filter(lambda q: q != 0 and abs(q) <= 50)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(nonzero, st.integers(0, 8), st.sampled_from([TRUNC, ERROR]))
    def block(p, window, policy):
        assert family_parameter(make_block(p, window, policy)) == p

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 8))
    def bn(n):
        assert family_parameter(make_bn(n)) == -n

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                      nonzero, max_size=4))
    def without_d_term(terms):
        # Any [L_0 L_0] whose L_0 part lacks the monomial D is refused.
        entry = Poly({(d, x, 0): c for (d, x), c in terms.items() if (d, x) != (1, 0)})
        alg = ConformalAlgebra("no-D", TRUNC, {(0, 0): {0: entry, 1: DEL}}, ("L_0", "L_1"))
        with pytest.raises(conformal.UnsupportedAlgebraError):
            family_parameter(alg)

    block()
    bn()
    without_d_term()
    for alg in (make_virasoro(), make_heisenberg_virasoro(), make_schrodinger_virasoro()):
        assert family_parameter(alg) == 1


def _rescaled(alg, c):
    """The table of ``alg`` in the basis ``e_i = c_i L_i``."""
    return {
        (i, j): {k: (c[i] * c[j] / c[k]) * s for k, s in entry.items()}
        for (i, j), entry in alg.structure.items()
    }


def test_bn_rescales_to_hv_and_sv():
    # b(1) and b(2) are HV and SV up to a diagonal rescaling of generators.
    assert _rescaled(make_bn(1), [Fraction(-1), Fraction(1)]) == (
        make_heisenberg_virasoro().structure
    )
    assert _rescaled(make_bn(2), [Fraction(-1, 2), Fraction(1), Fraction(-1)]) == (
        make_schrodinger_virasoro().structure
    )


# -- axiom runs ----------------------------------------------------------------


def test_block_axioms_across_parameter_schedule():
    for p in [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]:
        alg = make_block(p, 6, TRUNC)
        skew = check_skew(alg)
        jac = check_jacobi(alg)
        assert skew.ok, f"skew failed at p={p}: {skew.failures[:1]}"
        assert jac.ok, f"jacobi failed at p={p}: {jac.failures[:1]}"
        assert skew.pairs_checked == 28
        assert jac.triples_checked == 343


def test_block_axioms_under_error_policy():
    alg = make_block(Fraction(1, 2), 4, ERROR)
    assert check_skew(alg).ok
    jac = check_jacobi(alg)
    assert jac.ok
    # only triples with index sum inside the window are available.
    assert jac.triples_checked == sum(
        1
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if a + b + c <= 4
    )


def test_quotient_family_axioms():
    for n in (1, 2, 3):
        bn = make_bn(n)
        assert check_skew(bn).ok
        assert check_jacobi(bn).ok


def test_named_tables_axioms():
    for alg in (make_virasoro(), make_heisenberg_virasoro(), make_schrodinger_virasoro()):
        assert check_skew(alg).ok, alg.name
        assert check_jacobi(alg).ok, alg.name


def test_misprint_variant_fails_at_exactly_one_pair():
    alg = make_heisenberg_virasoro_misprint()
    skew = check_skew(alg)
    assert not skew.ok
    assert len(skew.failures) == 1
    failure = skew.failures[0]
    assert (failure.i, failure.j) == (1, 0)
    # residual x L - x M: the wrong table row plus the skew image of [L M].
    assert failure.residual == {0: LAM, 1: -LAM}
    # the Jacobi checker independently rejects the same table.
    assert not check_jacobi(alg).ok


def test_skew_residual_involution():
    # the (j, i) residual is the x -> -x - D image of the (i, j) residual,
    # which justifies walking only the lower triangle.
    alg = make_heisenberg_virasoro_misprint()
    r_lower = skew_residual(alg, 1, 0)
    r_upper = skew_residual(alg, 0, 1)
    mapped = {
        k: v.substitute(Var.LAMBDA, -LAM - DEL) for k, v in r_lower.items()
    }
    assert add_terms(dict(r_upper), ((k, -v) for k, v in mapped.items())) == {}


def test_random_table_perturbations_are_caught():
    # flipping any single structure coefficient must break an axiom.
    rng = random.Random(707)
    base = make_block(2, 3, TRUNC)
    keys = sorted(base.structure)
    for _ in range(10):
        i, j = keys[rng.randrange(len(keys))]
        tampered = make_block(2, 3, TRUNC)
        entry = dict(tampered.structure[(i, j)])
        k = next(iter(entry))
        entry[k] = entry[k] + rng.choice([1, -1, 2]) * LAM
        tampered.structure[(i, j)] = entry
        assert not (check_skew(tampered).ok and check_jacobi(tampered).ok)


def test_jacobi_residual_zero_on_specific_triples():
    alg = make_schrodinger_virasoro()
    assert jacobi_residual(alg, 0, 1, 1) == {}
    assert jacobi_residual(alg, 1, 1, 0) == {}


# -- the compiled Jacobi kernel against the per-triple formula ------------------


def reference_jacobi_residual(alg, a, b, c):
    """The Jacobi residual substituted afresh for every triple.

    This is the formula the checker used before it compiled the table: the
    middle term is ``g(-x-y) * entry(x+y)``, substituted in each factor
    before the product.
    """
    residual = {}
    for m, h in alg.structure_of(b, c).items():
        lifted = h.substitute(Var.LAMBDA, MU).substitute(Var.PARTIAL, DEL + LAM)
        for k, entry in alg.structure_of(a, m).items():
            residual[k] = residual.get(k, Poly.zero()) + lifted * entry
    for m, g in alg.structure_of(a, b).items():
        g_out = g.substitute(Var.PARTIAL, -LAM - MU)
        for k, entry in alg.structure_of(m, c).items():
            term = g_out * entry.substitute(Var.LAMBDA, LAM + MU)
            residual[k] = residual.get(k, Poly.zero()) - term
    for m, u in alg.structure_of(a, c).items():
        u_shift = u.substitute(Var.PARTIAL, DEL + MU)
        for k, entry in alg.structure_of(b, m).items():
            entry_mu = entry.substitute(Var.LAMBDA, MU)
            residual[k] = residual.get(k, Poly.zero()) - u_shift * entry_mu
    return {k: v for k, v in residual.items() if not v.is_zero()}


def reference_check_jacobi(alg):
    """Triple count and ordered failures of the per-triple walk."""
    gens = list(alg.generators())
    checked, failures = 0, []
    for a in gens:
        for b in gens:
            for c in gens:
                if alg.policy is ERROR and a + b + c > alg.window:
                    continue
                checked += 1
                residual = reference_jacobi_residual(alg, a, b, c)
                if residual:
                    failures.append((a, b, c, residual))
    return checked, failures


def kernel_check_jacobi(alg):
    report = check_jacobi(alg)
    failures = [(f.i, f.j, f.k, f.residual) for f in report.failures]
    return report.triples_checked, failures


def jacobi_outcome(walk, alg):
    try:
        return walk(alg)
    except WindowOverflowError as exc:
        return "overflow", str(exc)


def assert_kernel_matches_reference(alg):
    expected = jacobi_outcome(reference_check_jacobi, alg)
    assert jacobi_outcome(kernel_check_jacobi, alg) == expected
    if expected[0] != "overflow":
        for a, b, c, residual in expected[1]:
            assert jacobi_residual(alg, a, b, c) == residual
    return expected


@pytest.mark.parametrize(
    "build",
    [
        make_heisenberg_virasoro_misprint,
        make_schrodinger_virasoro,
        lambda: make_block(Fraction(-1, 2), 5, ERROR),
        lambda: make_bn(4),
    ],
    ids=["hv-misprint", "sv", "block-minus-half-error", "b4"],
)
def test_compiled_jacobi_matches_reference(build):
    alg = build()
    checked, failures = assert_kernel_matches_reference(alg)
    assert checked > 0
    assert bool(failures) == (alg.name == "HV-misprint")


def test_leaky_error_table_overflows_at_the_reference_pair():
    alg = ConformalAlgebra(
        name="leaky",
        policy=ERROR,
        structure={(0, 1): {2: DEL + LAM}},
        gen_names=("L_0", "L_1", "L_2"),
    )
    outcome = assert_kernel_matches_reference(alg)
    assert outcome == (
        "overflow",
        "bracket of pair (2, 1) escapes window 2 of 'leaky' under ERROR_ON_OVERFLOW",
    )


def random_table_strategies(st):
    """Strategies for table entries and small tables under both policies."""
    # Denominators make the kernel scale its table by their lcm.
    coeff = st.fractions(-3, 3, max_denominator=4)
    poly = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, max_size=3
    ).map(lambda terms: Poly({(d, x, 0): c for (d, x), c in terms.items()}))

    @st.composite
    def tables(draw):
        window = draw(st.integers(0, 2))
        gens = st.integers(0, window)
        structure = draw(
            st.dictionaries(
                st.tuples(gens, gens),
                st.dictionaries(gens, poly, min_size=1, max_size=2),
                max_size=6,
            )
        )
        return ConformalAlgebra(
            name="random",
            policy=draw(st.sampled_from([TRUNC, ERROR])),
            structure=structure,
            gen_names=tuple(f"L_{i}" for i in range(window + 1)),
        )

    return poly, tables()


def test_compiled_jacobi_matches_reference_on_random_tables():
    hypothesis = pytest.importorskip("hypothesis")
    _, tables = random_table_strategies(hypothesis.strategies)

    @hypothesis.settings(
        max_examples=80, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(tables)
    def check(alg):
        assert_kernel_matches_reference(alg)

    check()


def test_wide_exponents_widen_the_packing():
    # Products of degree 260 do not fit 8-bit exponent slots.
    alg = ConformalAlgebra(
        name="wide",
        policy=TRUNC,
        structure={(0, 0): {0: DEL**130 + LAM}, (0, 1): {1: DEL + LAM}, (1, 0): {1: LAM}},
        gen_names=("L", "M"),
    )
    assert conformal._PackedTable(alg).width == 9
    _, failures = assert_kernel_matches_reference(alg)
    assert failures


def test_tampered_fractional_table_reports_exact_residuals():
    alg = make_block(Fraction(1, 3), 4, TRUNC)
    alg.structure[(1, 2)] = {3: alg.structure[(1, 2)][3] + Fraction(1, 2) * LAM}
    assert conformal._PackedTable(alg).scale == 6
    _, failures = assert_kernel_matches_reference(alg)
    assert failures


def test_residuals_on_different_targets_do_not_cancel():
    # [L_0 L_0] = x L_0 - x L_1 leaves (-x^2 - xy)(L_0 - L_1) at (0, 0, 0).
    alg = ConformalAlgebra(
        name="two-target",
        policy=TRUNC,
        structure={(0, 0): {0: LAM, 1: -LAM}},
        gen_names=("L_0", "L_1"),
    )
    _, failures = assert_kernel_matches_reference(alg)
    q = -LAM * LAM - LAM * MU
    assert failures[0] == (0, 0, 0, {0: q, 1: -q})


def unpacked_residuals(monkeypatch, alg):
    calls = []
    unpack = conformal._PackedTable.unpack

    def counted(table, total):
        calls.append(unpack(table, total))
        return calls[-1]

    monkeypatch.setattr(conformal._PackedTable, "unpack", counted)
    report = check_jacobi(alg)
    return calls, [f.residual for f in report.failures]


def test_only_failing_triples_are_unpacked(monkeypatch):
    calls, failures = unpacked_residuals(
        monkeypatch, make_block(Fraction(1, 2), 6, TRUNC)
    )
    assert calls == failures == []
    calls, failures = unpacked_residuals(
        monkeypatch, make_heisenberg_virasoro_misprint()
    )
    assert failures
    assert calls == failures


# -- the module identity on the same walk against its own formula ------------------


def reference_module_residual(alg, mod, i, j, b):
    """The module identity's residual, assembled on its own formula.

    ``[L_i L_j]_{x+y} v_b - L_i x (L_j y v_b) + L_j y (L_i x v_b)``: the
    first term is ``s(-x-y) * A(x+y)``, substituted in each factor before
    the product, and pulling ``L_i x`` past a coefficient turns
    its ``D`` into ``D + x`` (into ``alpha + x`` on a scalar_del module).
    """
    shift = DEL + LAM if mod.kind == KIND_FREE else Poly.const(mod.alpha) + LAM
    shift_mu = shift.substitute(Var.LAMBDA, MU)
    residual = {}
    for m, s in alg.structure_of(i, j).items():
        s_out = s.substitute(Var.PARTIAL, -LAM - MU)
        add_terms(residual, (
            (c, s_out * A.substitute(Var.LAMBDA, LAM + MU))
            for c, A in mod.action_of(m, b).items()
        ))
    for c, h in mod.action_of(j, b).items():
        h_in = h.substitute(Var.LAMBDA, MU).substitute(Var.PARTIAL, shift)
        add_terms(residual, ((e, -(h_in * A)) for e, A in mod.action_of(i, c).items()))
    for c, h in mod.action_of(i, b).items():
        h_in = h.substitute(Var.PARTIAL, shift_mu)
        add_terms(residual, (
            (e, h_in * A.substitute(Var.LAMBDA, MU)) for e, A in mod.action_of(j, c).items()
        ))
    return residual


def test_module_identity_matches_reference_on_random_modules():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    poly, tables = random_table_strategies(st)

    @st.composite
    def algebras_and_modules(draw):
        alg = draw(tables)
        rank = draw(st.integers(1, 2))
        basis = st.integers(0, rank - 1)
        action = draw(
            st.dictionaries(
                st.tuples(st.integers(0, alg.window), basis),
                st.dictionaries(basis, poly, min_size=1, max_size=2),
                max_size=4,
            )
        )
        return alg, ConformalModule(rank=rank, alpha=None, action=action)

    @hypothesis.settings(
        max_examples=80, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(algebras_and_modules())
    def check(pair):
        alg, mod = pair
        gens = list(alg.generators())
        pairs = [(i, j) for i in gens for j in gens if alg.pair_defined(i, j)]
        expected = [
            (i, j, b, residual)
            for i, j in pairs
            for b in range(mod.rank)
            if (residual := reference_module_residual(alg, mod, i, j, b))
        ]
        report = check_module(alg, mod)
        assert report.pairs_checked == len(pairs)
        assert [(f.i, f.j, f.basis, f.residual) for f in report.failures] == expected
        for i, j, b, residual in expected:
            assert module_residual(alg, mod, i, j, b) == residual

    check()


def test_handwritten_table_checks_like_builtin():
    # a table assembled by hand goes through the same checkers.
    alg = ConformalAlgebra(
        name="custom",
        policy=TRUNC,
        structure={(0, 0): {0: DEL + 2 * LAM}},
        gen_names=("L",),
    )
    assert check_skew(alg).ok
    assert check_jacobi(alg).ok
