"""Tests for mode expansion, finite windows, subquotients, and their structure.

The mode-bracket oracles below were computed by hand from the expansion
formula before the builder existed.  The builder also cross-checks itself:
route one (k-th products fed through the general mode formula) must agree
with route two (the closed form) on every pair, or construction aborts.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from confal.annihilation import (
    IDEAL_CORNER_HOOK,
    IDEAL_SCALING_COMPLEMENT,
    IDEAL_TOP_INDEX_SLICE,
    IDEAL_TOP_MODE_SLICE,
    MAX_BASIS_SIZE,
    T_LABEL,
    ClosedFormMismatchError,
    FiniteLieAlgebra,
    LieReport,
    ResonanceCase,
    annihilation_subquotient,
    build_annihilation,
    characters,
    check_central,
    check_lie,
    ideal_and_nilpotency,
    label_J,
    label_L,
    resonance_analysis,
    trace_certificate,
)
from confal.certificates import lie_table_hash
from confal.conformal import (
    ConformalAlgebra,
    TruncationPolicy,
    UnsupportedAlgebraError,
    make_block,
    make_bn,
)
from confal.linalg import Echelon
from confal.poly import DEL, LAM

TRUNC = TruncationPolicy.TRUNCATE_TO_ZERO


def window(p, idx=4, mode=4, extended=False):
    return build_annihilation(make_block(p, idx, TRUNC), idx, mode, extended)


# -- k-th products ----------------------------------------------------------------


def test_route_one_applies_the_divided_power_factorial():
    # [L_0 L_0] = D + 2x + 2x^2 + xD reads p = 1, but its x^2 and xD terms
    # leave the closed form, so the builder must name exactly the pairs where
    # the mode expansion differs from it.  Here the k-th product is the k-th
    # x-derivative at x = 0, which carries the k! of the bracket's x^k / k!.
    sympy = pytest.importorskip("sympy")
    D, x = sympy.symbols("D x")
    alg = ConformalAlgebra(
        "quadratic", TRUNC, {(0, 0): {0: DEL + 2 * LAM + 2 * LAM**2 + LAM * DEL}}, ("L",))
    entry = D + 2 * x + 2 * x**2 + x * D
    products = {k: sympy.Poly(sympy.diff(entry, x, k).subs(x, 0), D).as_dict()
                for k in range(3)}
    mode_window = 6
    differing = []
    for s in range(mode_window + 2):
        for t in range(mode_window + 2):
            # [a_(s), b_(t)] = sum_k C(s, k) (a_(k) b)_(s+t-k) and
            # (D^d a)_(q) = (-1)^d q(q-1)...(q-d+1) a_(q-d), on L(0, q-d-1).
            value = {}
            for k, product in products.items():
                q = s + t - k
                for (d,), c in product.items():
                    m = q - d - 1
                    if m <= mode_window:
                        term = sympy.binomial(s, k) * (-1) ** d * sympy.ff(q, d) * c
                        value[m] = value.get(m, 0) + term
            # [L(0,m), L(0,n)] = (m - n) L(0, m+n) at p = 1.
            closed = {s + t - 2: s - t} if s != t and s + t - 2 <= mode_window else {}
            if {m: v for m, v in value.items() if v} != closed:
                differing.append((label_L(0, s - 1), label_L(0, t - 1)))
    with pytest.raises(ClosedFormMismatchError) as info:
        build_annihilation(alg, 0, mode_window)
    assert info.value.pairs == sorted(differing)
    assert len(differing) == 36


# -- mode expansion oracles ---------------------------------------------------------


def test_mode_bracket_closed_form_oracle():
    # [L(i,m), L(j,n)] = ((j+p)(m+1) - (i+p)(n+1)) L(i+j, m+n), frozen at p=1.
    ann = window(1)
    assert ann.bracket_basis(label_L(1, 0), label_L(0, 0)) == {
        label_L(1, 0): Fraction(-1)
    }
    assert ann.bracket_basis(label_L(0, -1), label_L(0, 1)) == {
        label_L(0, 0): Fraction(-2)
    }
    assert ann.bracket_basis(label_L(1, 1), label_L(1, 1)) == {}
    assert ann.bracket_basis(label_L(0, 2), label_L(1, 0)) == {
        label_L(1, 2): Fraction(5)
    }


def test_mode_bracket_oracle_fractional_parameter():
    ann = window(Fraction(1, 2))
    # ((0 + 1/2)(1) - (1 + 1/2)(1)) = -1 at (i,m,j,n) = (1,0,0,0).
    assert ann.bracket_basis(label_L(1, 0), label_L(0, 0)) == {
        label_L(1, 0): Fraction(-1)
    }
    # ((1 + 1/2)(0) - (0 + 1/2)(2)) = -1 at (0,-1,1,1).
    assert ann.bracket_basis(label_L(0, -1), label_L(1, 1)) == {
        label_L(1, 0): Fraction(-1)
    }


def test_dual_route_agreement_across_schedule():
    # construction raises on any route disagreement, so building is the test.
    for p in [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3, 7)]:
        for idx, mode in ((2, 2), (4, 4), (6, 6)):
            ann = build_annihilation(make_block(p, idx, TRUNC), idx, mode)
            assert len(ann.basis) == (idx + 1) * (mode + 2)


def test_bn_window_expansion():
    ann = build_annihilation(make_bn(3), 3, 2)
    assert ann.param_p == Fraction(-3)
    assert check_lie(ann).ok


def test_window_validation():
    alg = make_block(1, 2, TRUNC)
    with pytest.raises(ValueError):
        build_annihilation(alg, 3, 3)  # index window exceeds the algebra window
    from confal.conformal import make_heisenberg_virasoro, make_virasoro

    # Vir is B(1) on window 0, so it expands; HV reads as p = 1 too, but its
    # [L M] = (D + x) M is not the closed form's (D + 3x) L_1.
    vir = build_annihilation(make_virasoro(), 0, 2)
    assert vir.table == build_annihilation(make_block(1, 0, TRUNC), 0, 2).table
    with pytest.raises(ClosedFormMismatchError):
        build_annihilation(make_heisenberg_virasoro(), 1, 2)
    no_d = ConformalAlgebra("no-D", TRUNC, {(0, 0): {0: 2 * LAM}}, ("L",))
    with pytest.raises(UnsupportedAlgebraError):
        build_annihilation(no_d, 0, 2)


def test_closed_form_disagreement_raises_naming_every_pair(flipped_closed_form):
    flipped = sorted(
        (label_L(*x), label_L(*y))
        for x, y, target, _ in flipped_closed_form(Fraction(1), 2, -1, 2)
        if x == (1, 0) and target is not None
    )
    assert len(flipped) > 5
    with pytest.raises(ClosedFormMismatchError) as info:
        window(1, idx=2, mode=2)
    assert info.value.algebra == "A(B(1);2,2)"
    assert info.value.pairs == flipped
    assert str(flipped[:5]) in str(info.value)


@pytest.mark.parametrize("extended", [False, True], ids=["G(1/2;12,24)", "extended(10,10)"])
def test_a_mode_table_is_built_and_hashed_in_at_most_twice_its_size(extended):
    # tracemalloc counts Python allocations the same on every platform.  A
    # table built once and hashed row by row peaks near the size it keeps;
    # a second copy of the table, or the whole JSON blob, would not fit.
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    half = Fraction(1, 2)
    base = make_block(half, 10, TRUNC)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        alg = (build_annihilation(base, 10, 10, extended=True) if extended
               else annihilation_subquotient(half, 12, 24))
        retained = tracemalloc.get_traced_memory()[0] - start
        lie_table_hash(alg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * retained, (peak, retained)


def test_basis_size_is_bounded():
    assert MAX_BASIS_SIZE == 512
    # (15 + 1)(31 + 1) = 512 labels is accepted; one more mode row is not.
    assert len(annihilation_subquotient(Fraction(1, 2), 15, 31).basis) == 512
    with pytest.raises(ValueError, match="528 basis elements"):
        annihilation_subquotient(Fraction(1, 2), 15, 32)
    # (15 + 1)(30 + 2) + T = 513; refused before the window is built.
    with pytest.raises(ValueError, match="513 basis elements"):
        window(1, idx=15, mode=30, extended=True)


def test_table_names_only_basis_labels_and_nonzero_coefficients():
    def build(table, truncated=()):
        return FiniteLieAlgebra(
            name="t", basis=("a", "b"), table=table, param_p=None,
            truncated_pairs=frozenset(truncated),
        )

    alg = build({("a", "b"): ("b", Fraction(2)), ("b", "a"): ("b", Fraction(-2))}, [("a", "a")])
    assert alg.bracket_basis("a", "b") == {"b": Fraction(2)}
    assert alg.bracket_basis("a", "a") == {}
    for table, message in (
        ({("a", "b"): ("z", Fraction(1))}, r"\[a, b\] = 1 z is not a nonzero multiple"),
        ({("z", "b"): ("a", Fraction(1))}, r"\[z, b\] = 1 a is not a nonzero multiple"),
        ({("a", "b"): ("b", Fraction(0))}, r"\[a, b\] = 0 b is not a nonzero multiple"),
    ):
        with pytest.raises(ValueError, match=message):
            build(table)
    with pytest.raises(ValueError, match=r"truncated pair \(a, z\) names a label outside"):
        build({}, [("a", "z")])
    # The table hash keys a pair as "x|y", so no label may contain "|".
    with pytest.raises(ValueError, match=r"contains '\|'"):
        FiniteLieAlgebra(name="t", basis=("a|b", "c"), table={}, param_p=None)


def test_truncated_pairs_are_recorded():
    ann = window(1, idx=2, mode=2)
    truncated = ann.truncated_pairs
    # the top corner pair escapes in both index and mode.
    assert (label_L(2, 2), label_L(2, 2)) in truncated or not ann.bracket_basis(
        label_L(2, 2), label_L(2, 2)
    )
    # the pair whose product would land at mode 3 was dropped and recorded.
    assert (label_L(0, 1), label_L(0, 2)) in truncated


def test_truncated_pairs_are_the_union_of_both_routes():
    ann = window(1, idx=3, mode=3)
    # The closed-form coefficient of [L(0,2), L(0,2)] is zero, but terms of
    # its mode expansion land at mode 4 and are dropped: route one records it.
    assert ann.bracket_basis(label_L(0, 2), label_L(0, 2)) == {}
    assert (label_L(0, 2), label_L(0, 2)) in ann.truncated_pairs
    # The closed form alone records 184 pairs.
    assert len(ann.truncated_pairs) == 190


def truncation_rule(p, idx, mode):
    """The truncated pairs of the ``(idx, mode)`` window, as two sets.

    ``escapes``: a coordinate leaves the window and the closed-form
    coefficient is nonzero.  ``route_one``: the index stays inside, the mode
    leaves, the coefficient is zero and ``i + p != 0``, so route one's
    ``k = 0`` term lands above the window although the sum cancels.
    """
    cells = [(i, m) for i in range(idx + 1) for m in range(-1, mode + 1)]
    escapes, route_one = set(), set()
    for i, m in cells:
        for j, n in cells:
            pair = (label_L(i, m), label_L(j, n))
            c = (j + p) * (m + 1) - (i + p) * (n + 1)
            if c and (i + j > idx or m + n > mode):
                escapes.add(pair)
            if not c and i + j <= idx and m + n > mode and i + p:
                route_one.add(pair)
    return escapes, route_one


@pytest.mark.parametrize("idx, mode", [(10, 10), (6, 3), (3, 3), (2, 7)])
@pytest.mark.parametrize("p", [Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(2)])
def test_truncated_pairs_follow_the_coordinate_rule(p, idx, mode):
    escapes, route_one = truncation_rule(p, idx, mode)
    assert window(p, idx, mode).truncated_pairs == escapes | route_one


def test_route_one_adds_pairs_whose_closed_form_is_zero():
    escapes, route_one = truncation_rule(Fraction(1), 10, 10)
    assert (len(escapes), len(route_one)) == (11320, 50)
    assert {(label_L(0, 10), label_L(0, 10)), (label_L(0, 4), label_L(1, 9))} <= route_one


def test_subquotient_is_the_window_on_nonnegative_modes():
    # G(p; k, N) relabelled J -> L is the (k, N) window restricted to m >= 0:
    # the window drops what escapes, the subquotient sets it to zero.
    k, N = 3, 4
    for p in (Fraction(1), Fraction(1, 2), Fraction(-2, 5), Fraction(3)):
        G = annihilation_subquotient(p, k, N)
        ann = window(p, idx=k, mode=N)
        as_l = {lab: label_L(*c) for lab, c in G.coords.items()}
        nonneg = [lab for lab, (_, m) in ann.coords.items() if m >= 0]
        assert [as_l[lab] for lab in G.basis] == nonneg
        restricted = {
            pair: value for pair, value in ann.table.items() if set(pair) <= set(nonneg)
        }
        relabelled = {
            (as_l[x], as_l[y]): (as_l[t], c) for (x, y), (t, c) in G.table.items()
        }
        assert relabelled == restricted


# -- Lie axioms on windows -----------------------------------------------------------


def test_window_lie_axioms_with_boundary_exclusion():
    for p in [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3, 7)]:
        rep = check_lie(window(p))
        assert rep.ok, f"p={p}: {rep.jacobi_failures[:1]}"
        assert not rep.antisymmetry_failures  # truncation keeps antisymmetry
        assert rep.triples_excluded > 0  # boundary honesty, not silence
        assert rep.triples_checked > 0


def test_subquotient_lie_axioms_fully_checked():
    for p, k, N in ((Fraction(1), 2, 3), (Fraction(1, 2), 2, 4),
                    (Fraction(-1), 2, 2), (Fraction(3, 7), 2, 4),
                    (Fraction(2), 4, 4)):
        rep = check_lie(annihilation_subquotient(p, k, N))
        assert rep.ok
        assert rep.triples_excluded == 0
        b = (k + 1) * (N + 1)
        assert rep.triples_checked == b * (b + 1) * (b + 2) // 6


def test_sign_flip_is_caught_and_reported():
    G = annihilation_subquotient(1, 2, 3)
    table = dict(G.table)
    key = (label_J(0, 0), label_J(0, 1))
    target, c = table[key]
    table[key] = (target, -c)
    bad = FiniteLieAlgebra(
        name="tampered", basis=G.basis, table=table, param_p=G.param_p,
        coords=G.coords, truncated_pairs=G.truncated_pairs,
    )
    rep = check_lie(bad)
    assert not rep.ok
    assert any(
        {x, y} == {label_J(0, 0), label_J(0, 1)}
        for x, y, _ in rep.antisymmetry_failures
    )
    assert rep.jacobi_failures  # the triple-level check also names witnesses


def comb_add(a, b):
    """Frozen copy of the label-combination sum ``check_lie`` was first written with."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def bracket_with(alg, x, comb):
    """``[x, comb]`` for a basis label ``x``, summed label by label."""
    total = {}
    for y, c in comb.items():
        total = comb_add(total, {t: c * v for t, v in alg.bracket_basis(x, y).items()})
    return total


def reference_check_lie(alg):
    """``check_lie`` as first written: exact arithmetic on labels, triple by triple."""
    pairs_checked = triples_checked = triples_excluded = 0
    antisymmetry_failures, jacobi_failures = [], []
    basis = alg.basis
    truncated = alg.truncated_pairs
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            x, y = basis[a], basis[b]
            pairs_checked += 1
            residual = comb_add(alg.bracket_basis(x, y), alg.bracket_basis(y, x))
            if residual:
                antisymmetry_failures.append((x, y, residual))

    def touches_truncation(outer, inner):
        if inner in truncated:
            return True
        return any((outer, target) in truncated for target in alg.bracket_basis(*inner))

    for a in range(len(basis)):
        for b in range(a, len(basis)):
            for c in range(b, len(basis)):
                x, y, z = basis[a], basis[b], basis[c]
                if truncated and (
                    touches_truncation(x, (y, z))
                    or touches_truncation(y, (z, x))
                    or touches_truncation(z, (x, y))
                ):
                    triples_excluded += 1
                    continue
                triples_checked += 1
                total = bracket_with(alg, x, alg.bracket_basis(y, z))
                total = comb_add(total, bracket_with(alg, y, alg.bracket_basis(z, x)))
                total = comb_add(total, bracket_with(alg, z, alg.bracket_basis(x, y)))
                if total:
                    jacobi_failures.append((x, y, z, total))
    return LieReport(alg.name, pairs_checked, triples_checked, triples_excluded,
                     antisymmetry_failures, jacobi_failures)


def assert_check_lie_matches_reference(alg):
    rep, ref = check_lie(alg), reference_check_lie(alg)
    assert rep == ref
    # Same failures in the same order, with residuals in the same term order.
    assert [list(r[-1].items()) for r in rep.jacobi_failures] == [
        list(r[-1].items()) for r in ref.jacobi_failures
    ]
    return rep


def tampered(G, key, scale):
    table = dict(G.table)
    target, c = table[key]
    table[key] = (target, c * scale)
    return FiniteLieAlgebra(
        name="tampered", basis=G.basis, table=table, param_p=G.param_p,
        coords=G.coords, truncated_pairs=G.truncated_pairs,
    )


def test_check_lie_matches_reference_on_tampered_tables():
    G = annihilation_subquotient(1, 2, 3)
    key = (label_J(0, 0), label_J(0, 1))
    rep = assert_check_lie_matches_reference(tampered(G, key, -1))
    assert rep.antisymmetry_failures and rep.jacobi_failures
    # A non-integer coefficient: the walk scales by a common denominator,
    # the reported residuals must not be scaled.
    rep = assert_check_lie_matches_reference(tampered(G, key, Fraction(1, 3)))
    assert any(
        c.denominator != 1 for *_, residual in rep.jacobi_failures for c in residual.values()
    )


def test_check_lie_matches_reference_on_truncated_and_fractional_algebras():
    ext = window(Fraction(1, 2), idx=3, mode=3, extended=True)
    assert ext.truncated_pairs
    rep = assert_check_lie_matches_reference(ext)
    assert rep.triples_excluded > 0
    rep = assert_check_lie_matches_reference(annihilation_subquotient(Fraction(-2, 5), 3, 4))
    assert rep.ok and rep.triples_excluded == 0


def test_check_lie_matches_reference_on_random_tables():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = ("a", "b", "c", "d")
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))

    @st.composite
    def algebras(draw):
        basis = labels[: draw(st.integers(1, len(labels)))]
        pair = st.tuples(st.sampled_from(basis), st.sampled_from(basis))
        nonzero = coeff.filter(bool)
        table = draw(st.dictionaries(
            pair, st.tuples(st.sampled_from(basis), nonzero), max_size=10,
        ))
        truncated = draw(st.sets(pair, max_size=3))
        return FiniteLieAlgebra(
            name="random", basis=basis, table=table, param_p=None,
            truncated_pairs=frozenset(truncated),
        )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(algebras())
    def check(alg):
        assert_check_lie_matches_reference(alg)

    check()


# -- extended algebra and centrality ---------------------------------------------------


def test_extended_mode_lowering_oracle():
    ext = window(1, extended=True)
    # [T, L(2,1)] = -(1+1) L(2,0) = -2 L(2,0)
    assert ext.bracket_basis(T_LABEL, label_L(2, 1)) == {label_L(2, 0): Fraction(-2)}
    assert ext.bracket_basis(label_L(2, 1), T_LABEL) == {label_L(2, 0): Fraction(2)}
    # mode -1 elements are killed: -(m+1) vanishes at m = -1.
    assert ext.bracket_basis(T_LABEL, label_L(0, -1)) == {}


def test_centrality_of_adjusted_translation():
    for p in (Fraction(1), Fraction(-1), Fraction(-2)):
        ext = window(p, extended=True)
        rep = check_central(ext)
        assert rep.ok
        assert rep.excluded == []
        assert rep.checked == len(ext.basis)
        assert rep.failures == []


def test_centrality_excludes_no_label_on_a_built_window():
    """No label of a window ``build_annihilation`` makes loses a product against
    ``T`` or ``L(0,-1)``.

    ``T`` and ``L(0,-1)`` have ``s = m + 1 = 0``.  With ``x = L(0,-1)``
    route one keeps only the ``k = 0`` terms, and each lands at mode
    ``n - d <= n``, the mode of ``y = L(j,n)``; with ``y = L(0,-1)``,
    ``t = 0``, and each term lands at or below the mode ``m`` of ``x``.
    ``[T, L(i,m)]`` lands at mode ``m - 1``.  So no pair through either
    constituent is truncated, and the centrality check excludes nothing.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nonzero = st.integers(-5, 5).filter(bool)
    p = st.builds(Fraction, nonzero, st.integers(1, 5))
    base = label_L(0, -1)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(p, st.integers(0, 5), st.integers(-1, 5))
    def check(p, idx, mode):
        ext = window(p, idx=idx, mode=mode, extended=True)
        assert not any(T_LABEL in pair or base in pair for pair in ext.truncated_pairs)
        assert check_central(ext).excluded == []

    check()


def test_centrality_failure_is_the_exact_residual():
    # At p = 2, [T, L(1,1)] = -2 L(1,0) and [L(0,-1), L(1,1)] = -4 L(1,0).
    ext = window(Fraction(2), extended=True)
    x, base = label_L(1, 1), label_L(0, -1)
    rep = check_central(tampered(ext, (T_LABEL, x), Fraction(3, 2)))
    assert rep.failures == [(x, {label_L(1, 0): Fraction(-1)})]
    rep = check_central(tampered(ext, (base, x), Fraction(1, 3)))
    assert rep.failures == [(x, {label_L(1, 0): Fraction(-4, 3)})]
    assert rep.checked == len(ext.basis)


def test_centrality_excludes_labels_with_a_truncated_pair():
    # Each table entry below would leave a nonzero residual on its label,
    # but that label lost a product to truncation against T or L(0,-1).
    base, x, y = label_L(0, -1), label_L(1, 0), label_L(1, 1)
    ext = FiniteLieAlgebra(
        name="hand-made", basis=(T_LABEL, base, x, y),
        table={(T_LABEL, x): (x, Fraction(1)), (base, y): (x, Fraction(1))},
        param_p=Fraction(2), truncated_pairs=frozenset({(T_LABEL, x), (base, y)}),
    )
    rep = check_central(ext)
    assert rep.excluded == [x, y]
    assert rep.checked == 2
    assert rep.failures == []
    assert rep.ok
    assert rep.to_payload()["excluded"] == [x, y]


def test_centrality_requires_extended():
    with pytest.raises(UnsupportedAlgebraError):
        check_central(window(1))


def test_extended_window_lie_axioms():
    rep = check_lie(window(1, extended=True))
    assert rep.ok


# -- subquotient resonance taxonomy --------------------------------------------------------


def test_resonance_case_assignments():
    expected = {
        (Fraction(1), 2, 3): (
            ResonanceCase.RESONANCE_BELOW_MODE_CAP,
            IDEAL_TOP_MODE_SLICE,
            [(1, 1), (2, 2)],
        ),
        (Fraction(1, 2), 2, 4): (
            ResonanceCase.RESONANCE_AT_CORNER,
            IDEAL_CORNER_HOOK,
            [(1, 2), (2, 4)],
        ),
        (Fraction(-1), 2, 2): (
            ResonanceCase.P_NOT_POSITIVE_RATIONAL,
            IDEAL_SCALING_COMPLEMENT,
            [],
        ),
        (Fraction(3, 7), 2, 4): (
            ResonanceCase.NO_RESONANCE,
            IDEAL_SCALING_COMPLEMENT,
            [],
        ),
        (Fraction(2), 3, 1): (
            ResonanceCase.RESONANCE_BELOW_INDEX_CAP,
            IDEAL_TOP_INDEX_SLICE,
            [(2, 1)],
        ),
    }
    for (p, k, N), (case, ideal_name, resonances) in expected.items():
        rr = resonance_analysis(annihilation_subquotient(p, k, N))
        assert rr.case is case, (p, k, N)
        assert rr.ideal_name == ideal_name
        assert rr.resonances == resonances


def test_scaling_eigenvalues_tablewise():
    # ad J(0,0) acts on J(i,m) with eigenvalue i - p m, read off the table.
    for p in (Fraction(1), Fraction(1, 2), Fraction(-1)):
        G = annihilation_subquotient(p, 2, 3)
        j00 = label_J(0, 0)
        for lab, (i, m) in G.coords.items():
            value = G.bracket_basis(j00, lab)
            eig = Fraction(i) - p * m
            if lab == j00 or eig == 0:
                assert value == {}
            else:
                assert value == {lab: eig}


def test_corner_case_details():
    rr = resonance_analysis(annihilation_subquotient(Fraction(1, 2), 2, 4))
    assert rr.top_resonance == (2, 4)
    assert rr.corner_coefficient == Fraction(-12)
    assert rr.corner_coefficient < 0
    # the hook minus the corner has exactly one nonzero internal bracket,
    # landing on the corner itself.
    assert len(rr.corner_internal_brackets) == 1
    x, y, value = rr.corner_internal_brackets[0]
    assert {x, y} == {label_J(2, 0), label_J(0, 4)}
    assert value == {label_J(2, 4): Fraction(-12)}


def test_resonance_needs_subquotient():
    with pytest.raises(UnsupportedAlgebraError):
        resonance_analysis(window(1))


# -- ideal structure ---------------------------------------------------------------


def test_distinguished_ideals_have_advertised_structure():
    # top slices are abelian ideals; the scaling complement and the corner
    # hook are nilpotent, the hook of class exactly two.
    rr = resonance_analysis(annihilation_subquotient(Fraction(1), 2, 3))
    rep = ideal_and_nilpotency(annihilation_subquotient(Fraction(1), 2, 3), rr.ideal)
    assert rep.is_ideal and rep.abelian

    rr = resonance_analysis(annihilation_subquotient(Fraction(2), 3, 1))
    rep = ideal_and_nilpotency(annihilation_subquotient(Fraction(2), 3, 1), rr.ideal)
    assert rep.is_ideal and rep.abelian

    G = annihilation_subquotient(Fraction(1, 2), 2, 4)
    rr = resonance_analysis(G)
    rep = ideal_and_nilpotency(G, rr.ideal)
    assert rep.is_ideal and rep.nilpotent and not rep.abelian
    assert rep.nilpotency_class == 2
    assert rep.series_dims == [7, 1]

    for p, k, N in ((Fraction(-1), 2, 2), (Fraction(3, 7), 2, 4)):
        G = annihilation_subquotient(p, k, N)
        rr = resonance_analysis(G)
        rep = ideal_and_nilpotency(G, rr.ideal)
        assert rep.is_ideal and rep.nilpotent


def test_non_ideal_span_reports_witness():
    G = annihilation_subquotient(1, 2, 3)
    rep = ideal_and_nilpotency(G, [label_J(0, 0)])
    assert not rep.is_ideal
    assert rep.ideal_witness is not None
    g, s, value = rep.ideal_witness
    assert s == label_J(0, 0)
    assert any(target != label_J(0, 0) for target in value)


def test_series_that_stalls_at_a_nonzero_term():
    # J(0,0) is never a target, so [G, G] is G without it, and brackets of the
    # whole basis with that keep all of it.  The duplicated label counts once.
    G = annihilation_subquotient(Fraction(1, 2), 2, 4)
    rep = ideal_and_nilpotency(G, list(G.basis) + [G.basis[0]])
    assert rep.is_ideal
    assert rep.series_dims == [15, 14, 14]
    assert not rep.nilpotent and rep.nilpotency_class is None
    assert not rep.abelian


def test_empty_span_and_unknown_labels():
    G = annihilation_subquotient(1, 1, 1)
    rep = ideal_and_nilpotency(G, [])
    assert rep.is_ideal and rep.abelian and rep.nilpotency_class == 0
    with pytest.raises(ValueError):
        ideal_and_nilpotency(G, ["J(9,9)"])


# -- trace certificates ------------------------------------------------------------


def test_trace_certificate_forces_zero():
    rng = random.Random(808)

    def rand_mat(n):
        return [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]

    for n in (2, 3):
        for _ in range(10):
            A, B = rand_mat(n), rand_mat(n)
            verdict = trace_certificate(A, B, Fraction(-3), Fraction(2))
            assert verdict.commutator_trace == 0
            assert verdict.forced_zero
            ok = trace_certificate(A, B, Fraction(-3), Fraction(0))
            assert ok.consistent and not ok.forced_zero


def test_trace_certificate_validation():
    A = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        trace_certificate(A, A, 0, 1)
    with pytest.raises(ValueError):
        trace_certificate(A, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1, 1)
    with pytest.raises(ValueError):
        trace_certificate(A, [[1, 0], [0]], 1, 1)


# -- characters ---------------------------------------------------------------------


def test_characters_of_smallest_subquotient():
    G = annihilation_subquotient(1, 1, 1)
    ch = characters(G)
    assert (ch.derived_rank, ch.characters) == reference_characters(G)
    assert ch.character_dim == 1
    assert ch.dimension == 4
    assert ch.dimension == ch.derived_rank + ch.character_dim


def test_characters_vanish_on_brackets():
    G = annihilation_subquotient(Fraction(1, 2), 2, 2)
    ch = characters(G)
    assert ch.characters
    for phi in ch.characters:
        for x in G.basis:
            for y in G.basis:
                value = G.bracket_basis(x, y)
                assert sum(
                    (phi.get(lab, Fraction(0)) * c for lab, c in value.items()),
                    Fraction(0),
                ) == 0


# -- label sets against an elimination ------------------------------------------------


def reference_characters(alg):
    """``characters`` as first written: the nullspace of the bracket rows."""
    echelon = Echelon({alg.positions[lab]: c} for lab, c in alg.table.values())
    chars = [
        {alg.basis[col]: c for col, c in vec.items()}
        for vec in echelon.nullspace(len(alg.basis))
    ]
    return echelon.rank, chars


def reference_series(alg, span):
    """The lower central series as first written, by exact elimination.

    Returns ``(abelian, nilpotent, nilpotency_class, series_dims)``.
    """
    current = Echelon({alg.positions[lab]: Fraction(1)} for lab in span)
    dims = [current.rank]
    abelian, nilpotent, nil_class = None, False, None
    for step in range(1, len(alg.basis) + 2):
        nxt = Echelon()
        for s in span:
            for row in current.pivot_rows.values():
                comb = {alg.basis[col]: c for col, c in row.items()}
                out = bracket_with(alg, s, comb)
                nxt.add({alg.positions[lab]: c for lab, c in out.items()})
        if abelian is None:
            abelian = not nxt.rank
        if not nxt.rank:
            nilpotent, nil_class = True, step
            break
        dims.append(nxt.rank)
        if nxt.rank == current.rank and not any(
            current.reduce(row) for row in nxt.pivot_rows.values()
        ):
            break
        current = nxt
    if not span:
        abelian, nilpotent, nil_class = True, True, 0
    return bool(abelian), nilpotent, nil_class, dims


ORACLE_PS = [Fraction(v) for v in (
    1, 2, 3, -1, "1/2", "1/3", "2/3", "3/5", "-1/2", "3/7", "5/2", "-2/5")]
ORACLE_CAPS = [(0, 0), (1, 1), (2, 2), (2, 4), (3, 3), (4, 2)]


def oracle_algebras():
    for p in ORACLE_PS:
        for k, N in ORACLE_CAPS:
            yield annihilation_subquotient(p, k, N)
    for p in ORACLE_PS[::3]:
        for idx, mode in ((1, 2), (2, 2), (3, 1)):
            yield window(p, idx=idx, mode=mode, extended=True)


def test_label_set_structure_matches_elimination():
    rng = random.Random(1616)
    algebras = list(oracle_algebras())
    assert len(algebras) == 84
    spans_checked = 0
    for alg in algebras:
        ch = characters(alg)
        derived_rank, chars = reference_characters(alg)
        assert (ch.derived_rank, ch.characters) == (derived_rank, chars), alg.name
        assert ch.character_dim == len(alg.basis) - derived_rank

        basis = list(alg.basis)
        spans = [[], basis, basis[: len(basis) // 2], basis + basis[:2]]
        if alg.coords and label_J(0, 0) in alg.coords:
            spans.append(list(resonance_analysis(alg).ideal))
        for _ in range(8):
            spans.append(rng.choices(basis, k=rng.randint(1, len(basis))))
        for span in spans:
            rep = ideal_and_nilpotency(alg, span)
            got = (rep.abelian, rep.nilpotent, rep.nilpotency_class, rep.series_dims)
            assert got == reference_series(alg, span), (alg.name, span)
            spans_checked += 1
    assert spans_checked > 900
