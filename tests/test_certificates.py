"""The table hashes, against a frozen copy of the whole-blob hash they replace.

``conformal_table_hash`` and ``lie_table_hash`` stream their rows into
SHA-256.  The digests are part of every certificate, so they must stay those
of ``json.dumps(data, sort_keys=True)`` over the whole table: the reference
functions below are that code, kept as it was.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from confal.annihilation import FiniteLieAlgebra, annihilation_subquotient, build_annihilation
from confal.certificates import conformal_table_hash, lie_table_hash
from confal.conformal import ConformalAlgebra, TruncationPolicy, make_block
from confal.poly import Poly

TRUNC = TruncationPolicy.TRUNCATE_TO_ZERO


def reference_conformal_hash(alg):
    data = {
        f"{i},{j}": {str(k): str(v) for k, v in sorted(entry.items())}
        for (i, j), entry in sorted(alg.structure.items())
    }
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def reference_lie_hash(alg):
    data = {
        f"{x}|{y}": {label: str(c)} for (x, y), (label, c) in sorted(alg.table.items())
    }
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def conformal(window, structure):
    return ConformalAlgebra(
        name="random", policy=TRUNC,
        structure=structure, gen_names=tuple(f"L_{i}" for i in range(window + 1)),
    )


def test_empty_tables_hash_as_the_empty_object():
    empty = hashlib.sha256(b"{}").hexdigest()
    table = conformal(0, {})
    assert conformal_table_hash(table) == reference_conformal_hash(table) == empty
    alg = FiniteLieAlgebra(name="empty", basis=("a", "b"), table={}, param_p=None)
    assert lie_table_hash(alg) == reference_lie_hash(alg) == empty


def test_string_order_is_not_numeric_order():
    # "10,2" sorts before "2,3", and "L(10,1)" before "L(2,1)".
    two, three = Poly.const(2), Poly.const(3)
    alg = conformal(10, {(2, 3): {5: two}, (10, 2): {1: two, 10: three}})
    assert conformal_table_hash(alg) == reference_conformal_hash(alg)
    base = make_block(Fraction(1, 2), 10, TRUNC)
    for lie in (build_annihilation(base, 10, 1), build_annihilation(base, 10, 10, extended=True),
                annihilation_subquotient(Fraction(1, 2), 12, 12)):
        assert lie_table_hash(lie) == reference_lie_hash(lie)


def test_conformal_hash_matches_the_whole_blob():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 0))
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    polys = st.dictionaries(exponents, coefficients, max_size=3).map(Poly)

    @st.composite
    def tables(draw):
        # Windows of 10 and more, where string order differs from numeric order.
        window = draw(st.integers(10, 16))
        gens = st.integers(0, window)
        # Entries with several targets, and empty entries, both occur.
        structure = draw(st.dictionaries(
            st.tuples(gens, gens), st.dictionaries(gens, polys, max_size=4), max_size=40))
        return conformal(window, structure)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(tables())
    def check(alg):
        assert conformal_table_hash(alg) == reference_conformal_hash(alg)

    check()


def test_lie_hash_matches_the_whole_blob_on_mode_windows():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    params = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    caps = st.integers(0, 12)
    subquotients = st.builds(annihilation_subquotient, params, caps, caps)

    @st.composite
    def windows(draw):
        p, idx = draw(params), draw(st.integers(0, 10))
        base = make_block(p, idx, TRUNC)
        return build_annihilation(base, idx, draw(st.integers(-1, 10)), draw(st.booleans()))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(subquotients, windows()))
    def check(alg):
        assert lie_table_hash(alg) == reference_lie_hash(alg)

    check()


def test_lie_hash_matches_the_whole_blob_when_labels_are_prefixes():
    # Labels drawn from characters on both sides of "|" in code point order,
    # so that "a" and "a}" or "a{" are both labels.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = st.lists(st.text("a0({}~", min_size=1, max_size=3), min_size=1, max_size=12,
                      unique=True)
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))

    @st.composite
    def algebras(draw):
        basis = draw(labels)
        names = st.sampled_from(basis)
        table = draw(st.dictionaries(st.tuples(names, names), st.tuples(names, coefficients)))
        return FiniteLieAlgebra(name="random", basis=tuple(basis), table=table, param_p=None)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(algebras())
    def check(alg):
        assert lie_table_hash(alg) == reference_lie_hash(alg)

    check()
