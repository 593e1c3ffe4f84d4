"""Exact linear algebra: the sparse elimination and its dense wrappers.

The dense Gaussian elimination that ``linalg.rref`` used before the sparse
one is kept here as ``reference_rref``; reduced row echelon form is unique,
so the two must agree exactly on every input, as must sympy's ``rref``.
"""

import random
from fractions import Fraction

import pytest

from confal.linalg import Echelon, add_terms, nullspace, rank, rref, solve
from confal.poly import DEL, LAM, Poly

F = Fraction


def reference_rref(rows):
    """Dense Gauss-Jordan elimination, pivoting on the first nonzero entry."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = Fraction(1) / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def times(rows, vec):
    return [sum((a * b for a, b in zip(row, vec)), F(0)) for row in rows]


# -- unit cases -------------------------------------------------------------------


def test_empty_input():
    assert rref([]) == ([], [])
    assert rank([]) == 0
    assert nullspace([], 2) == [[F(1), F(0)], [F(0), F(1)]]
    assert solve([], []) == []


def test_zero_rows_have_no_pivots():
    assert rref([[0, 0, 0], [0, 0, 0]]) == ([], [])
    assert rank([[0, 0]]) == 0
    assert nullspace([[0, 0]], 2) == [[F(1), F(0)], [F(0), F(1)]]


def test_rank_deficient_input():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    reduced, pivots = rref(rows)
    assert reduced == [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert pivots == [0, 1]
    assert all(isinstance(v, Fraction) for row in reduced for v in row)
    assert rank(rows) == 2
    kernel = nullspace(rows, 3)
    assert kernel == [[F(-1), F(-1), F(1)]]
    assert times(rows, kernel[0]) == [0, 0, 0]


def test_solve_feasible_sets_free_variables_to_zero():
    rows = [[1, 1, 0], [0, 0, 2]]
    assert solve(rows, [3, F(1, 2)]) == [F(3), F(0), F(1, 4)]


def test_solve_infeasible_returns_none():
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    assert solve([[0, 0]], [1]) is None


def test_solve_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        solve([[1, 0]], [1, 2])


def test_echelon_is_independent_of_row_order():
    rng = random.Random(3)
    rows = [
        {c: F(rng.randint(-3, 3), rng.randint(1, 3)) for c in rng.sample(range(6), 2)}
        for _ in range(5)
    ]
    expected = Echelon(rows).rows()
    for _ in range(10):
        rng.shuffle(rows)
        assert Echelon(rows).rows() == expected


def test_echelon_add_and_reduce_report_span_membership():
    echelon = Echelon()
    assert echelon.add({0: F(2), 2: F(1)})
    assert echelon.add({1: F(1)})
    assert not echelon.add({0: F(4), 1: F(-1), 2: F(2)})
    assert echelon.reduce({0: F(2), 1: F(5), 2: F(1)}) == {}
    assert echelon.reduce({0: F(1)}) == {2: F(-1, 2)}
    assert echelon.rank == 2
    assert echelon.rows() == ([{0: F(1), 2: F(1, 2)}, {1: F(1)}], [0, 1])
    assert echelon.nullspace(3) == [{0: F(-1, 2), 2: F(1)}]


def test_explicit_zero_entries_are_ignored():
    assert Echelon([{0: F(0), 1: F(3)}, {0: 0}]).rows() == ([{1: F(1)}], [1])


# -- the sparse-combination primitive ----------------------------------------------


def test_add_terms_removes_a_key_that_cancels():
    out = {0: F(1), 1: F(2)}
    add_terms(out, [(0, F(-1)), (2, F(0)), (1, F(1, 2))])
    assert out == {1: F(5, 2)}
    assert 0 not in out and 2 not in out


def test_add_terms_updates_in_place_and_returns_the_dict():
    out = {"a": F(1)}
    assert add_terms(out, [("b", F(1, 2)), ("a", F(1))]) is out
    assert out == {"a": F(2), "b": F(1, 2)}
    assert add_terms(out, iter(())) is out


def test_add_terms_on_polynomial_values():
    out = {0: DEL + LAM}
    add_terms(out, [(0, -LAM), (1, LAM), (1, -LAM), (2, Poly.zero())])
    assert out == {0: DEL}


def test_add_terms_matches_sum_then_filter_on_random_terms():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    nonzero = value.filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.dictionaries(st.integers(0, 4), nonzero, max_size=4),
        st.lists(st.tuples(st.integers(0, 4), value), max_size=12),
    )
    def check(start, terms):
        sums = dict(start)
        for key, v in terms:
            sums[key] = sums.get(key, 0) + v
        assert add_terms(dict(start), terms) == {k: v for k, v in sums.items() if v}

    check()


# -- differential tests -------------------------------------------------------------


def _matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
    )

    @st.composite
    def matrices(draw):
        nrows = draw(st.integers(0, 7))
        ncols = draw(st.integers(1, 6))
        return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)], ncols

    return hypothesis, matrices()


def test_rref_matches_dense_reference_on_random_matrices():
    hypothesis, matrices = _matrices()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices)
    def check(case):
        rows, ncols = case
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == reference_rref(rows)
        assert rank(rows) == len(pivots)
        kernel = nullspace(rows, ncols)
        assert len(kernel) == ncols - len(pivots)
        for vec in kernel:
            assert times(rows, vec) == [0] * len(rows)

    check()


def test_rref_matches_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    hypothesis, matrices = _matrices()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices)
    def check(case):
        rows, ncols = case
        if not rows:
            return
        reduced, pivots = rref(rows)
        matrix = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
        )
        expected, expected_pivots = matrix.rref()
        assert pivots == list(expected_pivots)
        as_fractions = [
            [F(int(expected[r, c].p), int(expected[r, c].q)) for c in range(ncols)]
            for r in range(len(pivots))
        ]
        assert reduced == as_fractions

    check()
