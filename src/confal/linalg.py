"""Exact linear algebra over the rationals.

:func:`add_terms` is the one sparse-combination primitive, and
:func:`render_combo` writes a combination out.  :class:`Echelon` keeps
sparse rows (column index -> ``Fraction``) in reduced row echelon form and
takes rows one at a time: each new row is reduced against the pivots found
so far in one pass, and only a row that survives becomes a pivot.  It
serves only the small dense systems of :mod:`confal.classify`; no
mode-algebra row passes through it, since every bracket of a mode algebra
is a multiple of one label and :mod:`confal.annihilation` works on label
sets.

:func:`rref`, :func:`rank`, :func:`nullspace` and :func:`solve` take and
return dense rows.  :mod:`confal.classify` reaches them only through
:func:`rank`.  :func:`nullspace` and :func:`solve` have no caller in this
package; they stay because the benchmark's layer trace wraps them by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

Vector = list[Fraction]
SparseRow = dict[int, Fraction]

K = TypeVar("K")
V = TypeVar("V")


def add_terms(out: dict[K, V], terms: Iterable[tuple[K, V]]) -> dict[K, V]:
    """Add each ``(key, value)`` of ``terms`` into ``out``; return ``out``.

    A key whose sum cancels is removed, not stored as a zero.  This is the
    one sparse-combination primitive: rows of :class:`Echelon`, the
    centrality and Jacobi residuals of mode algebras and the bracket and
    module residuals of conformal tables all add through it.
    Values are ``Fraction`` or ``Poly``, both falsy exactly at zero.
    """
    for key, value in terms:
        total = out[key] + value if key in out else value
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def render_combo(combo: Mapping[K, V], name: Callable[[K], str] = str) -> dict[str, str]:
    """A sparse combination as strings, keys in sorted order, zeros left out.

    ``name`` renders a key: a generator name for an index, ``str`` for an
    index or a basis label written as itself.
    """
    return {name(k): str(v) for k, v in sorted(combo.items()) if v}


class Echelon:
    """Reduced row echelon form of a growing set of sparse rational rows.

    Every stored row has entry 1 at its pivot column, which is its leftmost
    nonzero column, and entry 0 at every other pivot column.  The reduced
    row echelon form of a row space is unique, so the result does not depend
    on the order in which rows are added.
    """

    def __init__(self, rows: Iterable[Mapping[int, Fraction]] = ()) -> None:
        self.pivot_rows: dict[int, SparseRow] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: Mapping[int, Fraction]) -> SparseRow:
        """What is left of ``row`` after clearing its pivot columns.

        The result is empty exactly when ``row`` lies in the span.  One pass
        suffices: subtracting a pivot row changes no other pivot column.
        """
        rest = {col: value for col, value in row.items() if value}
        for col in [c for c in rest if c in self.pivot_rows]:
            factor = rest[col]
            add_terms(rest, ((c, -factor * v) for c, v in self.pivot_rows[col].items()))
        return rest

    def add(self, row: Mapping[int, Fraction]) -> bool:
        """Add ``row`` to the span; True when it enlarged the span."""
        rest = self.reduce(row)
        if not rest:
            return False
        col = min(rest)
        inv = Fraction(1) / rest[col]
        new = {c: v * inv for c, v in rest.items()}
        # Pivot rows to the left of ``col`` may have an entry there; the new
        # row only has columns >= col, so their leading entries stay put.
        for other in self.pivot_rows.values():
            factor = other.get(col)
            if factor:
                add_terms(other, ((c, -factor * v) for c, v in new.items()))
        self.pivot_rows[col] = new
        return True

    def rows(self) -> tuple[list[SparseRow], list[int]]:
        """The pivot rows in pivot-column order, and their pivot columns."""
        pivots = sorted(self.pivot_rows)
        return [self.pivot_rows[col] for col in pivots], pivots

    def nullspace(self, ncols: int) -> list[SparseRow]:
        """Basis of ``{v : r . v = 0 for every row r}``, one vector per free column.

        Vectors come in free-column order; each one's entries are in column
        order.
        """
        rows, pivots = self.rows()
        basis: list[SparseRow] = []
        for free in range(ncols):
            if free in self.pivot_rows:
                continue
            vec = {free: Fraction(1)}
            for row, col in zip(rows, pivots):
                value = row.get(free)
                if value:
                    vec[col] = -value
            basis.append(dict(sorted(vec.items())))
        return basis


def _sparse(row: Sequence[Fraction | int]) -> SparseRow:
    return {col: Fraction(value) for col, value in enumerate(row) if value}


def _dense(row: Mapping[int, Fraction], ncols: int) -> Vector:
    out = [Fraction(0)] * ncols
    for col, value in row.items():
        out[col] = value
    return out


def rref(rows: Iterable[Sequence[Fraction | int]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows and the list of pivot column indices, one per
    returned row.
    """
    echelon = Echelon()
    ncols = 0
    for row in rows:
        ncols = len(row)
        echelon.add(_sparse(row))
    reduced, pivots = echelon.rows()
    return [_dense(row, ncols) for row in reduced], pivots


def rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Iterable[Sequence[Fraction | int]], ncols: int) -> list[Vector]:
    """Basis of the right kernel ``{v : M v = 0}`` of an ``m x ncols`` matrix."""
    echelon = Echelon(map(_sparse, rows))
    return [_dense(vec, ncols) for vec in echelon.nullspace(ncols)]


def solve(
    rows: Iterable[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> Vector | None:
    """One exact solution of ``M v = rhs``, or None if the system is infeasible.

    Free variables are set to zero.
    """
    mat = [list(row) for row in rows]
    if len(mat) != len(rhs):
        raise ValueError("rows and right-hand side have different lengths")
    if not mat:
        return []
    ncols = len(mat[0])
    reduced, pivots = rref([row + [val] for row, val in zip(mat, rhs)])
    solution = [Fraction(0)] * ncols
    for row, pivot_col in zip(reduced, pivots):
        if pivot_col == ncols:
            return None
        solution[pivot_col] = row[-1]
    return solution
