"""Exact linear algebra over the rationals.

One elimination serves every caller.  :class:`Echelon` keeps sparse rows
(column index -> ``Fraction``) in reduced row echelon form and takes rows
one at a time: each new row is reduced against the pivots found so far in
one pass, and only a row that survives becomes a pivot.  The systems fed to
it are sparse and redundant -- a bracket row of a mode algebra has one
entry, and most rows reduce to zero -- so a row costs work in proportion to
its nonzero entries, not to the width of the matrix.

:func:`rref`, :func:`rank`, :func:`nullspace` and :func:`solve` take and
return dense rows for the callers that build small dense systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Vector = list[Fraction]
SparseRow = dict[int, Fraction]


def _subtract_multiple(target: SparseRow, factor: Fraction, row: Mapping[int, Fraction]) -> None:
    """``target -= factor * row`` in place, dropping entries that cancel."""
    for col, value in row.items():
        entry = target.get(col, 0) - factor * value
        if entry:
            target[col] = entry
        else:
            del target[col]


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
            _subtract_multiple(rest, rest[col], self.pivot_rows[col])
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
                _subtract_multiple(other, factor, new)
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
    reduced, _ = rref(rows)
    echelon = Echelon(map(_sparse, reduced))
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


@dataclass(frozen=True)
class RatMatrix:
    """Small immutable matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Fraction | int]]) -> RatMatrix:
        data = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        return cls(data)

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __mul__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} times "
                f"{other.nrows}x{other.ncols}"
            )
        cols = list(zip(*other.entries)) if other.entries else []
        return RatMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in subtraction")
        return RatMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def scale(self, c: Fraction | int) -> RatMatrix:
        f = Fraction(c)
        return RatMatrix(tuple(tuple(f * v for v in row) for row in self.entries))

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum(
            (self.entries[i][i] for i in range(self.nrows)), Fraction(0)
        )
