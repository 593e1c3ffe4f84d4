"""Exact linear algebra over the rationals.

Everything here is small and dense: derived-subalgebra spans, nullspaces of
coefficient systems, lower central series.  Plain Gaussian elimination with
``Fraction`` entries is exact and fast enough, so no pivoting heuristics are
needed beyond choosing the first nonzero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = list[Fraction]


def _copy_rows(rows: Iterable[Sequence[Fraction | int]]) -> list[Vector]:
    return [[Fraction(v) for v in row] for row in rows]


def rref(rows: Iterable[Sequence[Fraction | int]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows and the list of pivot column indices, one per
    returned row.
    """
    mat = _copy_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
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


def rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Iterable[Sequence[Fraction | int]], ncols: int) -> list[Vector]:
    """Basis of the right kernel ``{v : M v = 0}`` of an ``m x ncols`` matrix."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vector] = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pivot_col in zip(reduced, pivots):
            vec[pivot_col] = -row[free]
        basis.append(vec)
    return basis


def solve(
    rows: Iterable[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> Vector | None:
    """One exact solution of ``M v = rhs``, or None if the system is infeasible.

    Free variables are set to zero.
    """
    mat = _copy_rows(rows)
    b = [Fraction(v) for v in rhs]
    if len(mat) != len(b):
        raise ValueError("rows and right-hand side have different lengths")
    if not mat:
        return []
    ncols = len(mat[0])
    augmented = [row + [val] for row, val in zip(mat, b)]
    reduced, pivots = rref(augmented)
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
