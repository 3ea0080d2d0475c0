"""Exact rational linear algebra: ranks, determinants, inverses.

Everything here works on lists of Fractions (or ints) and never touches
floating point, so ranks and minors are decided exactly.
"""

from __future__ import annotations

from fractions import Fraction


def determinant(matrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    m = [list(map(Fraction, row)) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pv = m[col][col]
        det *= pv
        for i in range(col + 1, n):
            f = m[i][col] / pv
            if f:
                for j in range(col, n):
                    m[i][j] -= f * m[col][j]
    return det


def leading_principal_minors(matrix):
    """List of the n leading principal minors of a square matrix."""
    n = len(matrix)
    return [determinant([row[: k + 1] for row in matrix[: k + 1]]) for k in range(n)]


def invert(matrix):
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if aug[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


class IncrementalSpan:
    """Row-echelon accumulator: add vectors one by one, track the rank."""

    def __init__(self):
        self._rows = []   # reduced rows, each with a pivot column
        self._pivots = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vector) -> bool:
        """Reduce against the basis; return True if the rank grew."""
        v = [Fraction(x) for x in vector]
        for row, piv in zip(self._rows, self._pivots):
            if v[piv]:
                f = v[piv] / row[piv]
                for j in range(piv, len(v)):
                    v[j] -= f * row[j]
        for j, x in enumerate(v):
            if x:
                self._rows.append(v)
                self._pivots.append(j)
                return True
        return False


def span_rank(vectors) -> int:
    """Rank over Q of the span of the given integer/rational vectors.

    Equals the Z-rank of the generated submodule.  Stops at the first vector
    that brings the span to full column rank.
    """
    span = IncrementalSpan()
    for v in vectors:
        if span.add(v) and span.rank == len(v):
            break
    return span.rank


def independent_rows(rows, target_rank: int):
    """Indices of the first target_rank linearly independent rows."""
    span = IncrementalSpan()
    chosen = []
    for idx, row in enumerate(rows):
        if span.add(row):
            chosen.append(idx)
            if len(chosen) == target_rank:
                break
    return chosen
