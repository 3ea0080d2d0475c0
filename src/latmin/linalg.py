"""Exact rational linear algebra: ranks, determinants, adjugates, inverses.

There is one elimination, ``IncrementalSpan.add``: a fraction-free row
echelon in the sense of Bareiss (Math. Comp. 22, 1968), in integers only.
Ranks, determinants, the adjugate of an integer matrix and the LDL^T chain
of an integer gram matrix are read off it; ``Fraction`` appears only in the
values of ``determinant`` and ``invert``.
"""

from __future__ import annotations

import math
from fractions import Fraction


class IncrementalSpan:
    """Fraction-free row echelon: add vectors one by one, track the rank.

    Each row is scaled to integers by the lcm of its denominators.  Stored
    row k, with pivot p_k in column c_k, holds the (k+1)x(k+1) minors of the
    scaled rows 0..k on the columns c_0..c_{k-1}, j.
    """

    def __init__(self):
        self._rows = []  # (integer echelon row, pivot column, scale) triples

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vector) -> bool:
        """Reduce against the echelon; return True if the rank grew."""
        scale = math.lcm(*(x.denominator for x in vector))
        v = [x.numerator * (scale // x.denominator) for x in vector]
        prev = 1
        for row, piv, _ in self._rows:
            # applied even when v[piv] = 0, so that the next division is exact
            p, c = row[piv], v[piv]
            v = [(p * x - c * y) // prev for x, y in zip(v, row)]
            prev = p
        for j, x in enumerate(v):
            if x:
                self._rows.append((v, j, scale))
                return True
        return False


def _det(matrix):
    """(numerator, denominator) of the determinant of a square matrix."""
    span = IncrementalSpan()
    if not all(span.add(row) for row in matrix):
        return 0, 1
    # the last pivot is the minor of all the scaled rows, columns in pivot order
    cols = [piv for _, piv, _ in span._rows]
    inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
    last = span._rows[-1][0][cols[-1]] if cols else 1
    return (-1) ** inversions * last, math.prod(s for _, _, s in span._rows)


def determinant(matrix) -> Fraction:
    """Exact determinant, read off the fraction-free echelon of the rows."""
    return Fraction(*_det(matrix))


def adjugate(matrix):
    """Adjugate of a square integer matrix A: adj(A) A = A adj(A) = det(A) I."""
    # entry (i, j) is the (j, i) cofactor: drop row j and column i
    n = len(matrix)
    return [[(-1) ** (i + j) * _det([r[:i] + r[i + 1:] for k, r in enumerate(matrix)
                                     if k != j])[0] for j in range(n)] for i in range(n)]


def invert(matrix):
    """Exact inverse of a square rational matrix A: den adj(A') / det(A') for
    the integer A' = den A.  No library code calls it; perfbench traces it."""
    den = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    scaled = [[int(x * den) for x in row] for row in matrix]
    det = _det(scaled)[0]
    if not det:
        raise ZeroDivisionError("singular matrix")
    return [[Fraction(a * den, det) for a in row] for row in adjugate(scaled)]


def ldl_chain(gram) -> list:
    """Integer LDL^T data of a positive definite integer gram G, one entry
    (a, d, row) per level i.

    S_i is the form on x_0..x_i of min over real x_{>i} of x^T G x and
    D_i = det G[>i, >i] (D_{r-1} = 1).  With d = D_i, a = D_{i-1} and
    row = (D_i * S_i)[i][:i], the integer P_i = D_i * S_i(x_0..x_i) at
    x_i = t is ((a t + b)^2 + d P_{i-1}) / a, b = row . x_{<i}, P_{-1} = 0,
    and P_{r-1} = x^T G x.  These are minors of G reversed in rows and
    columns: level r-1-k holds echelon row k's pivot (a), the pivot before
    it (d) and its entries after the pivot, reversed (row).
    """
    span = IncrementalSpan()
    for row in reversed(gram):
        span.add(row[::-1])
    rows = [row for row, _, _ in span._rows]
    pivots = [1] + [row[k] for k, row in enumerate(rows)]
    return [(pivots[k + 1], pivots[k], row[:k:-1]) for k, row in enumerate(rows)][::-1]


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
        if len(chosen) == target_rank:
            break
        if span.add(row):
            chosen.append(idx)
    return chosen
