"""Exact rational linear algebra."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmin.linalg import (IncrementalSpan, adjugate, determinant,
                           independent_rows, invert, span_rank)
from test_enumeration import _oracle_invert


def test_span_rank_basic():
    assert span_rank([]) == 0
    assert span_rank([(0, 0)]) == 0
    assert span_rank([(1, 0), (0, 1)]) == 2
    assert span_rank([(1, 2), (2, 4), (3, 6)]) == 1
    assert span_rank([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 2


def test_determinant_exact():
    assert determinant([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert determinant([]) == 1
    # the pivot columns of a permutation matrix are out of order
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1  # a 3-cycle
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    negative_pivot = [[Fraction(-1, 2), Fraction(1, 3)],
                      [Fraction(1, 4), Fraction(2, 5)]]
    assert determinant(negative_pivot) == Fraction(-17, 60)
    assert invert(negative_pivot) == [[Fraction(-24, 17), Fraction(20, 17)],
                                      [Fraction(15, 17), Fraction(30, 17)]]
    # A' = 60 A has det -1020 and inverse A^-1 / 60 = adj(A') / det A', so
    # adj(A') = -17 A^-1 for A^-1 = [[-24, 20], [15, 30]] / 17
    assert adjugate([[-30, 20], [15, 24]]) == [[24, -20], [-15, -30]]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_invert_round_trip():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert _product(m, invert(m)) == [[1, 0], [0, 1]]
    with pytest.raises(ZeroDivisionError):
        invert([[1, 2], [2, 4]])


def test_adjugate_round_trip():
    """A adj(A) = adj(A) A = det(A) I: the identity for det 1, and zero for
    a singular A, which the adjugate does not refuse."""
    m = [[2, 1], [1, 1]]
    assert _product(m, adjugate(m)) == _product(adjugate(m), m) == [[1, 0], [0, 1]]
    singular = [[1, 2], [2, 4]]
    assert adjugate(singular) == [[4, -2], [-2, 1]]
    assert _product(singular, adjugate(singular)) == [[0, 0], [0, 0]]
    assert adjugate([[5]]) == [[1]] and adjugate([]) == []


def test_incremental_span_matches_span_rank():
    vecs = [(1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 0, 0), (0, 0, 5)]
    span = IncrementalSpan()
    grew = [span.add(v) for v in vecs]
    assert grew == [True, False, True, True, False]
    assert span.rank == span_rank(vecs) == 3


def test_independent_rows_prefers_first():
    rows = [(1, 1), (2, 2), (0, 1)]
    assert independent_rows(rows, 2) == [0, 2]
    assert independent_rows(rows, 0) == []


# --- random rational matrices against independent oracles ------------------

def _oracle_det(matrix):
    """Leibniz expansion over all permutations."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


def _oracle_independent(rows):
    """Rows are independent over Q iff their Gram matrix is nonsingular."""
    return _oracle_det([[sum(a * b for a, b in zip(u, v)) for v in rows]
                        for u in rows]) != 0


@st.composite
def rational_matrices(draw, square):
    """n x m matrices B C of rank at most k <= 6, some rows zeroed, some
    rows scaled to ints; the entries of B and C have denominators 1..6."""
    n = draw(st.integers(0, 6))
    m = n if square else draw(st.integers(0, 6))
    k = draw(st.integers(0, min(n, m)))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    b = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    c = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    rows = []
    for i in range(n):
        row = [sum((b[i][t] * c[t][j] for t in range(k)), Fraction(0))
               for j in range(m)]
        kind = draw(st.sampled_from(("fraction", "int", "zero")))
        if kind == "int":
            scale = math.lcm(*(x.denominator for x in row))
            row = [int(x * scale) for x in row]
        elif kind == "zero":
            row = [0] * m
        rows.append(row)
    return rows


@settings(deadline=None, max_examples=150, derandomize=True)
@given(rational_matrices(square=True))
def test_determinant_and_invert_match_oracles(matrix):
    det = determinant(matrix)
    assert isinstance(det, Fraction)
    assert det == _oracle_det(matrix)
    if det:
        assert invert(matrix) == _oracle_invert(matrix)
    else:
        with pytest.raises(ZeroDivisionError):
            invert(matrix)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(rational_matrices(square=True))
def test_adjugate_matches_oracles(matrix):
    """The adjugate of the integer matrix A' = den A is det(A') A'^-1, and
    A' adj(A') = adj(A') A' = det(A') I also when A' is singular."""
    det = determinant(matrix)
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    scaled = [[int(x * den) for x in row] for row in matrix]
    adj, det_scaled = adjugate(scaled), det * den ** len(matrix)
    assert all(type(x) is int for row in adj for x in row)
    if det:
        assert adj == [[det_scaled * x for x in row] for row in _oracle_invert(scaled)]
    det_identity = [[det_scaled * (i == j) for j in range(len(matrix))]
                for i in range(len(matrix))]
    assert _product(scaled, adj) == _product(adj, scaled) == det_identity


@settings(deadline=None, max_examples=150, derandomize=True)
@given(rational_matrices(square=False), st.integers(0, 6))
def test_span_matches_oracle(rows, target):
    chosen, grew = [], []
    for row in rows:
        grew.append(_oracle_independent(chosen + [row]))
        if grew[-1]:
            chosen.append(row)
    span = IncrementalSpan()
    assert [span.add(row) for row in rows] == grew
    assert span.rank == span_rank(rows) == len(chosen)
    indices = [i for i, g in enumerate(grew) if g]
    assert independent_rows(rows, target) == indices[:target]
