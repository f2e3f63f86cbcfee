"""Exact rational elimination: rref, rank, kernels, integer normalisation."""

import random
from fractions import Fraction
from itertools import product

from rpphilb.linalg import (
    integer_normalize,
    kernel_basis,
    rank,
    rref,
    solve_from_rref,
)


def _fraction_rref(matrix):
    """Gauss-Jordan over Fractions: the oracle for the integer elimination in rref."""
    m = [[Fraction(entry) for entry in row] for row in matrix]
    if not m:
        return [], []
    n_cols = len(m[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pv = m[row][col]
        m[row] = [entry / pv for entry in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def _assert_matches_oracle(matrix):
    reduced, pivots = rref(matrix)
    expected, expected_pivots = _fraction_rref(matrix)
    assert (reduced, pivots) == (expected, expected_pivots), matrix
    assert all(type(x) is Fraction for row in reduced for x in row), matrix


def test_rref_matches_fraction_elimination_on_small_integer_matrices():
    # every matrix up to 3x3 with entries in {-1, 0, 1}, and in {-2..2} up to four
    # entries; random.Random covers the larger 3x3 ones below
    shapes = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]
    cases = [(r, c, range(-1, 2)) for r, c in shapes]
    cases += [(r, c, range(-2, 3)) for r, c in shapes if r * c <= 4]
    for n_rows, n_cols, entries in cases:
        for flat in product(entries, repeat=n_rows * n_cols):
            _assert_matches_oracle([list(flat[k : k + n_cols]) for k in range(0, len(flat), n_cols)])


def test_rref_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(7)
    for _ in range(400):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 8)
        ints = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n_cols)] for _ in range(n_rows)]
        _assert_matches_oracle(ints)
        _assert_matches_oracle([[Fraction(x, rng.randint(1, 6)) for x in row] for row in ints])
        square = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        _assert_matches_oracle(square)
    _assert_matches_oracle([])
    _assert_matches_oracle([[0, 0, 0], [0, 0, 0]])


def test_rref_reduces_dependent_rows():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert reduced == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_rank():
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0


def test_kernel_basis_members_annihilate():
    matrix = [[1, 1, -1, -1], [0, 2, 1, -3]]
    basis = kernel_basis(matrix)
    assert len(basis) == 2
    for vec in basis:
        for row in matrix:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_kernel_of_injective_matrix_is_trivial():
    assert kernel_basis([[1, 0], [0, 1], [1, 1]]) == []


def test_integer_normalize_clears_denominators_and_sign():
    assert integer_normalize([Fraction(2, 3), Fraction(-4, 3)]) == [1, -2]
    assert integer_normalize([Fraction(-1, 2), Fraction(1, 4)]) == [2, -1]
    assert integer_normalize([Fraction(0), Fraction(-3)]) == [0, 1]


def test_solve_from_rref_yields_kernel_vector():
    matrix = [[1, 0, 2], [0, 1, 3]]
    reduced, pivots = rref(matrix)
    x = solve_from_rref(reduced, pivots, {2: Fraction(5)}, 3)
    assert x == [Fraction(-10), Fraction(-15), Fraction(5)]
    for row in matrix:
        assert sum(r * v for r, v in zip(row, x)) == 0


def test_rref_with_fraction_entries():
    reduced, pivots = rref([[Fraction(1, 2), Fraction(1, 3)]])
    assert reduced == [[1, Fraction(2, 3)]]
    assert pivots == [0]
