"""Exact integer elimination: rref, rank, kernels, back-substitution.

The Fraction path below (Gauss-Jordan, kernel vectors, integer
normalisation, back-substitution) is the oracle for the integer one, on
both of its paths: the mod-2 certificate of full column rank and the
exact elimination of the distinct nonzero rows.  ``rref`` keeps its last
answer; the elimination without that cache, ``_reduce.__wrapped__``, is
the oracle for every answer it hands out.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

from rpphilb import linalg
from rpphilb.components import _support_matrix
from rpphilb.linalg import kernel_basis, rank, rref, solve_from_rref
from rpphilb.rpp import all_factorizations, enumerate_rpps

from conftest import diagrams_up_to


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


def integer_normalize(vector):
    """Scale a rational vector to a primitive integer vector, first nonzero entry positive."""
    vec = [Fraction(v) for v in vector]
    if all(v == 0 for v in vec):
        return [0] * len(vec)
    denom_lcm = 1
    for v in vec:
        d = v.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(v * denom_lcm) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


def _fraction_kernel(reduced, pivots):
    """One rational kernel vector per free column: 1 there, the solved pivots elsewhere."""
    n_cols = len(reduced[0]) if reduced else 0
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis


def _fraction_solve(reduced, pivots, free_values, n_cols):
    """Kernel vector over the rationals with the given free-column values."""
    vec = [Fraction(0)] * n_cols
    for f, val in free_values.items():
        vec[f] = Fraction(val)
    for r, p in enumerate(pivots):
        vec[p] = -sum(reduced[r][f] * v for f, v in free_values.items())
    return vec


def _uncached_rref(matrix):
    """``rref`` by the elimination under its cache, called directly."""
    rows, pivots = linalg._reduce.__wrapped__(tuple(map(tuple, matrix)))
    return [list(row) for row in rows], list(pivots)


def _assert_matches_oracle(matrix):
    """rref, kernel_basis and solve_from_rref against the Fraction path, rref also uncached.

    Back-substitution is checked at every free-value vector in {-1..2}^free
    when there are at most three free columns, else at 64 seeded random
    vectors with entries in -3..3.
    """
    reduced, pivots = rref(matrix)
    assert (reduced, pivots) == _uncached_rref(matrix), matrix
    expected, expected_pivots = _fraction_rref(matrix)
    assert pivots == expected_pivots, matrix
    assert rank(matrix) == len(expected_pivots), matrix
    assert all(type(x) is int for row in reduced for x in row), matrix
    for r, row in enumerate(reduced):
        if r < len(pivots):
            assert row[pivots[r]] > 0 and gcd(*row) == 1, matrix
            assert [Fraction(x, row[pivots[r]]) for x in row] == expected[r], matrix
        else:
            assert not any(row) and not any(expected[r]), matrix
    assert kernel_basis(matrix) == [integer_normalize(v) for v in _fraction_kernel(expected, pivots)], matrix

    n_cols = len(matrix[0]) if matrix else 0
    free = [c for c in range(n_cols) if c not in pivots]
    if len(free) <= 3:
        vectors = product(range(-1, 3), repeat=len(free))
    else:
        rng = random.Random(repr(matrix))
        vectors = [[rng.randint(-3, 3) for _ in free] for _ in range(64)]
    for values in vectors:
        free_values = dict(zip(free, values))
        want = _fraction_solve(expected, pivots, free_values, n_cols)
        got = solve_from_rref(reduced, pivots, free_values, n_cols)
        if all(x.denominator == 1 for x in want):
            assert got == want, (matrix, free_values)
        else:
            assert got is None, (matrix, free_values)


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
        # scaling a row by a nonzero integer leaves the reduced rows unchanged
        scales = [rng.choice((-6, -3, -2, -1, 1, 2, 3, 5)) for _ in ints]
        scaled = [[k * x for x in row] for k, row in zip(scales, ints)]
        assert rref(scaled) == rref(ints), ints
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
    # kernel_basis returns the same normalisation of its rational kernel vectors
    assert kernel_basis([[2, 1]]) == [[1, -2]]
    assert kernel_basis([[1, 4]]) == [[4, -1]]
    assert kernel_basis([[1, 0], [0, 0]]) == [[0, 1]]


def test_solve_from_rref_yields_kernel_vector():
    matrix = [[1, 0, 2], [0, 1, 3]]
    reduced, pivots = rref(matrix)
    x = solve_from_rref(reduced, pivots, {2: 5}, 3)
    assert x == [-10, -15, 5]
    for row in matrix:
        assert sum(r * v for r, v in zip(row, x)) == 0


def test_solve_from_rref_rejects_a_non_integral_pivot_entry():
    reduced, pivots = rref([[2, 0, 1], [0, 3, 1]])
    assert reduced == [[2, 0, 1], [0, 3, 1]]
    assert solve_from_rref(reduced, pivots, {2: 1}, 3) is None
    assert solve_from_rref(reduced, pivots, {2: 6}, 3) == [-3, -2, 6]


def test_rref_is_invariant_under_row_scaling():
    assert rref([[3, 2]]) == rref([[6, 4]]) == rref([[-3, -2]]) == ([[3, 2]], [0])


def test_certificate_on_tall_zero_one_matrices():
    # more rows than columns, as support matrices have, at every density
    rng = random.Random(27)
    full = 0
    for _ in range(600):
        n_rows = rng.randint(2, 10)
        n_cols = rng.randint(1, n_rows)
        ones = rng.random()
        matrix = [[int(rng.random() < ones) for _ in range(n_cols)] for _ in range(n_rows)]
        _assert_matches_oracle(matrix)
        full += rank(matrix) == n_cols
    assert 100 < full < 500


def test_wide_zero_one_matrices_are_never_certified():
    # a wide matrix has dependent columns, even when its rows are independent mod 2
    assert rref([[1, 1]]) == ([[1, 1]], [0])
    assert rref([[1, 0, 1], [0, 1, 1]]) == ([[1, 0, 1], [0, 1, 1]], [0, 1])
    rng = random.Random(28)
    for _ in range(200):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(n_rows + 1, 9)
        _assert_matches_oracle([[rng.randint(0, 1) for _ in range(n_cols)] for _ in range(n_rows)])


def test_duplicate_and_zero_rows_change_nothing_but_the_padding():
    rng = random.Random(29)
    for _ in range(300):
        n_cols = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, 1, -1, 2)) for _ in range(n_cols)] for _ in range(rng.randint(1, 5))]
        padded = rows + [rng.choice(rows) for _ in range(rng.randint(1, 4))] + [[0] * n_cols] * rng.randint(0, 3)
        rng.shuffle(padded)
        _assert_matches_oracle(padded)
        reduced, pivots = rref(padded)
        want, want_pivots = rref(rows)
        assert len(reduced) == len(padded)
        assert (reduced[: len(pivots)], pivots) == (want[: len(want_pivots)], want_pivots), padded
    assert rref([[1, 0], [1, 0], [0, 0]]) == ([[1, 0], [0, 0], [0, 0]], [0])
    assert rref([[0, 0], [0, 0], [0, 0]]) == ([[0, 0], [0, 0], [0, 0]], [])


def test_entries_beyond_a_bit_and_beyond_a_byte():
    # mod 2 reads only the low bit of 2..255, and 256 or more takes the exact path
    rng = random.Random(30)
    for entries in ((0, 1, 2, 3, 255), (0, 1, 6, 254), (0, 1, 256, 257), (0, 1, 300, 2**70), (0, 255, 256)):
        for _ in range(150):
            n_rows = rng.randint(1, 7)
            n_cols = rng.randint(1, n_rows + 1)
            _assert_matches_oracle([[rng.choice(entries) for _ in range(n_cols)] for _ in range(n_rows)])
    for matrix in ([[2, 1], [0, 0]], [[1, 2], [1, 2]], [[3, 1], [6, 2]], [[255, 1], [0, 0]], [[256, 1], [1, 0]]):
        _assert_matches_oracle(matrix)


def test_singular_mod_2_but_regular_over_the_rationals():
    for matrix in ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[2, 0], [0, 1]], [[1, 1], [1, -1]], [[1, 1], [1, 3], [0, 0]]):
        _assert_matches_oracle(matrix)
        assert rank(matrix) == len(matrix[0]), matrix
    assert rref([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])


def test_every_support_matrix_of_small_fillings():
    # every factorisation of every filling of total <= 4 on the diagrams of <= 6 boxes
    seen = set()
    for d in diagrams_up_to(6):
        for n in enumerate_rpps(d, 4):
            for T in all_factorizations(n):
                if T.support:
                    seen.add(tuple(_support_matrix(T)))
    assert len(seen) > 100
    for matrix in seen:
        _assert_matches_oracle([list(row) for row in matrix])
        assert rref(matrix) == rref([list(row) for row in matrix]), matrix


def test_repeated_matrices_get_the_answers_of_fresh_ones():
    # a seeded run of small integer matrices in the order A, A, B, A, B, B, so that
    # hits and misses alternate; half the draws are tall 0/1 matrices, which the
    # mod-2 certificate answers, and each answer is checked against both oracles
    rng = random.Random(41)

    def draw():
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 5)
        if rng.random() < 0.5:
            return [[rng.randint(0, 1) for _ in range(min(n_cols, n_rows))] for _ in range(n_rows)]
        return [[rng.choice((0, 0, 1, -1, 2, rng.randint(-7, 7))) for _ in range(n_cols)] for _ in range(n_rows)]

    linalg._reduce.cache_clear()
    for _ in range(60):
        a, b = draw(), draw()
        for matrix in (a, a, b, a, b, b):
            _assert_matches_oracle(matrix)
    info = linalg._reduce.cache_info()
    assert info.maxsize == info.currsize == 1
    assert info.hits > info.misses > 0


def test_changing_an_answer_or_the_matrix_reaches_no_later_answer():
    # a certified matrix (the identity path) and an eliminated one (rank 2 of 3 columns)
    for matrix in ([[1, 0], [0, 1], [1, 1]], [[1, 2, 0], [2, 4, 1], [0, 0, 3], [1, 2, 0]]):
        want = _uncached_rref(matrix)
        reduced, pivots = rref(matrix)
        reduced[0][0] = 99
        reduced[-1].append(5)
        reduced.pop()
        pivots.append(7)
        pivots[0] = 3
        assert rref(matrix) == want, matrix
        _assert_matches_oracle(matrix)

    # the cache holds a snapshot of the values, so a matrix changed in place is reduced afresh
    matrix = [[1, 1], [1, 1], [0, 0]]
    assert rref(matrix) == ([[1, 1], [0, 0], [0, 0]], [0])
    matrix[1][0] = 0
    assert rref(matrix) == _uncached_rref(matrix) == ([[1, 0], [0, 1], [0, 0]], [0, 1])
    assert rank(matrix) == 2 and kernel_basis(matrix) == []
    matrix[1][1] = 0
    _assert_matches_oracle(matrix)
    assert rank(matrix) == 1
