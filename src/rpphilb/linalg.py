"""Exact linear algebra over the rationals (no floats).

Small dense matrices only: row reduction, rank, kernel bases, and integer
normalisation of rational vectors.  Matrices are lists of rows whose
entries are ints or Fractions; results are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO, _ONE = Fraction(0), Fraction(1)


def _integer_row(row) -> list[int]:
    """The row scaled by the lcm of its denominators; scaling leaves the RREF unchanged."""
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs]


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the pivot column indices.

    Gauss-Jordan runs over Python ints: each rational row is first scaled
    to an integer one, an update takes pivot * row - entry * pivot_row,
    and the updated row is divided by the gcd of its entries, so no
    Fraction is built until the output, where each pivot row is divided
    by its pivot.  The RREF is unique, so this equals rational elimination.
    """
    m = [_integer_row(row) for row in matrix]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        for pivot_row in range(row, n_rows):
            if m[pivot_row][col]:
                break
        else:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        prow = m[row]
        pv = prow[col]
        for r in range(n_rows):
            factor = m[r][col]
            if factor and r != row:
                updated = [pv * a - factor * b for a, b in zip(m[r], prow)]
                g = gcd(*updated)
                m[r] = [a // g for a in updated] if g > 1 else updated
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    out = []
    for r, p in enumerate(pivots):
        pv = m[r][p]
        out.append([_ZERO if not x else _ONE if x == pv else Fraction(x, pv) for x in m[r]])
    out += [[_ZERO] * n_cols for _ in range(n_rows - len(pivots))]
    return out, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column.

    The vector for free column f has 1 at f and the solved pivot entries
    elsewhere; vectors are ordered by free column index.
    """
    m, pivots = rref(matrix)
    if not m:
        return []
    n_cols = len(m[0])
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(vec)
    return basis


def integer_normalize(vector) -> list[int]:
    """Scale a rational vector to a primitive integer vector.

    Clears denominators, divides by the gcd, and flips signs so the first
    nonzero entry is positive.  The zero vector maps to itself.
    """
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


def solve_from_rref(
    reduced: list[list[Fraction]],
    pivots: list[int],
    free_values: dict[int, Fraction],
    n_cols: int,
) -> list[Fraction]:
    """Kernel vector with the given free-column values (all free columns required)."""
    vec = [Fraction(0)] * n_cols
    for f, val in free_values.items():
        vec[f] = Fraction(val)
    for r, p in enumerate(pivots):
        vec[p] = -sum(reduced[r][f] * v for f, v in free_values.items())
    return vec
