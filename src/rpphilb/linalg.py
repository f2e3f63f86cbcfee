"""Exact linear algebra over the integers (no floats, no rationals).

Small dense integer matrices only: row reduction, rank, primitive integer
kernel vectors and integer back-substitution.  Matrices are lists of rows
of ints.
"""

from __future__ import annotations

from math import gcd, lcm


def _primitive(vector: list[int]) -> list[int]:
    """The vector divided by the gcd of its entries, signed so the first nonzero entry is positive."""
    g = gcd(*vector)
    if next(x for x in vector if x) < 0:
        g = -g
    return vector if g == 1 else [x // g for x in vector]


def rref(matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form, one primitive integer row per row, and the pivot columns.

    Row r is the primitive integer multiple, with a positive pivot, of row r
    of the rational RREF; dividing it by its pivot entry gives that row.
    Gauss-Jordan runs over Python ints, fraction-free (cf. Bareiss, Math.
    Comp. 22, 1968): an update takes pivot * row - entry * pivot_row and
    divides the result by the gcd of its entries.  The rational RREF is
    unique, so the rows do not depend on the elimination order.
    """
    m = [list(row) for row in matrix]
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
    # a pivot is the first nonzero entry of its row
    out = [_primitive(m[r]) for r in range(len(pivots))]
    out += [[0] * n_cols for _ in range(n_rows - len(pivots))]
    return out, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix) -> list[list[int]]:
    """Basis of the right kernel, one primitive integer vector per free column.

    The vector for free column f is the primitive integer multiple, with
    its first nonzero entry positive, of the rational kernel vector with 1
    at f, 0 at the other free columns and the solved pivot entries;
    vectors are ordered by free column index.
    """
    m, pivots = rref(matrix)
    if not m:
        return []
    n_cols = len(m[0])
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    # pivot p solves to -m[r][f] / m[r][p], so scaling by the lcm of the pivots clears denominators
    scale = lcm(*(m[r][p] for r, p in enumerate(pivots)))
    basis = []
    for f in free:
        vec = [0] * n_cols
        vec[f] = scale
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f] * (scale // m[r][p])
        basis.append(_primitive(vec))
    return basis


def solve_from_rref(
    reduced: list[list[int]],
    pivots: list[int],
    free_values: dict[int, int],
    n_cols: int,
) -> list[int] | None:
    """Integer kernel vector with the given free-column values (all free columns required).

    Each pivot entry is solved by exact division; returns None when one of
    them is not an integer.
    """
    vec = [0] * n_cols
    for f, val in free_values.items():
        vec[f] = val
    for r, p in enumerate(pivots):
        row = reduced[r]
        q, rem = divmod(-sum(row[f] * v for f, v in free_values.items()), row[p])
        if rem:
            return None
        vec[p] = q
    return vec
