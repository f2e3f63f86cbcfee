"""Exact linear algebra over the integers (no floats, no rationals).

Small dense integer matrices only: row reduction, rank, primitive integer
kernel vectors and integer back-substitution.  A matrix is a list of
rows, each a list or tuple of ints.

``rref`` first tries to certify full column rank mod 2: columns that are
independent over GF(2) are independent over Q, because a primitive
integer relation among them would stay nonzero mod 2.  Then the rational
RREF is the identity over zero rows and no elimination runs.  Otherwise
it eliminates exactly, on the distinct nonzero rows only, since repeated
and zero rows add nothing to the row space.

``rref`` keeps its last answer (``functools.lru_cache(maxsize=1)``, keyed
by the matrix's values), because ``classify`` tests each component with
two reductions of one support matrix in a row: ``differential_injective``
through ``kernel_basis``, then ``bijective_on_points``.  The second is a
hit.  One entry, and no more: the next matrix evicts it, so no answer
outlives its component, and a matrix met again later is reduced again.
An elimination shared by the two tests is to replace this cache.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

# byte b -> b mod 2: bytes(column).translate(_PARITY) is the column mod 2
_PARITY = bytes(b & 1 for b in range(256))


def _primitive(vector: list[int]) -> list[int]:
    """The vector divided by the gcd of its entries, signed so the first nonzero entry is positive."""
    g = gcd(*vector)
    if next(x for x in vector if x) < 0:
        g = -g
    return vector if g == 1 else [x // g for x in vector]


def _independent_mod_2(columns) -> bool:
    """Whether the columns, all entries in 0..255, are linearly independent over GF(2).

    Each column packs into one int, one byte per entry holding the entry
    mod 2; an echelon basis keyed by leading bit reduces each new column.
    Raises ValueError on an entry outside 0..255.
    """
    basis: dict[int, int] = {}
    for col in columns:
        v = int.from_bytes(bytes(col).translate(_PARITY), "little")
        while v:
            lead = v.bit_length()
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
        else:
            return False
    return True


def rref(matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form, one primitive integer row per row, and the pivot columns.

    Row r is the primitive integer multiple, with a positive pivot, of row r
    of the rational RREF; dividing it by its pivot entry gives that row.
    The rows below the pivot rows are zero.

    Columns of entries in 0..255 that are independent mod 2 are
    independent over Q (see the module docstring), so the answer is the
    identity over zero rows, read off without eliminating.  Otherwise
    Gauss-Jordan runs over Python ints on the distinct nonzero rows,
    fraction-free (cf. Bareiss, Math. Comp. 22, 1968): an update takes
    pivot * row - entry * pivot_row and, unless the pivot is 1, divides the
    result by the gcd of its entries.  The rational RREF is unique, so the
    rows do not depend on the elimination order or on which rows repeat.

    The answer for the last matrix reduced is kept (see the module
    docstring); the key is a snapshot of the matrix's values, and the
    rows and pivots returned are new lists on every call.
    """
    rows, pivots = _reduce(tuple(map(tuple, matrix)))
    return [list(row) for row in rows], list(pivots)


@lru_cache(maxsize=1)
def _reduce(matrix: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``rref``'s elimination of a tuple of row tuples, answered in tuples; ``__wrapped__`` skips the cache."""
    if not matrix:
        return (), ()
    n_rows, n_cols = len(matrix), len(matrix[0])
    if n_cols <= n_rows:
        try:
            certified = _independent_mod_2(zip(*matrix))
        except ValueError:
            certified = False
        if certified:
            zero = (0,) * n_cols
            identity = tuple(zero[:c] + (1,) + zero[c + 1 :] for c in range(n_cols))
            return identity + (zero,) * (n_rows - n_cols), tuple(range(n_cols))
    m = [list(row) for row in dict.fromkeys(matrix) if any(row)]
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        for pivot_row in range(row, len(m)):
            if m[pivot_row][col]:
                break
        else:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        prow = m[row]
        pv = prow[col]
        for r, other in enumerate(m):
            factor = other[col]
            if factor and r != row:
                if pv == 1:
                    m[r] = [a - factor * b for a, b in zip(other, prow)]
                else:
                    updated = [pv * a - factor * b for a, b in zip(other, prow)]
                    g = gcd(*updated)
                    m[r] = [a // g for a in updated] if g > 1 else updated
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    # a pivot is the first nonzero entry of its row
    out = tuple(tuple(_primitive(m[r])) for r in range(len(pivots)))
    return out + ((0,) * n_cols,) * (n_rows - len(pivots)), tuple(pivots)


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
    if not free:
        return []
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
