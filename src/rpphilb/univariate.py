"""Univariate polynomials as coefficient tuples, and the printer of term sums.

A univariate polynomial is a tuple of coefficients, lowest power first,
whose entries are ints or SparsePolys.  ``poly_mul`` and ``monic_divmod``
are the one product and the one monic division on such tuples: series
coefficients in Z[L], the local equations' monics in x, the integer
nested tuples of ``verify`` and the F_p point count all use them.
``format_terms`` prints both SparsePolys and series coefficients.

This module imports only ``errors``, so the series path loads it without
the multivariate polynomials of ``poly``.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DomainError


def poly_mul(f, g) -> tuple:
    """Product of two coefficient tuples, lowest power first; entries are ints or SparsePolys.

    Both are nonempty: callers pass monics, nonzero weights and stored (nonzero) series coefficients.
    """
    # each entry starts from its first product, f[0]·g[k] or f[i]·g[-1], never from the int 0
    last = len(g) - 1
    out = [f[0] * b for b in g] + [a * g[last] for a in f[1:]]
    for i in range(1, len(f)):
        a = f[i]
        for j in range(last):
            out[i + j] += a * g[j]
    return tuple(out)


def monic_divmod(f, g) -> tuple[tuple, tuple]:
    """Quotient and remainder of coefficient tuples, lowest power first, by a monic g.

    Entries are ints or SparsePolys.  The remainder has exactly len(g) − 1
    entries, zero-padded however short f is.
    """
    if not g or g[-1] != 1:
        raise DomainError("non-monic-divisor", "division requires a divisor monic in x", tuple(g))
    dg = len(g) - 1
    rest = [*f, *(0,) * (dg - len(f))]
    # top down, each entry at k + dg is final once read: it is the quotient's
    for k in reversed(range(len(rest) - dg)):
        c = rest[k + dg]
        for i in range(dg):
            rest[k + i] -= c * g[i]
    return tuple(rest[dg:]), tuple(rest[:dg])


def format_terms(terms: Iterable[tuple[int, list[str]]]) -> str:
    """``(coefficient, factors)`` pairs, nonzero and in print order, as text.

    Factors join with ``*``, led by the magnitude unless it is 1 and factors
    follow, e.g. ``x^3 - 2*a_1_0_1*x^2 + 1``; no terms print as ``0``.
    ``SparsePoly`` and series coefficients print through it.
    """
    pieces = []
    for c, factors in terms:
        mag = abs(c)
        body = "*".join(factors if mag == 1 and factors else [str(mag), *factors])
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"
