"""The text of a signed sum of terms, shared by ``SparsePoly`` and series coefficients."""

from __future__ import annotations

from typing import Iterable


def format_terms(terms: Iterable[tuple[int, list[str]]]) -> str:
    """``(coefficient, factors)`` pairs, nonzero and in print order, as text.

    Factors join with ``*``, led by the magnitude unless it is 1 and factors
    follow, e.g. ``x^3 - 2*a_1_0_1*x^2 + 1``; no terms print as ``0``.
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
