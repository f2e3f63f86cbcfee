"""Point counts over prime fields for nested tuples of monic polynomials.

The independent oracle for the motivic series: a point of the nested
scheme over F_p is a tuple of monic polynomials, one per box, with the
prescribed degrees and with each polynomial divisible by its left and
up neighbours; the count builds one divisibility in and tests the other
with ``univariate``'s product and monic division.  Counting the tuples
directly ties the divisibility model to the series: the count equals
the motivic coefficient at L = p box monomial by box monomial on shapes
whose diagonals are all distinct, and diagonal total by diagonal total
in general.
"""

from __future__ import annotations

import os
from itertools import product

from .errors import CapExceeded, DomainError, ints, text_int
from .rpp import RPP
from .univariate import monic_divmod, poly_mul

DEFAULT_BUDGET = 10**7
DEFAULT_MAX_P = 7
BUDGET_ENV_VAR = "RPPHILB_MAX_BUDGET"


#: the first 13 primes; Miller-Rabin with these bases is exact below MAX_PRIME_TEST
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_TEST = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a modulus of MAX_PRIME_TEST or more is refused.

    The bound is the least strong pseudoprime to the 13 fixed bases, so
    below it they are exact; the first 12 bases alone admit the strong
    pseudoprime 318665857834031151167461 (Sorenson and Webster, "Strong
    pseudoprimes to twelve prime bases", 2017).
    """
    ints([p], "prime modulus")
    if p < 2:
        return False
    if p >= MAX_PRIME_TEST:
        raise CapExceeded(
            "cap-exceeded", f"primality of {p} is only decided below {MAX_PRIME_TEST}", p
        )
    if any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def configured_budget() -> int:
    """Enumeration budget: RPPHILB_MAX_BUDGET if set, else the default."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    value = text_int(raw, f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}", raw)
    if value <= 0:
        raise DomainError(
            "parse-error", f"{BUDGET_ENV_VAR} must be positive, got {value}", value
        )
    return value


class PrimeField:
    """Arithmetic modulo a small prime.

    Monic polynomials are tuples of residues for the coefficients of
    x^0 .. x^d, lowest power first, as ``poly`` takes them; the leading
    1 is kept, so ``(1,)`` is the constant polynomial 1.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        ints([p], "prime modulus")
        # the cap comes first, so every modulus above it is refused as too large, prime or not
        if p > DEFAULT_MAX_P:
            raise CapExceeded(
                "cap-exceeded", f"modulus {p} exceeds the field-size cap {DEFAULT_MAX_P}", p
            )
        if not is_prime(p):
            raise DomainError("nonprime-modulus", f"modulus {p!r} is not prime", p)
        self.p = p

    def monic_polynomials(self, degree: int):
        """All monic polynomials of the given degree, odometer order."""
        return ((*q, 1) for q in product(range(self.p), repeat=degree))

    def divides(self, a: tuple, b: tuple) -> bool:
        """Whether monic a divides monic b; a monic divisor lets the division run over Z."""
        return not any([r % self.p for r in monic_divmod(b, a)[1]])


def _power_text(p: int, exponent: int, budget: int) -> str:
    """The text p^exponent, and its value after " = " where the exponent is below the budget's bit length.

    The value is left out where Python refuses to print it (an env budget of thousands of digits).
    """
    if exponent < budget.bit_length():
        try:
            return f"{p}^{exponent} = {p**exponent}"
        except ValueError:  # past Python's int-string conversion limit
            pass
    return f"{p}^{exponent}"


def count_points(n: RPP, p: int) -> int:
    """Number of nested tuples of monic polynomials over F_p shaped by n.

    One monic polynomial of degree n(box) per box, with the left and up
    neighbours dividing it.  Each box's candidates are its neighbour of
    larger degree (the left one on a tie) times every monic q of the
    remaining degree, so only the other neighbour's divisibility is
    tested, and only when that neighbour is not the constant 1.  The
    budget still bounds the raw search space of p^|n| tuples: the call
    refuses to start when that exceeds it.
    """
    field = PrimeField(p)
    budget = configured_budget()
    # p >= 2, so p^|n| >= 2^|n| > budget once |n| reaches the budget's bit length: decided unbuilt
    if n.size >= budget.bit_length() or p**n.size > budget:
        raise CapExceeded(
            "budget-exceeded",
            f"{_power_text(p, n.size, budget)} candidate tuples exceed the budget {budget}",
            n.to_text(),
        )

    diagram = n.diagram
    # index -1 reads the zero extension: degree 0, the constant polynomial 1
    degrees = (*n.values, 0)
    assigned: list = [None] * diagram.size + [(1,)]

    def dfs(k: int) -> int:
        if k == diagram.size:
            return 1
        built, tested = diagram.left[k], diagram.up[k]
        if degrees[tested] > degrees[built]:
            built, tested = tested, built
        factor, divisor = assigned[built], assigned[tested]
        total = 0
        for q in field.monic_polynomials(degrees[k] - degrees[built]):
            candidate = tuple([c % p for c in poly_mul(factor, q)]) if degrees[built] else q
            if not degrees[tested] or field.divides(divisor, candidate):
                assigned[k] = candidate
                total += dfs(k + 1)
        return total

    total = dfs(0)
    del dfs  # it holds itself through its closure cell; drop that cycle now, not at a GC pass
    return total


def component_point(diagram, T, factors) -> list:
    """Row-major (Π_{ν∋box} f_ν), over Z: the resolution Π_ν Sym^{m_ν} A1 → Z_T at one point.

    ``factors`` holds one monic int tuple f_ν per support indicator ν of T, in support order.
    """
    point = [(1,)] * diagram.size
    for nu, f in zip(T.terms, factors):
        point = [poly_mul(g, f) if x else g for g, x in zip(point, nu.values)]
    return point
