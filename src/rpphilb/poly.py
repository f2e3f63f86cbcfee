"""Sparse multivariate polynomials over the integers.

Variables are tagged tuples (kind, i, j, k): the main variable ``x``, the
coefficient families ``a``/``b``/``c`` indexed by a box (i=column, j=row)
and a depth k, and the motive symbol ``L``.  A variable's weight in
``weighted_degree`` and ``is_homogeneous`` is its depth k (0 for x and
L).  Polynomials are dicts from monomials (sorted tuples of (variable,
exponent) pairs) to integer coefficients.

The text format is a signed sum of ``*``-products of numbers and variables,
each with an optional ``^ number``, e.g. ``x^3 - a_1_0_1*x^2 + 2``; it
round-trips through ``parse_poly``, which refuses parentheses.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import DomainError, ints, text_int
from .univariate import format_terms, monic_divmod

_KIND_RANK = {"x": 0, "a": 1, "b": 2, "c": 3, "L": 4}


class VarId(namedtuple("VarId", "kind i j k", defaults=(0, 0, 0))):
    __slots__ = ()

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.j, self.i, self.k)

    def __str__(self) -> str:
        if self.kind in ("x", "L"):
            return self.kind
        return f"{self.kind}_{self.i}_{self.j}_{self.k}"


X = VarId("x")
L = VarId("L")


def var_a(i: int, j: int, k: int) -> VarId:
    return VarId("a", i, j, k)


def var_b(i: int, j: int, k: int) -> VarId:
    return VarId("b", i, j, k)


def var_c(i: int, j: int, k: int) -> VarId:
    return VarId("c", i, j, k)


def parse_var_name(name: str) -> VarId:
    if name == "x":
        return X
    if name == "L":
        return L
    kind, *indices = name.split("_")
    unknown = f"unknown variable name {name!r}"
    # only the printed form: no sign and no leading zero, and every chart
    # coordinate has depth k >= 1
    if (
        kind in ("a", "b", "c")
        and len(indices) == 3
        and all(i.isdigit() and str(text_int(i, unknown, name)) == i for i in indices)
        and indices[2] != "0"
    ):
        return VarId(kind, *map(int, indices))
    raise DomainError("parse-error", unknown, name)


# a monomial is a tuple of (VarId, exponent) pairs, sorted, exponents >= 1
Monomial = tuple


def _monomial(pairs: Iterable) -> Monomial:
    """The monomial of (variable, exponent) pairs: a repeated variable's exponents add up."""
    exps: dict = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda p: p[0].sort_key()))


class SparsePoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        terms = terms or {}
        ints(terms.values(), "coefficients")
        cleaned: dict = {}
        for mono, c in terms.items():
            if any(e < 0 for e in ints((e for _, e in mono), "exponents")):
                raise DomainError("parse-error", "negative exponent in a monomial", [[str(v), e] for v, e in mono])
            key = _monomial(mono)
            cleaned[key] = cleaned.get(key, 0) + c
        self.terms = {m: c for m, c in cleaned.items() if c}

    @classmethod
    def constant(cls, c: int) -> "SparsePoly":
        ints((c,), "coefficients")
        return _raw({(): c} if c else {})

    @classmethod
    def variable(cls, v: VarId) -> "SparsePoly":
        return _raw({((v, 1),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "SparsePoly":
        return _raw(_accumulate(dict(self.terms), other, 1))

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        return _raw(_accumulate(dict(self.terms), other, -1))

    def __rsub__(self, other) -> "SparsePoly":
        return _raw(_accumulate({m: -c for m, c in self.terms.items()}, other, 1))

    def __mul__(self, other) -> "SparsePoly":
        if type(other) is int:  # a scalar: no monomial changes (a bool goes through _coerce)
            return _raw({m: c * other for m, c in self.terms.items()} if other else {})
        other = _coerce(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _merge_monomials(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SparsePoly":
        ints([e], "polynomial power")
        if e < 0:
            raise DomainError("parse-error", "negative polynomial power", e)
        result = SparsePoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if type(other) is int:  # a bool is not a constant
            other = SparsePoly.constant(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- degrees, linear parts, substitution -----------------------------------

    def weighted_degree(self) -> int | None:
        """Largest monomial degree, each variable weighing its depth k; None if zero."""
        return max((sum(e * v.k for v, e in mono) for mono in self.terms), default=None)

    def is_homogeneous(self) -> bool:
        """Whether all monomials have one degree when each variable weighs its depth k."""
        return len({sum(e * v.k for v, e in mono) for mono in self.terms}) <= 1

    def linear_part(self) -> dict:
        """Coefficients of the degree-one monomials, as a VarId -> int dict."""
        out = {}
        for mono, c in self.terms.items():
            if len(mono) == 1 and mono[0][1] == 1:
                out[mono[0][0]] = c
        return out

    def substitute(self, assignments: dict) -> "SparsePoly":
        """Replace variables by polynomials (unlisted variables stay)."""
        out: dict = {}
        for mono, c in self.terms.items():
            if not any(v in assignments for v, _ in mono):
                out[mono] = out.get(mono, 0) + c  # untouched: its own image
                continue
            term = SparsePoly.constant(c)
            for v, e in mono:
                term = term * (_coerce(assignments[v]) ** e if v in assignments else _raw({((v, e),): 1}))
            for m, t in term.terms.items():
                out[m] = out.get(m, 0) + t
        return _raw({m: c for m, c in out.items() if c})

    def evaluate(self, values: dict) -> int:
        """Value at a point that assigns an int to every variable."""
        total = 0
        for mono, c in self.terms.items():
            for v, e in mono:
                try:
                    c *= values[v] ** e
                except KeyError:
                    raise DomainError("parse-error", f"no value for variable {v}", str(v)) from None
            total += c
        return total

    # -- printing and parsing ----------------------------------------------------

    def _sort_terms(self) -> list:
        """Descending graded lex: total degree first, then the exponent vector
        over the canonically ordered variables (x most significant)."""
        all_vars = sorted({v for mono in self.terms for v, _ in mono}, key=VarId.sort_key)
        pos = {v: p for p, v in enumerate(all_vars)}

        def key(item):
            mono, _ = item
            vec = [0] * len(all_vars)
            for v, e in mono:
                vec[pos[v]] = e
            return (sum(vec), vec)

        return sorted(self.terms.items(), key=key, reverse=True)

    def __str__(self) -> str:
        return format_terms(
            (c, [str(v) if e == 1 else f"{v}^{e}" for v, e in mono]) for mono, c in self._sort_terms()
        )

    __repr__ = __str__


def _raw(terms: dict) -> SparsePoly:
    p = SparsePoly.__new__(SparsePoly)
    p.terms = terms
    return p


def _coerce(value) -> SparsePoly:
    if isinstance(value, SparsePoly):
        return value
    if isinstance(value, int):
        return SparsePoly.constant(value)
    raise DomainError("parse-error", f"cannot use {value!r} as a polynomial", value)


def _accumulate(out: dict, other, sign: int) -> dict:
    """out plus sign times other, in place; monomials that cancel leave out.

    An exact int adds to the constant term; a bool goes through _coerce, which refuses it.
    """
    for mono, c in ({(): other} if type(other) is int else _coerce(other).terms).items():
        s = out.get(mono, 0) + sign * c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """The product monomial; two one-variable monomials are ordered without a sort."""
    if not (m1 and m2):
        return m1 or m2
    if len(m1) == len(m2) == 1:
        (v1, e1), (v2, e2) = m1[0], m2[0]
        if v1 == v2:
            return ((v1, e1 + e2),)
        return m1 + m2 if v1.sort_key() < v2.sort_key() else m2 + m1
    return _monomial(m1 + m2)


def divmod_in_x(f: SparsePoly, g: SparsePoly) -> tuple[SparsePoly, SparsePoly]:
    """Quotient and remainder of f by g, viewing both as polynomials in x.

    The divisor must be monic in x (leading x-coefficient equal to 1), which
    keeps everything over the integers.
    """
    x = SparsePoly.variable(X)
    q, r = monic_divmod(_split_x(f), _split_x(g))
    return tuple(sum((c * x**k for k, c in enumerate(h)), SparsePoly.constant(0)) for h in (q, r))


def _split_x(p: SparsePoly) -> tuple:
    """Coefficients of x^0, x^1, ... of p as polynomials in the other variables."""
    coeffs: list[dict] = []
    for mono, c in p.terms.items():
        d = mono[0][1] if mono and mono[0][0] == X else 0  # x sorts first
        coeffs += [{} for _ in range(d + 1 - len(coeffs))]
        coeffs[d][mono[1:] if d else mono] = c
    return tuple(_raw(t) for t in coeffs)


# -- parser ------------------------------------------------------------------


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch in "+-*^":
            tokens.append(ch)
            pos += 1
        elif "0" <= ch <= "9":  # str.isdigit() also takes '²' and '١'
            start = pos
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(text_int(text[start:pos], "number too long in polynomial", text))
        elif ch.isalpha():
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(parse_var_name(text[start:pos]))
        else:
            raise DomainError("parse-error", f"unexpected character {ch!r} in polynomial", text)
    return tokens


def parse_poly(text: str) -> SparsePoly:
    """Read back the text that ``format_terms`` prints.

    The grammar is ``[sign] term {sign term}``, a term is ``factor {* factor}``
    and a factor is a number, or a variable with an optional ``^ number``.
    Parentheses and a power of a number are refused: no printed form
    contains one.
    """
    if not isinstance(text, str):
        raise DomainError("parse-error", "polynomial text must be a string", text)
    tokens = [*_tokenize(text), None]  # None ends the text
    if tokens[0] is None:
        raise DomainError("parse-error", "empty polynomial text", text)
    # each term is its coefficient under its (variable, exponent) pairs;
    # the constructor merges repeated variables and drops zero terms
    terms: dict = {}
    pos = 1 if tokens[0] in ("+", "-") else 0
    coef, pairs = -1 if tokens[0] == "-" else 1, []
    while True:
        base, exp = tokens[pos], 1
        if not isinstance(base, (int, VarId)):
            raise DomainError("parse-error", f"unexpected token {base!r} in polynomial", text)
        if tokens[pos + 1] == "^":
            if isinstance(base, int):  # raising it would be unbounded work on short text
                raise DomainError("parse-error", "a number takes no exponent", text)
            exp = tokens[pos + 2]
            if not isinstance(exp, int):
                raise DomainError("parse-error", "exponent must be a number", text)
            pos += 2
        if isinstance(base, int):
            coef *= base
        else:
            pairs.append((base, exp))
        op = tokens[pos + 1]
        pos += 2
        if op == "*":
            continue
        key = tuple(pairs)
        terms[key] = terms.get(key, 0) + coef
        if op is None:
            return SparsePoly(terms)
        if op not in ("+", "-"):
            raise DomainError("parse-error", f"trailing tokens in polynomial {text!r}", text)
        coef, pairs = -1 if op == "-" else 1, []
