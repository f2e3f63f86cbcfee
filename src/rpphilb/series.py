"""Truncated generating series over the boxes of a Young diagram.

Each box carries a variable q_box; the hook variable of a box is the
product of the q's over its hook.  The brute-force RPP sum, the hook
product with integer exponents (Euler form), and the motivic product of
zeta factors for the affine line and the projective line are all computed
as truncated series: exponent vectors with total at most max_size mapping
to coefficients in Z[L].  A coefficient is a tuple of ints indexed by the
power of L, lowest first, with no trailing zeros, so L^2 + 1 is (1, 0, 1)
and zero is the empty tuple, which is never stored.  Coefficients are
multiplied by ``univariate.poly_mul``, or shifted and scaled when one
factor is a monomial c·L^d; the top entry of a product is a product of
two nonzero ints, so a product needs no trimming.

The public ``TruncatedSeries(...)`` (and ``substitute_L``) validates and
normalises every term.  Its sizes, exponents and coefficient entries, the
L value, and a factor's exponents, weight and power pass ``errors.ints``,
so a bool or a float there is a parse-error.  The products, the brute-force sum,
``__mul__`` and the diagonal collapse build normalised terms under
max_size themselves (the last two drop coefficients that cancelled to
zero), so they store them unchecked through ``TruncatedSeries._of``.
"""

from __future__ import annotations

from struct import Struct

from .diagram import YoungDiagram
from .errors import DomainError, flag, ints
from .univariate import format_terms, poly_mul


class TruncatedSeries:
    """Finitely many multidegrees, each with a coefficient in Z[L]."""

    __slots__ = ("n_vars", "max_size", "coefficients", "single_variable")

    def __init__(
        self,
        n_vars: int,
        max_size: int,
        coefficients: dict | None = None,
        single_variable: bool = False,
    ):
        ints([n_vars, max_size], "n_vars and max_size")
        if max_size < 0:
            raise DomainError("negative-size", "max_size must be nonnegative", max_size)
        if flag(single_variable, "single_variable") and n_vars != 1:
            raise DomainError("parse-error", f"a single-variable series has 1 variable, not {n_vars}", n_vars)
        self.n_vars = n_vars
        self.max_size = max_size
        self.single_variable = single_variable
        coeffs = {}
        for exp, c in (coefficients or {}).items():
            exp = ints(exp, "exponent vector")
            if len(exp) != n_vars:
                raise DomainError("parse-error", f"exponent vector {exp} has wrong length", exp)
            if any(e < 0 for e in exp):
                raise DomainError("parse-error", f"negative exponent in {exp}", exp)
            if sum(exp) > max_size:
                continue
            c = _coefficient(c)
            if c:
                coeffs[exp] = c
        self.coefficients = coeffs

    @classmethod
    def _of(
        cls, n_vars: int, max_size: int, coefficients: dict, single_variable: bool = False
    ) -> "TruncatedSeries":
        """A series from terms this module built, stored as given and checked for nothing.

        Every key must be an int tuple of length n_vars, nonnegative, with
        total at most max_size, and every value a nonzero coefficient tuple.
        """
        series = object.__new__(cls)
        series.n_vars, series.max_size = n_vars, max_size
        series.coefficients, series.single_variable = coefficients, single_variable
        return series

    def coefficient(self, exponents) -> tuple:
        return self.coefficients.get(tuple(exponents), ())

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out: dict = {}
        for e1, c1 in self.coefficients.items():
            s1 = sum(e1)
            for e2, c2 in other.coefficients.items():
                if s1 + sum(e2) > self.max_size:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = _add(out.get(exp, ()), poly_mul(c1, c2))
        out = {exp: c for exp, c in out.items() if c}
        return TruncatedSeries._of(self.n_vars, self.max_size, out, self.single_variable)

    def _check_compatible(self, other) -> None:
        if not isinstance(other, TruncatedSeries) or other.n_vars != self.n_vars:
            raise DomainError("diagram-mismatch", "series have different variable sets", None)
        if other.max_size != self.max_size:
            raise DomainError("diagram-mismatch", "series have different truncation sizes", None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.n_vars == other.n_vars and self.coefficients == other.coefficients

    def substitute_L(self, value: int) -> "TruncatedSeries":
        """Specialise the motive symbol to an integer."""
        ints([value], "L value")
        return TruncatedSeries(
            self.n_vars,
            self.max_size,
            {exp: evaluate_motive(c, value) for exp, c in self.coefficients.items()},
            self.single_variable,
        )

    def sorted_items(self) -> list:
        return sorted(self.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def to_json_obj(self) -> list:
        out = []
        for exp, c in self.sorted_items():
            coeff = {str(d): x for d, x in enumerate(c) if x}
            if self.single_variable:
                out.append({"size": exp[0], "coefficient": coeff})
            else:
                out.append({"exponents": list(exp), "coefficient": coeff})
        return out

    def __repr__(self) -> str:
        parts = [f"q^{list(exp)}: {format_coefficient(c)}" for exp, c in self.sorted_items()]
        return f"TruncatedSeries({'; '.join(parts)})"


def format_coefficient(coefficient: tuple) -> str:
    """A coefficient as text, highest power of L first, e.g. ``L^2 + L + 1``."""
    terms = reversed(list(enumerate(coefficient)))
    return format_terms((c, ["L" if d == 1 else f"L^{d}"] if d else []) for d, c in terms if c)


def evaluate_motive(coefficient: tuple, p: int) -> int:
    """Evaluate a coefficient, its ints by power of L, at L = p."""
    return sum(c * p**d for d, c in enumerate(coefficient))


def _coefficient(c) -> tuple:
    """An int, or ints by power of L, as a coefficient tuple."""
    return _trimmed(list(ints(c if isinstance(c, (tuple, list)) else [c], "coefficient")))


def _trimmed(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = list(a)
    for d, c in enumerate(b):
        out[d] += c
    return _trimmed(out)


def _product(n_vars: int, max_size: int, factors, single_variable: bool = False) -> TruncatedSeries:
    """Π (1 − w·q^v)^k over the (v, w, k) factors, truncated.

    The terms are held by total size, and each factor takes one pass over
    the sizes with the terms c_j·w^j·q^{j·v} of (1 − w·q^v)^{|k|} for
    1 ≤ j ≤ |k| that fit under max_size, where c_j = (−1)^j·C(|k|, j).  For
    k > 0 the pass walks the sizes downwards and adds c_j·w^j·S[e] to
    T[e + j·v] while S[e] is not yet overwritten.  For k < 0 it solves
    T·(1 − w·q^v)^{|k|} = S: it walks the sizes upwards and subtracts
    c_j·w^j·T[e] from T[e + j·v] once T[e] is final.  Either way a term
    makes at most max_size // |v| updates, however large |k| is.

    A pass loops per size t, then per update j, then per term of size t.
    Updates only write to sizes above t, so the terms of size t stay put
    while they are read: an upward pass has made every write into them,
    and a downward pass has made none.  Inside the pass an exponent
    vector is an int whose byte-aligned digit p is the exponent of
    variable p, so moving a term by j·v is one addition.  No exponent
    exceeds max_size, so no digit carries, and a list of max_size + 1
    dicts cannot exist unless max_size < 2^64, the widest digit.

    A one-entry sum that cancels is deleted.  A longer one needs an
    L-dependent weight, and never cancels: the P1 series has nonnegative
    entries, and ``hook_product`` and ``factor_power`` multiply over
    linearly independent vectors (a box leads its hook), so a key is
    e′ + M·v for at most one e′ in the support of S, the earlier factors'
    product.  A downward pass writes such a key once; an upward pass that
    has applied c_j for every j ≥ J leaves ±C(M − 1, J − 1)·C(M + |k| − J,
    |k| − J)·w^M·S[e′] there, never 0.
    """
    TruncatedSeries(n_vars, max_size, single_variable=single_variable)  # checks the arguments
    graded = [{0: (1,)}] + [{} for _ in range(max_size)]
    width, code = next((w, c) for w, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")) if max_size >> 8 * w == 0)
    for exponents, weight, power in factors:
        v = ints(exponents, "factor exponent vector")
        ints([power], "factor power")
        step = sum(v)
        if step == 0:
            raise DomainError("zero-input", "factor exponent vector must be nonzero", list(v))
        if len(v) != n_vars:
            raise DomainError("parse-error", f"exponent vector {v} has wrong length", v)
        if any(e < 0 for e in v):
            raise DomainError("parse-error", f"negative exponent in {v}", v)
        w, k = _coefficient(weight), abs(power)
        packed = sum(e << 8 * width * p for p, e in enumerate(v))
        # (shift, j·v, c_j·w^j, and for a monomial c·L^d its padding (0,)*d and c)
        updates, c, w_j = [], 1, (1,)
        n_updates = min(k, max_size // step) if w else 0  # w = 0 makes the factor 1
        for j in range(1, n_updates + 1):
            c, w_j = c * (j - 1 - k) // j, poly_mul(w_j, w)
            cw = tuple((c if power > 0 else -c) * x for x in w_j)
            pad = (0,) * (len(cw) - 1) if not any(cw[:-1]) else None
            updates.append((j * step, j * packed, cw, pad, cw[-1]))
        sizes = range(max_size - step + 1) if power < 0 else range(max_size - step, -1, -1)
        for t in sizes:
            source = graded[t]
            for shift, jv, cw, pad, scale in updates:
                if t + shift > max_size:
                    break
                target = graded[t + shift]
                for e, a in source.items():
                    # times a monomial, a coefficient is shifted and scaled
                    if pad is None:
                        term = poly_mul(cw, a)
                    elif scale == 1:
                        term = pad + a
                    else:
                        term = pad + tuple([scale * x for x in a])
                    key = e + jv
                    old = target.get(key)
                    if old is None:
                        target[key] = term
                    elif len(old) == 1 == len(term):
                        if s := old[0] + term[0]:
                            target[key] = (s,)
                        else:
                            del target[key]
                    else:
                        target[key] = _add(old, term)
    unpack, n_bytes = Struct(f"<{n_vars}{code}").unpack, width * n_vars
    terms = {unpack(e.to_bytes(n_bytes, "little")): c for by_size in graded for e, c in by_size.items()}
    return TruncatedSeries._of(n_vars, max_size, terms, single_variable)


def factor_power(
    exponents, weight, power: int, n_vars: int, max_size: int, single_variable: bool = False
) -> TruncatedSeries:
    """(1 − w·q^v)^power truncated, for any integer power; w is an int or a coefficient."""
    return _product(n_vars, max_size, [(exponents, weight, power)], single_variable)


def rpp_series_bruteforce(diagram: YoungDiagram, max_size: int) -> TruncatedSeries:
    """Σ q^𝐧 over all RPPs with |𝐧| ≤ max_size, by direct enumeration."""
    from .rpp import enumerate_rpps  # here, so the product path never loads rpp

    coeffs = {r.values: (1,) for r in enumerate_rpps(diagram, max_size)}
    return TruncatedSeries._of(diagram.size, max_size, coeffs)


def hook_product(diagram: YoungDiagram, weights, power: int, max_size: int) -> TruncatedSeries:
    """Π_□ (1 − w·p_□)^power with p_□ the hook variable, truncated.

    The weight w is an int or a coefficient; L is (0, 1).
    """
    factors = ((diagram.hook(box), weights, power) for box in diagram.boxes)
    return _product(diagram.size, max_size, factors)


def motivic_series(diagram: YoungDiagram, curve: str, max_size: int) -> TruncatedSeries:
    """Product over boxes of the curve's zeta factor at the hook variable.

    The affine line contributes (1 − L·p_□)^{-1} per box; the projective
    line contributes (1 − p_□)^{-1}(1 − L·p_□)^{-1}.
    """
    if curve == "A1":
        return hook_product(diagram, (0, 1), -1, max_size)
    if curve == "P1":
        factors = [(v, w, -1) for v in map(diagram.hook, diagram.boxes) for w in ((0, 1), 1)]
        return _product(diagram.size, max_size, factors)
    raise DomainError("unsupported-curve", f"no zeta factor for curve {curve!r} (use A1 or P1)", curve)


def euler_series(
    diagram: YoungDiagram, chi: int, max_size: int, single_variable: bool = False
) -> TruncatedSeries:
    """Π_□ (1 − p_□)^{-chi}; with single_variable, p_□ collapses to q^{hook length}."""
    ints([chi], "chi")  # -chi would turn True into the power -1
    if flag(single_variable, "single_variable"):
        factors = [((diagram.hook_length(box),), 1, -chi) for box in diagram.boxes]
        return _product(1, max_size, factors, single_variable=True)
    return hook_product(diagram, 1, -chi, max_size)


def diagonal_support(diagram: YoungDiagram) -> tuple:
    """Distinct values of j − i over the boxes, ascending."""
    return tuple(sorted({box.j - box.i for box in diagram.boxes}))


def collapse_to_diagonals(diagram: YoungDiagram, series: TruncatedSeries) -> TruncatedSeries:
    """Identify the box variables along each diagonal j − i.

    Box exponents are summed per diagonal; the collapsed variables are
    ordered by ascending j − i.  This is the coarsest identification
    under which the brute-force RPP sum equals the hook product
    Π(1 − p_□)^{-1}: the underlying correspondence preserves diagonal
    totals but not individual box labels, so on shapes where a diagonal
    holds two or more boxes (the 2×2 square is the smallest) the two
    series agree only after this collapse.
    """
    if series.n_vars != diagram.size:
        raise DomainError(
            "diagram-mismatch",
            f"series has {series.n_vars} variables, diagram has {diagram.size} boxes",
            None,
        )
    diagonals = diagonal_support(diagram)
    position = {d: k for k, d in enumerate(diagonals)}
    coeffs: dict = {}
    for exp, c in series.coefficients.items():
        collapsed = [0] * len(diagonals)
        for box, e in zip(diagram.boxes, exp):
            collapsed[position[box.j - box.i]] += e
        key = tuple(collapsed)
        coeffs[key] = _add(coeffs.get(key, ()), c)
    coeffs = {key: c for key, c in coeffs.items() if c}
    return TruncatedSeries._of(len(diagonals), series.max_size, coeffs)
