"""Truncated generating series over the boxes of a Young diagram.

Each box carries a variable q_box; the hook variable of a box is the
product of the q's over its hook.  The brute-force RPP sum, the hook
product with integer exponents (Euler form), and the motivic product of
zeta factors for the affine line and the projective line are all computed
as truncated series: exponent vectors with total at most max_size mapping
to integer polynomials in the motive symbol L.
"""

from __future__ import annotations

from math import comb

from .diagram import YoungDiagram
from .errors import DomainError
from .poly import L, SparsePoly
from .rpp import enumerate_rpps


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
        if max_size < 0:
            raise DomainError("negative-size", "max_size must be nonnegative", max_size)
        self.n_vars = n_vars
        self.max_size = max_size
        self.single_variable = single_variable
        coeffs = {}
        for exp, poly in (coefficients or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n_vars:
                raise DomainError("parse-error", f"exponent vector {exp} has wrong length", exp)
            if any(e < 0 for e in exp):
                raise DomainError("parse-error", f"negative exponent in {exp}", exp)
            if sum(exp) > max_size:
                continue
            p = poly if isinstance(poly, SparsePoly) else SparsePoly.constant(poly)
            if not p.is_zero():
                coeffs[exp] = p
        self.coefficients = coeffs

    @classmethod
    def one(cls, n_vars: int, max_size: int, single_variable: bool = False) -> "TruncatedSeries":
        return cls(n_vars, max_size, {(0,) * n_vars: 1}, single_variable)

    def coefficient(self, exponents) -> SparsePoly:
        return self.coefficients.get(tuple(exponents), SparsePoly.constant(0))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out = dict(self.coefficients)
        for exp, p in other.coefficients.items():
            s = out.get(exp, SparsePoly.constant(0)) + p
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return TruncatedSeries(self.n_vars, self.max_size, out, self.single_variable)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out: dict = {}
        for e1, p1 in self.coefficients.items():
            s1 = sum(e1)
            for e2, p2 in other.coefficients.items():
                if s1 + sum(e2) > self.max_size:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = p1 * p2
                if exp in out:
                    s = out[exp] + prod
                    if s.is_zero():
                        del out[exp]
                    else:
                        out[exp] = s
                else:
                    out[exp] = prod
        return TruncatedSeries(self.n_vars, self.max_size, out, self.single_variable)

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
        repl = {L: SparsePoly.constant(value)}
        return TruncatedSeries(
            self.n_vars,
            self.max_size,
            {exp: p.substitute(repl) for exp, p in self.coefficients.items()},
            self.single_variable,
        )

    def sorted_items(self) -> list:
        return sorted(self.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def to_json_obj(self) -> list:
        out = []
        for exp, p in self.sorted_items():
            coeff = {str(d): c for d, c in _l_poly_dict(p).items()}
            if self.single_variable:
                out.append({"size": exp[0], "coefficient": coeff})
            else:
                out.append({"exponents": list(exp), "coefficient": coeff})
        return out

    def __repr__(self) -> str:
        parts = [f"q^{list(exp)}: {p}" for exp, p in self.sorted_items()]
        return f"TruncatedSeries({'; '.join(parts)})"


def _l_poly_dict(p: SparsePoly) -> dict:
    """A polynomial in L alone, as a degree -> coefficient dict."""
    out: dict = {}
    for mono, c in p.terms.items():
        if len(mono) == 0:
            out[0] = c
        elif len(mono) == 1 and mono[0][0] == L:
            out[mono[0][1]] = c
        else:
            raise DomainError("parse-error", f"coefficient {p} is not a polynomial in L", str(p))
    return out


def hook_variable(diagram: YoungDiagram, box) -> tuple:
    """Row-major 0/1 exponent vector of the hook of a box."""
    hook = diagram.hook(box)
    return tuple(1 if b in hook else 0 for b in diagram.boxes)


def factor_power(
    exponents, weight, power: int, n_vars: int, max_size: int, single_variable: bool = False
) -> TruncatedSeries:
    """(1 − w·q^v)^power truncated, for any integer power.

    Nonnegative powers expand by the binomial theorem and are finite;
    negative powers expand by the negative binomial series up to the
    truncation order.
    """
    v = tuple(int(e) for e in exponents)
    step = sum(v)
    if step == 0:
        raise DomainError("zero-input", "factor exponent vector must be nonzero", list(v))
    w = weight if isinstance(weight, SparsePoly) else SparsePoly.constant(weight)
    coeffs: dict = {}
    if power >= 0:
        ks = range(0, min(power, max_size // step) + 1)
        binom = lambda k: (-1) ** k * comb(power, k)
    else:
        ks = range(0, max_size // step + 1)
        binom = lambda k: comb(-power - 1 + k, k)
    for k in ks:
        coeffs[tuple(k * e for e in v)] = binom(k) * (w**k)
    return TruncatedSeries(n_vars, max_size, coeffs, single_variable)


def geometric_inverse(exponents, weight, n_vars: int, max_size: int) -> TruncatedSeries:
    """(1 − w·q^v)^{-1}: the geometric series Σ w^k q^{k·v}, truncated."""
    return factor_power(exponents, weight, -1, n_vars, max_size)


def rpp_series_bruteforce(diagram: YoungDiagram, max_size: int) -> TruncatedSeries:
    """Σ q^𝐧 over all RPPs with |𝐧| ≤ max_size, by direct enumeration."""
    coeffs = {r.values: SparsePoly.constant(1) for r in enumerate_rpps(diagram, max_size)}
    return TruncatedSeries(diagram.size, max_size, coeffs)


def hook_product(diagram: YoungDiagram, weights, power: int, max_size: int) -> TruncatedSeries:
    """Π_□ (1 − w·p_□)^power with p_□ the hook variable, truncated."""
    series = TruncatedSeries.one(diagram.size, max_size)
    for box in diagram.boxes:
        series = series * factor_power(
            hook_variable(diagram, box), weights, power, diagram.size, max_size
        )
    return series


def motivic_series(diagram: YoungDiagram, curve: str, max_size: int) -> TruncatedSeries:
    """Product over boxes of the curve's zeta factor at the hook variable.

    The affine line contributes (1 − L·p_□)^{-1} per box; the projective
    line contributes (1 − p_□)^{-1}(1 − L·p_□)^{-1}.
    """
    if curve == "A1":
        return hook_product(diagram, SparsePoly.variable(L), -1, max_size)
    if curve == "P1":
        series = hook_product(diagram, SparsePoly.variable(L), -1, max_size)
        return series * hook_product(diagram, 1, -1, max_size)
    raise DomainError("unsupported-curve", f"no zeta factor for curve {curve!r} (use A1 or P1)", curve)


def euler_series(
    diagram: YoungDiagram, chi: int, max_size: int, single_variable: bool = False
) -> TruncatedSeries:
    """Π_□ (1 − p_□)^{-chi}; with single_variable, p_□ collapses to q^{hook length}."""
    if single_variable:
        series = TruncatedSeries.one(1, max_size, single_variable=True)
        for box in diagram.boxes:
            series = series * factor_power(
                (diagram.hook_length(box),), 1, -chi, 1, max_size, single_variable=True
            )
        return series
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
    for exp, poly in series.coefficients.items():
        collapsed = [0] * len(diagonals)
        for box, e in zip(diagram.boxes, exp):
            collapsed[position[box.j - box.i]] += e
        key = tuple(collapsed)
        coeffs[key] = coeffs[key] + poly if key in coeffs else poly
    return TruncatedSeries(len(diagonals), series.max_size, coeffs)
