"""Local defining equations of the double nested scheme over the affine line.

Two presentations of the same ideal.  Type I tracks one universal monic
polynomial per box and imposes divisibility towards the left and upper
neighbours; its generators are the x-coefficients of division remainders.
Type II tracks monic difference factors along rows (L) and columns (U) and
imposes, per box, that the two ways around the commuting square agree; its
generators are the x-coefficients of L_{i,j}·U_{i-1,j} − U_{i,j}·L_{i,j-1}.

Both ideals are homogeneous when a/b/c(i,j,k) has weight k, its depth
``VarId.k``; no other grading is stored.  Homogeneity allows a
deterministic reduction onto the tangent space at the origin: variables
that occur linearly with unit coefficient and nowhere else in some
generator are eliminated by substitution.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, flag
from .poly import SparsePoly, VarId, _raw, var_a, var_b, var_c
from .rpp import RPP
from .univariate import monic_divmod


class AmbientSummary(namedtuple("AmbientSummary", "dim_ambient rank_bundle expected_dim")):
    __slots__ = ()

    def to_json_obj(self) -> dict:
        return self._asdict()


def ambient_and_bundle(n: RPP) -> AmbientSummary:
    """Dimension of the ambient chart, rank of the condition bundle, difference.

    The ambient dimension counts the origin label plus all horizontal and
    vertical label differences; the bundle rank counts, over boxes with both
    neighbours, the diagonal difference.  Their difference is the weight.
    """
    d = n.diagram
    v = n.values
    dim = v[0]
    rk = 0
    for p, (l, u, ul) in enumerate(zip(d.left, d.up, d.up_left)):
        if l >= 0:
            dim += v[p] - v[l]
        if u >= 0:
            dim += v[p] - v[u]
        if ul >= 0:
            rk += v[p] - v[ul]
    return AmbientSummary(dim, rk, dim - rk)


class IdealPresentation:
    """Ambient variables, generators, and their groups in the JSON form ``to_json_obj`` prints."""

    __slots__ = ("ambient_vars", "generators", "groups", "condition_count")

    def __init__(
        self, ambient_vars: tuple, generators: tuple, groups: tuple = (), condition_count: int | None = None
    ):
        stray = {v for g in generators for mono in g.terms for v, _ in mono}.difference(ambient_vars)
        assert not stray, f"generators use variables outside the ambient ring: {sorted(stray, key=VarId.sort_key)}"
        assert all(v.k >= 1 for v in ambient_vars), "every ambient variable has k ≥ 1"
        self.ambient_vars = ambient_vars
        self.generators = generators
        self.groups = groups
        self.condition_count = condition_count

    @property
    def n_vars(self) -> int:
        return len(self.ambient_vars)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def group_sizes(self) -> list[int]:
        return [g["size"] for g in self.groups]

    def generator_degrees(self) -> list[int]:
        """Weighted degrees of the nonzero generators, sorted."""
        return sorted(g.weighted_degree() for g in self.generators if g)

    def to_json_obj(self) -> dict:
        return {
            "ambient_vars": [str(v) for v in self.ambient_vars],
            "grading": {str(v): v.k for v in self.ambient_vars},
            "generators": [str(g) for g in self.generators],
            "groups": [dict(g) for g in self.groups],
            "n_vars": self.n_vars,
            "n_generators": self.n_generators,
            "condition_count": self.condition_count,
        }


def type_i_ideal(n: RPP) -> IdealPresentation:
    """Divisibility presentation: one monic polynomial per box, remainders vanish.

    Variables a(i,j,k) for 1 ≤ k ≤ d = label(i,j); the box's universal monic
    is x^d + a(i,j,1)·x^(d-1) + … + a(i,j,d), held as its x-coefficient
    tuple, lowest power first, as ``monic_divmod`` takes it.  Per box in
    row-major order, the remainder against the left neighbour is imposed
    before the one against the upper neighbour; degree-0 divisors impose
    nothing.
    """
    lam = n.diagram
    a = [tuple(var_a(b.i, b.j, k) for k in range(1, d + 1)) for b, d in zip(lam.boxes, n.values)]
    polys = [(*map(SparsePoly.variable, reversed(x)), 1) for x in a]
    v = (*n.values, 0)
    generators: list[SparsePoly] = []
    groups: list[dict] = []
    conditions = sum(v[l] + v[u] - v[ul] for l, u, ul in zip(lam.left, lam.up, lam.up_left))
    for p, box in enumerate(lam.boxes):
        for q in (lam.left[p], lam.up[p]):
            d = v[q]  # 0 also when the neighbour is absent (q == -1)
            if d == 0:
                continue
            generators.extend(reversed(monic_divmod(polys[p], polys[q])[1]))
            groups.append({"box": list(box), "divisor_box": list(lam.boxes[q]), "size": d})
    return IdealPresentation(
        ambient_vars=tuple(x for box_vars in a for x in box_vars),
        generators=tuple(generators),
        groups=tuple(groups),
        condition_count=conditions,
    )


def type_ii_ideal(n: RPP, minimal_border: bool = False) -> IdealPresentation:
    """Commuting-square presentation via row/column difference factors.

    Variables b(i,j,k) up to the row difference and c(i,j,k) up to the
    column difference of each box, built in VarId.sort_key order: b before
    c, each by row-major box, then k.  Per box, the two products around the
    square agree up to the common monic leading term, leaving
    label(i,j) − label(i−1,j−1) coefficient conditions.

    ``minimal_border`` drops the redundant border variables (b on column 0
    below the origin, c on row 0) together with the border equations; the
    remaining chart has exactly the ambient/bundle dimensions of
    ambient_and_bundle.  It is a filter of the full presentation: the
    generators keep their order, and the surviving groups and variables
    are the full chart's.
    """
    flag(minimal_border, "minimal_border")
    lam = n.diagram
    v = (*n.values, 0)
    # each box's row (b) and column (c) factor as its variables by depth k,
    # None at depth 0 for the leading 1; an absent neighbour's factor, read
    # at position -1, is the constant 1
    rows, cols = [], []
    for p, (b, l, u) in enumerate(zip(lam.boxes, lam.left, lam.up)):
        rows.append((None, *(var_b(b.i, b.j, k) for k in range(1, v[p] - v[l] + 1))))
        cols.append((None, *(var_c(b.i, b.j, k) for k in range(1, v[p] - v[u] + 1))))
    rows.append((None,))
    cols.append((None,))

    generators: list[SparsePoly] = []
    groups: list[dict] = []
    for p, (box, l, u, ul) in enumerate(zip(lam.boxes, lam.left, lam.up, lam.up_left)):
        D = v[p] - v[ul]
        if D == 0:
            continue
        # both products around the square are monic of degree D: (v[p] − v[l]) + (v[l] − v[ul]) = D
        generators += (_square_coefficient(rows[p], cols[l], rows[u], cols[p], s) for s in range(1, D + 1))
        groups.append({"box": list(box), "divisor_box": None, "size": D})
    full = IdealPresentation(
        ambient_vars=tuple(x for factor in rows + cols for x in factor[1:]),
        generators=tuple(generators),
        groups=tuple(groups),
        condition_count=len(generators),
    )
    return _without_border(full) if minimal_border else full


def _square_coefficient(row: tuple, left_col: tuple, up_row: tuple, col: tuple, s: int) -> SparsePoly:
    """The x^(D−s) coefficient of L_{i,j}·U_{i-1,j} − U_{i,j}·L_{i,j-1}, D its degree.

    Each factor is its variables by depth, None at depth 0 for the leading
    1; a product's coefficient is the sum over k of b(k)·c(s−k).  A b
    variable sorts before a c variable, and the two products share no
    variable, so every monomial occurs once, with coefficient ±1.
    """
    terms = {}
    for bs, cs, sign in ((row, left_col, 1), (up_row, col, -1)):
        for k in range(max(0, s - len(cs) + 1), min(s, len(bs) - 1) + 1):
            b, c = bs[k], cs[s - k]
            terms[((c, 1),) if b is None else ((b, 1),) if c is None else ((b, 1), (c, 1))] = sign
    return _raw(terms)


def _without_border(full: IdealPresentation) -> IdealPresentation:
    """The minimal-border chart of a full type II presentation.

    Drops the groups and generators of the border boxes (column 0 or row
    0), the b variables on column 0 below the origin and the c variables
    on row 0; the inner boxes' generators use none of them.
    """
    generators: list[SparsePoly] = []
    groups = []
    start = 0
    for g in full.groups:
        end = start + g["size"]
        if 0 not in g["box"]:
            generators += full.generators[start:end]
            groups.append(g)
        start = end
    return IdealPresentation(
        ambient_vars=tuple(
            v for v in full.ambient_vars if not (v.i == 0 < v.j if v.kind == "b" else v.j == 0)
        ),
        generators=tuple(generators),
        groups=tuple(groups),
        condition_count=len(generators),
    )


def check_grading(I: IdealPresentation) -> bool:
    """True when every generator is homogeneous when each variable weighs its depth k."""
    return all(g.is_homogeneous() for g in I.generators)


def tangent_embedding(I: IdealPresentation) -> tuple[int, IdealPresentation]:
    """Embedding dimension at the origin and the reduced presentation.

    The reduction repeatedly eliminates the variable of smallest depth k
    (ties by canonical variable order, then generator order) whose linear
    term in some generator g has coefficient s = ±1: g is dropped and
    v := −s·(g − s·v) is substituted into the rest.  Homogeneity, with
    every variable weighing its depth k ≥ 1, keeps v out of g's other
    monomials, so an inhomogeneous presentation is refused; the
    replacement has v's weight k, so the result stays homogeneous.

    The tangent dimension, #variables minus the rank of the generators'
    linear parts, is the number of variables left.  Each substitution
    changes every other generator's linear part by one row operation with
    the pivot ±1 of v, so the rank of the linear parts falls by exactly
    one.  When no ±1 term is left, a surviving linear part raises
    ``no-eliminable-variable``; otherwise no linear part is left, and the
    eliminations were exactly the pivots of the linear-part matrix.
    """
    if not check_grading(I):
        raise DomainError("parse-error", "tangent reduction requires a homogeneous presentation")
    gens = [g for g in I.generators if g]
    remaining = list(I.ambient_vars)
    while True:
        # v is eliminable from g when g's linear term in v has coefficient ±1
        candidates = [
            (v.k, v.sort_key(), gi, v)
            for gi, g in enumerate(gens)
            for v, c in g.linear_part().items()
            if c in (1, -1)
        ]
        if not candidates:
            break
        *_, gi, v = min(candidates)
        g = gens.pop(gi)
        s = g.terms[((v, 1),)]
        replacement = -s * (g - s * SparsePoly.variable(v))
        gens = [h for h in (h.substitute({v: replacement}) for h in gens) if h]
        remaining.remove(v)

    # a generator repeated verbatim adds nothing to the ideal
    gens = list(dict.fromkeys(gens))

    for g in gens:
        if g.linear_part():
            raise DomainError(
                "no-eliminable-variable",
                "reduction stalled while linear parts remain",
                str(g),
            )
    return len(remaining), IdealPresentation(
        ambient_vars=tuple(remaining),
        generators=tuple(gens),
        groups=(),
        condition_count=None,
    )
