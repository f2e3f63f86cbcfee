"""Reverse plane partitions and their factorisation monoid.

An RPP is a nonnegative integer filling of a Young diagram that is
nondecreasing rightward and downward.  Under pointwise addition these form
a cancellative commutative monoid whose irreducible elements are exactly
the indicator fillings of nonempty edge-connected upper sets; every
factorisation of a fixed RPP into indicators has the same length, its
weight.  This module implements the arithmetic, the discrete mixed second
difference (derivative, an int tuple that may be negative) and weight,
indicator enumeration, and the standard / complete / exhaustive
factorisation constructions.  An indicator is built from its upper set's
row-major 0/1 vector, and the standard and complete factorisations build
those vectors directly: level sets split into edge-connected parts, and
principal upper sets.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import Iterable

from .diagram import YoungDiagram, enumerate_upper_sets, upper_set_parts
from .errors import CapExceeded, DomainError, ints, text_int

#: caps for the exhaustive factorisation search
MAX_FACTORIZATION_WEIGHT = 12
MAX_FACTORIZATION_INDICATORS = 64


class RPP:
    """Nonnegative integer labels on a diagram's boxes, row-major, nondecreasing rightward and downward."""

    __slots__ = ("diagram", "values")

    def __init__(self, diagram: YoungDiagram, values: Iterable[int]):
        vals = ints(values, "labels")
        if len(vals) != diagram.size:
            raise DomainError(
                "parse-error",
                f"expected {diagram.size} values for diagram {list(diagram.cols)}, got {len(vals)}",
                list(vals),
            )
        self.diagram = diagram
        self.values = vals
        pos = _first_fault(diagram, vals)
        if pos is None:
            return
        box, v = diagram.boxes[pos], vals[pos]
        if v < 0:
            raise DomainError("negative-label", f"negative label {v} at {tuple(box)}", list(vals))
        raise DomainError(
            "not-monotone",
            f"label {v} at {tuple(box)} is smaller than a left/up neighbour",
            list(vals),
        )

    @property
    def size(self) -> int:
        """Total of all labels."""
        return sum(self.values)

    def rows(self) -> list[list[int]]:
        out: list[list[int]] = []
        for box, v in zip(self.diagram.boxes, self.values):
            if box.j == len(out):
                out.append([])
            out[box.j].append(v)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RPP)
            and self.diagram == other.diagram
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.diagram.cols)}, {list(self.values)})"

    def to_text(self) -> str:
        return " / ".join(" ".join(str(v) for v in row) for row in self.rows())

    # -- monoid arithmetic ---------------------------------------------------

    def __add__(self, other: "RPP") -> "RPP":
        if not isinstance(other, RPP) or other.diagram != self.diagram:
            raise DomainError("diagram-mismatch", "can only add fillings of the same diagram", None)
        return RPP(self.diagram, tuple(a + b for a, b in zip(self.values, other.values)))

    def scale(self, k: int) -> "RPP":
        ints([k], "scaling factor")
        if k < 0:
            raise DomainError("negative-scale", "scaling factor must be nonnegative", k)
        return RPP(self.diagram, tuple(k * v for v in self.values))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    # -- derivative and weight -------------------------------------------------

    def derivative(self) -> tuple[int, ...]:
        """Mixed second difference, row-major, with the filling extended by zero off the diagram."""
        d = self.diagram
        v = (*self.values, 0)
        triples = zip(d.left, d.up, d.up_left)
        return tuple(v[p] - v[l] - v[u] + v[ul] for p, (l, u, ul) in enumerate(triples))

    def weight(self) -> int:
        """Total of the derivative; it telescopes to the socle sum minus the subsocle sum."""
        return sum(self.derivative())

    # -- serialisation ----------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "RPP":
        rows = [list(r) for r in rows]
        if not rows or any(not r for r in rows):
            raise DomainError("parse-error", "rows must be nonempty", rows)
        widths = [len(r) for r in rows]
        if any(widths[k] < widths[k + 1] for k in range(len(widths) - 1)):
            raise DomainError("parse-error", "row lengths must be nonincreasing", rows)
        cols = [sum(1 for w in widths if w > i) for i in range(widths[0])]
        diagram = YoungDiagram(cols)
        values = [rows[b.j][b.i] for b in diagram.boxes]
        return cls(diagram, values)

    @classmethod
    def from_text(cls, text: str) -> "RPP":
        if not isinstance(text, str):
            raise DomainError("parse-error", "RPP text must be a string", text)
        rows, bad = [], f"bad label in RPP text {text!r}"
        for chunk in text.split("/"):
            parts = chunk.split()
            if not parts:
                raise DomainError("parse-error", f"empty row in RPP text {text!r}", text)
            rows.append([text_int(p, bad, text) for p in parts])
        return cls.from_rows(rows)

    def to_json_obj(self) -> dict:
        return {"cols": list(self.diagram.cols), "rows": self.rows()}

    @classmethod
    def from_json_obj(cls, obj) -> "RPP":
        if not isinstance(obj, dict) or not isinstance(obj.get("rows"), list):
            raise DomainError("parse-error", 'RPP JSON needs a "rows" list of lists', obj)
        rpp = cls.from_rows(ints(row, "each RPP JSON row") for row in obj["rows"])
        if "cols" in obj and ints(obj["cols"], 'RPP JSON "cols"') != rpp.diagram.cols:
            raise DomainError("parse-error", 'RPP JSON "cols" disagree with "rows"', obj)
        return rpp


class Indicator(RPP):
    """0/1 filling of a nonempty edge-connected upper set — an irreducible RPP.

    ``values`` is the upper set's row-major 0/1 vector.  RPP's check makes
    it monotone, which for labels 0 and 1 is upward closure.  Its text is
    rendered on first use and kept, and the per-shape table shares it.
    """

    __slots__ = ("_text",)

    def __init__(self, diagram: YoungDiagram, values: Iterable[int]):
        super().__init__(diagram, values)
        if any(v > 1 for v in self.values):
            raise DomainError("parse-error", "indicator labels must be 0 or 1", list(self.values))
        if not any(self.values):
            raise DomainError("empty-upper-set", "indicator needs a nonempty upper set", list(self.values))
        if len(upper_set_parts(diagram, self.values)) > 1:
            raise DomainError(
                "disconnected-upper-set", "indicator needs a connected upper set", list(self.values)
            )
        self._text = None

    @classmethod
    def _of(cls, diagram: YoungDiagram, values: tuple[int, ...]) -> "Indicator":
        """An indicator this module built, checked for nothing.

        ``values`` must be the int 0/1 tuple of a nonempty, edge-connected
        upper set of ``diagram``.
        """
        ind = object.__new__(cls)
        ind.diagram, ind.values, ind._text = diagram, values, None
        return ind

    def to_text(self) -> str:
        if self._text is None:
            self._text = super().to_text()
        return self._text


def indicators(diagram: YoungDiagram) -> list[Indicator]:
    """All indicator fillings, descending-lex on the row-major 0/1 vector.

    The table is built once per shape per process, for a bounded number of
    shapes, and shared by equal diagrams; each call returns a fresh list of
    the same indicators.
    """
    return list(_shape_table(diagram.cols)[0])


@lru_cache(maxsize=256)
def _shape_table(cols: tuple[int, ...]) -> tuple:
    """The indicators of a shape and the search tables of ``all_factorizations``.

    Returns (indicators, members, guards, stop): per indicator its member
    positions and its guard pairs, and stop[p], one past the last
    indicator whose first member box is p.  A shape over the box cap
    raises on every call, since the cache keeps no exception.
    """
    diagram = YoungDiagram(cols)
    # the empty upper set has no parts, so this keeps the nonempty connected ones
    vectors = [v for v in enumerate_upper_sets(diagram) if len(upper_set_parts(diagram, v)) == 1]
    inds = tuple(Indicator._of(diagram, v) for v in vectors)
    left, up = diagram.left, diagram.up
    members = tuple(tuple(p for p, x in enumerate(v) if x) for v in vectors)
    guards = tuple(
        tuple((p, q) for p in ps for q in {left[p], up[p]} if q == -1 or not v[q])
        for v, ps in zip(vectors, members)
    )
    firsts = [ps[0] for ps in members]
    stop = tuple(bisect_right(firsts, p) for p in range(diagram.size))
    return inds, members, guards, stop


class Factorization:
    """Multiset of indicators with positive multiplicities."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        ints(terms.values(), "multiplicities")
        cleaned = {}
        diagram = None
        for ind, mult in terms.items():
            if mult == 0:
                continue
            if mult < 0:
                raise DomainError("negative-multiplicity", "multiplicities must be positive", mult)
            if diagram is None:
                diagram = ind.diagram
            elif ind.diagram != diagram:
                raise DomainError("diagram-mismatch", "all indicators must share one diagram", None)
            cleaned[ind] = mult
        # canonical support order: descending lex on the indicator vectors
        self.terms = dict(sorted(cleaned.items(), key=lambda kv: kv[0].values, reverse=True))

    @classmethod
    def _of(cls, terms: dict) -> "Factorization":
        """A factorisation from terms this module built, stored as given and checked for nothing.

        The indicators must share one diagram and come in canonical order,
        each with a positive int multiplicity.
        """
        fact = object.__new__(cls)
        fact.terms = terms
        return fact

    @property
    def support(self) -> tuple:
        return tuple(self.terms.keys())

    @property
    def length(self) -> int:
        return sum(self.terms.values())

    def multiplicity(self, ind) -> int:
        return self.terms.get(ind, 0)

    def total(self) -> RPP:
        """The RPP this factorisation decomposes: sum of multiplicity * indicator."""
        if not self.terms:
            raise DomainError("empty-factorization", "cannot total an empty factorisation", None)
        scaled = (ind.values if m == 1 else [m * v for v in ind.values] for ind, m in self.terms.items())
        return RPP(next(iter(self.terms)).diagram, tuple(map(sum, zip(*scaled))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factorization):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset((ind.values, m) for ind, m in self.terms.items()))

    def to_text(self) -> str:
        """The CLI form, e.g. ``2*[0 1 / 1 1] + [1 1 / 1 1]``, or ``(empty)``."""
        parts = [(f"{m}*" if m > 1 else "") + f"[{ind.to_text()}]" for ind, m in self.terms.items()]
        return " + ".join(parts) or "(empty)"

    __repr__ = to_text

    def to_json_obj(self) -> list:
        """The JSON form: ``[{"indicator": text, "multiplicity": m}]`` in canonical order."""
        return [{"indicator": ind.to_text(), "multiplicity": m} for ind, m in self.terms.items()]


def standard_factorization(n: RPP) -> Factorization | None:
    """Level-set factorisation: exists exactly when ``n`` is nonzero, else ``None``.

    For each distinct positive value k (ascending), the boxes with label >= k
    form an upper set; its connected parts enter with coefficient equal to
    the gap from the previous level, so a box labelled v gets gaps summing
    to v.  Each part is a nonempty connected upper set by construction, so
    its indicator is built unchecked; the levels do not come in canonical
    order, so the public constructor sorts.
    """
    if n.is_zero():
        return None
    levels = sorted({v for v in n.values if v > 0})
    terms: dict = {}
    prev = 0
    for k in levels:
        for part in upper_set_parts(n.diagram, tuple(int(v >= k) for v in n.values)):
            ind = Indicator._of(n.diagram, part)
            terms[ind] = terms.get(ind, 0) + (k - prev)
        prev = k
    return Factorization(terms)


def complete_factorization(n: RPP) -> Factorization | None:
    """Factorisation by principal upper sets; exists iff the derivative is >= 0.

    When it exists it is unique, and each indicator in its support is the
    principal upper set of a box where the derivative is positive: the
    boxes weakly right of and below it, with it as unique minimal box and
    first 1.  So its indicator is built unchecked, and the terms, built in
    row-major box order, are descending-lex already and stored as built.
    Box b lies in the principal upper sets of the boxes weakly up-left of
    it, whose derivatives telescope to b's label, so the terms total n.
    """
    deriv = n.derivative()
    if any(v < 0 for v in deriv):
        return None
    terms: dict = {}
    for box, dv in zip(n.diagram.boxes, deriv):
        if dv > 0:
            principal = tuple(int(b.i >= box.i and b.j >= box.j) for b in n.diagram.boxes)
            terms[Indicator._of(n.diagram, principal)] = dv
    return Factorization._of(terms)


def _first_fault(diagram: YoungDiagram, vals: tuple[int, ...]) -> int | None:
    """Row-major position of the first box that is negative or below its left/up neighbour.

    An absent neighbour reads the appended 0, and present ones were
    checked first, so a negative label fails one of the two comparisons.
    """
    v = (*vals, 0)
    for p, (l, u) in enumerate(zip(diagram.left, diagram.up)):
        if v[p] < v[l] or v[p] < v[u]:
            return p
    return None


def all_factorizations(n: RPP) -> list[Factorization]:
    """Exhaustive duplicate-free enumeration of the factorisations of ``n``.

    Depth-first subtraction over the canonical indicator list, with the
    indicator position nondecreasing along each branch (so each multiset is
    visited exactly once) and pruning whenever the remainder stops being an
    RPP — partial sums of any factorisation are RPPs, so the pruning is safe.

    The remainder v is an RPP, so v - 1_U is one exactly when v[p] > v[q]
    for every guard pair of U: p in U and q its left or upper neighbour
    outside U, with q = -1 reading the zero extension.  Pairs with both
    boxes in U or both outside it compare as before, and no box outside
    the upper set U has a neighbour in U to its left or above.

    Each node tries indicators only up to the last one whose first member
    box is p, the remainder's first nonzero box (exact cover's rule of
    branching on the first uncovered item; Knuth, "Dancing Links", 2000).
    The list is descending-lex, so first member boxes are nondecreasing
    along it.  An indicator past that point misses p, and positions only
    grow along a branch, so below it p would never be covered.  The
    dropped branches are dead ends; the results and their order are
    unchanged.

    A leaf counts its path into a dict.  The path's positions are
    nondecreasing, so the dict lists the support descending-lex, the
    canonical order, with positive int multiplicities on one diagram; it
    is stored without the public constructor's checks and re-sort.  The
    guards keep the remainder a nonnegative RPP and a leaf's remainder
    totals 0, so its path sums to n (the zero filling's root is such a
    leaf); its length is the weight, by the paper's theorem.
    """
    w = n.weight()
    if w > MAX_FACTORIZATION_WEIGHT:
        raise CapExceeded(
            "search-too-large", f"weight {w} exceeds the cap {MAX_FACTORIZATION_WEIGHT}", n.to_text()
        )
    inds = indicators(n.diagram)
    if len(inds) > MAX_FACTORIZATION_INDICATORS:
        raise CapExceeded(
            "search-too-large",
            f"{len(inds)} indicators exceed the cap {MAX_FACTORIZATION_INDICATORS}",
            n.to_text(),
        )

    _, members, guards, stop = _shape_table(n.diagram.cols)
    vals = [*n.values, 0]  # the remainder, decremented and restored in place
    results: list[Factorization] = []
    path: list[Indicator] = []

    def search(start: int, first: int, remaining: int) -> None:
        if remaining == 0:
            terms: dict = {}
            for ind in path:
                terms[ind] = terms.get(ind, 0) + 1
            results.append(Factorization._of(terms))
            return
        while not vals[first]:
            first += 1
        for pos in range(start, stop[first]):
            for p, q in guards[pos]:
                if vals[p] <= vals[q]:
                    break
            else:
                for p in members[pos]:
                    vals[p] -= 1
                path.append(inds[pos])
                search(pos, first, remaining - len(members[pos]))
                path.pop()
                for p in members[pos]:
                    vals[p] += 1

    search(0, 0, n.size)
    del search  # it holds itself through its closure cell; drop that cycle now, not at a GC pass
    return results


def enumerate_rpps(diagram: YoungDiagram, max_size: int) -> list[RPP]:
    """All RPPs on the diagram with label total <= max_size, duplicate-free.

    Sorted by (total, row-major value vector) for deterministic output.
    The fillings grow one box per level in row-major order, each prefix
    extended by its box's labels in ascending order, so every level lists
    its prefixes lexicographically and a stable sort of the leaves by
    total alone gives that order.  A label starts at the larger of its
    left and up neighbours (0 for the first box, the only one with
    neither), so every leaf is an RPP by construction and is built
    without ``RPP.__init__``'s check, which still validates every filling
    built any other way.  A label v at box b forces at least v on every
    box of b's principal upper set U (the boxes weakly right of and below
    b), all of which come at or after b, so v·|U| <= max_size − used caps
    v and loses no filling.
    """
    ints([max_size], "max_size")
    if max_size < 0:
        raise DomainError("negative-size", "max_size must be nonnegative", max_size)
    cols, boxes, left, up = diagram.cols, diagram.boxes, diagram.left, diagram.up
    # (labels, total) pairs; the first box's principal upper set is the diagram
    prefixes = [((v,), v) for v in range(max_size // diagram.size + 1)]
    for p in range(1, diagram.size):
        (i, j), l, u = boxes[p], left[p], up[p]
        span = sum(h - j for h in cols[i:] if h > j)
        l, u = (l if l >= 0 else u), (u if u >= 0 else l)  # a missing neighbour reads the other
        prefixes = [
            (vals + (v,), used + v)
            for vals, used in prefixes
            for v in range(max(vals[l], vals[u]), (max_size - used) // span + 1)
        ]
    prefixes.sort(key=itemgetter(1))
    out: list[RPP] = []
    for vals, _ in prefixes:
        rpp = object.__new__(RPP)
        rpp.diagram, rpp.values = diagram, vals
        out.append(rpp)
    return out
