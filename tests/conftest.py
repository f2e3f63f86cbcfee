import json
import random
from importlib.resources import files
from dataclasses import replace
from itertools import product, zip_longest
from operator import add

import pytest

from rpphilb import RPP, DomainError, YoungDiagram, classify
from rpphilb.components import _relation, _support_matrix
from rpphilb.diagram import upper_set_parts
from rpphilb.equations import IdealPresentation
from rpphilb.linalg import rank, rref, solve_from_rref
from rpphilb.poly import X, SparsePoly, VarId, parse_var_name
from rpphilb.rpp import Factorization, Indicator, _first_fault, enumerate_rpps, indicators
from rpphilb.series import TruncatedSeries
from rpphilb.univariate import poly_mul
from rpphilb.verify import load_corpus

import frozen_tables as FT
from certify import certify_report  # noqa: F401  (the tests import it from here)
from shapes import diagrams_up_to


def check_schema(instance, name):
    """Validate ``instance`` against the shipped ``schemas/<name>.schema.json``."""
    import jsonschema  # here, so that only the tests of JSON output need it

    schema = files("rpphilb").joinpath(f"schemas/{name}.schema.json").read_text(encoding="utf-8")
    jsonschema.validate(instance, json.loads(schema))


def corpus_row(name):
    """The bundled corpus row ``name``, freshly loaded: the one record of the paper's worked examples."""
    return next(row for row in load_corpus()["rows"] if row["name"] == name)


def connected_parts(diagram, vector):
    """Edge-connected parts of a 0/1 vector by depth-first search, descending-lex.

    The oracle for ``diagram.upper_set_parts``: it grows each part from a
    seed box through its left, right, upper and lower neighbours.
    """
    remaining = {b for b, x in zip(diagram.boxes, vector) if x}
    parts = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            i, j = frontier.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in remaining:
                    remaining.remove(nb)
                    comp.add(nb)
                    frontier.append(nb)
        parts.append(tuple(int(b in comp) for b in diagram.boxes))
    return sorted(parts, reverse=True)


def upper_sets_by_heights(diagram):
    """Row-major 0/1 vectors of the upper sets, descending-lex, as complements of subdiagrams.

    The oracle for ``diagram.enumerate_upper_sets``: a recursion yields
    every nonincreasing height vector h inside the diagram, zeros allowed,
    the boxes (i, j) with j >= h[i] form the upper set it leaves, and one
    sort orders the vectors.
    """
    cols = diagram.cols

    def heights(k, bound):
        if k == len(cols):
            yield ()
            return
        for h in range(min(bound, cols[k]), -1, -1):
            for rest in heights(k + 1, h):
                yield (h,) + rest

    vectors = (tuple(int(j >= h[i]) for i, j in diagram.boxes) for h in heights(0, cols[0]))
    return sorted(vectors, reverse=True)


def value(filling, box):
    """Label of a filling at a box by its coordinates, 0 off the diagram (the zero extension).

    The coordinate oracle for the library's position tables (``left``,
    ``up``, ``up_left``), which read labels by row-major position instead.
    """
    d = filling.diagram
    return filling.values[d.box_index(box)] if box in d else 0


def rising_filling(diagram, step):
    """RPP whose labels rise by ``step()`` over the larger of the left and upper neighbours."""
    vals = [0] * (diagram.size + 1)  # the trailing 0 is the zero extension
    for p, (l, u) in enumerate(zip(diagram.left, diagram.up)):
        vals[p] = max(vals[l], vals[u]) + step()
    return RPP(diagram, vals[:-1])


def filling_of_weight(rng, diagram, weight):
    """A seeded rising filling of exactly the given weight."""
    while True:
        n = rising_filling(diagram, lambda: rng.choice((0, 0, 1, 1, 2)))
        if n.weight() == weight:
            return n


def conjugate(n):
    """The transpose of a filling, on the conjugate shape: the label at box (i, j) moves to (j, i)."""
    rows = n.rows()
    return RPP.from_rows([row[r] for row in rows if len(row) > r] for r in range(len(rows[0])))


def pad(n, side):
    """A filling with a zero row added on top (side "row") or a zero column added at the left."""
    rows = n.rows()
    return RPP.from_rows([[0] * len(rows[0]), *rows] if side == "row" else [[0, *row] for row in rows])


def enumerate_rpps_by_recursion(diagram, max_size):
    """Value tuples of the RPPs with label total <= max_size, sorted by (total, values).

    The oracle for ``rpp.enumerate_rpps``: a depth-first recursion in
    row-major order that lets each label run from the larger of its left
    and up neighbours up to max_size minus the labels placed so far, then
    one sort on the key (total, values).
    """
    size, left, up = diagram.size, diagram.left, diagram.up
    out = []
    vals = [0] * (size + 1)  # the trailing 0 is the zero extension

    def rec(pos, used):
        if pos == size:
            out.append(tuple(vals[:size]))
            return
        for v in range(max(vals[left[pos]], vals[up[pos]]), max_size - used + 1):
            vals[pos] = v
            rec(pos + 1, used + v)
        vals[pos] = 0

    rec(0, 0)
    out.sort(key=lambda vals: (sum(vals), vals))
    return out


def factorizations_by_tuple_search(n):
    """The factorisations of n by a search that rebuilds and rescans the remainder at each node.

    The oracle for ``rpp.all_factorizations``: each node subtracts every
    indicator from its position on as a new value tuple, keeps the
    remainders that are still RPPs, and builds each leaf with the
    validating ``Factorization(...)``.
    """
    inds = indicators(n.diagram)
    if n.is_zero():
        return [Factorization({})]
    results, path = [], []

    def search(vals, start):
        if all(v == 0 for v in vals):
            terms = {}
            for ind in path:
                terms[ind] = terms.get(ind, 0) + 1
            results.append(Factorization(terms))
            return
        for pos in range(start, len(inds)):
            rest = tuple(a - b for a, b in zip(vals, inds[pos].values))
            if _first_fault(n.diagram, rest) is not None:
                continue
            path.append(inds[pos])
            search(rest, pos)
            path.pop()

    search(n.values, 0)
    return results


def standard_factorization_checked(n):
    """The level-set factorisation with every indicator built by the validating constructor.

    The oracle for ``rpp.standard_factorization``, which builds its
    indicators unchecked.
    """
    if n.is_zero():
        return None
    levels = sorted({v for v in n.values if v > 0})
    terms: dict = {}
    prev = 0
    for k in levels:
        for part in upper_set_parts(n.diagram, tuple(int(v >= k) for v in n.values)):
            ind = Indicator(n.diagram, part)
            terms[ind] = terms.get(ind, 0) + (k - prev)
        prev = k
    fact = Factorization(terms)
    assert fact.total() == n
    return fact


def complete_factorization_checked(n):
    """The principal-upper-set factorisation with every indicator built by the validating constructor.

    The oracle for ``rpp.complete_factorization``, which builds its
    indicators unchecked.
    """
    deriv = n.derivative()
    if any(v < 0 for v in deriv):
        return None
    terms: dict = {}
    for box, dv in zip(n.diagram.boxes, deriv):
        if dv > 0:
            principal = tuple(int(b.i >= box.i and b.j >= box.j) for b in n.diagram.boxes)
            terms[Indicator(n.diagram, principal)] = dv
    fact = Factorization(terms)
    assert fact.total() == n if terms else n.is_zero()
    return fact


def bijective_on_points_full_box(T):
    """``components.bijective_on_points`` solving every nonzero point of the free columns' box.

    The oracle for the library's search, which solves only the points whose
    first nonzero value is positive, one of each ± pair.  It has no cap.
    """
    support = T.support
    if not support:
        return True, None
    mults = list(T.terms.values())
    reduced, pivots = rref(_support_matrix(T))
    free = [c for c in range(len(support)) if c not in pivots]
    best = None
    for values in product(*(range(-mults[f], mults[f] + 1) for f in free)):
        if not any(values):
            continue
        ints = solve_from_rref(reduced, pivots, dict(zip(free, values)), len(support))
        if ints is None or any(abs(m) > bound for m, bound in zip(ints, mults)):
            continue
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        score = (sum(abs(m) for m in ints), tuple(ints))
        if best is None or score < best:
            best = score
    return (True, None) if best is None else _relation(T, best[1])


def classify_misreading(text):
    """(``classify`` with one flag wrong, the wrong report's position) for the filling ``text``.

    The filling's singular but bijective component is marked not bijective.
    """
    k = next(k for k, r in enumerate(classify(RPP.from_text(text))) if not r.smooth and r.bijective_on_points)

    def misreading(n):
        reports = classify(n)
        if n.to_text() == text:
            reports[k] = replace(reports[k], bijective_on_points=False)
        return reports

    return misreading, k


def order_fillings():
    """The RPPs of total at most 6 on at most 7 boxes, then the paper's three grids."""
    fillings = [n for d in diagrams_up_to(7) for n in enumerate_rpps(d, 6)]
    return fillings + [RPP.from_text(t) for t in (FT.GRID_TEXT, FT.EVEN_GRID_TEXT, FT.TRIPLE_GRID_TEXT)]


def search_oracle_fillings():
    """The fillings the factorisation search is checked on against its oracle.

    The 305 fillings of total at most 4 on the diagrams of at most 5 boxes
    (zero fillings included), both paper grids, and 40 seeded fillings in
    the shapes and weights of the benchmark's classify workload.
    """
    fillings = [r for d in diagrams_up_to(5) for r in enumerate_rpps(d, 4)]
    fillings += [RPP.from_text(FT.GRID_TEXT), RPP.from_text(FT.EVEN_GRID_TEXT)]
    rng = random.Random(2024)
    for cols in ((3, 3, 3), (4, 3, 2, 1)):
        d = YoungDiagram(cols)
        fillings += [filling_of_weight(rng, d, w) for w in range(6, 11) for _ in range(4)]
    return fillings


def trimmed_sum(a, b):
    """Sum of two coefficient tuples, ints by power of L, without trailing zeros."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def series_one(n_vars, max_size, single_variable=False):
    """The constant series 1, the unit of ``TruncatedSeries`` products."""
    return TruncatedSeries(n_vars, max_size, {(0,) * n_vars: (1,)}, single_variable)


def graded_product_by_terms(n_vars, max_size, factors):
    """Π (1 − w·q^v)^k over (v, w, k) factors as a TruncatedSeries, term by term.

    The oracle for ``series._product``'s loop order and packed exponents:
    each pass walks the sizes, then the terms of a size, then the updates
    c_j·w^j·q^{j·v} of one term, keeps exponent vectors as tuples and
    multiplies every coefficient through ``poly_mul``.  A weight is an
    int or ints by power of L.
    """
    graded = [{(0,) * n_vars: (1,)}] + [{} for _ in range(max_size)]
    for v, weight, power in factors:
        step, k = sum(v), abs(power)
        w = trimmed_sum((weight,) if isinstance(weight, int) else weight, ())
        updates, c, w_j = [], 1, (1,)
        n_updates = min(k, max_size // step) if w else 0
        for j in range(1, n_updates + 1):
            c, w_j = c * (j - 1 - k) // j, poly_mul(w_j, w)
            updates.append((j * step, tuple(j * e for e in v), tuple((c if power > 0 else -c) * x for x in w_j)))
        sizes = range(max_size - step + 1) if power < 0 else range(max_size - step, -1, -1)
        for t in sizes:
            for e, a in graded[t].items():
                for shift, jv, cw in updates:
                    if t + shift <= max_size:
                        target = graded[t + shift]
                        key = tuple(map(add, e, jv))
                        target[key] = trimmed_sum(target.get(key, ()), poly_mul(cw, a))
                        if not target[key]:
                            del target[key]
    return TruncatedSeries(n_vars, max_size, {e: c for by_size in graded for e, c in by_size.items()})


def x_power(k):
    """x^k as a SparsePoly; x^0 is the constant 1."""
    return SparsePoly({((X, k),): 1}) if k else SparsePoly.constant(1)


def degree_in_x(p):
    """Largest power of x in a SparsePoly, or -1 for the zero polynomial."""
    return max((dict(mono).get(X, 0) for mono in p.terms), default=-1)


def x_coefficients(p):
    """Coefficients of x^0, x^1, ... of a SparsePoly, as polynomials in the other variables.

    Term by term, the oracle for the splitter behind ``poly.divmod_in_x``.
    """
    coeffs = [SparsePoly.constant(0)] * (degree_in_x(p) + 1)
    for mono, c in p.terms.items():
        d = dict(mono).get(X, 0)
        coeffs[d] = coeffs[d] + SparsePoly({tuple((v, e) for v, e in mono if v != X): c})
    return coeffs


def shift_subtract_divmod(f, g):
    """Quotient and remainder of SparsePolys f by g, monic in x, by shifted subtraction.

    The oracle for ``univariate.monic_divmod``: each step cancels the leading
    x-term of the remainder with a shifted multiple of the whole divisor.
    """
    dg = degree_in_x(g)
    assert dg >= 0 and x_coefficients(g)[dg] == 1, "the divisor must be monic in x"
    q = SparsePoly.constant(0)
    r = f
    while degree_in_x(r) >= dg:
        dr = degree_in_x(r)
        shift = x_coefficients(r)[dr] * x_power(dr - dg)
        q = q + shift
        r = r - shift * g
        assert degree_in_x(r) < dr, "division must strictly reduce the x-degree"
    return q, r


def ring_by_terms(op, f, g):
    """f op g for op in ``+ - * **``, term by term, normalised by the validating constructor.

    The oracle for the ``SparsePoly`` ring operations: operands are
    SparsePolys or exact ints (an int exponent for ``**``), every product
    monomial is the unsorted union of its factors' exponents, and
    ``SparsePoly(dict)`` sorts each monomial, adds the coefficients that
    meet and drops the zeros.
    """

    def terms(value):
        return value.terms if isinstance(value, SparsePoly) else {(): value}

    def times(a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                exps = {}
                for v, e in m1 + m2:
                    exps[v] = exps.get(v, 0) + e
                mono = tuple(exps.items())
                out[mono] = out.get(mono, 0) + c1 * c2
        return out

    if op == "**":
        out = {(): 1}
        for _ in range(g):
            out = times(out, terms(f))
    elif op == "*":
        out = times(terms(f), terms(g))
    else:
        sign = 1 if op == "+" else -1
        out = dict(terms(f))
        for mono, c in terms(g).items():
            out[mono] = out.get(mono, 0) + sign * c
    return SparsePoly(out)


def substitute_by_sums(p, assignments):
    """p with variables replaced by polynomials, one polynomial sum per monomial.

    The oracle for ``SparsePoly.substitute``: each monomial's image,
    untouched or multiplied out, is added to the running result.
    """
    result = SparsePoly.constant(0)
    for mono, c in p.terms.items():
        term = SparsePoly.constant(c)
        for v, e in mono:
            term = term * (assignments[v] ** e if v in assignments else SparsePoly({((v, e),): 1}))
        result = result + term
    return result


def _tokenize_with_parentheses(text):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            pos += 1
        elif "0" <= ch <= "9":  # str.isdigit() also takes '²' and '١'
            start = pos
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(int(text[start:pos]))
        elif ch.isalpha():
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(parse_var_name(text[start:pos]))
        else:
            raise DomainError("parse-error", f"unexpected character {ch!r} in polynomial", text)
    return tokens


def parse_poly_by_descent(text):
    """A recursive-descent reader of ``+ - * ^`` text that also takes parentheses.

    The oracle for ``poly.parse_poly``: one closure per grammar rule, one
    polynomial built per factor and per term.  On text without
    parentheses both readers must agree.
    """
    tokens = _tokenize_with_parentheses(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_atom():
        tok = peek()
        if tok == "(":
            take()
            inner = parse_expr()
            if peek() != ")":
                raise DomainError("parse-error", "missing ')' in polynomial", text)
            take()
            return inner
        if isinstance(tok, int):
            return SparsePoly.constant(take())
        if isinstance(tok, VarId):
            return SparsePoly.variable(take())
        raise DomainError("parse-error", f"unexpected token {tok!r} in polynomial", text)

    def parse_factor():
        base = parse_atom()
        if peek() == "^":
            take()
            exp = peek()
            if not isinstance(exp, int):
                raise DomainError("parse-error", "exponent must be a number", text)
            take()
            return base**exp
        return base

    def parse_term():
        result = parse_factor()
        while peek() == "*":
            take()
            result = result * parse_factor()
        return result

    def parse_expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        result = sign * parse_term()
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            result = result + sign * parse_term()
        return result

    if not tokens:
        raise DomainError("parse-error", "empty polynomial text", text)
    try:
        result = parse_expr()
    except RecursionError:
        raise DomainError("parse-error", "polynomial nested too deeply", text) from None
    if pos != len(tokens):
        raise DomainError("parse-error", f"trailing tokens in polynomial {text!r}", text)
    return result


def tangent_by_linear_parts(I):
    """(tangent dimension, reduced presentation), choosing from each generator's linear part.

    The oracle for ``equations.tangent_embedding``: every round scans every
    generator's linear part for a ±1 coefficient on a variable that no
    other monomial of that generator contains, and eliminates the least by
    (depth, variable order, generator order) with ``substitute_by_sums``.
    """
    lin_rank = rank([[g.linear_part().get(v, 0) for v in I.ambient_vars] for g in I.generators])
    gens = [g for g in I.generators if g]
    remaining = list(I.ambient_vars)
    while True:
        best = None
        for gi, g in enumerate(gens):
            for v, coeff in g.linear_part().items():
                elsewhere = any(v in dict(mono) for mono in g.terms if mono != ((v, 1),))
                key = (v.k, v.sort_key(), gi)
                if coeff in (1, -1) and not elsewhere and (best is None or key < best[0]):
                    best = (key, v, coeff)
        if best is None:
            break
        (_, _, gi), v, s = best
        g = gens.pop(gi)
        replacement = -s * (g - s * SparsePoly.variable(v))
        gens = [h for h in (substitute_by_sums(h, {v: replacement}) for h in gens) if h]
        remaining.remove(v)
    assert not any(g.linear_part() for g in gens), "the reduction stalled"
    reduced = IdealPresentation(tuple(remaining), tuple(dict.fromkeys(gens)))
    return len(I.ambient_vars) - lin_rank, reduced


def long_division_divides(p, a, b):
    """Whether monic a divides monic b over F_p, by long division reduced mod p.

    The oracle for ``PrimeField.divides``: residue tuples for x^0 .. x^(d-1),
    the leading 1 implicit, so the empty tuple is the constant 1.
    """
    da, db = len(a), len(b)
    if da == 0:
        return True
    if db < da:
        return False
    rem = list(b) + [1]
    for top in range(db, da - 1, -1):
        f = rem[top]
        if f:
            rem[top] = 0
            for i, c in enumerate(a):
                rem[top - da + i] = (rem[top - da + i] - f * c) % p
    return not any(rem[:da])


def all_monics_count_points(n, p):
    """Nested tuples over F_p shaped by n, trying every monic at every box.

    The oracle for ``pointcount.count_points``: each box runs through all
    p^n(box) monics and keeps those its left and up neighbours divide.
    """
    diagram = n.diagram
    predecessors = [[q for q in (l, u) if q >= 0] for l, u in zip(diagram.left, diagram.up)]
    assigned = [None] * diagram.size

    def dfs(k):
        if k == diagram.size:
            return 1
        total = 0
        for candidate in product(range(p), repeat=n.values[k]):
            if all(long_division_divides(p, assigned[q], candidate) for q in predecessors[k]):
                assigned[k] = candidate
                total += dfs(k + 1)
        return total

    return dfs(0)


@pytest.fixture
def square_diagram():
    return YoungDiagram((2, 2))


@pytest.fixture
def square_rpp():
    return RPP.from_text(FT.SQUARE_TEXT)


@pytest.fixture
def grid_diagram():
    return YoungDiagram((3, 3, 3))


@pytest.fixture
def grid_rpp():
    return RPP.from_text(FT.GRID_TEXT)


@pytest.fixture
def domino_rpp():
    return RPP.from_text(FT.DOMINO_TEXT)
