"""Exact sparse polynomial arithmetic and monic division in x."""

import random
from itertools import product

import pytest

from rpphilb import RPP, DomainError
from rpphilb.equations import tangent_embedding, type_i_ideal, type_ii_ideal
from rpphilb.poly import (
    L,
    X,
    SparsePoly,
    _coerce,
    _merge_monomials,
    _monomial,
    _split_x,
    _tokenize,
    divmod_in_x,
    parse_poly,
    parse_var_name,
    var_a,
    var_b,
    var_c,
)
from rpphilb.univariate import monic_divmod, poly_mul
from rpphilb.verify import load_corpus

from conftest import (
    degree_in_x,
    parse_poly_by_descent,
    ring_by_terms,
    shift_subtract_divmod,
    substitute_by_sums,
    x_coefficients,
    x_power,
)
import frozen_tables as FT


def test_ring_identities():
    x = x_power(1)
    a = SparsePoly.variable(var_a(1, 1, 1))
    assert str((x + a) * (x - a)) == "x^2 - a_1_1_1^2"
    assert str((x + SparsePoly.constant(1)) ** 2) == "x^2 + 2*x + 1"
    assert not (x + a) - (x + a)
    assert not x * SparsePoly.constant(0)


def test_constructor_adds_repeated_exponents():
    squared = SparsePoly({((X, 1), (X, 1)): 1})
    assert squared == parse_poly("x^2")
    assert str(squared) == "x^2"
    assert SparsePoly({((X, 1), (L, 2), (X, 2)): 3, ((X, 3), (L, 2)): -1}) == parse_poly("2*x^3*L^2")
    assert SparsePoly({((X, 0),): 3}) == 3  # a zero exponent is dropped


def test_one_variable_monomials_merge_as_the_sorting_constructor_merges():
    # the product's fast path orders two one-variable monomials without _monomial's dict and sort
    variables = [X, L, var_a(0, 0, 1), var_a(1, 0, 1), var_a(0, 1, 2), var_b(0, 0, 1), var_b(1, 1, 1), var_c(0, 1, 3)]
    monomials = [(), *(((v, e),) for v in variables for e in (1, 2, 3))]
    for m1, m2 in product(monomials, repeat=2):
        assert _merge_monomials(m1, m2) == _monomial(m1 + m2), (m1, m2)


@pytest.mark.parametrize("mono", [((X, -1),), ((X, 2), (X, -1)), ((X, 1.5),), ((X, True),)])
def test_constructor_refuses_negative_and_non_int_exponents(mono):
    with pytest.raises(DomainError) as err:
        SparsePoly({mono: 1})
    assert err.value.code == "parse-error"


def test_products_of_monics_build_no_constant(monkeypatch):
    # each entry starts from its first product, so no 0 + poly coerces the int 0,
    # and an int on either side of + or - is its constant term: 0 - poly builds none
    calls, coerced = [], []
    constant = SparsePoly.constant.__func__
    monkeypatch.setattr(SparsePoly, "constant", classmethod(lambda cls, c: calls.append(c) or constant(cls, c)))

    def coerce(value):
        if not isinstance(value, SparsePoly):
            coerced.append(value)
        return _coerce(value)

    monkeypatch.setattr("rpphilb.poly._coerce", coerce)
    a, b = SparsePoly.variable(var_a(0, 0, 1)), SparsePoly.variable(var_b(0, 0, 1))
    product = poly_mul((a, 1), (b, 1))
    quotient, remainder = monic_divmod(product, (b, 1))
    assert calls == [] and coerced == []
    assert product == (a * b, a + b, 1)
    assert quotient == (a, 1) and not any(remainder)
    quotient, remainder = monic_divmod((0, 0, 1), (a, 1))
    assert calls == [] and coerced == []
    assert quotient == (-a, 1) and remainder == (a * a,)


def test_zero_polynomial_is_falsy():
    a = SparsePoly.variable(var_a(1, 1, 1))
    assert not SparsePoly.constant(0) and a and SparsePoly.constant(-1)
    # so ``any`` over a remainder of SparsePolys asks whether it is nonzero
    assert not any(monic_divmod((a * a, 2 * a, 1), (a, 1))[1])
    assert any(monic_divmod((a * a + 1, 2 * a, 1), (a, 1))[1])


def test_parse_and_print_round_trip():
    for text in (
        "x^2 - a_1_1_1^2",
        "b_2_0_1 - c_2_0_1",
        "a_1_1_1^4 - a_1_1_1^3*a_2_1_1 + 2*a_1_1_1*a_1_1_2*a_2_1_1 - 7",
    ):
        assert str(parse_poly(text)) == text
    # every generator the equation rows and the even grid print, tangent reductions too
    fillings = {row["rpp"] for row in load_corpus()["rows"] if row["kind"] == "equations"}
    generators = []
    for text in sorted(fillings | {FT.EVEN_GRID_TEXT}):
        n = RPP.from_text(text)
        ideals = [type_i_ideal(n), type_ii_ideal(n), type_ii_ideal(n, minimal_border=True)]
        for ideal in ideals + [tangent_embedding(ideal)[1] for ideal in ideals]:
            generators += ideal.generators
    assert len(generators) > 150
    for g in generators:
        assert parse_poly(str(g)) == g and str(parse_poly(str(g))) == str(g), g


_ATOMS = ("x", "L", "a_1_0_1", "b_2_0_1", "c_0_1_2", "0", "1", "2", "13")
_STRAYS = ("(", ")", "²", "#", "a_1", "^", "*", "+", "-", "x", "2")


def _random_poly_text(rng):
    """Text near the printed grammar: signed sums of products and powers, some
    factors parenthesised, then up to two tokens inserted, dropped or replaced."""
    tokens = [rng.choice("+-")] if rng.random() < 0.5 else []
    for t in range(rng.randint(1, 4)):
        tokens += [rng.choice("+-")] if t else []
        for f in range(rng.randint(1, 3)):
            tokens += ["*"] if f else []
            atom = [rng.choice(_ATOMS)]
            if rng.random() < 0.05:
                atom = ["(", *atom, rng.choice("+-*"), rng.choice(_ATOMS), ")"]
            tokens += atom + (["^", rng.choice("0123")] if rng.random() < 0.3 else [])
    for _ in range(rng.choice((0, 0, 1, 2))):
        k = rng.randrange(len(tokens) + 1)
        tokens[k : k + rng.randint(0, 1)] = [rng.choice(_STRAYS)] * rng.randint(0, 1)
    return "".join(tok + rng.choice(("", " ", " ", " ")) for tok in tokens)


def _read(parse, text):
    try:
        return parse(text)
    except DomainError as err:
        assert err.code == "parse-error", (text, err)
        return None


def _powers_a_number(text):
    """Whether a number token is followed directly by ``^`` (text the tokenizer refuses has none)."""
    try:
        tokens = _tokenize(text)
    except DomainError:
        return False
    return any(isinstance(tok, int) and nxt == "^" for tok, nxt in zip(tokens, tokens[1:]))


def test_parse_agrees_with_descent_reader():
    rng = random.Random(28)
    parsed = refused = old_parenthesised = old_powered = 0
    for _ in range(5000):
        text = _random_poly_text(rng)
        got, want = _read(parse_poly, text), _read(parse_poly_by_descent, text)
        if "(" in text or ")" in text:
            assert got is None, text
            old_parenthesised += want is not None
        elif _powers_a_number(text):
            assert got is None, text
            old_powered += want is not None
        else:
            assert got == want and str(got) == str(want), text
            parsed += got is not None
            refused += got is None
    assert parsed > 1000 and refused > 300 and old_parenthesised > 20 and old_powered > 20


def test_parse_rejects_garbage():
    garbage = ("", "x +", "1 ** 2", "a_1", "(" * 3000 + "x" + ")" * 3000, "²", "x^²", "x + ١", "1" * 5000)
    powered = ("3^3000000", "2^3*x")  # format_terms prints every coefficient bare
    parenthesised = ("(x)", "2*(x + 1)", "x^(2)")  # no printed form has parentheses
    not_text = (5, None, b"x", ["x"])
    for text in garbage + powered + parenthesised + not_text:
        with pytest.raises(DomainError) as err:
            parse_poly(text)
        assert err.value.code == "parse-error"
    # only ASCII digits index a variable: int() would read these as -1 and 1;
    # a leading zero would not print back, and no chart coordinate has depth 0
    for name in ("a_-1_0_1", "b_١_0_1", "c_+1_0_1", "a_01_0_1", "b_1_00_1", "c_1_0_01", "a_1_0_0", "b_0_0_0"):
        with pytest.raises(DomainError) as err:
            parse_var_name(name)
        assert err.value.code == "parse-error"


def test_var_name_round_trip():
    assert parse_var_name("b_2_0_1") == var_b(2, 0, 1)
    assert parse_var_name("c_3_1_4") == var_c(3, 1, 4)
    assert parse_var_name("a_0_0_10") == var_a(0, 0, 10)
    assert str(SparsePoly.variable(L)) == "L"


def test_division_in_x_is_exact_euclidean():
    x = x_power(1)
    one = SparsePoly.constant(1)
    q, r = divmod_in_x(x * x - one, x + one)
    assert str(q) == "x - 1"
    assert not r
    # generic symbolic division: remainder has lower degree than the divisor
    a = SparsePoly.variable(var_a(1, 1, 1))
    f = x ** 3 + a * x + one
    g = x + a
    q2, r2 = divmod_in_x(f, g)
    assert not q2 * g + r2 - f
    assert degree_in_x(r2) < degree_in_x(g)


def test_division_requires_monic_divisor():
    x = x_power(1)
    with pytest.raises(DomainError) as err:
        divmod_in_x(x * x, SparsePoly.constant(2) * x)
    assert err.value.code == "non-monic-divisor"
    for g in ((), (1, 2), (0, SparsePoly.variable(var_a(0, 0, 1)))):
        with pytest.raises(DomainError) as err:
            monic_divmod((1, 0, 1), g)
        assert err.value.code == "non-monic-divisor"


def test_coefficient_extraction():
    x = x_power(1)
    a = SparsePoly.variable(var_a(1, 1, 1))
    p = x * x * a + x + SparsePoly.constant(5)
    assert degree_in_x(p) == 2
    assert [str(c) for c in x_coefficients(p)] == ["5", "1", "a_1_1_1"]
    assert x_coefficients(x) == [0, 1]
    assert x_coefficients(SparsePoly.constant(0)) == []
    # the library's splitter behind divmod_in_x reads the same coefficients
    for poly in (p, x, a, SparsePoly.constant(0), parse_poly("x^3*a_0_0_1 - 2*x*b_1_0_2^2 + 3")):
        assert list(_split_x(poly)) == x_coefficients(poly)
    assert p.terms[()] == 5


def test_grading_and_linear_part():
    g = parse_poly("a_1_1_1^2 - a_2_1_2")
    # each variable weighs its depth k: a_1_1_1 weighs 1, a_2_1_2 weighs 2
    assert g.weighted_degree() == 2
    assert g.is_homogeneous()
    assert g.linear_part() == {var_a(2, 1, 2): -1}
    skew = parse_poly("a_1_1_1^2 - a_2_1_3")
    assert not skew.is_homogeneous()
    assert skew.weighted_degree() == 3
    assert SparsePoly.constant(0).weighted_degree() is None


def test_substitute():
    g = parse_poly("a_1_1_1^2 - a_2_1_2")
    out = g.substitute({var_a(1, 1, 1): SparsePoly.constant(3)})
    assert str(out) == "-a_2_1_2 + 9"
    closed = out.substitute({var_a(2, 1, 2): SparsePoly.constant(9)})
    assert not closed


def test_substitute_copies_untouched_monomials():
    # a*x + x with a -> -1: the untouched x cancels against the substituted one
    g = parse_poly("a_1_1_1*x + x")
    assert not g.substitute({var_a(1, 1, 1): SparsePoly.constant(-1)})
    h = parse_poly("a_1_1_1^2*b_2_0_1 - 3*c_1_0_2 + x^2 + 5")
    assert h.substitute({var_a(0, 0, 1): SparsePoly.constant(7)}) == h
    assert h.substitute({}) == h


def _random_poly(rng, variables):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = tuple((v, rng.randint(1, 3)) for v in variables if rng.random() < 0.4)
        terms[mono] = rng.randint(-5, 5)
    return SparsePoly(terms)


def test_substitute_matches_sum_oracle():
    rng = random.Random(10)
    variables = [X, var_a(1, 1, 1), var_a(2, 0, 3), var_b(0, 1, 1), var_c(1, 0, 2)]
    for _ in range(300):
        g = _random_poly(rng, variables)
        chosen = rng.sample(variables, rng.randint(0, 3))
        assignments = {v: _random_poly(rng, variables) for v in chosen}
        got = g.substitute(assignments)
        assert got.terms == substitute_by_sums(g, assignments).terms
        assert all(got.terms.values()), "zero coefficients are dropped"


def test_ring_operations_match_term_oracle():
    rng = random.Random(23)
    variables = [X, L, var_a(1, 1, 1), var_a(2, 0, 3), var_b(0, 1, 1), var_c(1, 0, 2)]
    scalars = [0, 1, -1, 2, -3]
    polys = [SparsePoly.constant(0), SparsePoly.constant(1), SparsePoly.constant(-2)]
    polys += [_random_poly(rng, variables) for _ in range(40)]
    assert any(() in p.terms and len(p.terms) > 1 for p in polys), "a constant term beside others"
    ops = {"+": lambda f, g: f + g, "-": lambda f, g: f - g, "*": lambda f, g: f * g}
    checked = 0
    for f in polys:
        for g in [*rng.sample(polys, 8), *scalars]:
            for name, op in ops.items():
                for left, right in ((f, g), (g, f)):
                    got, want = op(left, right), ring_by_terms(name, left, right)
                    assert got.terms == want.terms and str(got) == str(want), (name, left, right)
                    checked += 1
        for e in range(4):
            assert (f**e).terms == ring_by_terms("**", f, e).terms, (f, e)
    assert checked == len(polys) * 13 * 3 * 2


def test_ring_operations_refuse_non_int_scalars():
    a = SparsePoly.variable(var_a(1, 1, 1))
    for make in (
        lambda: SparsePoly.constant(True),
        lambda: SparsePoly.constant(1.0),
        lambda: a * True,
        lambda: True * a,
    ):
        with pytest.raises(DomainError) as err:
            make()
        assert (err.value.code, err.value.message) == ("parse-error", "non-integer coefficients")
    with pytest.raises(DomainError) as err:
        a * 1.0
    assert (err.value.code, err.value.message) == ("parse-error", "cannot use 1.0 as a polynomial")


def test_equality_with_a_bool_answers():
    one = SparsePoly.constant(1)
    assert one == 1 and not one == True  # noqa: E712
    assert one != True and SparsePoly.constant(0) != False  # noqa: E712
    assert (True == one) is False  # noqa: E712


def _evaluate_by_substitution(g, point):
    """The constant left after substituting every variable: the oracle for evaluate."""
    return g.substitute({v: SparsePoly.constant(c) for v, c in point.items()}).terms.get((), 0)


def test_evaluate_agrees_with_substitution():
    rng = random.Random(8)
    variables = [X, L, var_a(1, 1, 1), var_a(2, 0, 3), var_b(0, 1, 1), var_c(1, 0, 2)]
    for _ in range(300):
        g = _random_poly(rng, variables)
        point = {v: rng.randint(-4, 4) for v in variables}
        assert g.evaluate(point) == _evaluate_by_substitution(g, point)
    assert SparsePoly.constant(0).evaluate({}) == 0
    assert SparsePoly.constant(-7).evaluate({}) == -7


def test_evaluate_agrees_with_substitution_on_corpus_ideals():
    rng = random.Random(9)
    rows = [row for row in load_corpus()["rows"] if row["kind"] == "equations"]
    assert rows
    for row in rows:
        n = RPP.from_text(row["rpp"])
        for ideal in (type_i_ideal(n), type_ii_ideal(n), type_ii_ideal(n, minimal_border=True)):
            point = {v: rng.randint(-3, 3) for v in ideal.ambient_vars}
            for g in ideal.generators:
                assert g.evaluate(point) == _evaluate_by_substitution(g, point)


def test_evaluate_names_an_unassigned_variable():
    with pytest.raises(DomainError) as err:
        parse_poly("a_1_1_1*b_2_0_1 + 1").evaluate({var_a(1, 1, 1): 2})
    assert err.value.code == "parse-error"
    assert "b_2_0_1" in err.value.message


def test_variable_sort_key_orders_kinds_consistently():
    ids = [var_a(0, 0, 2), var_a(0, 0, 1), var_b(0, 0, 1), var_c(0, 0, 1)]
    ordered = sorted(ids, key=lambda v: v.sort_key())
    assert [v.kind for v in ordered] == ["a", "a", "b", "c"]
    assert ordered[0] == var_a(0, 0, 1)


def _poly(coeffs):
    """The SparsePoly with the given x-coefficients, lowest power first."""
    return sum((c * x_power(k) for k, c in enumerate(coeffs)), SparsePoly.constant(0))


def test_monic_divmod_agrees_with_shift_subtract_division():
    a = [SparsePoly.variable(var_a(0, 0, k)) for k in range(1, 4)]
    rings = (
        ("int", lambda rng: rng.randint(-3, 3), lambda c: c.terms.get((), 0)),
        ("SparsePoly", lambda rng: rng.randint(-2, 2) * rng.choice(a) + rng.randint(-2, 2), lambda c: c),
    )
    for name, draw, entry in rings:
        rng = random.Random(3)

        def monic(degree):
            return (*[draw(rng) for _ in range(degree)], 1)

        pairs = []
        for _ in range(300):
            g = monic(rng.randint(0, 4))
            f = tuple(entry(c) for c in x_coefficients(_poly(g) * _poly(monic(rng.randint(0, 4)))))
            pairs.append((f, g))  # divisible
            if len(g) > 1:
                r = [draw(rng) for _ in range(len(g) - 1)]
                r[rng.randrange(len(r))] = rng.choice((-2, -1, 1, 2))
                pairs.append(((*(x + y for x, y in zip(f, r)), *f[len(r) :]), g))  # remainder r
            pairs.append((monic(rng.randint(0, 5)), g))  # either
        divisible = 0
        for f, g in pairs:
            quotient, remainder = monic_divmod(f, g)
            q, r = shift_subtract_divmod(_poly(f), _poly(g))
            assert len(remainder) == len(g) - 1, (name, f, g)
            assert _poly(quotient) == q and _poly(remainder) == r, (name, f, g)
            divisible += not r
        assert 300 <= divisible < len(pairs), name

