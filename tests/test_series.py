"""Truncated generating series: products over hooks, collapse, specialisation."""

import hashlib
import json
from itertools import product
from math import comb

import pytest

from rpphilb import DomainError, YoungDiagram
from rpphilb.poly import L, SparsePoly
from rpphilb.rpp import enumerate_rpps
from rpphilb.series import (
    TruncatedSeries,
    _product,
    collapse_to_diagonals,
    diagonal_support,
    euler_series,
    factor_power,
    format_coefficient,
    hook_product,
    motivic_series,
    rpp_series_bruteforce,
)
from rpphilb.verify import load_corpus

import frozen_tables as FT
from conftest import diagrams_up_to, graded_product_by_terms, series_one


def test_geometric_inverse_is_geometric():
    g = factor_power((1, 0), 1, -1, 2, 4)
    for k in range(5):
        assert g.coefficient((k, 0)) == (1,)
    assert g.coefficient((1, 1)) == ()


def test_factor_power_positive_and_negative():
    square_of_factor = factor_power((1,), 1, 2, 1, 4, single_variable=True)
    assert [
        square_of_factor.coefficient((k,)) for k in range(5)
    ] == [(1,), (-2,), (1,), (), ()]
    inverse_square = factor_power((1,), 1, -2, 1, 4, single_variable=True)
    assert [
        inverse_square.coefficient((k,)) for k in range(5)
    ] == [(1,), (2,), (3,), (4,), (5,)]


def test_bruteforce_series_counts_fillings(square_diagram):
    bf = rpp_series_bruteforce(square_diagram, 4)
    total = sum(1 for k, c in bf.coefficients.items() if c == (1,))
    assert total == len(enumerate_rpps(square_diagram, 4))
    assert bf.coefficient((0, 1, 1, 2)) == (1,)
    assert bf.coefficient((4, 0, 0, 0)) == ()


def test_diagonal_support(square_diagram, grid_diagram):
    assert diagonal_support(square_diagram) == (-1, 0, 1)
    assert diagonal_support(grid_diagram) == (-2, -1, 0, 1, 2)
    assert diagonal_support(YoungDiagram((3, 1))) == (-1, 0, 1, 2)
    # the corpus records the box-level hook expansion as holding exactly where the diagonals are distinct
    for row in load_corpus()["rows"]:
        if row["kind"] == "gansner-box":
            diagram = YoungDiagram(row["cols"])
            assert (len(diagonal_support(diagram)) == diagram.size) == row["expected_equal"], row["name"]


def test_collapse_rejects_wrong_diagram(square_diagram, grid_diagram):
    bf = rpp_series_bruteforce(square_diagram, 3)
    with pytest.raises(DomainError) as err:
        collapse_to_diagonals(grid_diagram, bf)
    assert err.value.code == "diagram-mismatch"


def test_unsupported_curve(square_diagram):
    with pytest.raises(DomainError) as err:
        motivic_series(square_diagram, "E8", 4)
    assert err.value.code == "unsupported-curve"


# -- differential oracle: binomial factor series multiplied by __mul__ --


def _binomial_factor(v, l_degree, power, n_vars, max_size, single_variable=False):
    """(1 − L^l_degree·q^v)^power expanded by the (negative) binomial theorem."""
    step = sum(v)
    if power >= 0:
        terms = [(k, (-1) ** k * comb(power, k)) for k in range(min(power, max_size // step) + 1)]
    else:
        terms = [(k, comb(-power - 1 + k, k)) for k in range(max_size // step + 1)]
    coeffs = {tuple(k * e for e in v): (0,) * (k * l_degree) + (b,) for k, b in terms}
    return TruncatedSeries(n_vars, max_size, coeffs, single_variable)


def _convolved(factors, n_vars, max_size, single_variable=False):
    series = series_one(n_vars, max_size, single_variable)
    for v, l_degree, power in factors:
        series = series * _binomial_factor(v, l_degree, power, n_vars, max_size, single_variable)
    return series


def test_graded_passes_match_the_binomial_convolution():
    max_size = 6
    diagrams = diagrams_up_to(4)
    assert len(diagrams) == 11
    for d in diagrams:
        hooks = [d.hook(box) for box in d.boxes]
        lengths = [(d.hook_length(box),) for box in d.boxes]
        for chi in (-2, -1, 0, 1, 2, 3):
            multi = _convolved([(v, 0, -chi) for v in hooks], d.size, max_size)
            assert hook_product(d, 1, -chi, max_size) == multi
            assert euler_series(d, chi, max_size) == multi
            single = _convolved([(h, 0, -chi) for h in lengths], 1, max_size, True)
            assert euler_series(d, chi, max_size, single_variable=True) == single
        affine = _convolved([(v, 1, -1) for v in hooks], d.size, max_size)
        assert motivic_series(d, "A1", max_size) == affine
        projective = _convolved([(v, l, -1) for v in hooks for l in (1, 0)], d.size, max_size)
        assert motivic_series(d, "P1", max_size) == projective


def test_large_powers_match_the_binomial_convolution(square_diagram):
    # each factor costs at most max_size // |v| updates per term, whatever |chi|
    hooks = [square_diagram.hook(box) for box in square_diagram.boxes]
    lengths = [(square_diagram.hook_length(box),) for box in square_diagram.boxes]
    for chi in (-(10**9), -20000, 20000, 10**9):
        multi = _convolved([(v, 0, -chi) for v in hooks], 4, 6)
        assert euler_series(square_diagram, chi, 6) == multi
        single = _convolved([(h, 0, -chi) for h in lengths], 1, 6, True)
        assert euler_series(square_diagram, chi, 6, single_variable=True) == single
        assert hook_product(square_diagram, (0, 1), chi, 6) == _convolved([(v, 1, chi) for v in hooks], 4, 6)


def _weighted_factor(v, weight, power, n_vars, max_size):
    """(1 − w·q^v)^power for a weight w in Z[L], an int or ints by power of L, by the binomial theorem."""
    weight = (weight,) if isinstance(weight, int) else weight
    w = SparsePoly({((L, d),): c for d, c in enumerate(weight)})
    coeffs = {}
    for k in range(max_size // sum(v) + 1):
        b = (-1) ** k * comb(power, k) if power >= 0 else comb(-power - 1 + k, k)
        by_power = {dict(mono).get(L, 0): c for mono, c in (w**k * SparsePoly.constant(b)).terms.items()}
        coeffs[tuple(k * e for e in v)] = tuple(by_power.get(d, 0) for d in range(max(by_power, default=-1) + 1))
    return TruncatedSeries(n_vars, max_size, coeffs)


def test_weights_that_are_not_monomials_match_the_binomial_convolution():
    # a weight with two or more powers of L goes through the general product
    max_size = 6
    for d in diagrams_up_to(4):
        hooks = [d.hook(box) for box in d.boxes]
        for weight in ((1, 1), (2, 0, -1), 3):
            for power in (-2, -1, 1, 2):
                factors = [_weighted_factor(v, weight, power, d.size, max_size) for v in hooks]
                assert factor_power(hooks[0], weight, power, d.size, max_size) == factors[0]
                expected = series_one(d.size, max_size)
                for f in factors:
                    expected = expected * f
                assert hook_product(d, weight, power, max_size) == expected, (d, weight, power)


def test_single_variable_series_have_one_variable():
    # the single-variable JSON form keeps the first exponent only, so a second would be lost
    for build in (
        lambda: TruncatedSeries(2, 2, {(1, 0): 1}, single_variable=True),
        lambda: factor_power((1, 1), 1, -1, 2, 4, single_variable=True),
    ):
        with pytest.raises(DomainError) as err:
            build()
        assert err.value.code == "parse-error"


def test_factor_power_rejects_negative_exponents():
    for v in ((-1, 0), (-1, 2)):
        with pytest.raises(DomainError) as err:
            factor_power(v, 1, -1, 2, 4)
        assert err.value.code == "parse-error"


def test_format_coefficient_matches_polynomial_printing():
    # the polynomial in L with the same coefficients is the printing oracle
    for length in range(5):
        for coefficient in product(range(-2, 3), repeat=length):
            expected = str(SparsePoly({((L, d),): c for d, c in enumerate(coefficient)}))
            assert format_coefficient(coefficient) == expected, coefficient


def _assert_same_as_revalidated(s):
    # the public constructor is the oracle for the series built unchecked
    copy = TruncatedSeries(s.n_vars, s.max_size, s.coefficients, s.single_variable)
    assert copy.coefficients == s.coefficients
    assert () not in s.coefficients.values()
    assert all(sum(exp) <= s.max_size for exp in s.coefficients)


def test_built_series_equal_their_revalidated_copies():
    for diagram in diagrams_up_to(5):
        for max_size in range(7):
            built = [
                motivic_series(diagram, "A1", max_size),
                motivic_series(diagram, "P1", max_size),
                rpp_series_bruteforce(diagram, max_size),
            ]
            built.append(collapse_to_diagonals(diagram, built[-1]))
            for chi in (-1, 1, 2):
                built.append(euler_series(diagram, chi, max_size))
                built.append(euler_series(diagram, chi, max_size, single_variable=True))
            built.append(built[0] * built[4])
            for s in built:
                _assert_same_as_revalidated(s)


def test_cancelled_coefficients_are_not_stored(square_diagram):
    v = (0, 1)
    cancelled = factor_power(v, (0, 1), 1, 2, 6) * factor_power(v, (0, 1), -1, 2, 6)
    assert cancelled.coefficients == {(0, 0): (1,)}
    # boxes (0, 0) and (1, 1) share diagonal 0, so these two terms cancel
    series = TruncatedSeries(4, 2, {(1, 0, 0, 0): (0, 1), (0, 0, 0, 1): (0, -1), (0, 1, 0, 0): 2})
    assert collapse_to_diagonals(square_diagram, series).coefficients == {(1, 0, 0): (2,)}


def test_bruteforce_series_is_frozen():
    obj = rpp_series_bruteforce(YoungDiagram((4, 3, 2, 1)), 12).to_json_obj()
    assert len(obj) == 6948
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == FT.BRUTEFORCE_4321_12_SHA256


def test_graded_product_matches_the_term_by_term_loop():
    # per size, then update, then term: only the order of dict insertions may change
    d = YoungDiagram((4, 3, 2, 1))
    hooks = [d.hook(box) for box in d.boxes]
    lengths = [(d.hook_length(box),) for box in d.boxes]
    for chi in (-2, -1, 1, 2, 3):
        assert euler_series(d, chi, 8) == graded_product_by_terms(d.size, 8, [(v, 1, -chi) for v in hooks])
        single = graded_product_by_terms(1, 12, [(h, 1, -chi) for h in lengths])
        assert euler_series(d, chi, 12, single_variable=True) == single
    assert motivic_series(d, "A1", 9) == graded_product_by_terms(d.size, 9, [(v, (0, 1), -1) for v in hooks])
    projective = [(v, w, -1) for v in hooks for w in ((0, 1), 1)]
    assert motivic_series(d, "P1", 7) == graded_product_by_terms(d.size, 7, projective)
    mixed = [(v, w, k) for v, (w, k) in zip(hooks, [((1, 1), 2), ((2, 0, -1), -2), (-3, 1), ((0, 2), 3), (0, -1)] * 2)]
    assert _product(d.size, 8, mixed) == graded_product_by_terms(d.size, 8, mixed)


def test_l_dependent_hook_products_match_the_term_by_term_loop():
    # a sum longer than one entry is stored unchecked, an empty one would show here: none cancels
    for d in diagrams_up_to(4):
        hooks = [d.hook(box) for box in d.boxes]
        for w in ((0, 1), (1, -1), (-1, 1), (2, -1, 1)):
            for power in (-4, -3, -2, 2, 3):
                want = graded_product_by_terms(d.size, 6, [(v, w, power) for v in hooks])
                assert hook_product(d, w, power, 6) == want, (d.cols, w, power)


def test_exponents_past_one_byte_keep_their_digits():
    # inside a product an exponent is a byte-aligned digit: 2 bytes past 255, 4 past 65535
    row = YoungDiagram((1, 1))
    assert euler_series(row, 1, 300) == rpp_series_bruteforce(row, 300)
    column = euler_series(YoungDiagram((2,)), 1, 70000, single_variable=True)
    assert len(column.coefficients) == 70001
    assert all(column.coefficient((n,)) == (n // 2 + 1,) for n in (0, 255, 256, 65535, 65536, 70000))
