"""Monotone fillings, their derivative and weight, and monoid factorisations."""

import gc
from itertools import product

import pytest

import rpphilb.rpp
from rpphilb import RPP, CapExceeded, DomainError, YoungDiagram
from rpphilb.diagram import enumerate_upper_sets
from rpphilb.equations import ambient_and_bundle
from rpphilb.rpp import (
    Factorization,
    Indicator,
    all_factorizations,
    complete_factorization,
    enumerate_rpps,
    indicators,
    standard_factorization,
)
from rpphilb.series import _product

import frozen_tables as FT
from conftest import (
    complete_factorization_checked,
    connected_parts,
    diagrams_up_to,
    enumerate_rpps_by_recursion,
    factorizations_by_tuple_search,
    order_fillings,
    rising_filling,
    search_oracle_fillings,
    standard_factorization_checked,
    value,
)


def test_text_round_trip(square_rpp):
    assert square_rpp.to_text() == FT.SQUARE_TEXT
    assert RPP.from_text(square_rpp.to_text()) == square_rpp
    assert RPP.from_json_obj(square_rpp.to_json_obj()) == square_rpp


def test_ragged_rows_give_hook_shape():
    n = RPP.from_text("0 1 / 2")
    assert n.diagram == YoungDiagram((2, 1))
    assert n.rows() == [[0, 1], [2]]


@pytest.mark.parametrize(
    "text, code",
    [
        ("1 0", "not-monotone"),
        ("1 0 / -1 0", "not-monotone"),  # the first offending box in row-major order wins
        ("0 1 / 1 0", "not-monotone"),
        ("-1 0", "negative-label"),
        ("0 x", "parse-error"),
        ("", "parse-error"),
    ],
)
def test_bad_fillings(text, code):
    with pytest.raises(DomainError) as err:
        RPP.from_text(text)
    assert err.value.code == code


def multiplicity(diagram, values):
    return Factorization({Indicator(diagram, (1,)): values[0]})


def max_size(diagram, values):
    return enumerate_rpps(diagram, values[0])


@pytest.mark.parametrize("values", [[1.7], [True], ["1"], [1.0]])
@pytest.mark.parametrize("cls", [Indicator, RPP, multiplicity, max_size])
def test_labels_that_are_not_ints_are_refused(cls, values):
    # a multiplicity or an enumeration bound passes the same integer check as a label
    with pytest.raises(DomainError) as err:
        cls(YoungDiagram((1,)), values)
    assert (err.value.code, err.value.exit_code) == ("parse-error", 1)


def test_size_values_and_access(square_rpp):
    assert square_rpp.size == 8
    assert square_rpp.values == (0, 2, 2, 4)
    assert square_rpp.rows() == [[0, 2], [2, 4]]


def test_derivative_and_weight(square_rpp, grid_rpp):
    assert square_rpp.derivative() == (0, 2, 2, 0)
    assert square_rpp.weight() == 4
    # the mixed second difference of the grid example has a negative entry
    assert grid_rpp.derivative() == (0, 0, 3, 0, 2, 0, 3, 0, -3)
    assert grid_rpp.weight() == 5


def test_weight_equals_socle_minus_subsocle():
    # the weight is one formula, the derivative's total; the socle formula and
    # the ambient chart's dimension minus the bundle's rank are its oracles here
    n = RPP.from_text("1 3 / 2")
    d = n.diagram
    socle_sum = sum(value(n, b) for b, x in zip(d.boxes, d.socle()) if x)
    subsocle_sum = sum(value(n, b) for b, x in zip(d.boxes, d.subsocle()) if x)
    assert n.weight() == socle_sum - subsocle_sum == 3 + 2 - 1
    atlas = [n for d in diagrams_up_to(8) for n in enumerate_rpps(d, 5)]
    assert len(atlas) == 3277
    grids = [RPP.from_text(text) for text in (FT.GRID_TEXT, FT.EVEN_GRID_TEXT, FT.TRIPLE_GRID_TEXT)]
    for n in atlas + grids:
        d, w = n.diagram, n.weight()
        socle_sum = sum(v * x for v, x in zip(n.values, d.socle()))
        subsocle_sum = sum(v * x for v, x in zip(n.values, d.subsocle()))
        assert w == socle_sum - subsocle_sum, n.to_text()
        assert ambient_and_bundle(n).expected_dim == w, n.to_text()


def test_add_and_scale(square_rpp):
    doubled = square_rpp.scale(2)
    assert doubled.values == (0, 4, 4, 8)
    assert (square_rpp + square_rpp) == doubled
    with pytest.raises(DomainError) as err:
        square_rpp.scale(-1)
    assert err.value.code == "negative-scale"


def test_zero_filling(square_diagram):
    z = RPP(square_diagram, (0,) * square_diagram.size)
    assert z.is_zero()
    assert z.weight() == 0
    assert z.size == 0
    # the zero filling has only the empty factorisation, which is not a level-set one
    assert standard_factorization(z) is None


def test_square_indicators_in_canonical_order(square_diagram):
    assert [nu.to_text() for nu in indicators(square_diagram)] == FT.SQUARE_INDICATORS


def test_grid_indicators_in_canonical_order(grid_diagram):
    assert [nu.to_text() for nu in indicators(grid_diagram)] == FT.GRID_INDICATORS


def _text_is_kept(ind) -> bool:
    """Both reads of the indicator's text give the same string, the RPP text of its values."""
    first = ind.to_text()
    return first == RPP(ind.diagram, ind.values).to_text() and ind.to_text() is first


def test_indicators_keep_their_text():
    for d in diagrams_up_to(6):
        assert all(_text_is_kept(ind) for ind in indicators(d)), d
        # the factorisations build indicators of their own, outside the shape table
        for n in enumerate_rpps(d, 3)[1:]:
            complete = complete_factorization(n)
            built = [*standard_factorization(n).support, *(complete.support if complete else ())]
            assert all(_text_is_kept(ind) for ind in built), n


def test_is_indicator(square_rpp):
    # an RPP is irreducible exactly when its weight is one
    assert RPP.from_text("0 1 / 1 1").weight() == 1
    assert square_rpp.weight() != 1
    # 0/1 filling on a disconnected upper set is not an indicator
    assert RPP.from_text("0 1 / 1").weight() != 1


def test_standard_factorization_of_square(square_rpp):
    f = standard_factorization(square_rpp)
    assert {nu.to_text(): m for nu, m in f.terms.items()} == {
        "0 1 / 1 1": 2,
        "0 0 / 0 1": 2,
    }
    assert f.length == square_rpp.weight()
    assert f.total() == square_rpp


@pytest.mark.parametrize(
    "cols, values, code",
    [
        ((2, 2), (0, 1, 1, 2), "parse-error"),
        ((2, 2), (0, 0, 0, 0), "empty-upper-set"),
        ((2, 1), (0, 1, 1), "disconnected-upper-set"),
        ((2, 2), (1, 0, 1, 1), "not-monotone"),
    ],
)
def test_indicator_refusals(cols, values, code):
    with pytest.raises(DomainError) as err:
        Indicator(YoungDiagram(cols), values)
    assert (err.value.code, err.value.exit_code) == (code, 1)


def test_indicator_of_a_connected_upper_set():
    nu = Indicator(YoungDiagram((2, 2)), (0, 1, 1, 1))
    assert nu.to_text() == "0 1 / 1 1"
    assert nu.weight() == 1


def test_standard_factorization_matches_connected_parts_oracle():
    # level sets split by graph search, against the column runs the library uses
    for d in diagrams_up_to(6):
        for n in enumerate_rpps(d, 5):
            if n.is_zero():
                continue
            terms = {}
            prev = 0
            for k in sorted({v for v in n.values if v > 0}):
                for part in connected_parts(d, tuple(int(v >= k) for v in n.values)):
                    nu = Indicator(d, part)
                    terms[nu] = terms.get(nu, 0) + k - prev
                prev = k
            assert standard_factorization(n) == Factorization(terms), n


def _built(fact):
    """Each term of a factorisation as (class, diagram, values, multiplicity), in its stored order."""
    return None if fact is None else [(type(ind), ind.diagram, ind.values, m) for ind, m in fact.terms.items()]


def test_unchecked_factorizations_match_the_checked_builds():
    fillings = [n for d in diagrams_up_to(7) for n in enumerate_rpps(d, 5)]
    assert len(fillings) == 1828
    for n in fillings:
        assert _built(standard_factorization(n)) == _built(standard_factorization_checked(n)), n
        assert _built(complete_factorization(n)) == _built(complete_factorization_checked(n)), n
    # past the shape table's box cap, both are still answered
    big = YoungDiagram((8, 8, 8, 7))
    with pytest.raises(CapExceeded) as err:
        indicators(big)
    assert err.value.code == "diagram-too-large"
    n = rising_filling(big, lambda: 1)
    assert _built(standard_factorization(n)) == _built(standard_factorization_checked(n))
    assert _built(complete_factorization(n)) == _built(complete_factorization_checked(n))
    assert standard_factorization(n).length == n.weight()


def test_complete_factorization_is_stored_in_the_constructors_order():
    fillings = order_fillings()
    assert len(fillings) == 3032 + 3
    for n in fillings:
        complete = complete_factorization(n)
        if complete is not None:
            assert list(complete.terms.items()) == list(Factorization(complete.terms).terms.items()), n


def test_complete_factorization_of_square(square_rpp):
    f = complete_factorization(square_rpp)
    assert {nu.to_text(): m for nu, m in f.terms.items()} == {
        "0 1 / 0 1": 2,
        "0 0 / 1 1": 2,
    }
    assert f.total() == square_rpp


def test_complete_factorization_of_zero_filling_is_empty():
    # the zero filling has derivative 0 >= 0, so its complete factorisation exists
    for text in ("0", "0 0 / 0 0", "0 0 0 / 0"):
        n = RPP.from_text(text)
        f = complete_factorization(n)
        assert f is not None and f.terms == {}
        assert all_factorizations(n) == [f]


def test_complete_factorization_needs_nonnegative_derivative(grid_rpp):
    assert complete_factorization(grid_rpp) is None


def test_all_factorizations_of_grid(grid_rpp):
    facts = all_factorizations(grid_rpp)
    assert len(facts) == 15
    assert all(f.length == 5 for f in facts)
    assert all(f.total() == grid_rpp for f in facts)


@pytest.mark.parametrize(
    "cols, max_size", [((2, 2), 8), ((3, 2, 1), 7), ((3, 3, 3), 9), ((4, 3, 2, 1), 8), ((2, 2, 2), 8), ((4, 4), 8)]
)
def test_component_counts_match_one_product(cols, max_size):
    # every RPP is a sum of indicators, and each factorisation has length weight(n), so
    # Σ_n #factorisations(n)·L^weight(n)·q^n = Π_ν (1 − L·q^ν)^(−1) over the indicators ν
    diagram = YoungDiagram(cols)
    series = _product(diagram.size, max_size, [(ind.values, (0, 1), -1) for ind in indicators(diagram)])
    rpps = enumerate_rpps(diagram, max_size)
    assert len(series.coefficients) == len(rpps)
    for n in rpps:
        assert series.coefficient(n.values) == (0,) * n.weight() + (len(all_factorizations(n)),), n.to_text()


def test_factorization_weight_cap(monkeypatch):
    heavy = RPP.from_text("13")
    with pytest.raises(CapExceeded) as err:
        all_factorizations(heavy)
    assert err.value.code == "search-too-large"
    # raising the cap makes the enumeration legal again
    monkeypatch.setattr(rpphilb.rpp, "MAX_FACTORIZATION_WEIGHT", 13)
    assert len(all_factorizations(heavy)) == 1


def test_neighbour_table_matches_box_index_oracle():
    diagrams = diagrams_up_to(5)
    assert len(diagrams) == 18
    for d in diagrams:
        for pos, (i, j) in enumerate(d.boxes):
            for table, nb in ((d.left, (i - 1, j)), (d.up, (i, j - 1)), (d.up_left, (i - 1, j - 1))):
                assert table[pos] == (d.box_index(nb) if nb in d else -1)

        def monotone(vals):
            label = dict(zip(d.boxes, vals))
            return all(
                label[b] >= max(0, label.get((b.i - 1, b.j), 0), label.get((b.i, b.j - 1), 0))
                for b in d.boxes
            )

        brute = []
        for vals in product(range(-1, 4), repeat=d.size):
            ok = monotone(vals)
            if ok and sum(vals) <= 3:
                brute.append(vals)
            try:
                RPP(d, vals)
                assert ok, vals
            except DomainError:
                assert not ok, vals
        brute.sort(key=lambda vals: (sum(vals), vals))
        rpps = enumerate_rpps(d, 3)
        assert [r.values for r in rpps] == brute
        for r in rpps:
            expected = tuple(
                value(r, (i, j)) - value(r, (i - 1, j)) - value(r, (i, j - 1)) + value(r, (i - 1, j - 1))
                for i, j in d.boxes
            )
            assert r.derivative() == expected


def test_enumerate_rpps_counts(square_diagram):
    by_size = [sum(r.size == k for r in enumerate_rpps(square_diagram, k)) for k in range(5)]
    assert by_size == [1, 1, 3, 4, 7]
    assert len(enumerate_rpps(square_diagram, 4)) == sum(by_size)


def test_enumerated_rpps_pass_the_validating_constructor():
    for d in diagrams_up_to(5):
        for max_size in range(7):
            out = enumerate_rpps(d, max_size)
            for r in out:
                assert RPP(d, r.values) == r
            keys = [(r.size, r.values) for r in out]
            assert keys == sorted(set(keys))


def test_enumeration_matches_the_recursive_oracle():
    # the same fillings in the same order, with labels capped by the principal upper set
    cases = [(d, m) for d in diagrams_up_to(7) for m in range(8)]
    cases += [(YoungDiagram(cols), 12) for cols in ((4, 3, 2, 1), (5, 2, 2, 1), (3, 2, 2, 1, 1, 1), (10,), (1,) * 10)]
    for d, m in cases:
        assert [r.values for r in enumerate_rpps(d, m)] == enumerate_rpps_by_recursion(d, m), (d, m)


def test_searches_leave_no_reference_cycles():
    n, d = RPP.from_text(FT.EVEN_GRID_TEXT), YoungDiagram((4, 3, 2, 1))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        all_factorizations(n)
        enumerate_rpps(d, 8)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()

def _as_terms(facts):
    return [[(ind.values, m) for ind, m in f.terms.items()] for f in facts]


def test_guard_search_matches_tuple_subtraction_oracle():
    fillings = search_oracle_fillings()
    assert len(fillings) == 305 + 2 + 40
    for n in fillings:
        facts = all_factorizations(n)
        assert _as_terms(facts) == _as_terms(factorizations_by_tuple_search(n)), n
        # the search stores its leaves unchecked; the validating constructor must rebuild each one
        for f in facts:
            g = Factorization(dict(f.terms))
            assert g == f and hash(g) == hash(f) and list(g.terms) == list(f.terms), n


def test_first_member_boxes_are_nondecreasing_along_the_indicator_list():
    # the factorisation search branches on a contiguous block of this list
    diagrams = diagrams_up_to(8)
    assert len(diagrams) == 66
    for d in diagrams:
        firsts = [nu.values.index(1) for nu in indicators(d)]
        assert firsts == sorted(firsts), d.cols


def test_search_matches_tuple_subtraction_oracle_on_random_fillings():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    diagrams = diagrams_up_to(9)

    @st.composite
    def fillings(draw):
        return rising_filling(draw(st.sampled_from(diagrams)), lambda: draw(st.integers(0, 2)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(fillings())
    def check(n):
        hypothesis.assume(n.weight() <= rpphilb.rpp.MAX_FACTORIZATION_WEIGHT)
        assert len(indicators(n.diagram)) <= rpphilb.rpp.MAX_FACTORIZATION_INDICATORS
        assert _as_terms(all_factorizations(n)) == _as_terms(factorizations_by_tuple_search(n))

    check()


def test_indicator_table_is_built_once_per_diagram(monkeypatch):
    calls = []
    enumerate_upper_sets = rpphilb.rpp.enumerate_upper_sets

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_upper_sets(*args, **kwargs)

    monkeypatch.setattr(rpphilb.rpp, "enumerate_upper_sets", counting)
    rpphilb.rpp._shape_table.cache_clear()
    d = YoungDiagram((3, 2, 1))
    first = indicators(d)
    texts = [nu.to_text() for nu in first]
    first.clear()
    second = indicators(d)
    assert [nu.to_text() for nu in second] == texts
    second.append(second[0])
    assert len(indicators(d)) == len(texts)
    assert len(calls) == 1
    # the table belongs to the shape: an equal diagram reuses it, another shape builds one
    indicators(YoungDiagram((3, 2, 1)))
    assert len(calls) == 1
    indicators(YoungDiagram((3, 2)))
    assert len(calls) == 2


def test_shape_table_matches_a_fresh_build():
    # a fresh enumeration and the search tables recomputed box by box are the oracle
    diagrams = diagrams_up_to(10)
    assert len(diagrams) == 138
    for d in diagrams:
        vectors = [v for v in enumerate_upper_sets(d) if len(connected_parts(d, v)) == 1]
        inds, members, guards, stop = rpphilb.rpp._shape_table(d.cols)
        # the table builds its indicators unchecked; the checking constructor accepts each
        assert indicators(d) == list(inds) == [Indicator(d, v) for v in vectors]
        assert [(type(nu), nu.values) for nu in inds] == [(Indicator, v) for v in vectors]
        for v, ps, pairs in zip(vectors, members, guards):
            assert ps == tuple(p for p in range(d.size) if v[p])
            outside = {(p, q) for p in ps for q in (d.left[p], d.up[p]) if q == -1 or not v[q]}
            assert sorted(pairs) == sorted(outside)
        for p in range(d.size):
            assert stop[p] == sum(1 for ps in members if ps[0] <= p)


def test_refused_shape_raises_on_every_call():
    d = YoungDiagram((31,))
    for _ in range(2):
        with pytest.raises(CapExceeded) as err:
            indicators(d)
        assert err.value.code == "diagram-too-large"
