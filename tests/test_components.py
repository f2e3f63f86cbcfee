"""Component classification: smoothness, point bijectivity, witnesses."""

import itertools
import json
import random

import pytest

import rpphilb.components
import rpphilb.rpp
from rpphilb import RPP, CapExceeded, YoungDiagram
from rpphilb.components import (
    bijective_on_points,
    classify,
    differential_injective,
    dimension_recursive,
)
from rpphilb.pointcount import PrimeField, component_point, count_points
from rpphilb.rpp import Factorization, all_factorizations, enumerate_rpps, indicators

import conftest
import frozen_tables as FT
from conftest import (
    bijective_on_points_full_box,
    classify_by_tuple_search,
    diagrams_up_to,
    filling_of_weight,
    search_oracle_fillings,
    value,
)


def _report_rows(reports, diagram):
    nus = indicators(diagram)
    rows = []
    for rep in reports:
        witness = None
        if rep.relation_witness is not None:
            witness = {
                nus[k].to_text(): c
                for k, c in enumerate(rep.relation_witness)
                if c
            }
        rows.append(
            {
                "factorization": {
                    nu.to_text(): m for nu, m in rep.factorization.terms.items()
                },
                "smooth": rep.smooth,
                "bijective_on_points": rep.bijective_on_points,
                "differential_injective": rep.differential_injective,
                "witness": witness,
            }
        )
    return rows


def test_square_classification_table(square_rpp):
    reports = classify(square_rpp)
    assert _report_rows(reports, square_rpp.diagram) == FT.SQUARE_COMPONENTS
    assert all(rep.dimension == 4 for rep in reports)


def test_grid_classification_table(grid_rpp):
    reports = classify(grid_rpp)
    assert _report_rows(reports, grid_rpp.diagram) == FT.GRID_COMPONENTS
    assert all(rep.dimension == FT.GRID_WEIGHT for rep in reports)
    assert sum(1 for rep in reports if not rep.smooth) == 7


def test_witness_is_a_support_relation(grid_rpp):
    # every reported witness really annihilates the support matrix
    diagram = grid_rpp.diagram
    nus = indicators(diagram)
    for rep in classify(grid_rpp):
        if rep.relation_witness is None:
            continue
        for box in diagram.boxes:
            total = sum(
                c * value(nus[k], box)
                for k, c in enumerate(rep.relation_witness)
            )
            assert total == 0


def test_dimension_equals_weight(square_rpp, grid_rpp):
    assert dimension_recursive(square_rpp) == 4
    assert dimension_recursive(grid_rpp) == FT.GRID_WEIGHT


def test_recursive_dimension_is_the_weight_on_small_fillings():
    fillings = [n for d in diagrams_up_to(7) for n in enumerate_rpps(d, 4)]
    assert len(fillings) == 1064
    for n in fillings:
        assert dimension_recursive(n) == n.weight(), n.to_text()


def test_bijective_but_not_differentially_injective(grid_rpp):
    # exactly one singular component of the grid example is a bijection on
    # points while its differential drops rank
    reports = classify(grid_rpp)
    special = [
        rep
        for rep in reports
        if rep.bijective_on_points and not rep.differential_injective
    ]
    assert len(special) == 1
    assert not special[0].smooth


def test_point_bijectivity_uses_multiplicity_bound(square_rpp):
    # the mixed factorisation carries the relation inside its multiplicity
    # box, so it fails the bijectivity test; doubling only two of the four
    # multiplicities leaves no balanced relation and the test passes
    reports = classify(square_rpp)
    mixed = reports[1].factorization
    ok, witness = bijective_on_points(mixed)
    assert not ok
    assert witness is not None
    assert sum(witness.values()) == 0

    ok_std, none_witness = bijective_on_points(reports[0].factorization)
    assert ok_std
    assert none_witness is None


def test_differential_injectivity_flags(square_rpp):
    reports = classify(square_rpp)
    ok, witness = differential_injective(reports[1].factorization)
    assert not ok
    assert witness is not None
    assert differential_injective(reports[0].factorization) == (True, None)


def test_witness_search_cap(square_rpp):
    nus = indicators(square_rpp.diagram)
    huge = Factorization({nus[1]: 10 ** 6, nus[2]: 1, nus[3]: 1, nus[4]: 10 ** 6})
    with pytest.raises(CapExceeded) as err:
        bijective_on_points(huge)
    assert err.value.code == "search-too-large"


@pytest.mark.parametrize("corner, code", [(13, "search-too-large"), (12, "diagram-too-large")])
def test_classify_refuses_in_the_searchs_order(corner, code):
    # 31 boxes are past the indicator cap, but a weight past the search cap is
    # refused first: classify reads the indicators only after the search
    filling = RPP(YoungDiagram((31,)), [0] * 30 + [corner])
    assert filling.weight() == corner
    with pytest.raises(CapExceeded) as err:
        classify(filling)
    assert err.value.code == code


def test_small_weight_is_always_smooth():
    # weight <= 3 leaves no room for a balanced indicator relation
    for text in ("0 1 / 1 3", "1 2 / 2", "0 0 2 / 1"):
        n = RPP.from_text(text)
        assert n.weight() <= 3
        assert all(rep.smooth for rep in classify(n))


def _brute_force_bijective(T):
    """bijective_on_points by trying every vector of the full multiplicity box."""
    support = T.support
    mults = [T.multiplicity(ind) for ind in support]
    rows = range(support[0].diagram.size)
    best = None
    for m in itertools.product(*(range(-b, b + 1) for b in mults)):
        if not any(m) or any(sum(c * ind.values[r] for c, ind in zip(m, support)) for r in rows):
            continue
        if next(c for c in m if c) < 0:
            m = tuple(-c for c in m)
        score = (sum(map(abs, m)), m)
        best = score if best is None else min(best, score)
    if best is None:
        return True, None
    return False, {ind: c for ind, c in zip(support, best[1]) if c}


def test_witness_search_matches_the_full_multiplicity_box():
    # the classify workload's shapes at weight <= 8, and the paper's two grids
    fillings = [RPP.from_text(FT.GRID_TEXT), RPP.from_text("0 2 4 / 2 4 6 / 4 6 8")]
    rng = random.Random(2024)
    for cols in ((3, 3, 3), (4, 3, 2, 1)):
        d = YoungDiagram(cols)
        fillings += [filling_of_weight(rng, d, w) for w in range(4, 9) for _ in range(3)]
    verdicts = []
    for n in fillings:
        for T in all_factorizations(n):
            found = bijective_on_points(T)
            assert found == _brute_force_bijective(T), (n.to_text(), T)
            verdicts.append(found[0])
    assert 0 < verdicts.count(False) < len(verdicts)


def test_witness_search_matches_the_full_box_oracle(monkeypatch):
    fillings = [n for d in diagrams_up_to(6) for n in enumerate_rpps(d, 4)]
    fillings += [RPP.from_text(t) for t in (FT.GRID_TEXT, FT.EVEN_GRID_TEXT, FT.TRIPLE_GRID_TEXT)]

    def reports():
        return [[(r.to_json_obj(), r.relation_witness) for r in classify(n)] for n in fillings]

    got = reports()
    monkeypatch.setattr(rpphilb.components, "bijective_on_points", bijective_on_points_full_box)
    assert got == reports()
    assert any(not r["bijective_on_points"] for per_n in got for r, _ in per_n)


def test_witness_search_solves_one_of_each_plus_minus_pair(monkeypatch):
    # every nonzero point of a box symmetric under negation has its negation there too
    calls = {"search": 0, "oracle": 0}

    def counted(name, solve):
        def wrapper(*args):
            calls[name] += 1
            return solve(*args)

        return wrapper

    monkeypatch.setattr(rpphilb.components, "solve_from_rref", counted("search", rpphilb.components.solve_from_rref))
    monkeypatch.setattr(conftest, "solve_from_rref", counted("oracle", conftest.solve_from_rref))
    for T in all_factorizations(RPP.from_text(FT.TRIPLE_GRID_TEXT)):
        assert bijective_on_points(T) == bijective_on_points_full_box(T), T
    assert 0 < 2 * calls["search"] == calls["oracle"], calls


def test_classify_is_the_same_with_a_cold_and_a_warm_shape_table():
    # rebuilding the shape's table before every filling is the oracle
    texts = [FT.GRID_TEXT, "0 2 4 / 2 4 6 / 4 6 8"]
    rng = random.Random(15)
    for cols in ((3, 3, 3), (4, 3, 2, 1)):
        d = YoungDiagram(cols)
        texts += [filling_of_weight(rng, d, rng.randint(6, 10)).to_text() for _ in range(20)]

    def classify_json(text):
        return json.dumps([r.to_json_obj() for r in classify(RPP.from_text(text))])

    cold = []
    for text in texts:
        rpphilb.rpp._shape_table.cache_clear()
        cold.append(classify_json(text))
    assert [classify_json(text) for text in texts] == cold


def test_classify_matches_the_validated_leaf_oracle():
    # the search stores its leaves unchecked; the oracle builds them with the validating constructor
    singular = 0
    for n in search_oracle_fillings():
        got, want = classify(n), classify_by_tuple_search(n)
        assert [r.to_json_obj() for r in got] == [r.to_json_obj() for r in want], n
        assert [r.relation_witness for r in got] == [r.relation_witness for r in want], n
        singular += sum(not r.smooth for r in got)
    assert singular > 0


def _component_image(diagram, T, p):
    """Box tuples (Π_{ν∋box} f_ν mod p) over every monic f_ν of degree m_ν over F_p."""
    field = PrimeField(p)
    image = set()
    for fs in itertools.product(*(list(field.monic_polynomials(m)) for m in T.terms.values())):
        image.add(tuple(tuple([c % p for c in g]) for g in component_point(diagram, T, fs)))
    return image


def _check_component_images(n, p):
    """Each image has p^weight points exactly when T is bijective; together they cover the scheme."""
    union = set()
    bijective = []
    for T in all_factorizations(n):
        image = _component_image(n.diagram, T, p)
        bijective.append(bijective_on_points(T)[0])
        assert (len(image) == p ** n.weight()) == bijective[-1], (n.to_text(), p, T)
        union |= image
    assert len(union) == count_points(n, p), (n.to_text(), p)
    return all(bijective)


def test_component_images_over_f2_cover_the_points_on_small_fillings():
    # the paper's resolution Π_ν Sym^{m_ν} A1 → scheme, enumerated point by point
    fillings = [n for d in diagrams_up_to(6) for n in enumerate_rpps(d, 4)]
    assert len(fillings) == 590
    assert all(_check_component_images(n, 2) for n in fillings)


@pytest.mark.parametrize(
    "text, p",
    [("0 2 / 2 4", 2), ("0 2 / 2 5", 2), ("0 0 2 / 0 2 4", 2), ("0 0 1 / 0 2 / 2 4", 2), ("0 2 / 2 4", 3)],
)
def test_component_images_detect_non_bijective_components(text, p):
    assert not _check_component_images(RPP.from_text(text), p)
