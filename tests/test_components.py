"""Component classification: smoothness, point bijectivity, witnesses."""

import itertools
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

import rpphilb.components
import rpphilb.linalg
import rpphilb.rpp
from rpphilb import RPP, CapExceeded, YoungDiagram
from rpphilb.components import bijective_on_points, classify, dimension_recursive
from rpphilb.pointcount import PrimeField, component_point, count_points
from rpphilb.rpp import Factorization, all_factorizations, enumerate_rpps, indicators

import conftest
import frozen
import frozen_tables as FT
from conftest import (
    bijective_on_points_full_box,
    certify_report,
    corpus_row,
    diagrams_up_to,
    filling_of_weight,
)


def test_dimension_equals_weight(square_rpp, grid_rpp):
    for n, name in ((square_rpp, "square-classification"), (grid_rpp, "grid-classification")):
        assert dimension_recursive(n) == corpus_row(name)["expected"]["weight"]


def test_recursive_dimension_is_the_weight_on_small_fillings():
    fillings = [n for d in diagrams_up_to(7) for n in enumerate_rpps(d, 4)]
    assert len(fillings) == 1064
    for n in fillings:
        assert dimension_recursive(n) == n.weight(), n.to_text()


def test_witness_search_cap(square_rpp):
    nus = indicators(square_rpp.diagram)
    huge = Factorization({nus[1]: 10 ** 6, nus[2]: 1, nus[3]: 1, nus[4]: 10 ** 6})
    with pytest.raises(CapExceeded) as err:
        bijective_on_points(huge)
    assert err.value.code == "search-too-large"


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


def test_classify_reduces_each_support_matrix_once():
    # both tests of a component reduce one support matrix; rref's one-entry cache answers the second
    rpphilb.linalg._reduce.cache_clear()
    reports = classify(RPP.from_text(FT.EVEN_GRID_TEXT))
    info = rpphilb.linalg._reduce.cache_info()
    assert (info.misses, info.hits) == (149, 149) == (len(reports), len(reports))


def _certified_fillings():
    """The singular band's eight 3x3 fillings 0 0 a / 0 b 5 / c 5 5, a, b, c in {2, 3}: the grid and seven more."""
    return [RPP.from_text(text) for text in frozen.BAND_EXTRAS]


def test_every_report_on_the_grids_is_certified():
    # the frozen layers certify the other two grids: block 0 of every benchmark seed holds them
    n = RPP.from_text(FT.TRIPLE_GRID_TEXT)
    inds = indicators(n.diagram)
    verdicts = Counter()
    singular_bijective = 0
    for report in classify(n):
        verdicts[certify_report(report, inds)] += 1
        singular_bijective += not report.smooth and report.bijective_on_points
    assert verdicts == {"certified": 928}
    assert singular_bijective == 144


def test_the_certificate_rejects_a_flipped_flag_or_a_witness_out_of_its_box():
    rejected = Counter()
    for n in _certified_fillings():
        inds = indicators(n.diagram)
        for report in classify(n):
            assert certify_report(replace(report, differential_injective=not report.smooth), inds) == "rejected"
            flipped = certify_report(replace(report, bijective_on_points=not report.bijective_on_points), inds)
            assert flipped != "certified", report  # "uncertified" where the kernel may be 2-dimensional
            rejected["bijective"] += flipped == "rejected"
            if report.relation_witness is None:
                continue
            tripled = tuple(3 * c for c in report.relation_witness)
            mults = [report.factorization.terms.get(ind, 0) for ind in inds]
            if any(abs(c) > m for c, m in zip(tripled, mults)):
                assert certify_report(replace(report, relation_witness=tripled), inds) == "rejected"
                rejected["tripled"] += 1
    assert rejected["bijective"] > 0 and rejected["tripled"] > 0, rejected


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
