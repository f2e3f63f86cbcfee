"""The answer atlas and the singular band: every answer on small fillings, frozen per shape."""

from collections import Counter

from rpphilb import enumerate_rpps, indicators

import frozen
import frozen_tables as FT
from conftest import certify_report
from shapes import diagrams_up_to


def test_no_shape_of_the_atlas_changes_an_answer():
    got = frozen.atlas()
    assert len(got) == 66
    moved = frozen.moved(got, FT.ATLAS_SHA256)
    assert moved == [], f"answers changed on shapes {moved}"


def test_the_singular_band_holds_every_filling_of_its_weight():
    # the band is enumerated by label, not by total; the enumeration by total is its oracle
    band = frozen.singular_band()
    shapes = diagrams_up_to(frozen.BAND_BOXES)
    assert sum(len(band[d.to_text()]) for d in shapes) == 10072
    for d in shapes:
        by_total = {n.values for n in enumerate_rpps(d, 10) if n.weight() <= frozen.BAND_WEIGHT}
        assert by_total == {n.values for n in band[d.to_text()] if n.size <= 10}, d.to_text()


def _total(fact, size):
    """Per box, the sum of multiplicity times indicator label."""
    return tuple(sum(m * ind.values[b] for ind, m in fact.terms.items()) for b in range(size))


def test_no_shape_of_the_singular_band_changes_an_answer_and_every_report_is_certified():
    verdicts = Counter()
    kinds = Counter()

    def inspect(n, reports):
        # the oracle for what classify builds without re-deriving it: each factorisation
        # totals n and has length the weight, and each flag and witness is proved
        inds, weight = indicators(n.diagram), n.weight()
        for r in reports:
            assert _total(r.factorization, n.diagram.size) == n.values, n.to_text()
            assert r.factorization.length == r.dimension == weight, n.to_text()
            verdicts[certify_report(r, inds)] += 1
            kinds[r.smooth, r.bijective_on_points] += 1

    got = frozen.band_digests(inspect)
    assert len(got) == 30
    moved = frozen.moved(got, FT.SINGULAR_BAND_SHA256)
    assert moved == [], f"answers changed on shapes {moved}"
    assert verdicts == {"certified": 12428}
    # (smooth, bijective): the eight 3x3 fillings hold the only singular but bijective components
    assert kinds == {(True, True): 12228, (False, False): 192, (False, True): 8}
