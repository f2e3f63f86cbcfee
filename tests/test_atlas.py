"""The answer atlas and the singular band: every answer on small fillings, frozen per shape."""

from rpphilb import RPP, enumerate_rpps

import frozen
import frozen_tables as FT
from conftest import classify_misreading
from shapes import diagrams_up_to


def test_no_shape_of_the_atlas_changes_an_answer():
    assert frozen.layers()["ATLAS_SHA256"]() == []


def test_the_singular_band_holds_every_filling_of_its_weight():
    # the band is enumerated by label, not by total; the enumeration by total is its oracle
    band = frozen.singular_band()
    shapes = diagrams_up_to(frozen.BAND_BOXES)
    assert sum(len(band[d.to_text()]) for d in shapes) == 10072
    for d in shapes:
        by_total = {n.values for n in enumerate_rpps(d, 10) if n.weight() <= frozen.BAND_WEIGHT}
        assert by_total == {n.values for n in band[d.to_text()] if n.size <= 10}, d.to_text()


def test_no_shape_of_the_singular_band_changes_an_answer_and_every_report_is_certified():
    # each factorisation totals its filling, has the weight as its length, and its flags and witness are proved
    assert frozen.layers()["SINGULAR_BAND_SHA256"]() == []


def test_a_wrong_band_answer_frozen_as_right_is_named_by_its_filling(monkeypatch, capsys):
    # the grid is one of the band's 3x3 extras; its answer with one flag flipped
    # is frozen in memory, the file left as it is, so only certification fails
    extras = [RPP.from_text(text) for text in frozen.BAND_EXTRAS]
    misreading, k = classify_misreading(FT.GRID_TEXT)
    monkeypatch.setattr(frozen, "singular_band", lambda: {extras[0].diagram.to_text(): extras})
    monkeypatch.setattr(frozen, "classify", misreading)
    monkeypatch.setattr(FT, "SINGULAR_BAND_SHA256", frozen.band_digests()[0])
    assert frozen.check({"SINGULAR_BAND_SHA256": frozen.layers()["SINGULAR_BAND_SHA256"]}) == 1
    out = capsys.readouterr().out
    assert out == f"SINGULAR_BAND_SHA256: 1 reports fail, first {FT.GRID_TEXT}: component {k} rejected\n"
