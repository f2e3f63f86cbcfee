"""The answer atlas: every answer on the small fillings, frozen per shape."""

import record_atlas

import frozen_tables as FT


def test_no_shape_of_the_atlas_changes_an_answer():
    got = record_atlas.atlas()
    assert got.keys() == FT.ATLAS_SHA256.keys() and len(got) == 66
    moved = [shape for shape, digest in got.items() if digest != FT.ATLAS_SHA256[shape]]
    assert moved == [], f"answers changed on shapes {moved}"
