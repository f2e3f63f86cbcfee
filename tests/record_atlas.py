"""Record the answer atlas: one SHA-256 per shape over every small filling.

    PYTHONPATH=src python3 tests/record_atlas.py

For every shape of at most ``MAX_BOXES`` boxes, the digest covers the
shape's A1 series to size ``SERIES_SIZE`` and, for every RPP of total at
most ``MAX_TOTAL`` on it, in enumeration order: ``classify``'s JSON form,
``count_points`` at p = 2, ``ambient_and_bundle``, the JSON forms of the
type I and full type II presentations, and the tangent dimension and
reduced generators of type I and of type II with the minimal border.  A
refusal is recorded by its error code.  The script prints the table that
``frozen_tables.ATLAS_SHA256`` holds; re-record it only when an answer is
meant to change.
"""

from __future__ import annotations

import hashlib
import json

from rpphilb import (
    DomainError,
    ambient_and_bundle,
    classify,
    count_points,
    enumerate_rpps,
    motivic_series,
    tangent_embedding,
    type_i_ideal,
    type_ii_ideal,
)

from conftest import diagrams_up_to

MAX_BOXES = 8
MAX_TOTAL = 5
SERIES_SIZE = 6


def _answer(compute):
    try:
        return compute()
    except DomainError as exc:
        return exc.code


def _reduced(ideal) -> list:
    dim, reduced = tangent_embedding(ideal)
    return [dim, [str(g) for g in reduced.generators]]


def filling_answers(n) -> dict:
    """Every answer the atlas freezes for one filling."""
    type_i, type_ii = type_i_ideal(n), type_ii_ideal(n)
    return {
        "rpp": n.to_text(),
        "classify": _answer(lambda: [r.to_json_obj() for r in classify(n)]),
        "count_points_2": _answer(lambda: count_points(n, 2)),
        "ambient": list(ambient_and_bundle(n)),
        "type_i": type_i.to_json_obj(),
        "type_ii": type_ii.to_json_obj(),
        "tangent_i": _answer(lambda: _reduced(type_i)),
        "tangent_ii_minimal": _answer(lambda: _reduced(type_ii_ideal(n, minimal_border=True))),
    }


def shape_digest(diagram) -> str:
    """SHA-256 of the shape's series and of its fillings' answers, one JSON line each."""
    lines = [json.dumps(motivic_series(diagram, "A1", SERIES_SIZE).to_json_obj())]
    lines += (json.dumps(filling_answers(n)) for n in enumerate_rpps(diagram, MAX_TOTAL))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def atlas() -> dict:
    """{shape columns as text: digest} over the atlas's band."""
    return {d.to_text(): shape_digest(d) for d in diagrams_up_to(MAX_BOXES)}


if __name__ == "__main__":
    print("ATLAS_SHA256 = {")
    for shape, digest in atlas().items():
        print(f'    "{shape}": "{digest}",')
    print("}")
