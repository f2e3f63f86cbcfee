"""Record or check the answer atlas and the singular band: one SHA-256 per shape each.

    PYTHONPATH=src python3 tests/record_atlas.py          # print both tables
    PYTHONPATH=src python3 tests/record_atlas.py --check  # compare with them

For every shape of at most ``MAX_BOXES`` boxes, the digest covers the
shape's A1 series to size ``SERIES_SIZE`` and, for every RPP of total at
most ``MAX_TOTAL`` on it, in enumeration order: ``classify``'s JSON form,
``count_points`` at p = 2, ``ambient_and_bundle``, the JSON forms of the
type I and full type II presentations, and the tangent dimension and
reduced generators of type I and of type II with the minimal border.  A
refusal is recorded by its error code.

The atlas's fillings have no singular component, so a second table covers
the singular band: every filling of weight at most ``BAND_WEIGHT`` on the
shapes of at most ``BAND_BOXES`` boxes, and the eight 3×3 fillings
``BAND_EXTRAS``, each with one singular but bijective component.  Its
digest covers, per filling, ``classify``'s JSON form and the indices of
the standard and complete factorisations among the reports.

The script prints the tables that ``frozen_tables.ATLAS_SHA256`` and
``frozen_tables.SINGULAR_BAND_SHA256`` hold; re-record them only when an
answer is meant to change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

from rpphilb import (
    RPP,
    DomainError,
    ambient_and_bundle,
    classify,
    complete_factorization,
    count_points,
    enumerate_rpps,
    motivic_series,
    standard_factorization,
    tangent_embedding,
    type_i_ideal,
    type_ii_ideal,
)

from shapes import diagrams_up_to

MAX_BOXES = 8
MAX_TOTAL = 5
SERIES_SIZE = 6
BAND_WEIGHT = 5
BAND_BOXES = 6
BAND_EXTRAS = tuple(f"0 0 {a} / 0 {b} 5 / {c} 5 5" for a, b, c in itertools.product((2, 3), repeat=3))


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


def labels_at_most(diagram, top) -> list:
    """The value tuples of the RPPs on ``diagram`` whose every label is at most ``top``, lexicographic.

    Together they hold every filling of weight at most ``top``.  Labels
    grow rightward and downward, so each is at most some socle box's label.
    The weight is the socle's labels minus the subsocle's, and each
    subsocle box lies up-left of its two socle neighbours, so the weight is
    at least every socle label.
    """
    prefixes = [()]
    for l, u in zip(diagram.left, diagram.up):
        prefixes = [
            vals + (v,)
            for vals in prefixes
            for v in range(max(vals[l] if l >= 0 else 0, vals[u] if u >= 0 else 0), top + 1)
        ]
    return prefixes


def singular_band() -> dict:
    """{shape columns as text: its fillings}: weight at most BAND_WEIGHT on at most BAND_BOXES boxes, then BAND_EXTRAS."""
    band = {}
    for d in diagrams_up_to(BAND_BOXES):
        fillings = (RPP(d, vals) for vals in labels_at_most(d, BAND_WEIGHT))
        band[d.to_text()] = [n for n in fillings if n.weight() <= BAND_WEIGHT]
    extras = [RPP.from_text(text) for text in BAND_EXTRAS]
    band[extras[0].diagram.to_text()] = extras
    return band


def band_line(n, reports) -> str:
    """One filling's band answers as a JSON line: its reports and both named factorisations' indices."""
    facts = [r.factorization for r in reports]
    standard, complete = (
        None if fact is None else facts.index(fact) for fact in (standard_factorization(n), complete_factorization(n))
    )
    classified = [r.to_json_obj() for r in reports]
    return json.dumps({"rpp": n.to_text(), "classify": classified, "standard_index": standard, "complete_index": complete})


def band_digests(inspect=None) -> dict:
    """{shape: SHA-256 of its fillings' band lines}; ``inspect(n, reports)``, if given, sees every filling."""
    digests = {}
    for shape, fillings in singular_band().items():
        lines = []
        for n in fillings:
            reports = classify(n)
            if inspect is not None:
                inspect(n, reports)
            lines.append(band_line(n, reports))
        digests[shape] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digests


def moved(got: dict, frozen: dict) -> list:
    """The shapes whose digest differs from the frozen one, or is missing on either side, in table order."""
    return [shape for shape in frozen | got if got.get(shape) != frozen.get(shape)]


TABLES = {"ATLAS_SHA256": atlas, "SINGULAR_BAND_SHA256": band_digests}


def _check() -> int:
    import frozen_tables

    failed = 0
    for name, compute in TABLES.items():
        shapes = moved(compute(), getattr(frozen_tables, name))
        print(f"{name}: {'ok' if not shapes else f'moved on shapes {shapes}'}")
        failed += bool(shapes)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    if sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    for name, compute in TABLES.items():
        print(f"{name} = {{")
        for shape, digest in compute().items():
            print(f'    "{shape}": "{digest}",')
        print("}")
