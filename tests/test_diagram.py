"""Diagram geometry: boxes, hooks, socle, upper sets."""

from itertools import product

import pytest

import rpphilb.diagram
from rpphilb import RPP, CapExceeded, DomainError, complete_factorization, indicators
from rpphilb.diagram import Box, YoungDiagram, enumerate_upper_sets, upper_set_parts

from conftest import connected_parts, diagrams_up_to, upper_sets_by_heights


def test_box_order_is_row_major(grid_diagram):
    assert grid_diagram.boxes[:4] == (Box(0, 0), Box(1, 0), Box(2, 0), Box(0, 1))
    assert grid_diagram.box_index(Box(1, 1)) == 4


def test_text_and_json_round_trip(grid_diagram):
    assert grid_diagram.to_text() == "3,3,3"
    assert YoungDiagram.from_text("3,3,3") == grid_diagram
    assert YoungDiagram.from_json_obj(grid_diagram.to_json_obj()) == grid_diagram


def test_basic_geometry(square_diagram):
    assert square_diagram.size == 4
    assert [b for b in square_diagram.boxes if b.j == 1] == [Box(0, 1), Box(1, 1)]
    assert Box(1, 1) in square_diagram
    assert (2, 0) not in square_diagram


@pytest.mark.parametrize(
    "cols, code",
    [
        ((), "empty-diagram"),
        ((0,), "nonpositive-column"),
        ((-1,), "nonpositive-column"),
        ((1, 2), "columns-not-nonincreasing"),
        ((2.5, "1"), "parse-error"),
        ((2.0,), "parse-error"),
        ((True,), "parse-error"),
        (3, "parse-error"),
    ],
)
def test_bad_column_heights(cols, code):
    with pytest.raises(DomainError) as err:
        YoungDiagram(cols)
    assert (err.value.code, err.value.exit_code) == (code, 1)


def test_from_text_rejects_garbage():
    for text in ("2,x", "", "2,,1", ",2", "2,1,"):
        with pytest.raises(DomainError) as err:
            YoungDiagram.from_text(text)
        assert err.value.code == "parse-error", text
    assert YoungDiagram.from_text(" 2, 1 ") == YoungDiagram((2, 1))


def test_box_set_vectors_match_their_coordinate_definitions():
    # the oracle reads each definition off a plain set of (i, j) pairs
    diagrams = diagrams_up_to(10)
    assert len(diagrams) == 138
    for d in diagrams:
        boxes = set(d.boxes)

        def vector(members):
            return tuple(int(b in members) for b in d.boxes)

        maximal = {(i, j) for i, j in boxes if (i + 1, j) not in boxes and (i, j + 1) not in boxes}
        assert d.socle() == vector(maximal), d
        corners = {
            (i, j)
            for i, j in boxes
            if (i + 1, j) in boxes and (i, j + 1) in boxes and (i + 1, j + 1) not in boxes
        }
        assert d.subsocle() == vector(corners), d
        for a, b in d.boxes:
            arm = {(i, b) for i in range(a, len(d.cols)) if (i, b) in boxes}
            leg = {(a, j) for j in range(b, d.cols[a])}
            assert d.hook((a, b)) == vector(arm | leg), (d, (a, b))
            assert d.hook_length((a, b)) == len(arm) + len(leg) - 1


def test_hooks_of_the_square(square_diagram):
    assert square_diagram.hook(Box(0, 0)) == (1, 1, 1, 0)
    assert sorted(square_diagram.hook_length(b) for b in square_diagram.boxes) == [
        1,
        2,
        2,
        3,
    ]
    with pytest.raises(DomainError) as err:
        square_diagram.hook(Box(2, 2))
    assert err.value.code == "box-not-in-diagram"


def test_disconnected_upper_set_in_hook_shape():
    hook = YoungDiagram((2, 1))
    all_upper = enumerate_upper_sets(hook)
    assert len(all_upper) == 5
    split = [u for u in all_upper if len(upper_set_parts(hook, u)) > 1]
    assert split == [(0, 1, 1)]
    assert [b for b, x in zip(hook.boxes, split[0]) if x] == [(1, 0), (0, 1)]
    parts = upper_set_parts(hook, split[0])
    assert [[b for b, x in zip(hook.boxes, p) if x] for p in parts] == [[(1, 0)], [(0, 1)]]


def test_principal_upper_set(grid_diagram):
    # a filling whose derivative is 1 at (1, 1) alone is completely factored
    # by the principal upper set of (1, 1), once
    n = RPP.from_rows([[0, 0, 0], [0, 1, 1], [0, 1, 1]])
    assert [b for b, x in zip(grid_diagram.boxes, n.derivative()) if x] == [(1, 1)]
    [(up, mult)] = complete_factorization(n).terms.items()
    assert mult == 1
    members = [b for b, x in zip(grid_diagram.boxes, up.values) if x]
    assert sorted(members) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    minimal = [b for b in members if not any(m != b and m.i <= b.i and m.j <= b.j for m in members)]
    assert minimal == [Box(1, 1)]
    assert len(upper_set_parts(grid_diagram, up.values)) == 1
    assert up.values == (0, 0, 0, 0, 1, 1, 0, 1, 1)


def test_upper_sets_match_heights_oracle():
    shapes = diagrams_up_to(14) + [YoungDiagram(c) for c in ((30,), (1,) * 30, (6,) * 5, (10, 10, 10))]
    for d in shapes:
        assert enumerate_upper_sets(d) == upper_sets_by_heights(d), d
    assert enumerate_upper_sets(YoungDiagram((2, 1))) == [(1, 1, 1), (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    for cols in ((31,), (1,) * 31, (16, 15)):
        with pytest.raises(CapExceeded) as err:
            enumerate_upper_sets(YoungDiagram(cols))
        assert err.value.code == "diagram-too-large"


def test_enumeration_cap(monkeypatch):
    wide = YoungDiagram((1,) * 31)
    with pytest.raises(CapExceeded) as err:
        enumerate_upper_sets(wide)
    assert err.value.code == "diagram-too-large"
    # a larger cap lifts the guard
    monkeypatch.setattr(rpphilb.diagram, "MAX_DIAGRAM_BOXES", 40)
    assert len(enumerate_upper_sets(wide)) == 32


def test_connectivity_matches_connected_parts_oracle():
    uppers = [(d, u) for d in diagrams_up_to(10) for u in enumerate_upper_sets(d)]
    assert len(uppers) == 2887
    for d, u in uppers:
        assert upper_set_parts(d, u) == connected_parts(d, u), (d, u)


def test_upper_sets_are_the_monotone_zero_one_vectors():
    # a 0/1 filling is an RPP exactly when its support is upward closed;
    # product((1, 0), ...) runs through the vectors in descending-lex order
    for d in diagrams_up_to(10):
        monotone = []
        for vector in product((1, 0), repeat=d.size):
            try:
                RPP(d, vector)
            except DomainError:
                continue
            monotone.append(vector)
        assert enumerate_upper_sets(d) == monotone, d
        connected = [v for v in monotone if len(connected_parts(d, v)) == 1]
        assert [nu.values for nu in indicators(d)] == connected, d
