"""Diagram geometry: boxes, hooks, socle, upper sets."""

import pytest

import rpphilb.diagram
from rpphilb import CapExceeded, DomainError
from rpphilb.diagram import (
    Box,
    YoungDiagram,
    connected_parts,
    enumerate_upper_sets,
    partial_order_leq,
    principal_upper_set,
)

from conftest import diagrams_up_to


def test_box_order_is_row_major(grid_diagram):
    assert grid_diagram.boxes[:4] == (Box(0, 0), Box(1, 0), Box(2, 0), Box(0, 1))
    assert grid_diagram.box_index(Box(1, 1)) == 4


def test_text_and_json_round_trip(grid_diagram):
    assert grid_diagram.to_text() == "3,3,3"
    assert YoungDiagram.from_text("3,3,3") == grid_diagram
    assert YoungDiagram.from_json_obj(grid_diagram.to_json_obj()) == grid_diagram


def test_basic_geometry(square_diagram):
    assert square_diagram.size == 4
    assert square_diagram.n_cols == 2
    assert square_diagram.height(0) == 2
    assert square_diagram.height(5) == 0
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
    with pytest.raises(DomainError) as err:
        YoungDiagram.from_text("2,x")
    assert err.value.code == "parse-error"


def test_partial_order_and_adjacency():
    assert partial_order_leq(Box(0, 0), Box(1, 1))
    assert not partial_order_leq(Box(1, 0), Box(0, 1))
    # edge neighbours are the left/up entries of the table, the diagonal one is not
    square = YoungDiagram((2, 2))
    assert (square.left[1], square.up[2], square.up_left[3]) == (0, 0, 0)
    assert 0 not in (square.left[3], square.up[3])


def test_socle_and_subsocle():
    square = YoungDiagram((2, 2))
    assert square.socle() == frozenset({Box(1, 1)})
    assert square.subsocle() == frozenset()
    hook = YoungDiagram((2, 1))
    assert hook.socle() == frozenset({Box(1, 0), Box(0, 1)})
    assert hook.subsocle() == frozenset({Box(0, 0)})


def test_hooks_of_the_square(square_diagram):
    assert square_diagram.hook(Box(0, 0)) == frozenset(
        {Box(0, 0), Box(1, 0), Box(0, 1)}
    )
    assert sorted(square_diagram.hook_length(b) for b in square_diagram.boxes) == [
        1,
        2,
        2,
        3,
    ]
    with pytest.raises(DomainError) as err:
        square_diagram.hook(Box(2, 2))
    assert err.value.code == "box-not-in-diagram"


def test_upper_set_counts():
    # in a rectangle every nonempty upper set contains the corner box and is
    # edge connected, so the connected count is the total minus the empty set
    square = YoungDiagram((2, 2))
    assert len(enumerate_upper_sets(square)) == 6
    assert len(enumerate_upper_sets(square, connected_only=True, nonempty_only=True)) == 5
    grid = YoungDiagram((3, 3, 3))
    assert len(enumerate_upper_sets(grid)) == 20
    assert len(enumerate_upper_sets(grid, connected_only=True, nonempty_only=True)) == 19


def test_disconnected_upper_set_in_hook_shape():
    hook = YoungDiagram((2, 1))
    all_upper = enumerate_upper_sets(hook)
    assert len(all_upper) == 5
    split = [u for u in all_upper if u.members and not u.is_connected()]
    assert len(split) == 1
    assert sorted(tuple(b) for b in split[0].members) == [(0, 1), (1, 0)]
    parts = connected_parts(split[0])
    assert [sorted(tuple(b) for b in p.members) for p in parts] == [[(1, 0)], [(0, 1)]]


def test_principal_upper_set(grid_diagram):
    up = principal_upper_set(grid_diagram, Box(1, 1))
    assert sorted(tuple(b) for b in up.members) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert [b for b in up.members if not any(partial_order_leq(m, b) for m in up.members - {b})] == [
        Box(1, 1)
    ]
    assert up.is_connected()
    assert up.member_vector() == (0, 0, 0, 0, 1, 1, 0, 1, 1)


def test_subdiagram_heights_complement_upper_sets():
    hook = YoungDiagram((2, 1))
    assert list(hook.subdiagram_heights()) == [
        (2, 1),
        (2, 0),
        (1, 1),
        (1, 0),
        (0, 0),
    ]


def test_enumeration_cap(monkeypatch):
    wide = YoungDiagram((1,) * 31)
    with pytest.raises(CapExceeded) as err:
        enumerate_upper_sets(wide)
    assert err.value.code == "diagram-too-large"
    # a larger cap lifts the guard
    monkeypatch.setattr(rpphilb.diagram, "MAX_DIAGRAM_BOXES", 40)
    assert len(enumerate_upper_sets(wide)) == 32


def test_connectivity_matches_connected_parts_oracle():
    uppers = [u for d in diagrams_up_to(10) for u in enumerate_upper_sets(d)]
    assert len(uppers) == 2887
    for u in uppers:
        assert u.is_connected() == (len(connected_parts(u)) <= 1), u
