import pytest

from rpphilb import RPP, YoungDiagram

import frozen_tables as FT


def diagrams_up_to(n_boxes):
    """Every Young diagram with 1 to n_boxes boxes, by size, then columns descending."""

    def parts(n, largest):
        if n == 0:
            yield ()
        for k in range(min(n, largest), 0, -1):
            for rest in parts(n - k, k):
                yield (k,) + rest

    return [YoungDiagram(p) for n in range(1, n_boxes + 1) for p in parts(n, n)]


@pytest.fixture
def square_diagram():
    return YoungDiagram((2, 2))


@pytest.fixture
def square_rpp():
    return RPP.from_text(FT.SQUARE_TEXT)


@pytest.fixture
def grid_diagram():
    return YoungDiagram((3, 3, 3))


@pytest.fixture
def grid_rpp():
    return RPP.from_text(FT.GRID_TEXT)


@pytest.fixture
def domino_rpp():
    return RPP.from_text(FT.DOMINO_TEXT)
