"""Young diagrams by size, for the tests and for the recorders that run without pytest."""

from rpphilb import YoungDiagram


def diagrams_up_to(n_boxes):
    """Every Young diagram with 1 to n_boxes boxes, by size, then columns descending."""

    def parts(n, largest):
        if n == 0:
            yield ()
        for k in range(min(n, largest), 0, -1):
            for rest in parts(n - k, k):
                yield (k,) + rest

    return [YoungDiagram(p) for n in range(1, n_boxes + 1) for p in parts(n, n)]
