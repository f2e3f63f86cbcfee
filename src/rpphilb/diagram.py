"""Young diagrams as finite posets.

A diagram is stored as its nonincreasing column heights; box (i, j) has
column index i growing rightward and row index j growing downward, so the
box set is {(i, j) : j < cols[i]} and it is downward closed for the
componentwise order.  On top of that this module provides hooks (the boxes
weakly below or weakly to the right), the socle (maximal boxes), the
subsocle (boxes whose right and down neighbours are present but whose
diagonal neighbour is not), and upper sets.  Every such box set is its
row-major 0/1 vector, the same tuple an indicator filling stores as its
values; ``upper_set_parts`` splits an upper set into its edge-connected
parts.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import CapExceeded, DomainError, ints, text_int

#: default guard against combinatorial blowup in upper-set enumeration
MAX_DIAGRAM_BOXES = 30


#: a box: its column i, increasing rightward, and its row j, increasing downward
Box = namedtuple("Box", "i j")


class YoungDiagram:
    """Partition as nonincreasing positive column heights."""

    __slots__ = ("cols", "boxes", "left", "up", "up_left")

    def __init__(self, col_heights: Iterable[int]):
        cols = ints(col_heights, "column heights")
        if not cols:
            raise DomainError("empty-diagram", "need at least one column", col_heights)
        if any(h <= 0 for h in cols):
            raise DomainError("nonpositive-column", "column heights must be positive", list(cols))
        if any(cols[k] < cols[k + 1] for k in range(len(cols) - 1)):
            raise DomainError(
                "columns-not-nonincreasing", "column heights must be nonincreasing", list(cols)
            )
        self.cols = cols
        # canonical row-major box order: j ascending, then i ascending
        self.boxes = tuple(
            Box(i, j) for j in range(cols[0]) for i in range(len(cols)) if j < cols[i]
        )
        index = {b: pos for pos, b in enumerate(self.boxes)}
        # Neighbour table: the row-major position of each box's left, upper
        # and upper-left neighbour, or -1 when it is off the diagram.  A value
        # tuple with a 0 appended reads the zero extension through -1, so
        # the mixed difference is v[p] - v[left[p]] - v[up[p]] + v[up_left[p]]
        # and the RPP floor is max(v[left[p]], v[up[p]]), with no branches.
        self.left = tuple(index.get((i - 1, j), -1) for i, j in self.boxes)
        self.up = tuple(index.get((i, j - 1), -1) for i, j in self.boxes)
        self.up_left = tuple(index.get((i - 1, j - 1), -1) for i, j in self.boxes)

    # -- basic geometry ----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.boxes)

    def __contains__(self, box) -> bool:
        i, j = box
        return 0 <= i < len(self.cols) and 0 <= j < self.cols[i]

    def box_index(self, box: Box) -> int:
        """Position of a box in the canonical row-major order."""
        try:
            return self.boxes.index(Box(*box))
        except ValueError:
            raise DomainError("box-not-in-diagram", f"box {tuple(box)} outside diagram", list(self.cols)) from None

    def __eq__(self, other) -> bool:
        return isinstance(other, YoungDiagram) and self.cols == other.cols

    def __hash__(self) -> int:
        return hash(self.cols)

    def __repr__(self) -> str:
        return f"YoungDiagram({list(self.cols)})"

    # -- distinguished box sets ---------------------------------------------

    def socle(self) -> tuple[int, ...]:
        """Maximal boxes: the last box of a column that the next column does not reach."""
        cols = (*self.cols, 0)
        return tuple(int(j == cols[i] - 1 >= cols[i + 1]) for i, j in self.boxes)

    def subsocle(self) -> tuple[int, ...]:
        """Boxes whose right neighbour ends its column and that have a box below."""
        cols = (*self.cols, 0)
        return tuple(int(cols[i + 1] == j + 1 < cols[i]) for i, j in self.boxes)

    def hook(self, box: Box) -> tuple[int, ...]:
        """Boxes of the diagram weakly below or weakly to the right of ``box``."""
        i, j = box
        if box not in self:
            raise DomainError("box-not-in-diagram", f"box {tuple(box)} outside diagram", list(self.cols))
        return tuple(int((l == i and k >= j) or (k == j and l >= i)) for l, k in self.boxes)

    def hook_length(self, box: Box) -> int:
        return sum(self.hook(box))

    # -- serialisation -----------------------------------------------------

    def to_text(self) -> str:
        return ",".join(str(h) for h in self.cols)

    @classmethod
    def from_text(cls, text: str) -> "YoungDiagram":
        if not isinstance(text, str):
            raise DomainError("parse-error", "diagram text must be a string", text)
        parts = [p.strip() for p in text.split(",")]
        if not any(parts):
            raise DomainError("parse-error", "empty diagram text", text)
        if not all(parts):
            raise DomainError("parse-error", f"empty column height in {text!r}", text)
        return cls([text_int(p, f"bad column height in {text!r}", text) for p in parts])

    def to_json_obj(self) -> dict:
        return {"cols": list(self.cols)}

    @classmethod
    def from_json_obj(cls, obj) -> "YoungDiagram":
        # a non-list such as "" must not read as the empty diagram
        if not isinstance(obj, dict) or not isinstance(obj.get("cols"), list):
            raise DomainError("parse-error", 'diagram JSON needs a "cols" list', obj)
        return cls(ints(obj["cols"], 'diagram JSON "cols"'))


def upper_set_parts(diagram: YoungDiagram, vector: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Edge-connected parts of an upper set, each as a row-major 0/1 vector.

    An upper set is a skew shape λ/μ: column i holds the rows μ_i ≤ j < λ_i.
    Its parts are the maximal runs of consecutive nonempty columns in which
    each column meets the next, μ_i < λ_{i+1}.  A run starts on a higher row
    than every run to its left, so right to left is descending-lex order.
    """
    cols = diagram.cols
    counts = [0] * len(cols)
    for (i, _), x in zip(diagram.boxes, vector):
        counts[i] += x
    run = [0] * len(cols)  # 1-based run of each nonempty column, 0 for an empty one
    n_runs = 0
    for i, c in enumerate(counts):
        if c:
            if not (i and counts[i - 1] and cols[i - 1] - counts[i - 1] < cols[i]):
                n_runs += 1
            run[i] = n_runs
    return [
        tuple(x if run[i] == r else 0 for (i, _), x in zip(diagram.boxes, vector))
        for r in range(n_runs, 0, -1)
    ]


def enumerate_upper_sets(diagram: YoungDiagram) -> list[tuple[int, ...]]:
    """All upward-closed subsets of the diagram as row-major 0/1 vectors.

    An upper set is a 0/1 RPP, so the vectors grow one box per level in
    row-major order by ``enumerate_rpps``'s rule: a box takes 1 always and
    0 only when its left and up neighbours are both 0.  Each level extends
    its prefixes 1 before 0, so the output is descending-lex.
    """
    if diagram.size > MAX_DIAGRAM_BOXES:
        raise CapExceeded(
            "diagram-too-large",
            f"diagram has {diagram.size} boxes, cap is {MAX_DIAGRAM_BOXES}",
            list(diagram.cols),
        )
    vectors = [(1,), (0,)]
    for l, u in zip(diagram.left[1:], diagram.up[1:]):
        l, u = (l if l >= 0 else u), (u if u >= 0 else l)  # a missing neighbour reads the other
        vectors = [v + (x,) for v in vectors for x in ((1,) if v[l] or v[u] else (1, 0))]
    return vectors
