"""Seeded input generation for the benchmark workloads.

Everything here is plain data (column heights, filling texts, integers)
and imports nothing from rpphilb, so the inputs a seed produces cannot
depend on the program under test.

Seeded inputs come from ``pool.json``: per job kind, candidate inputs
drawn at random once (see ``make_pool.py``) and split into bands of
equal size by their cost.  A run consumes its workload as a stream of
blocks; block ``b`` of seed ``s`` takes one input from every band with
its own ``random.Random``, plus the fixed worked examples.  So every
block, of every seed, has the same cost profile while the inputs differ,
which keeps run-to-run spread small without fixing the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("classify", "series", "verify")
POOL = Path(__file__).resolve().with_name("pool.json")

#: the paper's two worked grids, classified in every classify block
PAPER_GRIDS = ("0 0 3 / 0 2 5 / 3 5 5", "0 2 4 / 2 4 6 / 4 6 8")
CLASSIFY_SHAPES = ((3, 3, 3), (4, 3, 2, 1))
CLASSIFY_WEIGHTS = range(6, 11)

SERIES_BOXES = (8, 9, 10)
SERIES_MAX_SIZES = range(8, 13)
#: the projective-line product squares the term count, so its jobs stay at
#: the smallest truncation; larger ones take seconds each on 10 boxes
SERIES_P1_MAX_SIZE = 8
#: fixed series job: the roadmap's P1 case
SERIES_ANCHOR = {"cols": (4, 3, 2, 1), "curve": "P1", "max_size": SERIES_P1_MAX_SIZE}



@dataclass
class Job:
    """One call into the library, described by plain data."""

    kind: str
    spec: dict
    props: dict = field(default_factory=dict)
    key: str = ""
    band: int = -1  # cost band in pool.json; -1 for the fixed worked examples


# -- diagram and filling helpers ---------------------------------------------


def boxes(cols) -> list[tuple[int, int]]:
    """Boxes (i, j) of the diagram in rpphilb's row-major order."""
    return [(i, j) for j in range(cols[0]) for i in range(len(cols)) if j < cols[i]]


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Nonincreasing positive tuples summing to n, largest part first."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    out = []
    for k in range(min(n, largest), 0, -1):
        out.extend((k,) + rest for rest in partitions(n - k, k))
    return out


def derivative(cols, values) -> list[int]:
    """Mixed second difference of a filling, extended by zero off the diagram."""
    label = dict(zip(boxes(cols), values))
    get = lambda i, j: label.get((i, j), 0)
    return [get(i, j) - get(i - 1, j) - get(i, j - 1) + get(i - 1, j - 1) for i, j in boxes(cols)]


def weight(cols, values) -> int:
    return sum(derivative(cols, values))


def has_repeated_diagonal(cols) -> bool:
    """Two boxes share a diagonal, i.e. the diagram holds a 2x2 block."""
    return len(cols) > 1 and cols[1] > 1


def hook_lengths(cols) -> list[int]:
    rows = [sum(1 for h in cols if h > j) for j in range(cols[0])]
    return [(rows[j] - i - 1) + (cols[i] - j - 1) + 1 for i, j in boxes(cols)]


def filling_text(cols, values) -> str:
    rows: list[list[int]] = []
    for (i, j), v in zip(boxes(cols), values):
        if j == len(rows):
            rows.append([])
        rows[j].append(v)
    return " / ".join(" ".join(str(v) for v in row) for row in rows)


def parse_filling(text: str) -> tuple[tuple[int, ...], list[int]]:
    """(column heights, row-major values) of a filling text."""
    rows = [[int(v) for v in chunk.split()] for chunk in text.split("/")]
    cols = tuple(sum(1 for r in rows if len(r) > i) for i in range(len(rows[0])))
    return cols, [rows[j][i] for i, j in boxes(cols)]


def random_filling(rng: random.Random, cols, steps=(0, 0, 1, 1, 2)) -> list[int]:
    """Monotone filling whose labels rise by a random step over the larger neighbour."""
    label: dict = {}
    for i, j in boxes(cols):
        floor = max(label.get((i - 1, j), 0), label.get((i, j - 1), 0))
        label[(i, j)] = floor + rng.choice(steps)
    return [label[b] for b in boxes(cols)]


def filling_with_weight(rng: random.Random, cols, target: int) -> list[int]:
    while True:
        values = random_filling(rng, cols)
        if weight(cols, values) == target:
            return values


# -- workload blocks -------------------------------------------------------------


def load_pool() -> dict:
    return json.loads(POOL.read_text())


def block(workload: str, seed: int, index: int, pool: dict, corpus_rows: list | None = None) -> list[Job]:
    """Jobs of block ``index`` of a workload for a seed, in their run order."""
    rng = random.Random(f"{workload}:{seed}:{index}")

    def picks(kind):
        return [(band, rng.choice(items)) for band, items in enumerate(pool[kind])]

    if workload == "classify":
        jobs = [_classify_job(text) for text in PAPER_GRIDS]
        jobs += [_classify_job(text, band) for band, text in picks("classify")]
    elif workload == "series":
        jobs = [Job("series-motivic", dict(SERIES_ANCHOR), _shape_props(SERIES_ANCHOR["cols"]))]
        for band, (cols, max_size) in picks("series"):
            jobs += series_jobs(tuple(cols), max_size, rng.choice((1, 2)), band)
        for band, cols in picks("series-p1"):
            spec = {"cols": tuple(cols), "curve": "P1", "max_size": SERIES_P1_MAX_SIZE}
            jobs.append(Job("series-motivic", spec, _shape_props(cols), band=band))
    elif workload == "verify":
        if corpus_rows is None:
            raise ValueError("the verify workload needs the bundled corpus rows")
        jobs = [_verify_job(rng, corpus_rows)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    for pos, job in enumerate(jobs):
        job.key = f"{index}.{pos}"
    return jobs


def _shape_props(cols) -> dict:
    return {"repeated_diagonal": has_repeated_diagonal(cols)}


def _filling_props(text: str) -> dict:
    cols, values = parse_filling(text)
    return dict(_shape_props(cols), weight=weight(cols, values))


def _classify_job(text: str, band: int = -1) -> Job:
    return Job("classify", {"rpp": text}, _filling_props(text), band=band)


def series_jobs(cols, max_size: int, chi: int, band: int = -1) -> list[Job]:
    props = _shape_props(cols)
    specs = [
        ("series-motivic", {"cols": cols, "curve": "A1", "max_size": max_size}),
        ("series-euler", {"cols": cols, "chi": chi, "max_size": max_size}),
        ("series-euler-single", {"cols": cols, "chi": chi, "max_size": max_size}),
        ("series-bruteforce", {"cols": cols, "max_size": max_size}),
    ]
    return [Job(kind, spec, props, band=band) for kind, spec in specs]


def _verify_job(rng: random.Random, corpus_rows: list) -> Job:
    """The whole bundled corpus, as ``rpphilb verify`` runs it, random row reseeded."""
    rows = [dict(row) for row in corpus_rows]
    for row in rows:
        if row.get("kind") == "random-properties":
            row["seed"] = rng.randrange(2**31)
    return Job("verify-corpus", {"rows": rows})


# -- candidate inputs for the pool ------------------------------------------------


def pool_candidates(rng: random.Random, per_stratum: int) -> dict:
    """Candidate inputs per pool kind, drawn from the seeded generators.

    classify: fillings of each shape and weight; series: every (shape,
    truncation) pair; series-p1: every shape.
    """
    classify = {
        filling_text(cols, filling_with_weight(rng, cols, w))
        for cols in CLASSIFY_SHAPES
        for w in CLASSIFY_WEIGHTS
        for _ in range(per_stratum)
    } - set(PAPER_GRIDS)
    shapes = [cols for n in SERIES_BOXES for cols in partitions(n)]
    return {
        "classify": sorted(classify),
        "series": [(cols, m) for cols in shapes for m in SERIES_MAX_SIZES],
        "series-p1": shapes,
    }
