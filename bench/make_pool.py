"""Rebuild ``pool.json``, the banded candidate inputs the workloads draw from.

    python3 bench/make_pool.py

Draws candidates with a fixed seed, times each one through the library
(best of two) and sorts each kind by that time.  The costliest 2 % form
a heavy band of their own, and the rest is split into equal bands; a
block then takes one input per band.  So every block covers the heavy
end of the candidates with exactly one draw, and no block holds several.
Classify candidates leave their costliest 2 % out instead: those run
0.3-1.7 s against 0.26-0.39 s in the top band, and as a band of their
own they made ``job_tail_ms`` spread by 0.32 (interquartile range over
median, ten seeds) against 0.19 without them, past the metric's bound.
The paper's grid ``0 2 4 / 2 4 6 / 4 6 8`` (1.15 s) in every classify
block covers that end.  Only the order matters, so the timings are not
stored.
Rebuilding changes every workload's inputs and the recorded digests, so
it is a change to the benchmark.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import jobs  # noqa: E402

#: bands per kind, besides the heavy band
BANDS = {"classify": 50, "series": 15, "series-p1": 6}
PER_STRATUM = 150
HEAVY_SHARE = 0.02
#: kinds whose heavy share is left out rather than given a band
TRIMMED = {"classify"}
REPEATS = 2


def _jobs_of(kind: str, candidate) -> list:
    if kind == "classify":
        return [inputs.Job("classify", {"rpp": candidate})]
    if kind == "series":
        cols, max_size = candidate
        return inputs.series_jobs(cols, max_size, 1)
    spec = {"cols": candidate, "curve": "P1", "max_size": inputs.SERIES_P1_MAX_SIZE}
    return [inputs.Job("series-motivic", spec)]


def cost(kind: str, candidate) -> float:
    total = 0.0
    for job in _jobs_of(kind, candidate):
        best = float("inf")
        for _ in range(REPEATS):
            call = jobs.prepare(job)
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def main() -> int:
    candidates = inputs.pool_candidates(random.Random("pool"), PER_STRATUM)
    pool = {}
    for kind, items in candidates.items():
        ranked = sorted(items, key=lambda item: cost(kind, item))
        split = len(ranked) - round(len(ranked) * HEAVY_SHARE)
        body, heavy = ranked[:split], ranked[split:]
        n = BANDS[kind]
        pool[kind] = [body[len(body) * k // n:len(body) * (k + 1) // n] for k in range(n)]
        if kind not in TRIMMED:
            pool[kind].append(heavy)
        print(f"{kind}: {len(body)} candidates in {n} bands, {len(heavy)} heavy ones"
              f" {'left out' if kind in TRIMMED else 'in a band of their own'}", file=sys.stderr)
    inputs.POOL.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
