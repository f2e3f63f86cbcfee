import pytest

import inputs
from rpphilb.verify import load_corpus

ROWS = load_corpus()["rows"]
POOL = inputs.load_pool()


def _described(jobs):
    return [(job.key, job.kind, job.spec, job.props) for job in jobs]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    for index in (0, 1):
        first = inputs.block(workload, 7, index, POOL, ROWS)
        again = inputs.block(workload, 7, index, POOL, ROWS)
        assert _described(first) == _described(again)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_or_block_gives_other_inputs(workload):
    base = _described(inputs.block(workload, 7, 0, POOL, ROWS))
    assert _described(inputs.block(workload, 8, 0, POOL, ROWS)) != base
    assert _described(inputs.block(workload, 7, 1, POOL, ROWS)) != base


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_blocks_take_one_input_per_band(workload):
    def kinds(jobs):
        return sorted(job.kind for job in jobs)

    first = inputs.block(workload, 1, 0, POOL, ROWS)
    assert kinds(first) == kinds(inputs.block(workload, 2, 3, POOL, ROWS))
    if workload == "classify":
        texts = [job.spec["rpp"] for job in first]
        for band in POOL["classify"]:
            assert sum(text in band for text in texts) == 1


def test_generated_fillings_meet_their_targets():
    import random

    rng = random.Random(0)
    for cols in inputs.CLASSIFY_SHAPES:
        values = inputs.filling_with_weight(rng, cols, 8)
        assert inputs.weight(cols, values) == 8
        assert inputs.parse_filling(inputs.filling_text(cols, values)) == (cols, values)
        label = dict(zip(inputs.boxes(cols), values))
        for (i, j), v in label.items():
            assert v >= label.get((i - 1, j), 0) and v >= label.get((i, j - 1), 0)
