"""The benchmark's recorded answers: block 0 of every seed that bench/digests.json records."""

from collections import Counter

import pytest

from rpphilb import RPP, indicators

import frozen
from conftest import certify_report


@pytest.mark.parametrize("workload, jobs", [("series", 720), ("verify", 10)])
def test_no_recorded_answer_of_the_workload_moves(workload, jobs):
    got = frozen.bench_digests(workload)
    assert len(got) == jobs
    moved = frozen.moved(got, frozen.bench_frozen(workload))
    assert moved == [], f"answers changed on {moved}"


def test_no_recorded_classify_answer_moves_and_every_report_is_certified():
    verdicts = Counter()
    singular = 0

    def inspect(job, reports):
        nonlocal singular
        inds = indicators(RPP.from_text(job.spec["rpp"]).diagram)
        verdicts.update(certify_report(r, inds) for r in reports)
        singular += any(not r.smooth for r in reports)

    got = frozen.bench_digests("classify", inspect)
    assert len(got) == 520
    moved = frozen.moved(got, frozen.bench_frozen("classify"))
    assert moved == [], f"answers changed on {moved}"
    # weight 6-10 fillings of 3x3 and 4,3,2,1 and the paper's two grids, ten seeds
    assert verdicts == {"certified": 4209}
    assert singular == 75


def test_a_moved_recorded_answer_is_named_by_workload_seed_and_job_key(monkeypatch, capsys):
    seed = frozen.bench_recorded()["classify"]["3"]
    key = sorted(seed)[5]
    # one seed of one workload, with one digest changed in memory; the file is left as it is
    monkeypatch.setattr(frozen, "bench_recorded", lambda: {"classify": {"3": {**seed, key: "0" * 16}}})
    assert frozen.check({"bench/digests.json": frozen.layers()["bench/digests.json"]}) == 1
    assert capsys.readouterr().out == f"bench/digests.json: moved on [('classify', 3, '{key}')]\n"
