"""The benchmark's recorded answers: block 0 of every seed that bench/digests.json records."""

import pytest

import rpphilb

import frozen
import frozen_tables as FT
from conftest import classify_misreading


# each id names the workload's recorded job count, which its digests fix
@pytest.mark.parametrize("workload", ["series", "verify"], ids=["series-720", "verify-10"])
def test_no_recorded_answer_of_the_workload_moves(workload):
    assert frozen.bench_faults(workload) == []


def test_no_recorded_classify_answer_moves_and_every_report_is_certified():
    # weight 6-10 fillings of 3x3 and 4,3,2,1 and the paper's two grids, ten seeds
    assert frozen.bench_faults("classify") == []


def test_a_moved_recorded_answer_is_named_by_workload_seed_and_job_key(monkeypatch, capsys):
    seed = frozen.bench_recorded()["classify"]["3"]
    key = sorted(seed)[5]
    # one seed of one workload, with one digest changed in memory; the file is left as it is
    monkeypatch.setattr(frozen, "bench_recorded", lambda: {"classify": {"3": {**seed, key: "0" * 16}}})
    assert frozen.check({"bench/digests.json": frozen.layers()["bench/digests.json"]}) == 1
    assert capsys.readouterr().out == f"bench/digests.json: moved on [('classify', 3, '{key}')]\n"


def test_a_wrong_classify_answer_recorded_as_right_is_named_by_its_job(monkeypatch, capsys):
    # block 0 of every seed holds the paper's grid; seed 3's answers with one flag of the
    # grid's flipped are recorded in memory, the file left as it is, so only certification fails
    seed = frozen.bench_recorded()["classify"]["3"]
    misreading, k = classify_misreading(FT.GRID_TEXT)
    monkeypatch.setattr(rpphilb, "classify", misreading)
    monkeypatch.setattr(frozen, "bench_recorded", lambda: {"classify": {"3": seed}})
    wrong = {key: digest for (_, _, key), digest in frozen.bench_digests("classify")[0].items()}
    [grid] = [key for key in seed if wrong[key] != seed[key]]
    monkeypatch.setattr(frozen, "bench_recorded", lambda: {"classify": {"3": wrong}})
    assert frozen.check({"bench/digests.json": frozen.layers()["bench/digests.json"]}) == 1
    out = capsys.readouterr().out
    assert out == f"bench/digests.json: 1 reports fail, first ('classify', 3, '{grid}'): component {k} rejected\n"
