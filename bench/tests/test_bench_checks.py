"""Every output check accepts the library's answer and rejects a corrupted one."""

import copy
import dataclasses

import pytest

import inputs
import jobs


def _run(job):
    out = jobs.prepare(job)()
    return out, jobs.canonical(job, out)


def _problems(job, out, canon=None):
    return jobs.Checker().check(job, out, jobs.canonical(job, out) if canon is None else canon)


def test_classify_check():
    job = inputs.Job("classify", {"rpp": "0 2 / 2 4"})
    reports, canon = _run(job)
    assert _problems(job, reports) == []
    singular = next(k for k, r in enumerate(reports) if not r.smooth)
    witness = list(reports[singular].relation_witness)
    witness[witness.index(next(c for c in witness if c))] *= 2
    bad_witness = list(reports)
    bad_witness[singular] = dataclasses.replace(reports[singular], relation_witness=tuple(witness))
    assert any("sum to zero" in p for p in _problems(job, bad_witness))
    assert any("repeated" in p for p in _problems(job, reports + reports[:1]))
    wrong_dim = [dataclasses.replace(r, dimension=r.dimension + 1) for r in reports]
    assert any("dimension" in p for p in _problems(job, wrong_dim))
    other = jobs.prepare(inputs.Job("classify", {"rpp": "0 1 / 1 2"}))()
    mixed = [dataclasses.replace(reports[0], factorization=other[0].factorization)]
    assert any("does not total" in p for p in _problems(job, mixed))


SERIES_JOBS = [
    inputs.Job("series-motivic", {"cols": (3, 2), "curve": "A1", "max_size": 6}),
    inputs.Job("series-motivic", {"cols": (3, 2), "curve": "P1", "max_size": 5}),
    inputs.Job("series-euler", {"cols": (2, 2, 1), "chi": 2, "max_size": 5}),
    inputs.Job("series-euler-single", {"cols": (2, 2, 1), "chi": 1, "max_size": 7}),
    inputs.Job("series-bruteforce", {"cols": (2, 2), "max_size": 6}),
]


@pytest.mark.parametrize("job", SERIES_JOBS, ids=lambda job: job.kind + "-" + job.spec.get("curve", ""))
def test_series_checks(job):
    series, canon = _run(job)
    assert _problems(job, series, canon) == []
    dropped = canon[:-1]
    assert _problems(job, series, dropped)
    bumped = copy.deepcopy(canon)
    bumped[-1]["coefficient"]["0"] = bumped[-1]["coefficient"].get("0", 0) + 1
    assert _problems(job, series, bumped)


def test_bruteforce_check_compares_diagonal_collapse():
    job = SERIES_JOBS[-1]
    series, canon = _run(job)
    other = jobs.prepare(inputs.Job("series-bruteforce", {"cols": (3, 1), "max_size": 6}))()
    assert any("diagonal" in p for p in _problems(job, other, canon))


def test_verify_corpus_check():
    from rpphilb.verify import load_corpus

    rows = [row for row in load_corpus()["rows"] if row["kind"] != "random-properties"]
    job = inputs.Job("verify-corpus", {"rows": rows})
    out, canon = _run(job)
    assert _problems(job, out) == []
    assert _problems(job, out[:-1] + [(out[-1][0], False, "broken")])


def test_cli_check():
    job = SERIES_JOBS[0]
    series, canon = _run(job)
    assert jobs.check_cli(canon, jobs.digest(canon)) == []
    assert jobs.check_cli(canon[1:], jobs.digest(canon))


def test_recorded_digest_mismatch_fails_the_job():
    import run

    runner = run.Runner("classify", 1, None)
    job = inputs.Job("classify", {"rpp": "0 1 / 1 2"}, key="0.0")
    runner.recorded = {"0.0": "0" * 16}
    runner.execute(job)
    assert runner.failed == 1
    assert "recorded" in runner.failures[0]
    runner.recorded = {}
    runner.digests["0.0"] = "f" * 16
    runner.execute(job)
    assert runner.failed == 2
    assert "earlier output" in runner.failures[-1]
