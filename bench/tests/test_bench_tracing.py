import inspect
import itertools
import sys

import pytest

import inputs
import jobs
import rpphilb
import rpphilb.cli
import tracing


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 20] has children a [1, 4] and b [5, 15]; b has child c [6, 9]
    tr = tracing.Tracer(["root", "a", "b", "c"], clock=FakeClock([0, 1, 4, 5, 6, 9, 15, 20]))
    tr.job = "j1"
    root = tr.enter(0)
    a = tr.enter(1)
    tr.exit(a)
    b = tr.enter(2)
    c = tr.enter(3)
    tr.exit(c)
    tr.exit(b)
    tr.exit(root)
    assert tr.self_s == [20 - 3 - 10, 3, 10 - 3, 3]
    assert tr.calls == [1, 1, 1, 1]
    spans = {tr.names[idx]: (span_id, parent) for span_id, parent, idx, job, start, end in tr.spans}
    assert spans["root"][1] is None
    assert spans["a"][1] == spans["b"][1] == spans["root"][0]
    assert spans["c"][1] == spans["b"][0]
    assert {job for _, _, _, job, _, _ in tr.spans} == {"j1"}


def test_excluded_bookkeeping_is_not_self_time():
    tr = tracing.Tracer(["root"], clock=FakeClock([0, 10]))
    frame = tr.enter(0)
    tr.exclude(4)
    tr.exit(frame)
    assert tr.self_s == [6]


def test_child_call_cost_is_booked_to_the_caller():
    tr = tracing.Tracer(["root", "leaf"], clock=FakeClock([0, 5, 8, 20]))
    tr.call_cost = 1
    root = tr.enter(0)
    leaf = tr.enter(1)
    tr.exit(leaf)
    tr.exit(root)
    assert tr.self_s == [20 - 3 - 1, 3]


def test_calibrated_call_cost_is_small_and_positive():
    assert 0 < tracing.calibrate() < 1e-4


def test_hot_spans_are_totalled_but_not_kept():
    tr = tracing.Tracer(["verify.run_corpus", "poly.mul"], clock=FakeClock([0, 1, 2, 3]))
    outer = tr.enter(0)
    inner = tr.enter(1)
    tr.exit(inner)
    tr.exit(outer)
    assert tr.calls == [1, 1]
    assert [tr.names[span[2]] for span in tr.spans] == ["verify.run_corpus"]


def _namespaces():
    """Identity of every attribute of every rpphilb module and class."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "rpphilb" or name.startswith("rpphilb."):
            for key, value in vars(mod).items():
                seen[(name, key)] = id(value)
                if inspect.isclass(value) and value.__module__.startswith("rpphilb"):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = id(member)
    return seen


def test_uninstall_restores_every_namespace():
    before = _namespaces()
    original = rpphilb.components.all_factorizations
    tr = tracing.new_tracer()
    undo = tracing.install(tr)
    try:
        assert rpphilb.components.all_factorizations is not original
        assert rpphilb.SparsePoly.__radd__ is rpphilb.SparsePoly.__add__
        assert _namespaces() != before
    finally:
        tracing.uninstall(undo)
    assert _namespaces() == before


def test_wrappers_replace_every_copy_of_a_name():
    tr = tracing.new_tracer()
    undo = tracing.install(tr)
    try:
        wrapped = rpphilb.rpp.all_factorizations
        assert rpphilb.components.all_factorizations is wrapped
        assert rpphilb.verify.all_factorizations is wrapped
        assert rpphilb.all_factorizations is wrapped
    finally:
        tracing.uninstall(undo)


def _traced_classify(text):
    tr = tracing.new_tracer()
    undo = tracing.install(tr)
    try:
        tr.on = True
        reports = rpphilb.classify(rpphilb.RPP.from_text(text))
        tr.on = False
    finally:
        tracing.uninstall(undo)
    return [r.to_json_obj() for r in reports], tracing.layer_values(tr)


def test_traced_classify_counts_its_work():
    reports, values = _traced_classify("0 2 / 2 4")
    assert values["rpp.factorizations_out"] == len(reports)
    assert values["components.singular_out"] == sum(not r["smooth"] for r in reports)
    assert values["components.bijective_on_points.calls"] == len(reports)
    assert values["linalg.rref.calls"] == 2 * len(reports)
    # classify re-enumerates the indicators to lift each singular witness
    assert values["rpp.indicators.calls"] > 1
    assert values["components.lattice_points"] > 0
    assert 0 < values["components.witness_ratio"] <= 1
    assert set(values) == {name for name, _ in tracing.PER_LAYER} - {"trace.overhead_frac"}


def _brute_force_bijective(T, max_search=None):
    """bijective_on_points by trying every vector of the full multiplicity box."""
    support = T.support
    mults = [T.multiplicity(ind) for ind in support]
    rows = range(len(support[0].values)) if support else ()
    best = None
    for m in itertools.product(*(range(-b, b + 1) for b in mults)):
        if not any(m) or any(sum(c * ind.values[r] for c, ind in zip(m, support)) for r in rows):
            continue
        if next(c for c in m if c) < 0:
            m = tuple(-c for c in m)
        score = (sum(map(abs, m)), m)
        best = score if best is None else min(best, score)
    if best is None:
        return True, None
    return False, {ind: c for ind, c in zip(support, best[1]) if c}


def test_witness_counters_do_not_depend_on_the_search(monkeypatch):
    text = "0 0 3 / 0 2 5 / 3 5 5"  # one of the paper's grids; some box points are no relation
    reports, values = _traced_classify(text)
    monkeypatch.setattr(rpphilb.components, "bijective_on_points", _brute_force_bijective)
    brute_reports, brute_values = _traced_classify(text)
    assert brute_reports == reports
    # the other search never reduces the support matrix with the library
    assert brute_values["linalg.rref.calls"] < values["linalg.rref.calls"]
    assert brute_values["linalg.solve_from_rref.calls"] == 0 < values["linalg.solve_from_rref.calls"]
    for name in ("components.lattice_points", "components.witness_ratio"):
        assert brute_values[name] == values[name] > 0
    assert values["components.witness_ratio"] < 1


def test_traced_point_count_reports_yield():
    tr = tracing.new_tracer()
    undo = tracing.install(tr)
    try:
        tr.on = True
        count = rpphilb.count_points(rpphilb.RPP.from_text("0 1 / 1 2"), 2)
        tr.on = False
    finally:
        tracing.uninstall(undo)
    values = tracing.layer_values(tr)
    assert values["pointcount.points_out"] == count == 6
    assert values["pointcount.candidates"] > count
    assert values["pointcount.yield_ratio"] == pytest.approx(count / values["pointcount.candidates"])


@pytest.mark.parametrize(
    "job,name",
    [
        (inputs.Job("classify", {"rpp": "0 1 / 1 2"}), "components.classify"),
        (inputs.Job("series-bruteforce", {"cols": (2, 1), "max_size": 3}), "rpp.enumerate_rpps"),
        (inputs.Job("series-motivic", {"cols": (2, 1), "curve": "A1", "max_size": 3}), "series.hook_product"),
    ],
)
def test_benchmark_jobs_are_seen_by_the_wrappers(job, name):
    call = jobs.prepare(job)
    tr = tracing.new_tracer()
    undo = tracing.install(tr)
    try:
        tr.on = True
        call()
        tr.on = False
    finally:
        tracing.uninstall(undo)
    assert tr.calls[tr.names.index(name)] == 1
