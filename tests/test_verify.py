"""Self-check corpus: loading, row evaluation, negative controls."""

import gc
import hashlib
import json
import random
import time

import pytest

from rpphilb import RPP, DomainError, cli, verify
from rpphilb.components import differential_injective, dimension_recursive
from rpphilb.diagram import YoungDiagram, enumerate_upper_sets
from rpphilb.equations import (
    AmbientSummary,
    IdealPresentation,
    _without_border,
    ambient_and_bundle,
    type_i_ideal,
    type_ii_ideal,
)
from rpphilb.pointcount import count_points
from rpphilb.series import euler_series, hook_product
from rpphilb.poly import SparsePoly
from rpphilb.rpp import (
    MAX_FACTORIZATION_INDICATORS,
    MAX_FACTORIZATION_WEIGHT,
    Factorization,
    Indicator,
    all_factorizations,
    complete_factorization,
    enumerate_rpps,
    indicators,
    standard_factorization,
)
from rpphilb.verify import (
    _random_nested_polynomials,
    check_random_instance,
    load_corpus,
    random_instance,
    run_corpus,
    run_random_properties,
)

from conftest import corpus_row, diagrams_up_to, x_coefficients, x_power
import frozen_tables as FT


def test_bundled_corpus_passes_completely():
    corpus = load_corpus()
    results = run_corpus(corpus)
    assert len(results) == len(corpus["rows"]) == 22
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert failures == []


def test_zero_filling_classify_row_passes():
    # the zero filling's one component is the empty factorisation, which is
    # complete (no positive derivative) but not a level-set factorisation
    empty = {
        "factorization": {},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    }
    expected = {"n_indicators": 5, "weight": 0, "standard_index": None, "complete_index": 0, "components": [empty]}
    row = {"name": "zero", "kind": "classify", "rpp": "0 0 / 0 0", "expected": expected}
    assert run_corpus({"rows": [row]}) == [("zero", True, "ok")]


def test_classify_rows_agree_with_the_factorizations_command(capsys):
    # every filling of total <= 3 on <= 4 boxes: a row built from the CLI's
    # answer passes, the zero fillings among them
    fillings = [n for d in diagrams_up_to(4) for n in enumerate_rpps(d, 3)]
    assert (len(fillings), sum(n.is_zero() for n in fillings)) == (90, 11)
    rows = []
    for n in fillings:
        text = n.to_text()
        assert cli.main(["factorizations", text, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = {key: out[key] for key in ("weight", "standard_index", "complete_index")}
        expected["n_indicators"] = len(indicators(n.diagram))
        expected["components"] = [{"normalization": fact} for fact in out["factorizations"]]
        rows.append({"name": text, "kind": "classify", "rpp": text, "expected": expected})
    assert run_corpus({"rows": rows}) == [(row["name"], True, "ok") for row in rows]


def test_library_calls_leave_no_reference_cycles():
    # each recursive closure is deleted before its function returns, so no
    # call leaves a reference cycle for the collector to find
    corpus = load_corpus()
    calls = (
        lambda: count_points(RPP.from_text("1 2 / 2 3"), 2),
        lambda: enumerate_upper_sets(YoungDiagram((4, 3, 2, 1))),
        lambda: run_corpus(corpus),
    )
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        leftovers = []
        for call in calls:
            call()
            leftovers.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert leftovers == [0, 0, 0]


def test_huge_first_generator_text_fails_without_expanding_it():
    # the row round-trips the printed generator, never the corpus text, so
    # a power that would take hours to expand fails as a plain mismatch
    huge = "(a_0_0_1 + a_0_1_1 + 1)^1000"
    row = {"name": "huge", "kind": "equations", "rpp": "0 1 / 1 2", "type": "I"}
    start = time.perf_counter()
    [(name, ok, detail)] = run_corpus({"rows": [{**row, "expected": {"first_generator": huge}}]})
    assert time.perf_counter() - start < 5
    assert not ok
    assert detail.startswith("first generator ")


def test_perturbed_expectation_is_caught():
    corpus = load_corpus()
    corpus["rows"][0]["expected"]["n_indicators"] = 6
    results = run_corpus(corpus)
    assert not results[0][1]
    assert "indicator" in results[0][2]


def test_stale_counterexample_is_caught():
    # the recorded box-level mismatch must still be a mismatch; flipping the
    # expectation makes the row fail rather than silently pass
    corpus = load_corpus()
    for row in corpus["rows"]:
        if row["kind"] == "gansner-box" and not row["expected_equal"]:
            row["expected_equal"] = True
    results = {name: (ok, detail) for name, ok, detail in run_corpus(corpus)}
    ok, detail = results["gansner-box-square-counterexample"]
    assert not ok


#: what a row field is swapped for in the mutation sweep below
SUBSTITUTES = (None, True, 2.5, "x", [], {}, -1, 0)

#: per (kind, field), or per field in every kind, whether a substitute is a value the row may accept
ACCEPTS = {
    "name": lambda x: isinstance(x, str),
    ("equations", "type"): lambda x: x in ("I", "II"),
    ("equations", "minimal_border"): lambda x: type(x) is bool,
    ("equations", "expected"): lambda x: isinstance(x, dict),
    ("random-properties", "seed"): lambda x: type(x) is int,
    ("random-properties", "n_cases"): lambda x: type(x) is int and x >= 1,
    ("gansner-box", "expected_equal"): lambda x: type(x) is bool,
    ("count-points", "expected_match"): lambda x: type(x) is bool,
    **{
        (kind, "max_size"): lambda x: type(x) is int and x >= 1
        for kind in (
            "gansner-box",
            "gansner-diagonal",
            "euler-single",
            "motivic-specialization",
            "count-points-diagonal",
        )
    },
}


def _nested_mutants(row, sub):
    """Copies of a row with one nested expectation swapped for ``sub``, each with its failure.

    One copy per component, which must fail as a parse-error unless ``sub``
    is an object (an empty one expects nothing); one for the component
    list, a parse-error naming it unless ``sub`` is a list; and one for the
    tangent, a parse-error naming it; the failure is the detail's required
    prefix, or None.
    """
    expected = row.get("expected", {})
    for k in range(len(expected.get("components", ()))):
        components = list(expected["components"])
        components[k] = sub
        yield {**row, "expected": {**expected, "components": components}}, (
            None if isinstance(sub, dict) else "parse-error"
        )
    if "components" in expected:
        yield {**row, "expected": {**expected, "components": sub}}, (
            None if isinstance(sub, list) else 'parse-error: "expected.components" must be a list'
        )
    if "tangent" in expected:
        yield {**row, "expected": {**expected, "tangent": sub}}, 'parse-error: "expected.tangent" must be an object'


def test_bad_tangent_expectation_fails_before_reducing(monkeypatch):
    monkeypatch.setattr(verify, "tangent_embedding", lambda ideal: pytest.fail("the row reduced its ideal"))
    row = next(row for row in load_corpus()["rows"] if "tangent" in row.get("expected", {}))
    for tangent in (None, {"dim": 9}, {"dim": 9, "degrees": [4, "5"]}, {"dim": True, "degrees": []}):
        [(_, ok, detail)] = run_corpus({"rows": [{**row, "expected": {**row["expected"], "tangent": tangent}}]})
        assert not ok and detail.startswith('parse-error: "expected.tangent" must be an object'), tangent


#: equations rows whose presentation has no generators at all
GENERATOR_FREE = [
    {"name": "free-i", "kind": "equations", "rpp": "1", "type": "I"},
    {"name": "free-ii", "kind": "equations", "rpp": "0", "type": "II"},
]


def test_mutated_rows_fail_as_rows_and_never_raise():
    checked = 0
    for row in load_corpus()["rows"]:
        for field in row.keys() - {"kind"}:
            accepts = ACCEPTS.get(field, ACCEPTS.get((row["kind"], field)))
            for sub in SUBSTITUTES:
                [(name, ok, detail)] = run_corpus({"rows": [{**row, field: sub}]})
                renamed = sub if isinstance(sub, str) else repr(sub)
                assert name == (renamed if field == "name" else row["name"])
                if accepts is not None and not accepts(sub):
                    assert not ok and detail.startswith("parse-error"), (name, field, sub, detail)
                    checked += 1
    # every type, n_cases and non-object expected; non-bool minimal_border; non-int seed;
    # every max_size of the ten rows that have one (0 included: it leaves
    # every series the constant 1); non-bool expected_equal and expected_match;
    # every non-string name of the 22 rows
    assert checked == 4 * 8 + 8 + 4 * 7 + 7 + 6 + 10 * 8 + 3 * 7 + 4 * 7 + 22 * 7
    nested = 0
    for sub in SUBSTITUTES:
        for row in load_corpus()["rows"]:
            for mutant, failure in _nested_mutants(row, sub):
                [(name, ok, detail)] = run_corpus({"rows": [mutant]})
                assert name == row["name"]
                if failure is not None:
                    assert not ok and detail.startswith(failure), (name, sub, detail)
                    nested += 1
        for row in GENERATOR_FREE:
            [(name, ok, detail)] = run_corpus({"rows": [{**row, "expected": {"first_generator": sub}}]})
            assert not ok and detail.startswith("first generator "), (name, sub, detail)
            nested += 1
    # each non-object entry of the 3 + 15 components, each non-list component
    # list of the two classify rows, every tangent swap of the two rows that
    # have one, and each first generator of a generator-free row
    assert nested == 7 * 18 + 2 * 7 + 2 * 8 + 2 * 8


def test_missing_corpus_file():
    with pytest.raises(DomainError) as err:
        load_corpus("/nonexistent/corpus.json")
    assert err.value.code == "parse-error"


def test_random_instance_respects_documented_bounds():
    rng = random.Random(20260817)
    for _ in range(100):
        n = random_instance(rng)
        assert n.diagram.size <= 6
        assert max(n.values) <= 5
        assert n.weight() <= 12
        # the sweep calls all_factorizations unguarded, so neither of its caps may fire
        assert len(indicators(n.diagram)) <= MAX_FACTORIZATION_INDICATORS
        assert n.weight() <= MAX_FACTORIZATION_WEIGHT


def test_check_random_instance_lists_no_failures():
    rng = random.Random(99)
    for _ in range(10):
        assert check_random_instance(rng) == []


def test_non_nested_tuple_is_reported_as_a_divisibility_failure(monkeypatch):
    # x^d + (p+1)(x^(d-1) + ... + 1) at row-major position p: not nested, so
    # some division fails and leaves type II variables unassigned
    def not_nested(rng, n, standard):
        return [[p + 1] * d + [1] for p, d in enumerate(n.values)]

    monkeypatch.setattr(verify, "_random_nested_polynomials", not_nested)
    row = {"name": "random", "kind": "random-properties", "seed": 5, "n_cases": 10}
    [(name, ok, detail)] = run_corpus({"rows": [row]})
    assert not ok
    assert "divisibility" in detail
    assert "malformed" not in detail and "parse-error" not in detail
    failures = run_random_properties(5, 10)
    assert any(f.endswith("fails left divisibility") or f.endswith("fails up divisibility") for f in failures)


def test_random_row_draws_are_frozen(monkeypatch):
    # the bundled row's 120 instances, recorded as the sweep draws them
    drawn = []

    def recorded(rng):
        drawn.append(random_instance(rng))
        return drawn[-1]

    monkeypatch.setattr(verify, "random_instance", recorded)
    assert run_random_properties(20260817, 120) == []
    texts = "\n".join(n.to_text() for n in drawn)
    assert hashlib.sha256(texts.encode()).hexdigest() == FT.RANDOM_ROW_DRAWS_SHA256
    # draws on one shape share its diagram
    assert len({id(n.diagram) for n in drawn}) == len({n.diagram.cols for n in drawn})


def _changed(build, surplus=0, generator=None):
    """``build``, with ``surplus`` added to the condition count and ``generator`` appended."""

    def changed(*args):
        ideal = build(*args)
        extra = () if generator is None else (generator,)
        return IdealPresentation(
            ideal.ambient_vars, ideal.generators + extra, ideal.groups, ideal.condition_count + surplus
        )

    return changed


#: a non-smooth component of the square, and a smooth factorisation of length 1
SINGULAR = next(f for f in all_factorizations(RPP.from_text("0 2 / 2 4")) if not differential_injective(f)[0])
ONE_INDICATOR = Factorization({Indicator(YoungDiagram((1,)), (1,)): 1})
ONE = SparsePoly.constant(1)

#: per problem line of check_random_instance, a computation of the sweep
#: changed, and every problem the sweep then reports, without its instance
SWEEP_CHANGES = {
    "dimension": ("dimension_recursive", lambda n: dimension_recursive(n) + 1, {"recursive dimension != weight"}),
    "length": (
        "all_factorizations",
        lambda n: [*all_factorizations(n), ONE_INDICATOR],
        {"a factorisation length differs from the weight"},
    ),
    "complete": ("complete_factorization", lambda n: SINGULAR, {"standard/complete component not smooth"}),
    "differential": (
        "differential_injective",
        lambda fact: (False,),
        {"standard/complete component not smooth", "weight <= 3 component not smooth"},
    ),
    "grading": (
        "check_grading",
        lambda ideal: False,
        {f"type {tag} presentation inhomogeneous" for tag in ("I", "II", "II-minimal")},
    ),
    "type-i": ("type_i_ideal", _changed(type_i_ideal, generator=ONE), {"type I generator nonzero on a nested tuple"}),
    # the minimal chart is derived from the full one, and still checked on its own
    "minimal-count": (
        "_without_border",
        _changed(_without_border, surplus=1),
        {"type II-minimal vars minus conditions != weight"},
    ),
    "minimal-generator": (
        "_without_border",
        _changed(_without_border, generator=ONE),
        {"type II-minimal generator nonzero on a nested tuple"},
    ),
}


@pytest.mark.parametrize("case", list(SWEEP_CHANGES))
def test_a_changed_computation_fails_the_sweep_with_its_problem(monkeypatch, case):
    name, replacement, problems = SWEEP_CHANGES[case]
    monkeypatch.setattr(verify, name, replacement)
    failures = run_random_properties(20260817, 40)
    assert {f.split(": ", 1)[1] for f in failures} == problems


def test_the_sweep_tests_each_distinct_factorisation_once(monkeypatch):
    # the named factorisations often coincide, and at weight <= 3 are among all of them
    tested = []
    monkeypatch.setattr(verify, "differential_injective", lambda f: tested.append(f) or differential_injective(f))
    assert run_random_properties(20260817, 120) == []
    assert len(tested) == 123


def test_an_unsmooth_answer_is_reported_once_per_factorisation_checked(monkeypatch):
    drawn = []

    def recorded(rng):
        drawn.append(random_instance(rng))
        return drawn[-1]

    monkeypatch.setattr(verify, "random_instance", recorded)
    monkeypatch.setattr(verify, "differential_injective", lambda f: (False,))
    failures = run_random_properties(20260817, 40)
    expected = []
    for n in drawn:
        named = (standard_factorization(n), complete_factorization(n))
        expected += [f"{n.to_text()}: standard/complete component not smooth"] * (len(named) - named.count(None))
        if n.weight() <= 3:
            expected += [f"{n.to_text()}: weight <= 3 component not smooth"] * len(all_factorizations(n))
    assert failures == expected


# -- SparsePoly arithmetic, kept as the oracle for the integer fast path ------


def _sparse_nested_polynomials(rng, n):
    """Monic SparsePoly per box, row-major, nested by left/up divisibility."""
    factorization = standard_factorization(n) or Factorization({})
    factors = []
    for indicator, multiplicity in factorization.terms.items():
        poly = x_power(multiplicity)
        for k in range(multiplicity):
            poly = poly + x_power(k) * rng.randint(-3, 3)
        factors.append((indicator, poly))
    tuples = []
    for pos in range(n.diagram.size):
        product = SparsePoly.constant(1)
        for indicator, poly in factors:
            if indicator.values[pos]:
                product = product * poly
        tuples.append(product)
    return tuples


def _coefficients(poly):
    """Integer x-coefficients of a polynomial in x alone, lowest power first."""
    return tuple(c.terms.get((), 0) for c in x_coefficients(poly))


def test_nested_polynomials_match_the_sparse_builder():
    shapes = ((1,), (2,), (2, 1), (2, 2), (3, 1))
    fillings = [n for cols in shapes for n in enumerate_rpps(YoungDiagram(cols), 3)]
    for seed in range(8):
        rng = random.Random(seed)
        instances = fillings + [random_instance(rng) for _ in range(30)]
        for n in instances:
            standard = standard_factorization(n) or Factorization({})
            state = rng.getstate()
            fast = _random_nested_polynomials(rng, n, standard)
            after = rng.getstate()
            rng.setstate(state)
            slow = _sparse_nested_polynomials(rng, n)
            assert rng.getstate() == after
            assert fast == [_coefficients(p) for p in slow], n.to_text()
            assert [len(c) - 1 for c in fast] == list(n.values)



def test_type_i_row_refuses_the_minimal_border():
    # as on the command line, where --minimal-border with --type I is refused
    row = {"name": "i-minimal", "kind": "equations", "rpp": "1 / 2", "type": "I", "expected": {}}
    assert run_corpus({"rows": [{**row, "minimal_border": False}]}) == [("i-minimal", True, "ok")]
    [(_, ok, detail)] = run_corpus({"rows": [{**row, "minimal_border": True}]})
    assert not ok
    assert detail == 'parse-error: "minimal_border" applies to type II only'


def _perturbed(name, change):
    """The bundled row ``name``, with ``change`` applied to its expectations.

    They are its ``"expected"`` object, or the row itself where its ``expected_*``
    fields and recorded counterexamples sit beside its inputs.
    """
    row = corpus_row(name)
    change(row.get("expected", row))
    return row


#: per bundled row with frozen expectations, one expectation changed, and the detail the row then fails with
PERTURBATIONS = [
    ("square-classification", lambda e: e.update(standard_index=1), "standard factorisation at 0 != 1"),
    ("square-classification", lambda e: e.update(complete_index=0), "complete factorisation at 2 != 0"),
    ("square-classification", lambda e: e["components"][1].update(smooth=True), "component 1: smooth False != True"),
    ("equations-type-i", lambda e: e.update(n_generators=21), "n_generators 20 != 21"),
    ("equations-type-ii", lambda e: e["tangent"].update(dim=8), "tangent dimension 9 != 8"),
    ("equations-type-ii", lambda e: e["tangent"].update(degrees=[4, 5]), "reduced degrees [4, 4, 5, 5] != [4, 5]"),
    ("euler-single-square", lambda e: e.update(hook_lengths=[3, 2, 1, 1]), "hook lengths [3, 2, 2, 1]"),
    ("euler-single-square", lambda e: e["coefficients"].update({"10": 39}), "coefficients {"),
    ("equations-type-ii-minimal", lambda e: e.update(group_sizes=[2, 5, 5]), "group_sizes [2, 5, 5, 3] != [2, 5, 5]"),
    ("equations-domino-type-i", lambda e: e.update(first_generator="a_0_0_1"), "first generator 'a_0_0_1^2 - "),
    ("ambient-bundle", lambda e: e.update(rank_bundle=14), "{'dim_ambient': 20, 'rank_bundle': 15, 'expected"),
    (
        "grid-classification",
        lambda e: e["components"][2]["witness"].update({"0 0 0 / 0 0 1 / 1 1 1": 1}),
        "component 2: witness {'0 0 1 / 0 1 1 / 1 1 1': 1, '0 0 1 / 0 1 1 / 0 1 1': -1, '0 0 0 / 0 0 1 / 1 1 1': -1,",
    ),
    ("count-points-domino-p3", lambda e: e.update(expected_count=8), "count 9 != 8"),
    ("count-points-domino-p2", lambda e: e.update(expected_match=False), "match is True"),
    ("count-points-square-refinement-gap", lambda e: e.update(expected_motive_box=6), "box coefficient 4 != 6"),
    (
        "gansner-box-square-counterexample",
        lambda e: e.update(lhs_only=[1, 1, 1, 0]),
        "recorded sum-side counterexample (1, 1, 1, 0) is stale",
    ),
    # a recorded inequality names a monomial on each side, so the flipped verdict carries two
    (
        "gansner-box-l-shape",
        lambda e: e.update(expected_equal=False, lhs_only=[0, 1, 1], rhs_only=[1, 1, 0]),
        "box-level equality is True; ",
    ),
    (
        "gansner-box-hook",
        lambda e: e.update(expected_equal=False, lhs_only=[0, 1, 1, 1], rhs_only=[1, 1, 1, 0]),
        "box-level equality is True; ",
    ),
]


@pytest.mark.parametrize("name, change, detail", PERTURBATIONS)
def test_a_changed_expectation_fails_with_its_detail(name, change, detail):
    [(_, ok, got)] = run_corpus({"rows": [_perturbed(name, change)]})
    assert not ok
    assert got.startswith(detail), got


#: per row, a computation changed, and the detail the row then fails with
COMPUTATION_CHANGES = [
    # rows that only compare two computations fail when one changes; so do the other rows' cross-checks
    (
        "motivic-specialization-square",
        "euler_series",
        lambda diagram, chi, max_size: euler_series(diagram, chi + 1, max_size),
        "affine-line series at L=1 is not the chi=1 Euler series; "
        "projective-line series at L=1 is not the chi=2 Euler series",
    ),
    (
        "count-points-diagonal-square-p2",
        "count_points",
        lambda rpp, p: count_points(rpp, p) + 1,
        "diagonal totals differ, first at ((0, 0, 0), 1)",
    ),
    (
        "equations-domino-type-i",
        "type_i_ideal",
        _changed(type_i_ideal, surplus=1),
        "condition_count 2 != 1; vars minus conditions is not the weight",
    ),
    (
        "equations-domino-type-i",
        "type_i_ideal",
        type_ii_ideal,
        "n_vars 5 != 3; n_generators 3 != 1; group_sizes [1, 2] != [1]; condition_count 3 != 1; "
        "first generator 'b_0_0_1 - c_0_0_1'",
    ),
    ("equations-domino-type-i", "check_grading", lambda ideal: False, "presentation is not homogeneous"),
    ("equations-domino-type-i", "parse_poly", lambda text: ONE, "first generator does not round-trip"),
    (
        "ambient-bundle",
        "ambient_and_bundle",
        lambda n: AmbientSummary(*ambient_and_bundle(n)[:2], 4),
        "{'dim_ambient': 20, 'rank_bundle': 15, 'expected_dim': 4} != "
        "{'dim_ambient': 20, 'rank_bundle': 15, 'expected_dim': 5}; expected dimension is not the weight",
    ),
    (
        "gansner-diagonal-square",
        "hook_product",
        lambda diagram, w, power, max_size: hook_product(diagram, w, power - 1, max_size),
        "diagonal-collapsed series differ",
    ),
    (
        "euler-single-square",
        "enumerate_rpps",
        lambda diagram, max_size: list(enumerate_rpps(diagram, max_size))[1:],
        "series disagrees with direct enumeration",
    ),
]


def test_rows_without_expectations_fail_when_a_computation_changes(monkeypatch):
    rows = {row["name"]: row for row in load_corpus()["rows"]}
    for name, computation, replacement, detail in COMPUTATION_CHANGES:
        with monkeypatch.context() as patched:
            patched.setattr(verify, computation, replacement)
            assert run_corpus({"rows": [rows[name]]}) == [(name, False, detail)]
