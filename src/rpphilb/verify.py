"""Frozen-expectation self-checks behind the ``verify`` subcommand.

Each corpus row names a computation and the outcome it must reproduce.
The bundled corpus freezes the sharp, independently cross-checked forms
of the package's headline facts: the worked classification tables, the
equation presentations and their tangent reductions, the hook-product
identities (at box level where that holds, after diagonal collapse
where the box-level statement provably fails — with the counterexample
recorded as an expected inequality), the Euler specialisation, the
finite-field point counts, and a seeded random-instance property sweep.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache

from .components import classify, differential_injective, dimension_recursive, witness_texts
from .diagram import YoungDiagram
from .equations import (
    _without_border,
    ambient_and_bundle,
    check_grading,
    tangent_embedding,
    type_i_ideal,
    type_ii_ideal,
)
from .errors import DomainError, flag, ints, read_json
from .poly import parse_poly, var_a, var_b, var_c
from .pointcount import component_point, count_points
from .rpp import (
    MAX_FACTORIZATION_WEIGHT,
    RPP,
    Factorization,
    all_factorizations,
    complete_factorization,
    enumerate_rpps,
    indicators,
    standard_factorization,
)
from .series import (
    TruncatedSeries,
    collapse_to_diagonals,
    euler_series,
    evaluate_motive,
    hook_product,
    motivic_series,
    rpp_series_bruteforce,
)
from .univariate import monic_divmod

_ROW_KINDS: dict = {}


def _kind(name: str):
    def register(fn):
        _ROW_KINDS[name] = fn
        return fn

    return register


# -- row fields ----------------------------------------------------------------


def _at_least_1(value, what: str) -> None:
    """An int of at least 1: at max_size 0 every series is the constant 1, and 0 cases check nothing."""
    if ints([value], what)[0] < 1:
        raise DomainError("parse-error", f"{what} must be at least 1", value)


def _equation_type(value, what: str) -> None:
    if value not in ("I", "II"):
        raise DomainError("parse-error", f'{what} must be "I" or "II", not {value!r}', value)


#: the typed row fields; run_corpus checks each one a row has before the row runs
_FIELDS = {
    **dict.fromkeys(("max_size", "n_cases"), _at_least_1),
    "seed": lambda value, what: ints([value], what),
    "type": _equation_type,
    **dict.fromkeys(("minimal_border", "expected_equal", "expected_match"), flag),
}


# -- row implementations ------------------------------------------------------


@_kind("classify")
def _row_classify(row: dict) -> list:
    n = RPP.from_text(row["rpp"])
    expected = row["expected"]
    if not isinstance(expected["components"], list):
        raise DomainError("parse-error", '"expected.components" must be a list', expected["components"])
    problems = []
    inds = indicators(n.diagram)
    if len(inds) != expected["n_indicators"]:
        problems.append(f"{len(inds)} indicators != {expected['n_indicators']}")
    if n.weight() != expected["weight"]:
        problems.append(f"weight {n.weight()} != {expected['weight']}")
    reports = classify(n)
    if len(reports) != len(expected["components"]):
        problems.append(f"{len(reports)} components != {len(expected['components'])}")
        return problems
    facts = [r.factorization for r in reports]
    std, comp_idx = (
        None if fact is None else facts.index(fact)
        for fact in (standard_factorization(n), complete_factorization(n))
    )
    if std != expected["standard_index"]:
        problems.append(f"standard factorisation at {std} != {expected['standard_index']}")
    if comp_idx != expected["complete_index"]:
        problems.append(f"complete factorisation at {comp_idx} != {expected['complete_index']}")
    for k, (report, want) in enumerate(zip(reports, expected["components"])):
        got = {
            **report.to_json_obj(),
            "witness": witness_texts(inds, report.relation_witness),
        }
        if not isinstance(want, dict):
            raise DomainError("parse-error", f"component {k} expectation must be an object", want)
        for key, value in want.items():
            if got[key] != value:
                problems.append(f"component {k}: {key} {got[key]!r} != {value!r}")
        if report.dimension != expected["weight"]:
            problems.append(f"component {k}: dimension {report.dimension}")
    return problems


@_kind("equations")
def _row_equations(row: dict) -> list:
    n = RPP.from_text(row["rpp"])
    kind, expected, minimal = row["type"], row["expected"], row.get("minimal_border", False)
    if kind == "I" and minimal:
        raise DomainError("parse-error", '"minimal_border" applies to type II only', minimal)
    if not isinstance(expected, dict):
        raise DomainError("parse-error", 'equations "expected" must be an object', expected)
    tangent = expected.get("tangent")
    if "tangent" in expected and not (
        isinstance(tangent, dict)
        and type(tangent.get("dim")) is int
        and isinstance(tangent.get("degrees"), list)
        and all(type(d) is int for d in tangent["degrees"])
    ):
        need = 'an object with an int "dim" and an int list "degrees"'
        raise DomainError("parse-error", f'"expected.tangent" must be {need}', tangent)
    ideal = type_i_ideal(n) if kind == "I" else type_ii_ideal(n, minimal_border=minimal)
    problems = []
    for key, got in [
        ("n_vars", ideal.n_vars),
        ("n_generators", ideal.n_generators),
        ("group_sizes", ideal.group_sizes()),
        ("condition_count", ideal.condition_count),
    ]:
        if key in expected and got != expected[key]:
            problems.append(f"{key} {got} != {expected[key]}")
    if ideal.n_vars - ideal.condition_count != n.weight():
        problems.append("vars minus conditions is not the weight")
    if not check_grading(ideal):
        problems.append("presentation is not homogeneous")
    if "first_generator" in expected and not ideal.generators:
        problems.append("first generator expected, but there are no generators")
    elif "first_generator" in expected:
        got = str(ideal.generators[0])
        if got != expected["first_generator"]:
            problems.append(f"first generator {got!r}")
        if parse_poly(got) != ideal.generators[0]:
            problems.append("first generator does not round-trip")
    if "tangent" in expected:
        dim, reduced = tangent_embedding(ideal)
        if dim != tangent["dim"]:
            problems.append(f"tangent dimension {dim} != {tangent['dim']}")
        degrees = reduced.generator_degrees()
        if degrees != tangent["degrees"]:
            problems.append(f"reduced degrees {degrees} != {tangent['degrees']}")
    return problems


@_kind("ambient")
def _row_ambient(row: dict) -> list:
    n = RPP.from_text(row["rpp"])
    summary = ambient_and_bundle(n)
    problems = []
    if summary.to_json_obj() != row["expected"]:
        problems.append(f"{summary.to_json_obj()} != {row['expected']}")
    if summary.expected_dim != n.weight():
        problems.append("expected dimension is not the weight")
    return problems


@_kind("gansner-box")
def _row_gansner_box(row: dict) -> list:
    diagram, max_size, expected_equal = YoungDiagram(row["cols"]), row["max_size"], row["expected_equal"]
    lhs = rpp_series_bruteforce(diagram, max_size)
    rhs = hook_product(diagram, 1, -1, max_size)
    problems = []
    if (lhs == rhs) != expected_equal:
        problems.append(f"box-level equality is {lhs == rhs}")
    if not expected_equal:
        lhs_only = tuple(row["lhs_only"])
        rhs_only = tuple(row["rhs_only"])
        if not (lhs.coefficient(lhs_only) == (1,) and not rhs.coefficient(lhs_only)):
            problems.append(f"recorded sum-side counterexample {lhs_only} is stale")
        if not (rhs.coefficient(rhs_only) == (1,) and not lhs.coefficient(rhs_only)):
            problems.append(f"recorded product-side counterexample {rhs_only} is stale")
    return problems


@_kind("gansner-diagonal")
def _row_gansner_diagonal(row: dict) -> list:
    diagram, max_size = YoungDiagram(row["cols"]), row["max_size"]
    lhs = collapse_to_diagonals(diagram, rpp_series_bruteforce(diagram, max_size))
    rhs = collapse_to_diagonals(diagram, hook_product(diagram, 1, -1, max_size))
    if lhs != rhs:
        return ["diagonal-collapsed series differ"]
    return []


@_kind("euler-single")
def _row_euler_single(row: dict) -> list:
    diagram, max_size = YoungDiagram(row["cols"]), row["max_size"]
    series = euler_series(diagram, row["chi"], max_size, single_variable=True)
    problems = []
    if "hook_lengths" in row["expected"]:
        got = sorted((diagram.hook_length(b) for b in diagram.boxes), reverse=True)
        if got != row["expected"]["hook_lengths"]:
            problems.append(f"hook lengths {got}")
    got = {str(exp[0]): evaluate_motive(c, 1) for exp, c in series.coefficients.items()}
    if got != row["expected"]["coefficients"]:
        problems.append(f"coefficients {got}")
    if row["chi"] == 1:
        counts = {}
        for rpp in enumerate_rpps(diagram, max_size):
            counts[str(rpp.size)] = counts.get(str(rpp.size), 0) + 1
        if counts != got:
            problems.append("series disagrees with direct enumeration")
    return problems


@_kind("motivic-specialization")
def _row_motivic_specialization(row: dict) -> list:
    diagram, max_size = YoungDiagram(row["cols"]), row["max_size"]
    problems = []
    if motivic_series(diagram, "A1", max_size).substitute_L(1) != euler_series(diagram, 1, max_size):
        problems.append("affine-line series at L=1 is not the chi=1 Euler series")
    if motivic_series(diagram, "P1", max_size).substitute_L(1) != euler_series(diagram, 2, max_size):
        problems.append("projective-line series at L=1 is not the chi=2 Euler series")
    return problems


@_kind("count-points")
def _row_count_points(row: dict) -> list:
    n, p = RPP.from_text(row["rpp"]), row["p"]
    count = count_points(n, p)
    coeff = motivic_series(n.diagram, "A1", n.size).coefficient(n.values)
    motive = evaluate_motive(coeff, p)
    problems = []
    if count != row["expected_count"]:
        problems.append(f"count {count} != {row['expected_count']}")
    if motive != row["expected_motive_box"]:
        problems.append(f"box coefficient {motive} != {row['expected_motive_box']}")
    if (count == motive) != row["expected_match"]:
        problems.append(f"match is {count == motive}")
    return problems


@_kind("count-points-diagonal")
def _row_count_points_diagonal(row: dict) -> list:
    diagram, p, max_size = YoungDiagram(row["cols"]), row["p"], row["max_size"]
    counts = {rpp.values: count_points(rpp, p) for rpp in enumerate_rpps(diagram, max_size)}
    counted = _diagonal_totals(diagram, TruncatedSeries(diagram.size, max_size, counts), p)
    predicted = _diagonal_totals(diagram, motivic_series(diagram, "A1", max_size), p)
    if counted != predicted:
        diff = sorted(set(counted.items()) ^ set(predicted.items()))
        return [f"diagonal totals differ, first at {diff[0]}"]
    return []


def _diagonal_totals(diagram, series, p: int) -> dict:
    """Nonzero coefficients at L = p of the series collapsed along diagonals."""
    collapsed = collapse_to_diagonals(diagram, series).coefficients
    totals = {k: evaluate_motive(c, p) for k, c in collapsed.items()}
    return {k: v for k, v in totals.items() if v}


@_kind("random-properties")
def _row_random_properties(row: dict) -> list:
    failures = run_random_properties(row["seed"], row["n_cases"])
    problems = [f"{len(failures)} of {row['n_cases']} cases failed"] if failures else []
    return problems + failures[:3]


# -- seeded random-instance property sweep ------------------------------------

#: boxes of a random instance's diagram, and its largest label
RANDOM_MAX_BOXES = 6
RANDOM_MAX_ENTRY = 5


@lru_cache(maxsize=None)
def _diagram(cols: tuple[int, ...]) -> YoungDiagram:
    """One diagram per shape of at most RANDOM_MAX_BOXES boxes, shared by the draws."""
    return YoungDiagram(cols)


def random_instance(rng: random.Random) -> RPP:
    """A random RPP on a random diagram, conditioned to the search caps."""
    while True:
        cols = []
        budget = rng.randint(1, RANDOM_MAX_BOXES)
        height = budget
        while budget > 0:
            h = rng.randint(1, min(height, budget))
            cols.append(h)
            height = h
            budget -= h
        diagram = _diagram(tuple(cols))
        values = [0] * (diagram.size + 1)  # the trailing 0 is the zero extension
        for p, (l, u) in enumerate(zip(diagram.left, diagram.up)):
            floor = max(values[l], values[u])
            values[p] = min(RANDOM_MAX_ENTRY, floor + rng.choice((0, 0, 1, 1, 2)))
        n = RPP(diagram, values[:-1])
        if n.weight() <= MAX_FACTORIZATION_WEIGHT:
            return n


def _random_nested_polynomials(rng: random.Random, n: RPP, fact: Factorization) -> list:
    """Monic integer polynomials per box, row-major, nested by left/up divisibility.

    ``fact`` is the standard factorisation of ``n`` (the empty complete one
    when ``n`` is zero, which has no standard one); each of its indicators
    draws one random monic factor, and ``component_point`` multiplies them.
    """
    factors = [(*[rng.randint(-3, 3) for _ in range(m)], 1) for m in fact.terms.values()]
    return component_point(n.diagram, fact, factors)


def check_random_instance(rng: random.Random) -> list:
    """All random-instance invariants for one instance; empty when clean."""
    n = random_instance(rng)
    label = n.to_text()
    problems = []
    omega = n.weight()
    if dimension_recursive(n) != omega:
        problems.append(f"{label}: recursive dimension != weight")
    facts = all_factorizations(n)
    if any(f.length != omega for f in facts):
        problems.append(f"{label}: a factorisation length differs from the weight")
    named = [f for f in (standard_factorization(n), complete_factorization(n)) if f is not None]
    # the named factorisations often coincide, and at weight <= 3 are among facts: test each once
    tested = dict.fromkeys(named + facts if omega <= 3 else named)
    smooth = {f: differential_injective(f)[0] for f in tested}
    for fact in named:
        if not smooth[fact]:
            problems.append(f"{label}: standard/complete component not smooth")
    if omega <= 3:
        for fact in facts:
            if not smooth[fact]:
                problems.append(f"{label}: weight <= 3 component not smooth")
    full = type_ii_ideal(n)
    presentations = {"I": type_i_ideal(n), "II": full, "II-minimal": _without_border(full)}
    for tag, ideal in presentations.items():
        if ideal.n_vars - ideal.condition_count != omega:
            problems.append(f"{label}: type {tag} vars minus conditions != weight")
        if not check_grading(ideal):
            problems.append(f"{label}: type {tag} presentation inhomogeneous")
    # the chart point: a, b and c are the quotients by the constant 1 (index -1,
    # the zero extension), the left and the up neighbour; they share no variable
    diagram = n.diagram
    degrees = (*n.values, 0)
    polys = (*_random_nested_polynomials(rng, n, named[0]), (1,))
    point, undivided = {}, []
    for p, box in enumerate(diagram.boxes):
        for kind, other, maker in (
            ("constant", -1, var_a),
            ("left", diagram.left[p], var_b),
            ("up", diagram.up[p], var_c),
        ):
            quotient, remainder = monic_divmod(polys[p], polys[other])
            if any(remainder):
                undivided.append(f"{label}: nested tuple fails {kind} divisibility")
                continue
            degree = degrees[p] - degrees[other]
            for k in range(1, degree + 1):
                point[maker(box.i, box.j, k)] = quotient[degree - k]
    for tag, ideal in presentations.items():
        if any(g.evaluate(point) != 0 for g in ideal.generators):
            problems.append(f"{label}: type {tag} generator nonzero on a nested tuple")
        if undivided:  # a failed division leaves type II variables unassigned
            problems += undivided
            break
    return problems


def run_random_properties(seed: int, n_cases: int) -> list:
    """Run the instance check n_cases times; the failure messages."""
    rng = random.Random(seed)
    failures = []
    for _ in range(n_cases):
        failures.extend(check_random_instance(rng))
    return failures


# -- corpus loading and running -----------------------------------------------


def load_corpus(path: str | None = None) -> dict:
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "verify_corpus.json")
    corpus = read_json(path, "corpus", str(path))
    rows = corpus.get("rows") if isinstance(corpus, dict) else None
    if not rows:
        raise DomainError("parse-error", "verify corpus has no rows", str(path))
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise DomainError("parse-error", "verify corpus rows must be JSON objects", str(path))
    return corpus


def run_corpus(corpus: dict) -> list:
    """Replay every row; list of (name, passed, detail)."""
    results = []
    for row in corpus["rows"]:
        name = row.get("name", "<unnamed>")
        if not isinstance(name, str):
            results.append((repr(name), False, f'parse-error: "name" must be a string, not {name!r}'))
            continue
        kind = row.get("kind")
        fn = _ROW_KINDS.get(kind) if isinstance(kind, str) else None
        if fn is None:
            results.append((name, False, f"unknown row kind {kind!r}"))
            continue
        try:
            for key, check in _FIELDS.items():
                if key in row:
                    check(row[key], f'"{key}"')
            problems = fn(row)
        except DomainError as exc:
            problems = [f"{exc.code}: {exc.message}"]
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed row: {exc!r}"]
        if problems:
            results.append((name, False, "; ".join(problems)))
        else:
            results.append((name, True, "ok"))
    return results
