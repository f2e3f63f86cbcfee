"""Acceptance gate: seven headline checks, one verdict line each.

Each test prints ``criterion N: PASS/FAIL`` with supporting detail and a
wall-clock reading, then fails the build when the check does not hold.
Six of the checks replay rows of the bundled verification corpus, the one
record of the paper's worked examples, through ``verify.run_corpus``, and
pass exactly when their rows do; criteria 4 and 7 add rows built on the
bundled ones' kinds.  One check fails by design of this suite: criterion
5 asserts the box-refined product expansion, which is false on any shape
with a repeated diagonal (smallest: the 2x2 square), and its verdict line
carries the counterexample.  Its diagonal-collapsed form is checked by
the corpus's gansner-diagonal rows.  Criterion 7 asserts what the point
counter promises: diagonal totals on every shape of at most 4 boxes,
which on a shape with distinct diagonals is per-filling equality with the
box coefficient; the corpus row count-points-square-refinement-gap
asserts the square's per-filling gap.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from rpphilb import YoungDiagram
from rpphilb.series import hook_product, rpp_series_bruteforce
from rpphilb.verify import run_corpus

from conftest import corpus_row
from shapes import diagrams_up_to


def _verdict(criterion, ok, detail, started, limit):
    elapsed = time.monotonic() - started
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) - {detail}"
    print(line)
    assert elapsed < limit, f"criterion {criterion} exceeded the {limit}s budget"
    if not ok:
        pytest.fail(line)


def _replay(criterion, summary, rows, started, limit):
    """The criterion's verdict: every row passes ``run_corpus``."""
    results = run_corpus({"rows": rows})
    failed = [f"{name}: {detail}" for name, passed, detail in results if not passed]
    detail = f"{summary}: {len(rows) - len(failed)}/{len(rows)} corpus rows pass"
    _verdict(criterion, not failed, "; ".join([detail, *failed]), started, limit)


def _bundled(*names):
    return [corpus_row(name) for name in names]


def test_criterion_1_square_example():
    started = time.monotonic()
    _replay(1, "the square's classification", _bundled("square-classification"), started, 1.0)


def test_criterion_2_grid_example():
    started = time.monotonic()
    _replay(2, "the grid's classification", _bundled("grid-classification"), started, 10.0)


def test_criterion_3_grid_equations():
    started = time.monotonic()
    rows = _bundled("equations-type-i", "equations-type-ii", "ambient-bundle")
    _replay(3, "the grid's two presentations, tangent reduction and ambient chart", rows, started, 30.0)


def test_criterion_4_random_property_suite():
    started = time.monotonic()
    row = {**corpus_row("random-properties"), "n_cases": 260}
    _replay(4, f"the random-instance sweep at seed {row['seed']}, 260 instances", [row], started, 120.0)


def test_criterion_5_box_product_expansion():
    started = time.monotonic()
    outcomes = []
    ok = True
    for cols in ((2, 2), (2, 1), (3, 1)):
        diagram = YoungDiagram(cols)
        lhs = rpp_series_bruteforce(diagram, 8)
        rhs = hook_product(diagram, 1, -1, 8)
        if lhs == rhs:
            outcomes.append(f"{list(cols)}: equal")
        else:
            ok = False
            missing = sorted(
                k
                for k, c in lhs.coefficients.items()
                if c and not rhs.coefficient(k)
            )
            extra = sorted(
                k
                for k, c in rhs.coefficients.items()
                if c and not lhs.coefficient(k)
            )
            outcomes.append(
                f"{list(cols)}: NOT equal - sum side only {missing[:1]}, "
                f"product side only {extra[:1]} (repeated diagonal; the "
                f"diagonal-collapsed forms agree, see the corpus's gansner-diagonal rows)"
            )
    _verdict(5, ok, "; ".join(outcomes), started, 30.0)


def test_criterion_6_euler_hook_check():
    started = time.monotonic()
    rows = _bundled("euler-single-square", "motivic-specialization-square")
    _replay(6, "the square's single-variable counts and hooks, and the affine line at L = 1", rows, started, 10.0)


def test_criterion_7_point_count_oracle():
    # each diagonal of a shape with distinct diagonals holds one box, so there
    # the diagonal totals are the per-filling counts against the box coefficient
    started = time.monotonic()
    shapes = diagrams_up_to(4)
    rows = [
        {"name": f"count-points-diagonal-{d.to_text()}-p{p}", "kind": "count-points-diagonal",
         "cols": list(d.cols), "p": p, "max_size": 6}
        for d in shapes
        for p in (2, 3)
    ]
    rows += _bundled("count-points-domino-p2", "count-points-domino-p3", "count-points-square-refinement-gap")
    summary = (
        f"diagonal totals at p = 2, 3 to size 6 on the {len(shapes)} shapes of at most 4 boxes, "
        "the domino's counts and the square's refinement gap"
    )
    _replay(7, summary, rows, started, 300.0)


def test_the_ci_gate_passes_only_when_criterion_5_alone_fails(tmp_path):
    # tests/gate.py reads the junit report; a collection error is an error case named by its module
    case = '<testcase classname="{}" name="{}">{}</testcase>'
    criterion_5 = case.format("tests.test_acceptance", "test_criterion_5_box_product_expansion", "<failure/>")
    passing, failing = (case.format("tests.test_cli", "test_budget_env_override", tag) for tag in ("", "<failure/>"))
    reports = {
        (criterion_5, passing): 0,
        (criterion_5, failing): 1,
        (criterion_5, case.format("", "tests.test_cli", '<error message="collection failure"/>')): 1,
        (criterion_5.replace("<failure/>", ""), passing): 1,
    }
    gate = Path(__file__).with_name("gate.py")
    for k, (cases, code) in enumerate(reports.items()):
        junit = tmp_path / f"tier1-{k}.xml"
        junit.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
        assert subprocess.run([sys.executable, gate, junit], capture_output=True).returncode == code, cases
