"""Local defining equations: both presentations, grading, tangent reduction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rpphilb import RPP, DomainError
from rpphilb.equations import (
    IdealPresentation,
    check_grading,
    tangent_embedding,
    type_i_ideal,
    type_ii_ideal,
)
from rpphilb.poly import SparsePoly, VarId, parse_poly, var_a, var_b, var_c
from rpphilb.rpp import enumerate_rpps
from rpphilb.verify import load_corpus

import frozen_tables as FT
from conftest import (
    diagrams_up_to,
    order_fillings,
    shift_subtract_divmod,
    tangent_by_linear_parts,
    value,
    x_coefficients,
    x_power,
)


def test_grading_is_each_variables_depth():
    rows = [row for row in load_corpus()["rows"] if row["kind"] == "equations"]
    assert rows
    for row in rows:
        n = RPP.from_text(row["rpp"])
        ideals = [type_i_ideal(n), type_ii_ideal(n), type_ii_ideal(n, minimal_border=True)]
        for ideal in ideals + [tangent_embedding(ideal)[1] for ideal in ideals]:
            grading = ideal.to_json_obj()["grading"]
            assert grading == {str(v): v.k for v in ideal.ambient_vars}, row["name"]
            # the depth is the last index of the printed name, a/b/c_i_j_k
            assert all(int(name.rsplit("_", 1)[1]) == k for name, k in grading.items())
            assert check_grading(ideal), row["name"]


def test_tangent_reduction_reports_stall():
    # a presentation whose only linear coefficient is not a unit cannot be
    # eliminated over the integers
    base = type_i_ideal(RPP.from_text("1 / 2"))
    stuck = type(base)(
        ambient_vars=base.ambient_vars,
        generators=[parse_poly("2*a_0_1_2 - a_0_0_1^2")],
        groups=[("block", 1)],
        condition_count=1,
    )
    with pytest.raises(DomainError) as err:
        tangent_embedding(stuck)
    assert err.value.code == "no-eliminable-variable"


REFUSE_INHOMOGENEOUS = """
from rpphilb import DomainError
from rpphilb.equations import IdealPresentation, tangent_embedding
from rpphilb.poly import parse_poly, var_a
# a_0_0_1 is linear with a unit coefficient but also sits in a_0_0_1*a_1_0_1,
# so solving for it would not remove it
bad = IdealPresentation(
    ambient_vars=(var_a(0, 0, 1), var_a(1, 0, 1)),
    generators=(parse_poly("a_0_0_1 + a_0_0_1*a_1_0_1"),),
)
try:
    tangent_embedding(bad)
except DomainError as err:
    print(err.code, err.message)
"""


def test_tangent_reduction_refuses_an_inhomogeneous_presentation():
    # the refusal is a check, not an assert, so it holds under python -O too
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", REFUSE_INHOMOGENEOUS], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0,
            "parse-error tangent reduction requires a homogeneous presentation\n",
            "",
        ), flags


def test_tangent_reduction_matches_linear_part_oracle():
    fillings = [n for d in diagrams_up_to(5) for n in enumerate_rpps(d, 4)]
    assert len(fillings) == 305
    cases = [
        (n, ideal)
        for n in fillings + [RPP.from_text(FT.EVEN_GRID_TEXT)]
        for ideal in (type_i_ideal(n), type_ii_ideal(n), type_ii_ideal(n, minimal_border=True))
    ]
    # on the step-3 grid the oracle runs 20 times slower than the library for type I,
    # whose stdout digest is frozen instead
    triple = RPP.from_text(FT.TRIPLE_GRID_TEXT)
    cases += [(triple, type_ii_ideal(triple)), (triple, type_ii_ideal(triple, minimal_border=True))]
    for n, ideal in cases:
        dim, reduced = tangent_embedding(ideal)
        want_dim, want = tangent_by_linear_parts(ideal)
        assert (dim, reduced.to_json_obj()) == (want_dim, want.to_json_obj()), n.to_text()
        assert check_grading(reduced), n.to_text()


def test_minimal_presentation_is_a_complete_intersection_after_reduction():
    # the reduced type II minimal chart cuts the weight out of the tangent space
    # with exactly codimension-many equations, and type I sees the same tangent space
    fillings = [n for d in diagrams_up_to(6) for n in enumerate_rpps(d, 5)]
    assert len(fillings) == 976
    for n in fillings:
        dim, reduced = tangent_embedding(type_ii_ideal(n, minimal_border=True))
        assert reduced.n_generators == dim - n.weight(), n.to_text()
        assert tangent_embedding(type_i_ideal(n))[0] == dim, n.to_text()


def test_tangent_elimination_order_is_pinned(monkeypatch):
    """Depth first, then canonical variable order, then generator order.

    The reduced presentation alone cannot show the order across depths:
    eliminating a variable of depth d changes the linear parts of degree-d
    generators only (elsewhere it sits in monomials of two or more
    factors), so each depth makes the same choices however the depths
    interleave, and the variables it eliminates are solved for uniquely.
    The order is read off the substitutions the reduction makes instead.
    """
    ambient = (var_a(0, 0, 2), var_a(1, 0, 1), var_a(0, 1, 1), var_a(1, 1, 1), var_a(1, 1, 2))
    w, p, q, r, z = (SparsePoly.variable(v) for v in ambient)
    ideal = IdealPresentation(
        ambient_vars=ambient,
        generators=(
            w - p * q,  # w at depth 2 has the least variable order, but depth 1 goes first
            p - q,  # p before q: variable order
            r - p,  # p is eliminable here too, but from p - q first: generator order
            w * r + z * q + p**3,
        ),
    )
    made = []
    substitute = SparsePoly.substitute

    def recording(self, assignments):
        made.extend((str(v), str(image)) for v, image in assignments.items())
        return substitute(self, assignments)

    monkeypatch.setattr(SparsePoly, "substitute", recording)
    dim, reduced = tangent_embedding(ideal)
    assert list(dict.fromkeys(made)) == [
        ("a_1_0_1", "a_0_1_1"),
        ("a_0_1_1", "a_1_1_1"),
        ("a_0_0_2", "a_1_1_1^2"),
    ]
    # r and z remain: p and q sort before r, so they are eliminated first
    assert (dim, reduced.to_json_obj()["ambient_vars"], [str(g) for g in reduced.generators]) == (
        2,
        ["a_1_1_1", "a_1_1_2"],
        ["2*a_1_1_1^3 + a_1_1_1*a_1_1_2"],
    )
    monkeypatch.undo()
    want_dim, want = tangent_by_linear_parts(ideal)
    assert (dim, reduced.to_json_obj()) == (want_dim, want.to_json_obj())


# -- coordinate-based type II, kept as the oracle for the neighbour-table build --


def _difference_factor(n, box, kind):
    """L (kind 'b', row difference) or U (kind 'c', column difference) at a box."""
    i, j = box
    if i < 0 or j < 0:
        return SparsePoly.constant(1)
    if kind == "b":
        d = value(n, box) - value(n, (i - 1, j))
        mk = var_b
    else:
        d = value(n, box) - value(n, (i, j - 1))
        mk = var_c
    p = x_power(d)
    for k in range(1, d + 1):
        p = p + SparsePoly.variable(mk(i, j, k)) * x_power(d - k)
    return p


def _type_ii_oracle(n, minimal_border):
    """(ambient vars, generators, groups, condition count) read off by coordinates."""
    lam = n.diagram

    def keep_b(box):
        return not (minimal_border and box.i == 0 and box.j >= 1)

    def keep_c(box):
        return not (minimal_border and box.j == 0)

    b_vars = [
        var_b(b.i, b.j, k)
        for b in lam.boxes
        if keep_b(b)
        for k in range(1, value(n, b) - value(n, (b.i - 1, b.j)) + 1)
    ]
    c_vars = [
        var_c(b.i, b.j, k)
        for b in lam.boxes
        if keep_c(b)
        for k in range(1, value(n, b) - value(n, (b.i, b.j - 1)) + 1)
    ]
    ambient = tuple(sorted(b_vars + c_vars, key=lambda v: v.sort_key()))
    generators, groups = [], []
    for box in lam.boxes:
        if minimal_border and (box.i == 0 or box.j == 0):
            continue
        D = value(n, box) - value(n, (box.i - 1, box.j - 1))
        if D == 0:
            continue
        eq = _difference_factor(n, box, "b") * _difference_factor(
            n, (box.i - 1, box.j), "c"
        ) - _difference_factor(n, box, "c") * _difference_factor(n, (box.i, box.j - 1), "b")
        coeffs = x_coefficients(eq)
        coeffs += [SparsePoly.constant(0)] * (D - len(coeffs))
        generators.extend(coeffs[deg] for deg in range(D - 1, -1, -1))
        groups.append({"box": list(box), "divisor_box": None, "size": D})
    return ambient, tuple(generators), tuple(groups), len(generators)


def test_type_ii_matches_coordinate_oracle():
    fillings = [n for d in diagrams_up_to(5) for n in enumerate_rpps(d, 4)]
    assert len(fillings) == 305
    for n in fillings:
        for minimal_border in (False, True):
            ideal = type_ii_ideal(n, minimal_border=minimal_border)
            got = (ideal.ambient_vars, ideal.generators, ideal.groups, ideal.condition_count)
            assert got == _type_ii_oracle(n, minimal_border), (n.to_text(), minimal_border)


def test_type_ii_ambient_ring_is_built_in_variable_order():
    for n in order_fillings():
        full = type_ii_ideal(n)
        for ideal in (full, type_ii_ideal(n, minimal_border=True)):
            assert ideal.ambient_vars == tuple(sorted(ideal.ambient_vars, key=VarId.sort_key)), n.to_text()
    assert any(v.kind == "b" for v in full.ambient_vars) and any(v.kind == "c" for v in full.ambient_vars)


# -- x-power type I, kept as the oracle for the coefficient-tuple build ---------


def _x_power_monic(n, box):
    """x^d + a(i,j,1)·x^(d-1) + … + a(i,j,d) as one SparsePoly, d the label at box."""
    i, j = box
    d = value(n, box)
    p = x_power(d)
    for k in range(1, d + 1):
        p = p + SparsePoly.variable(var_a(i, j, k)) * x_power(d - k)
    return p


def _type_i_oracle(n):
    """(ambient vars, generators, groups, condition count) by dividing x-power monics."""
    lam = n.diagram
    ambient = tuple(var_a(b.i, b.j, k) for b in lam.boxes for k in range(1, value(n, b) + 1))
    generators, groups, conditions = [], [], 0
    for i, j in lam.boxes:
        conditions += value(n, (i - 1, j)) + value(n, (i, j - 1)) - value(n, (i - 1, j - 1))
        for nb in ((i - 1, j), (i, j - 1)):
            d = value(n, nb)  # 0 also off the diagram
            if d == 0:
                continue
            _, r = shift_subtract_divmod(_x_power_monic(n, (i, j)), _x_power_monic(n, nb))
            coeffs = x_coefficients(r)
            coeffs += [SparsePoly.constant(0)] * (d - len(coeffs))
            generators.extend(coeffs[::-1])
            groups.append({"box": [i, j], "divisor_box": list(nb), "size": d})
    return ambient, tuple(generators), tuple(groups), conditions


def test_type_i_matches_x_power_oracle():
    fillings = [n for d in diagrams_up_to(5) for n in enumerate_rpps(d, 4)]
    assert len(fillings) == 305
    for n in fillings:
        ideal = type_i_ideal(n)
        got = (ideal.ambient_vars, ideal.generators, ideal.groups, ideal.condition_count)
        assert got == _type_i_oracle(n), n.to_text()
