"""Conjugation and zero padding as oracles.

The scheme of a filling's transpose, on the conjugate shape, is the same
moduli space with the two nesting directions swapped, and a zero row on
top or a zero column at the left adds only empty subschemes.  So every
answer is invariant, or maps by a known rule, under both.
"""

import random
from collections import Counter

import pytest

from rpphilb import (
    RPP,
    CapExceeded,
    YoungDiagram,
    all_factorizations,
    ambient_and_bundle,
    classify,
    count_points,
    enumerate_rpps,
    motivic_series,
    tangent_embedding,
    type_i_ideal,
    type_ii_ideal,
)

from conftest import conjugate, diagrams_up_to, filling_of_weight, pad


def conjugate_shape(d):
    """Column heights of the conjugate diagram."""
    return tuple(sum(1 for c in d.cols if c > r) for r in range(d.cols[0]))


def _presentations(n):
    return (type_i_ideal(n), type_ii_ideal(n), type_ii_ideal(n, minimal_border=True))


def _factorization_texts(n):
    """Each factorisation as its set of (indicator text, multiplicity)."""
    return {frozenset((nu.to_text(), m) for nu, m in f.terms.items()) for f in all_factorizations(n)}


def _conjugate_text(text):
    return conjugate(RPP.from_text(text)).to_text()


def test_conjugation_keeps_every_answer_on_small_fillings():
    fillings = [n for d in diagrams_up_to(6) for n in enumerate_rpps(d, 4)]
    assert len(fillings) == 590

    def answers(n):
        return (
            n.weight(),
            Counter((r.dimension, r.smooth, r.factorization.length) for r in classify(n)),
            [count_points(n, p) for p in (2, 3)],
            [
                (I.n_vars, I.condition_count, I.generator_degrees(), tangent_embedding(I)[0])
                for I in _presentations(n)
            ],
            ambient_and_bundle(n),
        )

    for n in fillings:
        t = conjugate(n)
        assert t.diagram.size == n.diagram.size and conjugate(t) == n
        assert answers(t) == answers(n), n.to_text()
        # the factorisations map onto each other indicator by indicator
        assert _factorization_texts(t) == {
            frozenset((_conjugate_text(text), m) for text, m in f) for f in _factorization_texts(n)
        }, n.to_text()


def test_conjugation_keeps_point_counts_past_total_4():
    fillings = [n for d in diagrams_up_to(5) for n in enumerate_rpps(d, 7) if n.size > 4]
    for n in fillings:
        assert count_points(conjugate(n), 2) == count_points(n, 2), n.to_text()


def _component_sizes(n):
    """The multiset of (smooth, dimension, Σ|witness|): a witness's entries follow the indicator order."""
    return Counter((r.smooth, r.dimension, sum(map(abs, r.relation_witness or ()))) for r in classify(n))


def test_conjugation_keeps_the_components_on_heavier_fillings():
    rng = random.Random(20261019)
    # shapes of 7 to 12 boxes that are not their own conjugate
    shapes = [d for d in diagrams_up_to(12) if d.size >= 7 and conjugate_shape(d) != d.cols]
    for d in rng.sample(shapes, 40):
        n = filling_of_weight(rng, d, rng.randint(6, 10))
        t = conjugate(n)
        assert t.diagram.cols == conjugate_shape(d)
        assert _component_sizes(t) == _component_sizes(n), n.to_text()


def _permuted(d, series):
    """A series on d's boxes with each exponent vector moved to the conjugate diagram's boxes."""
    t = YoungDiagram(conjugate_shape(d))
    position = {(b.j, b.i): p for p, b in enumerate(d.boxes)}
    order = [position[(b.i, b.j)] for b in t.boxes]
    return {tuple(e[p] for p in order): c for e, c in series.coefficients.items()}


@pytest.mark.parametrize("curve", ["A1", "P1"])
def test_conjugation_permutes_the_series_box_by_box(curve):
    for d in diagrams_up_to(6):
        t = YoungDiagram(conjugate_shape(d))
        assert motivic_series(t, curve, 6).coefficients == _permuted(d, motivic_series(d, curve, 6)), d.cols


def test_zero_padding_keeps_every_answer_on_small_fillings():
    fillings = [n for d in diagrams_up_to(5) for n in enumerate_rpps(d, 4)]
    assert len(fillings) == 305

    def answers(n):
        # the border adds variables and conditions alike, so only their differences are kept
        return (
            n.weight(),
            Counter((r.smooth, r.dimension) for r in classify(n)),
            count_points(n, 2),
            [(I.n_vars - I.condition_count, tangent_embedding(I)[0]) for I in _presentations(n)],
            ambient_and_bundle(n).expected_dim,
        )

    for n in fillings:
        want = answers(n)
        for side in ("row", "column"):
            m = pad(n, side)
            assert m.diagram.size > n.diagram.size and answers(m) == want, (n.to_text(), side)


#: fillings that a cap refuses, with the call and the code
REFUSED = [
    # weight 13 is past the search cap, and is refused before the 31 boxes' indicators
    (RPP(YoungDiagram((31,)), [0] * 30 + [13]), classify, "search-too-large"),
    # weight 12 is within it, but 31 boxes are past the indicator table's size
    (RPP(YoungDiagram((31,)), [0] * 30 + [12]), classify, "diagram-too-large"),
    # 83 indicators are past the factorisation search's cap
    (RPP.from_text("0 0 0 0 0 1 / 0 0 0 0 1 2 / 0 0 0 1 2 3"), classify, "search-too-large"),
    # 7^9 candidate tuples are past the point count's budget
    (RPP.from_text("0 1 2 3 / 1 2 3 / 2"), lambda n: count_points(n, 7), "budget-exceeded"),
]


@pytest.mark.parametrize("case", range(len(REFUSED)))
def test_a_refusal_is_symmetric(case):
    n, call, code = REFUSED[case]
    for m in (n, conjugate(n), pad(n, "row"), pad(n, "column")):
        with pytest.raises(CapExceeded) as err:
            call(m)
        assert err.value.code == code, m.to_text()
