"""Irreducible-component classification for the double nested scheme of an RPP.

Components correspond to factorisations of the RPP into indicators; every
component has dimension equal to the weight.  A component is smooth exactly
when the indicators in its factorisation's support are linearly independent
(injective differential); it is a bijection on points exactly when the
kernel of the support matrix contains no nonzero integer vector bounded
coordinatewise by the multiplicities.  Smoothness implies bijectivity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import YoungDiagram
from .errors import CapExceeded
from .linalg import kernel_basis, rref, solve_from_rref
from .rpp import RPP, Factorization, all_factorizations, indicators

#: default cap on the lattice-point search in bijective_on_points
MAX_WITNESS_SEARCH = 10**6


def dimension_recursive(n: RPP) -> int:
    """Weight computed by socle-peeling induction instead of the derivative.

    Single-socle diagrams are rectangles, where the answer is the corner
    label.  Otherwise, with the socle boxes ordered by column, either the
    leftmost socle box sits in column i1 > 0 and the first i1 columns can
    be dropped, or it sits in column 0 and the column-0 boxes below the
    next socle row can be removed at the cost of the label difference.
    """
    lam, v = n.diagram, n.values
    soc = sorted(b for b, x in zip(lam.boxes, lam.socle()) if x)
    if len(soc) == 1:
        return v[-1]  # the corner of a rectangle is its last box
    i1, j1 = soc[0]
    rows = n.rows()
    if i1 > 0:
        sub = YoungDiagram(lam.cols[i1:])
        return dimension_recursive(RPP(sub, [x for row in rows for x in row[i1:]]))
    # the rows below j2 hold column 0 alone, so the subdiagram keeps a prefix
    # of the row-major labels and the column-0 socle box (0, j1) is the last box
    i2, j2 = soc[1]
    sub = YoungDiagram((j2 + 1,) + lam.cols[1:])
    return v[-1] - rows[j2][0] + dimension_recursive(RPP(sub, v[: sub.size]))


def _support_matrix(T: Factorization) -> list[tuple[int, ...]]:
    """Box-by-support matrix whose columns are the support indicators."""
    return list(zip(*(ind.values for ind in T.support)))


def _relation(T: Factorization, vector) -> tuple[bool, dict]:
    """A failed test's answer: the kernel vector as {indicator: coefficient}, zeros left out."""
    coeffs = {ind: c for ind, c in zip(T.support, vector) if c}
    total = [0] * T.support[0].diagram.size
    for ind, c in coeffs.items():
        for row, x in enumerate(ind.values):
            if x:
                total[row] += c
    assert not any(total), "relation witness does not reconstruct to zero"
    return False, coeffs


def differential_injective(T: Factorization) -> tuple[bool, dict | None]:
    """Whether the support indicators are linearly independent.

    On failure returns a primitive integer relation as a dict
    {indicator: coefficient} with Σ coeff·indicator = 0.
    """
    if not T.support:
        return True, None
    basis = kernel_basis(_support_matrix(T))
    return _relation(T, basis[0]) if basis else (True, None)


def bijective_on_points(T: Factorization) -> tuple[bool, dict | None]:
    """Whether no integer relation fits inside the multiplicity box.

    Searches for a nonzero integer kernel vector m with |m_ν| ≤ n_ν for
    every support indicator ν (n_ν the multiplicity).  The search assigns
    every free column of the reduced support matrix a value in its box and
    solves for the pivot columns, which visits each rational kernel vector
    at most once, so it is exhaustive within the box.  Box and kernel are
    symmetric under negation, so of each ± pair only the assignment with a
    positive first nonzero value is solved.  Each witness found is signed
    to a positive first nonzero entry, and the one with the smallest
    coefficient sum (then lexicographically smallest) is returned.
    """
    support = T.support
    if not support:
        return True, None
    mults = list(T.terms.values())
    reduced, pivots = rref(_support_matrix(T))
    pivot_set = set(pivots)
    free = [c for c in range(len(support)) if c not in pivot_set]
    if not free:
        return True, None

    combos = 1
    for f in free:
        combos *= 2 * mults[f] + 1
    if combos > MAX_WITNESS_SEARCH:
        raise CapExceeded(
            "search-too-large",
            f"witness box has {combos} lattice points, cap is {MAX_WITNESS_SEARCH}",
            None,
        )

    best: tuple | None = None
    for values in itertools.product(*(range(-mults[f], mults[f] + 1) for f in free)):
        if next((v for v in values if v), 0) <= 0:
            continue
        ints = solve_from_rref(reduced, pivots, dict(zip(free, values)), len(support))
        if ints is None or any(abs(m) > bound for m, bound in zip(ints, mults)):
            continue
        if next(v for v in ints if v) < 0:  # nonzero: its free entries are the nonzero values
            ints = [-v for v in ints]
        score = (sum(abs(m) for m in ints), tuple(ints))
        if best is None or score < best:
            best = score
    return (True, None) if best is None else _relation(T, best[1])


@dataclass(frozen=True)
class ComponentReport:
    factorization: Factorization
    dimension: int
    bijective_on_points: bool
    differential_injective: bool
    relation_witness: tuple | None  # full integer vector over indicators(λ)

    @property
    def smooth(self) -> bool:  # exactly when the differential is injective
        return self.differential_injective

    def to_json_obj(self) -> dict:
        """The report's JSON form; its factorisation's own form is the ``"normalization"``."""
        normalization = self.factorization.to_json_obj()
        return {
            "factorization": {term["indicator"]: term["multiplicity"] for term in normalization},
            "dimension": self.dimension,
            "smooth": self.smooth,
            "bijective_on_points": self.bijective_on_points,
            "differential_injective": self.differential_injective,
            "relation_witness": list(self.relation_witness) if self.relation_witness else None,
            "normalization": normalization,
        }


def witness_texts(inds: list, witness: tuple | None) -> dict | None:
    """A lifted relation witness as {indicator text: coefficient}, zeros left out.

    ``inds`` is ``indicators(λ)``, whose order the witness follows.
    """
    if witness is None:
        return None
    return {ind.to_text(): c for ind, c in zip(inds, witness) if c}


def classify(n: RPP) -> list[ComponentReport]:
    """One report per factorisation, in enumeration order.

    Witnesses are lifted over indicators(λ), fetched after the search so that
    the search's own refusals come first.
    """
    facts = all_factorizations(n)
    dim = facts[0].length  # the search asserts that every length is the weight
    inds = indicators(n.diagram)
    reports = []
    for T in facts:
        inj, diff_witness = differential_injective(T)
        bij, box_witness = bijective_on_points(T)
        witness = diff_witness if bij else box_witness
        lifted = None if witness is None else tuple(witness.get(ind, 0) for ind in inds)
        reports.append(ComponentReport(T, dim, bij, inj, lifted))
    return reports
