"""Certify ``classify`` answers from the reports alone, for the tests and for the harness that runs without pytest."""

from math import gcd

from rpphilb import indicators

#: a rank mod this prime is at most the rank over Q, so full rank mod it proves independence
CERT_PRIME = 2**61 - 1


def _rank_mod_p(vectors):
    """Rank over F_P (P = CERT_PRIME) of integer vectors, reduced against an echelon basis keyed by pivot."""
    basis = {}
    for vec in vectors:
        v = [x % CERT_PRIME for x in vec]
        for pivot, b in basis.items():  # each later basis vector is zero at the earlier pivots
            if c := v[pivot]:
                v = [(x - c * y) % CERT_PRIME for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            inverse = pow(v[lead], -1, CERT_PRIME)
            basis[lead] = [x * inverse % CERT_PRIME for x in v]
    return len(basis)


def certify_report(report, inds):
    """Prove a ``classify`` report's flags from the report and ``inds = indicators(λ)``, without linalg.

    Returns "rejected" when a check fails, else "certified", or
    "uncertified" for a bijective singular report whose support has rank
    mod P below |support| − 1: its kernel may have dimension 2 or more,
    which has no short proof.  The checks:
    - smooth: the support has full rank mod P, hence over Q; no witness; bijective;
    - singular: the witness is nonzero, zero off the support, and sums to
      zero box by box;
    - not bijective: the witness fits the multiplicity box;
    - singular and bijective: rank mod P |support| − 1 and the relation w
      make the kernel Q·w, whose integer points are Z·w for a primitive w,
      so a nonzero point fits the box exactly when w does; w must not.
    (McConnell, Mehlhorn, Näher and Schweitzer, "Certifying algorithms",
    Comput. Sci. Rev. 5, 2011.)
    """
    terms = report.factorization.terms
    mults = [terms.get(ind, 0) for ind in inds]
    support_rank = _rank_mod_p(ind.values for ind in terms)
    w = report.relation_witness
    if report.smooth:
        proved = support_rank == len(terms) and w is None and report.bijective_on_points
        return "certified" if proved else "rejected"
    if w is None or not any(w) or any(c and not m for c, m in zip(w, mults)):
        return "rejected"
    if any(sum(c * ind.values[box] for c, ind in zip(w, inds)) for box in range(len(inds[0].values))):
        return "rejected"
    fits = all(abs(c) <= m for c, m in zip(w, mults))
    if not report.bijective_on_points:
        return "certified" if fits else "rejected"
    if support_rank < len(terms) - 1:
        return "uncertified"
    return "certified" if gcd(*w) == 1 and not fits else "rejected"


def report_faults(n, reports) -> list:
    """How each of ``classify(n)``'s reports fails, one line per failing report; [] when all hold.

    Each factorisation must total n (summed here, since ``Factorization.total()``
    refuses the zero filling's empty one) and have the weight as its length
    and the report's dimension, and ``certify_report`` must prove the flags.
    """
    inds, weight = indicators(n.diagram), n.weight()
    faults = []
    for k, report in enumerate(reports):
        fact = report.factorization
        total = tuple(sum(m * ind.values[b] for ind, m in fact.terms.items()) for b in range(n.diagram.size))
        if total != n.values:
            faults.append(f"component {k} does not total the filling")
        elif not fact.length == report.dimension == weight:
            faults.append(f"component {k} has length {fact.length} and dimension {report.dimension}, not {weight}")
        elif (verdict := certify_report(report, inds)) != "certified":
            faults.append(f"component {k} {verdict}")
    return faults
