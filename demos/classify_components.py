"""Walk through the component classification on two worked fillings.

Run with:  python3 demos/classify_components.py
"""

from rpphilb import RPP, classify
from rpphilb.rpp import (
    all_factorizations,
    complete_factorization,
    indicators,
    standard_factorization,
)


def show(n: RPP) -> None:
    print(f"filling  {n.to_text()!r}   shape {n.diagram.to_text()}  weight {n.weight()}")
    nus = indicators(n.diagram)
    print(f"  {len(nus)} indicators on this shape")

    std = standard_factorization(n)
    print("  standard factorization :", std)
    comp = complete_factorization(n)
    print("  complete factorization :", comp if comp else "none (derivative has a negative entry)")

    facts = all_factorizations(n)
    print(f"  {len(facts)} factorizations = {len(facts)} irreducible components")

    for k, report in enumerate(classify(n)):
        flags = []
        flags.append("smooth" if report.smooth else "singular")
        if not report.bijective_on_points:
            flags.append("not a bijection on points")
        elif not report.differential_injective:
            flags.append("bijective but differential drops rank")
        print(f"  component {k}: {report.factorization}  [{', '.join(flags)}]")
        if report.relation_witness:
            terms = [
                f"{c:+d}*[{nus[i].to_text()}]"
                for i, c in enumerate(report.relation_witness)
                if c
            ]
            print(f"      witness relation: {' '.join(terms)} = 0")
    print()


if __name__ == "__main__":
    # the smallest filling with a singular component
    show(RPP.from_text("0 2 / 2 4"))
    # a 3x3 example with fifteen components, seven of them singular
    show(RPP.from_text("0 0 3 / 0 2 5 / 3 5 5"))
