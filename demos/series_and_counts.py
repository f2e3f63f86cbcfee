"""Generating series and finite-field counts, including the refinement gap.

The product over boxes of geometric factors in the hook variables predicts
the filling-by-filling generating function only when all hook diagonals are
distinct.  On the 2x2 square the box-refined identity fails; collapsing
exponents along diagonals repairs it, and the same gap shows up in point
counts over small prime fields.

Run with:  python3 demos/series_and_counts.py
"""

from rpphilb import RPP, YoungDiagram
from rpphilb.pointcount import count_points
from rpphilb.series import (
    collapse_to_diagonals,
    euler_series,
    evaluate_motive,
    format_coefficient,
    hook_product,
    motivic_series,
    rpp_series_bruteforce,
)

square = YoungDiagram((2, 2))

print("== single-variable counts ==")
series = euler_series(square, 1, 10, single_variable=True)
counts = [format_coefficient(series.coefficient((k,))) for k in range(11)]
print("fillings of the square by total size 0..10:", ", ".join(counts))
print()

print("== box-refined product expansion ==")
for cols in ((2, 1), (3, 1), (2, 2)):
    diagram = YoungDiagram(cols)
    lhs = rpp_series_bruteforce(diagram, 6)
    rhs = hook_product(diagram, 1, -1, 6)
    status = "EQUAL" if lhs == rhs else "NOT EQUAL"
    print(f"shape {list(cols)}: enumeration vs product -> {status}")
print()
lhs = rpp_series_bruteforce(square, 4)
rhs = hook_product(square, 1, -1, 4)
print("on the square, each side owns a monomial the other misses:")
print("  exponent (0,1,1,1): enumeration", format_coefficient(lhs.coefficient((0, 1, 1, 1))),
      "| product", format_coefficient(rhs.coefficient((0, 1, 1, 1))))
print("  exponent (1,1,1,0): enumeration", format_coefficient(lhs.coefficient((1, 1, 1, 0))),
      "| product", format_coefficient(rhs.coefficient((1, 1, 1, 0))))
collapsed_equal = collapse_to_diagonals(square, lhs) == collapse_to_diagonals(square, rhs)
print("after collapsing exponents along diagonals the sides agree:", collapsed_equal)
print()

print("== point counts over small prime fields ==")
domino = RPP.from_text("1 / 2")
for p in (2, 3):
    print(f"chains for {domino.to_text()!r} over F_{p}: {count_points(domino, p)} (= p^2)")
print()

n = RPP.from_text("0 1 / 1 2")
affine = motivic_series(square, "A1", n.size)
for p in (2, 3):
    counted = count_points(n, p)
    predicted = evaluate_motive(affine.coefficient(tuple(n.values)), p)
    print(
        f"chains for {n.to_text()!r} over F_{p}: {counted}, "
        f"box-refined prediction {predicted} -> "
        + ("match" if counted == predicted else "GAP (repeated diagonal)")
    )
