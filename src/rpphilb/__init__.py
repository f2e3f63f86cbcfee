"""Reverse-plane-partition monoid combinatorics and local models for
double nested Hilbert schemes of points on smooth curves.

The package walks the full chain: Young diagrams and their indicator
fillings, the monoid of reverse plane partitions with its factorisation
theory, smooth/singular classification of the components cut out by a
factorisation, explicit local defining equations in two presentations,
truncated motivic and Euler generating series over the boxes, and a
finite-field point count that cross-checks the series.
"""

from .components import (
    ComponentReport,
    bijective_on_points,
    classify,
    differential_injective,
    dimension_recursive,
)
from .diagram import Box, YoungDiagram, enumerate_upper_sets
from .equations import (
    AmbientSummary,
    IdealPresentation,
    ambient_and_bundle,
    check_grading,
    tangent_embedding,
    type_i_ideal,
    type_ii_ideal,
)
from .errors import CapExceeded, DomainError
from .pointcount import PrimeField, count_points, is_prime
from .poly import SparsePoly, VarId, divmod_in_x, parse_poly
from .rpp import (
    RPP,
    Factorization,
    Indicator,
    all_factorizations,
    complete_factorization,
    enumerate_rpps,
    indicators,
    standard_factorization,
)
from .series import (
    TruncatedSeries,
    collapse_to_diagonals,
    diagonal_support,
    euler_series,
    evaluate_motive,
    hook_product,
    motivic_series,
    rpp_series_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientSummary",
    "Box",
    "CapExceeded",
    "ComponentReport",
    "DomainError",
    "Factorization",
    "IdealPresentation",
    "Indicator",
    "PrimeField",
    "RPP",
    "SparsePoly",
    "TruncatedSeries",
    "VarId",
    "YoungDiagram",
    "all_factorizations",
    "ambient_and_bundle",
    "bijective_on_points",
    "check_grading",
    "classify",
    "collapse_to_diagonals",
    "complete_factorization",
    "count_points",
    "diagonal_support",
    "differential_injective",
    "dimension_recursive",
    "divmod_in_x",
    "enumerate_rpps",
    "enumerate_upper_sets",
    "euler_series",
    "evaluate_motive",
    "hook_product",
    "indicators",
    "is_prime",
    "motivic_series",
    "parse_poly",
    "rpp_series_bruteforce",
    "standard_factorization",
    "tangent_embedding",
    "type_i_ideal",
    "type_ii_ideal",
]
