"""Reverse-plane-partition monoid combinatorics and local models for
double nested Hilbert schemes of points on smooth curves.

The package walks the full chain: Young diagrams and their indicator
fillings, the monoid of reverse plane partitions with its factorisation
theory, smooth/singular classification of the components cut out by a
factorisation, explicit local defining equations in two presentations,
truncated motivic and Euler generating series over the boxes, and a
finite-field point count that cross-checks the series.

The public names load lazily: ``import rpphilb`` runs no submodule, and
the first use of a name imports only its home module and what that
imports.  A resolved name is not cached here, so a name always reads its
home module's current binding.
"""

import sys

__version__ = "0.1.0"

#: every submodule and the public names it defines
_EXPORTS = {
    "cli": (),
    "components": (
        "ComponentReport", "bijective_on_points", "classify", "differential_injective", "dimension_recursive"
    ),
    "diagram": ("Box", "YoungDiagram", "enumerate_upper_sets"),
    "equations": (
        "AmbientSummary", "IdealPresentation", "ambient_and_bundle", "check_grading",
        "tangent_embedding", "type_i_ideal", "type_ii_ideal",
    ),
    "errors": ("CapExceeded", "DomainError"),
    "linalg": (),
    "pointcount": ("PrimeField", "count_points", "is_prime"),
    "poly": ("SparsePoly", "VarId", "divmod_in_x", "parse_poly"),
    "rpp": (
        "RPP", "Factorization", "Indicator", "all_factorizations", "complete_factorization",
        "enumerate_rpps", "indicators", "standard_factorization",
    ),
    "series": (
        "TruncatedSeries", "collapse_to_diagonals", "diagonal_support", "euler_series",
        "evaluate_motive", "hook_product", "motivic_series", "rpp_series_bruteforce",
    ),
    "univariate": (),
    "verify": (),
}

#: public name -> qualified name of its home module
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        # sys.modules first: callers may read these names inside hot loops
        if home not in sys.modules:
            __import__(home)  # unlike importlib.import_module, seen by -X importtime
        return getattr(sys.modules[home], name)
    if name in _EXPORTS:
        # importing a submodule binds it here, as for an eager package
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
