"""Frozen expected values shared by the unit and acceptance tests.

Every table here was produced by an independent computation (brute force
enumeration, exact rational linear algebra, or hand calculation on the
worked examples) and is asserted verbatim against library output.  Keys
are indicator text forms so the tables do not depend on any particular
numbering convention.
"""

SQUARE_TEXT = "0 2 / 2 4"

# Canonical indicator order for the 2x2 square: descending lexicographic on
# the row-major 0/1 vectors.
SQUARE_INDICATORS = [
    "1 1 / 1 1",
    "0 1 / 1 1",
    "0 1 / 0 1",
    "0 0 / 1 1",
    "0 0 / 0 1",
]

# The three irreducible components of the square example, in classification
# order: factorisation, smooth/bijective/differential flags, and the kernel
# witness for the singular one (text -> signed coefficient).
SQUARE_COMPONENTS = [
    {
        "factorization": {"0 1 / 1 1": 2, "0 0 / 0 1": 2},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
    {
        "factorization": {
            "0 1 / 1 1": 1,
            "0 1 / 0 1": 1,
            "0 0 / 1 1": 1,
            "0 0 / 0 1": 1,
        },
        "smooth": False,
        "bijective_on_points": False,
        "differential_injective": False,
        "witness": {
            "0 1 / 1 1": 1,
            "0 1 / 0 1": -1,
            "0 0 / 1 1": -1,
            "0 0 / 0 1": 1,
        },
    },
    {
        "factorization": {"0 1 / 0 1": 2, "0 0 / 1 1": 2},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
]
SQUARE_STANDARD_INDEX = 0
SQUARE_COMPLETE_INDEX = 2

GRID_TEXT = "0 0 3 / 0 2 5 / 3 5 5"

GRID_INDICATORS = [
    "1 1 1 / 1 1 1 / 1 1 1",
    "0 1 1 / 1 1 1 / 1 1 1",
    "0 1 1 / 0 1 1 / 1 1 1",
    "0 1 1 / 0 1 1 / 0 1 1",
    "0 0 1 / 1 1 1 / 1 1 1",
    "0 0 1 / 0 1 1 / 1 1 1",
    "0 0 1 / 0 1 1 / 0 1 1",
    "0 0 1 / 0 0 1 / 1 1 1",
    "0 0 1 / 0 0 1 / 0 1 1",
    "0 0 1 / 0 0 1 / 0 0 1",
    "0 0 0 / 1 1 1 / 1 1 1",
    "0 0 0 / 0 1 1 / 1 1 1",
    "0 0 0 / 0 1 1 / 0 1 1",
    "0 0 0 / 0 0 1 / 1 1 1",
    "0 0 0 / 0 0 1 / 0 1 1",
    "0 0 0 / 0 0 1 / 0 0 1",
    "0 0 0 / 0 0 0 / 1 1 1",
    "0 0 0 / 0 0 0 / 0 1 1",
    "0 0 0 / 0 0 0 / 0 0 1",
]

# Short aliases for the nine indicators that actually appear in the grid
# example's factorisations, keyed by their text form.
_A = "0 0 0 / 0 1 1 / 0 1 1"  # support is the lower-right 2x2 block
_B = "0 0 0 / 0 1 1 / 1 1 1"
_C = "0 0 1 / 0 0 1 / 1 1 1"
_D = "0 0 1 / 0 1 1 / 0 1 1"
_E = "0 0 1 / 0 1 1 / 1 1 1"
_F = "0 0 1 / 0 0 1 / 0 1 1"
_G = "0 0 0 / 0 0 1 / 1 1 1"
_H = "0 0 0 / 0 0 1 / 0 1 1"

# All fifteen components of the 3x3 grid example in classification order.
GRID_COMPONENTS = [
    {
        "factorization": {_E: 2, _C: 1, _H: 2},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
    {
        "factorization": {_E: 2, _F: 1, _G: 1, _H: 1},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
    {
        "factorization": {_E: 1, _D: 1, _C: 1, _G: 1, _H: 1},
        "smooth": False,
        "bijective_on_points": False,
        "differential_injective": False,
        "witness": {_E: 1, _D: -1, _G: -1, _H: 1},
    },
    {
        "factorization": {_E: 1, _D: 1, _F: 1, _G: 2},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
    {
        "factorization": {_E: 1, _C: 2, _A: 1, _H: 1},
        "smooth": False,
        "bijective_on_points": False,
        "differential_injective": False,
        "witness": {_E: 1, _C: -1, _A: -1, _H: 1},
    },
    {
        "factorization": {_E: 1, _C: 1, _F: 1, _B: 1, _H: 1},
        "smooth": False,
        "bijective_on_points": False,
        "differential_injective": False,
        "witness": {_E: 1, _F: -1, _B: -1, _H: 1},
    },
    {
        "factorization": {_E: 1, _C: 1, _F: 1, _A: 1, _G: 1},
        "smooth": False,
        "bijective_on_points": True,
        "differential_injective": False,
        "witness": {_E: 1, _C: -2, _F: 1, _A: -1, _G: 1},
    },
    {
        "factorization": {_E: 1, _F: 2, _B: 1, _G: 1},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
    {
        "factorization": {_D: 2, _C: 1, _G: 2},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
    {
        "factorization": {_D: 1, _C: 2, _B: 1, _H: 1},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
    {
        "factorization": {_D: 1, _C: 2, _A: 1, _G: 1},
        "smooth": False,
        "bijective_on_points": False,
        "differential_injective": False,
        "witness": {_D: 1, _C: -1, _A: -1, _G: 1},
    },
    {
        "factorization": {_D: 1, _C: 1, _F: 1, _B: 1, _G: 1},
        "smooth": False,
        "bijective_on_points": False,
        "differential_injective": False,
        "witness": {_D: 1, _F: -1, _B: -1, _G: 1},
    },
    {
        "factorization": {_C: 3, _A: 2},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
    {
        "factorization": {_C: 2, _F: 1, _B: 1, _A: 1},
        "smooth": False,
        "bijective_on_points": False,
        "differential_injective": False,
        "witness": {_C: 1, _F: -1, _B: -1, _A: 1},
    },
    {
        "factorization": {_C: 1, _F: 2, _B: 2},
        "smooth": True,
        "bijective_on_points": True,
        "differential_injective": True,
        "witness": None,
    },
]
GRID_STANDARD_INDEX = 0
GRID_WEIGHT = 5

# Type I presentation for the grid example.
TYPE_I_N_VARS = 23
TYPE_I_GROUP_SIZES = [2, 3, 3, 2, 5, 5]
TYPE_I_CONDITIONS = 18
TYPE_I_FIRST_GENERATOR = (
    "a_1_1_1^4 - a_1_1_1^3*a_2_1_1 - 3*a_1_1_1^2*a_1_1_2 + a_1_1_1^2*a_2_1_2"
    " + 2*a_1_1_1*a_1_1_2*a_2_1_1 - a_1_1_1*a_2_1_3 + a_1_1_2^2"
    " - a_1_1_2*a_2_1_2 + a_2_1_4"
)

# Type II presentation for the grid example (full border and minimal border).
TYPE_II_N_VARS = 26
TYPE_II_GROUP_SIZES = [3, 2, 5, 3, 5, 3]
TYPE_II_CONDITIONS = 21
TYPE_II_FIRST_GENERATOR = "b_2_0_1 - c_2_0_1"
TYPE_II_MIN_N_VARS = 20
TYPE_II_MIN_GROUP_SIZES = [2, 5, 5, 3]
TYPE_II_MIN_CONDITIONS = 15

AMBIENT_TOTAL = 20
AMBIENT_EXPECTED_DIM = 5

TANGENT_DIM = 9
TANGENT_DEGREES = [4, 4, 5, 5]
# The even grid: its type I reduction keeps 16 generators.
EVEN_GRID_TEXT = "0 2 4 / 2 4 6 / 4 6 8"
# The step-3 grid: the largest reduction pinned here (type I prints 297 kB).
TRIPLE_GRID_TEXT = "0 3 6 / 3 6 9 / 6 9 12"
# SHA-256 of the text stdout of `rpphilb equations --type T --tangent` on the
# grid example and the even and step-3 grids, pinning the reduced generators
# byte for byte.
TANGENT_STDOUT_SHA256 = {
    (GRID_TEXT, "I"): "b377aced744d281f1f3acadd65929267cbbb7ba5578f17d77900ade8c81ef5de",
    (GRID_TEXT, "II"): "2a8e179e0e067ddcdf7aee337c0bb75c9a71aa999995ca74c62260c10064e3fc",
    (EVEN_GRID_TEXT, "I"): "d8e04a33d305b6c792242d98569daa60083172bedca2369cc673db1428154938",
    (EVEN_GRID_TEXT, "II"): "01a96e8e64cb359f90d3af70b89aa79a4e53b730ead35d85d02067b2f0d373e7",
    (TRIPLE_GRID_TEXT, "I"): "a3f9dc1bc3609c3b0418f13eb5a70f7644b40c4ec6472489902158ff85a0a3b0",
    (TRIPLE_GRID_TEXT, "II"): "b526493d2b39adc9550cf5a5e1dcc8b7630e0533dd4ac1bd4830a869908f38d5",
}

# Single-variable counts of fillings of the square by total size 0..10 and
# the hook lengths of the square, used by the generating-series checks.
SQUARE_RPP_COUNTS = [1, 1, 3, 4, 7, 9, 14, 17, 24, 29, 38]
SQUARE_HOOKS = [3, 2, 2, 1]

# Box-variable product-expansion counterexample on the square: at total size
# 3 the sum side has the left monomial but not the right one; the product
# side has the right monomial but not the left one.  (Exponents in row-major
# box order.)
SQUARE_SUM_ONLY_MONOMIAL = (0, 1, 1, 1)
SQUARE_PRODUCT_ONLY_MONOMIAL = (1, 1, 1, 0)

# Point counts over small prime fields for anchor inputs.
DOMINO_TEXT = "1 / 2"
DOMINO_COUNTS = {2: 4, 3: 9}

# The spec'd divisibility-count worked example: 0 1 / 1 2 over F_2 has six
# chains, while the box-level series coefficient evaluates to four.
REFINEMENT_GAP_TEXT = "0 1 / 1 2"
REFINEMENT_GAP_P = 2
REFINEMENT_GAP_COUNT = 6
REFINEMENT_GAP_BOX_PREDICTION = 4
