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

# SHA-256 of the stdout of `rpphilb series 4,3,2,1 ARGS --format FORMAT`,
# pinning the motivic (A1, P1) and Euler series byte for byte: chi = 2 takes
# two updates per term, and chi = -1 (a positive power) walks the sizes
# downward and cancels.
SERIES_STDOUT_SHA256 = {
    ("--curve A1 --max-size 12", "text"): "6ffc4b4de823b4c58ed62c82d46b68be2ee170edf47b8189e08ce4844633cbd5",
    ("--curve A1 --max-size 12", "json"): "cf4a4eaaf9c72b29a14d36ec9cfb4eda779e2c950a5a36aa0014c7e84eb506af",
    ("--curve P1 --max-size 8", "text"): "8463856ccccbb549cd4d31ed3f4c7a7db95715887d5778d67c8baa7070f294ef",
    ("--curve P1 --max-size 8", "json"): "169e5c0edd7da3762050e7bc1598b42c9ed8c72f213e9b989726ff663daf966b",
    ("--euler 2 --max-size 12", "text"): "51d199c6dbda2fad68c33cc8ce7ff6a93108fc76cdb94628a0a323a2d6c7297c",
    ("--euler 2 --max-size 12", "json"): "e0771ef4a2ffc3a43b6abe82f13cb3108d618485ebe9543f2cb7b112bd1b51ce",
    ("--euler -1 --max-size 10", "text"): "ff56f26f7d0432b2de95717a6e7046f990dda3b40159f199a6c778fbc0c4c77f",
    ("--euler -1 --max-size 10", "json"): "8ceadf7d11c1f02dc1b840f4a9afe2e5ac9664bfa65958ce056cb819c1492541",
    ("--euler 2 --max-size 12 --single-variable", "text"): "40fadf42f3b9c86765db0686ad1c72f177d76dc74b678a1c3b7f2ede638678f9",
    ("--euler 2 --max-size 12 --single-variable", "json"): "84b9c417e59474a5f82c9baae7ca6577275c3c0c2f923e15d90ce559a6a8983d",
}
# SHA-256 of json.dumps(rpp_series_bruteforce(YoungDiagram((4, 3, 2, 1)), 12)
# .to_json_obj(), sort_keys=True): the 6948 fillings of total at most 12.
BRUTEFORCE_4321_12_SHA256 = "ac423e7fc1c4cee33fd5bd600ad693715f5ec1cb5ac69df27e2b9d86d80795ee"

# SHA-256 of the stdout of `rpphilb classify TEXT --format FORMAT` on the
# grid example and the even and step-3 grids (15 + 149 + 928 components),
# pinning every verdict and relation witness: its entries, its sign and
# the smallest-sum tie-break.
CLASSIFY_STDOUT_SHA256 = {
    (GRID_TEXT, "text"): "6fe865b0763a889230441258f0c882025e5ea19c7153052d597dedb038b2f267",
    (GRID_TEXT, "json"): "c515f9de8723ea74724a60907ca40092236a37c1e4b5c8f0a8268d150547ce56",
    (EVEN_GRID_TEXT, "text"): "5adb81332043f57fcc21f7d074e0a95a75cd539d84003b79d026116bf00a20b5",
    (EVEN_GRID_TEXT, "json"): "8fca36453cd273f4a0fc0907534820d4793900a9f8a8bb02d1842bc960671c14",
    (TRIPLE_GRID_TEXT, "text"): "05c99903a13d03cdb164943807de7d88bdfabbd5c90c9a496ec177a51ee8d8d5",
    (TRIPLE_GRID_TEXT, "json"): "9550e83d4433c36d165383e0abc9d58387b14e739e00faee758bfedd3e7584d6",
}

# SHA-256 of the texts, one per line, of the 120 instances that the bundled
# corpus's random-properties row draws: verify.run_random_properties(20260817, 120).
RANDOM_ROW_DRAWS_SHA256 = "0740f1fc59006a9484eaf48ff806ee4514d5fd98c7e79019c01ea54be5bf56cb"

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
