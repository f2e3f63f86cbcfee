"""Spans around calls into rpphilb's public functions, from outside the package.

The package's modules import names from each other directly (``from .rpp
import all_factorizations``), so a wrapper replaces the function object in
every ``rpphilb.*`` namespace that holds it, and methods are replaced on
their class, aliases included (``__radd__ = __add__``).  ``uninstall``
puts every original back; no untraced timing may run while wrappers are
installed.

A span records its name, start, end, parent span and job.  Self time is
the span's duration minus the time its child spans cover.  The hottest
leaf-level functions (listed in ``HOT``) are folded into the per-name
totals without keeping a record per call, which bounds memory; every
other span is kept in memory, up to ``MAX_SPANS``, and written out when
the run ends.

A wrapper costs its caller more than the child span covers: the Python
call, the ``on`` test and the bookkeeping on either side of the clock
reads.  ``calibrate`` measures that cost on a wrapped no-op, and every
span exit books it to the parent as covered, so that self time of a
caller of hot leaves stays the program's own.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix, <layer>.<function>
    module: str
    attr: str  # "func" or "Class.method"
    span: bool = True  # False: counters only, no span


TARGETS = (
    Target("diagram.box_index", "rpphilb.diagram", "YoungDiagram.box_index"),
    Target("diagram.enumerate_upper_sets", "rpphilb.diagram", "enumerate_upper_sets"),
    Target("rpp.all_factorizations", "rpphilb.rpp", "all_factorizations"),
    Target("rpp.indicators", "rpphilb.rpp", "indicators"),
    Target("rpp.enumerate_rpps", "rpphilb.rpp", "enumerate_rpps"),
    Target("rpp.rpp_init", "rpphilb.rpp", "RPP.__init__"),
    Target("components.classify", "rpphilb.components", "classify"),
    Target("components.differential_injective", "rpphilb.components", "differential_injective"),
    Target("components.bijective_on_points", "rpphilb.components", "bijective_on_points"),
    Target("linalg.rref", "rpphilb.linalg", "rref"),
    Target("linalg.kernel_basis", "rpphilb.linalg", "kernel_basis"),
    Target("linalg.solve_from_rref", "rpphilb.linalg", "solve_from_rref"),
    Target("linalg.rank", "rpphilb.linalg", "rank"),
    Target("poly.mul", "rpphilb.poly", "SparsePoly.__mul__"),
    Target("poly.add", "rpphilb.poly", "SparsePoly.__add__"),
    Target("poly.substitute", "rpphilb.poly", "SparsePoly.substitute"),
    Target("poly.divmod_in_x", "rpphilb.poly", "divmod_in_x"),
    Target("series.mul", "rpphilb.series", "TruncatedSeries.__mul__"),
    Target("series.factor_power", "rpphilb.series", "factor_power"),
    Target("series.hook_product", "rpphilb.series", "hook_product"),
    Target("series.collapse_to_diagonals", "rpphilb.series", "collapse_to_diagonals"),
    Target("series.motivic_series", "rpphilb.series", "motivic_series", span=False),
    Target("series.euler_series", "rpphilb.series", "euler_series", span=False),
    Target("series.rpp_series_bruteforce", "rpphilb.series", "rpp_series_bruteforce", span=False),
    Target("equations.type_i_ideal", "rpphilb.equations", "type_i_ideal"),
    Target("equations.type_ii_ideal", "rpphilb.equations", "type_ii_ideal"),
    Target("equations.tangent_embedding", "rpphilb.equations", "tangent_embedding"),
    Target("pointcount.count_points", "rpphilb.pointcount", "count_points"),
    Target("pointcount.divides", "rpphilb.pointcount", "PrimeField.divides"),
    Target("pointcount.monic_polynomials", "rpphilb.pointcount", "PrimeField.monic_polynomials", span=False),
    Target("verify.run_corpus", "rpphilb.verify", "run_corpus"),
    Target("verify.check_random_instance", "rpphilb.verify", "check_random_instance"),
    Target("cli.main", "rpphilb.cli", "main"),
)

#: called up to millions of times per run; totals only, no per-call record
HOT = frozenset(
    {
        "diagram.box_index",
        "rpp.rpp_init",
        "poly.mul",
        "poly.add",
        "pointcount.divides",
        "linalg.solve_from_rref",
    }
)
MAX_SPANS = 100_000
#: no-op calls per calibration repeat, and repeats
CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 5


class Tracer:
    """Span stack with per-name call counts and self times."""

    def __init__(self, names, clock=time.perf_counter):
        self.names = list(names)
        self.clock = clock
        self.call_cost = 0.0  # seconds a wrapped call adds to its caller, see calibrate()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters: dict = {}
        self.stack: list = []  # frames [name index, span id, start, covered by children]
        self.spans: list = []  # (span id, parent id, name index, job, start, end)
        self.dropped = 0
        self.job = None
        self.on = False
        self._next_id = 0
        self._keep = [name not in HOT for name in self.names]

    def enter(self, idx: int) -> list:
        self._next_id += 1
        frame = [idx, self._next_id, 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        self.stack.pop()
        idx, span_id, start, covered = frame
        duration = end - start
        self.calls[idx] += 1
        self.self_s[idx] += duration - covered
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration + self.call_cost
        if self._keep[idx]:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent[1] if parent else None, idx, self.job, start, end))
            else:
                self.dropped += 1

    def exclude(self, seconds: float) -> None:
        """Book tracer work done inside the current span as if a child covered it."""
        if self.stack:
            self.stack[-1][3] += seconds

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(span) for span in self.spans],
            "dropped": self.dropped,
        }


# -- per-target bookkeeping that derives counters from arguments and results ---


def _after_all_factorizations(tr, args, result):
    tr.count("rpp.factorizations_out", len(result))


def _after_enumerate_rpps(tr, args, result):
    tr.count("rpp.rpps_out", len(result))


def _after_classify(tr, args, result):
    tr.count("components.singular_out", sum(not r.smooth for r in result))
    for report in result:
        points, witnesses = witness_box(report.factorization)
        tr.count("components.lattice_points", points)
        tr.count("components.witnesses", witnesses)


def _reduce(rows: list) -> list[int]:
    """Bring a fraction matrix to reduced row echelon form in place; its pivot columns."""
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def witness_box(T) -> tuple[int, int]:
    """(nonzero lattice points, in-box integer relations) of a factorisation's witness box.

    The box gives every free column of the support matrix (one column per
    support indicator) a value in [-n, n], n the indicator's multiplicity;
    a point is a relation when the pivot columns it forces are integers
    within their own multiplicities.  The elimination is the benchmark's
    own, so both counts describe the input whatever search the library
    runs.
    """
    support = T.support
    if not support:
        return 0, 0
    mults = [T.multiplicity(ind) for ind in support]
    rows = [[Fraction(ind.values[r]) for ind in support] for r in range(len(support[0].values))]
    pivots = _reduce(rows)
    free = [c for c in range(len(support)) if c not in pivots]
    points = witnesses = 0
    for values in itertools.product(*(range(-mults[f], mults[f] + 1) for f in free)):
        if not any(values):
            continue
        points += 1
        forced = (-sum(rows[r][f] * v for f, v in zip(free, values)) for r in range(len(pivots)))
        witnesses += all(x.denominator == 1 and abs(x) <= mults[p] for x, p in zip(forced, pivots))
    return points, witnesses


def _after_series(tr, args, result):
    tr.count("series.terms_out", len(result.coefficients))


def _after_ideal(tr, args, result):
    tr.count("equations.generators_out", result.n_generators)


def _after_tangent(tr, args, result):
    tr.count("equations.eliminations", args[0].n_vars - result[1].n_vars)


def _after_count_points(tr, args, result):
    tr.count("pointcount.points_out", result)


def _after_monic_polynomials(tr, args, result):
    field, degree = args[0], args[1]
    tr.count("pointcount.candidates", field.p**degree)


AFTER = {
    "rpp.all_factorizations": _after_all_factorizations,
    "rpp.enumerate_rpps": _after_enumerate_rpps,
    "components.classify": _after_classify,
    "series.motivic_series": _after_series,
    "series.euler_series": _after_series,
    "series.rpp_series_bruteforce": _after_series,
    "series.collapse_to_diagonals": _after_series,
    "equations.type_i_ideal": _after_ideal,
    "equations.type_ii_ideal": _after_ideal,
    "equations.tangent_embedding": _after_tangent,
    "pointcount.count_points": _after_count_points,
    "pointcount.monic_polynomials": _after_monic_polynomials,
}


def _make_wrapper(fn, idx: int, target: Target, tr: Tracer):
    after = AFTER.get(target.name)
    clock = tr.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        if target.span:
            frame = tr.enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.exit(frame)
        else:
            result = fn(*args, **kwargs)
        if after is not None:
            t0 = clock()
            after(tr, args, result)
            tr.exclude(clock() - t0)
        return result

    return wrapper


def _resolve(target: Target):
    owner = sys.modules[target.module]
    for part in target.attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, target.attr.split(".")[-1]


def install(tr: Tracer) -> list:
    """Wrap every target; returns the (namespace, attribute, original) undo list."""
    packages = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "rpphilb" or name.startswith("rpphilb."))
    ]
    undo = []
    for target in TARGETS:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        wrapper = _make_wrapper(original, tr.names.index(target.name), target, tr)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = packages
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


def calibrate() -> float:
    """Seconds one wrapped call adds to its caller's self time, outside its own span.

    A caller span makes CALIBRATION_CALLS calls to a bare no-op, then as
    many to the same no-op wrapped under a ``HOT`` name (the path the
    millions of leaf calls take); the difference in the caller's self
    time per call, median over the repeats, is the cost."""

    def noop():
        return None

    cal = Tracer(["calibration.caller", "poly.mul"])
    wrapped = _make_wrapper(noop, 1, Target("poly.mul", __name__, "noop"), cal)
    cal.on = True
    costs = []
    for _ in range(CALIBRATION_REPEATS):
        self_s = []
        for fn in (noop, wrapped):
            before = cal.self_s[0]
            frame = cal.enter(0)
            for _ in range(CALIBRATION_CALLS):
                fn()
            cal.exit(frame)
            self_s.append(cal.self_s[0] - before)
        costs.append((self_s[1] - self_s[0]) / CALIBRATION_CALLS)
    return max(0.0, statistics.median(costs))


def new_tracer() -> Tracer:
    tr = Tracer([t.name for t in TARGETS])
    tr.call_cost = calibrate()
    return tr


# -- per-layer metrics -------------------------------------------------------------

def _timed(*names) -> list:
    return [(f"{name}.{kind}", unit) for name in names for kind, unit in (("calls", "count"), ("self_s", "s"))]


#: metrics reported from the traced run, as (name, unit), layer by layer
PER_LAYER = (
    _timed("diagram.box_index", "diagram.enumerate_upper_sets")
    + _timed("rpp.all_factorizations", "rpp.indicators", "rpp.enumerate_rpps", "rpp.rpp_init")
    + [("rpp.factorizations_out", "count"), ("rpp.rpps_out", "count")]
    + [("components.classify.self_s", "s")]
    + _timed("components.differential_injective", "components.bijective_on_points")
    + [
        ("components.singular_out", "count"),
        ("components.lattice_points", "count"),
        ("components.witness_ratio", "ratio"),
    ]
    + _timed("linalg.rref", "linalg.kernel_basis", "linalg.solve_from_rref", "linalg.rank")
    + _timed("poly.mul", "poly.add", "poly.substitute", "poly.divmod_in_x")
    + _timed("series.mul", "series.factor_power", "series.hook_product", "series.collapse_to_diagonals")
    + [("series.terms_out", "count")]
    + _timed("equations.type_i_ideal", "equations.type_ii_ideal", "equations.tangent_embedding")
    + [("equations.generators_out", "count"), ("equations.eliminations", "count")]
    + _timed("pointcount.count_points", "pointcount.divides")
    + [
        ("pointcount.candidates", "count"),
        ("pointcount.points_out", "count"),
        ("pointcount.yield_ratio", "ratio"),
    ]
    + [("verify.run_corpus.self_s", "s")]
    + _timed("verify.check_random_instance")
    + [("cli.main.self_s", "s"), ("trace.overhead_frac", "ratio")]
)


def layer_values(tr: Tracer) -> dict:
    """Every per-layer metric except trace.overhead_frac, from a finished trace."""
    values = dict(tr.counters)
    for idx, name in enumerate(tr.names):
        values[f"{name}.calls"] = tr.calls[idx]
        values[f"{name}.self_s"] = tr.self_s[idx]
    points = values.get("components.lattice_points", 0)
    values["components.witness_ratio"] = values.get("components.witnesses", 0) / points if points else 0.0
    candidates = values.get("pointcount.candidates", 0)
    values["pointcount.yield_ratio"] = values.get("pointcount.points_out", 0) / candidates if candidates else 0.0
    return {name: values.get(name, 0) for name, _ in PER_LAYER if name != "trace.overhead_frac"}
