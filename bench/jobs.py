"""How each job kind calls the library, serialises and checks its output.

A kind has four parts: ``prepare`` builds the library objects outside the
timed region and returns the call to time; ``canonical`` turns the output
into the JSON the matching CLI command prints (where there is one), which
is what the digests cover; ``check`` tests the output against properties
that hold for every input; ``cli_args`` gives the equivalent ``rpphilb``
command line.  Checks use the benchmark's own arithmetic where it is
cheap (weights, hook lengths, graded totals of the hook products) and the
library only where the property relates two of its answers.

Library functions are called through the ``rpphilb`` namespace, never
bound here, so the wrappers of a traced run see the calls.
"""

from __future__ import annotations

import hashlib
import json
import os

import rpphilb
import rpphilb.verify
from rpphilb import RPP, YoungDiagram

import inputs


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- prepare: library objects built outside the timed call ---------------------


def prepare(job: inputs.Job):
    spec = job.spec
    kind = job.kind
    if kind == "classify":
        n = RPP.from_text(spec["rpp"])
        return lambda: rpphilb.classify(n)
    if kind == "series-motivic":
        d = YoungDiagram(spec["cols"])
        return lambda: rpphilb.motivic_series(d, spec["curve"], spec["max_size"])
    if kind == "series-euler":
        d = YoungDiagram(spec["cols"])
        return lambda: rpphilb.euler_series(d, spec["chi"], spec["max_size"])
    if kind == "series-euler-single":
        d = YoungDiagram(spec["cols"])
        return lambda: rpphilb.euler_series(d, spec["chi"], spec["max_size"], single_variable=True)
    if kind == "series-bruteforce":
        d = YoungDiagram(spec["cols"])
        return lambda: rpphilb.rpp_series_bruteforce(d, spec["max_size"])
    if kind == "verify-corpus":
        corpus = {"rows": spec["rows"]}
        return lambda: rpphilb.verify.run_corpus(corpus)
    raise ValueError(f"unknown job kind {kind!r}")


# -- canonical JSON of an output ----------------------------------------------------


def canonical(job: inputs.Job, out):
    kind = job.kind
    if kind == "classify":
        return [report.to_json_obj() for report in out]
    if kind.startswith("series-"):
        return out.to_json_obj()
    if kind == "verify-corpus":
        rows = [{"name": name, "passed": ok, "detail": detail} for name, ok, detail in out]
        n_pass = sum(ok for _, ok, _ in out)
        return {"rows": rows, "passed": n_pass, "failed": len(out) - n_pass}
    raise ValueError(f"unknown job kind {kind!r}")


def work(job: inputs.Job, out, canon) -> dict:
    """Machine-independent output counts of one job."""
    kind = job.kind
    if kind == "classify":
        return {"factorizations": len(out), "singular_components": sum(not r.smooth for r in out)}
    if kind.startswith("series-"):
        return {"series_terms": len(canon)}
    # the corpus states what a passing equations or point-count row produced
    passed = {row["name"] for row in canon["rows"] if row["passed"]}
    rows = [row for row in job.spec["rows"] if row["name"] in passed]
    return {
        "corpus_rows_passed": canon["passed"],
        "generators": sum(row["expected"]["n_generators"] for row in rows if row["kind"] == "equations"),
        "points": sum(row["expected_count"] for row in rows if row["kind"] == "count-points"),
    }


# -- checks -------------------------------------------------------------------------


def _series_totals(factors, max_size: int) -> list[int]:
    """Graded totals of prod (1 - w t^h)^-1 over (h, w) factors, up to t^max_size."""
    totals = [1] + [0] * max_size
    for h, w in factors:
        for s in range(h, max_size + 1):
            totals[s] += w * totals[s - h]
    return totals


def _coefficient_at(coefficient: dict, value: int) -> int:
    return sum(c * value ** int(d) for d, c in coefficient.items())


class Checker:
    """Output checks; keeps the indicator vectors of the shapes seen so far."""

    #: L is evaluated here when comparing motivic graded totals
    L_VALUE = 2

    def __init__(self):
        self._indicator_vectors: dict = {}

    def check(self, job: inputs.Job, out, canon) -> list[str]:
        method = getattr(self, "_check_" + job.kind.replace("-", "_"))
        return method(job.spec, out, canon)

    def _check_classify(self, spec, reports, canon) -> list[str]:
        cols, values = inputs.parse_filling(spec["rpp"])
        w = inputs.weight(cols, values)
        if cols not in self._indicator_vectors:
            self._indicator_vectors[cols] = [ind.values for ind in rpphilb.indicators(YoungDiagram(cols))]
        vectors = self._indicator_vectors[cols]
        problems = [] if reports else ["no components"]
        seen = set()
        for k, report in enumerate(reports):
            terms = {ind.values: m for ind, m in report.factorization.terms.items()}
            total = [sum(m * vec[pos] for vec, m in terms.items()) for pos in range(len(values))]
            if total != values:
                problems.append(f"component {k}: factorisation does not total n")
            if sum(terms.values()) != w:
                problems.append(f"component {k}: length {sum(terms.values())} is not the weight {w}")
            key = frozenset(terms.items())
            if key in seen:
                problems.append(f"component {k}: repeated factorisation")
            seen.add(key)
            if report.dimension != w:
                problems.append(f"component {k}: dimension {report.dimension} is not the weight {w}")
            if report.smooth != report.differential_injective or (
                report.smooth and not report.bijective_on_points
            ):
                problems.append(f"component {k}: inconsistent smoothness flags")
            witness = report.relation_witness
            if report.smooth:
                if witness is not None:
                    problems.append(f"component {k}: smooth component has a witness")
                continue
            if witness is None or len(witness) != len(vectors) or not any(witness):
                problems.append(f"component {k}: singular component lacks a witness")
                continue
            relation = [sum(c * vec[pos] for c, vec in zip(witness, vectors)) for pos in range(len(values))]
            if any(relation):
                problems.append(f"component {k}: witness relation does not sum to zero")
            if any(c and vec not in terms for c, vec in zip(witness, vectors)):
                problems.append(f"component {k}: witness leaves the support")
        return problems

    def _hook_factors(self, cols, weights) -> list:
        return [(h, w) for h in inputs.hook_lengths(cols) for w in weights]

    def _graded_totals(self, canon, single_variable=False) -> dict:
        totals: dict = {}
        for term in canon:
            size = term["size"] if single_variable else sum(term["exponents"])
            totals[size] = totals.get(size, 0) + _coefficient_at(term["coefficient"], self.L_VALUE)
        return totals

    def _compare_totals(self, canon, factors, max_size, single_variable=False) -> list[str]:
        want = _series_totals(factors, max_size)
        got = self._graded_totals(canon, single_variable)
        bad = [s for s in range(max_size + 1) if got.get(s, 0) != want[s]]
        bad += [s for s in got if not 0 <= s <= max_size]
        return [f"graded total at size {bad[0]} is {got.get(bad[0], 0)}"] if bad else []

    def _check_series_motivic(self, spec, series, canon) -> list[str]:
        cols, max_size = tuple(spec["cols"]), spec["max_size"]
        if spec["curve"] == "P1":
            return self._compare_totals(canon, self._hook_factors(cols, (1, self.L_VALUE)), max_size)
        # A1: q^e appears iff e = sum k_b hook_b with k >= 0, with coefficient
        # L^(sum k); hooks are unitriangular in row-major order, so k is
        # recovered box by box.
        cells = inputs.boxes(cols)
        problems = []
        for term in canon:
            k: dict = {}
            for (i, j), e in zip(cells, term["exponents"]):
                k[(i, j)] = e - sum(k[(a, j)] for a in range(i)) - sum(k[(i, b)] for b in range(j))
            if min(k.values()) < 0 or term["coefficient"] != {str(sum(k.values())): 1}:
                problems.append(f"term {term['exponents']} is not a hook monomial")
                break
        n_terms = sum(_series_totals(self._hook_factors(cols, (1,)), max_size))
        if len(canon) != n_terms:
            problems.append(f"{len(canon)} terms, expected {n_terms}")
        return problems

    def _check_series_euler(self, spec, series, canon) -> list[str]:
        factors = self._hook_factors(tuple(spec["cols"]), (1,) * spec["chi"])
        return self._compare_totals(canon, factors, spec["max_size"])

    def _check_series_euler_single(self, spec, series, canon) -> list[str]:
        factors = self._hook_factors(tuple(spec["cols"]), (1,) * spec["chi"])
        return self._compare_totals(canon, factors, spec["max_size"], single_variable=True)

    def _check_series_bruteforce(self, spec, series, canon) -> list[str]:
        cols, max_size = tuple(spec["cols"]), spec["max_size"]
        problems = self._compare_totals(canon, self._hook_factors(cols, (1,)), max_size)
        if any(term["coefficient"] != {"0": 1} for term in canon):
            problems.append("a brute-force coefficient is not 1")
        d = YoungDiagram(cols)
        euler = rpphilb.euler_series(d, 1, max_size)
        if rpphilb.collapse_to_diagonals(d, series) != rpphilb.collapse_to_diagonals(d, euler):
            problems.append("diagonal collapse differs from the chi = 1 Euler series")
        return problems

    def _check_verify_corpus(self, spec, out, canon) -> list[str]:
        return [f"row {name} failed: {detail}" for name, ok, detail in out if not ok]


# -- the equivalent CLI command ---------------------------------------------------------


def cli_args(job: inputs.Job, tmpdir: str) -> list[str]:
    spec = job.spec
    kind = job.kind
    if kind == "classify":
        args = ["classify", spec["rpp"]]
    elif kind == "series-motivic":
        args = ["series", _cols_text(spec), "--curve", spec["curve"], "--max-size", str(spec["max_size"])]
    elif kind in ("series-euler", "series-euler-single"):
        args = ["series", _cols_text(spec), "--euler", str(spec["chi"]), "--max-size", str(spec["max_size"])]
        if kind == "series-euler-single":
            args.append("--single-variable")
    elif kind == "verify-corpus":
        path = os.path.join(tmpdir, job.key + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": 1, "rows": spec["rows"]}, handle)
        args = ["verify", path]
    else:
        raise ValueError(f"no CLI command for job kind {kind!r}")
    return args + ["--format", "json"]


def _cols_text(spec) -> str:
    return ",".join(str(h) for h in spec["cols"])


def check_cli(printed, want_digest: str) -> list[str]:
    """Compare the CLI's JSON with the digest of the library output of the same job."""
    return [] if digest(printed) == want_digest else ["CLI output differs from the library output"]
