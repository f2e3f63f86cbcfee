"""Record or check the frozen layers, the answers that the repository's tables freeze.

    PYTHONPATH=src python3 tests/frozen.py          # print the tables of frozen_tables.py
    PYTHONPATH=src python3 tests/frozen.py --check  # compare every layer with its table

``--check`` prints one line per layer (per subcommand for the CLI byte
atlas) and exits 1 if any moved.  A layer whose computation raises is
reported with its exception, and the pass goes on.  Re-record a table only
when an answer is meant to change.

- ``ATLAS_SHA256``: per shape of at most ``MAX_BOXES`` boxes, its A1 series
  to size ``SERIES_SIZE`` and, for every RPP of total at most ``MAX_TOTAL``
  on it: ``classify``'s JSON form, ``count_points`` at p = 2,
  ``ambient_and_bundle``, the JSON forms of the type I and full type II
  presentations, and the tangent dimension and reduced generators of type I
  and of type II with the minimal border.  A refusal counts by its error code.
- ``SINGULAR_BAND_SHA256``: the atlas's fillings are all smooth, so per
  shape of at most ``BAND_BOXES`` boxes, every filling of weight at most
  ``BAND_WEIGHT``, and the eight 3×3 fillings ``BAND_EXTRAS``, each with one
  singular but bijective component: ``classify``'s JSON form and the
  indices of the standard and complete factorisations among the reports.
- ``CLI_DIGESTS``: each argv runs in process through ``cli.main``, with
  ``RPPHILB_MAX_BUDGET`` unset, in a fresh folder that holds the
  ``@file.json`` inputs, so every path an error message names is relative.
  An argv's fingerprint is 8 hex digits of the SHA-256 of (argv, stdout,
  stderr, exit code), and a subcommand's digest is its argv's fingerprints
  in order, so a failure names the first argv that moved.  Argv that
  argparse itself refuses are left out: they quote its wording, which
  changes between patch releases, so ``test_cli.py`` checks only their exit
  code and error code.  Every run is also held to the exit rule
  (``exit_rule_breach``), and a run that raises out of ``cli.main`` breaks it.
- ``bench/digests.json``, recorded by ``bench/record_digests.py``: the
  output digest of every block-0 job of each recorded workload and seed,
  built by ``bench/inputs.py`` and run and digested by ``bench/jobs.py``
  without the benchmark's timing or checker, and named by (workload, seed,
  job key).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from rpphilb import (
    RPP,
    DomainError,
    ambient_and_bundle,
    classify,
    complete_factorization,
    count_points,
    enumerate_rpps,
    motivic_series,
    standard_factorization,
    tangent_embedding,
    type_i_ideal,
    type_ii_ideal,
)
from rpphilb.cli import main

from shapes import diagrams_up_to


def moved(got: dict, frozen: dict) -> list:
    """The keys whose digest differs from the frozen one, or is missing on either side, in table order."""
    return [key for key in frozen | got if got.get(key) != frozen.get(key)]


# -- the answer atlas and the singular band -----------------------------------------

MAX_BOXES = 8
MAX_TOTAL = 5
SERIES_SIZE = 6
BAND_WEIGHT = 5
BAND_BOXES = 6
BAND_EXTRAS = tuple(f"0 0 {a} / 0 {b} 5 / {c} 5 5" for a, b, c in itertools.product((2, 3), repeat=3))


def _answer(compute):
    try:
        return compute()
    except DomainError as exc:
        return exc.code


def _reduced(ideal) -> list:
    dim, reduced = tangent_embedding(ideal)
    return [dim, [str(g) for g in reduced.generators]]


def filling_answers(n) -> dict:
    """Every answer the atlas freezes for one filling."""
    type_i, type_ii = type_i_ideal(n), type_ii_ideal(n)
    return {
        "rpp": n.to_text(),
        "classify": _answer(lambda: [r.to_json_obj() for r in classify(n)]),
        "count_points_2": _answer(lambda: count_points(n, 2)),
        "ambient": list(ambient_and_bundle(n)),
        "type_i": type_i.to_json_obj(),
        "type_ii": type_ii.to_json_obj(),
        "tangent_i": _answer(lambda: _reduced(type_i)),
        "tangent_ii_minimal": _answer(lambda: _reduced(type_ii_ideal(n, minimal_border=True))),
    }


def shape_digest(diagram) -> str:
    """SHA-256 of the shape's series and of its fillings' answers, one JSON line each."""
    lines = [json.dumps(motivic_series(diagram, "A1", SERIES_SIZE).to_json_obj())]
    lines += (json.dumps(filling_answers(n)) for n in enumerate_rpps(diagram, MAX_TOTAL))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def atlas() -> dict:
    """{shape columns as text: digest} over the atlas's band."""
    return {d.to_text(): shape_digest(d) for d in diagrams_up_to(MAX_BOXES)}


def labels_at_most(diagram, top) -> list:
    """The value tuples of the RPPs on ``diagram`` whose every label is at most ``top``, lexicographic.

    Together they hold every filling of weight at most ``top``.  Labels
    grow rightward and downward, so each is at most some socle box's label.
    The weight is the socle's labels minus the subsocle's, and each
    subsocle box lies up-left of its two socle neighbours, so the weight is
    at least every socle label.
    """
    prefixes = [()]
    for l, u in zip(diagram.left, diagram.up):
        prefixes = [
            vals + (v,)
            for vals in prefixes
            for v in range(max(vals[l] if l >= 0 else 0, vals[u] if u >= 0 else 0), top + 1)
        ]
    return prefixes


def singular_band() -> dict:
    """{shape columns as text: its fillings}: weight at most BAND_WEIGHT on at most BAND_BOXES boxes, then BAND_EXTRAS."""
    band = {}
    for d in diagrams_up_to(BAND_BOXES):
        fillings = (RPP(d, vals) for vals in labels_at_most(d, BAND_WEIGHT))
        band[d.to_text()] = [n for n in fillings if n.weight() <= BAND_WEIGHT]
    extras = [RPP.from_text(text) for text in BAND_EXTRAS]
    band[extras[0].diagram.to_text()] = extras
    return band


def band_line(n, reports) -> str:
    """One filling's band answers as a JSON line: its reports and both named factorisations' indices."""
    facts = [r.factorization for r in reports]
    standard, complete = (
        None if fact is None else facts.index(fact) for fact in (standard_factorization(n), complete_factorization(n))
    )
    classified = [r.to_json_obj() for r in reports]
    return json.dumps({"rpp": n.to_text(), "classify": classified, "standard_index": standard, "complete_index": complete})


def band_digests(inspect=None) -> dict:
    """{shape: SHA-256 of its fillings' band lines}; ``inspect(n, reports)``, if given, sees every filling."""
    digests = {}
    for shape, fillings in singular_band().items():
        lines = []
        for n in fillings:
            reports = classify(n)
            if inspect is not None:
                inspect(n, reports)
            lines.append(band_line(n, reports))
        digests[shape] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digests


def shape_faults(got: dict, table: str) -> list:
    """The shapes on which ``got`` differs from the frozen table of that name."""
    import frozen_tables

    shapes = moved(got, getattr(frozen_tables, table))
    return [f"moved on shapes {shapes}"] if shapes else []


# -- the CLI byte atlas -----------------------------------------------------------------

SQUARE = "0 2 / 2 4"
GRID = "0 0 3 / 0 2 5 / 3 5 5"
EVEN_GRID = "0 2 4 / 2 4 6 / 4 6 8"
TRIPLE_GRID = "0 3 6 / 3 6 9 / 6 9 12"
FILLINGS = (SQUARE, GRID, "1 / 2", "0 1 / 1 2", "0 1 2 / 1 2", "3", "0", "0 0 / 0 0")
REFUSED_FILLINGS = ("x", "0 1 / 0 0", "-1", "1 / 2 3", "", "@missing.json", "@not_json.json")
TEXT_AND_JSON = ((), ("--format", "json"))

#: the ``@file.json`` inputs, written into the working folder
FILES = {
    "square.json": {"rows": [[0, 2], [2, 4]]},
    "square_diagram.json": {"cols": [2, 2]},
    "not_json.json": "{not json",
    "corpus.json": {
        "rows": [
            {
                "name": "ambient-grid",
                "kind": "ambient",
                "rpp": GRID,
                "expected": {"dim_ambient": 20, "rank_bundle": 15, "expected_dim": 5},
            },
            {
                "name": "count-points-domino-wrong",
                "kind": "count-points",
                "rpp": "1 / 2",
                "p": 3,
                "expected_count": 8,
                "expected_motive_box": 9,
                "expected_match": True,
            },
        ]
    },
    "empty_corpus.json": {"version": 1, "rows": []},
}


def _argvs() -> dict:
    """{subcommand: [argv, ...]}."""
    return {
        "weight": [("weight", n, *fmt) for fmt in TEXT_AND_JSON for n in FILLINGS]
        + [("weight", n) for n in (*REFUSED_FILLINGS, "@square.json")],
        "indicators": [
            ("indicators", d, *fmt) for fmt in TEXT_AND_JSON for d in ("2,2", "1", "3,2,1", "@square_diagram.json")
        ]
        + [("indicators", d) for d in ("x", "2,3", "0", "31")],
        "factorizations": [
            ("factorizations", n, *fmt) for fmt in TEXT_AND_JSON for n in (SQUARE, GRID, "0 1 / 1 2", "0 0 / 0 0")
        ]
        + [("factorizations", n) for n in ("0 13", "x")]
        + [("factorizations", "0", *fmt) for fmt in TEXT_AND_JSON],
        "classify": [
            ("classify", n, *fmt)
            for fmt in TEXT_AND_JSON
            for n in (SQUARE, "0 1 / 1 2", "0", "@square.json", GRID, EVEN_GRID, TRIPLE_GRID)
        ]
        + [("classify", n) for n in ("0 13", "0 1 / 0 0")],
        "equations": [
            ("equations", n, "--type", *kind, *tangent, *fmt)
            for fmt in TEXT_AND_JSON
            for n in (SQUARE, GRID, "1 / 2", "3")
            for kind in (("I",), ("II",), ("II", "--minimal-border"))
            for tangent in ((), ("--tangent",))
        ]
        + [("equations", n, "--type", kind, "--tangent") for n in (EVEN_GRID, TRIPLE_GRID) for kind in ("I", "II")]
        + [("equations", EVEN_GRID, "--type", "II", "--tangent", "--minimal-border", "--format", "json")]
        + [("equations", SQUARE, "--type", "I", "--minimal-border"), ("equations", "x", "--type", "I")]
        + [("equations", "0", "--type", "II", *fmt) for fmt in TEXT_AND_JSON],
        "series": [
            ("series", d, *opts, *fmt)
            for fmt in TEXT_AND_JSON
            for d, opts in (
                ("2,2", ("--curve", "A1", "--max-size", "5")),
                ("2,2", ("--curve", "P1", "--max-size", "4")),
                ("3,1", ("--euler", "3", "--max-size", "4")),
                ("2,1", ("--euler", "-1", "--single-variable")),
                ("@square_diagram.json", ("--curve", "A1", "--max-size", "3")),
            )
        ]
        + [
            ("series", "2,2"),
            ("series", "2,2", "--curve", "A1", "--euler", "1"),
            ("series", "2,2", "--curve", "A1", "--single-variable"),
            ("series", "2,2", "--euler", "1", "--max-size", "-3"),
            ("series", "31", "--curve", "A1"),
        ]
        # chi = 2 takes two updates per term; chi = -1, a positive power, walks the sizes downward and cancels
        + [
            ("series", "4,3,2,1", *opts, *fmt)
            for opts in (
                ("--curve", "A1", "--max-size", "12"),
                ("--curve", "P1", "--max-size", "8"),
                ("--euler", "2", "--max-size", "12"),
                ("--euler", "-1", "--max-size", "10"),
                ("--euler", "2", "--max-size", "12", "--single-variable"),
            )
            for fmt in TEXT_AND_JSON
        ]
        + [
            ("series", "2,2", "--curve", "A1", "--max-size", "3", "--format", "json"),
            ("series", "2,2", "--euler", "1", "--max-size", "4", "--single-variable", "--format", "json"),
            ("series", "1", "--curve", "P1", "--max-size", "3"),
            ("series", "2", "--euler", "-2", "--max-size", "3", "--single-variable"),
        ],
        "count-points": [
            ("count-points", n, "--p", p, *fmt)
            for fmt in TEXT_AND_JSON
            for n, p in ((SQUARE, "2"), ("0 1 / 1 2", "2"), ("1 / 2", "3"), ("0", "5"))
        ]
        + [("count-points", SQUARE, "--p", p) for p in ("4", "11", "1", "0", "-2")]
        + [("count-points", "5 5 / 5 5", "--p", "7"), ("count-points", "x", "--p", "2")],
        "verify": [("verify", *fmt) for fmt in TEXT_AND_JSON]
        + [("verify", "corpus.json", *fmt) for fmt in TEXT_AND_JSON]
        + [("verify", path) for path in ("empty_corpus.json", "not_json.json", "missing.json")],
    }


def run_cli(*argv) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main`` on ``argv``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no ``NaN``, ``Infinity`` or ``-Infinity``."""
    return json.loads(text, parse_constant=_refuse_constant)


def exit_rule_breach(argv: tuple, code: int | Exception, out: str, err: str):
    """How one run breaks the exit rule, or None.

    Exit 0 prints an answer on stdout and nothing on stderr.  Exit 1 or 2
    prints nothing on stdout and one error object, strict JSON, on stderr;
    the one exception is ``verify`` with a failed row, which exits 2 with
    its report on stdout and nothing on stderr.
    A run that raised out of ``main`` has the exception as its exit code.
    """
    if isinstance(code, Exception):
        return f"raised {code!r}"
    if code == 0:
        return None if out and not err else "exit 0 without an answer alone on stdout"
    if code not in (1, 2):
        return f"exit code {code!r}"
    if code == 2 and argv[0] == "verify" and out and not err:
        return None
    if out:
        return f"exit {code} with stdout"
    try:
        if isinstance(strict_json(err), dict):
            return None
    except ValueError:
        pass
    return f"exit {code} without one strict JSON error object on stderr"


def _fingerprint(argv: tuple, code: int, out: str, err: str) -> str:
    """8 hex digits of SHA-256 over (argv, stdout, stderr, exit code); an exception counts by its repr."""
    blob = json.dumps([list(argv), out, err, code], default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


@contextlib.contextmanager
def _cli_environment():
    """A fresh working folder holding ``FILES``, with the budget variable unset; both restored after."""
    saved_budget = os.environ.pop("RPPHILB_MAX_BUDGET", None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        for name, content in FILES.items():
            with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
                fh.write(content if isinstance(content, str) else json.dumps(content))
        os.chdir(folder)
        try:
            yield
        finally:
            os.chdir(cwd)
            if saved_budget is not None:
                os.environ["RPPHILB_MAX_BUDGET"] = saved_budget


def _run(argv: tuple) -> tuple:
    """(argv, exit code, stdout, stderr); a run that raises has the exception as its code and no output."""
    try:
        return (argv, *run_cli(*argv))
    except Exception as exc:  # a breach to report, not the end of the pass over the later argv and groups
        return (argv, exc, "", "")


def runs(group: str) -> list:
    """[(argv, exit code, stdout, stderr), ...] for one group, in order."""
    with _cli_environment():
        return [_run(argv) for argv in _argvs()[group]]


def fingerprints(group_runs: list) -> dict:
    """{argv: fingerprint} of one group's runs, in order."""
    return {run[0]: _fingerprint(*run) for run in group_runs}


def frozen_fingerprints(group: str, table: dict) -> dict:
    """{argv: fingerprint} as ``table`` freezes the group, in order.

    A fingerprint past the group's last argv is keyed by its position, and
    a group that ``table`` lacks freezes none, so that a group frozen too
    long, too short or not at all moves.
    """
    argvs, fps = _argvs()[group], table.get(group, "").split()
    return {argvs[k] if k < len(argvs) else f"frozen fingerprint {k + 1} of {len(fps)}": fp for k, fp in enumerate(fps)}


def breaches(group_runs: list) -> list:
    """[(argv, how the run breaks the exit rule), ...] over the runs that break it."""
    return [(run[0], why) for run in group_runs if (why := exit_rule_breach(*run))]


def groups() -> list:
    return list(_argvs())


def group_faults(group: str) -> list:
    """The first argv of ``group`` whose bytes moved, and the first run that breaks the exit rule."""
    import frozen_tables

    group_runs = runs(group)
    argvs = moved(fingerprints(group_runs), frozen_fingerprints(group, frozen_tables.CLI_DIGESTS))
    broken = breaches(group_runs)
    faults = [f"moved, first at {argvs[0]}"] if argvs else []
    if broken:
        faults.append(f"{len(broken)} runs break the exit rule, first {broken[0][0]}: {broken[0][1]}")
    return faults


# -- the benchmark's recorded answers ---------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_recorded() -> dict:
    """{workload: {seed: {job key: digest}}} as ``bench/digests.json`` records block 0."""
    return json.loads((BENCH / "digests.json").read_text())


def bench_frozen(workload: str) -> dict:
    """{(workload, seed, job key): digest} as recorded for one workload."""
    recorded = bench_recorded()[workload]
    return {(workload, int(seed), key): digest for seed, digests in recorded.items() for key, digest in digests.items()}


def bench_digests(workload: str, inspect=None) -> dict:
    """{(workload, seed, job key): digest} of block 0's jobs at each recorded seed of ``workload``.

    ``inspect(job, out)``, if given, sees every job's output.
    """
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import inputs
    import jobs
    from rpphilb.verify import load_corpus

    pool = inputs.load_pool()
    rows = load_corpus()["rows"] if workload == "verify" else None
    digests = {}
    for seed in map(int, bench_recorded()[workload]):
        for job in inputs.block(workload, seed, 0, pool, rows):
            out = jobs.prepare(job)()
            if inspect is not None:
                inspect(job, out)
            digests[workload, seed, job.key] = jobs.digest(jobs.canonical(job, out))
    return digests


def bench_faults() -> list:
    """The (workload, seed, job key) of every recorded benchmark answer that moved."""
    keys = [key for workload in bench_recorded() for key in moved(bench_digests(workload), bench_frozen(workload))]
    return [f"moved on {keys}"] if keys else []


# -- one driver ------------------------------------------------------------------------


def layers() -> dict:
    """{label: check}, in the order ``--check`` reports them; a check returns its faults, [] when it holds."""
    return {
        "ATLAS_SHA256": lambda: shape_faults(atlas(), "ATLAS_SHA256"),
        "SINGULAR_BAND_SHA256": lambda: shape_faults(band_digests(), "SINGULAR_BAND_SHA256"),
        **{group: functools.partial(group_faults, group) for group in groups()},
        "bench/digests.json": bench_faults,
    }


def check(checks: dict) -> int:
    """Print one line per check, ok or its faults; 1 if any check failed or raised, else 0."""
    failed = 0
    for label, layer_check in checks.items():
        try:
            faults = layer_check()
        except Exception as exc:  # reported, and the pass goes on to the later layers
            faults = [f"raised {exc!r}"]
        print(f"{label}: {'; '.join(faults) or 'ok'}")
        failed += bool(faults)
    return 1 if failed else 0


def print_table(name: str, table: dict) -> None:
    """``table`` as the source of ``frozen_tables.name``: a digest per key, or fingerprints eight to a line."""
    print(f"{name} = {{")
    for key, value in table.items():
        if isinstance(value, str):
            print(f'    "{key}": "{value}",')
            continue
        print(f'    "{key}": (')
        for k in range(0, len(value), 8):
            print(f'        "{" ".join(value[k:k + 8])}{"" if k + 8 >= len(value) else " "}"')
        print("    ),")
    print("}")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    if sys.argv[1:] == ["--check"]:
        sys.exit(check(layers()))
    print_table("ATLAS_SHA256", atlas())
    print_table("SINGULAR_BAND_SHA256", band_digests())
    print_table("CLI_DIGESTS", {group: list(fingerprints(runs(group)).values()) for group in groups()})
