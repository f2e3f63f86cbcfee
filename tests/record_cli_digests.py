"""Record or check the CLI byte atlas: one digest per subcommand over its argv.

    PYTHONPATH=src python3 tests/record_cli_digests.py          # print the table
    PYTHONPATH=src python3 tests/record_cli_digests.py --check  # compare with it

Each argv runs in process through ``cli.main``, with ``RPPHILB_MAX_BUDGET``
unset and the working directory a fresh folder that holds the
``@file.json`` inputs, so every path an error message names is relative.
An argv's fingerprint is the first 8 hex digits of the SHA-256 of the JSON
list (argv, stdout, stderr, exit code), and a subcommand's digest is its
argv's fingerprints in order, so a failure names the first argv whose bytes
moved.  The argv that argparse itself refuses are left out: they quote its
wording, which changes between patch releases (3.13.0 prints ``(choose
from 'A1', 'P1')``, some 3.13 builds ``(choose from A1, P1)``), so
``test_cli.py`` checks only their exit code and error code.  The script
prints the table that ``frozen_tables.CLI_DIGESTS`` holds; re-record it
only when CLI output is meant to change.

The same pass holds every run to the exit rule (``exit_rule_breach``): an
answer on stdout and exit 0, or exit 1 or 2 with nothing on stdout and one
strict JSON error object on stderr, so that ``--check`` fails on a run that
exits 0 with nothing to say even where its bytes were recorded that way.
A run that raises out of ``cli.main`` breaks the rule too, named by its
exception, and the pass goes on to the later argv and groups.
``test_cli_digests.py`` validates the JSON of the same runs against the
shipped schemas.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from rpphilb.cli import main

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


def first_moved(group_runs: list, digest: str):
    """The argv of the first run whose fingerprint differs from ``digest``'s, or None."""
    frozen = digest.split()
    if len(group_runs) != len(frozen):
        raise ValueError(f"{len(group_runs)} argv against {len(frozen)} frozen fingerprints")
    return next((run[0] for run, old in zip(group_runs, frozen) if _fingerprint(*run) != old), None)


def breaches(group_runs: list) -> list:
    """[(argv, how the run breaks the exit rule), ...] over the runs that break it."""
    return [(run[0], why) for run in group_runs if (why := exit_rule_breach(*run))]


def groups() -> list:
    return list(_argvs())


def _print_table() -> None:
    print("CLI_DIGESTS = {")
    for group in groups():
        fps = [_fingerprint(*run) for run in runs(group)]
        print(f'    "{group}": (')
        for k in range(0, len(fps), 8):
            tail = "" if k + 8 >= len(fps) else " "
            print(f'        "{" ".join(fps[k:k + 8])}{tail}"')
        print("    ),")
    print("}")


def _check() -> int:
    from frozen_tables import CLI_DIGESTS

    failed = 0
    for group in groups():
        got = runs(group)
        moved = first_moved(got, CLI_DIGESTS[group])
        broken = breaches(got)
        faults = [] if moved is None else [f"moved, first at {moved}"]
        if broken:
            faults.append(f"{len(broken)} runs break the exit rule, first {broken[0][0]}: {broken[0][1]}")
        print(f"{group}: {'; '.join(faults) or 'ok'}")
        failed += bool(faults)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    if sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    _print_table()
