"""Command line surface beyond the CLI byte atlas.

``test_cli_digests.py`` runs every argv of the atlas (``frozen.py``)
once and checks its bytes, the exit rule and, for JSON, its schema.  The tests
here add what a frozen run cannot say: a property across two commands,
argparse's refusals (whose wording varies between Python builds), inputs
written to a test's own files or read from the environment, runs that hinge
on the interpreter's int-string conversion limit, and timing.
"""

import json
import sys
import time

import pytest

from rpphilb.rpp import RPP, all_factorizations

import frozen_tables as FT
from conftest import check_schema
from frozen import TEXT_AND_JSON, run_cli, strict_json


# -- one JSON form across two commands ---------------------------------------


@pytest.mark.parametrize("text", [FT.GRID_TEXT, FT.EVEN_GRID_TEXT, FT.TRIPLE_GRID_TEXT])
def test_factorizations_and_reports_share_one_json_form(text):
    expected = [f.to_json_obj() for f in all_factorizations(RPP.from_text(text))]
    code, out, _ = run_cli("factorizations", text, "--format", "json")
    assert code == 0
    assert json.loads(out)["factorizations"] == expected
    code, out, _ = run_cli("classify", text, "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [report["normalization"] for report in reports] == expected
    assert [report["factorization"] for report in reports] == [
        {term["indicator"]: term["multiplicity"] for term in form} for form in expected
    ]


# -- malformed corpora -------------------------------------------------------


def test_verify_non_object_row_is_an_error(tmp_path):
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps({"rows": [1]}))
    code, out, err = run_cli("verify", str(bad))
    assert code == 1
    assert out == ""
    assert json.loads(err)["code"] == "parse-error"


def test_verify_deeply_nested_generator_fails_its_row(tmp_path):
    deep = "(" * 3000 + "x" + ")" * 3000
    row = {"name": "deep", "kind": "equations", "rpp": "0 1 / 1 2", "type": "I"}
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps({"rows": [{**row, "expected": {"first_generator": deep}}]}))
    code, out, err = run_cli("verify", str(bad))
    assert (code, err) == (2, "")
    assert out.startswith("FAIL deep - first generator ")


def test_verify_non_string_kind_is_an_unknown_kind(tmp_path):
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps({"rows": [{"name": "listed", "kind": ["classify"]}]}))
    code, out, _ = run_cli("verify", str(bad))
    assert code == 2
    assert "FAIL listed - unknown row kind ['classify']" in out


def test_verify_malformed_rows_fail_and_keep_the_schema(tmp_path):
    one_component = {"n_indicators": 1, "weight": 1, "standard_index": 0, "complete_index": 0}
    rows = [
        {"name": "oops", "kind": "classify", "rpp": "1", "expected": {**one_component, "components": ["oops"]}},
        {"name": "free", "kind": "equations", "rpp": "1", "type": "I", "expected": {"first_generator": "x"}},
        *({"name": name, "kind": "ambient", "rpp": "1", "expected": {}} for name in (None, 5, ["x"])),
    ]
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps({"rows": rows}))
    code, out, err = run_cli("verify", str(bad), "--format", "json")
    assert (code, err) == (2, "")
    obj = json.loads(out)
    check_schema(obj, "verify")
    assert obj["failed"] == 5
    assert [row["name"] for row in obj["rows"]] == ["oops", "free", "None", "5", "['x']"]
    assert obj["rows"][0]["detail"] == "parse-error: component 0 expectation must be an object"


# -- error objects and exit codes ---------------------------------------------


def test_domain_error_payload_schema(tmp_path):
    # JSON entries must be ints: no strings, nulls, floats, booleans or bare numbers
    bad_json = []
    for k, (command, payload) in enumerate(
        (
            ("weight", {"rows": [[0, "a"]]}),
            ("weight", [[0, None]]),
            ("weight", {"rows": [[0, None]]}),
            ("weight", {"rows": [0, 1]}),
            ("weight", {"rows": [[1.5]]}),
            ("weight", {"rows": [[True]]}),
            ("weight", {"rows": [[0, 1]], "cols": [True, True]}),
            ("indicators", {"cols": [2.5, 1]}),
            ("indicators", {"cols": "21"}),
            ("indicators", {"cols": ""}),
            ("indicators", {"cols": [True]}),
            ("weight", {"rows": []}),
        )
    ):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(payload))
        bad_json.append((command, f"@{path}"))
    # a file that is not UTF-8 is unreadable, not a crash; so is one that is
    # not JSON, nests past the decoder's recursion limit, holds an integer
    # past the int-string conversion limit, or holds a number that is not
    # finite (not RFC 8259 JSON), whether an argument or a corpus
    unreadable = {
        "not_utf8": b"\xff\xfe",
        "not_json": b"{not json",
        "deep": b"[" * 100000 + b"]" * 100000,
        "long_int": b'{"rows": [[' + b"9" * 5000 + b"]]}",
        "nan": b'{"rows": [[NaN]]}',
        "overflow": b'{"rows": [[1e400]]}',
    }
    for name, content in unreadable.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        bad_json += [("weight", f"@{path}"), ("verify", str(path))]
    # argparse's own refusals: their message quotes argparse's wording, which
    # changes between Python builds, so only their error code is checked
    refused_by_argparse = [
        (),
        ("bogus",),
        ("weight",),
        ("weight", FT.SQUARE_TEXT, "--format", "yaml"),
        ("equations", FT.SQUARE_TEXT),
        ("equations", FT.SQUARE_TEXT, "--type", "III"),
        ("series", "2,2", "--curve", "X"),
        ("count-points", FT.SQUARE_TEXT),
        ("classify", FT.SQUARE_TEXT, "--verbose"),
    ]
    for argv in [("weight", "1 0"), ("count-points", "1", "--p", "4")] + bad_json + refused_by_argparse:
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        payload = strict_json(err)
        check_schema(payload, "error")
        if argv in bad_json:
            assert payload["code"] == "parse-error"
        if argv in refused_by_argparse:
            assert payload["code"] == "unsupported-option", argv


def test_empty_column_heights_are_a_parse_error():
    for text in ("2,,1", ",2", "2,1,"):
        code, out, err = run_cli("indicators", text)
        assert (code, out) == (1, "")
        payload = json.loads(err)
        check_schema(payload, "error")
        assert payload["code"] == "parse-error"
    code, out, _ = run_cli("indicators", "2, 1")
    assert code == 0
    assert out == run_cli("indicators", "2,1")[1]


def test_cap_errors_exit_2():
    # no power past the budget is built: 7^6000 has more digits than Python prints, 7^(10^12) could not be built
    for label, p in (("30", "2"), ("6000", "7"), ("1000000000000", "7")):
        code, out, err = run_cli("count-points", label, "--p", p)
        assert (code, out) == (2, "")
        payload = strict_json(err)
        check_schema(payload, "error")
        message = f"{p}^{label} candidate tuples exceed the budget 10000000"
        assert payload == {"code": "budget-exceeded", "message": message, "offending_input": label}
    code, _, err = run_cli("count-points", "1", "--p", "11")
    assert code == 2
    assert json.loads(err)["code"] == "cap-exceeded"
    code, _, err = run_cli("classify", "0 0 0 0 0 1 / 0 0 0 0 1 2 / 0 0 0 1 2 3")
    assert code == 2
    assert json.loads(err)["message"] == "83 indicators exceed the cap 64"


#: argv whose answer holds an integer past 4300 digits: with X = 10^2000 − 1, the q^3 coefficient C(X + 2, 3) of
#: (1 − q)^(−X), of 6000 digits, and the weight 2·(10^4300 − 1), of 4301
TOO_LONG_TO_PRINT = (
    ("series", "1", "--euler", "9" * 2000, "--max-size", "3"),
    ("weight", f"0 {'9' * 4300} / {'9' * 4300}"),
)


def test_an_answer_too_long_to_print_exits_2_with_nothing_on_stdout():
    # the int-to-text limit is the interpreter's (3.10.7 and later), so the test pins its default
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in TOO_LONG_TO_PRINT:
            for fmt in TEXT_AND_JSON:
                code, out, err = run_cli(*argv, *fmt)
                assert (code, out) == (2, ""), (argv[0], fmt)
                payload = strict_json(err)
                check_schema(payload, "error")
                assert payload == {
                    "code": "cap-exceeded",
                    "message": "the answer holds an integer too long to print",
                    "offending_input": None,
                }
    finally:
        sys.set_int_max_str_digits(saved)


def test_huge_modulus_is_refused_before_any_primality_test():
    # trial division of an 18-digit prime would run for minutes
    start = time.perf_counter()
    code, _, err = run_cli("count-points", "1", "--p", "1000000000000000003")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(err)["code"] == "cap-exceeded"


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("RPPHILB_MAX_BUDGET", "4")
    code, _, err = run_cli("count-points", "3", "--p", "2")
    assert code == 2
    assert json.loads(err)["code"] == "budget-exceeded"


#: integer text that int() reads and the text rule refuses; a filling or
#: diagram text drops the blanks around its numbers, an option or variable does not
NOT_ASCII_INTEGERS = ("1_0", "+3", "\u0663", "\uff13")


def test_integers_in_text_are_ascii_digits(monkeypatch):
    for text in ("x", *NOT_ASCII_INTEGERS, " 3"):
        cases = {}
        if text != " 3":
            cases[("weight", text)] = ("parse-error", f"bad label in RPP text {text!r}", text)
            cases[("indicators", text)] = ("parse-error", f"bad column height in {text!r}", text)
        for option, argv in (
            ("--max-size", ("series", "--euler", "1", "--max-size", text, "2,1")),
            ("--euler", ("series", "--euler", text, "2,1")),
            ("--p", ("count-points", "1", "--p", text)),
        ):
            cases[argv] = ("unsupported-option", f"argument {option}: invalid int value: {text!r}", None)
        for argv, want in cases.items():
            code, out, err = run_cli(*argv)
            assert (code, out) == (1, ""), argv
            payload = json.loads(err)
            check_schema(payload, "error")
            assert (payload["code"], payload["message"], payload["offending_input"]) == want, argv
    budget = "RPPHILB_MAX_BUDGET"
    for text in ("x", "0", *NOT_ASCII_INTEGERS, " 3"):
        monkeypatch.setenv(budget, text)
        code, out, err = run_cli("count-points", "1", "--p", "2")
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["code"] == "parse-error"
        assert payload["message"].startswith(f"{budget} must be {'positive' if text == '0' else 'an integer'}")
