"""The library's input rules: the integer check at every integer parameter it
gates, the boolean check at every flag, and the text-integer rule."""

import json

import pytest

from rpphilb import RPP, DomainError, YoungDiagram
from rpphilb.equations import IdealPresentation, tangent_embedding, type_ii_ideal
from rpphilb.errors import flag, ints, text_int
from rpphilb.pointcount import is_prime
from rpphilb.poly import X, SparsePoly, var_a
from rpphilb.rpp import Factorization, Indicator, enumerate_rpps
from rpphilb.series import TruncatedSeries, euler_series, factor_power, hook_product

D = YoungDiagram((2, 1))
ONE_BOX = YoungDiagram((1,))
A = var_a(0, 0, 1)

#: each gated integer parameter, as a call that takes the value x there
GATES = {
    "column height": lambda x: YoungDiagram([2, x]),
    "diagram JSON cols": lambda x: YoungDiagram.from_json_obj({"cols": [x]}),
    "RPP label": lambda x: RPP(ONE_BOX, [x]),
    "indicator label": lambda x: Indicator(ONE_BOX, (x,)),
    "RPP JSON row": lambda x: RPP.from_json_obj({"rows": [[x]]}),
    "RPP scaling factor": lambda x: RPP(ONE_BOX, [1]).scale(x),
    "multiplicity": lambda x: Factorization({Indicator(ONE_BOX, (1,)): x}),
    "enumeration max_size": lambda x: enumerate_rpps(D, x),
    "polynomial coefficient": lambda x: SparsePoly({(): x}),
    "monomial exponent": lambda x: SparsePoly({((X, x),): 1}),
    "polynomial power": lambda x: SparsePoly.variable(X) ** x,
    "series n_vars": lambda x: TruncatedSeries(x, 3, {}),
    "series max_size": lambda x: TruncatedSeries(1, x, {}),
    "series exponent": lambda x: TruncatedSeries(1, 3, {(x,): 1}),
    "series coefficient": lambda x: TruncatedSeries(1, 3, {(1,): x}),
    "series coefficient entry": lambda x: TruncatedSeries(1, 3, {(1,): (1, x)}),
    "series L value": lambda x: TruncatedSeries(1, 3, {(1,): (0, 1)}).substitute_L(x),
    "factor exponent": lambda x: factor_power((x,), 1, -1, 1, 3),
    "factor weight": lambda x: factor_power((1,), x, -1, 1, 3),
    "factor weight entry": lambda x: factor_power((1,), (0, x), -1, 1, 3),
    "factor power": lambda x: factor_power((1,), 1, x, 1, 3),
    "factor n_vars": lambda x: factor_power((1,), 1, -1, x, 3),
    "factor max_size": lambda x: factor_power((1,), 1, -1, 1, x),
    "hook power": lambda x: hook_product(D, 1, x, 3),
    "hook max_size": lambda x: hook_product(D, 1, -1, x),
    "euler chi": lambda x: euler_series(D, x, 3),
    "euler max_size": lambda x: euler_series(D, 1, x),
    "single-variable euler chi": lambda x: euler_series(D, x, 3, single_variable=True),
    "prime modulus": is_prime,
}


def test_ints_accepts_exact_ints_only():
    assert ints([0, -3, 10**30], "entries") == (0, -3, 10**30)
    assert ints(iter([]), "entries") == ()
    for raw in ([True], [1.0], ["1"], [None], 5, None):
        with pytest.raises(DomainError) as err:
            ints(raw, "entries")
        assert err.value.code == "parse-error"
        assert "entries" in err.value.message


def test_every_gated_parameter_refuses_what_is_not_an_int():
    for gate, call in GATES.items():
        for value in (True, 1.5, 2.0, "1", None):
            with pytest.raises(DomainError) as err:
                call(value)
            assert (err.value.code, err.value.exit_code) == ("parse-error", 1), (gate, value)


def test_every_gated_parameter_accepts_an_int():
    # the gate stops only what is not an int: each call above succeeds at 1
    for gate, call in GATES.items():
        call(1)


#: each library flag, as a call that takes the value x there
FLAGS = {
    "euler single_variable": lambda x: euler_series(D, 1, 3, single_variable=x),
    "factor single_variable": lambda x: factor_power((1,), 1, -1, 1, 3, single_variable=x),
    "series single_variable": lambda x: TruncatedSeries(1, 3, {}, single_variable=x),
    "type II minimal_border": lambda x: type_ii_ideal(RPP.from_text("0 1 / 1 2"), minimal_border=x),
}


def test_every_flag_takes_an_exact_bool_only():
    assert flag(True, "f") is True and flag(False, "f") is False
    for name, call in FLAGS.items():
        call(True)
        call(False)
        for value in ("no", "", 0, 1, None, 1.0, [True]):
            with pytest.raises(DomainError) as err:
                call(value)
            assert err.value.code == "parse-error", (name, value)
            assert err.value.offending_input == value


def test_text_int_takes_ascii_digits_after_an_optional_minus():
    for text, value in (("0", 0), ("-3", -3), ("007", 7), ("-0", 0), ("9" * 100, int("9" * 100))):
        assert text_int(text, "bad", text) == value
    too_long = "9" * 5000  # past Python's int-string conversion limit
    for text in ("", "-", "+3", "--3", "1_0", "\u0663", "\uff13", "\u00b2", " 3", "3 ", "3.0", "0x1", too_long):
        with pytest.raises(DomainError) as err:
            text_int(text, "bad", [text])
        assert (err.value.code, err.value.message, err.value.offending_input) == ("parse-error", "bad", [text])


#: each library refusal of a well-typed argument, as a call and the code it raises
REFUSALS = {
    "negative multiplicity": (lambda: Factorization({Indicator(ONE_BOX, (1,)): -1}), "negative-multiplicity"),
    "indicators on two diagrams": (
        lambda: Factorization({Indicator(ONE_BOX, (1,)): 1, Indicator(D, (1, 1, 1)): 1}),
        "diagram-mismatch",
    ),
    "total of the empty factorisation": (lambda: Factorization({}).total(), "empty-factorization"),
    "sum across two diagrams": (lambda: RPP(ONE_BOX, [1]) + RPP(D, [0, 1, 1]), "diagram-mismatch"),
    "negative enumeration max_size": (lambda: enumerate_rpps(D, -1), "negative-size"),
    "diagram text that is not a string": (lambda: YoungDiagram.from_text(3), "parse-error"),
    "growing row lengths": (lambda: RPP.from_rows([[1], [1, 2]]), "parse-error"),
    "RPP JSON cols that disagree with its rows": (
        lambda: RPP.from_json_obj({"cols": [2], "rows": [[0, 1]]}),
        "parse-error",
    ),
    "series exponent vector of the wrong length": (lambda: TruncatedSeries(2, 3, {(1,): 1}), "parse-error"),
    "negative series exponent": (lambda: TruncatedSeries(1, 3, {(-1,): 1}), "parse-error"),
    "zero factor vector": (lambda: factor_power((0, 0), 1, -1, 2, 3), "zero-input"),
    "factor vector of the wrong length": (lambda: factor_power((1, 0), 1, -1, 1, 3), "parse-error"),
    "negative polynomial power": (lambda: SparsePoly.variable(X) ** -1, "parse-error"),
    "labels that do not fit the diagram": (lambda: RPP(D, [0, 1]), "parse-error"),
    "tangent reduction of an inhomogeneous presentation": (
        lambda: tangent_embedding(IdealPresentation((A,), (SparsePoly.variable(A) + 1,))),
        "parse-error",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_raises_its_code(name):
    call, code = REFUSALS[name]
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.code == code


def test_a_zero_multiplicity_is_skipped():
    one, full = Indicator(D, (0, 1, 0)), Indicator(D, (1, 1, 1))
    assert Factorization({one: 0}).terms == {}
    assert Factorization({one: 0, full: 2}).terms == {full: 2}
    # a skipped term's indicator may even sit on another diagram
    assert Factorization({Indicator(ONE_BOX, (1,)): 0, full: 1}).terms == {full: 1}


def test_a_series_exponent_past_max_size_is_dropped():
    series = TruncatedSeries(2, 3, {(2, 2): 5, (1, 2): 7})
    assert series.coefficients == {(1, 2): (7,)}


def test_an_offending_input_that_is_not_json_is_reported_as_text():
    error = DomainError("parse-error", "bad", (D, 2))
    assert error.as_json() == {"code": "parse-error", "message": "bad", "offending_input": str((D, 2))}
    assert json.loads(json.dumps(error.as_json())) == error.as_json()
