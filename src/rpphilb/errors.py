"""Shared error types and the library's input rules, one per input form.

Domain errors carry a machine-readable code plus the offending input so the
CLI can emit structured error objects (exit code 1).  Cap errors mean a
configured search or enumeration budget ran out, not that the input was bad
(exit code 2).
"""

from __future__ import annotations


class DomainError(Exception):
    """Invalid input or an unsatisfiable request."""

    exit_code = 1

    def __init__(self, code: str, message: str, offending_input=None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.offending_input = offending_input

    def as_json(self) -> dict:
        off = self.offending_input
        if off is not None and not isinstance(off, (str, int, float, list, dict, bool)):
            off = str(off)
        return {"code": self.code, "message": self.message, "offending_input": off}


class CapExceeded(DomainError):
    """A configured cap or budget was exhausted before the answer was found."""

    exit_code = 2


def ints(raw, what: str) -> tuple:
    """The entries of an iterable as a tuple of exact ints.

    The library's one integer check: a bool, a float (integral or not), a
    string or None among the entries is a parse-error, and so is a raw
    value that is not iterable; ``what`` names the entries in the message.
    """
    try:
        out = tuple(raw)
    except TypeError:
        raise DomainError("parse-error", f"non-integer {what}", raw) from None
    for x in out:  # a plain loop: a generator costs more than the check on short tuples
        if type(x) is not int:
            raise DomainError("parse-error", f"non-integer {what}", list(out))
    return out


def flag(value, what: str) -> bool:
    """``value`` if it is an exact bool; 0, 1, "no" or None is a parse-error naming ``what``."""
    if type(value) is not bool:
        raise DomainError("parse-error", f"{what} must be a boolean", value)
    return value


def text_int(text: str, message: str, offending) -> int:
    """ASCII digits after an optional "-" as an int; int() also takes "+3", "1_0", blanks and "٣"."""
    digits = text.removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # past Python's int-string conversion limit
        pass
    raise DomainError("parse-error", message, offending)


def read_json(path, name: str, offending):
    """The JSON in the file at ``path``; unreadable, invalid, too deep or too long is a parse-error.

    ``NaN``, ``Infinity`` and a float overflow are invalid too: RFC 8259 has no
    non-finite number, and a refusal quoting one would print invalid JSON.
    """
    import json  # here, so that only reading a JSON file loads it
    from math import isfinite

    def finite(number: str) -> float:
        value = float(number)
        if not isfinite(value):
            raise ValueError(f"{number} is not a finite number")
        return value

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise DomainError("parse-error", f"cannot read {name}: {exc}", offending) from None
    try:
        return json.loads(text, parse_float=finite, parse_constant=finite)
    except (ValueError, RecursionError) as exc:
        raise DomainError("parse-error", f"{name} is not valid JSON: {exc}", offending) from None
