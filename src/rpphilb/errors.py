"""Shared error types and the library's one integer check.

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
