"""The tier-1 gate: exit 1 unless exactly ``EXPECTED``, the by-design failure, fails.

    python tests/gate.py tier1.xml

A junit case with an error element fails too, so a collection error counts."""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"tests/test_acceptance.py::test_criterion_5_box_product_expansion"}


def gate(junit: str) -> str | None:
    """None when exactly ``EXPECTED`` fails in the report ``junit``, else why not."""
    cases = list(ET.parse(junit).getroot().iter("testcase"))
    failed = {
        case.get("classname").replace(".", "/") + ".py::" + case.get("name")
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    print(f"{len(cases)} test cases, failed: {sorted(failed)}")
    return None if failed == EXPECTED else f"expected exactly {sorted(EXPECTED)} to fail"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} JUNIT")
    sys.exit(gate(sys.argv[1]))
