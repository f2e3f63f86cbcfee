"""The demos run clean: each as a script, from a fresh interpreter, with warnings as errors (``frozen.py``)."""

import pytest

import frozen


def test_every_demo_is_listed():
    assert frozen.demos_listed_faults() == []


@pytest.mark.parametrize("name", sorted(frozen.HEADLINES))
def test_demo_runs_clean(name):
    assert frozen.demo_faults(name) == []
