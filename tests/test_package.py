"""The package surface: the public names and the names the benchmark traces."""

import importlib.util
import sys
from pathlib import Path

import rpphilb
import rpphilb.cli
import rpphilb.verify

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_public_name_resolves_once():
    assert len(rpphilb.__all__) == len(set(rpphilb.__all__))
    missing = [name for name in rpphilb.__all__ if not hasattr(rpphilb, name)]
    assert missing == []
    namespace = {}
    exec("from rpphilb import *", namespace)
    assert set(rpphilb.__all__) <= set(namespace)


def _load_tracing(monkeypatch):
    # by file path, since bench/ is not a package; registered for the test
    # only, as dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_trace_target_resolves_and_is_restored(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    originals = {}
    for target in tracing.TARGETS:
        owner, attr = tracing._resolve(target)
        originals[target.name] = (owner, attr, owner.__dict__[attr])
    undo = tracing.install(tracing.new_tracer())
    try:
        replaced = [name for name, (owner, attr, fn) in originals.items() if owner.__dict__[attr] is not fn]
        assert sorted(replaced) == sorted(originals)
    finally:
        tracing.uninstall(undo)
    assert all(getattr(holder, key) is original for holder, key, original in undo)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals.values())
