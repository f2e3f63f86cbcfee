"""The package surface: the public names, what each entry point imports,
and the names the benchmark traces."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rpphilb
import rpphilb.cli
import rpphilb.verify

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACING = ROOT / "bench" / "tracing.py"
SUBMODULES = sorted(path.stem for path in (SRC / "rpphilb").glob("*.py") if path.stem != "__init__")


def test_every_submodule_on_disk_is_listed_once():
    # a missing entry can still resolve once some other import has bound it
    assert sorted(rpphilb._EXPORTS) == SUBMODULES


def test_every_public_name_resolves_once():
    assert len(rpphilb.__all__) == len(set(rpphilb.__all__))
    missing = [name for name in rpphilb.__all__ if not hasattr(rpphilb, name)]
    assert missing == []
    namespace = {}
    exec("from rpphilb import *", namespace)
    assert set(rpphilb.__all__) <= set(namespace)


def test_every_public_name_is_its_home_modules_object():
    for name in rpphilb.__all__:
        obj = getattr(rpphilb, name)
        assert obj.__module__.startswith("rpphilb."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_unknown_names_behave_as_on_a_plain_module():
    with pytest.raises(AttributeError, match="no_such_name"):
        rpphilb.no_such_name
    assert not hasattr(rpphilb, "__wrapped__")
    assert set(rpphilb.__all__) | set(SUBMODULES) <= set(dir(rpphilb))


# -- imports: each case runs in a fresh interpreter ------------------------------


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package from ``src``; it must succeed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded_by(code: str) -> set:
    """Modules that ``code`` loads in a fresh interpreter, beyond start-up's own."""
    script = "\n".join(
        [
            "import sys",
            "before = set(sys.modules)",
            code,
            "print(*sorted(set(sys.modules) - before))",
        ]
    )
    return set(_fresh_python("-c", script).stdout.splitlines()[-1].split())


def test_bare_import_loads_no_submodule():
    loaded = _loaded_by("import rpphilb")
    assert "rpphilb" in loaded
    assert sorted(name for name in loaded if name.startswith("rpphilb.")) == []


def test_every_submodule_resolves_after_a_bare_import():
    names = ", ".join(repr(name) for name in SUBMODULES)
    code = f"import rpphilb\nassert all(getattr(rpphilb, m).__name__ == 'rpphilb.' + m for m in ({names}))"
    assert {f"rpphilb.{name}" for name in SUBMODULES} <= _loaded_by(code)


def _cli_loads(*argv) -> set:
    return _loaded_by(f"from rpphilb.cli import main\nassert main({list(argv)!r}) == 0")


SERIES_ARGVS = [
    ("series", "--curve", "A1", "--max-size", "3", "2,1"),
    ("series", "--curve", "P1", "--max-size", "3", "2,1"),
    ("series", "--euler", "1", "--max-size", "3", "2,1"),
]


@pytest.mark.parametrize(
    "argv",
    [
        *SERIES_ARGVS,
        ("weight", "0 2 / 2 4"),
        ("indicators", "2,2"),
        ("factorizations", "0 2 / 2 4"),
    ],
)
def test_light_subcommands_skip_the_classifier_and_dataclasses(argv):
    loaded = _cli_loads(*argv)
    assert loaded & {"rpphilb.components", "rpphilb.equations", "rpphilb.verify", "dataclasses"} == set()


@pytest.mark.parametrize("argv", SERIES_ARGVS)
def test_series_skips_rpp_and_poly(argv):
    assert _cli_loads(*argv) & {"rpphilb.rpp", "rpphilb.poly"} == set()


def test_count_points_skips_poly():
    loaded = _cli_loads("count-points", "0 1 / 1 2", "--p", "2")
    assert "rpphilb.pointcount" in loaded
    assert "rpphilb.poly" not in loaded


def test_motivic_series_first_use_loads_only_its_layers():
    loaded = _loaded_by("import rpphilb\nrpphilb.motivic_series(rpphilb.YoungDiagram([1]), 'A1', 1)")
    assert sorted(name for name in loaded if name.split(".")[0] == "rpphilb") == [
        "rpphilb", "rpphilb.diagram", "rpphilb.errors", "rpphilb.series", "rpphilb.univariate"
    ]


def test_a_public_names_home_module_shows_in_the_import_time_report():
    code = "import rpphilb; rpphilb.motivic_series(rpphilb.YoungDiagram([1]), 'A1', 1)"
    report = _fresh_python("-X", "importtime", "-c", code).stderr.splitlines()
    assert "rpphilb.series" in [line.rpartition("|")[2].strip() for line in report]


def test_brute_force_series_loads_rpp_when_called():
    code = "\n".join(
        [
            "import rpphilb.series as S",
            "assert 'rpphilb.rpp' not in sys.modules",
            "d = S.YoungDiagram([2, 1])",
            "assert S.rpp_series_bruteforce(d, 4).coefficients == S.hook_product(d, 1, -1, 4).coefficients",
        ]
    )
    assert "rpphilb.rpp" in _loaded_by(code)


@pytest.mark.parametrize(
    "call",
    [
        "rpphilb.motivic_series(rpphilb.YoungDiagram([1]), 'A1', 1)",
        "rpphilb.classify(rpphilb.RPP.from_text('0 2 / 2 4'))",
    ],
)
def test_first_library_calls_load_no_json(call):
    assert "json" not in _loaded_by(f"import rpphilb\n{call}")


def test_only_errors_reads_json():
    # one JSON file reader, errors.read_json, serves @file.json and corpus files
    readers = set()
    for path in (SRC / "rpphilb").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            call = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(call, ast.Attribute)
                and call.attr in ("load", "loads")
                and isinstance(call.value, ast.Name)
                and call.value.id == "json"
            ) or (isinstance(node, ast.ImportFrom) and node.module == "json"):
                readers.add(path.name)
    assert readers == {"errors.py"}


def test_classify_skips_equations_pointcount_and_verify():
    loaded = _cli_loads("classify", "0 2 / 2 4")
    assert "rpphilb.components" in loaded
    assert loaded & {"rpphilb.equations", "rpphilb.pointcount", "rpphilb.verify"} == set()


def test_equations_skips_the_classifier_verify_and_dataclasses():
    # the tangent dimension is the count of variables left, so no rank is taken
    loaded = _cli_loads("equations", "--type", "I", "--tangent", "0 1 / 1 2")
    assert "rpphilb.equations" in loaded
    assert loaded & {"rpphilb.components", "rpphilb.verify", "rpphilb.linalg", "dataclasses"} == set()


def test_the_benchmarks_own_tests_pass():
    # bench/tests pins how the library is called (call counts, dataclasses.replace
    # on reports); it imports its helpers from its own conftest, so it runs apart
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


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
