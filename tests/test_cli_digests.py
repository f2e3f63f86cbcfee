"""The CLI byte atlas: every recorded argv prints the bytes it printed when
frozen, keeps the exit rule, and prints JSON that its shipped schema accepts."""

import pytest

import frozen
from conftest import check_schema
from rpphilb.cli import build_parser

import frozen_tables as FT


def _options(argv):
    return vars(build_parser().parse_args(list(argv)))


@pytest.mark.parametrize("group", frozen.groups())
def test_no_argv_of_the_group_moves_its_bytes(group):
    assert frozen.group_faults(group) == []


@pytest.mark.parametrize("group", frozen.groups())
def test_every_run_keeps_the_exit_rule_and_its_schema(group):
    group_runs = frozen.runs(group)
    assert frozen.breaches(group_runs) == []
    for argv, _, out, err in group_runs:
        if err:
            check_schema(frozen.strict_json(err), "error")
        elif _options(argv)["format"] == "json":
            check_schema(frozen.strict_json(out), group.replace("-", "_"))


def test_every_group_is_frozen():
    assert list(FT.CLI_DIGESTS) == frozen.groups()
    # each run is frozen in one place only: no two argv parse to the same options
    runs = [tuple(sorted(_options(argv).items())) for group in frozen._argvs().values() for argv in group]
    assert len(runs) == len(set(runs))


def test_a_run_that_raises_is_a_breach_and_the_check_goes_on(monkeypatch, capsys):
    def main(argv):
        raise ValueError(f"no answer to {argv[0]}")

    monkeypatch.setattr(frozen, "main", main)
    assert frozen.check({g: frozen.layers()[g] for g in frozen.groups()}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == frozen.groups()
    for group, line in zip(frozen.groups(), lines):
        argv = frozen._argvs()[group][0]
        assert line.endswith(f"first {argv}: raised ValueError('no answer to {group}')"), line


def test_a_layer_that_raises_is_reported_and_the_check_goes_on(monkeypatch, capsys):
    def atlas():
        raise RuntimeError("no atlas")

    monkeypatch.setattr(frozen, "atlas", atlas)
    assert frozen.check({g: frozen.layers()[g] for g in ("ATLAS_SHA256", "weight")}) == 1
    assert capsys.readouterr().out.splitlines() == ["ATLAS_SHA256: raised RuntimeError('no atlas')", "weight: ok"]


def test_a_group_frozen_too_short_too_long_or_not_at_all_moves_and_the_check_goes_on(monkeypatch, capsys):
    table = dict(FT.CLI_DIGESTS)
    table["weight"] = table["weight"].rsplit(" ", 1)[0]
    table["factorizations"] += " 00000000"
    del table["indicators"]
    monkeypatch.setattr(FT, "CLI_DIGESTS", table)
    argvs = frozen._argvs()
    past = len(argvs["factorizations"]) + 1
    assert frozen.check({g: frozen.layers()[g] for g in ("weight", "indicators", "factorizations", "classify")}) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"weight: moved, first at {argvs['weight'][-1]}",
        f"indicators: moved, first at {argvs['indicators'][0]}",
        f"factorizations: moved, first at frozen fingerprint {past} of {past}",
        "classify: ok",
    ]
