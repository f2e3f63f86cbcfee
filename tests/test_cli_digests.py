"""The CLI byte atlas: every recorded argv prints the bytes it printed when
frozen, keeps the exit rule, and prints JSON that its shipped schema accepts."""

import functools

import pytest

import record_cli_digests
from conftest import check_schema
from rpphilb.cli import build_parser

import frozen_tables as FT


@functools.cache
def _runs(group):
    """The group's runs, shared by the tests below so that each argv runs once."""
    return record_cli_digests.runs(group)


def _options(argv):
    return vars(build_parser().parse_args(list(argv)))


@pytest.mark.parametrize("group", record_cli_digests.groups())
def test_no_argv_of_the_group_moves_its_bytes(group):
    assert record_cli_digests.first_moved(_runs(group), FT.CLI_DIGESTS[group]) is None


@pytest.mark.parametrize("group", record_cli_digests.groups())
def test_every_run_keeps_the_exit_rule_and_its_schema(group):
    assert record_cli_digests.breaches(_runs(group)) == []
    for argv, _, out, err in _runs(group):
        if err:
            check_schema(record_cli_digests.strict_json(err), "error")
        elif _options(argv)["format"] == "json":
            check_schema(record_cli_digests.strict_json(out), group.replace("-", "_"))


def test_every_group_is_frozen():
    assert list(FT.CLI_DIGESTS) == record_cli_digests.groups()
    # each run is frozen in one place only: no two argv parse to the same options
    runs = [tuple(sorted(_options(argv).items())) for group in record_cli_digests._argvs().values() for argv in group]
    assert len(runs) == len(set(runs))


def test_a_run_that_raises_is_a_breach_and_the_check_goes_on(monkeypatch, capsys):
    def main(argv):
        raise ValueError(f"no answer to {argv[0]}")

    monkeypatch.setattr(record_cli_digests, "main", main)
    assert record_cli_digests._check() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == record_cli_digests.groups()
    for group, line in zip(record_cli_digests.groups(), lines):
        argv = record_cli_digests._argvs()[group][0]
        assert line.endswith(f"first {argv}: raised ValueError('no answer to {group}')"), line
