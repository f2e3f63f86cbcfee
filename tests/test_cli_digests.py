"""The CLI byte atlas: every recorded argv prints the bytes it printed when frozen."""

import pytest

import record_cli_digests

import frozen_tables as FT


@pytest.mark.parametrize("group", record_cli_digests.groups())
def test_no_argv_of_the_group_moves_its_bytes(group):
    assert record_cli_digests.first_moved(group, FT.CLI_DIGESTS[group]) is None


def test_every_group_is_frozen():
    assert list(FT.CLI_DIGESTS) == record_cli_digests.groups()
    # each run is frozen in one place only
    argvs = [argv for group in record_cli_digests._argvs().values() for argv in group]
    assert len(argvs) == len(set(argvs))
