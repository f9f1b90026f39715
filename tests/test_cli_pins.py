"""Every pin of ``cli_pins`` run in process through ``cli.main``, and the
checks that keep the table whole."""

import shlex

import pytest

from blockdet.cli import _shared_parser
from cli_pins import PINS, check, run_in_process


@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_pin(pin):
    assert check(pin, run_in_process) == []


def test_each_call_is_pinned_once_and_every_command_and_exit_code_has_a_pin():
    calls = [(tuple(shlex.split(pin.cmd)), pin.input) for pin in PINS]
    assert len(set(calls)) == len(calls)
    assert set(_shared_parser()[1]) <= {argv[0] for argv, _ in calls}
    assert {pin.code for pin in PINS} == {0, 1, 2}
