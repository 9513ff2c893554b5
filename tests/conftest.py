"""Fixtures shared by the test modules."""

import os

import pytest

from exoforecast.cli import main
from helpers import CallLog


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """The ``--data`` and ``--schema`` flags of a 3-node, 200-step synth panel."""
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--nodes", "3", "--steps", "200",
                 "--seed", "5"]) == 0
    return ["--data", str(out / "panel.csv"),
            "--schema", str(out / "panel.schema.json")]


@pytest.fixture
def call_log(tmp_path):
    """A ``CallLog`` in this test's directory, closed after the test."""
    log = CallLog(tmp_path / "calls.log")
    yield log
    os.close(log.fd)
