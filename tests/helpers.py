"""Helpers shared by the test modules; the scalar-loop oracles stay in the
module that tests what they check."""

import math


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def one_error_line(capsys) -> str:
    """The one ``error:`` line a failed command wrote to stderr."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    return err[0]
