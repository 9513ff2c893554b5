"""Helpers shared by the test modules; the scalar-loop oracles stay in the
module that tests what they check."""

import math
import tracemalloc


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def one_error_line(capsys) -> str:
    """The one ``error:`` line a failed command wrote to stderr."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    return err[0]


def traced_peak(fn):
    """``fn()``'s result and the ``tracemalloc`` peak of that call, made
    after one warm-up call that fills caches outside the measurement."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def retained_bytes(fn) -> int:
    """The ``tracemalloc`` bytes that ``fn()``'s result keeps: the traced
    memory current after one call, its result still held, minus before it.
    Measured after one warm-up call that fills caches outside the measurement."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = fn()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after - before
