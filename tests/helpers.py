"""Helpers shared by the test modules; the scalar-loop oracles stay in the
module that tests what they check."""

import contextlib
import math
import os
import signal
import tracemalloc

from exoforecast import model as model_module


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


class CallLog:
    """Rows of integers that calls append from this process or from any
    child it forks: each row is one ``write`` to a file opened with
    ``O_APPEND``, which children inherit, so no child's row is lost or torn."""

    def __init__(self, path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)

    def write(self, *fields: int) -> None:
        os.write(self.fd, (" ".join(map(str, fields)) + "\n").encode())

    def rows(self) -> list[tuple[int, ...]]:
        with open(self.path) as fh:
            return [tuple(map(int, line.split())) for line in fh]

    def take(self) -> list[tuple[int, ...]]:
        """The rows written so far, which the log then forgets."""
        rows = self.rows()
        os.ftruncate(self.fd, 0)
        return rows


def no_child_left() -> bool:
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextlib.contextmanager
def blas_guard(blas_threads: int, seconds: int = 60):
    """BLAS at ``blas_threads`` for a ``with`` block, which must end within
    ``seconds``, leave BLAS there and leave no child process."""
    get_threads, set_threads = model_module._BLAS_THREADS

    def expire(signum, frame):
        raise TimeoutError(f"the block ran over {seconds} s")

    before, on_alarm = get_threads(), signal.signal(signal.SIGALRM, expire)
    set_threads(blas_threads)
    signal.alarm(seconds)  # a forked child starts with no alarm of its own
    try:
        yield
        assert get_threads() == blas_threads and no_child_left()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, on_alarm)
        set_threads(before)
