"""A training step's future branch runs on a forked worker, bit for bit.

``train`` opens a ``BranchWorker``, and each eligible step runs its future
branch (select stage and backbone, forward and backward) on the worker's
one forked child while the caller runs the past branch. These tests pin
that the run writes the bytes of the serial run, that the child is forked
only for eligible steps, and that every way a step can fail leaves BLAS
at its thread count and no child process behind.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from exoforecast import autodiff as ad
from exoforecast import model as model_module
from exoforecast import training
from exoforecast.cli import main
from exoforecast.model import BranchWorker, ExoModel, ModelConfig
from helpers import CallLog, blas_guard, no_child_left, one_error_line
from test_same_bits import TINY, _runs

pytestmark = pytest.mark.skipif(
    model_module._BLAS_THREADS is None or not hasattr(os, "fork"),
    reason="numpy's OpenBLAS thread control or os.fork is unreachable, so steps run serially")

SRC = Path(__file__).resolve().parent.parent / "src"
# runs where a tensor is read by both branches, so no step may fork
SHARED_READS = {"grugcn-shared", "mlp-mixer-shared", "grugcn-attention",
                "mlp-mixer-attention", "grugcn-adaptive", "grugcn-adaptive-directed"}
SMALL = ModelConfig(n_nodes=3, past_exo_dim=1, future_exo_dim=1, t_past=4, t_future=3,
                    hidden=4, experts=2, mix_hidden=3, graph_kind="identity")


@pytest.fixture
def future_log(monkeypatch, call_log):
    """Each future branch a worker's child runs writes its pid to ``call_log``."""
    future_branch = ExoModel._future_branch

    def logged(self, *args):
        call_log.write(os.getpid())
        return future_branch(self, *args)

    monkeypatch.setattr(ExoModel, "_future_branch", logged)
    return call_log


@pytest.fixture
def forking(monkeypatch, future_log):
    """``future_log``, and a step of any size may fork."""
    monkeypatch.setattr(model_module, "BRANCH_FORK_MIN", 0)
    return future_log


def _train(data, out, *flags) -> int:
    return main(["train", *data, *TINY, *flags, "--seed", "1", "--out", str(out)])


@pytest.mark.parametrize("name", sorted(_runs()))
def test_two_workers_write_the_bytes_of_one(name, data, tmp_path, monkeypatch, forking):
    got, children = {}, {}
    for workers in (1, 2):
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", workers)
        out = tmp_path / f"workers{workers}"
        with blas_guard(2):
            assert _train(data, out, *_runs()[name]) == 0
        got[workers] = [(out / f).read_bytes() for f in ("history.jsonl", "model.bin")]
        children[workers] = {pid for (pid,) in forking.take()}
    assert got[2] == got[1]
    assert children[1] == set()
    if name in SHARED_READS:
        assert children[2] == set()
    else:  # one child serves every step of the run
        assert len(children[2]) == 1 and os.getpid() not in children[2]


def test_live_thread_keeps_every_step_in_the_caller(data, tmp_path, monkeypatch, forking):
    monkeypatch.setattr(model_module, "PREDICT_WORKERS", 2)
    assert _train(data, tmp_path / "serial") == 0
    forking.take()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert _train(data, tmp_path / "threaded") == 0
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive() and forking.rows() == []
    for f in ("history.jsonl", "model.bin"):
        assert (tmp_path / "threaded" / f).read_bytes() == (tmp_path / "serial" / f).read_bytes()
    assert no_child_left()


def test_small_steps_stay_in_the_caller(data, tmp_path, monkeypatch, future_log):
    """At the default ``BRANCH_FORK_MIN`` a tiny step is not worth a child."""
    monkeypatch.setattr(model_module, "PREDICT_WORKERS", 2)
    assert _train(data, tmp_path / "run") == 0
    assert future_log.rows() == [] and no_child_left()


def test_the_child_draws_nothing(data, tmp_path, monkeypatch, forking):
    """``forward`` draws both dropout masks before it forks, so every
    ``keep_mask`` call of a 2-worker run is the caller's."""
    draws, draw = CallLog(tmp_path / "draws.log"), model_module.keep_mask

    def logged(*args):
        draws.write(os.getpid())
        return draw(*args)

    monkeypatch.setattr(model_module, "keep_mask", logged)
    monkeypatch.setattr(model_module, "PREDICT_WORKERS", 2)
    try:
        with blas_guard(2):
            assert _train(data, tmp_path / "run") == 0
        assert draws.rows() and set(draws.rows()) == {(os.getpid(),)}
    finally:
        os.close(draws.fd)
    children = {pid for (pid,) in forking.rows()}
    assert len(children) == 1 and os.getpid() not in children


def test_taped_eval_forward_forks(monkeypatch, forking):
    """Without an rng nothing is drawn, so a taped eval-mode forward runs
    its future branch on a child too, with the 1-worker forecast and grads."""
    rng = np.random.default_rng(0)
    x, e_p, e_f = (rng.normal(size=(5, 3, t, 1)) for t in (4, 4, 3))
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", workers)
        model = ExoModel(SMALL)
        with blas_guard(2):
            with BranchWorker() as worker:
                with ad.Tape() as tape:
                    y = model.forward(x, e_p, e_f, worker=worker)[0]
                    loss = ad.mean(ad.mul(y, y))
                tape.backward(loss)
                worker.collect()
        got[workers] = [y.values.tobytes()] + [p.grad.tobytes()
                                                for p in model.parameters().values()]
    assert got[2] == got[1]
    ((child,),) = forking.rows()
    assert child != os.getpid()


class FutureError(Exception):
    """An exception that ``pickle`` rebuilds from its one argument."""


class StopRun(BaseException):
    """Raised between a step's forward and backward, as a benchmark hook may."""


class TestFailures:
    """Each way a step fails ends with BLAS at its thread count and no child."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", 2)

    def test_childs_exception_keeps_its_type_and_message(self, data, tmp_path,
                                                         monkeypatch, forking):
        def fail(self, *args):
            forking.write(os.getpid())
            raise FutureError("no future for this window")

        monkeypatch.setattr(ExoModel, "_future_branch", fail)
        with blas_guard(2):
            with pytest.raises(FutureError, match="^no future for this window$"):
                _train(data, tmp_path / "run")
        ((child,),) = forking.rows()
        assert child != os.getpid()

    def test_killed_child_raises_one_line(self, data, tmp_path, monkeypatch, forking):
        def die(self, *args):
            forking.write(os.getpid())
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(ExoModel, "_future_branch", die)
        with blas_guard(2):
            with pytest.raises(RuntimeError) as raised:
                _train(data, tmp_path / "run")
        ((child,),) = forking.rows()
        assert child != os.getpid()
        assert str(raised.value) == f"future-branch worker {child} was ended by SIGKILL"

    def test_non_finite_loss_reaps_the_child(self, data, tmp_path, monkeypatch, capsys,
                                             forking):
        loss_tensor = training._loss_tensor
        monkeypatch.setattr(training, "_loss_tensor",
                            lambda *args: ad.mul(loss_tensor(*args), np.nan))
        with blas_guard(2):
            assert _train(data, tmp_path / "run") == 1
        assert one_error_line(capsys) == "error: non-finite loss at epoch 1, batch 1"
        ((child,),) = forking.rows()
        assert child != os.getpid()

    def test_stop_between_forward_and_backward(self, data, tmp_path, monkeypatch, forking):
        def stop(self, *args):
            raise StopRun

        monkeypatch.setattr(ad.Tape, "backward", stop)
        with blas_guard(2):
            with pytest.raises(StopRun):
                _train(data, tmp_path / "run")
        assert len(forking.rows()) == 1

    def test_fork_after_blas_started_its_pool(self, tmp_path):
        script = textwrap.dedent("""
            import numpy as np
            from exoforecast import model as model_module
            from exoforecast.cli import main

            get_threads, set_threads = model_module._BLAS_THREADS
            set_threads(2)
            a = np.ones((1000, 1000))
            a @ a  # OpenBLAS's pool now has a thread running beside this one
            model_module.BRANCH_FORK_MIN = 0
            assert main(["synth", "--out", "panel", "--nodes", "3", "--steps", "200"]) == 0
            got = {}
            for workers in (1, 2):
                model_module.PREDICT_WORKERS = workers
                assert main(["train", "--data", "panel/panel.csv", "--schema",
                             "panel/panel.schema.json", "--t-past", "6", "--t-future", "4",
                             "--hidden", "4", "--experts", "2", "--epochs", "2",
                             "--batch", "32", "--out", f"run{workers}"]) == 0
                got[workers] = open(f"run{workers}/model.bin", "rb").read()
            assert got[2] == got[1] and get_threads() == 2
            print("same bytes")
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, cwd=tmp_path)
        assert (done.returncode, done.stdout.splitlines()[-1:]) == (0, ["same bytes"]), \
            done.stderr

    def test_step_after_a_non_finite_loss(self, monkeypatch, forking):
        """A step whose loss is not finite leaves zero grads and ends the
        child, so the next step forks a new one and gets the serial grads."""
        rng = np.random.default_rng(0)
        x, e_p, e_f, y = (rng.normal(size=(5, 3, t, 1)) for t in (4, 4, 3, 3))
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(model_module, "PREDICT_WORKERS", workers)
            model, step_rng = ExoModel(SMALL), np.random.default_rng(1)
            params = list(model.parameters().values())
            with blas_guard(2):
                with BranchWorker() as worker:
                    loss = training.train_step(model, (x, e_p, e_f, np.full_like(y, np.nan)),
                                               step_rng, "mae", worker)
                    assert np.isnan(loss) and not any(p.grad.any() for p in params)
                    training.train_step(model, (x, e_p, e_f, y), step_rng, "mae", worker)
            got[workers] = [p.grad.tobytes() for p in params] + [step_rng.random(3).tobytes()]
        assert got[2] == got[1]
        children = {pid for (pid,) in forking.rows()}
        assert len(children) == 2 and os.getpid() not in children

    def test_a_forked_tape_is_swept_once(self, monkeypatch, forking):
        model, rng = ExoModel(SMALL), np.random.default_rng(0)
        x, e_p, e_f = (rng.normal(size=(5, 3, t, 1)) for t in (4, 4, 3))
        with blas_guard(2):
            with BranchWorker() as worker:
                with ad.Tape() as tape:
                    loss = ad.mean(model.forward(x, e_p, e_f, rng=rng, worker=worker)[0])
                tape.backward(loss)
                worker.collect()
                grads = [p.grad.copy() for p in model.parameters().values()]
                with pytest.raises(RuntimeError, match="^this tape holds a remote node's "
                                   "value, whose backward runs once; the tape cannot be "
                                   "replayed$"):
                    tape.backward(loss)
            assert all(np.array_equal(p.grad, g)
                       for p, g in zip(model.parameters().values(), grads))
        assert len(forking.rows()) == 1
