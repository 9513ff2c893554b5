"""Horizons 1..D share one rollout: each continues the one before it.

The oracle is the rollout loop every horizon used before: stack the
windows, then forecast each day from day 1. The CLI's outputs must equal
that loop's by bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exoforecast
from exoforecast import cli, data as data_module, model as model_module
from exoforecast.cli import main
from exoforecast.data import (SynthConfig, VariableRole, load_panel, prepare_splits,
                              save_panel, synth_generate)
from exoforecast.training import metrics, stack_samples
from helpers import no_child_left
from test_model import needs_blas_control

T_PAST, T_FUTURE, NODES, HIDDEN = 6, 4, 3, 4
CHUNK = 3  # windows per forward on one worker: n_d of every horizon below is no multiple of it
TINY = ["--t-past", str(T_PAST), "--t-future", str(T_FUTURE),
        "--hidden", str(HIDDEN), "--experts", "2", "--mix-hidden", "4",
        "--epochs", "2", "--batch", "64", "--keep-prob", "1.0", "--seed", "1"]


def _from_day_one(model, samples, scaler, target_channel, history=None):
    """Every horizon rolled from day 1, ignoring any shorter rollout."""
    x, e_p, e_f, y = stack_samples(samples)
    t_past = x.shape[2]
    t_future = e_f.shape[2] - (e_p.shape[2] - t_past)
    days = e_f.shape[2] // t_future
    rolled = x
    for d in range(days):
        lo = d * t_future
        pred = model.predict(rolled[:, :, -t_past:, :], e_p[:, :, lo:lo + t_past, :],
                             e_f[:, :, lo:lo + t_future, :])
        rolled = np.concatenate([rolled, pred], axis=2)
    return metrics(scaler.inverse_channel(y, target_channel),
                   scaler.inverse_channel(rolled[:, :, t_past:], target_channel))


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """All workers together forecast 3 windows at a time, so chunks end
    inside every horizon."""
    span = NODES * max(T_PAST, T_FUTURE) * HIDDEN
    monkeypatch.setattr(model_module, "PREDICT_CHUNK", CHUNK * span)


@pytest.fixture(scope="module")
def panel_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("panel")
    # a 20-step test split: 11, 7 and 3 windows for 1, 2 and 3 days
    panel = synth_generate(SynthConfig(nodes=NODES, steps=200, seed=4))
    save_panel(panel, out / "panel.csv", out / "panel.schema.json")
    return out


def _data(panel_dir) -> list[str]:
    return ["--data", str(panel_dir / "panel.csv"),
            "--schema", str(panel_dir / "panel.schema.json")]


def _outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name not in ("timing.txt", "config.json")}


def _both(monkeypatch, tmp_path, argv: list[str]) -> tuple[dict, dict]:
    """``argv`` run as is and with the oracle, each into its own ``--out``."""
    got = {}
    for name in ("shared", "oracle"):
        with monkeypatch.context() as m:
            if name == "oracle":
                m.setattr(cli, "evaluate", _from_day_one)
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        got[name] = _outputs(tmp_path / name)
    return got["shared"], got["oracle"]


@pytest.mark.parametrize("backbone", ["grugcn", "mlp-mixer"])
class TestSharedRolloutBytes:
    def test_train_three_days(self, panel_dir, tmp_path, monkeypatch, backbone):
        shared, oracle = _both(monkeypatch, tmp_path, [
            "train", *_data(panel_dir), *TINY, "--backbone", backbone,
            "--horizon-days", "3"])
        assert set(shared) >= {"metrics.json", "metrics.txt", "model.bin",
                               "history.jsonl"}
        assert shared == oracle

    @pytest.mark.parametrize("ablate", [[], ["--no-use-past"]])
    def test_eval_each_horizon(self, panel_dir, tmp_path, monkeypatch,
                               backbone, ablate):
        model_dir = tmp_path / "run"
        assert main(["train", *_data(panel_dir), *TINY, *ablate,
                     "--backbone", backbone, "--horizon-days", "3",
                     "--out", str(model_dir)]) == 0
        for days in ("1", "2", "3"):
            shared, oracle = _both(monkeypatch, tmp_path / days, [
                "eval", "--model-dir", str(model_dir), "--horizon-days", days])
            rows = json.loads(shared["metrics.json"])
            assert [r["horizon_days"] for r in rows] == list(range(1, int(days) + 1))
            assert shared == oracle
        # the archive's own rows came from the shared rollout too
        assert (model_dir / "metrics.json").read_bytes() == shared["metrics.json"]

    def test_eval_corrupt_random(self, panel_dir, tmp_path, monkeypatch,
                                 backbone):
        model_dir = tmp_path / "run"
        assert main(["train", *_data(panel_dir), *TINY, "--backbone", backbone,
                     "--horizon-days", "3", "--out", str(model_dir)]) == 0
        shared, oracle = _both(monkeypatch, tmp_path, [
            "eval", "--model-dir", str(model_dir), "--corrupt", "random",
            "--corrupt-ratio", "0.4"])
        assert shared == oracle


def _count(monkeypatch, owner, attr: str) -> list:
    """Record the first positional argument of every call of ``owner.attr``."""
    seen = []
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        seen.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return seen


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, panel_dir):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", *_data(panel_dir), *TINY, "--backbone", "mlp-mixer",
                 "--horizon-days", "3", "--out", str(out)]) == 0
    return out


def test_eval_forecasts_each_window_day_once(panel_dir, model_dir, tmp_path,
                                             monkeypatch):
    monkeypatch.setattr(model_module, "PREDICT_WORKERS", 1)
    seen = _count(monkeypatch, model_module.ExoModel, "forward")
    assert main(["eval", "--model-dir", str(model_dir),
                 "--out", str(tmp_path)]) == 0
    test_steps = prepare_splits(load_panel(panel_dir / "panel.csv",
                                           panel_dir / "panel.schema.json"),
                                T_PAST, T_FUTURE).test_panel.n_steps
    n = [test_steps - T_PAST - d * T_FUTURE + 1 for d in (1, 2, 3)]
    assert n == [11, 7, 3]
    assert len(seen) == sum(-(-n_d // CHUNK) for n_d in n) == 8
    # rolling every horizon from day 1 takes 4 + 2*3 + 3*1 = 13


@needs_blas_control
def test_two_workers_forecast_each_window_day_once(model_dir, tmp_path, monkeypatch,
                                                   call_log):
    """Each chunk is forecast once, in the caller or in a forked child, and
    no child process outlives ``eval``."""
    monkeypatch.setattr(model_module, "PREDICT_WORKERS", 2)
    forward = model_module.ExoModel.forward

    def logged(self, x, *args, **kwargs):
        call_log.write(os.getpid(), len(x))
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(model_module.ExoModel, "forward", logged)
    assert main(["eval", "--model-dir", str(model_dir),
                 "--out", str(tmp_path)]) == 0
    rows = call_log.rows()
    assert [n for _, n in rows] == [1] * (11 + 7 + 3)  # one window per chunk on each worker
    # each horizon's forecast forks one child of its own
    assert os.getpid() in {pid for pid, _ in rows} and len({pid for pid, _ in rows}) == 4
    assert no_child_left()


@needs_blas_control
@pytest.mark.parametrize("command", [["eval", "--horizon-days", "3"], ["corrupt-eval"]])
def test_two_workers_write_the_bytes_of_one(model_dir, tmp_path, monkeypatch, command):
    # 2-window chunks on one worker and 1-window chunks on two split every horizon
    span = NODES * max(T_PAST, T_FUTURE) * HIDDEN
    monkeypatch.setattr(model_module, "PREDICT_CHUNK", 2 * span)
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", workers)
        out = tmp_path / str(workers)
        assert main([*command, "--model-dir", str(model_dir), "--out", str(out)]) == 0
        got[workers] = _outputs(out)
    assert got[2] == got[1] and got[1]


class TestSplitWindowsOnDemand:
    """``eval`` and ``corrupt-eval`` score rollouts of the test panel only,
    so they window no split; ``train`` windows train and val once each."""

    @pytest.mark.parametrize("command", [["eval"], ["corrupt-eval"],
                                         ["eval", "--corrupt", "zero",
                                          "--corrupt-ratio", "0.5"]])
    @pytest.mark.parametrize("ablate", [[], ["--no-use-past"]])
    def test_eval_windows_no_split(self, panel_dir, tmp_path, monkeypatch,
                                   command, ablate):
        run_dir = tmp_path / "run"
        assert main(["train", *_data(panel_dir), *TINY, *ablate,
                     "--backbone", "mlp-mixer", "--out", str(run_dir)]) == 0
        seen = _count(monkeypatch, data_module, "make_windows")
        assert main([*command, "--model-dir", str(run_dir),
                     "--out", str(tmp_path / "out")]) == 0
        assert seen == []

    @pytest.mark.parametrize("ablate", [[], ["--no-use-date"]])
    def test_train_windows_train_and_val_once(self, panel_dir, tmp_path,
                                              monkeypatch, ablate):
        seen = _count(monkeypatch, data_module, "make_windows")
        assert main(["train", *_data(panel_dir), *TINY, *ablate,
                     "--backbone", "mlp-mixer", "--horizon-days", "2",
                     "--out", str(tmp_path)]) == 0
        prepared = prepare_splits(load_panel(panel_dir / "panel.csv",
                                             panel_dir / "panel.schema.json"),
                                  T_PAST, T_FUTURE)
        assert [p.n_steps for p in seen] == [prepared.train_panel.n_steps,
                                             prepared.val_panel.n_steps]
        for panel in seen:
            dates = panel.data[:, :, panel.indices_for(VariableRole.DATE)]
            assert dates.any() != bool(ablate)


def test_python_m_exoforecast_help():
    src = str(Path(exoforecast.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "exoforecast", "--help"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: exoforecast")
