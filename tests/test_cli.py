"""Tests for the command-line surface."""

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from exoforecast import cli
from exoforecast.cli import main
from exoforecast.data import (SynthConfig, load_panel, prepare_splits, save_panel,
                              synth_generate)

TINY_TRAIN = [
    "--t-past", "6", "--t-future", "4", "--hidden", "4", "--experts", "2",
    "--mix-hidden", "4", "--backbone", "mlp-mixer", "--epochs", "3",
    "--batch", "64", "--patience", "30", "--keep-prob", "1.0",
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--nodes", "3", "--steps", "200",
               "--lag", "3", "--seed", "7"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(synth_dir / "panel.csv"),
               "--schema", str(synth_dir / "panel.schema.json"),
               "--out", str(out), "--seed", "1", *TINY_TRAIN])
    assert rc == 0
    return out


class TestSynth:
    def test_emits_loadable_panel(self, synth_dir):
        panel = load_panel(synth_dir / "panel.csv",
                           synth_dir / "panel.schema.json")
        assert panel.n_nodes == 3 and panel.n_steps == 200

    def test_deterministic_bytes(self, synth_dir, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--nodes", "3",
                   "--steps", "200", "--lag", "3", "--seed", "7"])
        assert rc == 0
        assert (tmp_path / "panel.csv").read_bytes() == \
            (synth_dir / "panel.csv").read_bytes()


class TestTrain:
    def test_archive_contents(self, trained_dir):
        for name in ("config.json", "model.bin", "history.jsonl",
                     "metrics.json", "metrics.txt", "timing.txt"):
            assert (trained_dir / name).exists(), name

    def test_history_records(self, trained_dir):
        lines = (trained_dir / "history.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert {"epoch", "loss", "lr", "val_mae"} <= set(rec)
        assert rec["lr"] == 1e-2  # cosine start

    def test_config_reproducibility(self, synth_dir, trained_dir,
                                    tmp_path_factory):
        out = tmp_path_factory.mktemp("rerun")
        rc = main(["train", "--data", str(synth_dir / "panel.csv"),
                   "--schema", str(synth_dir / "panel.schema.json"),
                   "--out", str(out), "--seed", "1", *TINY_TRAIN])
        assert rc == 0
        for name in ("config.json", "model.bin", "history.jsonl",
                     "metrics.json", "metrics.txt"):
            assert (out / name).read_bytes() == \
                (trained_dir / name).read_bytes(), name

    def test_mse_loss_is_archived_with_a_finite_history(self, synth_dir, tmp_path):
        rc = main(["train", "--data", str(synth_dir / "panel.csv"),
                   "--schema", str(synth_dir / "panel.schema.json"),
                   "--out", str(tmp_path), "--seed", "1", *TINY_TRAIN,
                   "--epochs", "2", "--loss", "mse"])
        assert rc == 0
        assert json.loads((tmp_path / "config.json").read_text())["train"]["loss"] == "mse"
        history = [json.loads(line) for line in
                   (tmp_path / "history.jsonl").read_text().splitlines()]
        assert len(history) == 2
        assert all(np.isfinite([h["loss"], h["val_mae"]]).all() for h in history)


ARCHIVE_DAMAGE = {
    "inside-magic": lambda blob: blob[:4],
    "inside-count": lambda blob: blob[:10],
    "after-count": lambda blob: blob[:12],
    "inside-first-tensor": lambda blob: blob[:30],
    "last-byte-missing": lambda blob: blob[:-1],
    "trailing-byte": lambda blob: blob + b"\0",
}


class TestEval:
    def test_reproduces_training_metrics(self, trained_dir, tmp_path):
        rc = main(["eval", "--model-dir", str(trained_dir),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "metrics.json").read_bytes() == \
            (trained_dir / "metrics.json").read_bytes()

    def test_corrupted_eval_runs(self, trained_dir, tmp_path):
        rc = main(["eval", "--model-dir", str(trained_dir),
                   "--out", str(tmp_path), "--corrupt", "zero",
                   "--corrupt-ratio", "0.4"])
        assert rc == 0
        rows = json.loads((tmp_path / "metrics.json").read_text())
        assert rows[0]["mae"] > 0

    def test_missing_archive_fails_cleanly(self, tmp_path, capsys):
        rc = main(["eval", "--model-dir", str(tmp_path / "nope")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", sorted(ARCHIVE_DAMAGE))
    def test_damaged_archive_fails_with_one_line(self, trained_dir, tmp_path,
                                                 capsys, damage):
        model_dir = tmp_path / "damaged"
        shutil.copytree(trained_dir, model_dir)
        blob = (trained_dir / "model.bin").read_bytes()
        (model_dir / "model.bin").write_bytes(ARCHIVE_DAMAGE[damage](blob))
        rc = main(["eval", "--model-dir", str(model_dir),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "model.bin" in err[0]

    def test_rollout_horizons(self, trained_dir, tmp_path):
        rc = main(["eval", "--model-dir", str(trained_dir),
                   "--out", str(tmp_path), "--horizon-days", "2"])
        assert rc == 0
        rows = json.loads((tmp_path / "metrics.json").read_text())
        assert [r["horizon_days"] for r in rows] == [1, 2]


class TestHorizonTooLong:
    """A rollout the test split cannot hold fails before any work, with one
    ``error:`` line and no output written."""

    @pytest.fixture(scope="class")
    def short_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("short")
        # 100 steps leave a 10-step test split: one 6+4 window, no 2-day rollout
        assert main(["synth", "--out", str(out), "--nodes", "2", "--steps", "100",
                     "--seed", "3"]) == 0
        return out

    @staticmethod
    def _refuse_work(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the horizon check")
        for name in ("train", "evaluate"):
            monkeypatch.setattr(cli, name, fail)

    def _one_error(self, capsys, days: int) -> None:
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: segment length 10 too short for a {days}-day rollout"]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_train_and_ablate(self, short_dir, tmp_path, capsys, monkeypatch,
                              command):
        self._refuse_work(monkeypatch)
        out = tmp_path / "out"
        rc = main([command, "--data", str(short_dir / "panel.csv"),
                   "--schema", str(short_dir / "panel.schema.json"),
                   "--out", str(out), "--horizon-days", "2", *TINY_TRAIN])
        assert rc == 1
        self._one_error(capsys, 2)
        assert not out.exists()

    # corrupt-eval scores one horizon, so building its windows is the check
    @pytest.mark.parametrize("command", ["eval", "corrupt-eval"])
    def test_eval_and_corrupt_eval(self, short_dir, tmp_path, capsys,
                                   monkeypatch, command):
        model_dir = tmp_path / "run"
        assert main(["train", "--data", str(short_dir / "panel.csv"),
                     "--schema", str(short_dir / "panel.schema.json"),
                     "--out", str(model_dir), *TINY_TRAIN]) == 0
        capsys.readouterr()
        self._refuse_work(monkeypatch)
        out = tmp_path / "out"
        rc = main([command, "--model-dir", str(model_dir), "--out", str(out),
                   "--horizon-days", "3"])
        assert rc == 1
        self._one_error(capsys, 2 if command == "eval" else 3)
        assert not out.exists()


def _stale(config: dict, level: str, change: str) -> None:
    block = config if level == "run" else config[level]
    if change == "extra":
        block["stale_key"] = 1
    else:
        del block["seed"]


class TestIrregularCadence:
    def test_train_refuses_dropped_days(self, tmp_path, capsys):
        panel = synth_generate(SynthConfig(nodes=3, steps=300, seed=7))
        keep = [t for t in range(300) if not 100 <= t < 172]  # 72 hours dropped
        csv = tmp_path / "panel.csv"
        save_panel(replace(panel, timestamps=[panel.timestamps[t] for t in keep],
                           data=panel.data[:, keep]),
                   csv, tmp_path / "panel.schema.json")
        out = tmp_path / "out"
        rc = main(["train", "--data", str(csv),
                   "--schema", str(tmp_path / "panel.schema.json"),
                   "--out", str(out), *TINY_TRAIN])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {csv}: irregular cadence for node n0: "
                       "2019-01-05 03:00:00 then 2019-01-08 04:00:00 is "
                       "3 days, 1:00:00 apart, the first step 1:00:00"]
        assert not out.exists()


class TestStaleConfig:
    @pytest.mark.parametrize("command", ["eval", "corrupt-eval"])
    @pytest.mark.parametrize("level", ["run", "model", "train"])
    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_fails_with_one_line(self, trained_dir, tmp_path, capsys,
                                 command, level, change):
        model_dir = tmp_path / "stale"
        shutil.copytree(trained_dir, model_dir)
        config = json.loads((model_dir / "config.json").read_text())
        _stale(config, level, change)
        (model_dir / "config.json").write_text(json.dumps(config))
        rc = main([command, "--model-dir", str(model_dir),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "config.json" in err[0]
        word = "unknown keys stale_key" if change == "extra" else "missing keys seed"
        assert word in err[0]
        assert ("ModelConfig" in err[0]) == (level == "model")
        assert ("TrainConfig" in err[0]) == (level == "train")


class TestInvalidKeepProb:
    @pytest.mark.parametrize("keep_prob", ["1.5", "nan", "0"])
    def test_train_fails_with_one_line(self, synth_dir, tmp_path, capsys,
                                       monkeypatch, keep_prob):
        def fail(*args, **kwargs):
            raise AssertionError("training started with an invalid keep_prob")
        monkeypatch.setattr(cli, "train", fail)
        out = tmp_path / "out"
        rc = main(["train", "--data", str(synth_dir / "panel.csv"),
                   "--schema", str(synth_dir / "panel.schema.json"),
                   "--out", str(out), *TINY_TRAIN, "--keep-prob", keep_prob])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: keep_prob must be in (0, 1], got {float(keep_prob)}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "corrupt-eval"])
    def test_edited_config_fails_with_one_line(self, trained_dir, tmp_path, capsys,
                                               command):
        model_dir = tmp_path / "edited"
        shutil.copytree(trained_dir, model_dir)
        config = json.loads((model_dir / "config.json").read_text())
        config["model"]["keep_prob"] = 1.5
        (model_dir / "config.json").write_text(json.dumps(config))
        rc = main([command, "--model-dir", str(model_dir),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {model_dir / 'config.json'}: "
                       "keep_prob must be in (0, 1], got 1.5"]
        assert not (tmp_path / "out").exists()


class TestAblatedRollout:
    def test_rollout_windows_are_masked(self, synth_dir, tmp_path, monkeypatch):
        seen = []
        real_evaluate = cli.evaluate

        def spy(model, samples, *args, **kwargs):
            x, e_past, y = (a.shape[2] for a in (samples.x, samples.e_past, samples.y))
            seen.append((y // (y - (e_past - x)), samples))
            return real_evaluate(model, samples, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", spy)
        data = ["--data", str(synth_dir / "panel.csv"),
                "--schema", str(synth_dir / "panel.schema.json")]
        rc = main(["train", *data, "--out", str(tmp_path), "--seed", "1",
                   *TINY_TRAIN, "--epochs", "1", "--no-use-past",
                   "--horizon-days", "2"])
        assert rc == 0
        rc = main(["eval", "--model-dir", str(tmp_path),
                   "--out", str(tmp_path / "eval")])
        assert rc == 0
        panel = load_panel(synth_dir / "panel.csv", synth_dir / "panel.schema.json")
        layout = prepare_splits(panel, 6, 4).layout
        past = ~layout.past_is_date
        assert past.any() and layout.past_is_date.any()
        assert [days for days, _ in seen] == [1, 2, 1, 2]
        for _, samples in seen:
            assert samples
            for s in samples:
                assert not s.e_past[:, :, past].any()
                assert s.e_past[:, :, ~past].any()  # date channels are kept


class TestCorruptEval:
    def test_grid_structure(self, trained_dir, tmp_path):
        rc = main(["corrupt-eval", "--model-dir", str(trained_dir),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "corruption.json").read_text())
        assert len(rows) == 9  # no-masking + 2 strategies x 4 ratios
        assert rows[0]["strategy"] == "none"
        pairs = {(r["strategy"], r["ratio"]) for r in rows[1:]}
        assert pairs == {(s, r) for s in ("zero", "random")
                         for r in (0.2, 0.4, 0.6, 0.8)}


class TestAblate:
    def test_grid_rows(self, synth_dir, tmp_path):
        rc = main(["ablate", "--data", str(synth_dir / "panel.csv"),
                   "--schema", str(synth_dir / "panel.schema.json"),
                   "--out", str(tmp_path), "--seed", "1", *TINY_TRAIN,
                   "--epochs", "2"])
        assert rc == 0
        rows = json.loads((tmp_path / "ablation.json").read_text())
        variants = [r["variant"] for r in rows]
        data_rows = [v for v in variants if v.startswith("data:")]
        assert len(data_rows) == 7
        assert "data:PFD" in variants
        assert "module:no-selector" in variants
        assert "module:no-balancer" in variants
        for s in ("context", "shared", "simple", "learnable", "attention"):
            assert f"strategy:{s}" in variants
        assert all(np.isfinite(r["mae"]) for r in rows)


class TestGraphDump:
    def test_pearson_dump(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "adj.tsv"
        rc = main(["graph", "--data", str(synth_dir / "panel.csv"),
                   "--schema", str(synth_dir / "panel.schema.json"),
                   "--t-past", "6", "--t-future", "4",
                   "--graph", "pearson", "--graph-k", "2",
                   "--out", str(out)])
        assert rc == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        matrix = np.array([[float(v) for v in row] for row in rows])
        assert matrix.shape == (3, 3)
