"""Malformed model, training and corruption settings fail with one line."""

import json
import math
import shutil

import pytest

from exoforecast import cli
from exoforecast.cli import main
from exoforecast.model import ModelConfig
from exoforecast.training import TrainConfig

TINY = ["--t-past", "6", "--t-future", "4", "--hidden", "4", "--experts", "2",
        "--mix-hidden", "4", "--backbone", "mlp-mixer", "--epochs", "2",
        "--batch", "64"]


def _with(flags, changes):
    """``flags`` with each ``--name value`` pair in ``changes`` replaced."""
    out = list(flags)
    for flag, value in changes.items():
        out[out.index(flag) + 1] = value
    return out


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--nodes", "3", "--steps", "200",
                 "--seed", "5"]) == 0
    return ["--data", str(out / "panel.csv"),
            "--schema", str(out / "panel.schema.json")]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", *data, *TINY, "--out", str(out)]) == 0
    return out


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    return err[0]


def _fail(*args, **kwargs):
    raise AssertionError("training started with an invalid setting")


MODEL_FIELDS = ("t_past", "t_future", "hidden", "experts", "mix_hidden")


class TestModelConfig:
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", MODEL_FIELDS)
    def test_size_below_one_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            ModelConfig(n_nodes=2, past_exo_dim=12, future_exo_dim=12,
                        **{name: value})

    def test_size_one_is_accepted(self):
        config = ModelConfig(n_nodes=2, past_exo_dim=12, future_exo_dim=12,
                             **dict.fromkeys(MODEL_FIELDS, 1))
        assert config.hidden == 1


class TestTrainConfig:
    @pytest.mark.parametrize("name, value", [("epochs", 0), ("epochs", -2),
                                             ("batch_size", 0), ("batch_size", -3)])
    def test_count_below_one_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("lr_min", [-2.0, -1e-12, math.nan])
    def test_negative_lr_min_is_rejected(self, lr_min):
        with pytest.raises(ValueError, match="^lr_min must be >= 0"):
            TrainConfig(lr_min=lr_min)

    def test_zero_lr_min_and_one_epoch_are_accepted(self):
        config = TrainConfig(epochs=1, batch_size=1, lr_min=0.0)
        assert config.lr_min == 0.0


BAD_FLAGS = [
    ({"--t-past": "0"}, "t_past must be >= 1, got 0"),
    ({"--t-future": "0"}, "t_future must be >= 1, got 0"),
    ({"--hidden": "0"}, "hidden must be >= 1, got 0"),
    ({"--experts": "0"}, "experts must be >= 1, got 0"),
    ({"--mix-hidden": "0"}, "mix_hidden must be >= 1, got 0"),
    ({"--epochs": "0"}, "epochs must be >= 1, got 0"),
    ({"--epochs": "-2"}, "epochs must be >= 1, got -2"),
    ({"--batch": "0"}, "batch_size must be >= 1, got 0"),
    ({"--batch": "-3"}, "batch_size must be >= 1, got -3"),
]


class TestCommandLine:
    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("changes, message", BAD_FLAGS)
    def test_bad_flag_fails_before_training(self, data, tmp_path, capsys,
                                            monkeypatch, command, changes, message):
        monkeypatch.setattr(cli, "train", _fail)
        out = tmp_path / "out"
        rc = main([command, *data, *_with(TINY, changes), "--out", str(out)])
        assert rc == 1
        assert _one_error_line(capsys) == f"error: {message}"
        assert not out.exists()

    def test_negative_learning_rates_fail(self, data, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", _fail)
        out = tmp_path / "out"
        rc = main(["train", *data, *TINY, "--lr-max", "-1", "--lr-min", "-2",
                   "--out", str(out)])
        assert rc == 1
        assert _one_error_line(capsys) == "error: lr_min must be >= 0, got -2.0"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "corrupt-eval"])
    @pytest.mark.parametrize("section, name, value, message", [
        ("model", "t_past", 0, "t_past must be >= 1, got 0"),
        ("model", "mix_hidden", -1, "mix_hidden must be >= 1, got -1"),
        ("train", "epochs", 0, "epochs must be >= 1, got 0"),
        ("train", "lr_min", -0.5, "lr_min must be >= 0, got -0.5"),
    ])
    def test_edited_config_fails(self, run_dir, tmp_path, capsys, command,
                                 section, name, value, message):
        model_dir = tmp_path / "edited"
        shutil.copytree(run_dir, model_dir)
        config = json.loads((model_dir / "config.json").read_text())
        config[section][name] = value
        (model_dir / "config.json").write_text(json.dumps(config))
        before = sorted(p.name for p in model_dir.iterdir())
        rc = main([command, "--model-dir", str(model_dir),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert _one_error_line(capsys) == \
            f"error: {model_dir / 'config.json'}: {message}"
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in model_dir.iterdir()) == before

    @pytest.mark.parametrize("ratio", ["0.5", "0"])
    def test_corrupt_ratio_needs_corrupt(self, run_dir, tmp_path, capsys, ratio):
        rc = main(["eval", "--model-dir", str(run_dir), "--corrupt-ratio", ratio,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert _one_error_line(capsys) == "error: --corrupt-ratio needs --corrupt"
        assert not (tmp_path / "out").exists()

    def test_corrupt_without_ratio_scores_clean_windows(self, run_dir, tmp_path):
        for name, extra in (("plain", []), ("zero", ["--corrupt", "zero"])):
            assert main(["eval", "--model-dir", str(run_dir),
                         "--out", str(tmp_path / name), *extra]) == 0
        assert (tmp_path / "zero" / "metrics.json").read_bytes() == \
            (tmp_path / "plain" / "metrics.json").read_bytes()
