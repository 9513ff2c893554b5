"""Malformed model, training and corruption settings fail with one line."""

import json
import math
import shutil

import pytest

from exoforecast import cli
from exoforecast.cli import main
from exoforecast.data import SynthConfig, corrupt_exogenous, make_windows, synth_generate
from exoforecast.model import ModelConfig
from exoforecast.training import TrainConfig
from helpers import one_error_line

TINY = ["--t-past", "6", "--t-future", "4", "--hidden", "4", "--experts", "2",
        "--mix-hidden", "4", "--backbone", "mlp-mixer", "--epochs", "2",
        "--batch", "64"]


def _with(flags, changes):
    """``flags`` with each ``--name value`` pair in ``changes`` replaced, or
    appended if ``flags`` lacks it."""
    out = list(flags)
    for flag, value in changes.items():
        if flag in out:
            out[out.index(flag) + 1] = value
        else:
            out += [flag, value]
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", *data, *TINY, "--out", str(out)]) == 0
    return out


def _fail(*args, **kwargs):
    raise AssertionError("training started with an invalid setting")


MODEL_FIELDS = ("t_past", "t_future", "hidden", "experts", "mix_hidden",
                "graph_k")


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


class TestSeeds:
    """A negative seed is named by its setting, not in numpy's words."""

    @pytest.mark.parametrize("build", [
        lambda seed: ModelConfig(n_nodes=2, past_exo_dim=1, future_exo_dim=1, seed=seed),
        lambda seed: TrainConfig(seed=seed),
        lambda seed: SynthConfig(seed=seed),
    ], ids=["model", "train", "synth"])
    def test_negative_seed_is_rejected_and_zero_accepted(self, build):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            build(-1)
        assert build(0).seed == 0

    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_corruption_rejects_a_negative_seed(self, ratio):
        windows, layout = make_windows(synth_generate(SynthConfig(nodes=2, steps=40)), 6, 4)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            corrupt_exogenous(windows, layout, "zero", ratio, seed=-1)

    def test_synth_command_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        assert one_error_line(capsys) == "error: seed must be >= 0, got -1"
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--corrupt", "random", "--corrupt-ratio", "0.5"]),
        ("corrupt-eval", []),
    ])
    def test_negative_corrupt_seed_fails(self, run_dir, tmp_path, capsys, command, flags):
        before = sorted(p.name for p in run_dir.iterdir())
        rc = main([command, "--model-dir", str(run_dir), *flags, "--corrupt-seed", "-1",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert one_error_line(capsys) == "error: seed must be >= 0, got -1"
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in run_dir.iterdir()) == before


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
    ({"--lr-max": "nan"}, "lr_max must be finite, got nan"),
    ({"--lr-max": "inf"}, "lr_max must be finite, got inf"),
    ({"--weight-decay": "nan"}, "weight_decay must be >= 0 and finite, got nan"),
    ({"--weight-decay": "inf"}, "weight_decay must be >= 0 and finite, got inf"),
    ({"--weight-decay": "-1"}, "weight_decay must be >= 0 and finite, got -1.0"),
    ({"--seed": "-1"}, "seed must be >= 0, got -1"),
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
        assert one_error_line(capsys) == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--seed", "-1", "--epochs", "0"], "seed must be >= 0, got -1"),
        ("ablate", ["--lr-max", "nan"], "lr_max must be finite, got nan"),
    ])
    def test_bad_flag_fails_before_the_panel_is_read(self, tmp_path, capsys, command,
                                                     flags, message):
        out = tmp_path / "out"
        missing = ["--data", str(tmp_path / "nope.csv"), "--schema", str(tmp_path / "nope.json")]
        assert main([command, *missing, *TINY, *flags, "--out", str(out)]) == 1
        assert one_error_line(capsys) == f"error: {message}"
        assert not out.exists()

    def test_negative_learning_rates_fail(self, data, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", _fail)
        out = tmp_path / "out"
        rc = main(["train", *data, *TINY, "--lr-max", "-1", "--lr-min", "-2",
                   "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys) == "error: lr_min must be >= 0, got -2.0"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "corrupt-eval"])
    @pytest.mark.parametrize("section, name, value, message", [
        ("model", "t_past", 0, "t_past must be >= 1, got 0"),
        ("model", "mix_hidden", -1, "mix_hidden must be >= 1, got -1"),
        ("train", "epochs", 0, "epochs must be >= 1, got 0"),
        ("train", "lr_min", -0.5, "lr_min must be >= 0, got -0.5"),
        ("model", "graph_k", -3, "graph_k must be >= 1, got -3"),
        ("model", "hidden", "4", "ModelConfig key hidden must be int, got str"),
        ("model", "hidden", 4.0, "ModelConfig key hidden must be int, got float"),
        ("model", "t_past", "6", "ModelConfig key t_past must be int, got str"),
        ("model", "seed", True, "ModelConfig key seed must be int, got bool"),
        ("model", "seed", -1, "seed must be >= 0, got -1"),
        ("train", "seed", -1, "seed must be >= 0, got -1"),
        ("model", "keep_prob", "0.9", "ModelConfig key keep_prob must be float, got str"),
        ("model", "use_selector", 1, "ModelConfig key use_selector must be bool, got int"),
        ("model", "backbone", None, "ModelConfig key backbone must be str, got NoneType"),
        ("model", "backbone", "bogus",
         "backbone must be one of grugcn, mlp-mixer, got 'bogus'"),
        ("model", "graph_kind", "bogus", "graph_kind must be one of pearson, adaptive, "
         "adaptive-directed, identity, got 'bogus'"),
        ("model", "fusion", "bogus", "fusion must be one of context, shared, simple, "
         "learnable, attention, sum, got 'bogus'"),
        ("train", "epochs", "1", "TrainConfig key epochs must be int, got str"),
        ("train", "weight_decay", -1.0, "weight_decay must be >= 0 and finite, got -1.0"),
        ("train", "lr_max", math.inf, "lr_max must be finite, got inf"),
        ("train", "loss", "bogus", "loss must be one of mae, mse, got 'bogus'"),
        ("model", "endo_dim", 1, "ModelConfig has unknown keys endo_dim"),
        ("model", "reduction", 4, "ModelConfig has unknown keys reduction"),
        ("model", "activation", "relu", "ModelConfig has unknown keys activation"),
        ("model", "alpha_per_sample", False,
         "ModelConfig has unknown keys alpha_per_sample"),
        ("model", "graph_embed_dim", 8, "ModelConfig has unknown keys graph_embed_dim"),
        ("model", "use_balancer", True, "ModelConfig has unknown keys use_balancer"),
        ("train", "betas", [0.9, 0.999], "TrainConfig has unknown keys betas"),
        ("train", "eps", 1e-8, "TrainConfig has unknown keys eps"),
        ("model", "t_past", 7, "t_past 6 disagrees with model.t_past 7"),
        ("model", "t_future", 5, "t_future 4 disagrees with model.t_future 5"),
        ("model", "seed", 1, "seed 0 disagrees with model.seed 1"),
        ("train", "seed", 2, "seed 0 disagrees with train.seed 2"),
        ("model", "n_nodes", 5, "model.n_nodes 5 disagrees with the panel's n_nodes 3"),
        ("model", "past_exo_dim", 11,
         "model.past_exo_dim 11 disagrees with the panel's past_exo_dim 12"),
        ("model", "future_exo_dim", 13,
         "model.future_exo_dim 13 disagrees with the panel's future_exo_dim 12"),
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
        assert one_error_line(capsys) == \
            f"error: {model_dir / 'config.json'}: {message}"
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in model_dir.iterdir()) == before

    @pytest.mark.parametrize("ratio", ["0.5", "0"])
    def test_corrupt_ratio_needs_corrupt(self, run_dir, tmp_path, capsys, ratio):
        rc = main(["eval", "--model-dir", str(run_dir), "--corrupt-ratio", ratio,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert one_error_line(capsys) == "error: --corrupt-ratio needs --corrupt"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strategy", ["zero", "random"])
    def test_corrupt_needs_corrupt_ratio(self, tmp_path, capsys, strategy):
        # no archive: the flags are checked before anything loads
        rc = main(["eval", "--model-dir", str(tmp_path / "absent"), "--corrupt", strategy,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert one_error_line(capsys) == "error: --corrupt needs --corrupt-ratio"
        assert not (tmp_path / "out").exists()
