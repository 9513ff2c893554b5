"""Every flag lands in the config field of its name; the dataclasses own the
defaults; every config field is set by something; and ``ablate`` derives each
variant from one base run."""

import argparse
import json
from dataclasses import asdict, fields

import pytest

from exoforecast import cli
from exoforecast.cli import main
from exoforecast.data import SynthConfig, load_panel, prepare_splits
from exoforecast.model import ExoModel, ModelConfig
from exoforecast.training import TrainConfig, TrainResult

TINY = ["--t-past", "6", "--t-future", "4", "--hidden", "4", "--experts", "2",
        "--mix-hidden", "3", "--graph-k", "1", "--keep-prob", "1.0"]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--nodes", "3", "--steps", "600",
                 "--seed", "2"]) == 0
    return out


@pytest.fixture
def data(synth_dir):
    return ["--data", str(synth_dir / "panel.csv"),
            "--schema", str(synth_dir / "panel.schema.json")]


@pytest.fixture
def untrained(monkeypatch):
    """``train`` returns at once, so a run archives its seeded initial model."""
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: TrainResult())


def _archived(out) -> dict:
    return json.loads((out / "config.json").read_text())


class TestDefaults:
    def test_train_archives_dataclass_defaults(self, synth_dir, data, tmp_path,
                                               untrained):
        assert main(["train", *data, "--out", str(tmp_path)]) == 0
        config = _archived(tmp_path)
        panel = load_panel(synth_dir / "panel.csv", synth_dir / "panel.schema.json")
        layout = prepare_splits(panel, ModelConfig.t_past, ModelConfig.t_future).layout
        assert config["model"] == ModelConfig(panel.n_nodes, len(layout.past),
                                              len(layout.future)).to_dict()
        assert config["train"] == json.loads(json.dumps(asdict(TrainConfig())))
        assert (config["t_past"], config["t_future"], config["seed"]) == \
            (ModelConfig.t_past, ModelConfig.t_future, ModelConfig.seed)

    def test_synth_archives_dataclass_defaults(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "synth_config.json").read_text())
        assert written == asdict(SynthConfig())


# (flags, field, value): the flags set ``field`` to ``value``, which differs
# from both the dataclass default and the value in TINY
RUN_FLAGS = [
    (["--t-past", "5"], "t_past", 5),
    (["--t-future", "3"], "t_future", 3),
    (["--experts", "3"], "experts", 3),
    (["--hidden", "5"], "hidden", 5),
    (["--backbone", "mlp-mixer"], "backbone", "mlp-mixer"),
    (["--mix-hidden", "2"], "mix_hidden", 2),
    (["--graph", "adaptive"], "graph_kind", "adaptive"),
    (["--graph", "identity"], "graph_kind", "identity"),
    (["--graph-k", "2"], "graph_k", 2),
    (["--fusion", "attention"], "fusion", "attention"),
    (["--keep-prob", "0.5"], "keep_prob", 0.5),
    (["--no-selector"], "use_selector", False),
    (["--fusion", "sum"], "fusion", "sum"),
    (["--no-use-past"], "use_past", False),
    (["--no-use-future"], "use_future", False),
    (["--no-use-date"], "use_date", False),
    (["--seed", "9"], "seed", 9),
    (["--horizon-days", "2"], "horizon_days", 2),
    (["--epochs", "7"], "epochs", 7),
    (["--batch", "24"], "batch_size", 24),
    (["--patience", "4"], "patience", 4),
    (["--lr-max", "0.05"], "lr_max", 0.05),
    (["--lr-min", "0.001"], "lr_min", 0.001),
    (["--weight-decay", "0.25"], "weight_decay", 0.25),
    (["--loss", "mse"], "loss", "mse"),
]


@pytest.mark.parametrize("flags, field, value", RUN_FLAGS,
                         ids=[" ".join(flags) for flags, _, _ in RUN_FLAGS])
def test_run_flag_sets_its_field(data, tmp_path, untrained, flags, field, value):
    assert main(["train", *data, *TINY, *flags, "--out", str(tmp_path)]) == 0
    config = _archived(tmp_path)
    sections = [s for s in (config, config["model"], config["train"]) if field in s]
    assert sections and all(s[field] == value for s in sections)
    default = ModelConfig(1, 1, 1).to_dict() | asdict(TrainConfig())
    assert default.get(field, True) != value


SYNTH_FLAGS = [
    ("--nodes", "nodes", 2),
    ("--steps", "steps", 97),
    ("--lag", "lag", 3),
    ("--noise", "noise", 0.3),
    ("--past-coef", "past_coef", 0.5),
    ("--future-coef", "future_coef", 2.5),
    ("--seed", "seed", 4),
]


@pytest.mark.parametrize("flag, field, value", SYNTH_FLAGS)
def test_synth_flag_sets_its_field(tmp_path, flag, field, value):
    assert main(["synth", "--out", str(tmp_path), flag, str(value)]) == 0
    written = json.loads((tmp_path / "synth_config.json").read_text())
    assert written == asdict(SynthConfig()) | {field: value}
    assert getattr(SynthConfig(), field) != value


def _dests(command: str) -> set:
    """The dest of every flag ``command`` takes."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions}


def test_every_config_field_is_set_by_something(synth_dir):
    """A config field is a flag of the command that builds the config, a size
    the panel decides, or a section ``_build_run`` fills; what only tests set
    does not count."""
    panel = load_panel(synth_dir / "panel.csv", synth_dir / "panel.schema.json")
    sized = set(cli._panel_sizes(prepare_splits(panel, 6, 4)))
    unset = []
    for cls, command, given in ((ModelConfig, "train", sized),
                                (TrainConfig, "train", set()),
                                (SynthConfig, "synth", set()),
                                (cli.RunConfig, "train", {"model", "train"})):
        known = _dests(command) | given
        unset += [f"{cls.__name__}.{f.name}" for f in fields(cls) if f.name not in known]
    assert unset == []


ABLATION_VARIANTS = [  # (use_past, use_future, use_date, fusion, use_selector)
    (True, False, False, "context", True),
    (False, True, False, "context", True),
    (False, False, True, "context", True),
    (True, False, True, "context", True),
    (False, True, True, "context", True),
    (True, True, False, "context", True),
    (True, True, True, "context", True),
    (True, True, True, "context", False),
    (True, True, True, "sum", True),
    (True, True, True, "context", True),
    (True, True, True, "shared", True),
    (True, True, True, "simple", True),
    (True, True, True, "learnable", True),
    (True, True, True, "attention", True),
]


def test_ablation_variants_ignore_the_flags_they_set(data, tmp_path, untrained,
                                                      monkeypatch):
    dropped, built = [], []
    real_drop = cli.drop_exogenous

    def drop(prepared, use_past, use_future, use_date):
        dropped.append((use_past, use_future, use_date))
        return real_drop(prepared, use_past, use_future, use_date)

    def model(config, **kwargs):
        built.append((config.fusion, config.use_selector))
        return ExoModel(config, **kwargs)

    monkeypatch.setattr(cli, "drop_exogenous", drop)
    monkeypatch.setattr(cli, "ExoModel", model)
    assert main(["ablate", *data, *TINY, "--fusion", "simple", "--no-selector",
                 "--no-use-date", "--out", str(tmp_path)]) == 0
    assert [d + b for d, b in zip(dropped, built)] == ABLATION_VARIANTS
    rows = json.loads((tmp_path / "ablation.json").read_text())
    assert [r["variant"] for r in rows] == [
        "data:P", "data:F", "data:D", "data:PD", "data:FD", "data:PF", "data:PFD",
        "module:no-selector", "module:no-balancer", "strategy:context",
        "strategy:shared", "strategy:simple", "strategy:learnable",
        "strategy:attention"]


@pytest.mark.parametrize("flag, value, message", [
    ("--graph-k", "0", "graph_k must be >= 1, got 0"),
    ("--t-past", "0", "t_past must be >= 1, got 0"),
])
def test_graph_command_checks_model_settings(data, tmp_path, capsys, flag, value,
                                             message):
    out = tmp_path / "adj.tsv"
    assert main(["graph", *data, "--t-past", "6", "--t-future", "4", flag, value,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()
