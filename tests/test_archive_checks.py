"""An archive whose tensors do not fit its config fails to load with one line.

Every stored tensor must be finite and named and shaped as the config's
model has it. Only a grugcn model on a pearson or identity graph stores
``graph.static_adjacency``, an (n_nodes, n_nodes) matrix, and it must.
"""

import json
import shutil

import numpy as np
import pytest

from exoforecast.cli import main
from exoforecast.model import (ModelConfig, config_from_dict, load_model, load_tensors,
                               save_tensors)

ADJ = "graph.static_adjacency"
TINY = ["--t-past", "6", "--t-future", "4", "--hidden", "4", "--experts", "2",
        "--mix-hidden", "3", "--graph-k", "1", "--epochs", "1", "--batch", "64"]
CONFIGS = {
    "pearson": ["--backbone", "grugcn", "--graph", "pearson"],
    "identity": ["--backbone", "grugcn", "--graph", "identity"],
    "adaptive": ["--backbone", "grugcn", "--graph", "adaptive"],
    "mixer": ["--backbone", "mlp-mixer"],
    "no-selector": ["--backbone", "mlp-mixer", "--no-selector"],
}


def _set(name, values):
    def edit(tensors):
        tensors[name] = values
    return edit


def _drop(name):
    def edit(tensors):
        del tensors[name]
    return edit


def _nan_in(name):
    def edit(tensors):
        tensors[name] = tensors[name].copy()
        tensors[name].flat[0] = np.nan
    return edit


# (archive config, edit of its tensors, tensor the error names, words it holds)
CASES = {
    "nan-adjacency": ("pearson", _nan_in(ADJ), ADJ, "non-finite"),
    "nan-parameter": ("mixer", _nan_in("embed.p.w_x"), "embed.p.w_x", "non-finite"),
    "adjacency-too-small": ("pearson", _set(ADJ, np.eye(2)), ADJ, "mismatch"),
    "adjacency-in-mixer": ("mixer", _set(ADJ, np.eye(7)), ADJ, "mismatch"),
    "adjacency-in-adaptive": ("adaptive", _set(ADJ, np.eye(3)), ADJ, "mismatch"),
    "pearson-without-adjacency": ("pearson", _drop(ADJ), ADJ, "mismatch"),
    "identity-without-adjacency": ("identity", _drop(ADJ), ADJ, "mismatch"),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    data = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(data), "--nodes", "3", "--steps", "200",
                 "--seed", "4"]) == 0
    out = {}
    for kind, flags in CONFIGS.items():
        out[kind] = tmp_path_factory.mktemp(kind)
        assert main(["train", "--data", str(data / "panel.csv"),
                     "--schema", str(data / "panel.schema.json"), *TINY, *flags,
                     "--out", str(out[kind])]) == 0
    return out


def _damaged(runs, tmp_path, case):
    """A copy of the case's run whose ``model.bin`` has the case's edit."""
    kind, edit, name, _ = CASES[case]
    model_dir = tmp_path / "damaged"
    shutil.copytree(runs[kind], model_dir)
    tensors = load_tensors(model_dir / "model.bin")
    edit(tensors)
    save_tensors(model_dir / "model.bin", tensors)
    return model_dir, name


@pytest.mark.parametrize("case", sorted(CASES))
def test_eval_fails_with_one_line(runs, tmp_path, capsys, case):
    model_dir, name = _damaged(runs, tmp_path, case)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["eval", "--model-dir", str(model_dir), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    assert str(model_dir / "model.bin") in err[0] and name in err[0]
    assert CASES[case][3] in err[0]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("case", sorted(CASES))
def test_load_model_names_archive_and_tensor(runs, tmp_path, case):
    model_dir, name = _damaged(runs, tmp_path, case)
    config = json.loads((model_dir / "config.json").read_text())
    with pytest.raises(ValueError) as info:
        load_model(model_dir / "model.bin",
                   config_from_dict(ModelConfig, config["model"]))
    message = str(info.value)
    assert "\n" not in message
    assert str(model_dir / "model.bin") in message and name in message
    assert CASES[case][3] in message


def test_expert_banks_without_the_selector_fail_to_load(runs, tmp_path):
    """A ``--no-selector`` model has no expert banks, so its archive holding
    the ``select.*`` tensors of a selector model fails with one line that
    names each of them."""
    banks = {name: values for name, values in
             load_tensors(runs["mixer"] / "model.bin").items()
             if name.startswith("select.")}
    model_dir = tmp_path / "banked"
    shutil.copytree(runs["no-selector"], model_dir)
    save_tensors(model_dir / "model.bin",
                 load_tensors(model_dir / "model.bin") | banks)
    config = config_from_dict(
        ModelConfig, json.loads((model_dir / "config.json").read_text())["model"])
    assert not config.use_selector and len(banks) == 6
    with pytest.raises(ValueError) as info:
        load_model(model_dir / "model.bin", config)
    message = str(info.value)
    assert "\n" not in message and str(model_dir / "model.bin") in message
    assert all(name in message for name in banks)
