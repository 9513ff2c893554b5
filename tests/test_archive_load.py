"""An archive reads back bit for bit, and loading a model draws nothing.

``save_tensors`` then ``load_tensors`` returns every name, shape and value
as written, compared by bits; ``save_model`` then ``load_model`` returns
the saved model's tensors by bytes. ``load_model`` builds its model with
every drawn leaf left to be filled, so ``eval`` and ``graph`` on a static
graph never import ``numpy.random``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoforecast import autodiff as ad
from exoforecast.backbones import BACKBONE_KINDS
from exoforecast.cli import main
from exoforecast.fusion import FUSION_STRATEGIES
from exoforecast.graphs import GRAPH_KINDS
from exoforecast.model import (ExoModel, ModelConfig, load_model, load_tensors, save_model,
                               save_tensors)

SRC = Path(__file__).resolve().parent.parent / "src"
# float64 bit patterns a random draw rarely makes: -0.0, the infinities,
# the least subnormal, and quiet and signalling NaNs of both signs and
# several payloads
SPECIAL_BITS = [0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x1,
                0x7FF8000000000000, 0x7FF8000000000001, 0xFFF80000DEADBEEF,
                0x7FF0000000000001, 0xFFF4000000000000]


@st.composite
def arrays(draw) -> np.ndarray:
    """A float64 array of 0 to 4 dimensions, zero-size ones included, whose
    values are any bit patterns."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=4)))
    bits = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1)),
                         min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)


class TestTensorArchive:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(st.characters(exclude_categories=("Cs",)), max_size=12),
                           arrays(), max_size=5))
    def test_save_then_load_gives_every_bit_back(self, tensors):
        with tempfile.TemporaryDirectory() as tmp:
            save_tensors(Path(tmp, "t.bin"), tensors)
            back = load_tensors(Path(tmp, "t.bin"))
        assert sorted(back) == sorted(tensors)
        for name, values in tensors.items():
            assert back[name].shape == values.shape, name
            np.testing.assert_array_equal(back[name].view(np.int64), values.view(np.int64))

    def test_each_tensor_is_its_own_writable_array(self, tmp_path):
        """A loaded tensor is a copy, not a view of the file's bytes."""
        save_tensors(tmp_path / "t.bin", {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)})
        back = load_tensors(tmp_path / "t.bin")
        for values in back.values():
            assert values.flags.owndata and values.flags.writeable
        back["a"][0, 0] = 7.0
        assert back["a"][0, 0] == 7.0


@st.composite
def model_configs(draw) -> ModelConfig:
    return ModelConfig(
        n_nodes=draw(st.integers(1, 4)), past_exo_dim=draw(st.integers(0, 3)),
        future_exo_dim=draw(st.integers(0, 3)), t_past=draw(st.integers(1, 4)),
        t_future=draw(st.integers(1, 4)), hidden=draw(st.integers(1, 4)),
        experts=draw(st.integers(1, 3)), backbone=draw(st.sampled_from(BACKBONE_KINDS)),
        mix_hidden=draw(st.integers(1, 3)), graph_kind=draw(st.sampled_from(GRAPH_KINDS)),
        graph_k=draw(st.integers(1, 3)), fusion=draw(st.sampled_from(FUSION_STRATEGIES)),
        use_selector=draw(st.booleans()), seed=draw(st.integers(0, 2**32 - 1)))


def _tensors(model: ExoModel) -> dict[str, bytes]:
    return {name: t.values.tobytes() for name, t in model.parameters().items()} | \
        {name: values.tobytes() for name, values in model.buffers().items()}


class TestModelArchive:
    @settings(max_examples=60, deadline=None)
    @given(model_configs(), st.integers(0, 2**32 - 1))
    def test_save_then_load_gives_the_model_back_by_bytes(self, config, series_seed):
        series = np.random.default_rng(series_seed).normal(size=(config.n_nodes, 12))
        model = ExoModel(config, target_series=series)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "model.bin")
            save_model(path, model)
            saved = path.read_bytes()
            loaded = load_model(path, config)
            save_model(path, loaded)
            assert path.read_bytes() == saved
        assert list(loaded.parameters()) == list(model.parameters())
        assert _tensors(loaded) == _tensors(model)

    @pytest.mark.parametrize("backbone", BACKBONE_KINDS)
    @pytest.mark.parametrize("graph", GRAPH_KINDS)
    def test_load_builds_no_generator(self, monkeypatch, tmp_path, backbone, graph):
        cfg = ModelConfig(n_nodes=3, past_exo_dim=2, future_exo_dim=1, t_past=4,
                          t_future=3, hidden=4, experts=2, backbone=backbone,
                          graph_kind=graph, graph_k=1, fusion="attention", seed=2)
        rng = np.random.default_rng(5)
        model = ExoModel(cfg, target_series=rng.normal(size=(3, 12)))
        inputs = (rng.normal(size=(2, 3, 4, 1)), rng.normal(size=(2, 3, 4, 2)),
                  rng.normal(size=(2, 3, 3, 1)))
        save_model(tmp_path / "model.bin", model)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_model built a generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = load_model(tmp_path / "model.bin", cfg)
        assert _tensors(loaded) == _tensors(model)
        assert loaded.predict(*inputs).tobytes() == model.predict(*inputs).tobytes()


def test_a_leaf_left_to_be_filled_holds_nan_and_no_bytes():
    leaf = ad.uniform_parameter(None, (3, 4), 3)
    assert leaf.shape == (3, 4) and leaf.requires_grad
    assert np.isnan(leaf.values).all() and not leaf.values.flags.writeable
    assert leaf.values.base is not None and leaf.values.strides == (0, 0)


def test_eval_and_static_graph_never_import_numpy_random(data, tmp_path, capsys):
    """Run in a fresh process, neither command leaves ``numpy.random`` in
    ``sys.modules``; the training run they read is made here."""
    run = tmp_path / "run"
    assert main(["train", *data, "--t-past", "6", "--t-future", "4", "--hidden", "4",
                 "--experts", "2", "--graph-k", "1", "--epochs", "1", "--batch", "64",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    commands = [["eval", "--model-dir", str(run), "--out", str(tmp_path / "eval")],
                ["graph", *data, "--t-past", "6", "--t-future", "4", "--graph", "pearson",
                 "--graph-k", "1", "--out", str(tmp_path / "graph.tsv")]]
    script = ("import json, sys\n"
              "from exoforecast.cli import main\n"
              "seen = [[main(argv), 'numpy.random' in sys.modules]\n"
              "        for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps(seen))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, False], [0, False]]
