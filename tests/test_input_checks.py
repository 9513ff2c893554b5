"""Malformed synth sizes, graph sizes, schema files and config values fail
with one line."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from exoforecast import cli
from exoforecast.cli import RunConfig, main
from exoforecast.data import SynthConfig
from exoforecast.graphs import build_graph, pearson_topk_adjacency
from exoforecast.model import ModelConfig, config_from_dict
from exoforecast.training import TrainConfig
from helpers import one_error_line

TINY = ["--t-past", "6", "--t-future", "4", "--hidden", "4", "--experts", "2",
        "--backbone", "grugcn", "--graph", "pearson", "--epochs", "1", "--batch", "64"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", *data, *TINY, "--graph-k", "1", "--out", str(out)]) == 0
    return out


class TestSynthSizes:
    @pytest.mark.parametrize("flag, value, message", [
        ("--nodes", "0", "nodes must be >= 1, got 0"),
        ("--nodes", "-1", "nodes must be >= 1, got -1"),
        ("--steps", "1", "steps must be >= 2, got 1"),
        ("--steps", "0", "steps must be >= 2, got 0"),
        ("--lag", "-2", "lag must be >= 0, got -2"),
        ("--noise", "nan", "noise must be >= 0 and finite, got nan"),
        ("--noise", "inf", "noise must be >= 0 and finite, got inf"),
        ("--noise", "-0.1", "noise must be >= 0 and finite, got -0.1"),
        ("--past-coef", "inf", "past_coef must be finite, got inf"),
        ("--past-coef", "nan", "past_coef must be finite, got nan"),
        ("--future-coef", "nan", "future_coef must be finite, got nan"),
    ])
    def test_bad_size_fails_before_writing(self, tmp_path, capsys, flag, value,
                                           message):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), flag, value]) == 1
        assert one_error_line(capsys) == f"error: {message}"
        assert not out.exists()

    def test_smallest_sizes_are_accepted(self):
        assert SynthConfig(nodes=1, steps=2, lag=0).steps == 2


class TestGraphSizes:
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_train_rejects_graph_k_below_one(self, data, tmp_path, capsys,
                                             monkeypatch, k):
        def fail(*args, **kwargs):
            raise AssertionError("training started with an invalid graph_k")

        monkeypatch.setattr(cli, "train", fail)
        out = tmp_path / "out"
        assert main(["train", *data, *TINY, "--graph-k", k, "--out", str(out)]) == 1
        assert one_error_line(capsys) == f"error: graph_k must be >= 1, got {k}"
        assert not out.exists()

    def test_graph_command_rejects_negative_k(self, data, tmp_path, capsys):
        out = tmp_path / "adj.tsv"
        assert main(["graph", *data, "--t-past", "6", "--t-future", "4",
                     "--graph-k", "-3", "--out", str(out)]) == 1
        assert one_error_line(capsys) == "error: graph_k must be >= 1, got -3"
        assert not out.exists()

    def test_negative_k_is_rejected(self):
        with pytest.raises(ValueError, match=r"^k=-1 must be >= 0$"):
            pearson_topk_adjacency(np.random.default_rng(0).normal(size=(4, 10)), k=-1)

    def test_one_node_panel_keeps_k_zero(self):
        series = np.random.default_rng(0).normal(size=(1, 10))
        np.testing.assert_array_equal(pearson_topk_adjacency(series, k=0), np.zeros((1, 1)))
        assert build_graph("pearson", 1, target_series=series, k=8).adjacency.shape == (1, 1)


class TestSchemaFiles:
    @pytest.mark.parametrize("schema, message", [
        ([1, 2], "schema {path} must be a JSON object, got list"),
        ({"variables": {"target": "target", "past_driver": "past",
                        "future_driver": ["future"]}},
         "schema {path}: role tag for variable 'future_driver' must be a string, "
         "got list"),
    ])
    def test_malformed_schema_fails(self, data, tmp_path, capsys, schema, message):
        path = tmp_path / "panel.schema.json"
        path.write_text(json.dumps(schema))
        out = tmp_path / "out"
        assert main(["train", *data[:2], "--schema", str(path), *TINY,
                     "--out", str(out)]) == 1
        assert one_error_line(capsys) == "error: " + message.format(path=path)
        assert not out.exists()


def _rows(edit):
    """A damage that rewrites the panel's lines (header first) with ``edit``."""
    def damage(csv: bytes, schema: bytes):
        return b"\n".join(edit(csv.splitlines())) + b"\n", schema
    return damage


def _blank_target(lines, node=None):
    """Empty the target cell of every row, or of ``node``'s rows only."""
    col = lines[0].split(b",").index(b"target")
    return [lines[0], *(b",".join(b"" if j == col and node in (None, cells[0]) else cell
                                  for j, cell in enumerate(cells))
                        for cells in (line.split(b",") for line in lines[1:]))]


def _drop_n1_row(lines):
    n1 = [i for i, line in enumerate(lines) if line.startswith(b"n1,")]
    return [line for i, line in enumerate(lines) if i != n1[100]]


# case: (the files its error names, damage to the panel and schema bytes, words
# the error holds)
PANEL_DAMAGE = {
    "malformed-header": (
        ["csv"], _rows(lambda lines: [b"node," + lines[0][8:], *lines[1:]]),
        "malformed header"),
    "header-schema-mismatch": (
        ["csv", "schema"], _rows(lambda lines: [l.rsplit(b",", 1)[0] for l in lines]),
        "header variables differ from schema"),
    "bad-timestamp": (
        ["csv"], _rows(lambda lines: [lines[0], lines[1].replace(b"T00:", b"T25:"),
                                      *lines[2:]]),
        "bad timestamp"),
    "naive-and-aware-timestamps": (
        ["csv"], _rows(lambda lines: [*lines[:2], lines[2].replace(b"T01:00:00,",
                                                                  b"T01:00:00+00:00,"),
                                      *lines[3:]]),
        ":3: timestamp '2019-01-01T01:00:00+00:00' and the first data row's "
        "'2019-01-01T00:00:00' differ in having a UTC offset"),
    "bad-value": (
        ["csv"], _rows(lambda lines: [lines[0], lines[1] + b"x", *lines[2:]]),
        "bad value"),
    "no-data-rows": (["csv"], _rows(lambda lines: lines[:1]), "no data rows"),
    "target-never-observed": (
        ["csv"], _rows(_blank_target), "target 'target' has no observed value"),
    "target-never-observed-at-one-node": (
        ["csv"], _rows(lambda lines: _blank_target(lines, b"n0")),
        "target 'target' has no observed value for node n0"),
    "node-timestamps-differ": (
        ["csv"], _rows(_drop_n1_row),
        "node n1 timestamp sequence differs from node n0"),
    "panel-not-utf8": (
        ["csv"], _rows(lambda lines: [lines[0], lines[1] + b"\xff", *lines[2:]]),
        "can't decode byte 0xff"),
    "panel-not-utf8-on-line-501": (
        ["csv"], _rows(lambda lines: [*lines[:500], lines[500] + b"\xff", *lines[501:]]),
        ":501: 'utf-8' codec can't decode byte 0xff"),
    "header-repeats-a-variable": (
        ["csv"], _rows(lambda lines: [lines[0] + b",past_driver",
                                      *(line + b",0.5" for line in lines[1:])]),
        "header names a variable twice"),
    "variable-named-like-a-date-channel": (
        ["schema"],
        lambda csv, schema: (csv.replace(b"past_driver", b"hour_sin"),
                             schema.replace(b"past_driver", b"hour_sin")),
        "variable 'hour_sin' is the name of a synthesized date channel"),
    "schema-not-json": (
        ["schema"], lambda csv, schema: (csv, b'{"variables": '), "Expecting value"),
    "schema-not-utf8": (
        ["schema"], lambda csv, schema: (csv, b"\xff\xfe"), "can't decode byte 0xff"),
    "schema-without-target": (
        ["schema"],
        lambda csv, schema: (csv, schema.replace(b'"target": "target"',
                                                 b'"target": "past"')),
        "exactly one target channel required"),
}


class TestPanelFiles:
    @pytest.mark.parametrize("case", sorted(PANEL_DAMAGE))
    def test_unreadable_file_fails_with_one_line_naming_it(self, data, tmp_path,
                                                           capsys, case):
        names, damage, words = PANEL_DAMAGE[case]
        files = {"csv": tmp_path / "panel.csv", "schema": tmp_path / "panel.schema.json"}
        blobs = damage(Path(data[1]).read_bytes(), Path(data[3]).read_bytes())
        for path, blob in zip(files.values(), blobs):
            path.write_bytes(blob)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["train", "--data", str(files["csv"]), "--schema",
                     str(files["schema"]), *TINY, "--out", str(out)]) == 1
        line = one_error_line(capsys)
        assert words in line
        assert all(str(files[name]) in line for name in names), line
        assert not out.exists()


def _model_dict(**changes) -> dict:
    d = ModelConfig(n_nodes=2, past_exo_dim=1, future_exo_dim=1).to_dict()
    return {**d, **changes}


class TestConfigTypes:
    def test_json_round_trip_is_accepted(self):
        for cls, d in ((ModelConfig, _model_dict()),
                       (TrainConfig, json.loads(json.dumps(vars(TrainConfig()))))):
            assert config_from_dict(cls, d) == cls(**d)

    def test_float_field_takes_an_int(self):
        assert config_from_dict(ModelConfig, _model_dict(keep_prob=1)).keep_prob == 1

    @pytest.mark.parametrize("key, value, message", [
        ("experts", True, "ModelConfig key experts must be int, got bool"),
        ("keep_prob", False, "ModelConfig key keep_prob must be float, got bool"),
        ("use_selector", "no", "ModelConfig key use_selector must be bool, got str"),
        ("graph_kind", 1, "ModelConfig key graph_kind must be str, got int"),
    ])
    def test_wrong_type_is_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_dict(ModelConfig, _model_dict(**{key: value}))

    def test_dict_field_takes_only_a_dict(self):
        run = RunConfig(data="p.csv", schema="s.json", seed=0, t_past=6, t_future=4,
                        horizon_days=1, use_past=True, use_future=True, use_date=True,
                        model={}, train={}).to_dict()
        with pytest.raises(ValueError, match="^ModelConfig must be a JSON object, got list$"):
            config_from_dict(RunConfig, {**run, "model": []})

    @pytest.mark.parametrize("key, value, message", [
        ("t_past", "6", "RunConfig key t_past must be int, got str"),
        ("use_past", "yes", "RunConfig key use_past must be bool, got str"),
        ("data", 3, "RunConfig key data must be str, got int"),
        ("t_past", 7, "t_past 7 disagrees with model.t_past 6"),
        ("t_future", 5, "t_future 5 disagrees with model.t_future 4"),
        ("seed", 3, "seed 3 disagrees with model.seed 0"),
        ("horizon_days", 0, "horizon_days must be one of (1, 2, 3), got 0"),
        ("horizon_days", 7, "horizon_days must be one of (1, 2, 3), got 7"),
    ])
    def test_edited_run_section_fails(self, run_dir, tmp_path, capsys, key, value,
                                      message):
        model_dir = tmp_path / "edited"
        shutil.copytree(run_dir, model_dir)
        config = json.loads((model_dir / "config.json").read_text())
        config[key] = value
        (model_dir / "config.json").write_text(json.dumps(config))
        assert main(["eval", "--model-dir", str(model_dir),
                     "--out", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys) == \
            f"error: {model_dir / 'config.json'}: {message}"
        assert not (tmp_path / "out").exists()

    def test_panel_of_another_size_fails(self, run_dir, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "synth"), "--nodes", "5",
                     "--steps", "200", "--seed", "5"]) == 0
        model_dir = tmp_path / "edited"
        shutil.copytree(run_dir, model_dir)
        config = json.loads((model_dir / "config.json").read_text())
        config["data"] = str(tmp_path / "synth" / "panel.csv")
        (model_dir / "config.json").write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["eval", "--model-dir", str(model_dir),
                     "--out", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys) == (
            f"error: {model_dir / 'config.json'}: "
            "model.n_nodes 3 disagrees with the panel's n_nodes 5")
        assert not (tmp_path / "out").exists()
