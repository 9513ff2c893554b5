"""Every trainable tensor is named once, reachable, read by the training
forward, and archived.

The expected names and shapes are written out per component here, not
derived from the ``Params`` dataclasses they check.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from exoforecast import autodiff as ad
from exoforecast.autodiff import Tensor
from exoforecast.backbones import BACKBONE_KINDS
from exoforecast.fusion import FUSION_STRATEGIES
from exoforecast.graphs import GRAPH_KINDS
from exoforecast.model import ExoModel, ModelConfig, load_model, save_model

N, PAST, FUTURE, T_PAST, T_FUTURE, H, K, M, D = 3, 2, 3, 5, 4, 4, 3, 6, 8
T_IN = max(T_PAST, T_FUTURE)

# an mlp-mixer model reads no graph, so its names need only one graph kind
COMBOS = ([("grugcn", fusion, graph, selector) for fusion in FUSION_STRATEGIES
           for graph in GRAPH_KINDS for selector in (True, False)]
          + [("mlp-mixer", fusion, "pearson", selector) for fusion in FUSION_STRATEGIES
             for selector in (True, False)])


def _config(backbone, fusion, graph, selector) -> ModelConfig:
    return ModelConfig(n_nodes=N, past_exo_dim=PAST, future_exo_dim=FUTURE,
                       t_past=T_PAST, t_future=T_FUTURE, hidden=H, experts=K,
                       backbone=backbone, mix_hidden=M, graph_kind=graph,
                       graph_k=1, fusion=fusion, use_selector=selector, seed=3)


def _model(backbone, fusion, graph, selector) -> ExoModel:
    series = np.random.default_rng(0).normal(size=(N, 40))
    return ExoModel(_config(backbone, fusion, graph, selector), target_series=series)


def _embed(exo_dim):
    return {"w_x": (1, H), "w_e": (exo_dim, H), "b": (H,)}


def _select():
    return {**{f"expert{k}": (H, H) for k in range(K)}, "gate": (H, K)}


def _readout(feat_dim):
    return {"readout.w_seq": (feat_dim, T_FUTURE * H), "readout.b_seq": (T_FUTURE * H,),
            "readout.w_out": (H, 1), "readout.b_out": (1,)}


def _backbone(kind):
    if kind == "grugcn":
        gates = {f"{w}_{g}": (2 * H, H) if w == "w" else (H,)
                 for g in "zrc" for w in ("w", "b")}
        return {"w_s": (H, H), **gates, **_readout(H)}
    return {"w1": (T_IN * H, M), "b1": (M,), "w2": (M, M), "b2": (M,), **_readout(M)}


FUSION_PARTS = {
    # T_f = 4 and reduction 4 give the balancer its minimum width, 4
    "context": {"balancer": {"w1": (T_FUTURE, 4), "b1": (4,), "w2": (4, T_FUTURE),
                             "b2": (T_FUTURE,)}},
    "shared": {},
    "simple": {},
    "learnable": {"fusion": {"w_init": (2,)}},
    "attention": {"fusion.attention": {"w_q": (H, H), "w_k": (H, H), "w_v": (H, H)}},
    "sum": {},
}
GRAPH_PARTS = {
    "pearson": {},
    "identity": {},
    "adaptive": {"graph": {"embeddings": (N, D)}},
    "adaptive-directed": {"graph": {"src_embeddings": (N, D), "dst_embeddings": (N, D)}},
}


def _expected(backbone, fusion, graph, selector) -> dict:
    parts = {"embed.p": _embed(PAST), "embed.f": _embed(FUTURE),
             "backbone.p": _backbone(backbone), **FUSION_PARTS[fusion]}
    if selector:
        parts.update({"select.p": _select(), "select.f": _select()})
    if fusion != "shared":
        parts["backbone.f"] = _backbone(backbone)
    if backbone == "grugcn":
        parts.update(GRAPH_PARTS[graph])
    return {f"{prefix}.{name}": shape for prefix, names in parts.items()
            for name, shape in names.items()}


def _trainable(obj, seen=None) -> list:
    """Every ``requires_grad`` tensor reachable from ``obj`` through object
    attributes, dataclass fields, lists, tuples and dicts, once each."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj] if obj.requires_grad else []
    if dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, ExoModel):
        children = list(vars(obj).values())
    else:
        return []
    return [t for child in children for t in _trainable(child, seen)]


@pytest.mark.parametrize("backbone, fusion, graph, selector", COMBOS)
class TestParameterNames:
    def test_names_and_shapes(self, backbone, fusion, graph, selector):
        params = _model(backbone, fusion, graph, selector).parameters()
        assert {name: t.shape for name, t in params.items()} == \
            _expected(backbone, fusion, graph, selector)

    def test_every_trainable_tensor_is_named_once(self, backbone, fusion, graph,
                                                  selector):
        model = _model(backbone, fusion, graph, selector)
        named = [id(t) for t in model.parameters().values()]
        assert len(named) == len(set(named))
        reachable = _trainable(model)
        assert reachable and sorted(named) == sorted(id(t) for t in reachable)

    def test_archive_round_trip(self, backbone, fusion, graph, selector, tmp_path):
        model = _model(backbone, fusion, graph, selector)
        save_model(tmp_path / "model.bin", model)
        loaded = load_model(tmp_path / "model.bin", model.config)
        before, after = model.parameters(), loaded.parameters()
        assert list(after) == list(before)
        for name, tensor in before.items():
            assert after[name].shape == tensor.shape
            assert after[name].values.tobytes() == tensor.values.tobytes(), name
        if model.graph is not None:
            assert loaded.graph.matrix().values.tobytes() == \
                model.graph.matrix().values.tobytes()


@pytest.mark.parametrize("backbone, fusion, graph, selector", list(itertools.product(
    BACKBONE_KINDS, FUSION_STRATEGIES, GRAPH_KINDS, (True, False))))
def test_training_forward_reads_every_parameter(backbone, fusion, graph, selector):
    """A parameter no tape node takes as an input gets no gradient, yet AdamW
    would decay it and ``model.bin`` would store it."""
    model = _model(backbone, fusion, graph, selector)
    rng = np.random.default_rng(1)
    with ad.Tape() as tape:  # keep_prob 0.9: dropout is on
        model.forward(rng.normal(size=(2, N, T_PAST, 1)),
                      rng.normal(size=(2, N, T_PAST, PAST)),
                      rng.normal(size=(2, N, T_FUTURE, FUTURE)), rng=rng)
    read = {id(t) for node in tape.nodes for t in node.inputs}
    assert [name for name, t in model.parameters().items() if id(t) not in read] == []
