"""Full forecasting model: dual select stages, siamese encoders, fusion.

Also owns the parameter archive: a small versioned binary of named float64
tensors (see ``save_tensors`` for the byte layout) so trained models can be
reloaded bit-exactly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Optional, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import BackboneSpec, backbone_forward, init_backbone
from .fusion import (
    FUSION_STRATEGIES,
    AttentionParams,
    BalancerParams,
    attention_enhance,
    context_balance,
    fuse_learnable,
    fuse_simple,
    init_attention,
    init_balancer,
    init_learnable_weights,
)
from .graphs import Graph, build_graph, row_normalize, with_self_loops
from .selector import (
    init_cond_embed,
    init_expert_bank,
    select_stage,
)

ARCHIVE_MAGIC = b"EXOF0001"
PREDICT_CHUNK = 2 ** 18  # N * T * H elements one forecast chunk may span


@dataclass
class ModelConfig:
    """Everything needed to rebuild the model architecture."""

    n_nodes: int
    past_exo_dim: int
    future_exo_dim: int
    endo_dim: int = 1
    t_past: int = 24
    t_future: int = 24
    hidden: int = 64
    experts: int = 4
    activation: str = "relu"
    keep_prob: float = 0.9
    backbone: str = "grugcn"
    mix_hidden: int = 32
    graph_kind: str = "pearson"
    graph_k: int = 8
    graph_embed_dim: int = 8
    fusion: str = "context"
    reduction: int = 4
    alpha_per_sample: bool = False
    use_selector: bool = True
    use_balancer: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("t_past", "t_future", "hidden", "experts", "mix_hidden",
                     "graph_k", "graph_embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.keep_prob <= 1.0:  # also false for nan
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")

    def to_dict(self) -> dict:
        return asdict(self)


# value types a field of each declared type accepts (a JSON array for a
# tuple); a ``bool`` fits only a ``bool`` field
_JSON_TYPES = {int: int, float: (int, float), bool: bool, str: str,
               tuple: (list, tuple)}


def config_from_dict(cls, d):
    """Build dataclass ``cls`` from ``d``, which must name every field exactly.

    An archived config always holds every field, so an unknown or missing
    key, or a value whose JSON type does not fit the field's declared type,
    means the file is stale or edited: that is a ``ValueError`` naming the
    keys, not a ``TypeError`` from the constructor. A field declared as a
    dataclass is built from its JSON object by the same rules.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    names = {f.name for f in fields(cls)}
    problems = []
    for what, keys in (("unknown", d.keys() - names), ("missing", names - d.keys())):
        if keys:
            problems.append(f"{what} keys {', '.join(sorted(keys))}")
    if problems:
        raise ValueError(f"{cls.__name__} has " + " and ".join(problems))
    values = dict(d)
    for name, declared in get_type_hints(cls).items():
        value = d[name]
        if is_dataclass(declared):
            values[name] = config_from_dict(declared, value)
        elif declared in _JSON_TYPES and (not isinstance(value, _JSON_TYPES[declared])
                                          or isinstance(value, bool) != (declared is bool)):
            raise ValueError(f"{cls.__name__} key {name} must be {declared.__name__}, "
                             f"got {type(value).__name__}")
    return cls(**values)


class ExoModel:
    """Conditional embedding -> expert selection -> siamese encoding -> fusion.

    The shared-parameter strategy routes both branches through the past
    branch's encoder; every other strategy keeps two independent encoders.
    """

    def __init__(self, config: ModelConfig,
                 target_series: Optional[np.ndarray] = None,
                 static_adjacency: Optional[np.ndarray] = None):
        if config.fusion not in FUSION_STRATEGIES:
            raise ValueError(f"unknown fusion strategy {config.fusion!r}")
        self.config = config
        cfg = config
        rng = np.random.default_rng(cfg.seed)
        self.embed_p = init_cond_embed(cfg.endo_dim, cfg.past_exo_dim, cfg.hidden,
                                       rng, cfg.activation, cfg.keep_prob)
        self.embed_f = init_cond_embed(cfg.endo_dim, cfg.future_exo_dim, cfg.hidden,
                                       rng, cfg.activation, cfg.keep_prob)
        self.bank_p = init_expert_bank(cfg.hidden, cfg.experts, rng)
        self.bank_f = init_expert_bank(cfg.hidden, cfg.experts, rng)
        self.spec = BackboneSpec(cfg.backbone, hidden=cfg.hidden,
                                 t_future=cfg.t_future, mix_hidden=cfg.mix_hidden)
        t_in = max(cfg.t_past, cfg.t_future)
        self.backbone_p = init_backbone(self.spec, t_in, rng)
        self.backbone_f = (None if cfg.fusion == "shared"
                           else init_backbone(self.spec, t_in, rng))
        self.balancer: Optional[BalancerParams] = (
            init_balancer(cfg.t_future, rng, cfg.reduction, scalar=cfg.alpha_per_sample)
            if cfg.fusion == "context" else None)
        self.learnable_w: Optional[Tensor] = (
            init_learnable_weights() if cfg.fusion == "learnable" else None)
        self.attention: Optional[AttentionParams] = (
            init_attention(cfg.hidden, rng) if cfg.fusion == "attention" else None)
        self.graph = self._build_graph(target_series, static_adjacency, rng)

    def _build_graph(self, target_series, static_adjacency, rng) -> Optional[Graph]:
        if not self.spec.needs_graph:
            return None  # graph-free backbone
        cfg = self.config
        if static_adjacency is not None:  # archived, already prepped
            return Graph(adjacency=static_adjacency)
        graph = build_graph(cfg.graph_kind, cfg.n_nodes,
                            target_series=target_series, k=cfg.graph_k,
                            embed_dim=cfg.graph_embed_dim, rng=rng)
        if graph.adjacency is not None:
            # conv prep: self-loops then signed row normalization
            graph.adjacency = row_normalize(with_self_loops(graph.adjacency))
        return graph

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor, named by its part's prefix plus its field
        path (``backbone.p.readout.w_out``); a part the configuration
        lacks is ``None`` and names nothing."""
        out: dict[str, Tensor] = {}
        for prefix, part in (
                ("embed.p", self.embed_p), ("embed.f", self.embed_f),
                ("select.p", self.bank_p), ("select.f", self.bank_f),
                ("backbone.p", self.backbone_p), ("backbone.f", self.backbone_f),
                ("balancer", self.balancer), ("fusion.w_init", self.learnable_w),
                ("fusion.attention", self.attention), ("graph", self.graph)):
            if isinstance(part, Tensor):
                out[prefix] = part
            elif part is not None:
                out.update(part.parameters(prefix))
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        if self.graph is not None and self.graph.adjacency is not None:
            return {"graph.static_adjacency": self.graph.adjacency}
        return {}

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.zero_grad()

    # -- forward ------------------------------------------------------------

    def forward(self, x, e_past, e_future, *, train: bool = False,
                rng: Optional[np.random.Generator] = None
                ) -> tuple[Tensor, Optional[Tensor]]:
        """Run the full pipeline; returns (prediction, alpha or None).

        Inputs may be numpy arrays or Tensors shaped (..., N, T, F).
        """
        cfg = self.config
        x = ad.as_tensor(x)
        e_past = ad.as_tensor(e_past)
        e_future = ad.as_tensor(e_future)
        x_p = select_stage(x, e_past, self.embed_p, self.bank_p,
                           pad_side="head", train=train, rng=rng,
                           bypass_selector=not cfg.use_selector)
        x_f = select_stage(x, e_future, self.embed_f, self.bank_f,
                           pad_side="tail", train=train, rng=rng,
                           bypass_selector=not cfg.use_selector)
        adj = self.graph.matrix() if self.graph is not None else None
        backbone_f = self.backbone_p if cfg.fusion == "shared" else self.backbone_f
        y_p, pen_p = backbone_forward(x_p, adj, self.backbone_p, self.spec)
        y_f, pen_f = backbone_forward(x_f, adj, backbone_f, self.spec)

        if not cfg.use_balancer:
            return ad.add(y_p, y_f), None
        if cfg.fusion == "context":
            return context_balance(y_p, y_f, self.balancer)
        if cfg.fusion in ("shared", "simple"):
            return fuse_simple(y_p, y_f), None
        if cfg.fusion == "learnable":
            return fuse_learnable(y_p, y_f, self.learnable_w), None
        # attention operates on the width-H penultimate readout features,
        # each enhanced state mapped through its branch's output head
        enh_p, enh_f = attention_enhance(pen_p, pen_f, self.attention)
        head_p = self.backbone_p.readout
        head_f = backbone_f.readout
        out_p = ad.add(ad.matmul(enh_p, head_p.w_out), head_p.b_out)
        out_f = ad.add(ad.matmul(enh_f, head_f.w_out), head_f.b_out)
        return ad.add(ad.mul(out_p, 0.5), ad.mul(out_f, 0.5)), None

    def predict(self, x, e_past, e_future) -> np.ndarray:
        """Eval-mode forward returning plain values.

        A batched (B, N, T, F) input runs through ``forward`` in consecutive
        slices of at most ``max(1, PREDICT_CHUNK // (N * T * H))`` windows,
        T the longer of the past and future lengths. That is 7 windows at
        N = T = 24, H = 64, where a chunk's (N, T, H) activation takes 2 MiB.
        No eval-mode forecast depends on the other windows of its batch, so
        the concatenated slices equal one whole-batch forward bit for bit.
        """
        n, t = np.shape(x)[-3], max(np.shape(x)[-2], np.shape(e_future)[-2])
        chunk = max(1, PREDICT_CHUNK // (n * t * self.config.hidden))
        if np.ndim(x) < 4 or len(x) <= chunk:
            return self.forward(x, e_past, e_future)[0].values
        return np.concatenate([
            self.forward(x[lo:lo + chunk], e_past[lo:lo + chunk],
                         e_future[lo:lo + chunk])[0].values
            for lo in range(0, len(x), chunk)])


# ---------------------------------------------------------------------------
# Archive
# ---------------------------------------------------------------------------

def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Versioned binary archive of named tensors.

    Layout: magic ``EXOF0001``; uint32 LE tensor count; per tensor a uint16
    LE name length, the UTF-8 name, uint8 ndim, ndim uint32 LE dims, then
    the float64 LE values in C order. Entries are sorted by name.
    """
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read an archive written by ``save_tensors``.

    Every read is length-checked: a wrong magic, a file that ends inside a
    record, or bytes after the last tensor raise ``ValueError`` naming
    ``path``.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:len(ARCHIVE_MAGIC)]
    if magic != ARCHIVE_MAGIC:
        raise ValueError(f"{path} is not a model archive (magic {magic!r})")
    pos = len(ARCHIVE_MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError(f"{path} is truncated: needs {pos + n} bytes, "
                             f"has {len(buf)}")
        chunk = buf[pos:pos + n]
        pos += n
        return chunk

    def unpack(fmt: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    count = unpack("<I")
    out = {}
    for _ in range(count):
        name = take(unpack("<H")).decode("utf-8")
        shape = tuple(unpack("<I") for _ in range(unpack("<B")))
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        out[name] = data.reshape(shape).copy()
    if pos != len(buf):
        raise ValueError(f"{path} has {len(buf) - pos} trailing bytes "
                         f"after its {count} tensors")
    return out


def save_model(path, model: ExoModel) -> None:
    tensors = {name: t.values for name, t in model.parameters().items()}
    tensors.update(model.buffers())
    save_tensors(path, tensors)


def load_model(path, config: ModelConfig) -> ExoModel:
    """Rebuild a model from its config and parameter archive.

    The archive must hold exactly the tensors of the model ``config``
    builds, each of its shape and finite: its ``parameters()`` and
    ``buffers()``, where a static graph's prepped (n_nodes, n_nodes)
    ``graph.static_adjacency`` is a buffer. Any other archive is a one-line
    ``ValueError`` naming ``path`` and the tensor.
    """
    stored = load_tensors(path)
    # a pearson graph needs training data to build, so a zero adjacency
    # stands in for it; it is overwritten like every parameter
    model = ExoModel(config, static_adjacency=np.zeros((config.n_nodes,) * 2)
                     if config.graph_kind == "pearson" else None)
    params = model.parameters()
    built = {name: t.values for name, t in params.items()} | model.buffers()
    missing = set(built) ^ set(stored)
    if missing:
        raise ValueError(f"{path}: archive/model parameter mismatch: {sorted(missing)}")
    for name, values in stored.items():
        if values.shape != built[name].shape:
            raise ValueError(f"{path}: shape mismatch for {name}: "
                             f"{built[name].shape} vs {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: {name} holds a non-finite value")
    for name, tensor in params.items():
        tensor.values = stored[name]
    if model.buffers():
        model.graph.adjacency = stored["graph.static_adjacency"]
    return model
