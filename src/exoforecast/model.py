"""Full forecasting model: dual select stages, siamese encoders, fusion.

Also owns the parameter archive: a small versioned binary of named float64
tensors (see ``save_tensors`` for the byte layout) so trained models can be
reloaded bit-exactly.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import struct
import threading
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Optional, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import (BACKBONE_KINDS, BackboneSpec, backbone_forward, init_backbone,
                        readout_head)
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
from .graphs import GRAPH_KINDS, Graph, build_graph, row_normalize, with_self_loops
from .selector import (
    init_cond_embed,
    init_expert_bank,
    select_stage,
)

ARCHIVE_MAGIC = b"EXOF0001"
# N * T * H elements that predict's workers together may span: 3 windows per
# worker at the paper shape (N = T = 24, H = 64) with 2 workers
PREDICT_CHUNK = 2 ** 18


def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or ``None`` where they cannot be reached."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


_BLAS_THREADS = _openblas_threads()
# processes ``predict`` forwards its chunks on, the calling one included: one
# per core, or 1 (serial) where BLAS cannot be held to one thread while they
# run or the platform cannot fork
PREDICT_WORKERS = (len(os.sched_getaffinity(0))
                   if _BLAS_THREADS and hasattr(os, "fork") else 1)


def _send_forecasts(forecast, block, fd: int, unused: tuple[int, ...]) -> None:
    """In a forked child: close the inherited pipe ends ``unused``, call
    ``forecast`` on each slice start in ``block``, send the joined forecasts
    or the exception down pipe ``fd`` as one pickle, and leave with
    ``os._exit``, whatever is raised. An exception the parent could not
    rebuild is sent as a ``RuntimeError`` naming its type."""
    status = 1
    try:
        for end in unused:  # so a parent that closes its read end ends a blocked write
            os.close(end)
        ad.clear_tape()  # the inherited tape belongs to the parent
        try:
            data = pickle.dumps((True, np.concatenate([forecast(lo) for lo in block])),
                                pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive_forecasts(pid: int, fd: int) -> np.ndarray:
    """The forecasts child ``pid`` sent down pipe ``fd``, once it has been
    reaped; its exception is raised, and a child that died sending nothing
    raises one line naming it."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:  # a child whose pipe is closed cannot block, so this returns
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        import signal  # ~1 ms; only a failed child needs its names
        raise RuntimeError(f"predict worker {pid} was ended by {signal.Signals(-code).name}")
    if code or not data:
        raise RuntimeError(f"predict worker {pid} exited with status {code} and sent no forecasts")
    ok, sent = pickle.loads(data)
    if not ok:
        raise sent
    return sent


@dataclass
class ModelConfig:
    """Everything needed to rebuild the model architecture."""

    n_nodes: int
    past_exo_dim: int
    future_exo_dim: int
    t_past: int = 24
    t_future: int = 24
    hidden: int = 64
    experts: int = 4
    keep_prob: float = 0.9
    backbone: str = "grugcn"
    mix_hidden: int = 32
    graph_kind: str = "pearson"
    graph_k: int = 8
    fusion: str = "context"
    use_selector: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, least in (("t_past", 1), ("t_future", 1), ("hidden", 1), ("experts", 1),
                            ("mix_hidden", 1), ("graph_k", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name, allowed in (("backbone", BACKBONE_KINDS), ("graph_kind", GRAPH_KINDS),
                              ("fusion", FUSION_STRATEGIES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        ad.check_keep_prob(self.keep_prob)

    def to_dict(self) -> dict:
        return asdict(self)


# value types a field of each declared type accepts; a ``bool`` fits only a
# ``bool`` field
_JSON_TYPES = {int: int, float: (int, float), bool: bool, str: str}


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
    A model builds only the tensors its forward reads: the expert banks only
    with the selector, and fusion parameters only for the strategy that
    needs them (``sum``, the balancer ablation, has none).

    Its leaves are drawn from a generator seeded with ``config.seed``; with
    ``draw=False`` no generator is built and each is left for
    ``load_model`` to fill.
    """

    def __init__(self, config: ModelConfig,
                 target_series: Optional[np.ndarray] = None,
                 static_adjacency: Optional[np.ndarray] = None, *, draw: bool = True):
        self.config = config
        cfg = config
        rng = np.random.default_rng(cfg.seed) if draw else None
        # one endogenous input: a window's ``x`` is the target channel alone
        self.embed_p = init_cond_embed(1, cfg.past_exo_dim, cfg.hidden, rng,
                                       keep_prob=cfg.keep_prob)
        self.embed_f = init_cond_embed(1, cfg.future_exo_dim, cfg.hidden, rng,
                                       keep_prob=cfg.keep_prob)
        self.bank_p = (init_expert_bank(cfg.hidden, cfg.experts, rng)
                       if cfg.use_selector else None)
        self.bank_f = (init_expert_bank(cfg.hidden, cfg.experts, rng)
                       if cfg.use_selector else None)
        self.spec = BackboneSpec(cfg.backbone, hidden=cfg.hidden,
                                 t_future=cfg.t_future, mix_hidden=cfg.mix_hidden)
        t_in = max(cfg.t_past, cfg.t_future)
        self.backbone_p = init_backbone(self.spec, t_in, rng)
        self.backbone_f = (None if cfg.fusion == "shared"
                           else init_backbone(self.spec, t_in, rng))
        self.balancer: Optional[BalancerParams] = (
            init_balancer(cfg.t_future, rng) if cfg.fusion == "context" else None)
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
                            target_series=target_series, k=cfg.graph_k, rng=rng)
        if graph.adjacency is not None:
            # conv prep: self-loops then signed row normalization
            graph.adjacency = row_normalize(with_self_loops(graph.adjacency))
        return graph

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor, named by its part's prefix plus its field
        path (``backbone.p.readout.w_out``); a part the configuration
        lacks is ``None`` and names nothing, so these are exactly the
        tensors a training forward reads."""
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

    def forward(self, x, e_past, e_future, *, rng: Optional[np.random.Generator] = None
                ) -> tuple[Tensor, Optional[Tensor]]:
        """Run the full pipeline; returns (prediction, alpha or None).

        Inputs may be numpy arrays or Tensors shaped (..., N, T, F). A given
        ``rng`` means training: both select stages draw their dropout masks
        from it, past branch first, when ``keep_prob < 1``. Without one the
        forward is the eval-mode map and draws nothing.
        """
        cfg = self.config
        x = ad.as_tensor(x)
        e_past = ad.as_tensor(e_past)
        e_future = ad.as_tensor(e_future)
        x_p = select_stage(x, e_past, self.embed_p, self.bank_p, pad_side="head", rng=rng)
        x_f = select_stage(x, e_future, self.embed_f, self.bank_f, pad_side="tail", rng=rng)
        adj = self.graph.matrix() if self.graph is not None else None
        backbone_f = self.backbone_p if cfg.fusion == "shared" else self.backbone_f
        y_p, pen_p = backbone_forward(x_p, adj, self.backbone_p, self.spec)
        y_f, pen_f = backbone_forward(x_f, adj, backbone_f, self.spec)

        if cfg.fusion == "sum":
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
        return fuse_simple(readout_head(enh_p, self.backbone_p.readout),
                           readout_head(enh_f, backbone_f.readout)), None

    def predict(self, x, e_past, e_future) -> np.ndarray:
        """Eval-mode forward returning plain values.

        A batched (B, N, T, F) input runs through ``forward`` in consecutive
        slices of at most ``max(1, PREDICT_CHUNK // (N * T * H * W))``
        windows, T the longer of the past and future lengths and W
        ``PREDICT_WORKERS``, or 1 while another Python thread is alive,
        since forking a threaded process can deadlock. With more than one
        slice and W > 1, the slices are split into W contiguous blocks.
        OpenBLAS is held to one thread, and the caller forks one child per
        later block, then forecasts the first block itself. So the workers
        together span at most ``PREDICT_CHUNK`` elements: 3 windows per
        worker at N = T = 24, H = 64 and W = 2, where one window's
        (N, T, H) activation takes 288 KiB. Each child sends its forecasts,
        or its exception, back over a pipe and exits; the caller reads
        every pipe, reaps every child and restores BLAS whatever happens,
        then joins the slices in window order. An exception from any block
        comes out of ``predict`` with its type and message, and a child
        that dies sending nothing raises one line naming its pid. No
        eval-mode forecast depends on the other windows of its batch or
        draws a random number, and a child records on no tape, so the
        result equals one whole-batch forward bit for bit.
        """
        n, t = np.shape(x)[-3], max(np.shape(x)[-2], np.shape(e_future)[-2])
        workers = PREDICT_WORKERS if threading.active_count() == 1 else 1
        chunk = max(1, PREDICT_CHUNK // (n * t * self.config.hidden * workers))
        if np.ndim(x) < 4 or len(x) <= chunk:
            return self.forward(x, e_past, e_future)[0].values

        def forecast(lo: int) -> np.ndarray:
            return self.forward(x[lo:lo + chunk], e_past[lo:lo + chunk],
                                e_future[lo:lo + chunk])[0].values

        starts = range(0, len(x), chunk)
        if workers == 1:
            return np.concatenate([forecast(lo) for lo in starts])
        cuts = [len(starts) * i // workers for i in range(workers + 1)]
        blocks = [starts[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        get_threads, set_threads = _BLAS_THREADS
        blas_threads = get_threads()
        set_threads(1)
        children: list[tuple[int, int]] = []  # (pid, read end of its pipe), in block order
        try:
            for block in blocks[1:]:
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    _send_forecasts(forecast, block, write, (read, *(fd for _, fd in children)))
                os.close(write)
                children.append((pid, read))
            out = [forecast(lo) for lo in blocks[0]]
            while children:
                out.append(_receive_forecasts(*children.pop(0)))
        finally:
            if children:  # left only when something raised
                import signal
            for pid, read in children:
                os.kill(pid, signal.SIGKILL)
                os.close(read)
                os.waitpid(pid, 0)
            set_threads(blas_threads)
        return np.concatenate(out)


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
            arr = np.asarray(tensors[name], dtype="<f8")  # 0-d stays 0-d
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
    ``path``. Records are sliced from a view of the file's bytes, so each
    tensor's values are copied once, into their own array.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:len(ARCHIVE_MAGIC)]
    if magic != ARCHIVE_MAGIC:
        raise ValueError(f"{path} is not a model archive (magic {magic!r})")
    pos, view = len(ARCHIVE_MAGIC), memoryview(buf)

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError(f"{path} is truncated: needs {pos + n} bytes, "
                             f"has {len(buf)}")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    def unpack(fmt: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    count = unpack("<I")
    out = {}
    for _ in range(count):
        name = str(take(unpack("<H")), "utf-8")
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

    A leaf is drawn or filled, never both. The model is built by
    ``ExoModel.__init__`` with ``draw=False``, so each leaf
    ``uniform_parameter`` would draw is left to be filled; then every leaf
    is filled from the archive, whose exact names and shapes the checks
    ensure. No generator is built, so ``numpy.random`` is never imported.
    """
    stored = load_tensors(path)
    # a pearson graph needs training data to build, so a zero adjacency
    # stands in for it; it is overwritten like every parameter
    model = ExoModel(config, static_adjacency=np.zeros((config.n_nodes,) * 2)
                     if config.graph_kind == "pearson" else None, draw=False)
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
