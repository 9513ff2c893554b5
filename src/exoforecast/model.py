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
from .selector import init_cond_embed, init_expert_bank, keep_mask, select_stage

ARCHIVE_MAGIC = b"EXOF0001"
# N * T * H elements that predict's workers together may span: 3 windows per
# worker at the paper shape (N = T = 24, H = 64) with 2 workers
PREDICT_CHUNK = 2 ** 18
# B * N * T * H elements of one branch's activation below which a training
# forward keeps its future branch in the calling process: on a 2-core box a
# forked step ran 0.63-1.00x as fast as a serial one at 2**11.6 elements,
# 0.96-1.67x at 2**13.6 and 1.15-1.77x from 2**14.6 up
BRANCH_FORK_MIN = 2 ** 15


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
# run, the platform cannot fork or cannot tell which cores this process owns
PREDICT_WORKERS = (len(os.sched_getaffinity(0)) if _BLAS_THREADS and hasattr(os, "fork")
                   and hasattr(os, "sched_getaffinity") else 1)


def _workers() -> int:
    """Processes a forward may run on, the calling one included:
    ``PREDICT_WORKERS``, or 1 while another Python thread is alive, since
    forking a threaded process can deadlock."""
    return PREDICT_WORKERS if threading.active_count() == 1 else 1


def _send(fd: int, obj) -> None:
    """Write ``obj`` down pipe ``fd`` as one length-prefixed pickle."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    for part in (struct.pack("<Q", len(data)), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _read_exactly(fd: int, n: int) -> bytearray:
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        read = os.readv(fd, [view[got:]])
        if not read:
            raise EOFError("the pipe closed inside a message")
        got += read
    return buf


def _receive(fd: int):
    """The next object ``_send`` wrote down pipe ``fd``; ``EOFError`` if
    the pipe closes first."""
    (size,) = struct.unpack("<Q", _read_exactly(fd, 8))
    return pickle.loads(_read_exactly(fd, size))


class _Child:
    """A forked child process and the two pipes between it and its parent.

    The child closes the pipe ends that are not its own and those in
    ``unused``, clears the tape it inherits, calls ``work(self)`` and sends
    ``(True, result)``, or ``(False, exception)``, as its last message. It
    leaves with ``os._exit``, whatever is raised. ``work`` may ``send`` and
    ``receive`` before that. An exception the parent could not rebuild is
    sent as a ``RuntimeError`` naming its type.

    In the parent, ``result`` returns the next value the child sent. It
    raises the child's exception, and a child that ended without sending
    raises one line naming it as ``name`` and its pid. ``join`` closes the
    parent's ends and reaps the child; ``kill`` ends it first, unless it
    has been reaped. Neither blocks: a child whose pipes are closed cannot.
    """

    def __init__(self, name: str, work, unused: tuple[int, ...] = ()):
        self.name, self.code = name, None
        ends: list[int] = []
        try:
            ends += os.pipe()  # child -> parent
            ends += os.pipe()  # parent -> child
            self.pid = os.fork()
        except OSError:
            for end in ends:
                os.close(end)
            raise
        up_read, up_write, down_read, down_write = ends
        if self.pid == 0:
            self.fds = (down_read, up_write)
            self._serve(work, (up_read, down_write, *unused))
        os.close(up_write)
        os.close(down_read)
        self.fds = (up_read, down_write)  # (read, write) ends of this process

    def _serve(self, work, unused: tuple[int, ...]) -> None:
        status = 1
        try:
            for end in unused:  # so a parent that closes its read end ends a blocked write
                os.close(end)
            ad.clear_tape()  # the inherited tape belongs to the parent
            try:
                message = (True, work(self))
            except BaseException as exc:
                message = (False, exc)
                try:
                    pickle.loads(pickle.dumps(message))
                except Exception:
                    message = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
            self.send(message)
            status = 0
        finally:
            os._exit(status)

    def send(self, obj) -> None:
        _send(self.fds[1], obj)

    def receive(self):
        return _receive(self.fds[0])

    def result(self):
        try:
            ok, value = self.receive()
        except EOFError:
            code = self.join()
            if code < 0:
                import signal  # ~1 ms; only a failed child needs its names
                raise RuntimeError(
                    f"{self.name} {self.pid} was ended by {signal.Signals(-code).name}") from None
            raise RuntimeError(f"{self.name} {self.pid} exited with status {code} "
                               "before it sent its result") from None
        if not ok:
            self.join()
            raise value
        return value

    def join(self) -> int:
        """The child's exit code, or minus the signal that ended it."""
        if self.code is None:
            for end in self.fds:
                os.close(end)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def kill(self) -> None:
        if self.code is None:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            self.join()


def _serve_future(child: _Child, model: "ExoModel") -> None:
    """In the forked child of a ``BranchWorker``: run the future branch of
    one training step per request until the parent closes the pipe.

    A request is (x, e_future, the branch's keep mask or ``None``, the
    values of ``model.future_leaves()``). The child runs
    ``ExoModel._future_branch`` with those values on a tape of its own and
    sends its forecast. It then receives the forecast's adjoint, sweeps
    its tape from it and sends the grads this sweep gave the leaves, in
    order. It draws nothing and keeps nothing between steps."""
    leaves = model.future_leaves()
    while True:
        try:
            x, e_future, keep, values = child.receive()
        except EOFError:
            return
        for leaf, value in zip(leaves, values):
            leaf.values = value
            leaf.zero_grad()
        with ad.Tape() as tape:
            out = model._future_branch(x, e_future, keep)
        child.send((True, out.values))
        tape.backward(out, child.receive())
        child.send((True, [leaf.grad for leaf in leaves]))
        del tape, out  # no activations are held between steps


class BranchWorker:
    """Runs the future branch of training steps on one forked child; see
    ``ExoModel.forward``.

    Open it around the steps that may use it, as ``train`` does, and end
    each step with ``collect``, as ``train_step`` does. The child is forked,
    with OpenBLAS held at one thread, at the first step that runs its
    branch there, and serves every later one. Each request carries the
    step's inputs, the future branch's keep mask, which the caller drew,
    and the values of ``model.future_leaves()``, so the child computes
    with the caller's parameters and holds no state of its own. Forking
    once per run, not per step, keeps the pages both processes write
    private after the first step, so no step pays for copy-on-write faults.

    A step's ``future`` is one node on the caller's tape, whose VJP sends
    its adjoint to the child without waiting, once: a second sweep raises.
    ``collect`` adds the grads the child sent to the leaves' ``.grad``, or,
    after a step that was never swept (a non-finite loss), ends the child.
    However the scope is left, a child still running is killed and reaped,
    and BLAS gets its thread count back.
    """

    def __init__(self):
        self._child: Optional[_Child] = None
        self._blas: Optional[int] = None
        self._leaves: list[Tensor] = []
        self._step = 0  # steps started
        self._pending = self._swept = False

    def __enter__(self) -> "BranchWorker":
        return self

    def start(self, model: "ExoModel", x: Tensor, e_future: Tensor,
              keep: Optional[np.ndarray]) -> None:
        """Have the child run ``model``'s future branch of this step with
        dropout keep mask ``keep``; see ``ExoModel._future_branch``."""
        if self._child is None:
            get_threads, set_threads = _BLAS_THREADS
            if self._blas is None:
                self._blas = get_threads()
            set_threads(1)
            self._leaves = model.future_leaves()
            self._child = _Child("future-branch worker",
                                 lambda child: _serve_future(child, model))
        self._child.send((x.values, e_future.values, keep,
                          [leaf.values for leaf in self._leaves]))
        self._step += 1
        self._pending, self._swept = True, False

    def future(self) -> Tensor:
        """The branch's forecast."""
        step = self._step
        return ad.remote(self._child.result(),
                         lambda adjoint: self._send_adjoint(step, adjoint))

    def _send_adjoint(self, step: int, adjoint: np.ndarray) -> None:
        if step != self._step or not self._pending or self._swept:
            raise RuntimeError("a tape whose future branch ran on a forked worker is "
                               "swept once, within its step; it cannot be replayed")
        self._swept = True
        self._child.send(adjoint)

    def collect(self) -> None:
        """End this step on the child, if it ran there."""
        if not self._pending:
            return
        self._pending = False
        if not self._swept:
            self._child.kill()
            self._child = None
            return
        for leaf, grad in zip(self._leaves, self._child.result()):
            leaf.grad += grad

    def __exit__(self, exc_type, exc, tb):
        self._pending = False
        if self._child is not None:
            self._child.kill()
            self._child = None
        if self._blas is not None:
            _BLAS_THREADS[1](self._blas)
            self._blas = None
        return False


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

    The two branches stay independent until the fusion, so a training
    forward may run the future one on a forked ``BranchWorker`` child while
    the caller runs the past one, with every bit unchanged (``forward``).

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

    def forward(self, x, e_past, e_future, *, rng: Optional[np.random.Generator] = None,
                worker: Optional[BranchWorker] = None) -> tuple[Tensor, Optional[Tensor]]:
        """Run the full pipeline; returns (prediction, alpha or None).

        Inputs may be numpy arrays or Tensors shaped (..., N, T, F). A given
        ``rng`` means training: before either branch runs, ``keep_mask``
        draws the past select stage's dropout mask from it, then the
        future one's, when ``keep_prob < 1``. Without one the forward is the
        eval-mode map and draws nothing. Each branch (``_branch``) runs its
        select stage, then its backbone, past branch first.

        Inside a ``BranchWorker`` scope, with a tape open and ``_workers()``
        above 1, the future branch runs on a forked child when no tensor is
        read by both branches: not with ``shared`` or ``attention`` fusion,
        a tracked graph (the adaptive ones) or tracked inputs, and only when
        a branch's (B, N, T, H) activation holds at least
        ``BRANCH_FORK_MIN`` elements. The child gets the inputs, the future
        mask and the values of ``future_leaves()``, runs
        ``_future_branch`` on its own tape and sends back its forecast,
        while the caller runs the past branch. The forecast joins the
        caller's tape as one node, whose adjoint goes to the child for its
        backward; see ``BranchWorker``. The branches share no tensor and the
        child draws nothing, so every value, grad and draw equals the serial
        forward's bit for bit.
        """
        cfg = self.config
        x = ad.as_tensor(x)
        e_past = ad.as_tensor(e_past)
        e_future = ad.as_tensor(e_future)
        adj = self.graph.matrix() if self.graph is not None else None
        keep_p = keep_mask(x.shape, e_past.shape, self.embed_p, rng)
        keep_f = keep_mask(x.shape, e_future.shape, self.embed_f, rng)
        forked = worker is not None and self._forks(x, e_future, adj)
        if forked:
            worker.start(self, x, e_future, keep_f)
        y_p, pen_p = self._branch("p", x, e_past, keep_p, adj)
        y_f, pen_f = (worker.future(), None) if forked else \
            self._branch("f", x, e_future, keep_f, adj)

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
                           readout_head(enh_f, self.backbone_f.readout)), None

    def _branch(self, side: str, x: Tensor, e: Tensor, keep: Optional[np.ndarray],
                adj: Optional[Tensor]) -> tuple[Tensor, Tensor]:
        """Branch ``side`` (``"p"`` or ``"f"``): its select stage with
        dropout keep mask ``keep``, then its backbone, which the ``shared``
        strategy takes from the past branch; returns (forecast,
        penultimate features)."""
        past = side == "p"
        x_s = select_stage(x, e, self.embed_p if past else self.embed_f,
                           self.bank_p if past else self.bank_f,
                           pad_side="head" if past else "tail", keep=keep)
        backbone = self.backbone_p if past or self.backbone_f is None else self.backbone_f
        return backbone_forward(x_s, adj, backbone, self.spec)

    def _future_branch(self, x, e_future, keep: Optional[np.ndarray]) -> Tensor:
        """The future branch's forecast alone, as a ``BranchWorker`` child
        runs it for ``forward``."""
        adj = self.graph.matrix() if self.graph is not None else None
        return self._branch("f", ad.as_tensor(x), ad.as_tensor(e_future), keep, adj)[0]

    def future_leaves(self) -> list[Tensor]:
        """The leaves the future branch reads when it may fork (see
        ``_forks``): its embedding's, its expert bank's and its backbone's,
        in ``parameters()`` order."""
        return [t for name, t in self.parameters().items()
                if name.startswith(("embed.f.", "select.f.", "backbone.f."))]

    def _forks(self, x: Tensor, e_future: Tensor, adj: Optional[Tensor]) -> bool:
        """Whether a forward's future branch runs on a forked child (see
        ``forward``), given a ``BranchWorker``."""
        t = max(x.shape[-2], e_future.shape[-2])
        return (ad._active_tape() is not None and self.config.fusion not in ("shared", "attention")
                and not any(v is not None and (v.requires_grad or v.tape is not None)
                            for v in (x, e_future, adj))
                and x.values.flags.c_contiguous and e_future.values.flags.c_contiguous
                and math.prod(x.shape[:-2]) * t * self.config.hidden >= BRANCH_FORK_MIN
                and _workers() > 1)

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
        workers = _workers()
        chunk = max(1, PREDICT_CHUNK // (n * t * self.config.hidden * workers))
        if np.ndim(x) < 4 or len(x) <= chunk:
            return self.forward(x, e_past, e_future)[0].values

        def forecast(block) -> np.ndarray:
            return np.concatenate([self.forward(x[lo:lo + chunk], e_past[lo:lo + chunk],
                                                e_future[lo:lo + chunk])[0].values
                                   for lo in block])

        starts = range(0, len(x), chunk)
        if workers == 1:
            return forecast(starts)
        cuts = [len(starts) * i // workers for i in range(workers + 1)]
        blocks = [starts[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        get_threads, set_threads = _BLAS_THREADS
        blas_threads = get_threads()
        set_threads(1)
        children: list[_Child] = []  # in block order
        try:
            for block in blocks[1:]:
                children.append(_Child("predict worker", lambda _, block=block: forecast(block),
                                       tuple(end for c in children for end in c.fds)))
            out = [forecast(blocks[0])]
            for child in children:
                out.append(child.result())
                child.join()
        finally:
            for child in children:
                child.kill()
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
