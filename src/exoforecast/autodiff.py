"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-based engine: operations record nodes on the active ``Tape``
while any input is gradient-tracked, and ``Tape.backward`` walks the
recording in reverse to accumulate adjoints into ``Tensor.grad``.
Everything is double precision; gradient checking at tight relative
tolerances is not reliable in float32.

A trainable tensor is a field of a ``Params`` dataclass and is named by
its field path; it is drawn by ``uniform_parameter`` (or left there to be
filled) or starts at zero.

Memory contract:

- ``.grad`` exists only on ``requires_grad`` tensors (the leaves a caller
  optimizes); every other tensor, recorded or not, has ``grad is None``.
- A recorded tensor refers to its tape weakly, so nothing but the tape's
  owner keeps a tape alive: a tape and the activations its nodes hold are
  freed by reference counting as soon as the owner drops it, even while
  the root or other outputs are still referenced (their ``.tape`` then
  reads ``None``).
- ``Tape.backward`` releases the adjoint of each intermediate as soon as
  the VJP of the node producing it has consumed it, and adds each leaf
  contribution into ``.grad`` in place as it arrives, so it holds no
  running sum of a leaf's adjoint.
- ``affine`` keeps its inputs and output, not the product ``a @ w``.
- ``cond_embed`` keeps its inputs ``x`` and ``e``, the weights and, in
  training mode, a ``bool`` dropout keep-mask (one byte per output
  element); its VJP recomputes the pre-activation and the activation.
- ``moe_combine`` keeps only its inputs and output on the tape; its VJP
  recomputes the K expert projections.
- Both walk the flattened leading rows in chunks of at most ``BLOCK``
  elements (128 KiB), in the forward and in the VJP, so beyond their
  inputs, output and input grads they allocate a few chunk-sized
  transients at a time. Unrecorded (``predict``, ``eval``, validation),
  they keep nothing; the children ``predict`` forks clear the tape they
  inherit and never record, and each process forwarding a chunk, the
  calling one included, holds that chunk's transients alone.
- ``gru_gcn_sequence`` keeps nothing per step when no tape records it.
  Recorded, it keeps the state h and the gates z, r and candidate c of
  each step, four (..., N, T, H) blocks in all; its VJP rebuilds
  ``A x_t`` and ``s = (A x_t) W_s`` with the forward's own calls and
  recomputes the concatenations ``[s, h]`` and ``[s, r * h]``.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

_STATE = threading.local()


def _active_tape() -> Optional["Tape"]:
    return getattr(_STATE, "tape", None)


def clear_tape() -> None:
    """Record nothing more on this thread, such as in a forked child whose
    inherited tape belongs to its parent."""
    _STATE.tape = None


class Tensor:
    """Dense value; a ``requires_grad`` leaf also accumulates a same-shaped ``.grad``."""

    __slots__ = ("values", "grad", "requires_grad", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values) if requires_grad else None
        self.requires_grad = requires_grad
        self._tape: Optional[weakref.ref] = None

    @property
    def tape(self) -> Optional["Tape"]:
        """The live tape that recorded this tensor, else ``None``."""
        return None if self._tape is None else self._tape()

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; constants are wrapped untracked.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, index):
        return take_slice(self, index)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def uniform_parameter(rng: Optional[np.random.Generator], shape: tuple,
                      fan_in: int) -> Tensor:
    """Trainable leaf drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)), or,
    without an ``rng``, left to be filled.

    This is the one place that decides between the two. A leaf to be
    filled holds no bytes of its own: it reads NaN, cannot be written in
    place, and waits for its owner to set ``values``, as ``load_model``
    does from its archive.
    """
    if rng is None:
        return Tensor(np.broadcast_to(np.nan, shape), requires_grad=True)
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Params:
    """Base of the parameter dataclasses. ``parameters(prefix)`` names each
    ``Tensor`` field ``prefix.field`` and walks each nested ``Params`` field
    under ``prefix.field``, in field order; other fields are not tensors."""

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for f in dataclasses.fields(self):
            value, name = getattr(self, f.name), f"{prefix}.{f.name}"
            if isinstance(value, Tensor):
                out[name] = value
            elif isinstance(value, Params):
                out.update(value.parameters(name))
        return out


class TapeNode:
    """One recorded primitive: inputs, output and its vector-Jacobian rule."""

    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 vjp: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
        self.vjp = vjp


class Tape:
    """Ordered record of primitive applications; use as a context manager.

    Nodes are appended in execution order, so every node's inputs precede
    it and a reverse sweep is a valid topological backward order.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._ref = weakref.ref(self)  # what recorded tensors hold instead of the tape

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        return False

    def backward(self, root: Tensor) -> None:
        """Accumulate d(root)/d(leaf) into ``.grad`` of every ``requires_grad`` leaf.

        ``root`` must be scalar-shaped (size 1). Repeated calls without
        zeroing the grads accumulate, each call adding one full gradient;
        the tape is only read, so it can be replayed.

        Only leaves get a ``.grad``; the adjoint of an intermediate (a tensor
        recorded on this tape) lives in a local map and is released as soon
        as the VJP of the node that produced it has consumed it. Each leaf
        contribution is added into ``.grad`` in place as it arrives. From
        zeroed grads, as ``train`` and ``grad_check`` start, that gives the
        bits of summing a leaf's contributions first and adding the sum to
        ``.grad``; on a replay without zeroing, only the rounding of the
        repeat differs.

        A VJP returns one entry per input: ``None``, an array, or a list of
        arrays that are added to that input's adjoint one at a time, in list
        order. A fused node uses the list to give the same sums, bit for
        bit, as the separate nodes it replaces.
        """
        if root.tape is not self:
            raise ValueError("root was not produced on this tape")
        if root.values.size != 1:
            raise ValueError(f"backward root must be scalar-shaped, got {root.shape}")
        adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(root.values)}
        for node in reversed(self.nodes):
            g_out = adjoint.pop(id(node.output), None)
            if g_out is None:
                continue
            for t, gs in zip(node.inputs, node.vjp(g_out)):
                if gs is None:
                    continue
                key = id(t)
                for g in gs if type(gs) is list else (gs,):
                    if t._tape is self._ref:
                        adjoint[key] = adjoint[key] + g if key in adjoint else g
                    elif t.requires_grad:
                        t.grad += g.reshape(t.values.shape)


def _tracked(t: Tensor, tape: Tape) -> bool:
    return t.requires_grad or t._tape is tape._ref


def _record(op: str, inputs: Sequence[Tensor], out_values: np.ndarray,
            vjp: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    out = Tensor(out_values)
    tape = _active_tape()
    if tape is not None and any(_tracked(t, tape) for t in inputs):
        out._tape = tape._ref
        tape.nodes.append(TapeNode(op, inputs, out, vjp))
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values + b.values

    def vjp(g):
        return _sum_to_shape(g, a.values.shape), _sum_to_shape(g, b.values.shape)

    return _record("add", (a, b), out, vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values - b.values

    def vjp(g):
        return _sum_to_shape(g, a.values.shape), _sum_to_shape(-g, b.values.shape)

    return _record("sub", (a, b), out, vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values * b.values
    av, bv = a.values, b.values

    def vjp(g):
        return _sum_to_shape(g * bv, av.shape), _sum_to_shape(g * av, bv.shape)

    return _record("elementwise-mul", (a, b), out, vjp)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims differ: {a.shape} @ {b.shape}")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a, b)
    out = np.matmul(a.values, b.values)
    av, bv = a.values, b.values

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(bv, -1, -2))
        gb = np.matmul(np.swapaxes(av, -1, -2), g)
        return _sum_to_shape(ga, av.shape), _sum_to_shape(gb, bv.shape)

    return _record("matmul", (a, b), out, vjp)


def affine(a, w, b) -> Tensor:
    """Dense layer ``a @ w + b`` as one node.

    The value and every gradient equal ``add(matmul(a, w), b)`` bit for bit.
    The tape keeps ``a``, ``w``, ``b`` and the output, not the product.
    """
    # Inputs in the order the composition's backward reached them.
    ins = tuple(as_tensor(t) for t in (b, a, w))
    b, a, w = ins
    _check_matmul(a, w)
    av, wv, bv = a.values, w.values, b.values
    out = np.matmul(av, wv) + bv

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(wv, -1, -2))
        gw = np.matmul(np.swapaxes(av, -1, -2), g)
        return (_sum_to_shape(g, bv.shape), _sum_to_shape(ga, av.shape),
                _sum_to_shape(gw, wv.shape))

    return _record("affine", ins, out, vjp)


def _relu_rule(v: np.ndarray):
    mask = v > 0.0
    return np.maximum(v, 0.0), lambda g: g * mask


def _leaky_relu_rule(v: np.ndarray, slope: float = 0.01):
    factor = np.where(v > 0.0, 1.0, slope)
    return np.where(v > 0.0, v, slope * v), lambda g: g * factor


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: ``exp`` only meets
    ``-|v|`` and ``min(v, 0)``.

    ``exp(min(v, 0)) / (1 + exp(-|v|))`` is ``1 / (1 + e)`` where
    ``v >= 0`` and ``e / (1 + e)`` elsewhere, ``e = exp(-|v|)``: each
    branch of the textbook masked form, so the bits match it on every
    finite input, with no mask and no third pass to select.
    """
    d = np.exp(-np.abs(v))
    d += 1.0
    out = np.exp(np.minimum(v, 0.0))
    out /= d
    return out


def _sigmoid_rule(v: np.ndarray):
    out = _sigmoid(v)
    return out, lambda g: g * out * (1.0 - out)


def _tanh_rule(v: np.ndarray):
    out = np.tanh(v)
    return out, lambda g: g * (1.0 - out * out)


# Each activation as one (value, VJP) rule: ``rule(v)`` returns the value and
# the map from its adjoint to the adjoint of ``v``. The primitives and the
# fused ``cond_embed`` node share these, so they agree bit for bit.
ACTIVATIONS = {
    "relu": _relu_rule,
    "identity": lambda v: (v, lambda g: g),
    "tanh": _tanh_rule,
    "sigmoid": _sigmoid_rule,
    "leaky-relu": _leaky_relu_rule,
}


def _unary(op: str, rule, x) -> Tensor:
    x = as_tensor(x)
    out, vjp = rule(x.values)
    return _record(op, (x,), out, lambda g: (vjp(g),))


def relu(x) -> Tensor:
    return _unary("relu", _relu_rule, x)


def leaky_relu(x, slope: float = 0.01) -> Tensor:
    return _unary("leaky-relu", lambda v: _leaky_relu_rule(v, slope), x)


def sigmoid(x) -> Tensor:
    return _unary("sigmoid", _sigmoid_rule, x)


def tanh(x) -> Tensor:
    return _unary("tanh", _tanh_rule, x)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    axis = _check_axis(axis, x.ndim)
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _record("softmax-over-axis", (x,), out, vjp)


def dropout(x, keep_prob: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout: eval is the identity, train scales survivors by 1/p."""
    x = as_tensor(x)
    check_keep_prob(keep_prob)
    if not train or keep_prob == 1.0:
        out = x.values.copy()

        def vjp_id(g):
            return (g,)

        return _record("dropout", (x,), out, vjp_id)
    mask = (rng.random(x.values.shape) < keep_prob) / keep_prob
    out = x.values * mask

    def vjp(g):
        return (g * mask,)

    return _record("dropout", (x,), out, vjp)


def check_keep_prob(keep_prob: float) -> None:
    if not 0.0 < keep_prob <= 1.0:  # also false for nan
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")


def mean(x, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is not None:
        axis = _check_axis(axis, x.ndim)
    out = x.values.mean(axis=axis, keepdims=keepdims)
    shape = x.values.shape
    count = x.values.size if axis is None else shape[axis]

    def vjp(g):
        return (_spread(g, shape, axis, keepdims) / count,)

    return _record("mean-over-axis", (x,), out, vjp)


def reduce_sum(x, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is not None:
        axis = _check_axis(axis, x.ndim)
    out = x.values.sum(axis=axis, keepdims=keepdims)
    shape = x.values.shape

    def vjp(g):
        return (_spread(g, shape, axis, keepdims),)

    return _record("sum-over-axis", (x,), out, vjp)


def _spread(g: np.ndarray, shape: tuple, axis: Optional[int], keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def concat(tensors: Sequence, axis: int) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    axis = _check_axis(axis, ts[0].ndim)
    out = np.concatenate([t.values for t in ts], axis=axis)
    sizes = [t.values.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record("concat-over-axis", tuple(ts), out, vjp)


def broadcast_to(x, shape) -> Tensor:
    x = as_tensor(x)
    out = np.broadcast_to(x.values, tuple(shape)).copy()
    src = x.values.shape

    def vjp(g):
        return (_sum_to_shape(g, src),)

    return _record("broadcast", (x,), out, vjp)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.values.reshape(tuple(shape))
    src = x.values.shape

    def vjp(g):
        return (g.reshape(src),)

    return _record("reshape", (x,), out, vjp)


def transpose(x, axes=None) -> Tensor:
    """Axis permutation; default swaps the last two axes.

    Not in the minimal kind list but required to form E·Eᵀ style products.
    """
    x = as_tensor(x)
    if axes is None:
        axes = list(range(x.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
    axes = tuple(axes)
    out = np.transpose(x.values, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _record("transpose", (x,), out, vjp)


def take_slice(x, index) -> Tensor:
    """Basic (non-fancy) indexing into a tensor."""
    x = as_tensor(x)
    out = x.values[index]
    if not isinstance(out, np.ndarray):
        out = np.asarray(out)
    shape = x.values.shape

    def vjp(g):
        full = np.zeros(shape)
        full[index] = g
        return (full,)

    return _record("slice", (x,), out, vjp)


def _check_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ValueError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


# Uniform dispatch surface keyed by primitive kind name.
_PRIMITIVES = {
    "matmul": matmul, "add": add, "sub": sub, "elementwise-mul": mul,
    "relu": relu, "leaky-relu": leaky_relu, "sigmoid": sigmoid, "tanh": tanh,
    "softmax-over-axis": softmax, "dropout": dropout, "mean-over-axis": mean,
    "sum-over-axis": reduce_sum, "concat-over-axis": concat, "broadcast": broadcast_to,
    "reshape": reshape, "slice": take_slice, "transpose": transpose,
}


def apply_primitive(kind: str, inputs: Sequence, **attrs) -> Tensor:
    """Apply a primitive by kind name; records on the active tape as usual.

    The inputs are the primitive's positional arguments, except that
    ``concat`` takes them as its one list, and ``attrs`` its keyword
    arguments, so an attribute it does not take is a ``TypeError``.
    """
    try:
        fn = _PRIMITIVES[kind]
    except KeyError:
        raise ValueError(f"unknown primitive kind: {kind!r}") from None
    ins = [as_tensor(t) for t in inputs]
    return fn(ins, **attrs) if fn is concat else fn(*ins, **attrs)


def absolute(x) -> Tensor:
    """|x| composed from relu pairs; subgradient 0 at the kink."""
    return add(relu(x), relu(mul(x, -1.0)))


_NEG_ZERO_BITS = np.float64(-0.0).view(np.int64)


def _sorted_sum(terms: list) -> np.ndarray:
    """Element-wise sum of same-shaped arrays, added in ascending-value order.

    Equal to sorting the terms with ``np.sort`` along a new axis and
    folding left to right, bit for bit, so the result depends on the
    multiset of values alone, never on their order. ``terms`` is sorted in
    place by an insertion network of min/max compare-exchanges, reusing
    one scratch buffer, and folded into ``terms[0]``.

    A compare-exchange of -0 and +0 may return the same zero twice, so the
    network can flip the sign of a zero. That changes the sum only where
    every term is zero, and there the fold is -0 exactly when every term is
    -0; that mask is taken before sorting and restored after.
    """
    all_neg_zero = terms[0].view(np.int64) == _NEG_ZERO_BITS
    for t in terms[1:]:
        all_neg_zero &= t.view(np.int64) == _NEG_ZERO_BITS
    spare = None
    for i in range(1, len(terms)):
        for j in range(i, 0, -1):
            lo, hi = terms[j - 1], terms[j]
            spare = np.minimum(lo, hi, out=spare)
            np.maximum(lo, hi, out=hi)
            terms[j - 1], spare = spare, lo
    out = terms[0]
    for t in terms[1:]:
        out += t
    out += 0.0
    out[all_neg_zero] = -0.0
    return out


BLOCK = 2 ** 14  # elements of the (rows, T, H) block a fused node handles at once


def _row_chunks(rows: int, row_size: int) -> list[slice]:
    """Consecutive slices of ``rows`` rows of ``row_size`` elements, each
    spanning at most ``BLOCK`` elements (at least one row, at least one slice)."""
    step = max(1, BLOCK // row_size)
    return [slice(lo, lo + step) for lo in range(0, max(rows, 1), step)]


def _by_chunks(fn, chunks: list[slice], shape: tuple) -> np.ndarray:
    """``fn(c)`` of every chunk ``c``, gathered into one array of ``shape``.

    One chunk's result is returned as it is, so a node that fits in one
    chunk allocates no more than the composition it replaces.
    """
    if len(chunks) == 1:
        return fn(chunks[0])
    out = np.empty(shape)
    for c in chunks:
        out[c] = fn(c)
    return out


class _RowSum:
    """``_sum_to_shape`` over leading axes, of an array given in row blocks.

    numpy sums the leading axes of a C-contiguous array as a left fold over
    its rows, starting from +0, so each block continues the fold with the
    running sum as its row 0. Where a row is a single element numpy sums
    pairwise instead, so those blocks are kept and summed once at the end.
    Without leading axes (``leading`` false) nothing is summed, and the one
    row is returned as it is, -0 included.
    """

    def __init__(self, leading: bool):
        self.leading = leading
        self.acc = None
        self.singles = []

    def add(self, rows: np.ndarray) -> None:
        if not self.leading:
            self.acc = rows[0]
        elif math.prod(rows.shape[1:]) == 1:
            self.singles.append(rows)
        elif self.acc is None:
            self.acc = rows.sum(axis=0)
        else:
            self.acc = np.concatenate([self.acc[None], rows]).sum(axis=0)

    def total(self) -> np.ndarray:
        return np.concatenate(self.singles).sum(axis=0) if self.singles else self.acc


def cond_embed(x, e, w_x, w_e, b, activation: str = "relu", keep_prob: float = 1.0,
               rng: Optional[np.random.Generator] = None) -> Tensor:
    """Conditional embedding ``Dropout(Act(x @ w_x + e @ w_e + b))`` as one node.

    ``x`` (..., T, F) and ``e`` (..., T, F_exo) share their leading shape;
    ``activation`` names an ``ACTIVATIONS`` rule. With an ``rng``, inverted
    dropout draws a ``bool`` keep-mask of the whole output shape at once, as
    ``dropout`` does, and scales survivors by ``1 / keep_prob``.

    The value and every gradient equal the matmul/add/activation/dropout
    composition bit for bit. The tape keeps the inputs and the keep-mask;
    the backward recomputes the pre-activation. Both passes walk the
    flattened leading rows in ``BLOCK``-sized chunks: each op is row-local
    except the weight and bias grads, whose leading-axis sums ``_RowSum``
    folds across chunks in the composition's order.
    """
    # Inputs in the order the composition's backward reached them.
    ins = tuple(as_tensor(t) for t in (b, e, w_e, x, w_x))
    b, e, w_e, x, w_x = ins
    xv, ev = x.values, e.values
    if xv.shape[:-1] != ev.shape[:-1]:
        raise ValueError(f"endogenous shape {xv.shape} and exogenous shape {ev.shape} "
                         "differ before the feature axis")
    rule = ACTIVATIONS[activation]
    lead, steps, width = xv.shape[:-2], xv.shape[-2], w_x.values.shape[-1]
    rows = math.prod(lead)
    xr = xv.reshape((rows, steps, xv.shape[-1]))
    er = ev.reshape((rows, steps, ev.shape[-1]))
    keep = None
    if rng is not None:
        check_keep_prob(keep_prob)
        keep = (rng.random(lead + (steps, width)) < keep_prob).reshape(rows, steps, width)
    chunks = _row_chunks(rows, steps * width)

    def act(c):
        pre = np.matmul(xr[c], w_x.values)
        pre += np.matmul(er[c], w_e.values)
        pre += b.values
        return rule(pre)

    def forward(c):
        a, _ = act(c)
        return a if keep is None else a * (keep[c] / keep_prob)

    out = _by_chunks(forward, chunks, (rows, steps, width)).reshape(lead + (steps, width))
    tape = _active_tape()
    need_e = tape is not None and _tracked(e, tape)
    need_x = tape is not None and _tracked(x, tape)

    def vjp(G):
        # The VJPs of dropout, the activation, the two adds and the two
        # matmuls, per chunk, as the composition's backward ran them.
        G = G.reshape((rows, steps, width))
        db, dw_e, dw_x = _RowSum(True), _RowSum(bool(lead)), _RowSum(bool(lead))
        de = np.empty(er.shape) if need_e else None
        dx = np.empty(xr.shape) if need_x else None
        w_et, w_xt = (np.swapaxes(w.values, -1, -2) for w in (w_e, w_x))
        for c in chunks:
            g = G[c] if keep is None else G[c] * (keep[c] / keep_prob)
            g = act(c)[1](g)
            db.add(g.reshape(-1, width))
            if need_e:
                de[c] = np.matmul(g, w_et)
            dw_e.add(np.matmul(np.swapaxes(er[c], -1, -2), g))
            if need_x:
                dx[c] = np.matmul(g, w_xt)
            dw_x.add(np.matmul(np.swapaxes(xr[c], -1, -2), g))
        return (db.total(), None if de is None else de.reshape(ev.shape), dw_e.total(),
                None if dx is None else dx.reshape(xv.shape), dw_x.total())

    return _record("cond-embed", ins, out, vjp)


def moe_combine(x_tau, g, experts: Sequence) -> Tensor:
    """Gated expert mixture ``sum_k g[..., k:k+1] * (x_tau @ W_k)`` as one node.

    The K terms are summed order-canonically (see ``_sorted_sum``), so
    relabeling the experts together with their gate columns cannot change
    the output bits. The tape keeps only the inputs and the output: the
    backward recomputes each projection ``x_tau @ W_k``. Both passes walk
    the flattened leading rows in ``BLOCK``-sized chunks, folding the expert
    grads across chunks with ``_RowSum``.
    """
    x_tau, g = as_tensor(x_tau), as_tensor(g)
    ws = [as_tensor(w) for w in experts]
    xv, gv = x_tau.values, g.values
    if gv.shape[-1] != len(ws) or gv.shape[:-1] != xv.shape[:-1]:
        raise ValueError(f"gate shape {gv.shape} does not fit input {xv.shape} "
                         f"and {len(ws)} experts")
    lead, steps = xv.shape[:-2], xv.shape[-2]
    rows = math.prod(lead)
    xr = xv.reshape((rows,) + xv.shape[-2:])
    gr = gv.reshape((rows, steps, len(ws)))
    chunks = _row_chunks(rows, steps * xv.shape[-1])

    def forward(c):
        terms = []
        for k, w in enumerate(ws):
            t = np.matmul(xr[c], w.values)
            t *= gr[c, :, k:k + 1]
            terms.append(t)
        return terms[0] + 0.0 if len(terms) == 1 else _sorted_sum(terms)

    out = _by_chunks(forward, chunks, (rows, steps, ws[0].values.shape[-1]))
    out = out.reshape(lead + out.shape[1:])

    def vjp(G):
        # The VJPs of the per-expert slice -> matmul -> mul composition this
        # node replaces, in the order its backward ran them, so every
        # gradient keeps its bits.
        G = G.reshape((rows, steps, -1))
        dx, dg = np.empty(xr.shape), np.empty(gr.shape)
        sums = [_RowSum(bool(lead)) for _ in ws]
        for c in chunks:
            xc, xt, Gc = xr[c], np.swapaxes(xr[c], -1, -2), G[c]
            for k in reversed(range(len(ws))):
                wv = ws[k].values
                gy = np.matmul(xc, wv)
                gy *= Gc
                dg[c, :, k:k + 1] = _sum_to_shape(gy, gy.shape[:-1] + (1,))
                gp = Gc * gr[c, :, k:k + 1]
                ga = np.matmul(gp, np.swapaxes(wv, -1, -2))
                if k == len(ws) - 1:
                    dx[c] = ga
                else:
                    dx[c] += ga
                sums[k].add(np.matmul(xt, gp))
        if len(ws) > 1:
            dg += 0.0  # as the composition's sum of zero-padded slice adjoints: -0 -> +0
        return (dx.reshape(xv.shape), dg.reshape(gv.shape),
                *(s.total() for s in reversed(sums)))

    # Experts enter last to first, as the backward visits them, so a tensor
    # passed as several experts sums its grads in the composition's order.
    return _record("moe-combine", (x_tau, g, *ws[::-1]), out, vjp)


def gru_gcn_sequence(x, adj, w_s, w_z, b_z, w_r, b_r, w_c, b_c) -> Tensor:
    """Graph-convolutional GRU over ``x`` (..., N, T, F), as one node returning h_T.

    From ``h = 0``, each step t computes ``s = A x_t W_s``, gates
    ``z, r = sigmoid([s, h] W_z + b_z), sigmoid([s, h] W_r + b_r)``, the
    candidate ``c = tanh([s, r * h] W_c + b_c)`` and
    ``h <- (1 - z) * h + z * c``. z and r come from one product with
    ``[W_z | W_r]``, which gives the two products' bits; ``[s, h]`` is never
    split into two products, which would change them.

    Unrecorded, the loop keeps only the running state. Recorded, it keeps
    h, z, r and c of each step; the backward rebuilds ``A x_t`` and ``s``
    with the forward's own calls, so they have the forward's bits, and
    recomputes ``[s, h]`` and ``[s, r * h]``. It replays the VJPs of the
    per-step composition of primitives in their order, from step T-1 down
    to 0, and hands the tape one contribution per step for ``adj`` and each
    weight, so every sum keeps its bits.
    """
    ins = tuple(as_tensor(t) for t in (x, adj, w_s, w_z, b_z, w_r, b_r, w_c, b_c))
    x, adj, w_s, w_z, b_z, w_r, b_r, w_c, b_c = ins
    xv, av, wsv = x.values, adj.values, w_s.values
    steps, width, hid = xv.shape[-2], wsv.shape[-1], w_z.values.shape[-1]
    flat = xv.shape[:-2] + (steps * xv.shape[-1],)

    def spatial(t):
        """``A x_t`` and ``s = (A x_t) W_s``."""
        ax_t = np.matmul(av, xv[..., t, :])
        return ax_t, np.matmul(ax_t, wsv)

    w_zr = np.concatenate([w_z.values, w_r.values], axis=-1)
    b_zr = np.concatenate([b_z.values, b_r.values])
    wzr_shape, bzr_shape = w_zr.shape, b_zr.shape  # all the VJP needs of them
    tape = _active_tape()
    recording = tape is not None and any(_tracked(t, tape) for t in ins)
    h = np.zeros(xv.shape[:-2] + (hid,))
    hs, zrs, cs = [], [], []
    for t in range(steps):
        s_t = spatial(t)[1]
        zr = _sigmoid(np.matmul(np.concatenate([s_t, h], axis=-1), w_zr) + b_zr)
        z, r = zr[..., :hid], zr[..., hid:]
        c = np.tanh(np.matmul(np.concatenate([s_t, r * h], axis=-1), w_c.values)
                    + b_c.values)
        if recording:
            hs.append(h)
            zrs.append(zr)
            cs.append(c)
        h = (1.0 - z) * h + z * c
    if not recording:
        return Tensor(h)
    need_x, need_adj = _tracked(x, tape), _tracked(adj, tape)

    def vjp(g_h):
        wzt, wrt, wct, wst = (np.swapaxes(w.values, -1, -2)
                              for w in (w_z, w_r, w_c, w_s))
        ds = np.empty(xv.shape[:-1] + (width,))
        d_ws, d_wz, d_bz, d_wr, d_br, d_wc, d_bc = ([] for _ in range(7))
        dh = g_h
        for t in reversed(range(steps)):
            h, zr, c = hs[t], zrs[t], cs[t]
            ax_t, s_t = spatial(t)
            z, r = zr[..., :hid], zr[..., hid:]
            # h' = (1 - z) * h + z * c
            d_zr = np.empty(zr.shape)
            dz = np.multiply(dh, c, out=d_zr[..., :hid])
            dz += -(dh * h)
            dc = dh * z
            dh_prev = dh * (1.0 - z)
            # c = tanh([s, r * h] W_c + b_c)
            dc = dc * (1.0 - c * c)
            d_bc.append(_sum_to_shape(dc, b_c.values.shape))
            d_cat_r = np.matmul(dc, wct)
            cat_r = np.concatenate([s_t, r * h], axis=-1)
            d_wc.append(_sum_to_shape(np.matmul(np.swapaxes(cat_r, -1, -2), dc),
                                      w_c.values.shape))
            d_rh = d_cat_r[..., width:]
            np.multiply(d_rh, h, out=d_zr[..., hid:])
            dh_prev = dh_prev + d_rh * r
            # [z | r] = sigmoid([s, h] [W_z | W_r] + [b_z | b_r])
            d_zr = d_zr * zr * (1.0 - zr)
            d_b = _sum_to_shape(d_zr, bzr_shape)
            d_bz.append(d_b[:hid])
            d_br.append(d_b[hid:])
            cat = np.concatenate([s_t, h], axis=-1)
            d_w = _sum_to_shape(np.matmul(np.swapaxes(cat, -1, -2), d_zr), wzr_shape)
            d_wz.append(d_w[..., :hid])
            d_wr.append(d_w[..., hid:])
            d_cat = np.matmul(d_zr[..., hid:], wrt)
            d_cat = d_cat + np.matmul(d_zr[..., :hid], wzt)
            ds[..., t, :] = d_cat_r[..., :width] + d_cat[..., :width]
            dh = dh_prev + d_cat[..., width:]
            # s_t = (A x_t) W_s
            d_ws.append(_sum_to_shape(np.matmul(np.swapaxes(ax_t, -1, -2), ds[..., t, :]),
                                      wsv.shape))
        dx = d_adj = None
        if need_x or need_adj:
            dax = np.matmul(ds.reshape(-1, width), wst).reshape(xv.shape)
        if need_adj:
            d_adj = [_sum_to_shape(np.matmul(dax[..., t, :],
                                             np.swapaxes(xv[..., t, :], -1, -2)),
                                   av.shape)
                     for t in reversed(range(steps))]
        if need_x:
            dx = np.matmul(np.swapaxes(av, -1, -2), dax.reshape(flat)).reshape(xv.shape)
        return dx, d_adj, d_ws, d_wz, d_bz, d_wr, d_br, d_wc, d_bc

    return _record("gru-gcn-sequence", ins, h, vjp)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(fn: Callable[[], Tensor], wrt, step: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    ``fn`` takes no arguments and must recompute its scalar output from the
    current values of the ``wrt`` tensors (a Tensor or a sequence of them).
    Returns max over coordinates of |analytic - fd| / max(1, |fd|).
    """
    tensors = [wrt] if isinstance(wrt, Tensor) else list(wrt)
    saved = [(t.requires_grad, t.grad) for t in tensors]
    for t in tensors:
        t.requires_grad = True
        t.grad = np.zeros_like(t.values)
    with Tape() as tape:
        out = fn()
        if out.values.size != 1:
            raise ValueError("grad_check requires a scalar-valued function")
    if out.tape is tape:
        tape.backward(out)
    analytic = [t.grad.copy() for t in tensors]

    worst = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(fn().values)
            flat[i] = orig - step
            f_minus = float(fn().values)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError("non-finite function value during differencing")
            fd = (f_plus - f_minus) / (2.0 * step)
            err = abs(a.reshape(-1)[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    for t, (req, g) in zip(tensors, saved):
        t.requires_grad = req
        t.grad = g
    return worst
