"""Tests for the reverse-mode tape engine."""

import gc
import importlib.util
import math
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exoforecast import autodiff as ad
from exoforecast import training
from exoforecast.autodiff import Tape, Tensor, apply_primitive, grad_check
from exoforecast.data import SynthConfig, prepare_splits, synth_generate
from exoforecast.model import ExoModel, ModelConfig
from helpers import retained_bytes, traced_peak


def test_softmax_of_zeros_is_uniform():
    out = ad.softmax(Tensor([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.values, [0.5, 0.5])


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(np.zeros((1,)))).values[0] == 0.5


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.values, a.values)


def test_square_gradient():
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_sum(x * x)
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_softmax_row_sum_has_zero_gradient():
    # sum(softmax(Wx)) is constant 1 per row, so dW must vanish.
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 1)))
    with Tape() as tape:
        y = ad.reduce_sum(ad.softmax(ad.matmul(w, x), axis=0))
    tape.backward(y)
    np.testing.assert_allclose(w.grad, np.zeros((3, 4)), atol=1e-12)


def test_sum_gradient_is_ones():
    x = Tensor(np.random.default_rng(1).normal(size=(4, 3)), requires_grad=True)
    err = grad_check(lambda: ad.reduce_sum(x), x)
    assert err < 1e-9


def test_relu_gradcheck_away_from_kink():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(5, 2))
    vals[np.abs(vals) < 0.1] += 0.5
    x = Tensor(vals)
    err = grad_check(lambda: ad.reduce_sum(ad.relu(x)), x)
    assert err < 1e-6


def test_three_layer_composite_matches_finite_differences():
    rng = np.random.default_rng(3)
    w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w3 = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 4)))

    def f():
        h1 = ad.tanh(ad.matmul(x, w1))
        h2 = ad.sigmoid(ad.matmul(h1, w2))
        return ad.reduce_sum(ad.matmul(h2, w3))

    assert grad_check(f, [w1, w2, w3], step=1e-5) < 1e-4


def _random_inputs(kind, rng):
    if kind == "matmul":
        return [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 3)))]
    if kind in ("add", "sub", "elementwise-mul"):
        return [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4,)))]
    if kind in ("relu", "leaky-relu"):
        vals = rng.normal(size=(3, 4))
        vals[np.abs(vals) < 0.05] += 0.3  # stay away from the kink
        return [Tensor(vals)]
    return [Tensor(rng.normal(size=(3, 4)))]


PRIMITIVE_CASES = [
    ("matmul", {}),
    ("add", {}),
    ("sub", {}),
    ("elementwise-mul", {}),
    ("relu", {}),
    ("leaky-relu", {"slope": 0.2}),
    ("sigmoid", {}),
    ("tanh", {}),
    ("softmax-over-axis", {"axis": 1}),
    ("mean-over-axis", {"axis": 0}),
    ("mean-over-axis", {"axis": None}),
    ("sum-over-axis", {"axis": 1, "keepdims": True}),
    ("broadcast", {"shape": (2, 3, 4)}),
    ("reshape", {"shape": (4, 3)}),
    ("slice", {"index": (slice(1, 3), slice(None, 2))}),
    ("transpose", {}),
]


@pytest.mark.parametrize("kind,attrs", PRIMITIVE_CASES)
@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_match_finite_differences(kind, attrs, seed):
    rng = np.random.default_rng(seed)
    inputs = _random_inputs(kind, rng)

    def f():
        return ad.reduce_sum(apply_primitive(kind, inputs, **attrs))

    assert grad_check(f, inputs, step=1e-5) < 1e-4


@pytest.mark.parametrize("seed", range(20))
def test_concat_gradient(seed):
    rng = np.random.default_rng(seed)
    parts = [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 2)))]

    def f():
        c = apply_primitive("concat-over-axis", parts, axis=1)
        return ad.reduce_sum(c * c)

    assert grad_check(f, parts, step=1e-5) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_dropout_train_gradient(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(4, 4)))
    masks = np.random.default_rng(seed + 100)

    # replay the same mask for every evaluation
    def f():
        return ad.reduce_sum(ad.dropout(x, 0.7, np.random.default_rng(seed + 1), train=True))

    del masks
    assert grad_check(f, x, step=1e-5) < 1e-4


def test_softmax_simplex():
    rng = np.random.default_rng(7)
    out = ad.softmax(Tensor(rng.normal(size=(5, 6)) * 10), axis=1)
    assert (out.values >= 0).all()
    np.testing.assert_allclose(out.values.sum(axis=1), np.ones(5), atol=1e-9)


def test_dropout_eval_is_identity():
    x = Tensor(np.random.default_rng(8).normal(size=(10, 10)))
    out = ad.dropout(x, 0.5, np.random.default_rng(0), train=False)
    np.testing.assert_array_equal(out.values, x.values)


def test_dropout_train_scales_survivors():
    x = Tensor(np.ones((100, 100)))
    out = ad.dropout(x, 0.8, np.random.default_rng(9), train=True)
    nonzero = out.values[out.values != 0.0]
    np.testing.assert_allclose(nonzero, 1.0 / 0.8)
    # unbiased in expectation
    assert abs(out.values.mean() - 1.0) < 0.02


def test_backward_accumulates_on_repeat():
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_sum(x * x)
    tape.backward(y)
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [[8.0]])


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 3)))
        with Tape() as tape:
            y = ad.reduce_sum(ad.tanh(ad.matmul(x, w)))
        tape.backward(y)
        return w.grad

    np.testing.assert_array_equal(run(), run())


def test_backward_rejects_non_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_backward_from_an_adjoint_equals_the_larger_tapes_sweep():
    """Sweeping a tape from ``y`` with ``y``'s adjoint gives the grads a
    tape that also records the rest of the loss gives, bit for bit."""
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x, c = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
    with Tape() as tape:
        y = ad.tanh(ad.matmul(Tensor(x), w))
        loss = ad.reduce_sum(ad.mul(y, Tensor(c)))
    tape.backward(loss)
    whole = w.grad.copy()
    w.zero_grad()
    with Tape() as tape:
        y = ad.tanh(ad.matmul(Tensor(x), w))
    tape.backward(y, c.copy())
    assert w.grad.tobytes() == whole.tobytes()
    with pytest.raises(ValueError, match=r"^adjoint shape \(4,\) differs from root's \(5, 4\)$"):
        tape.backward(y, np.ones(4))


def test_remote_value_hands_its_adjoint_on_once():
    """A ``remote`` node passes its output's adjoint to its sender and adds
    nothing to any leaf itself; its tape refuses a second sweep before it
    touches a grad."""
    w = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    sent = []
    with Tape() as tape:
        r = ad.remote(np.array([3.0, 4.0]), sent.append)
        loss = ad.reduce_sum(ad.mul(ad.mul(r, r), w))
    assert r.tape is tape and not tape.replayable
    tape.backward(loss)
    (g,) = sent
    np.testing.assert_array_equal(g, [6.0 * 1.5, 8.0 * -2.0])
    np.testing.assert_array_equal(w.grad, [9.0, 16.0])
    with pytest.raises(RuntimeError, match="cannot be replayed"):
        tape.backward(loss)
    assert len(sent) == 1
    np.testing.assert_array_equal(w.grad, [9.0, 16.0])
    assert ad.remote(np.ones(2), sent.append).tape is None  # no active tape


def test_backward_rejects_foreign_root():
    x = Tensor(np.ones((1,)), requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_sum(x)
    other = Tape()
    with pytest.raises(ValueError, match="tape"):
        other.backward(y)


def test_axis_out_of_range():
    with pytest.raises(ValueError, match="axis"):
        ad.softmax(Tensor(np.ones((2, 2))), axis=5)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


@pytest.mark.parametrize("kind, n_inputs, attrs", [
    ("matmul", 2, {"axis": 1}),
    ("relu", 1, {"slope": 0.1}),
    ("softmax-over-axis", 1, {"axes": 0}),
    ("concat-over-axis", 2, {"axis": 0, "shape": (4, 2)}),
])
def test_apply_primitive_rejects_an_attribute_its_primitive_does_not_take(
        kind, n_inputs, attrs):
    inputs = [Tensor(np.ones((2, 2))) for _ in range(n_inputs)]
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        apply_primitive(kind, inputs, **attrs)


def test_unknown_primitive_kind():
    with pytest.raises(ValueError, match="unknown primitive"):
        apply_primitive("conv2d", [Tensor(np.ones(3))])


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(RuntimeError, match="already active"):
            with Tape():
                pass


def test_untracked_inputs_record_nothing():
    with Tape() as tape:
        ad.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
    assert tape.nodes == []


def test_absolute_composition():
    x = Tensor(np.array([-2.0, 0.0, 3.0]))
    np.testing.assert_array_equal(ad.absolute(x).values, [2.0, 0.0, 3.0])
    y = Tensor(np.array([-2.0, 3.0]))
    assert grad_check(lambda: ad.reduce_sum(ad.absolute(y)), y) < 1e-9


def test_grads_finite_after_backward_on_extreme_inputs():
    x = Tensor(np.array([[1e3, -1e3, 0.0]]), requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_sum(ad.softmax(ad.sigmoid(x) * 50.0, axis=1))
    tape.backward(y)
    assert np.isfinite(x.grad).all()


# ---------------------------------------------------------------------------
# Memory contract: tapes die by refcount, grads live on leaves only
# ---------------------------------------------------------------------------

@pytest.fixture
def no_gc():
    """Run with the cycle collector off, so only reference counting frees."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def test_finished_tape_freed_by_refcount(no_gc):
    w = Tensor(np.full((2, 2), 0.5), requires_grad=True)
    with Tape() as tape:
        root = ad.reduce_sum(ad.tanh(ad.matmul(w, w)))
    tape.backward(root)
    assert root.tape is tape
    tape_ref = weakref.ref(tape)
    del tape
    assert tape_ref() is None
    assert root.tape is None
    assert root.values.shape == ()


def test_grad_only_on_requires_grad_leaves():
    rng = np.random.default_rng(12)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)))
    with Tape() as tape:
        h = ad.tanh(ad.matmul(x, w))
        y = ad.reduce_sum(h)
    intermediates = (x, h, y)
    assert all(t.grad is None for t in intermediates)
    tape.backward(y)
    assert all(t.grad is None for t in intermediates)
    assert isinstance(w.grad, np.ndarray) and w.grad.shape == w.shape
    assert np.abs(w.grad).sum() > 0.0


def test_leaves_sharing_an_adjoint_get_distinct_grads():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.full(3, 2.0), requires_grad=True)
    with Tape() as tape:
        s = ad.reduce_sum(x + y)  # add's VJP hands the same array to both
    tape.backward(s)
    assert x.grad is not y.grad
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, np.zeros(3))
    np.testing.assert_array_equal(y.grad, np.ones(3))


def _train_tiny_grugcn(steps: int = 3) -> None:
    panel = synth_generate(SynthConfig(nodes=2, steps=120, lag=3, seed=0))
    prepared = prepare_splits(panel, t_past=6, t_future=4)
    model = ExoModel(ModelConfig(
        n_nodes=2, past_exo_dim=len(prepared.layout.past),
        future_exo_dim=len(prepared.layout.future), t_past=6, t_future=4,
        hidden=4, experts=2, backbone="grugcn", graph_k=1, seed=1),
        target_series=prepared.train_target_series)
    config = training.TrainConfig(epochs=1, batch_size=2, seed=0)
    training.train(model, prepared.train[:2 * steps], prepared.val,
                   prepared.scaler, prepared.target_channel, config)


def test_training_keeps_at_most_one_earlier_tape(no_gc, monkeypatch):
    refs: list = []
    alive_at_enter: list[int] = []

    class CountingTape(Tape):
        def __enter__(self):
            alive_at_enter.append(sum(r() is not None for r in refs))
            refs.append(weakref.ref(self))
            return super().__enter__()

    monkeypatch.setattr(training, "Tape", CountingTape)
    _train_tiny_grugcn(steps=3)
    assert len(alive_at_enter) == 3
    assert max(alive_at_enter) <= 1
    assert all(r() is None for r in refs)


def test_benchmark_tracer_reads_the_tape(no_gc):
    """The benchmark's tracer counts ``Tape.nodes`` and ``TapeNode.output``
    bytes and the tapes alive at each step; a layout it cannot read fails here."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    assert tracer.hook_tape("exoforecast.autodiff.Tape")
    assert tracer.wrap("exoforecast.model.select_stage", "select", count_tape=True)
    try:
        _train_tiny_grugcn(steps=3)
    finally:
        tracer.uninstall()
    assert tracer.missing == {} and tracer.tape_error is None
    nodes, nbytes = tracer.tape_per_step("autodiff")
    assert nodes > tracer.tape_per_step("select")[0] > 0 and nbytes > 0
    assert tracer.tapes_alive_max <= 1


_TERM = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308]))


@st.composite
def _term_lists(draw):
    """1..6 same-shaped finite arrays, rich in ties and signed zeros."""
    k = draw(st.integers(1, 6))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=5))
    return [draw(hnp.arrays(np.float64, shape, elements=_TERM)) for _ in range(k)]


@settings(max_examples=300, deadline=None)
@given(_term_lists(), st.data())
def test_sorted_sum_is_np_sort_then_left_fold(terms, data):
    stacked = np.sort(np.stack(terms), axis=0)
    with np.errstate(over="ignore"):
        want = stacked[0]
        for row in stacked[1:]:
            want = want + row
        order = data.draw(st.permutations(range(len(terms))))
        for permuted in (terms, [terms[i] for i in order]):
            got = ad._sorted_sum([t.copy() for t in permuted])
            assert got.tobytes() == want.tobytes()


_ROW_TERM = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]))


@st.composite
def _row_blocks(draw):
    """An array of leading rows and kept axes, and where to cut its rows."""
    lead = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    kept = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=4))
    g = draw(hnp.arrays(np.float64, lead + kept, elements=_ROW_TERM))
    rows = math.prod(lead)
    cuts = sorted(draw(st.sets(st.integers(1, rows - 1)))) if rows > 1 else []
    return g, kept, cuts


@settings(max_examples=300, deadline=None)
@given(_row_blocks())
def test_row_sum_of_blocks_is_sum_to_shape(case):
    """Folding the leading rows block by block, at any cut points, gives the
    bits of one ``_sum_to_shape`` over the whole array, signed zeros and
    single-element rows (which numpy sums pairwise) included."""
    g, kept, cuts = case
    fold = ad._RowSum(leading=True)
    for block in np.split(g.reshape((-1,) + kept), cuts):
        fold.add(block)
    assert fold.total().tobytes() == ad._sum_to_shape(g, kept).tobytes()


def test_row_sum_without_leading_axes_keeps_the_row():
    row = np.array([[-0.0, 1.0]])
    fold = ad._RowSum(leading=False)
    fold.add(row[None])
    assert fold.total().tobytes() == ad._sum_to_shape(row, row.shape).tobytes()


@pytest.mark.parametrize("node", ["cond-embed", "moe-combine"])
def test_untaped_fused_node_holds_chunk_sized_transients(node):
    """Beyond its output, an untaped fused node allocates a few ``BLOCK``-sized
    chunks at a time: less than one more (rows, T, H) array (12 chunks here)."""
    rng = np.random.default_rng(0)
    rows, t, h, k = 256, 12, 64, 4
    if node == "moe-combine":
        ins = (Tensor(rng.normal(size=(rows, t, h))),
               Tensor(rng.dirichlet(np.ones(k), size=(rows, t))),
               [Tensor(rng.normal(size=(h, h))) for _ in range(k)])
        fn = ad.moe_combine
    else:
        ins = tuple(Tensor(rng.normal(size=s)) for s in
                    ((rows, t, 1), (rows, t, 3), (1, h), (3, h), (h,)))
        fn = partial(ad.cond_embed, activation="sigmoid")
    out, peak = traced_peak(lambda: fn(*ins))
    assert peak - out.values.nbytes < out.values.nbytes, peak


def _masked_sigmoid(v):
    """The sigmoid as it was first written: boolean-mask indexing per sign."""
    out = np.empty_like(v)
    pos = v >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ex = np.exp(v[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_TINY = 2.2250738585072014e-308  # the least normal float64
_LOGIT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(-40.0, 40.0),  # where both branches carry every bit
    st.floats(-_TINY, _TINY),  # subnormals and the two zeros
    st.floats(710.0, 1.7e308).flatmap(lambda f: st.sampled_from([f, -f])),  # exp(|v|) overflows
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 745.0, -745.0,
                     36.7, -36.7, 1e-300, -1e-300]))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                  elements=_LOGIT))
def test_sigmoid_equals_masked_form_bit_for_bit(v):
    with np.errstate(over="ignore"):
        want = _masked_sigmoid(v)
    kept = v.copy()
    assert ad._sigmoid(v).tobytes() == want.tobytes()
    assert v.tobytes() == kept.tobytes()  # computed in place, but never in its input
    assert ad.sigmoid(Tensor(v)).values.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, (4, 6), elements=_LOGIT), st.integers(0, 3))
def test_sigmoid_of_views_and_scalars_equals_masked_form(v, row):
    """Strided views and 0-d inputs give the masked form's bits too."""
    with np.errstate(over="ignore"):
        want = _masked_sigmoid(v)
    assert ad._sigmoid(v[:, ::2]).tobytes() == want[:, ::2].tobytes()
    assert ad._sigmoid(v.T).tobytes() == np.ascontiguousarray(want.T).tobytes()
    assert np.float64(ad._sigmoid(v[row, 0])).tobytes() == want[row, 0].tobytes()
    assert np.float64(ad._sigmoid(v[row, :1].reshape(()))).tobytes() == want[row, 0].tobytes()


def test_listed_contributions_match_separate_nodes():
    """A VJP that returns a list per input adds its entries one at a time,
    in list order, exactly as separate nodes returning one entry each do."""
    parts = [1.0, 1e16, -1e16]  # (a + 1) + 1e16 - 1e16 != a + (1 + 1e16 - 1e16)

    def run(listed: bool):
        w = Tensor(np.full(2, 0.5), requires_grad=True)
        v = Tensor(np.full(2, 0.25), requires_grad=True)
        with Tape() as tape:
            u = ad.mul(v, 1.0)  # an intermediate, so its adjoint is summed too
            if listed:
                outs = [ad._record("listed", (u, w), np.zeros(2), lambda g: (
                    [p * g for p in parts], [p * g for p in parts]))]
            else:  # recorded last to first, so the sweep meets parts in order
                outs = [ad._record("single", (u, w), np.zeros(2),
                                   lambda g, p=p: (p * g, p * g))
                        for p in reversed(parts)]
            # recorded after the parts, so both sums already hold a term
            total = ad.reduce_sum(ad.mul(u, w))
            for out in outs:
                total = ad.add(total, ad.reduce_sum(out))
        tape.backward(total)
        return w.grad, v.grad

    for got, want in zip(run(True), run(False)):
        assert got.tobytes() == want.tobytes()
    w_grad, v_grad = run(True)
    assert w_grad[0] == ((0.25 + 1.0) + 1e16) - 1e16 != 0.25 + 1.0
    assert v_grad[0] == ((0.5 + 1.0) + 1e16) - 1e16 != 0.5 + 1.0


def _composed_affine(a, w, b):
    return ad.add(ad.matmul(a, w), b)


_AFFINE_SHAPES = [  # (a, w, b); the leading dimensions of a and w broadcast
    ((5, 3), (3, 4), (4,)),
    ((2, 6, 5, 3), (3, 4), (4,)),
    ((2, 1, 5, 3), (6, 3, 4), (4,)),
    ((6, 5, 3), (3, 4), (1, 4)),
]


def _two_dense_layers(fn, shapes, seed):
    """Values and, from zeroed grads, the grads of a loss on two ``fn``
    layers that share ``w`` and ``b``; the first reads an intermediate."""
    rng = np.random.default_rng(seed)
    a1, a2, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                    for s in (shapes[0], shapes[0], *shapes[1:]))
    with Tape() as tape:
        y1 = fn(ad.mul(a1, 1.0), w, b)
        y2 = fn(a2, w, b)
        r = Tensor(rng.normal(size=y1.shape))
        loss = ad.add(ad.reduce_sum(ad.mul(y1, r)), ad.reduce_sum(ad.mul(y2, r)))
    tape.backward(loss)
    return [y1.values, y2.values, a1.grad, a2.grad, w.grad, b.grad]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shapes", _AFFINE_SHAPES)
def test_affine_matches_composition_bit_for_bit(shapes, seed):
    """Value and every grad, with ``w`` and ``b`` summed across two nodes."""
    got = _two_dense_layers(ad.affine, shapes, seed)
    want = _two_dense_layers(_composed_affine, shapes, seed)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("shapes", _AFFINE_SHAPES)
def test_affine_gradcheck(shapes):
    rng = np.random.default_rng(7)
    a, w, b = (Tensor(rng.normal(size=s)) for s in shapes)
    r = Tensor(rng.normal(size=ad.affine(a, w, b).shape))
    assert grad_check(lambda: ad.reduce_sum(ad.mul(ad.affine(a, w, b), r)), [a, w, b]) < 1e-4


def test_taped_affine_keeps_no_product():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(64, 32, 16)), requires_grad=True)
    w = Tensor(rng.normal(size=(16, 64)), requires_grad=True)
    b = Tensor(rng.normal(size=(64,)), requires_grad=True)

    def record(fn):
        tape = Tape()
        with tape:
            fn(a, w, b)
        return tape

    out = 64 * 32 * 64 * 8
    assert out <= retained_bytes(lambda: record(ad.affine)) < out + out // 8
    assert retained_bytes(lambda: record(_composed_affine)) >= 2 * out
