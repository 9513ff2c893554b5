"""Tests for the spatio-temporal encoder implementations."""

import math

import numpy as np
import pytest

from exoforecast import autodiff as ad
from exoforecast import backbones, training
from exoforecast import model as model_module
from exoforecast.autodiff import Tensor, grad_check
from exoforecast.backbones import (
    BackboneSpec,
    apply_readout,
    backbone_forward,
    grugcn_forward,
    init_backbone,
    init_grugcn,
    init_mlp_mixer,
    mlp_mixer_forward,
)
from exoforecast.data import SynthConfig, prepare_splits, synth_generate
from exoforecast.model import ExoModel, ModelConfig
from helpers import retained_bytes, sigmoid, traced_peak


def readout_oracle(feat, p, t_future, hidden):
    """Scalar-loop evaluation of the two-stage readout for one node vector."""
    lifted = [sum(feat[d] * p.w_seq.values[d, j] for d in range(len(feat)))
              + p.b_seq.values[j] for j in range(t_future * hidden)]
    y = np.zeros(t_future)
    for t in range(t_future):
        y[t] = sum(lifted[t * hidden + k] * p.w_out.values[k, 0]
                   for k in range(hidden)) + p.b_out.values[0]
    return y


def grugcn_oracle(x, adj, p, t_future, hidden):
    """Loop re-implementation of the recurrent graph encoder."""
    n, t_in, h = x.shape
    state = np.zeros((n, h))
    for t in range(t_in):
        s = np.zeros((n, h))
        for i in range(n):
            mixed = [sum(adj[i, m] * x[m, t, f] for m in range(n)) for f in range(h)]
            for j in range(h):
                s[i, j] = sum(mixed[f] * p.w_s.values[f, j] for f in range(h))
        new = np.zeros((n, h))
        for i in range(n):
            cat = list(s[i]) + list(state[i])
            z = [sigmoid(sum(cat[f] * p.w_z.values[f, j] for f in range(2 * h))
                         + p.b_z.values[j]) for j in range(h)]
            r = [sigmoid(sum(cat[f] * p.w_r.values[f, j] for f in range(2 * h))
                         + p.b_r.values[j]) for j in range(h)]
            cat_r = list(s[i]) + [r[j] * state[i, j] for j in range(h)]
            c = [math.tanh(sum(cat_r[f] * p.w_c.values[f, j] for f in range(2 * h))
                           + p.b_c.values[j]) for j in range(h)]
            new[i] = [(1 - z[j]) * state[i, j] + z[j] * c[j] for j in range(h)]
        state = new
    return np.stack([readout_oracle(state[i], p.readout, t_future, hidden)
                     for i in range(n)])[:, :, None]


def grugcn_step(h: Tensor, x_t: Tensor, adj: Tensor, params) -> Tensor:
    """One recurrent update as 19 primitives: the reference composition
    that ``autodiff.gru_gcn_sequence`` must match bit for bit.

    s_t = A x_t W_s, gates computed on [s_t, h], candidate with tanh,
    h_next = (1 - z) * h + z * candidate.
    """
    s = ad.matmul(ad.matmul(adj, x_t), params.w_s)
    cat = ad.concat([s, h], axis=-1)
    z = ad.sigmoid(ad.add(ad.matmul(cat, params.w_z), params.b_z))
    r = ad.sigmoid(ad.add(ad.matmul(cat, params.w_r), params.b_r))
    cat_r = ad.concat([s, ad.mul(r, h)], axis=-1)
    c = ad.tanh(ad.add(ad.matmul(cat_r, params.w_c), params.b_c))
    return ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, c))


def composed_grugcn_forward(x, adj, params):
    """``grugcn_forward`` with the recurrence run step by step."""
    h = Tensor(np.zeros(x.shape[:-2] + (x.shape[-1],)))
    for t in range(x.shape[-2]):
        h = grugcn_step(h, x[..., t, :], adj, params)
    return apply_readout(h, params.readout)


def mixer_oracle(x, p, t_future, hidden):
    n, t_in, h = x.shape
    out = []
    for i in range(n):
        flat = x[i].reshape(-1)
        h1 = [max(0.0, sum(flat[f] * p.w1.values[f, j] for f in range(flat.size))
                  + p.b1.values[j]) for j in range(p.w1.shape[1])]
        h2 = [max(0.0, sum(h1[f] * p.w2.values[f, j] for f in range(len(h1)))
                  + p.b2.values[j]) for j in range(p.w2.shape[1])]
        out.append(readout_oracle(np.array(h2), p.readout, t_future, hidden))
    return np.stack(out)[:, :, None]


class TestReadout:
    def test_zero_readout_gives_zero_output(self):
        rng = np.random.default_rng(0)
        for kind in ("grugcn", "mlp-mixer"):
            spec = BackboneSpec(kind, hidden=3, t_future=4, mix_hidden=5)
            params = init_backbone(spec, t_in=6, rng=rng)
            for t in params.readout.parameters("r").values():
                t.values[...] = 0.0
            x = Tensor(rng.normal(size=(2, 6, 3)))
            y, _ = backbone_forward(x, Tensor(np.eye(2)), params, spec)
            np.testing.assert_array_equal(y.values, np.zeros((2, 4, 1)))


class TestGruGcn:
    def test_zero_gate_weights_halve_the_state(self):
        rng = np.random.default_rng(1)
        spec = BackboneSpec("grugcn", hidden=3, t_future=2)
        p = init_grugcn(spec, rng)
        for t in (p.w_z, p.b_z, p.w_r, p.b_r):
            t.values[...] = 0.0
        h = Tensor(rng.normal(size=(2, 3)))
        x_t = Tensor(rng.normal(size=(2, 3)))
        adj = Tensor(np.eye(2))
        out = grugcn_step(h, x_t, adj, p)
        s = x_t.values @ p.w_s.values
        cat_r = np.concatenate([s, 0.5 * h.values], axis=-1)
        cand = np.tanh(cat_r @ p.w_c.values + p.b_c.values)
        np.testing.assert_allclose(out.values, 0.5 * h.values + 0.5 * cand,
                                   atol=1e-12)

    def test_identity_graph_is_node_equivariant(self):
        rng = np.random.default_rng(2)
        spec = BackboneSpec("grugcn", hidden=3, t_future=4)
        p = init_grugcn(spec, rng)
        x = rng.normal(size=(5, 6, 3))
        adj = Tensor(np.eye(5))
        y, _ = grugcn_forward(Tensor(x), adj, p)
        perm = [3, 0, 4, 1, 2]
        y_p, _ = grugcn_forward(Tensor(x[perm]), adj, p)
        np.testing.assert_allclose(y_p.values, y.values[perm], atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        spec = BackboneSpec("grugcn", hidden=2, t_future=2)
        p = init_grugcn(spec, rng)
        x = rng.normal(size=(2, 3, 2))
        adj = rng.normal(size=(2, 2))
        y, _ = grugcn_forward(Tensor(x), Tensor(adj), p)
        np.testing.assert_allclose(y.values, grugcn_oracle(x, adj, p, 2, 2),
                                   atol=1e-9)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        spec = BackboneSpec("grugcn", hidden=2, t_future=2)
        p = init_grugcn(spec, rng)
        x = Tensor(rng.normal(size=(2, 3, 2)))
        adj = Tensor(np.eye(2) * 0.7 + 0.3)
        wrt = list(p.parameters("bb").values())

        def f():
            y, _ = grugcn_forward(x, adj, p)
            return ad.reduce_sum(y)

        assert grad_check(f, wrt, step=1e-5) < 1e-4

    def test_missing_graph_rejected(self):
        rng = np.random.default_rng(4)
        spec = BackboneSpec("grugcn", hidden=2, t_future=2)
        p = init_grugcn(spec, rng)
        with pytest.raises(ValueError, match="requires a graph"):
            backbone_forward(Tensor(np.zeros((2, 3, 2))), None, p, spec)


class TestMlpMixer:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(30 + seed)
        spec = BackboneSpec("mlp-mixer", hidden=2, t_future=2, mix_hidden=3)
        p = init_mlp_mixer(spec, t_in=3, rng=rng)
        x = rng.normal(size=(2, 3, 2))
        y, _ = mlp_mixer_forward(Tensor(x), p)
        np.testing.assert_allclose(y.values, mixer_oracle(x, p, 2, 2), atol=1e-9)

    def test_single_node_reduces_to_feedforward(self):
        rng = np.random.default_rng(5)
        spec = BackboneSpec("mlp-mixer", hidden=2, t_future=3, mix_hidden=4)
        p = init_mlp_mixer(spec, t_in=4, rng=rng)
        x = rng.normal(size=(1, 4, 2))
        y, _ = mlp_mixer_forward(Tensor(x), p)
        flat = x[0].reshape(1, -1)
        h1 = np.maximum(flat @ p.w1.values + p.b1.values, 0.0)
        h2 = np.maximum(h1 @ p.w2.values + p.b2.values, 0.0)
        lifted = (h2 @ p.readout.w_seq.values + p.readout.b_seq.values).reshape(3, 2)
        expected = lifted @ p.readout.w_out.values + p.readout.b_out.values
        np.testing.assert_allclose(y.values[0], expected, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        spec = BackboneSpec("mlp-mixer", hidden=2, t_future=2, mix_hidden=3)
        p = init_mlp_mixer(spec, t_in=3, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 2)))
        wrt = list(p.parameters("bb").values())

        def f():
            y, _ = mlp_mixer_forward(x, p)
            return ad.reduce_sum(y)

        assert grad_check(f, wrt, step=1e-5) < 1e-4


class TestContract:
    def test_default_horizon_shape(self):
        rng = np.random.default_rng(7)
        spec = BackboneSpec("mlp-mixer", hidden=4, t_future=24, mix_hidden=8)
        p = init_mlp_mixer(spec, t_in=24, rng=rng)
        y, _ = mlp_mixer_forward(Tensor(rng.normal(size=(3, 24, 4))), p)
        assert y.shape == (3, 24, 1)

    @pytest.mark.parametrize("kind", ["grugcn", "mlp-mixer"])
    @pytest.mark.parametrize("seed", range(5))
    def test_shape_contract_randomized(self, kind, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 6))
        t_in = int(rng.integers(2, 8))
        h = int(rng.integers(1, 5))
        t_f = int(rng.integers(1, 7))
        spec = BackboneSpec(kind, hidden=h, t_future=t_f, mix_hidden=4)
        p = init_backbone(spec, t_in=t_in, rng=rng)
        x = Tensor(rng.normal(size=(n, t_in, h)))
        graph = Tensor(np.eye(n)) if spec.needs_graph else None
        y, penult = backbone_forward(x, graph, p, spec)
        assert y.shape == (n, t_f, 1)
        assert penult.shape == (n, t_f, h)

    def test_batched_forward_matches_per_sample(self):
        rng = np.random.default_rng(8)
        spec = BackboneSpec("grugcn", hidden=2, t_future=3)
        p = init_grugcn(spec, rng)
        x = rng.normal(size=(4, 2, 5, 2))  # (B, N, T, H)
        adj = Tensor(np.eye(2))
        y_batch, _ = grugcn_forward(Tensor(x), adj, p)
        for b in range(4):
            y_one, _ = grugcn_forward(Tensor(x[b]), adj, p)
            np.testing.assert_allclose(y_batch.values[b], y_one.values, atol=1e-12)


def _fused(x, adj, p):
    return ad.gru_gcn_sequence(x, adj, p.w_s, p.w_z, p.b_z, p.w_r, p.b_r,
                               p.w_c, p.b_c)


def _composed(x, adj, p):
    h = Tensor(np.zeros(x.shape[:-2] + (x.shape[-1],)))
    for t in range(x.shape[-2]):
        h = grugcn_step(h, x[..., t, :], adj, p)
    return h


def _probe(t: Tensor, seen: list) -> Tensor:
    """Identity node that records each adjoint reaching ``t`` before any sum."""
    def vjp(g):
        seen.append(g)
        return (g,)
    return ad._record("probe", (t,), t.values, vjp)


def _gru_case(steps, batched, adj_kind, signed_zeros, seed=0, n=3, h=4):
    rng = np.random.default_rng(seed)
    p = init_grugcn(BackboneSpec("grugcn", hidden=h, t_future=2), rng)
    x = rng.normal(size=((2,) if batched else ()) + (n, steps, h))
    # the adaptive kind builds its adjacency from these (n, 2) node embeddings
    adj = rng.normal(size=(n, 2) if adj_kind == "adaptive" else (n, n))
    r = rng.normal(size=x.shape[:-2] + (h,))
    if signed_zeros:  # ±0 inputs, weights and output weights
        x[..., 0, :, 0] = -0.0
        x[..., 1, 0, :] = 0.0
        p.w_s.values[:, 1] = -0.0
        p.w_z.values[0] = -0.0
        p.w_c.values[:, -1] = 0.0
        r[..., 0, :] = -0.0
        r[..., 1, 1] = 0.0
    return x, adj, p, r


def _run_sequence(fn, x, adj, adj_kind, p, r, calls):
    """Forward value, the adjoints reaching x and adj, and every leaf grad,
    for ``calls`` uses of one parameter set and one adjacency (``shared``)."""
    params = list(p.parameters("bb").values())
    x_leaf = Tensor(x.copy(), requires_grad=True)
    adj_leaf = Tensor(adj.copy(), requires_grad=adj_kind != "constant")
    for t in params:
        t.zero_grad()
    seen_x, seen_adj = [], []
    with ad.Tape() as tape:
        a = adj_leaf
        if adj_kind == "adaptive":  # a recorded intermediate, not a leaf
            a = ad.softmax(ad.relu(ad.matmul(adj_leaf, ad.transpose(adj_leaf))), 1)
        a = _probe(a, seen_adj)
        loss, outs = None, []
        for k in range(calls):
            xk = _probe(ad.mul(x_leaf, float(k + 1)), seen_x)
            out = fn(xk, a, p)
            outs.append(out.values)
            term = ad.reduce_sum(ad.mul(out, Tensor(r)))
            loss = term if loss is None else ad.add(loss, term)
    tape.backward(loss)
    grads = [t.grad.copy() for t in params] + [x_leaf.grad]
    if adj_leaf.requires_grad:
        grads.append(adj_leaf.grad)
    return outs, seen_x + seen_adj, grads


def _model_case(fusion, graph, t_past, t_future, batch, hidden=4, keep_prob=0.9):
    cfg = ModelConfig(n_nodes=3, past_exo_dim=2, future_exo_dim=2, t_past=t_past,
                      t_future=t_future, hidden=hidden, experts=2, backbone="grugcn",
                      graph_kind=graph, graph_k=1, fusion=fusion, keep_prob=keep_prob,
                      seed=3)
    rng = np.random.default_rng(4)
    lead = () if batch is None else (batch,)
    inputs = (rng.normal(size=lead + (3, t_past, 1)),
              rng.normal(size=lead + (3, t_past, 2)),
              rng.normal(size=lead + (3, t_future, 2)))
    return cfg, rng.normal(size=(3, 40)), inputs


def _run_model(cfg, series, inputs, probed):
    """Train-mode prediction, leaf grads and (``probed``) the adjoints that
    reach each branch's backbone input and graph, then the eval predict."""
    model = ExoModel(cfg, target_series=series)
    seen = []
    forward = model_module.backbone_forward

    def probed_forward(x, graph, params, spec):
        return forward(_probe(x, seen), _probe(graph, seen), params, spec)

    if probed:
        model_module.backbone_forward = probed_forward
    try:
        with ad.Tape() as tape:
            y, _ = model.forward(*inputs, rng=np.random.default_rng(5))
            loss = ad.mean(ad.mul(y, y))
        tape.backward(loss)
    finally:
        model_module.backbone_forward = forward
    grads = [t.grad for t in model.parameters().values()]
    return [y.values, model.predict(*inputs)], seen, grads


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)
        assert g.tobytes() == w.tobytes()


class TestFusedGruGcn:
    """``autodiff.gru_gcn_sequence`` against the step-by-step composition."""

    @pytest.mark.parametrize("signed_zeros", [False, True])
    @pytest.mark.parametrize("adj_kind", ["constant", "leaf", "adaptive"])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("calls", [1, 2])
    def test_matches_composition_bit_for_bit(self, steps, batched, adj_kind,
                                             signed_zeros, calls):
        x, adj, p, r = _gru_case(steps, batched, adj_kind, signed_zeros)
        got = _run_sequence(_fused, x, adj, adj_kind, p, r, calls)
        want = _run_sequence(_composed, x, adj, adj_kind, p, r, calls)
        for g, w in zip(got, want):
            _assert_same_bytes(g, w)

    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("t_past,t_future", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("graph", ["pearson", "adaptive", "adaptive-directed",
                                       "identity"])
    @pytest.mark.parametrize("fusion", ["context", "shared", "simple", "learnable",
                                        "attention"])
    def test_model_matches_composition(self, fusion, graph, t_past, t_future,
                                       batch, monkeypatch):
        case = _model_case(fusion, graph, t_past, t_future, batch)
        runs = {}
        for name in ("fused", "composed"):
            with monkeypatch.context() as m:
                if name == "composed":
                    m.setattr(backbones, "grugcn_forward", composed_grugcn_forward)
                values, _, grads = _run_model(*case, probed=False)
                _, seen, _ = _run_model(*case, probed=True)
            runs[name] = (values, seen, grads)
        assert len(runs["fused"][1]) >= 2
        for g, w in zip(runs["fused"], runs["composed"]):
            _assert_same_bytes(g, w)

    def test_untracked_inputs_record_nothing(self):
        x, adj, p, _ = _gru_case(3, True, "constant", False)
        for t in p.parameters("bb").values():
            t.requires_grad = False
        with ad.Tape() as tape:
            out = _fused(Tensor(x), Tensor(adj), p)
        assert tape.nodes == [] and out.tape is None
        np.testing.assert_array_equal(out.values, _composed(Tensor(x), Tensor(adj), p).values)

    def test_gradcheck(self):
        x, adj, p, r = _gru_case(3, True, "leaf", False, seed=6, n=2, h=2)
        leaves = [Tensor(x), Tensor(adj), *p.parameters("bb").values()]

        def f():
            out = _fused(leaves[0], leaves[1], p)
            return ad.reduce_sum(ad.mul(out, Tensor(r)))

        assert grad_check(f, leaves[:9], step=1e-5) < 1e-4

    @pytest.mark.parametrize("fusion", ["context", "shared"])
    def test_training_step_records_eight_backbone_nodes(self, monkeypatch, fusion):
        """Per step: each branch's fused recurrence plus its 3 readout nodes:
        affine lift, reshape and affine head."""
        prepared = prepare_splits(synth_generate(SynthConfig(nodes=3, steps=120, seed=0)),
                                  t_past=6, t_future=4)
        model = ExoModel(ModelConfig(
            n_nodes=3, past_exo_dim=len(prepared.layout.past),
            future_exo_dim=len(prepared.layout.future), t_past=6, t_future=4,
            hidden=4, experts=2, backbone="grugcn", graph_k=1, fusion=fusion, seed=1),
            target_series=prepared.train_target_series)
        recorded, ops = [], []
        forward = model_module.backbone_forward

        def counting(x, graph, params, spec):
            tape = ad._active_tape()
            base = len(tape.nodes) if tape is not None else None
            out = forward(x, graph, params, spec)
            if base is not None:
                recorded.append(len(tape.nodes) - base)
                ops.extend(node.op for node in tape.nodes[base:])
            return out

        monkeypatch.setattr(model_module, "backbone_forward", counting)
        training.train(model, prepared.train[:2], prepared.val[:2], prepared.scaler,
                       prepared.target_channel,
                       training.TrainConfig(epochs=1, batch_size=2, seed=0))
        # two samples make two steps of one window; each records 2 x 4 nodes
        assert recorded == [4] * 4
        assert ops.count("gru-gcn-sequence") == 4 and len(ops) == 2 * 8
        assert ops.count("affine") == 2 * 4

    def test_taped_recurrence_keeps_four_blocks_and_its_output(self):
        """Recorded, the node keeps h, z, r and c of each step, four
        (B, N, T, H) blocks; its backward rebuilds ``A x`` and ``s``."""
        rng = np.random.default_rng(0)
        b, n, t, h = 16, 8, 4, 16
        x = Tensor(rng.normal(size=(b, n, t, h)), requires_grad=True)
        adj = Tensor(rng.random((n, n)))
        weights = [Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((h, h), (2 * h, h), (h,), (2 * h, h), (h,), (2 * h, h), (h,))]

        def record():
            tape = ad.Tape()
            with tape:
                ad.gru_gcn_sequence(x, adj, *weights)
            return tape

        block, out = x.values.nbytes, b * n * h * 8
        kept = retained_bytes(record)
        assert 4 * block + out <= kept <= 4 * block + out + block // 8, kept

    def test_untaped_predict_peaks_no_higher_than_composition(self, monkeypatch):
        """Each ``backbone_forward`` call of an untaped ``predict`` peaks no
        higher fused than composed. The calls are measured alone, so the
        select stage, which both share, does not count."""
        cfg, series, inputs = _model_case("context", "pearson", 12, 12, 16,
                                          hidden=16, keep_prob=1.0)
        model = ExoModel(cfg, target_series=series)
        calls, forward = [], model_module.backbone_forward

        def recording(*args):
            calls.append(args)
            return forward(*args)

        with monkeypatch.context() as m:
            m.setattr(model_module, "backbone_forward", recording)
            model.predict(*inputs)
        assert len(calls) == 2 and ad._active_tape() is None
        peaks = {}
        for name in ("fused", "composed"):
            with monkeypatch.context() as m:
                if name == "composed":
                    m.setattr(backbones, "grugcn_forward", composed_grugcn_forward)
                peaks[name] = [traced_peak(lambda: backbones.backbone_forward(*args))[1]
                               for args in calls]
        assert all(f <= c for f, c in zip(peaks["fused"], peaks["composed"])), peaks
