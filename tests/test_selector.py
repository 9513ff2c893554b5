"""Tests for conditional embedding and the mixture-of-experts selector."""

import math

import numpy as np
import pytest

from exoforecast import autodiff as ad
from exoforecast import selector, training
from exoforecast import model as model_module
from exoforecast.autodiff import Tensor, grad_check
from exoforecast.data import SynthConfig, prepare_splits, synth_generate
from exoforecast.model import ExoModel, ModelConfig
from exoforecast.selector import (
    CondEmbedParams,
    ExpertBank,
    conditional_embed,
    init_cond_embed,
    init_expert_bank,
    moe_gate,
    moe_select,
    select_stage,
)
from helpers import traced_peak
from test_backbones import _assert_same_bytes

CHUNK_ROWS = [1, 2, None]  # rows per chunk of a fused node; None keeps ad.BLOCK


def _set_chunk(monkeypatch, rows, row_size):
    """Make the fused nodes walk ``rows`` rows of ``row_size`` elements at a time."""
    if rows is not None:
        monkeypatch.setattr(ad, "BLOCK", rows * row_size)


def embed_oracle(x, e, w_x, w_e, b, act):
    """Scalar-loop evaluation of the conditional embedding formula."""
    n, t, _ = x.shape
    h = w_x.shape[1]
    out = np.zeros((n, t, h))
    for i in range(n):
        for s in range(t):
            for j in range(h):
                acc = b[j]
                acc += sum(x[i, s, f] * w_x[f, j] for f in range(x.shape[2]))
                acc += sum(e[i, s, f] * w_e[f, j] for f in range(e.shape[2]))
                out[i, s, j] = act(acc)
    return out


class TestConditionalEmbed:
    def test_identity_configuration(self):
        n, t, f = 2, 3, 4
        params = CondEmbedParams(
            w_x=Tensor(np.eye(f)), w_e=Tensor(np.zeros((2, f))),
            b=Tensor(np.zeros(f)), activation="identity")
        x = Tensor(np.random.default_rng(0).normal(size=(n, t, f)))
        e = Tensor(np.random.default_rng(1).normal(size=(n, t, 2)))
        out = conditional_embed(x, e, params)
        np.testing.assert_array_equal(out.values, x.values)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_zero_inputs_zero_bias(self, activation):
        params = CondEmbedParams(
            w_x=Tensor(np.ones((2, 3))), w_e=Tensor(np.ones((1, 3))),
            b=Tensor(np.zeros(3)), activation=activation)
        out = conditional_embed(Tensor(np.zeros((2, 4, 2))),
                                Tensor(np.zeros((2, 4, 1))), params)
        np.testing.assert_array_equal(out.values, np.zeros((2, 4, 3)))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = init_cond_embed(2, 1, 2, rng, activation="relu")
        x = Tensor(rng.normal(size=(2, 3, 2)))
        e = Tensor(rng.normal(size=(2, 3, 1)))
        out = conditional_embed(x, e, params)
        expected = embed_oracle(x.values, e.values, params.w_x.values,
                                params.w_e.values, params.b.values,
                                lambda v: max(v, 0.0))
        np.testing.assert_allclose(out.values, expected, atol=1e-9)

    def test_head_padding_for_past(self):
        params = CondEmbedParams(
            w_x=Tensor(np.eye(1)), w_e=Tensor(np.ones((1, 1))),
            b=Tensor(np.zeros(1)), activation="identity")
        x = Tensor(np.ones((1, 4, 1)))
        e = Tensor(np.full((1, 2, 1), 10.0))
        out = conditional_embed(x, e, params, pad_side="head")
        # exogenous stream gains zeros at the head
        np.testing.assert_array_equal(out.values[0, :, 0], [1, 1, 11, 11])

    def test_tail_padding_for_future(self):
        params = CondEmbedParams(
            w_x=Tensor(np.eye(1)), w_e=Tensor(np.ones((1, 1))),
            b=Tensor(np.zeros(1)), activation="identity")
        x = Tensor(np.ones((1, 2, 1)))
        e = Tensor(np.full((1, 4, 1), 10.0))
        out = conditional_embed(x, e, params, pad_side="tail")
        # endogenous stream gains zeros at the tail
        np.testing.assert_array_equal(out.values[0, :, 0], [11, 11, 10, 10])

    def test_feature_mismatch(self):
        params = init_cond_embed(2, 1, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="feature dim"):
            conditional_embed(Tensor(np.zeros((1, 3, 5))),
                              Tensor(np.zeros((1, 3, 1))), params)

    def test_eval_mode_ignores_dropout(self):
        rng = np.random.default_rng(7)
        params = init_cond_embed(1, 1, 2, rng, keep_prob=0.5)
        x = Tensor(rng.normal(size=(1, 3, 1)))
        e = Tensor(rng.normal(size=(1, 3, 1)))
        a = conditional_embed(x, e, params)
        b = conditional_embed(x, e, params)
        np.testing.assert_array_equal(a.values, b.values)


class TestGate:
    def test_zero_gate_map_uniform(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        g = moe_gate(x, Tensor(np.zeros((4, 5))))
        np.testing.assert_allclose(g.values, np.full((2, 3, 5), 0.2))

    def test_single_expert(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        g = moe_gate(x, Tensor(np.random.default_rng(2).normal(size=(4, 1))))
        np.testing.assert_allclose(g.values, np.ones((2, 3, 1)))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_direct_softmax(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 3))
        g = moe_gate(Tensor(x), Tensor(w))
        for i in range(2):
            for t in range(3):
                logits = [sum(x[i, t, f] * w[f, k] for f in range(4)) for k in range(3)]
                m = max(logits)
                exps = [math.exp(v - m) for v in logits]
                z = sum(exps)
                np.testing.assert_allclose(g.values[i, t], [v / z for v in exps],
                                           atol=1e-9)
        np.testing.assert_allclose(g.values.sum(axis=-1), np.ones((2, 3)), atol=1e-9)

    def test_simplex_property(self):
        rng = np.random.default_rng(9)
        g = moe_gate(Tensor(rng.normal(size=(4, 7, 6)) * 20),
                     Tensor(rng.normal(size=(6, 4))))
        assert (g.values >= 0).all()
        np.testing.assert_allclose(g.values.sum(axis=-1), np.ones((4, 7)), atol=1e-9)


class TestSelect:
    def test_single_expert_reduction(self):
        rng = np.random.default_rng(0)
        bank = init_expert_bank(3, 1, rng)
        x = Tensor(rng.normal(size=(2, 4, 3)))
        out = moe_select(x, bank, moe_gate(x, bank.gate))
        np.testing.assert_allclose(
            out.values, x.values @ bank.experts[0].values, atol=1e-12)

    def test_identity_experts_any_gate(self):
        rng = np.random.default_rng(1)
        bank = ExpertBank(experts=[Tensor(np.eye(3)) for _ in range(4)],
                          gate=Tensor(rng.normal(size=(3, 4))))
        x = Tensor(rng.normal(size=(2, 5, 3)))
        out = moe_select(x, bank, moe_gate(x, bank.gate))
        np.testing.assert_allclose(out.values, x.values, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_hand_rolled_combination(self, seed):
        rng = np.random.default_rng(seed)
        k, h = 2, 2
        bank = init_expert_bank(h, k, rng)
        x = rng.normal(size=(1, 1, h))
        g = moe_gate(Tensor(x), bank.gate)
        out = moe_select(Tensor(x), bank, g)
        expected = np.zeros(h)
        for kk in range(k):
            wk = bank.experts[kk].values
            proj = np.array([sum(x[0, 0, f] * wk[f, j] for f in range(h))
                             for j in range(h)])
            expected += g.values[0, 0, kk] * proj
        np.testing.assert_allclose(out.values[0, 0], expected, atol=1e-9)

    def test_expert_permutation_symmetry(self):
        rng = np.random.default_rng(5)
        bank = init_expert_bank(3, 3, rng)
        x = Tensor(rng.normal(size=(2, 4, 3)))
        g = moe_gate(x, bank.gate)
        out = moe_select(x, bank, g)
        perm = [2, 0, 1]
        bank_p = ExpertBank(experts=[bank.experts[i] for i in perm], gate=bank.gate)
        g_p = Tensor(g.values[..., perm])
        out_p = moe_select(x, bank_p, g_p)
        np.testing.assert_array_equal(out.values, out_p.values)

    def test_convex_hull_property(self):
        # all experts produce the same output at a position -> gate irrelevant
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 3))
        bank = ExpertBank(experts=[Tensor(w.copy()) for _ in range(4)],
                          gate=Tensor(rng.normal(size=(3, 4))))
        x = Tensor(rng.normal(size=(2, 4, 3)))
        out = moe_select(x, bank, moe_gate(x, bank.gate))
        np.testing.assert_allclose(out.values, x.values @ w, atol=1e-12)


class TestEndToEnd:
    def test_gradcheck_through_chain(self):
        rng = np.random.default_rng(8)
        embed = init_cond_embed(2, 1, 2, rng, activation="tanh", keep_prob=1.0)
        bank = init_expert_bank(2, 2, rng)
        x = Tensor(rng.normal(size=(2, 3, 2)))
        e = Tensor(rng.normal(size=(2, 3, 1)))
        wrt = [embed.w_x, embed.w_e, embed.b, bank.gate] + bank.experts

        def f():
            out = select_stage(x, e, embed, bank, pad_side="head")
            return ad.reduce_sum(out)

        assert grad_check(f, wrt, step=1e-5) < 1e-4

    def test_bypass_returns_embedding(self):
        rng = np.random.default_rng(9)
        embed = init_cond_embed(1, 1, 3, rng)
        x = Tensor(rng.normal(size=(1, 2, 1)))
        e = Tensor(rng.normal(size=(1, 2, 1)))
        out = select_stage(x, e, embed, None, pad_side="head")
        np.testing.assert_array_equal(
            out.values, conditional_embed(x, e, embed).values)


def composed_moe(x_tau, g, experts):
    """Reference for ``moe_combine``: the per-expert slice/matmul/mul
    composition, its terms summed in ``np.sort`` order (3K+1 tape nodes)."""
    terms = [ad.mul(g[..., k:k + 1], ad.matmul(x_tau, w))
             for k, w in enumerate(experts)]
    if len(terms) == 1:
        return ad.add(terms[0], 0.0)
    stacked = np.sort(np.stack([t.values for t in terms]), axis=0)
    out = stacked[0]
    for row in stacked[1:]:
        out = out + row
    return ad._record("ordered-sum", tuple(terms), out,
                      lambda grad: tuple(grad for _ in terms))


def _moe_case(kind, k, seed):
    """(x_tau, gate, experts, output weights) for one oracle case."""
    rng = np.random.default_rng(seed)
    shape, h = (2, 3, 4), 1 if kind == "width-one" else 3
    x = rng.normal(size=shape + (h,))
    g = rng.dirichlet(np.ones(k), size=shape)
    ws = [rng.normal(size=(h, h)) for _ in range(k)]
    r = rng.normal(size=shape + (h,))
    if kind == "ties":  # equal gates and duplicate experts: every term ties
        g = np.full(shape + (k,), 1.0 / k)
        ws = [ws[0].copy() for _ in range(k)]
        x[0, 0] = 0.0
    elif kind == "signed-zeros":  # ±0 terms, ±0 adjoints, some duplicates
        g[..., 0] = -0.0
        g[0, ..., -1] = 0.0
        g[1, 0, 0] = -0.0  # with the zero row of x below: all K terms -0
        x[1, 1] = -0.0
        x[0, 0, 0] = x[1, 0, 0] = 0.0  # under r[0, 0] = -0: a -0 gate adjoint
        for w in ws:
            w[:, 0] = -0.0
        ws[-1] = ws[0].copy()
        r[0, 0] = -0.0
        r[1, 2] = 0.0
        r[..., 1] = -0.0
    elif kind == "width-one":  # a one-term sum over H keeps -0 gate adjoints
        ws = [np.abs(w) for w in ws]
        x[0, 0] = 0.0
        r[0, 0] = -0.0
    return x, g, ws, r


def _run_moe(fn, x, g, ws, r):
    """Forward value of ``fn`` and the adjoints of sum(r * fn(x, g, ws)).

    Every input passes through a probe node that records the adjoint it
    receives, so signed zeros are compared before a leaf's ``grad`` sum
    turns them into +0; the leaf grads are returned as well.
    """
    leaves = [Tensor(v.copy(), requires_grad=True) for v in (x, g, *ws)]
    seen = [None] * len(leaves)

    def probe(i, t):
        def vjp(adj):
            seen[i] = adj
            return (adj,)
        return ad._record("probe", (t,), t.values, vjp)

    with ad.Tape() as tape:
        ins = [probe(i, t) for i, t in enumerate(leaves)]
        out = fn(ins[0], ins[1], ins[2:])
        loss = ad.reduce_sum(ad.mul(out, Tensor(r)))
    tape.backward(loss)
    return out.values, seen + [t.grad for t in leaves]


class TestFusedMoe:
    @pytest.mark.parametrize("kind", ["random", "ties", "signed-zeros", "width-one"])
    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_composition_bit_for_bit(self, kind, k, seed):
        case = _moe_case(kind, k, seed)
        out, grads = _run_moe(ad.moe_combine, *case)
        want, want_grads = _run_moe(composed_moe, *case)
        np.testing.assert_array_equal(out, want)
        assert out.tobytes() == want.tobytes()
        for got_g, want_g in zip(grads, want_grads):
            np.testing.assert_array_equal(got_g, want_g)
            assert got_g.tobytes() == want_g.tobytes()

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("kind", ["random", "ties", "signed-zeros", "width-one"])
    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_composition_across_chunks(self, kind, k, seed, chunk, monkeypatch):
        """The oracle above, with the 6 rows walked ``chunk`` at a time."""
        _set_chunk(monkeypatch, chunk, math.prod(_moe_case(kind, k, seed)[0].shape[-2:]))
        self.test_matches_composition_bit_for_bit(kind, k, seed)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_shared_expert_tensor(self, k):
        x, g, ws, r = _moe_case("random", k, 0)
        shared = Tensor(ws[0], requires_grad=True)
        grads = []
        for fn in (ad.moe_combine, composed_moe):
            shared.zero_grad()
            with ad.Tape() as tape:
                out = fn(Tensor(x), Tensor(g), [shared] * k)
                loss = ad.reduce_sum(ad.mul(out, Tensor(r)))
            tape.backward(loss)
            grads.append(shared.grad.copy())
        assert grads[0].tobytes() == grads[1].tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_gradcheck(self, k):
        x, g, ws, r = _moe_case("random", k, 4)
        leaves = [Tensor(v) for v in (x, g, *ws)]

        def f():
            out = ad.moe_combine(leaves[0], leaves[1], leaves[2:])
            return ad.reduce_sum(ad.mul(out, Tensor(r)))

        assert grad_check(f, leaves, step=1e-5) < 1e-4

    def test_rejects_mismatched_gate(self):
        x, g, ws, _ = _moe_case("random", 3, 0)
        with pytest.raises(ValueError, match="gate shape"):
            ad.moe_combine(Tensor(x), Tensor(g), ws[:2])

    def test_select_stage_records_one_moe_node(self):
        rng = np.random.default_rng(10)
        k = 4
        embed = init_cond_embed(1, 2, 3, rng, keep_prob=1.0)
        bank = init_expert_bank(3, k, rng)
        x = Tensor(rng.normal(size=(2, 3, 5, 1)))
        e = Tensor(rng.normal(size=(2, 3, 5, 2)))
        ops = {}
        for bypass in (False, True):
            with ad.Tape() as tape:
                select_stage(x, e, embed, None if bypass else bank, pad_side="head")
            ops[bypass] = [node.op for node in tape.nodes]
        assert ops[False].count("moe-combine") == 1
        assert "slice" not in ops[False] and "ordered-sum" not in ops[False]
        # gate matmul + softmax + the fused mixture, instead of 3K+1 nodes
        assert len(ops[False]) == len(ops[True]) + 3


PRIMITIVE_ACTIVATIONS = {
    "relu": ad.relu,
    "identity": lambda t: t,
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
    "leaky-relu": ad.leaky_relu,
}


def composed_conditional_embed(x, e, params, *, pad_side="head", rng=None):
    """Reference for ``conditional_embed``: the matmul/add/activation/dropout
    composition that ``autodiff.cond_embed`` fuses (up to 6 tape nodes)."""
    length = max(x.shape[-2], e.shape[-2])
    x = selector._pad_time(x, length, pad_side)
    e = selector._pad_time(e, length, pad_side)
    pre = ad.add(ad.add(ad.matmul(x, params.w_x), ad.matmul(e, params.w_e)), params.b)
    act = PRIMITIVE_ACTIVATIONS[params.activation](pre)
    if rng is not None and params.keep_prob < 1.0:
        return ad.dropout(act, params.keep_prob, rng, train=True)
    return act


def _embed_case(kind, seed=0):
    """(x, e, w_x, w_e, b, output weights) for one cond-embed oracle case."""
    rng = np.random.default_rng(seed)
    lead = () if kind == "unbatched" else (3, 4)  # 12 rows: numpy sums H=1 pairwise
    t, f, f_exo, h = 5, 2, 3, 1 if kind == "width-one" else 3
    x, e = rng.normal(size=lead + (t, f)), rng.normal(size=lead + (t, f_exo))
    w_x, w_e = rng.normal(size=(f, h)), rng.normal(size=(f_exo, h))
    b, r = rng.normal(size=h), rng.normal(size=lead + (t, h))
    if kind == "signed-zeros":  # ±0 inputs, weights, bias and output weights
        x[..., 0, :] = -0.0
        e[..., 0, :] = -0.0
        e[..., 1, :] = 0.0
        w_x[:, 1] = -0.0
        w_e[:, 1] = 0.0
        b[1] = -0.0
        r[..., 2] = -0.0
        r[..., 3, :] = 0.0
    return x, e, w_x, w_e, b, r


def _run_embed(fn, case, activation, train, keep_prob, tracked):
    """Output, the adjoints reaching every input (through probe nodes, so
    -0 shows), the leaf grads and the next draw of the dropout rng."""
    x, e, w_x, w_e, b, r = case
    leaves = [Tensor(v.copy(), requires_grad=True) for v in (w_x, w_e, b)]
    data = [Tensor(v.copy(), requires_grad=tracked) for v in (x, e)]
    seen = {}

    def probe(name, t):
        def vjp(adj):
            seen[name] = adj
            return (adj,)
        return ad._record("probe", (t,), t.values, vjp)

    rng = np.random.default_rng(11)
    with ad.Tape() as tape:
        w_xp, w_ep, bp = (probe(n, t) for n, t in zip(("w_x", "w_e", "b"), leaves))
        xp, ep = (probe(n, t) for n, t in zip(("x", "e"), data))
        params = CondEmbedParams(w_x=w_xp, w_e=w_ep, b=bp, activation=activation,
                                 keep_prob=keep_prob)
        out = fn(xp, ep, params, rng=rng if train else None)
        loss = ad.reduce_sum(ad.mul(out, Tensor(r)))
    tape.backward(loss)
    grads = [t.grad for t in leaves] + ([t.grad for t in data] if tracked else [])
    return out.values, [seen[n] for n in sorted(seen)], grads, rng.random(3)


class TestFusedCondEmbed:
    """``autodiff.cond_embed`` against the primitive composition it replaces."""

    @pytest.mark.parametrize("chunk", CHUNK_ROWS)
    @pytest.mark.parametrize("kind", ["random", "signed-zeros", "width-one", "unbatched"])
    @pytest.mark.parametrize("tracked", [True, False])
    @pytest.mark.parametrize("keep_prob", [0.9, 1.0])
    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("activation", sorted(ad.ACTIVATIONS))
    def test_matches_composition_bit_for_bit(self, activation, train, keep_prob,
                                             tracked, kind, chunk, monkeypatch):
        case = _embed_case(kind)
        _set_chunk(monkeypatch, chunk, math.prod(case[-1].shape[-2:]))
        got = _run_embed(conditional_embed, case, activation, train, keep_prob, tracked)
        want = _run_embed(composed_conditional_embed, case, activation, train,
                          keep_prob, tracked)
        _assert_same_bytes([got[0]], [want[0]])
        assert len(got[1]) == (5 if tracked else 3)
        for g, w in zip(got[1:], want[1:]):
            _assert_same_bytes(g, w)

    def test_gradcheck_reaches_every_input(self):
        x, e, w_x, w_e, b, r = _embed_case("random", seed=2)
        leaves = [Tensor(v) for v in (x, e, w_x, w_e, b)]

        def f():
            out = ad.cond_embed(*leaves, activation="tanh")
            return ad.reduce_sum(ad.mul(out, Tensor(r)))

        assert grad_check(f, leaves, step=1e-5) < 1e-4

    def test_rejects_mismatched_leading_shapes(self):
        x, e, w_x, w_e, b, _ = _embed_case("random")
        with pytest.raises(ValueError, match="differ before the feature axis"):
            ad.cond_embed(Tensor(x[:1]), Tensor(e), Tensor(w_x), Tensor(w_e), Tensor(b))

    def test_untracked_inputs_record_nothing(self):
        x, e, w_x, w_e, b, _ = _embed_case("random")
        with ad.Tape() as tape:
            out = ad.cond_embed(*(Tensor(v) for v in (x, e, w_x, w_e, b)),
                                keep_prob=0.5, rng=np.random.default_rng(0))
        assert tape.nodes == [] and out.tape is None


def _paper_model(backbone, batch, seed=0):
    """Model and inputs at N=24, T=24->24, H=64, K=4 with dropout on."""
    cfg = ModelConfig(n_nodes=24, past_exo_dim=3, future_exo_dim=2, t_past=24,
                      t_future=24, hidden=64, experts=4, backbone=backbone,
                      graph_k=8, keep_prob=0.9, seed=seed)
    rng = np.random.default_rng(seed + 1)
    inputs = (rng.normal(size=(batch, 24, 24, 1)), rng.normal(size=(batch, 24, 24, 3)),
              rng.normal(size=(batch, 24, 24, 2)))
    return ExoModel(cfg, target_series=rng.normal(size=(24, 200))), inputs


def _patch_composition(m):
    m.setattr(selector, "conditional_embed", composed_conditional_embed)
    m.setattr(ad, "moe_combine", composed_moe)


class TestSelectStage:
    @pytest.mark.parametrize("backbone,batch", [("grugcn", 4), ("mlp-mixer", 8)])
    def test_paper_shape_step_matches_composition(self, backbone, batch, monkeypatch):
        """One training step and a predict, with the select stage fused and
        composed, by bytes; each fused node walks many chunks here."""
        runs = {}
        for name in ("fused", "composed"):
            with monkeypatch.context() as m:
                if name == "composed":
                    _patch_composition(m)
                model, inputs = _paper_model(backbone, batch)
                with ad.Tape() as tape:
                    y, _ = model.forward(*inputs, rng=np.random.default_rng(5))
                    loss = ad.mean(ad.mul(y, y))
                tape.backward(loss)
                grads = [t.grad for t in model.parameters().values()]
                runs[name] = [y.values, model.predict(*inputs), *grads]
        _assert_same_bytes(runs["fused"], runs["composed"])

    def test_training_step_records_four_select_nodes_per_branch(self, monkeypatch):
        prepared = prepare_splits(synth_generate(SynthConfig(nodes=3, steps=120, seed=0)),
                                  t_past=6, t_future=4)
        model = ExoModel(ModelConfig(
            n_nodes=3, past_exo_dim=len(prepared.layout.past),
            future_exo_dim=len(prepared.layout.future), t_past=6, t_future=4,
            hidden=4, experts=2, backbone="mlp-mixer", mix_hidden=4, seed=1),
            target_series=prepared.train_target_series)
        recorded = []
        stage = model_module.select_stage

        def counting(*args, **kwargs):
            tape = ad._active_tape()
            base = len(tape.nodes) if tape is not None else None
            out = stage(*args, **kwargs)
            if base is not None:
                recorded.append([node.op for node in tape.nodes[base:]])
            return out

        monkeypatch.setattr(model_module, "select_stage", counting)
        training.train(model, prepared.train[:2], prepared.val[:2], prepared.scaler,
                       prepared.target_channel,
                       training.TrainConfig(epochs=1, batch_size=2, seed=0))
        # two samples make two steps of one window, each with two branches;
        # dropout is on (keep_prob 0.9) and folded into cond-embed
        assert recorded == [["cond-embed", "matmul", "softmax-over-axis",
                             "moe-combine"]] * 4

    def test_untaped_predict_peaks_no_higher_than_composition(self, monkeypatch):
        cfg = ModelConfig(n_nodes=8, past_exo_dim=3, future_exo_dim=2, t_past=12,
                          t_future=12, hidden=32, experts=4, backbone="mlp-mixer",
                          mix_hidden=4, keep_prob=1.0, seed=0)
        model = ExoModel(cfg)
        rng = np.random.default_rng(0)
        inputs = (rng.normal(size=(16, 8, 12, 1)), rng.normal(size=(16, 8, 12, 3)),
                  rng.normal(size=(16, 8, 12, 2)))
        peaks = {}
        for name in ("fused", "composed"):
            with monkeypatch.context() as m:
                if name == "composed":
                    _patch_composition(m)
                peaks[name] = traced_peak(lambda: model.predict(*inputs))[1]
        assert peaks["fused"] <= peaks["composed"], peaks
