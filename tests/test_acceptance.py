"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoforecast import autodiff as ad
from exoforecast.autodiff import Tape, Tensor, apply_primitive, grad_check
from exoforecast.backbones import (
    BackboneSpec,
    backbone_forward,
    init_backbone,
)
from exoforecast.cli import main as cli_main
from exoforecast.data import (
    SynthConfig,
    add_date_channels,
    chronological_split,
    corrupt_exogenous,
    make_windows,
    mask_exogenous,
    prepare_splits,
    synth_generate,
)
from exoforecast.fusion import (
    context_balance,
    fuse_attention,
    fuse_learnable,
    fuse_simple,
    init_attention,
    init_balancer,
)
from exoforecast.graphs import (
    adaptive_adjacency,
    adaptive_adjacency_directed,
    pearson_correlation,
    pearson_topk_adjacency,
)
from exoforecast.model import ExoModel, ModelConfig
from exoforecast.selector import (
    conditional_embed,
    init_cond_embed,
    init_expert_bank,
    moe_gate,
    moe_select,
)
from exoforecast.training import (
    EarlyStopper,
    TrainConfig,
    cosine_lr,
    evaluate,
    metrics,
    stack_samples,
    train,
)

# scalar-loop oracles shared with the module tests
from test_backbones import grugcn_oracle, mixer_oracle
from test_fusion import attention_oracle, context_oracle
from test_graphs import oracle_adaptive
from test_model import forward_oracle
from test_selector import embed_oracle


def report(number: int, name: str):
    print(f"\nACCEPTANCE {number} PASS - {name}")


def toy_model(fusion="context", seed=0, **overrides) -> ExoModel:
    base = dict(n_nodes=2, past_exo_dim=1, future_exo_dim=1,
                t_past=3, t_future=2, hidden=2, experts=2, backbone="grugcn",
                graph_kind="identity", mix_hidden=3, keep_prob=1.0,
                fusion=fusion, seed=seed)
    base.update(overrides)
    return ExoModel(ModelConfig(**base))


def toy_inputs(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(2, 3, 1)), rng.normal(size=(2, 3, 1)),
            rng.normal(size=(2, 2, 1)), rng.normal(size=(2, 2, 1)))


def _benefit_run(a, b, seed, epochs=80):
    """Train the full model and the selector-bypassed, exogenous-zeroed
    variant on one synthetic panel; return their test MAEs."""
    synth = SynthConfig(nodes=4, steps=512, lag=5, noise=0.1, seed=100 + seed,
                        past_coef=a, future_coef=b)
    panel = synth_generate(synth)
    t_cfg = TrainConfig(epochs=epochs, batch_size=512, seed=seed,
                        patience=epochs)

    def run(bypass_selector):
        prepared = prepare_splits(panel, t_past=8, t_future=4)
        if bypass_selector:
            for split in ("train", "val", "test"):
                setattr(prepared, split, mask_exogenous(
                    getattr(prepared, split), prepared.layout,
                    use_past=False, use_future=False, use_date=True))
        cfg = ModelConfig(
            n_nodes=4, past_exo_dim=len(prepared.layout.past),
            future_exo_dim=len(prepared.layout.future), t_past=8, t_future=4,
            hidden=8, experts=2, backbone="mlp-mixer", mix_hidden=16,
            keep_prob=1.0, seed=seed, use_selector=not bypass_selector)
        model = ExoModel(cfg, target_series=prepared.train_target_series)
        train(model, prepared.train, prepared.val, prepared.scaler,
              prepared.target_channel, t_cfg)
        return evaluate(model, prepared.test, prepared.scaler,
                        prepared.target_channel).mae

    return run(bypass_selector=False), run(bypass_selector=True)


# ---------------------------------------------------------------------------
# 1. Gradient integrity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_integrity():
    started = time.perf_counter()
    tol = 1e-4
    rng = np.random.default_rng(0)

    # (a) every tensor primitive
    cases = [
        ("matmul", [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 2)))], {}),
        ("add", [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3,)))], {}),
        ("sub", [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3,)))], {}),
        ("elementwise-mul", [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3,)))], {}),
        ("relu", [Tensor(rng.normal(size=(2, 3)) + 3.0)], {}),
        ("leaky-relu", [Tensor(rng.normal(size=(2, 3)) + 3.0)], {"slope": 0.1}),
        ("sigmoid", [Tensor(rng.normal(size=(2, 3)))], {}),
        ("tanh", [Tensor(rng.normal(size=(2, 3)))], {}),
        ("softmax-over-axis", [Tensor(rng.normal(size=(2, 3)))], {"axis": 1}),
        ("mean-over-axis", [Tensor(rng.normal(size=(2, 3)))], {"axis": 0}),
        ("sum-over-axis", [Tensor(rng.normal(size=(2, 3)))], {"axis": 1}),
        ("concat-over-axis", [Tensor(rng.normal(size=(2, 2))),
                              Tensor(rng.normal(size=(2, 1)))], {"axis": 1}),
        ("broadcast", [Tensor(rng.normal(size=(1, 3)))], {"shape": (4, 3)}),
        ("reshape", [Tensor(rng.normal(size=(2, 3)))], {"shape": (3, 2)}),
        ("slice", [Tensor(rng.normal(size=(3, 3)))],
         {"index": (slice(0, 2), slice(1, 3))}),
        ("transpose", [Tensor(rng.normal(size=(2, 3)))], {}),
        ("dropout", [Tensor(rng.normal(size=(3, 3)))],
         {"keep_prob": 0.8, "rng": np.random.default_rng(5), "train": True}),
    ]
    for kind, inputs, attrs in cases:
        if kind == "dropout":
            def f(inputs=inputs):
                return ad.reduce_sum(ad.dropout(
                    inputs[0], 0.8, np.random.default_rng(5), True))
        else:
            def f(kind=kind, inputs=inputs, attrs=attrs):
                return ad.reduce_sum(apply_primitive(kind, inputs, **attrs))
        err = grad_check(f, inputs, step=1e-5)
        assert err < tol, f"primitive {kind}: {err}"

    # (b) the select chain
    embed = init_cond_embed(2, 1, 2, rng, activation="tanh", keep_prob=1.0)
    bank = init_expert_bank(2, 2, rng)
    xs = Tensor(rng.normal(size=(2, 3, 2)))
    es = Tensor(rng.normal(size=(2, 3, 1)))
    wrt = [embed.w_x, embed.w_e, embed.b, bank.gate] + bank.experts

    def chain():
        rep = conditional_embed(xs, es, embed, pad_side="head")
        return ad.reduce_sum(moe_select(rep, bank, moe_gate(rep, bank.gate)))

    assert grad_check(chain, wrt, step=1e-5) < tol

    # (c) each backbone; fresh seed-0 draws keep ReLU args away from the kink
    for kind in ("grugcn", "mlp-mixer"):
        rng_bb = np.random.default_rng(0)
        spec = BackboneSpec(kind, hidden=2, t_future=2, mix_hidden=3)
        params = init_backbone(spec, t_in=3, rng=rng_bb)
        xb = Tensor(rng_bb.normal(size=(2, 3, 2)))
        graph = Tensor(np.eye(2)) if spec.needs_graph else None
        if kind == "mlp-mixer":
            flat = xb.values.reshape(2, -1)
            z1 = flat @ params.w1.values + params.b1.values
            z2 = np.maximum(z1, 0) @ params.w2.values + params.b2.values
            assert min(np.abs(z1).min(), np.abs(z2).min()) > 1e-2

        def fb():
            y, _ = backbone_forward(xb, graph, params, spec)
            return ad.reduce_sum(y)

        assert grad_check(fb, list(params.parameters("bb").values()),
                          step=1e-5) < tol

    # (d) each fusion strategy through the whole model
    for fusion in ("context", "shared", "simple", "learnable", "attention"):
        model = toy_model(fusion=fusion)
        x, e_p, e_f, _ = toy_inputs(seed=3)

        def fm(model=model):
            y_hat, _ = model.forward(x, e_p, e_f)
            return ad.reduce_sum(y_hat)

        assert grad_check(fm, list(model.parameters().values()),
                          step=1e-5) < tol, fusion

    # (e) full forward + MAE loss on the N=2, T=3, H=2, K=2 toy
    model = toy_model()
    x, e_p, e_f, y = toy_inputs(seed=7)
    pred0, _ = model.forward(x, e_p, e_f)
    margin = np.abs(pred0.values - y).min()
    assert margin > 1e-3, "residuals too close to the |.| kink for differencing"

    def loss_fn():
        y_hat, _ = model.forward(x, e_p, e_f)
        return ad.mean(ad.absolute(ad.sub(y_hat, Tensor(y))))

    assert grad_check(loss_fn, list(model.parameters().values()),
                      step=1e-5) < tol
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"gradient integrity at 1e-4 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Equation fidelity oracles
# ---------------------------------------------------------------------------

def test_criterion_2_equation_fidelity():
    for seed in range(20):
        rng = np.random.default_rng(seed)

        # conditional embedding
        embed = init_cond_embed(2, 1, 2, rng, activation="relu")
        x = rng.normal(size=(2, 3, 2))
        e = rng.normal(size=(2, 3, 1))
        got = conditional_embed(Tensor(x), Tensor(e), embed).values
        want = embed_oracle(x, e, embed.w_x.values, embed.w_e.values,
                            embed.b.values, lambda v: max(v, 0.0))
        np.testing.assert_allclose(got, want, atol=1e-9)

        # gate and expert recombination
        bank = init_expert_bank(2, 2, rng)
        rep = rng.normal(size=(2, 3, 2))
        g = moe_gate(Tensor(rep), bank.gate)
        logits = rep @ bank.gate.values
        ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(g.values, ex / ex.sum(axis=-1, keepdims=True),
                                   atol=1e-9)
        sel = moe_select(Tensor(rep), bank, g).values
        want_sel = sum(g.values[..., k:k + 1] * (rep @ bank.experts[k].values)
                       for k in range(2))
        np.testing.assert_allclose(sel, want_sel, atol=1e-9)

        # context balancer
        yp = rng.normal(size=(3, 4, 1))
        yf = rng.normal(size=(3, 4, 1))
        balancer = init_balancer(4, rng)
        got_y, got_a = context_balance(Tensor(yp), Tensor(yf), balancer)
        want_y, want_a = context_oracle(yp, yf, balancer)
        np.testing.assert_allclose(got_y.values, want_y, atol=1e-9)
        np.testing.assert_allclose(got_a.values, want_a, atol=1e-9)

        # alternative strategies
        np.testing.assert_allclose(fuse_simple(Tensor(yp), Tensor(yf)).values,
                                   0.5 * yp + 0.5 * yf, atol=1e-9)
        w_init = rng.normal(size=2)
        exw = np.exp(w_init - w_init.max())
        w = exw / exw.sum()
        np.testing.assert_allclose(
            fuse_learnable(Tensor(yp), Tensor(yf), Tensor(w_init)).values,
            w[0] * yp + w[1] * yf + yp + yf, atol=1e-9)
        sp = rng.normal(size=(2, 3, 4))
        sf = rng.normal(size=(2, 3, 4))
        att = init_attention(4, rng)
        np.testing.assert_allclose(
            fuse_attention(Tensor(sp), Tensor(sf), att).values,
            attention_oracle(sp, sf, att), atol=1e-9)

        # adjacency constructions
        emb = rng.normal(size=(4, 3))
        np.testing.assert_allclose(adaptive_adjacency(Tensor(emb)).values,
                                   oracle_adaptive(emb, emb), atol=1e-9)
        src, dst = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            adaptive_adjacency_directed(Tensor(src), Tensor(dst)).values,
            oracle_adaptive(src, dst), atol=1e-9)
        series = rng.normal(size=(5, 30))
        adj = pearson_topk_adjacency(series, k=2)
        corr = np.corrcoef(series)
        for i in range(5):
            kept = [j for j in range(5) if adj[i, j] != 0.0]
            assert len(kept) == 2 and i not in kept
            ranked = sorted((j for j in range(5) if j != i),
                            key=lambda j: (-corr[i, j], j))[:2]
            assert sorted(kept) == sorted(ranked)
            for j in kept:
                assert abs(adj[i, j] - corr[i, j]) < 1e-9

        # whole pipeline on the toy model
        model = toy_model(seed=seed)
        x2, e_p, e_f, _ = toy_inputs(seed=seed + 40)
        got_full, got_alpha = model.forward(x2, e_p, e_f)
        want_full, want_alpha = forward_oracle(model, x2, e_p, e_f)
        np.testing.assert_allclose(got_full.values, want_full, atol=1e-9)
        np.testing.assert_allclose(got_alpha.values, want_alpha, atol=1e-9)
    report(2, "scalar-loop oracles agree to 1e-9 on 20 instances each")


# ---------------------------------------------------------------------------
# 3. Algebraic invariants
# ---------------------------------------------------------------------------

def test_criterion_3_algebraic_invariants():
    rng = np.random.default_rng(1)

    # gate simplex
    for _ in range(10):
        bank = init_expert_bank(3, 4, rng)
        g = moe_gate(Tensor(rng.normal(size=(3, 5, 3)) * 10), bank.gate)
        assert (g.values >= 0).all()
        np.testing.assert_allclose(g.values.sum(axis=-1), np.ones((3, 5)),
                                   atol=1e-9)

    # alpha inside (0, 1)
    for _ in range(10):
        p = init_balancer(4, rng)
        _, alpha = context_balance(Tensor(rng.normal(size=(3, 4, 1)) * 3),
                                   Tensor(rng.normal(size=(3, 4, 1)) * 3), p)
        assert (alpha.values > 0).all() and (alpha.values < 1).all()

    # equal branches -> exactly 3 * Y0 (alpha = 0.5 via zeroed balancer,
    # dyadic inputs keep the arithmetic exact)
    y0 = np.array([[[1.5], [-0.75]], [[0.5], [2.0]]])
    p = init_balancer(2, rng)
    for t in p.parameters("b").values():
        t.values[...] = 0.0
    y_hat, alpha = context_balance(Tensor(y0), Tensor(y0.copy()), p)
    np.testing.assert_array_equal(y_hat.values, 3.0 * y0)

    # K = 1 mixture reduces to its single linear map
    bank1 = init_expert_bank(3, 1, rng)
    rep = rng.normal(size=(2, 4, 3))
    out = moe_select(Tensor(rep), bank1, moe_gate(Tensor(rep), bank1.gate))
    np.testing.assert_allclose(out.values, rep @ bank1.experts[0].values,
                               atol=1e-12)

    # zeroed balancer: sigma(0) = 0.5 -> alpha = 0.5 -> 1.5 * (Y_p + Y_f)
    yp = rng.normal(size=(3, 2, 1))
    yf = rng.normal(size=(3, 2, 1))
    y_hat, alpha = context_balance(Tensor(yp), Tensor(yf), p)
    np.testing.assert_array_equal(alpha.values, np.full(2, 0.5))
    np.testing.assert_allclose(y_hat.values, 1.5 * (yp + yf), atol=1e-12)

    # RMSE >= MAE and the MRE identity
    for seed in range(10):
        r = np.random.default_rng(seed)
        y = r.normal(size=200) * 4
        y_hat_v = y + r.normal(size=200)
        rec = metrics(y, y_hat_v)
        assert rec.rmse >= rec.mae
        identity = 100.0 * rec.mae * y.size / np.abs(y).sum()
        assert abs(rec.mre - identity) < 1e-12
    report(3, "algebraic invariants hold")


# ---------------------------------------------------------------------------
# 4. Protocol fidelity
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=60, max_value=600))
def test_criterion_4a_split_leakage_property(t):
    panel = add_date_channels(synth_generate(SynthConfig(nodes=2, steps=t,
                                                         lag=2, seed=t)))
    train_p, val_p, test_p = chronological_split(panel)
    assert train_p.n_steps + val_p.n_steps + test_p.n_steps == t
    assert train_p.n_steps == math.floor(0.7 * t)
    assert val_p.n_steps == math.floor(0.2 * t)
    assert max(train_p.timestamps) < min(val_p.timestamps) < min(test_p.timestamps)
    glued = np.concatenate([train_p.data, val_p.data, test_p.data], axis=1)
    np.testing.assert_array_equal(glued, panel.data)


def test_criterion_4_protocol_fidelity():
    # 24 -> 24 windows
    panel = add_date_channels(synth_generate(SynthConfig(nodes=2, steps=100,
                                                         lag=2, seed=0)))
    samples, _ = make_windows(panel, 24, 24)
    assert len(samples) == 100 - 48 + 1
    s = samples[10]
    assert s.x.shape[1] == 24 and s.y.shape[1] == 24
    assert s.e_future.shape[1] == 24
    # zero leakage inside every window
    tgt = panel.target_index
    np.testing.assert_array_equal(s.y[:, :, 0], panel.data[:, 34:58, tgt])
    np.testing.assert_array_equal(s.x[:, :, 0], panel.data[:, 10:34, tgt])

    # cosine endpoints, exact
    cfg = TrainConfig(epochs=500)
    assert cosine_lr(0, cfg) == 1e-2
    assert cosine_lr(499, cfg) == 1e-7

    # early stopping fires exactly at patience 30 on a constant trace
    stopper = EarlyStopper(patience=30)
    fired = None
    for epoch in range(300):
        value = 5.0 - 0.1 * epoch if epoch <= 5 else 4.5
        if stopper.update(value, epoch):
            fired = epoch
            break
    assert fired == 35 and stopper.best_epoch == 5
    report(4, "split / window / schedule / early-stop protocol")


# ---------------------------------------------------------------------------
# 5. Overfit sanity
# ---------------------------------------------------------------------------

def test_criterion_5_overfit_sanity():
    started = time.perf_counter()
    synth = SynthConfig(nodes=4, steps=512, lag=5, noise=0.0, seed=11)
    panel = synth_generate(synth)
    target_std = panel.data[:, :, panel.target_index].std()
    prepared = prepare_splits(panel, t_past=8, t_future=4)
    cfg = ModelConfig(
        n_nodes=4, past_exo_dim=len(prepared.layout.past),
        future_exo_dim=len(prepared.layout.future), t_past=8, t_future=4,
        hidden=8, experts=2, backbone="mlp-mixer", mix_hidden=16,
        keep_prob=1.0, seed=1)
    model = ExoModel(cfg, target_series=prepared.train_target_series)
    t_cfg = TrainConfig(epochs=200, batch_size=512, seed=0, patience=200)
    train(model, prepared.train, prepared.train, prepared.scaler,
          prepared.target_channel, t_cfg)
    x, e_p, e_f, y = stack_samples(prepared.train)
    pred = model.predict(x, e_p, e_f)
    mae = metrics(
        prepared.scaler.inverse_channel(y, prepared.target_channel),
        prepared.scaler.inverse_channel(pred, prepared.target_channel)).mae
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"
    assert mae < 0.05 * target_std, \
        f"train MAE {mae:.4f} vs 5% of std {0.05 * target_std:.4f}"
    report(5, f"overfit sanity: train MAE {mae:.4f} = "
              f"{100 * mae / target_std:.1f}% of std in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Exogenous benefit
# ---------------------------------------------------------------------------

def test_criterion_6_exogenous_benefit():
    seeds = range(5)
    full, bare = zip(*(_benefit_run(1.2, 1.2, s) for s in seeds))
    med_full, med_bare = np.median(full), np.median(bare)
    gain = (med_bare - med_full) / med_bare
    assert gain >= 0.20, f"median improvement {gain:.2%} below 20%"

    full0, bare0 = zip(*(_benefit_run(0.0, 0.0, s) for s in seeds))
    med_full0, med_bare0 = np.median(full0), np.median(bare0)
    tie_gap = abs(med_full0 - med_bare0) / med_bare0
    assert tie_gap <= 0.05, f"no-signal variants differ by {tie_gap:.2%}"
    report(6, f"exogenous benefit {gain:.1%} with signal, "
              f"tie gap {tie_gap:.2%} without")


# ---------------------------------------------------------------------------
# 7. Corruption robustness harness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("accept_data")
    assert cli_main(["synth", "--out", str(data_dir), "--nodes", "3",
                     "--steps", "260", "--lag", "3", "--seed", "5"]) == 0
    run_dir = tmp_path_factory.mktemp("accept_run")
    args = ["train", "--data", str(data_dir / "panel.csv"),
            "--schema", str(data_dir / "panel.schema.json"),
            "--out", str(run_dir), "--seed", "2",
            "--t-past", "6", "--t-future", "4", "--hidden", "4",
            "--experts", "2", "--mix-hidden", "4", "--backbone", "mlp-mixer",
            "--epochs", "4", "--batch", "64", "--keep-prob", "1.0"]
    assert cli_main(args) == 0
    return data_dir, run_dir, args


def test_criterion_7_corruption_harness(desk_run, tmp_path):
    data_dir, run_dir, _ = desk_run
    out = tmp_path / "grid"
    assert cli_main(["corrupt-eval", "--model-dir", str(run_dir),
                     "--out", str(out)]) == 0
    rows = json.loads((out / "corruption.json").read_text())
    grid = {(r["strategy"], r["ratio"]) for r in rows[1:]}
    assert grid == {(s, r) for s in ("zero", "random")
                    for r in (0.2, 0.4, 0.6, 0.8)}

    # ratio-0 equals the uncorrupted evaluation bit-exactly
    plain = tmp_path / "plain"
    zero_ratio = tmp_path / "zero_ratio"
    assert cli_main(["eval", "--model-dir", str(run_dir),
                     "--out", str(plain)]) == 0
    assert cli_main(["eval", "--model-dir", str(run_dir),
                     "--out", str(zero_ratio), "--corrupt", "zero",
                     "--corrupt-ratio", "0.0"]) == 0
    assert (plain / "metrics.json").read_bytes() == \
        (zero_ratio / "metrics.json").read_bytes()
    baseline = json.loads((plain / "metrics.json").read_text())[0]
    assert rows[0]["mae"] == baseline["mae"]
    assert rows[0]["rmse"] == baseline["rmse"]

    # ratio-1 zero strategy equals hard-zeroed exogenous channels bit-exactly
    from exoforecast.cli import _load_run
    run, model, prepared = _load_run(run_dir)
    corrupted = corrupt_exogenous(prepared.test, prepared.layout, "zero", 1.0,
                                  seed=0)
    rec_corrupt = evaluate(model, corrupted, prepared.scaler,
                           prepared.target_channel)
    hard = mask_exogenous(prepared.test, prepared.layout,
                          use_past=False, use_future=False, use_date=True)
    rec_hard = evaluate(model, hard, prepared.scaler, prepared.target_channel)
    assert rec_corrupt.mae == rec_hard.mae
    assert rec_corrupt.rmse == rec_hard.rmse
    assert rec_corrupt.mape == rec_hard.mape
    report(7, "corruption grid complete; boundary rows bit-exact")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(desk_run, tmp_path):
    _, run_dir, args = desk_run
    rerun = tmp_path / "rerun"
    rerun_args = list(args)
    rerun_args[rerun_args.index("--out") + 1] = str(rerun)
    assert cli_main(rerun_args) == 0
    for name in ("config.json", "model.bin", "history.jsonl",
                 "metrics.json", "metrics.txt"):
        assert (rerun / name).read_bytes() == (run_dir / name).read_bytes(), name
    eval_a = tmp_path / "eval_a"
    eval_b = tmp_path / "eval_b"
    for out in (eval_a, eval_b):
        assert cli_main(["eval", "--model-dir", str(run_dir),
                         "--out", str(out), "--horizon-days", "2"]) == 0
    assert (eval_a / "metrics.json").read_bytes() == \
        (eval_b / "metrics.json").read_bytes()
    report(8, "byte-identical archives and reports across reruns")
