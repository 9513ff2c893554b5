"""Tests for the assembled forecasting model."""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from exoforecast import autodiff as ad
from exoforecast import model as model_module
from exoforecast.autodiff import Tensor, grad_check
from exoforecast.fusion import FUSION_STRATEGIES
from exoforecast.model import ExoModel, ModelConfig, load_model, load_tensors, save_model, save_tensors
from helpers import no_child_left, sigmoid, traced_peak

SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_config(**overrides) -> ModelConfig:
    base = dict(n_nodes=2, past_exo_dim=1, future_exo_dim=1,
                t_past=3, t_future=2, hidden=2, experts=2, backbone="grugcn",
                graph_kind="identity", mix_hidden=3, keep_prob=1.0, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_inputs(cfg, seed=0, batch=None):
    rng = np.random.default_rng(seed)
    shape = (cfg.n_nodes,) if batch is None else (batch, cfg.n_nodes)
    x = rng.normal(size=shape + (cfg.t_past, 1))
    e_p = rng.normal(size=shape + (cfg.t_past, cfg.past_exo_dim))
    e_f = rng.normal(size=shape + (cfg.t_future, cfg.future_exo_dim))
    return x, e_p, e_f


def forward_oracle(model: ExoModel, x, e_p, e_f):
    """Engine-independent re-computation of the default pipeline
    (context fusion, identity graph prep, no dropout)."""
    cfg = model.config

    def embed(xa, ea, p, pad_side):
        t = max(xa.shape[1], ea.shape[1])

        def pad(a):
            if a.shape[1] == t:
                return a
            fill = np.zeros((a.shape[0], t - a.shape[1], a.shape[2]))
            return np.concatenate([fill, a] if pad_side == "head" else [a, fill],
                                  axis=1)

        xa, ea = pad(xa), pad(ea)
        pre = xa @ p.w_x.values + ea @ p.w_e.values + p.b.values
        return np.maximum(pre, 0.0) if p.activation == "relu" else pre

    def select(rep, bank):
        logits = rep @ bank.gate.values
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        g = e / e.sum(axis=-1, keepdims=True)
        out = np.zeros_like(rep)
        for k, w in enumerate(bank.experts):
            out += g[..., k:k + 1] * (rep @ w.values)
        return out

    def backbone(rep, params):
        adj = model.graph.adjacency
        n, t, h = rep.shape
        state = np.zeros((n, h))
        for t_i in range(t):
            s = (adj @ rep[:, t_i, :]) @ params.w_s.values
            cat = np.concatenate([s, state], axis=-1)
            z = 1.0 / (1.0 + np.exp(-(cat @ params.w_z.values + params.b_z.values)))
            r = 1.0 / (1.0 + np.exp(-(cat @ params.w_r.values + params.b_r.values)))
            cat_r = np.concatenate([s, r * state], axis=-1)
            c = np.tanh(cat_r @ params.w_c.values + params.b_c.values)
            state = (1 - z) * state + z * c
        ro = params.readout
        lifted = (state @ ro.w_seq.values + ro.b_seq.values)
        pen = lifted.reshape(n, cfg.t_future, cfg.hidden)
        return pen @ ro.w_out.values + ro.b_out.values

    x_p = select(embed(x, e_p, model.embed_p, "head"), model.bank_p)
    x_f = select(embed(x, e_f, model.embed_f, "tail"), model.bank_f)
    y_p = backbone(x_p, model.backbone_p)
    y_f = backbone(x_f, model.backbone_f)
    ysum = y_p + y_f
    d = ysum.mean(axis=0)[:, 0]
    b = model.balancer
    hidden = np.maximum(d @ b.w1.values + b.b1.values, 0.0)
    alpha = np.array([sigmoid(v) for v in hidden @ b.w2.values + b.b2.values])
    y_hat = alpha[None, :, None] * y_p + (1 - alpha[None, :, None]) * y_f + ysum
    return y_hat, alpha


class TestForward:
    def test_default_output_shape_24(self):
        cfg = tiny_config(t_past=24, t_future=24, backbone="mlp-mixer")
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg)
        y_hat, alpha = model.forward(x, e_p, e_f)
        assert y_hat.shape == (2, 24, 1)
        assert alpha.shape == (24,)

    def test_batched_forward(self):
        cfg = tiny_config()
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg, batch=4)
        y_hat, alpha = model.forward(x, e_p, e_f)
        assert y_hat.shape == (4, 2, 2, 1)
        assert alpha.shape == (4, 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_end_to_end_oracle(self, seed):
        cfg = tiny_config(seed=seed)
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg, seed=seed + 50)
        y_hat, alpha = model.forward(x, e_p, e_f)
        expected, expected_alpha = forward_oracle(model, x, e_p, e_f)
        np.testing.assert_allclose(y_hat.values, expected, atol=1e-9)
        np.testing.assert_allclose(alpha.values, expected_alpha, atol=1e-9)

    def test_eval_forward_is_deterministic(self):
        cfg = tiny_config(keep_prob=0.8)
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg)
        a = model.predict(x, e_p, e_f)
        b = model.predict(x, e_p, e_f)
        np.testing.assert_array_equal(a, b)

    def test_train_dropout_perturbs(self):
        cfg = tiny_config(keep_prob=0.5)
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg)
        ref = model.predict(x, e_p, e_f)
        out, _ = model.forward(x, e_p, e_f, rng=np.random.default_rng(3))
        assert np.abs(out.values - ref).max() > 0

    @pytest.mark.parametrize("fusion", FUSION_STRATEGIES)
    def test_forward_without_rng_is_predict_and_draws_nothing(self, fusion):
        """No rng means eval mode even with dropout configured: the forecast
        equals ``predict``'s by bytes, and numpy's global generator, the one
        a forward could draw from unasked, gives the same next draws."""
        cfg = tiny_config(keep_prob=0.5, fusion=fusion)
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg, batch=3)
        state = np.random.get_state()
        y_hat, _ = model.forward(x, e_p, e_f)
        after = np.random.random(3)
        np.random.set_state(state)
        assert after.tobytes() == np.random.random(3).tobytes()
        assert y_hat.values.tobytes() == model.predict(x, e_p, e_f).tobytes()

    def test_forward_with_rng_at_keep_prob_one_draws_nothing(self):
        cfg = tiny_config(keep_prob=1.0)
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg, batch=3)
        rng = np.random.default_rng(4)
        y_hat, _ = model.forward(x, e_p, e_f, rng=rng)
        assert rng.random(3).tobytes() == np.random.default_rng(4).random(3).tobytes()
        assert y_hat.values.tobytes() == model.predict(x, e_p, e_f).tobytes()

    def test_unequal_window_lengths_pad(self):
        cfg = tiny_config(t_past=5, t_future=3, backbone="mlp-mixer")
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg)
        y_hat, _ = model.forward(x, e_p, e_f)
        assert y_hat.shape == (2, 3, 1)


class TestConfig:
    @pytest.mark.parametrize("keep_prob", [0.0, -0.1, 1.5, float("nan")])
    def test_rejects_keep_prob_outside_unit_interval(self, keep_prob):
        with pytest.raises(ValueError, match=r"keep_prob must be in \(0, 1\]"):
            tiny_config(keep_prob=keep_prob)

    @pytest.mark.parametrize("keep_prob", [1e-9, 0.5, 1.0])
    def test_accepts_keep_prob_in_unit_interval(self, keep_prob):
        assert tiny_config(keep_prob=keep_prob).keep_prob == keep_prob


class TestStrategies:
    def test_degenerate_composition_single_backbone(self):
        # shared encoder + no selector + zero exogenous +
        # identity embedding collapses to one backbone forecast of X
        cfg = tiny_config(fusion="shared", use_selector=False, hidden=1)
        model = ExoModel(cfg)
        model.embed_p.activation = model.embed_f.activation = "identity"
        model.embed_p.w_x.values[...] = np.eye(1)
        model.embed_p.w_e.values[...] = 0.0
        model.embed_p.b.values[...] = 0.0
        model.embed_f.w_x.values[...] = np.eye(1)
        model.embed_f.w_e.values[...] = 0.0
        model.embed_f.b.values[...] = 0.0
        x, e_p, e_f = tiny_inputs(cfg)
        e_p, e_f = np.zeros_like(e_p), np.zeros_like(e_f)
        # future branch pads x with zeros at the tail when lengths differ;
        # here lengths match, so both branches see exactly x
        y_hat, _ = model.forward(x, e_p, e_f)
        from exoforecast.backbones import backbone_forward
        direct, _ = backbone_forward(Tensor(x), model.graph.matrix(),
                                     model.backbone_p, model.spec)
        np.testing.assert_array_equal(y_hat.values, direct.values)

    def test_shared_strategy_has_single_backbone(self):
        shared = ExoModel(tiny_config(fusion="shared"))
        dual = ExoModel(tiny_config(fusion="simple"))
        assert shared.backbone_f is None
        names = set(shared.parameters())
        assert not any(n.startswith("backbone.f") for n in names)
        assert len(dual.parameters()) > len(names)

    def test_attention_zero_projections_average_branches(self):
        cfg = tiny_config(fusion="attention")
        model = ExoModel(cfg)
        for name in ("w_q", "w_k", "w_v"):
            getattr(model.attention, name).values[...] = 0.0
        x, e_p, e_f = tiny_inputs(cfg)
        y_hat, _ = model.forward(x, e_p, e_f)
        # with V = 0 the enhanced states equal the penultimate features, so
        # the output is the average of the two branch forecasts
        from exoforecast.backbones import backbone_forward
        from exoforecast.selector import select_stage
        x_p = select_stage(Tensor(x), Tensor(e_p), model.embed_p, model.bank_p,
                           pad_side="head")
        x_f = select_stage(Tensor(x), Tensor(e_f), model.embed_f, model.bank_f,
                           pad_side="tail")
        y_p, _ = backbone_forward(x_p, model.graph.matrix(), model.backbone_p,
                                  model.spec)
        y_f, _ = backbone_forward(x_f, model.graph.matrix(), model.backbone_f,
                                  model.spec)
        np.testing.assert_allclose(
            y_hat.values, 0.5 * (y_p.values + y_f.values), atol=1e-12)

    def test_balancer_bypass_is_elementwise_add(self):
        from exoforecast.backbones import backbone_forward
        from exoforecast.selector import select_stage
        cfg = tiny_config(fusion="sum")
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg)
        y_hat, alpha = model.forward(x, e_p, e_f)
        assert alpha is None
        x_p = select_stage(Tensor(x), Tensor(e_p), model.embed_p, model.bank_p,
                           pad_side="head")
        x_f = select_stage(Tensor(x), Tensor(e_f), model.embed_f, model.bank_f,
                           pad_side="tail")
        y_p, _ = backbone_forward(x_p, model.graph.matrix(), model.backbone_p,
                                  model.spec)
        y_f, _ = backbone_forward(x_f, model.graph.matrix(), model.backbone_f,
                                  model.spec)
        np.testing.assert_array_equal(y_hat.values, y_p.values + y_f.values)

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ValueError, match="fusion"):
            ExoModel(tiny_config(fusion="voting"))

    @pytest.mark.parametrize("fusion", ["context", "simple", "shared",
                                        "learnable", "attention"])
    def test_all_strategies_produce_contract_shape(self, fusion):
        cfg = tiny_config(fusion=fusion)
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg)
        y_hat, _ = model.forward(x, e_p, e_f)
        assert y_hat.shape == (2, 2, 1)


class TestGradients:
    @pytest.mark.parametrize("fusion", ["context", "simple", "shared",
                                        "learnable", "attention"])
    def test_gradcheck_every_strategy(self, fusion):
        cfg = tiny_config(fusion=fusion)
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg, seed=4)
        wrt = list(model.parameters().values())

        def f():
            y_hat, _ = model.forward(x, e_p, e_f)
            return ad.reduce_sum(y_hat)

        assert grad_check(f, wrt, step=1e-5) < 1e-4

    def test_gradcheck_with_adaptive_graph(self):
        cfg = tiny_config(graph_kind="adaptive")
        model = ExoModel(cfg)
        x, e_p, e_f = tiny_inputs(cfg, seed=5)
        wrt = list(model.parameters().values())
        assert "graph.embeddings" in model.parameters()

        def f():
            y_hat, _ = model.forward(x, e_p, e_f)
            return ad.reduce_sum(y_hat)

        assert grad_check(f, wrt, step=1e-5) < 1e-4


class TestArchive:
    def test_tensor_archive_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=(2,)),
                   "scalar": np.array(1.5)}
        path = tmp_path / "t.bin"
        save_tensors(path, tensors)
        back = load_tensors(path)
        assert set(back) == set(tensors)
        for k in tensors:
            np.testing.assert_array_equal(back[k], tensors[k])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTANARCHIVE")
        with pytest.raises(ValueError, match="magic"):
            load_tensors(p)

    def test_model_round_trip_bit_exact(self, tmp_path):
        series = np.random.default_rng(1).normal(size=(2, 40))
        cfg = tiny_config(graph_kind="pearson", graph_k=1)
        model = ExoModel(cfg, target_series=series)
        x, e_p, e_f = tiny_inputs(cfg, seed=6)
        ref = model.predict(x, e_p, e_f)
        save_model(tmp_path / "m.bin", model)
        clone = load_model(tmp_path / "m.bin", cfg)
        np.testing.assert_array_equal(clone.predict(x, e_p, e_f), ref)

    def test_archive_bytes_deterministic(self, tmp_path):
        cfg = tiny_config()
        save_model(tmp_path / "a.bin", ExoModel(cfg))
        save_model(tmp_path / "b.bin", ExoModel(cfg))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_mismatched_archive_rejected(self, tmp_path):
        cfg = tiny_config()
        save_model(tmp_path / "m.bin", ExoModel(cfg))
        with pytest.raises(ValueError, match="mismatch"):
            load_model(tmp_path / "m.bin", tiny_config(hidden=3))


FUSIONS = ["context", "simple", "shared", "learnable", "attention"]


def _counting_forward(monkeypatch, model):
    """Record the batch size of every ``model.forward`` call."""
    sizes = []
    forward = model.forward

    def counted(x, *args, **kwargs):
        sizes.append(len(x) if np.ndim(x) == 4 else None)
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(model, "forward", counted)
    return sizes


def _chunk_offsets(monkeypatch, model, x, log, fail=lambda lo: None):
    """Append to ``log`` the (window offset into ``x``, batch size, pid,
    BLAS threads) of every ``model.forward`` call, in whichever process
    makes it, then call ``fail(offset)``, which may raise or end that
    process; forked workers make the calls in no fixed order."""
    forward = model.forward

    def counted(xs, *args, **kwargs):
        lo = (xs.ctypes.data - x.ctypes.data) // x.strides[0]
        log.write(lo, len(xs), os.getpid(), model_module._BLAS_THREADS[0]())
        fail(lo)
        return forward(xs, *args, **kwargs)

    monkeypatch.setattr(model, "forward", counted)


needs_blas_control = pytest.mark.skipif(
    model_module._BLAS_THREADS is None,
    reason="numpy's OpenBLAS thread control is unreachable, so predict runs serially")


class TestChunkedPredict:
    @pytest.mark.parametrize("backbone", ["grugcn", "mlp-mixer"])
    @pytest.mark.parametrize("fusion", FUSIONS)
    def test_chunks_equal_one_forward_by_bytes(self, monkeypatch, backbone, fusion):
        cfg = tiny_config(n_nodes=3, t_past=4, t_future=3, hidden=4, backbone=backbone,
                          graph_kind="pearson", graph_k=1, fusion=fusion, keep_prob=0.8)
        model = ExoModel(cfg, target_series=np.random.default_rng(1).normal(size=(3, 30)))
        chunk = 3
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", 1)
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", chunk * 3 * 4 * 4)  # c * N * T * H
        x, e_p, e_f = tiny_inputs(cfg, seed=2, batch=3 * chunk + 2)
        sizes = _counting_forward(monkeypatch, model)
        for b in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
            whole = ExoModel.forward(model, x[:b], e_p[:b], e_f[:b])[0].values
            sizes.clear()
            got = model.predict(x[:b], e_p[:b], e_f[:b])
            assert got.shape == whole.shape and got.tobytes() == whole.tobytes()
            assert sizes == [min(chunk, b - lo) for lo in range(0, b, chunk)]
        whole = ExoModel.forward(model, x[0], e_p[0], e_f[0])[0].values
        assert model.predict(x[0], e_p[0], e_f[0]).tobytes() == whole.tobytes()

    def test_paper_shape_chunk_is_seven(self, monkeypatch):
        cfg = tiny_config(n_nodes=24, past_exo_dim=12, future_exo_dim=12, t_past=24,
                          t_future=24, hidden=64, experts=4, backbone="mlp-mixer")
        model = ExoModel(cfg)
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", 1)
        sizes = _counting_forward(monkeypatch, model)
        model.predict(*tiny_inputs(cfg, batch=15))
        assert sizes == [7, 7, 1]

    @needs_blas_control
    def test_paper_shape_chunk_is_three_per_worker(self, monkeypatch, call_log):
        cfg = tiny_config(n_nodes=24, past_exo_dim=12, future_exo_dim=12, t_past=24,
                          t_future=24, hidden=64, experts=4, backbone="mlp-mixer")
        model = ExoModel(cfg)
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", 2)
        inputs = tiny_inputs(cfg, batch=15)
        _chunk_offsets(monkeypatch, model, inputs[0], call_log)
        model.predict(*inputs)
        assert sorted(row[:2] for row in call_log.rows()) == \
            [(0, 3), (3, 3), (6, 3), (9, 3), (12, 3)]

    def test_chunk_bound_reads_the_longer_window(self, monkeypatch):
        cfg = tiny_config(t_past=3, t_future=6)
        model = ExoModel(cfg)
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", 1)
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", 2 * 6 * 2 * 2)
        sizes = _counting_forward(monkeypatch, model)
        model.predict(*tiny_inputs(cfg, batch=5))
        assert sizes == [2, 2, 1]

    def test_peak_memory_is_one_chunk(self):
        """At the paper width, 4 chunks of windows peak below twice one chunk."""
        cfg = tiny_config(n_nodes=24, past_exo_dim=12, future_exo_dim=12, t_past=24,
                          t_future=24, hidden=64, experts=4, graph_kind="pearson")
        model = ExoModel(cfg, target_series=np.random.default_rng(0).normal(size=(24, 96)))
        chunk = model_module.PREDICT_CHUNK // (24 * 24 * 64)
        inputs = tiny_inputs(cfg, batch=4 * chunk)
        peaks = {}
        for b in (chunk, 4 * chunk):
            batch = tuple(a[:b] for a in inputs)
            peaks[b] = traced_peak(lambda: model.predict(*batch))[1]
        assert peaks[4 * chunk] < 2 * peaks[chunk], peaks
        whole = model.forward(*inputs)[0].values
        assert model.predict(*inputs).tobytes() == whole.tobytes()


@contextlib.contextmanager
def _guarded(blas_threads: int, seconds: int = 60):
    """BLAS at ``blas_threads`` for a ``with`` block, which must end within
    ``seconds``, leave BLAS there and leave no child process."""
    get_threads, set_threads = model_module._BLAS_THREADS

    def expire(signum, frame):
        raise TimeoutError(f"predict ran over {seconds} s")

    before, on_alarm = get_threads(), signal.signal(signal.SIGALRM, expire)
    set_threads(blas_threads)
    signal.alarm(seconds)  # a forked child starts with no alarm of its own
    try:
        yield
        assert get_threads() == blas_threads and no_child_left()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, on_alarm)
        set_threads(before)


class WindowError(ValueError):
    """An exception that ``pickle`` rebuilds from its one argument."""


class TwoPartError(Exception):
    """An exception that ``pickle`` cannot rebuild: it takes two arguments."""

    def __init__(self, window, why):
        super().__init__(f"window {window}: {why}")


@needs_blas_control
class TestPredictWorkers:
    """Chunks forecast on forked workers equal the serial ones by bytes, and
    ``predict`` leaves BLAS's thread count and this process's Python threads
    as it found them, with no child process left."""

    @pytest.mark.parametrize("backbone", ["grugcn", "mlp-mixer"])
    @pytest.mark.parametrize("fusion", FUSIONS)
    def test_two_workers_equal_one_by_bytes(self, monkeypatch, call_log, backbone, fusion):
        cfg = tiny_config(n_nodes=3, t_past=4, t_future=3, hidden=4, backbone=backbone,
                          graph_kind="pearson", graph_k=1, fusion=fusion, keep_prob=0.8)
        model = ExoModel(cfg, target_series=np.random.default_rng(1).normal(size=(3, 30)))
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", 2 * 3 * 4 * 4)  # 2 * N * T * H
        inputs = tiny_inputs(cfg, seed=2, batch=11)
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(model_module, "PREDICT_WORKERS", workers)
            with monkeypatch.context() as m:
                _chunk_offsets(m, model, inputs[0], call_log)
                got[workers] = model.predict(*inputs)
            # the workers together hold the one worker's 2 windows
            assert sorted(row[:2] for row in call_log.take()) == \
                [(lo, min(2 // workers, 11 - lo)) for lo in range(0, 11, 2 // workers)]
        assert got[2].shape == got[1].shape and got[2].tobytes() == got[1].tobytes()
        assert no_child_left()

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        """Workers share the model's parameters and its adaptive graph, read only."""
        cfg = tiny_config(n_nodes=3, t_past=4, t_future=3, hidden=4,
                          graph_kind="adaptive", fusion="attention")
        model = ExoModel(cfg)
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", 3 * 4 * 4)  # one window
        inputs = tiny_inputs(cfg, seed=3, batch=40)
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", 1)
        serial = model.predict(*inputs)
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", 2 * len(os.sched_getaffinity(0)) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            forked = [model.predict(*inputs) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(f.tobytes() == serial.tobytes() for f in forked)
        assert no_child_left()

    @staticmethod
    def _one_window_chunks(monkeypatch, workers, batch):
        cfg = tiny_config(n_nodes=3, t_past=4, t_future=3, hidden=4)
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", workers)
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", workers * 3 * 4 * 4)
        return ExoModel(cfg), tiny_inputs(cfg, seed=4, batch=batch)

    def test_calling_thread_forwards_its_share(self, monkeypatch, call_log):
        """The caller forwards the first of W contiguous blocks of windows,
        and W - 1 forked children, no more, one later block each."""
        model, inputs = self._one_window_chunks(monkeypatch, 3, 9)
        serial = model.forward(*inputs)[0].values
        _chunk_offsets(monkeypatch, model, inputs[0], call_log)
        threads = threading.active_count()
        got = model.predict(*inputs)
        assert got.tobytes() == serial.tobytes()
        rows = sorted(call_log.rows())
        assert [row[:2] for row in rows] == [(lo, 1) for lo in range(9)]
        pids = [pid for _, _, pid, _ in rows]
        assert pids[:3] == [os.getpid()] * 3
        assert pids[3:6] == [pids[3]] * 3 and pids[6:] == [pids[6]] * 3
        assert len(set(pids)) == 3
        assert threading.active_count() == threads and no_child_left()

    def test_no_child_records_on_the_callers_tape(self, monkeypatch, call_log):
        """Under an open tape the caller's block records as ``forward`` does,
        and each child clears the tape it inherits."""
        model, inputs = self._one_window_chunks(monkeypatch, 2, 4)
        forward = model.forward

        def logged(*args, **kwargs):
            call_log.write(os.getpid(), int(ad._active_tape() is not None))
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward", logged)
        with ad.Tape() as tape:
            model.predict(*inputs)
        rows = call_log.rows()
        assert [taped for pid, taped in rows if pid == os.getpid()] == [1, 1] and tape.nodes
        assert [taped for pid, taped in rows if pid != os.getpid()] == [0, 0]

    def test_callers_own_chunk_raises(self, monkeypatch, call_log):
        """The caller's exception comes out of ``predict`` after every child
        has been reaped; each worker held BLAS at one thread."""
        model, inputs = self._one_window_chunks(monkeypatch, 2, 6)

        def fail_on_the_caller(lo):
            if os.getpid() == caller:
                raise FloatingPointError("the caller's window")

        caller = os.getpid()
        _chunk_offsets(monkeypatch, model, inputs[0], call_log, fail_on_the_caller)
        with _guarded(2):
            with pytest.raises(FloatingPointError, match="^the caller's window$"):
                model.predict(*inputs)
        rows = call_log.rows()
        assert {blas for _, _, _, blas in rows} == {1}
        assert [pid for _, _, pid, _ in rows].count(caller) == 1

    def test_blas_and_python_threads_come_back(self, monkeypatch, call_log):
        model, inputs = self._one_window_chunks(monkeypatch, 2, 5)

        def fail_on_window_3(lo):
            if lo == 3:
                raise FloatingPointError("window 3")

        _chunk_offsets(monkeypatch, model, inputs[0], call_log, fail_on_window_3)
        threads = threading.active_count()
        with _guarded(2):
            model.predict(*(a[:3] for a in inputs))
        assert [blas for _, _, _, blas in call_log.take()] == [1, 1, 1]
        with _guarded(2):
            with pytest.raises(FloatingPointError, match="^window 3$"):
                model.predict(*inputs)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("error, raised, message", [
        (WindowError("window 4 of 6"), WindowError, "^window 4 of 6$"),
        (TwoPartError(4, "no data"), RuntimeError, "^TwoPartError: window 4: no data$"),
    ])
    def test_childs_exception_keeps_its_type_and_message(self, monkeypatch, call_log,
                                                          error, raised, message):
        """A child's exception comes out of ``predict`` as it was raised; one
        that ``pickle`` cannot rebuild comes back as one ``RuntimeError``
        line naming its type."""
        model, inputs = self._one_window_chunks(monkeypatch, 2, 6)

        def fail_on_window_4(lo):
            if lo == 4:
                raise error

        _chunk_offsets(monkeypatch, model, inputs[0], call_log, fail_on_window_4)
        with _guarded(2):
            with pytest.raises(raised, match=message):
                model.predict(*inputs)
        (child,) = [pid for lo, _, pid, _ in call_log.rows() if lo == 4]
        assert child != os.getpid()

    def test_killed_child_raises_one_line(self, monkeypatch, call_log):
        """A child killed by ``SIGKILL`` before it sends makes ``predict``
        raise one line naming its pid and the signal, not hang or return
        the windows it has."""
        model, inputs = self._one_window_chunks(monkeypatch, 2, 6)

        def kill_on_window_4(lo):
            if lo == 4:
                os.kill(os.getpid(), signal.SIGKILL)

        _chunk_offsets(monkeypatch, model, inputs[0], call_log, kill_on_window_4)
        with _guarded(2):
            with pytest.raises(RuntimeError) as raised:
                model.predict(*inputs)
        (child,) = [pid for lo, _, pid, _ in call_log.rows() if lo == 4]
        assert child != os.getpid()
        assert str(raised.value) == f"predict worker {child} was ended by SIGKILL"

    def test_failed_fork_leaks_no_pipe(self, monkeypatch):
        model, inputs = self._one_window_chunks(monkeypatch, 2, 6)

        def lowest_free_pair():
            ends = os.pipe()
            for end in ends:
                os.close(end)
            return ends

        def no_fork():
            raise BlockingIOError(11, "fork refused")

        free = lowest_free_pair()
        monkeypatch.setattr(os, "fork", no_fork)
        with _guarded(2):
            with pytest.raises(BlockingIOError, match="fork refused"):
                model.predict(*inputs)
        assert lowest_free_pair() == free


@needs_blas_control
class TestForkSafety:
    """A fork cannot hang ``predict``: not after OpenBLAS has started its
    thread pool, and not while another Python thread is alive."""

    def test_fork_after_blas_started_its_pool(self):
        script = textwrap.dedent("""
            import numpy as np
            from exoforecast import model as model_module
            from exoforecast.model import ExoModel, ModelConfig

            get_threads, set_threads = model_module._BLAS_THREADS
            set_threads(2)
            a = np.ones((1000, 1000))
            a @ a  # OpenBLAS's pool now has a thread running beside this one
            cfg = ModelConfig(n_nodes=3, past_exo_dim=1, future_exo_dim=1, t_past=4,
                              t_future=3, hidden=4, experts=2, mix_hidden=3,
                              graph_kind="identity", seed=0)
            model = ExoModel(cfg)
            rng = np.random.default_rng(0)
            inputs = [rng.normal(size=(9, 3, t, 1)) for t in (4, 4, 3)]
            model_module.PREDICT_CHUNK = 2 * 3 * 4 * 4
            got = {}
            for workers in (1, 2):
                model_module.PREDICT_WORKERS = workers
                got[workers] = model.predict(*inputs)
            assert got[2].tobytes() == got[1].tobytes() and get_threads() == 2
            print("same bytes")
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (0, "same bytes\n"), done.stderr

    def test_live_thread_keeps_every_chunk_in_the_caller(self, monkeypatch, call_log):
        cfg = tiny_config(n_nodes=3, t_past=4, t_future=3, hidden=4)
        monkeypatch.setattr(model_module, "PREDICT_WORKERS", 2)
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", 2 * 3 * 4 * 4)
        model, inputs = ExoModel(cfg), tiny_inputs(cfg, seed=5, batch=9)
        serial = model.forward(*inputs)[0].values
        _chunk_offsets(monkeypatch, model, inputs[0], call_log)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            got = model.predict(*inputs)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert got.tobytes() == serial.tobytes()
        # one worker's chunk of 2 windows, all of them forwarded here
        assert sorted(row[:3] for row in call_log.rows()) == \
            [(lo, min(2, 9 - lo), os.getpid()) for lo in range(0, 9, 2)]
        assert no_child_left()
