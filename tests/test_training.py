"""Tests for metrics, schedule, optimizer, training loop and evaluation."""

import copy
import json
import math

import numpy as np
import pytest

from exoforecast.autodiff import Tensor, grad_check
from exoforecast.data import (
    Scaler,
    SynthConfig,
    add_date_channels,
    make_rollout_windows,
    prepare_splits,
    synth_generate,
)
from exoforecast.model import ExoModel, ModelConfig
from exoforecast.training import (
    AdamWState,
    EarlyStopper,
    MetricsRecord,
    TrainConfig,
    _loss_tensor,
    adamw_step,
    cosine_lr,
    evaluate,
    metrics,
    stack_samples,
    train,
)
from helpers import traced_peak


class TestMetrics:
    def test_perfect_prediction(self):
        rec = metrics([1.0, -2.0, 3.0], [1.0, -2.0, 3.0])
        assert rec.mae == rec.rmse == rec.mape == rec.mre == 0.0

    def test_symmetric_two_point(self):
        rec = metrics([2.0, 2.0], [1.0, 3.0])
        assert rec.mae == 1.0
        assert rec.rmse == 1.0
        assert rec.mape == 50.0
        assert rec.mre == 50.0

    def test_asymmetric_two_point(self):
        rec = metrics([1.0, 3.0], [2.0, 2.0])
        assert rec.mae == 1.0
        assert rec.rmse == 1.0
        assert rec.mre == 50.0
        np.testing.assert_allclose(rec.mape, (100.0 + 100.0 / 3.0) / 2.0)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(size=50)
            y_hat = y + rng.normal(size=50)
            rec = metrics(y, y_hat)
            assert rec.rmse >= rec.mae

    def test_mre_identity(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=100) * 5
        y_hat = y + rng.normal(size=100)
        rec = metrics(y, y_hat)
        identity = 100.0 * rec.mae * y.size / np.abs(y).sum()
        assert abs(rec.mre - identity) < 1e-12

    def test_mape_skips_near_zero_targets(self):
        rec = metrics([0.0, 2.0], [5.0, 1.0])
        assert rec.mape == 50.0  # the zero-target entry is skipped

    def test_mre_undefined_marker(self):
        rec = metrics([0.0, 0.0], [1.0, 1.0])
        assert math.isnan(rec.mre)
        assert rec.to_dict()["mre"] is None

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            metrics([], [])
        with pytest.raises(ValueError, match="length"):
            metrics([1.0], [1.0, 2.0])


class TestCosine:
    def test_endpoints_exact(self):
        cfg = TrainConfig(epochs=500)
        assert cosine_lr(0, cfg) == 1e-2
        assert cosine_lr(499, cfg) == 1e-7

    def test_midpoint(self):
        cfg = TrainConfig(epochs=101)
        np.testing.assert_allclose(cosine_lr(50, cfg), (1e-2 + 1e-7) / 2)

    def test_monotone_nonincreasing(self):
        cfg = TrainConfig(epochs=80)
        rates = [cosine_lr(e, cfg) for e in range(80)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_single_epoch_guard(self):
        assert cosine_lr(0, TrainConfig(epochs=1)) == 1e-2


class TestAdamW:
    def _params(self, values):
        t = Tensor(np.array(values), requires_grad=True)
        return {"w": t}, t

    def test_zero_grad_zero_decay_is_identity(self):
        params, t = self._params([1.0, -2.0])
        adamw_step(params, AdamWState(), lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(t.values, [1.0, -2.0])

    def test_zero_grad_with_decay_scales(self):
        params, t = self._params([1.0, -2.0])
        adamw_step(params, AdamWState(), lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(t.values, np.array([1.0, -2.0]) * (1 - 0.05))

    def test_single_step_matches_hand_oracle(self):
        theta0, g, lr, wd = 0.7, 0.3, 0.05, 0.01
        b1, b2, eps = 0.9, 0.999, 1e-8
        params, t = self._params([theta0])
        t.grad[...] = g
        adamw_step(params, AdamWState(), lr=lr, betas=(b1, b2), eps=eps,
                   weight_decay=wd)
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        expected = theta0 - lr * m_hat / (math.sqrt(v_hat) + eps) - lr * wd * theta0
        np.testing.assert_allclose(t.values, [expected], atol=1e-15)

    def test_updates_in_place_with_the_expressions_bits(self):
        """``m``, ``v`` and the values are updated in place, and three steps
        give the bits of the out-of-place expressions."""
        rng = np.random.default_rng(4)
        b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 3e-2, 1e-2
        params, t = self._params(rng.normal(size=(6, 5)))
        values, m, v = t.values.copy(), np.zeros((6, 5)), np.zeros((6, 5))
        state, arrays = AdamWState(), t.values
        for step in range(1, 4):
            g = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-6, 3, size=(6, 5))
            t.grad[...] = g
            adamw_step(params, state, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat, v_hat = m / (1.0 - b1 ** step), v / (1.0 - b2 ** step)
            values = values - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * values
            assert t.values is arrays
            assert (t.values.tobytes(), state.m["w"].tobytes(), state.v["w"].tobytes()) == \
                (values.tobytes(), m.tobytes(), v.tobytes())

    def test_non_finite_gradient_rejected(self):
        params, t = self._params([1.0])
        t.grad[...] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite"):
            adamw_step(params, AdamWState(), lr=0.1)


class TestEarlyStopper:
    def test_constant_trace_fires_at_patience(self):
        stopper = EarlyStopper(patience=30)
        fired_at = None
        for epoch in range(200):
            value = 5.0 - 0.1 * epoch if epoch <= 5 else 4.5
            if stopper.update(value, epoch):
                fired_at = epoch
                break
        # improvement through epoch 5 (value 4.5), constant from epoch 6:
        # epoch 35 is the 30th consecutive non-improving epoch
        assert fired_at == 35
        assert stopper.best_epoch == 5

    def test_strictly_improving_never_fires(self):
        stopper = EarlyStopper(patience=3)
        assert not any(stopper.update(10.0 - e, e) for e in range(50))

    def test_best_never_worse_than_history(self):
        rng = np.random.default_rng(2)
        stopper = EarlyStopper(patience=10)
        values = list(rng.uniform(1, 5, size=40))
        for e, v in enumerate(values):
            if stopper.update(v, e):
                break
        assert stopper.best == min(values[:e + 1])


def _tiny_prepared(seed=0, steps=160, **synth_kw):
    cfg = SynthConfig(nodes=2, steps=steps, lag=3, seed=seed, **synth_kw)
    panel = synth_generate(cfg)
    return prepare_splits(panel, t_past=6, t_future=4)


def _tiny_model(prepared, **overrides) -> ExoModel:
    base = dict(
        n_nodes=2, past_exo_dim=len(prepared.layout.past),
        future_exo_dim=len(prepared.layout.future), t_past=prepared.t_past,
        t_future=prepared.t_future, hidden=4, experts=2, backbone="mlp-mixer",
        mix_hidden=6, keep_prob=1.0, seed=1)
    base.update(overrides)
    return ExoModel(ModelConfig(**base),
                    target_series=prepared.train_target_series)


class TestTrain:
    def test_loss_decreases_and_history_complete(self):
        prepared = _tiny_prepared()
        model = _tiny_model(prepared)
        cfg = TrainConfig(epochs=30, batch_size=64, seed=0, patience=30)
        result = train(model, prepared.train, prepared.val, prepared.scaler,
                       prepared.target_channel, cfg)
        assert len(result.history) == 30
        assert result.history[-1]["loss"] < result.history[0]["loss"]
        assert {"epoch", "loss", "lr", "val_mae"} <= set(result.history[0])
        assert len(result.epoch_seconds) == 30

    def test_bit_reproducible(self):
        def run():
            prepared = _tiny_prepared()
            model = _tiny_model(prepared)
            cfg = TrainConfig(epochs=8, batch_size=32, seed=3)
            result = train(model, prepared.train, prepared.val, prepared.scaler,
                           prepared.target_channel, cfg)
            return result.history, {k: t.values.copy()
                                    for k, t in model.parameters().items()}

        hist_a, params_a = run()
        hist_b, params_b = run()
        assert hist_a == hist_b
        for k in params_a:
            np.testing.assert_array_equal(params_a[k], params_b[k])

    def test_early_stopping_restores_best(self):
        prepared = _tiny_prepared()
        model = _tiny_model(prepared)
        cfg = TrainConfig(epochs=60, batch_size=64, seed=0, patience=5,
                          lr_max=0.5, lr_min=1e-7)  # aggressive lr to plateau
        result = train(model, prepared.train, prepared.val, prepared.scaler,
                       prepared.target_channel, cfg)
        best = min(h["val_mae"] for h in result.history)
        assert result.best_val_mae == best
        # restored parameters reproduce the best validation MAE
        from exoforecast.training import stack_samples as stack
        xv, epv, efv, yv = stack(prepared.val)
        pred = model.predict(xv, epv, efv)
        rec = metrics(prepared.scaler.inverse_channel(yv, prepared.target_channel),
                      prepared.scaler.inverse_channel(pred, prepared.target_channel))
        np.testing.assert_allclose(rec.mae, best, atol=1e-12)

    def test_dropout_training_runs(self):
        prepared = _tiny_prepared()
        model = _tiny_model(prepared, keep_prob=0.9)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=0)
        result = train(model, prepared.train, prepared.val, prepared.scaler,
                       prepared.target_channel, cfg)
        assert len(result.history) == 3

    @pytest.mark.parametrize("kind, oracle", [
        ("mae", lambda d: np.mean(np.abs(d))),
        ("mse", lambda d: np.mean(d ** 2)),
    ])
    def test_loss_equals_numpy_and_gradchecks(self, kind, oracle):
        rng = np.random.default_rng(4)
        pred = Tensor(rng.normal(size=(3, 2, 4, 1)))
        y = rng.normal(size=(3, 2, 4, 1))
        got = _loss_tensor(pred, y, kind).values
        assert got.tobytes() == np.float64(oracle(pred.values - y)).tobytes()
        assert grad_check(lambda: _loss_tensor(pred, y, kind), pred) < 1e-4

    @pytest.mark.parametrize("backbone", ["grugcn", "mlp-mixer"])
    def test_view_windows_train_like_copies(self, backbone):
        prepared = _tiny_prepared()
        assert prepared.train[0].e_past.base is not None

        def run(train_samples, val_samples):
            model = _tiny_model(prepared, backbone=backbone, keep_prob=0.9)
            result = train(model, train_samples, val_samples, prepared.scaler,
                           prepared.target_channel, TrainConfig(epochs=3, batch_size=16, seed=2))
            return (json.dumps(result.history),
                    {k: t.values.tobytes() for k, t in model.parameters().items()})

        views = run(prepared.train, prepared.val)
        copies = run(copy.deepcopy(prepared.train), copy.deepcopy(prepared.val))
        assert views == copies


class _OracleModel:
    """Stub that predicts the ground truth it is shown."""

    def __init__(self, truth):
        self.truth = truth
        self.calls = 0

    def predict(self, x, e_p, e_f):
        out = self.truth[self.calls]
        self.calls += 1
        return out


class TestEvaluate:
    def test_perfect_model_scores_zero(self):
        prepared = _tiny_prepared()
        _, _, _, y = stack_samples(prepared.test)
        rec = evaluate(_OracleModel([y]), prepared.test, prepared.scaler,
                       prepared.target_channel)
        assert rec.mae == 0.0 and rec.rmse == 0.0

    def test_one_day_equals_direct_metrics(self):
        prepared = _tiny_prepared()
        model = _tiny_model(prepared)
        x, e_p, e_f, y = stack_samples(prepared.test)
        rec = evaluate(model, prepared.test, prepared.scaler,
                       prepared.target_channel)
        direct = metrics(
            prepared.scaler.inverse_channel(y, prepared.target_channel),
            prepared.scaler.inverse_channel(model.predict(x, e_p, e_f),
                                            prepared.target_channel))
        assert rec.mae == direct.mae and rec.rmse == direct.rmse
        rollout, _ = make_rollout_windows(prepared.test_panel, 6, 4, days=1)
        for samples in (prepared.test, rollout):
            got = evaluate(model, samples, prepared.scaler, prepared.target_channel)
            for name in ("mae", "rmse", "mape", "mre", "count"):
                a, b = getattr(got, name), getattr(direct, name)
                assert np.array(a).tobytes() == np.array(b).tobytes(), name

    def test_rollout_perfect_oracle(self):
        prepared = _tiny_prepared(steps=200)
        samples, _ = make_rollout_windows(prepared.test_panel, 6, 4, days=3)
        _, _, _, y = stack_samples(samples)
        truth = [y[:, :, 0:4], y[:, :, 4:8], y[:, :, 8:12]]
        rec = evaluate(_OracleModel(truth), samples, prepared.scaler,
                       prepared.target_channel)
        assert rec.mae == 0.0

    def test_rollout_peak_is_below_half_a_copy_of_its_exogenous_views(self):
        """``evaluate`` forecasts from the rollout's views: it never copies
        their exogenous channels, which dwarf the target history it builds."""
        panel = add_date_channels(synth_generate(SynthConfig(nodes=4, steps=150)))
        samples, _ = make_rollout_windows(panel, 24, 24, days=3)
        f = len(panel.variables)
        scaler = Scaler(mean=np.zeros(f), std=np.ones(f))
        copied = 8 * (samples.e_past.size + samples.e_future.size)
        assert len(samples) == 55 and copied >= 2 ** 20

        class Zeros:
            def predict(self, x, e_p, e_f):
                return np.zeros(e_f.shape[:3] + (1,))

        record, peak = traced_peak(
            lambda: evaluate(Zeros(), samples, scaler, panel.target_index))
        assert record.count == 55 * 4 * 72
        assert peak < copied / 2, (peak, copied)

    def test_rollout_runs_with_real_model(self):
        prepared = _tiny_prepared(steps=260)
        model = _tiny_model(prepared)
        samples, _ = make_rollout_windows(prepared.test_panel, 6, 4, days=2)
        rec = evaluate(model, samples, prepared.scaler, prepared.target_channel)
        assert rec.count == len(samples) * 2 * 8


class TestRolloutHistory:
    """A longer horizon continues the rollout history of a shorter one."""

    @pytest.fixture(scope="class")
    def rollouts(self):
        prepared = _tiny_prepared(steps=260)
        model = _tiny_model(prepared)
        samples = {d: make_rollout_windows(prepared.test_panel, 6, 4, d)[0]
                   for d in (1, 2, 3)}
        return prepared, model, samples

    @staticmethod
    def _evaluate(rollouts, days, history=None):
        prepared, model, samples = rollouts
        return evaluate(model, samples[days], prepared.scaler,
                        prepared.target_channel, history=history)

    @pytest.mark.parametrize("done,days", [(0, 1), (1, 2), (2, 3), (1, 3)])
    def test_continued_equals_rolled_from_day_one(self, rollouts, monkeypatch,
                                                  done, days):
        model = rollouts[1]
        history = self._evaluate(rollouts, done).history if done else None
        fresh = self._evaluate(rollouts, days)
        calls = []

        def predict(*args):
            calls.append(args)
            return type(model).predict(model, *args)

        monkeypatch.setattr(model, "predict", predict)
        got = self._evaluate(rollouts, days, history)
        assert len(calls) == days - done
        for name in ("mae", "rmse", "mape", "mre", "count"):
            a, b = getattr(got, name), getattr(fresh, name)
            assert np.array(a).tobytes() == np.array(b).tobytes(), name
        assert got.history.tobytes() == fresh.history.tobytes()
        assert got.history.shape == (len(rollouts[2][days]), 2, 6 + 4 * days, 1)

    def test_fewer_windows_than_samples(self, rollouts):
        short = self._evaluate(rollouts, 1).history[:5]
        with pytest.raises(ValueError, match="5 windows, fewer than the 13"):
            self._evaluate(rollouts, 2, short)

    @pytest.mark.parametrize("steps", [2, 5, 8])
    def test_length_off_the_day_grid(self, rollouts, steps):
        history = self._evaluate(rollouts, 1).history[:, :, :steps]
        with pytest.raises(ValueError, match=f"spans {steps} steps"):
            self._evaluate(rollouts, 2, history)

    def test_as_many_days_as_asked(self, rollouts):
        history = self._evaluate(rollouts, 2).history
        with pytest.raises(ValueError, match=r"spans 14 steps, not 6 \+ k\*4 with k < 2"):
            self._evaluate(rollouts, 2, history)

    def test_history_of_other_windows(self, rollouts):
        history = self._evaluate(rollouts, 1).history
        for other in (history[1:], history + 1.0):
            with pytest.raises(ValueError, match="does not start with"):
                self._evaluate(rollouts, 2, other)
