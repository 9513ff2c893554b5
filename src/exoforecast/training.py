"""Optimization loop, cosine schedule, early stopping and evaluation metrics."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import Scaler, Windows
from .model import ExoModel

MAPE_GUARD = 1e-8
LOSSES = ("mae", "mse")  # the training losses ``TrainConfig.loss`` names


@dataclass
class MetricsRecord:
    """MAE / RMSE / MAPE(%) / MRE(%) over one prediction set."""

    mae: float
    rmse: float
    mape: float   # percent; NaN when every |y| is below the guard
    mre: float    # percent; NaN when sum |y| is zero
    count: int
    # ``evaluate``'s scaled rollout history (x, then each day's forecast),
    # which a longer horizon's ``evaluate`` continues from; None elsewhere
    history: Optional[np.ndarray] = field(default=None, repr=False,
                                          compare=False)

    def to_dict(self) -> dict:
        def none_if_nan(v):
            return None if math.isnan(v) else v

        return {"mae": self.mae, "rmse": self.rmse,
                "mape": none_if_nan(self.mape), "mre": none_if_nan(self.mre),
                "count": self.count}


def metrics(y, y_hat) -> MetricsRecord:
    """Evaluate the four error metrics on flattened prediction pairs."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("metrics require at least one observation")
    if y.size != y_hat.size:
        raise ValueError(f"length mismatch: {y.size} vs {y_hat.size}")
    abs_err = np.abs(y - y_hat)
    mae = float(abs_err.mean())
    rmse = float(np.sqrt(((y - y_hat) ** 2).mean()))
    denom = float(np.abs(y).sum())
    mre = float("nan") if denom == 0.0 else 100.0 * float(abs_err.sum()) / denom
    keep = np.abs(y) >= MAPE_GUARD
    mape = float("nan") if not keep.any() else \
        100.0 * float((abs_err[keep] / np.abs(y[keep])).mean())
    return MetricsRecord(mae=mae, rmse=rmse, mape=mape, mre=mre, count=int(y.size))


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 512
    lr_max: float = 1e-2
    lr_min: float = 1e-7
    weight_decay: float = 1e-4
    patience: int = 30
    seed: int = 0
    loss: str = "mae"            # one of LOSSES

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("patience", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not self.lr_min >= 0.0:  # also true for nan
            raise ValueError(f"lr_min must be >= 0, got {self.lr_min}")
        if not self.lr_max < math.inf:  # also true for nan
            raise ValueError(f"lr_max must be finite, got {self.lr_max}")
        if self.lr_min >= self.lr_max:
            raise ValueError("lr_min must be below lr_max")
        if not 0.0 <= self.weight_decay < math.inf:  # also true for nan
            raise ValueError("weight_decay must be >= 0 and finite, "
                             f"got {self.weight_decay}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {', '.join(LOSSES)}, "
                             f"got {self.loss!r}")


def cosine_lr(epoch: int, config: TrainConfig) -> float:
    """Annealed rate: lr_max at epoch 0 down to lr_min at the final epoch."""
    last = config.epochs - 1
    if last <= 0:
        return config.lr_max
    span = config.lr_max - config.lr_min
    return config.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * epoch / last))


class AdamWState:
    """First/second moments and step counter, keyed by parameter name."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float,
               betas: tuple = (0.9, 0.999), eps: float = 1e-8,
               weight_decay: float = 0.0) -> None:
    """One decoupled-weight-decay update from the accumulated gradients."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
        m = state.m.setdefault(name, np.zeros_like(p.values))
        v = state.v.setdefault(name, np.zeros_like(p.values))
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.values = (p.values
                    - lr * m_hat / (np.sqrt(v_hat) + eps)
                    - lr * weight_decay * p.values)


class EarlyStopper:
    """Strict-improvement early stopping on a monitored value."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch: Optional[int] = None
        self.stale = 0

    def update(self, value: float, epoch: int) -> bool:
        """Record one epoch; returns True when training should stop."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


def stack_samples(samples: Windows):
    """The (B, N, T, F) arrays x, e_past, e_future and y of ``samples``, as
    they are: a gathered batch's C-contiguous copies, or a split's or
    rollout's read-only strided views of its blocks, which nothing copies."""
    return samples.x, samples.e_past, samples.e_future, samples.y


def _loss_tensor(pred: Tensor, target: np.ndarray, kind: str) -> Tensor:
    diff = ad.sub(pred, Tensor(target))
    if kind == "mse":
        return ad.mean(ad.mul(diff, diff))
    return ad.mean(ad.absolute(diff))


@dataclass
class TrainResult:
    history: list = field(default_factory=list)   # per-epoch loss / lr / val MAE
    best_epoch: int = 0
    best_val_mae: float = math.inf
    epoch_seconds: list = field(default_factory=list)  # wall clock, not archived


def train(model: ExoModel, train_samples: Windows, val_samples: Windows,
          scaler: Scaler, target_channel: int, config: TrainConfig) -> TrainResult:
    """Mini-batch AdamW training with cosine annealing and early stopping.

    Each batch is one index-array gather of ``train_samples``; its loss is on
    normalized targets. Validation MAE is ``evaluate``'s, denormalized, and the
    best-validation parameters are restored on exit. Reproducible bit for bit.
    """
    if not train_samples:
        raise ValueError("no training samples")
    rng = np.random.default_rng(config.seed)
    n = len(train_samples)
    batch = min(config.batch_size, max(1, math.ceil(n / 2)))
    params = model.parameters()
    state = AdamWState()
    stopper = EarlyStopper(config.patience)
    result = TrainResult()
    best_values: dict[str, np.ndarray] = {k: t.values.copy()
                                          for k, t in params.items()}
    for epoch in range(config.epochs):
        started = time.perf_counter()
        lr = cosine_lr(epoch, config)
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n, batch):
            x, e_p, e_f, y = stack_samples(train_samples[order[lo:lo + batch]])
            model.zero_grad()
            with Tape() as tape:
                pred, _ = model.forward(x, e_p, e_f, rng=rng)
                loss = _loss_tensor(pred, y, config.loss)
            loss_val = float(loss.values)
            if not math.isfinite(loss_val):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch + 1}, batch {n_batches + 1}")
            tape.backward(loss)
            adamw_step(params, state, lr, weight_decay=config.weight_decay)
            epoch_loss += loss_val
            n_batches += 1
        val_mae = evaluate(model, val_samples, scaler, target_channel).mae
        stop = stopper.update(val_mae, epoch)
        if stopper.best_epoch == epoch:
            best_values = {k: t.values.copy() for k, t in params.items()}
        result.history.append({
            "epoch": epoch + 1,
            "loss": epoch_loss / max(n_batches, 1),
            "lr": lr,
            "val_mae": val_mae,
        })
        result.epoch_seconds.append(time.perf_counter() - started)
        if stop:
            break
    for name, tensor in params.items():
        tensor.values = best_values[name]
    result.best_epoch = (stopper.best_epoch or 0) + 1
    result.best_val_mae = stopper.best
    return result


def evaluate(model, samples: Windows, scaler: Scaler, target_channel: int, *,
             history: Optional[np.ndarray] = None) -> MetricsRecord:
    """Denormalized metrics over the rollout that ``samples`` span.

    The ``Windows`` come from ``make_rollout_windows`` (or, for one day, the
    equal ``make_windows``), whose shapes fix the rollout: ``x`` spans
    t_past steps, ``e_past`` t_past + (days-1)*t_future and ``e_future``
    days*t_future. Each day's forecast is appended to the endogenous
    history while the true exogenous channels advance day by day.

    The forecasts read ``samples``' fields as they are: on a split or a
    rollout, views of its blocks, sliced by ``predict`` one chunk at a time,
    so no copy of the windows' exogenous channels is made.

    ``history`` continues a shorter rollout instead of starting at day 1:
    the ``history`` of the record a k-day ``evaluate`` returned, k < days,
    on windows with the same start offsets, of which these samples are the
    first ``len(samples)``. Only days k+1..days are then forecast. Every
    forecast depends on its own window alone, so the record equals the one
    rolled from day 1 bit for bit. A history that does not fit raises
    ``ValueError``. The returned record's ``history`` holds all ``days``.
    """
    if not samples:
        raise ValueError("no evaluation samples")
    x, e_p, e_f, y = stack_samples(samples)
    t_past = x.shape[2]
    t_future = e_f.shape[2] - (e_p.shape[2] - t_past)
    days = e_f.shape[2] // t_future
    done = 0 if history is None else _days_done(history, x, t_future, days)
    history = x if history is None else history[:len(x)]
    for d in range(done, days):
        lo = d * t_future
        pred_day = model.predict(history[:, :, -t_past:, :],
                                 e_p[:, :, lo:lo + t_past, :],
                                 e_f[:, :, lo:lo + t_future, :])
        history = np.concatenate([history, pred_day], axis=2)
    record = metrics(scaler.inverse_channel(y, target_channel),
                     scaler.inverse_channel(history[:, :, t_past:], target_channel))
    record.history = history
    return record


def _days_done(history: np.ndarray, x: np.ndarray, t_future: int,
               days: int) -> int:
    """The days ``history`` rolled, k < ``days``; raise unless it is a
    rollout of the windows ``x`` starts."""
    t_past = x.shape[2]
    done, extra = divmod(history.shape[2] - t_past, t_future)
    if len(history) < len(x):
        raise ValueError(f"history holds {len(history)} windows, "
                         f"fewer than the {len(x)} samples")
    if extra or not 0 <= done < days:
        raise ValueError(
            f"history spans {history.shape[2]} steps, not {t_past} + k*{t_future} "
            f"with k < {days}")
    if not np.array_equal(history[:len(x), :, :t_past], x):
        raise ValueError("history does not start with the samples' x")
    return done
