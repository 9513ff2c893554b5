"""Panel ingestion, date encoding, scaling, splitting, windowing and corruption.

A panel is an N-node x T-step x F-variable observation block. Every variable
carries a role (target / past / future / date); date channels are always
synthesized from timestamps, never ingested from files.

A panel is split along time into train, val and test segments by the fixed
``SPLIT_SHARES``. A split, a batch, a corrupted set and a rollout are all one
``Windows``, with a window starting at every step of its segment (a sparser
set is ``windows[::k]``). Cutting copies nothing per window: a segment's
target, past+date and future+date channels are copied once into read-only
blocks, and each field is a strided view of one. A split is windowed on its
first use only, so a command that scores rollouts of the test panel windows
no split at all.

Data ablation zeroes channels once, in the scaled split panels
(``drop_exogenous``), so every window cut from them is ablated alike.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta
from enum import Enum
from typing import Optional, Sequence

import numpy as np


class VariableRole(str, Enum):
    TARGET = "target"
    PAST = "past"
    FUTURE = "future"
    DATE = "date"


DATE_CHANNELS = [
    "hour_sin", "hour_cos", "month_sin", "month_cos",
    "dow_0", "dow_1", "dow_2", "dow_3", "dow_4", "dow_5", "dow_6",
]


@dataclass
class Panel:
    """Dense observation block with per-variable roles.

    data has shape (N, T, F); mask (same shape, True = observed) is present
    only when the source file had holes.
    """

    node_ids: list[str]
    timestamps: list[datetime]
    variables: list[str]
    roles: dict[str, VariableRole]
    data: np.ndarray
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        n, t, f = len(self.node_ids), len(self.timestamps), len(self.variables)
        if self.data.shape != (n, t, f):
            raise ValueError(f"data shape {self.data.shape} != ({n}, {t}, {f})")
        if len(set(self.variables)) != f:
            raise ValueError(f"variable names repeat: {self.variables}")
        for v in self.variables:
            if v not in self.roles:
                raise ValueError(f"variable {v!r} has no declared role")
        targets = self.names_for(VariableRole.TARGET)
        if len(targets) != 1:
            raise ValueError(f"exactly one target channel required, got {targets}")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if b <= a:
                raise ValueError(f"non-monotone timestamps: {a} then {b}")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

    def indices_for(self, role: VariableRole) -> list[int]:
        return [i for i, v in enumerate(self.variables) if self.roles[v] == role]

    def names_for(self, role: VariableRole) -> list[str]:
        return [v for v in self.variables if self.roles[v] == role]

    @property
    def target_index(self) -> int:
        return self.indices_for(VariableRole.TARGET)[0]

    def slice_steps(self, start: int, stop: int) -> "Panel":
        return replace(
            self,
            timestamps=self.timestamps[start:stop],
            data=self.data[:, start:stop, :],
            mask=None if self.mask is None else self.mask[:, start:stop, :],
        )


# ---------------------------------------------------------------------------
# File format: delimited panel + JSON role descriptor
# ---------------------------------------------------------------------------

_ROLE_TAGS = {r.value: r for r in VariableRole}


def load_schema(path) -> dict[str, VariableRole]:
    """Read the sidecar descriptor mapping variable names to roles.

    The file must be UTF-8 JSON holding an object whose non-empty
    ``variables`` object maps each name that is not a ``DATE_CHANNELS`` name
    to a string role tag; anything else is a one-line ``ValueError`` naming
    ``path``.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"schema {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"schema {path} must be a JSON object, got {type(raw).__name__}")
    variables = raw.get("variables")
    if not isinstance(variables, dict) or not variables:
        raise ValueError(f"schema {path} must contain a non-empty 'variables' map")
    roles = {}
    for name, tag in variables.items():
        if not isinstance(tag, str):
            raise ValueError(f"schema {path}: role tag for variable {name!r} must be "
                             f"a string, got {type(tag).__name__}")
        if tag not in _ROLE_TAGS:
            raise ValueError(f"schema {path}: unknown role tag {tag!r} for variable {name!r}")
        role = _ROLE_TAGS[tag]
        if role == VariableRole.DATE:
            raise ValueError(f"schema {path}: date channels are synthesized, never "
                             "ingested raw")
        if name in DATE_CHANNELS:
            raise ValueError(f"schema {path}: variable {name!r} is the name of a "
                             "synthesized date channel")
        roles[name] = role
    return roles


def save_schema(roles: dict[str, VariableRole], path) -> None:
    payload = {"variables": {k: v.value for k, v in roles.items()}}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_rows(path, schema_path, roles) -> tuple[list[str], dict[str, tuple]]:
    """The variables ``path``'s header names, and each node's timestamps and
    flat row-major values in file order, nodes in order of first appearance.

    The file is read as bytes and decoded line by line, so a byte that is
    not UTF-8 is reported by its line. A line ends at ``\\n`` or ``\\r\\n``.
    Each distinct timestamp text is parsed once, and a node's values go
    into one ``array('d')``, so no object is kept per row.
    """
    def decoded(lineno: int, raw: bytes) -> str:
        try:
            return raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None

    with open(path, "rb") as fh:
        header = decoded(1, fh.readline()).split(",")
        if len(header) < 3 or header[0] != "node_id" or header[1] != "timestamp":
            raise ValueError(f"malformed header in {path}: {header}")
        variables = header[2:]
        if len(set(variables)) != len(variables):
            raise ValueError(f"{path}: header names a variable twice: {header}")
        missing = set(variables) ^ set(roles)
        if missing:
            raise ValueError(f"{path}: header variables differ from schema "
                             f"{schema_path}: {sorted(missing)}")
        per_node: dict[str, tuple[list[datetime], array]] = {}
        parsed: dict[str, datetime] = {}
        for lineno, raw in enumerate(fh, start=2):
            line = decoded(lineno, raw)
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2 + len(variables):
                raise ValueError(f"{path}:{lineno}: expected {2 + len(variables)} fields")
            node, ts_text = cells[0], cells[1]
            ts = parsed.get(ts_text)
            if ts is None:
                try:
                    ts = parsed[ts_text] = datetime.fromisoformat(ts_text)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad timestamp {ts_text!r}") from exc
                first = next(iter(parsed))
                if (ts.tzinfo is None) != (parsed[first].tzinfo is None):
                    raise ValueError(f"{path}:{lineno}: timestamp {ts_text!r} and the first "
                                     f"data row's {first!r} differ in having a UTC offset")
            if node not in per_node:
                per_node[node] = ([], array("d"))
            stamps, values = per_node[node]
            stamps.append(ts)
            for cell in cells[2:]:
                if cell == "":
                    values.append(math.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad value {cell!r}") from exc
                if math.isinf(value):
                    raise ValueError(f"{path}:{lineno}: non-finite value {cell!r}")
                values.append(value)
    return variables, per_node


def load_panel(path, schema_path) -> Panel:
    """Load a `node_id,timestamp,var...` delimited file plus its descriptor.

    An empty cell (or ``nan``) is a missing value; an infinite one is an
    error naming the file and line. Every node must share one timestamp
    sequence at one cadence, the spacing of its first two steps: a missing
    or doubled step is an error naming the file, the node and the first
    pair of timestamps spaced otherwise. A target variable that some node
    never observes is an error naming it and the first such node, since
    ``fill_missing`` would zero-fill that node's target and the loss and
    metrics would score the zeros. Every error is one ``ValueError`` line
    naming the file it read; a header that disagrees with the schema names
    both files.
    """
    roles = load_schema(schema_path)
    variables, per_node = _read_rows(path, schema_path, roles)
    order = list(per_node)
    if not order:
        raise ValueError(f"{path} contains no data rows")
    timestamps = per_node[order[0]][0]
    for a, b in zip(timestamps, timestamps[1:]):
        if b <= a:
            raise ValueError(
                f"{path}: non-monotone timestamps for node {order[0]}: {a} then {b}")
        if b - a != timestamps[1] - timestamps[0]:
            raise ValueError(
                f"{path}: irregular cadence for node {order[0]}: {a} then {b} "
                f"is {b - a} apart, the first step {timestamps[1] - timestamps[0]}")
    data = np.empty((len(order), len(timestamps), len(variables)))
    for i, node in enumerate(order):
        stamps, values = per_node.pop(node)  # each node's buffer is freed once copied
        if stamps != timestamps:
            raise ValueError(
                f"{path}: node {node} timestamp sequence differs from node {order[0]}")
        data[i] = np.frombuffer(values).reshape(data.shape[1:])
    mask = ~np.isnan(data)
    try:
        panel = Panel(node_ids=order, timestamps=timestamps, variables=variables,
                      roles={v: roles[v] for v in variables}, data=data,
                      mask=None if mask.all() else mask)
    except ValueError as exc:  # the schema declares no target, or several
        raise ValueError(f"schema {schema_path}: {exc}") from None
    observed = mask[:, :, panel.target_index].any(axis=1)
    if not observed.all():
        raise ValueError(f"{path}: target {variables[panel.target_index]!r} has no "
                         f"observed value for node {order[int(observed.argmin())]}")
    return panel


def save_panel(panel: Panel, path, schema_path=None) -> None:
    """Write a panel in the same delimited format the loader reads."""
    raw_vars = [v for v in panel.variables if panel.roles[v] != VariableRole.DATE]
    idx = [panel.variables.index(v) for v in raw_vars]
    with open(path, "w") as fh:
        fh.write("node_id,timestamp," + ",".join(raw_vars) + "\n")
        for i, node in enumerate(panel.node_ids):
            for t, ts in enumerate(panel.timestamps):
                cells = [node, ts.isoformat()]
                for j in idx:
                    v = panel.data[i, t, j]
                    cells.append("" if np.isnan(v) else repr(float(v)))
                fh.write(",".join(cells) + "\n")
    if schema_path is not None:
        save_schema({v: panel.roles[v] for v in raw_vars}, schema_path)


# ---------------------------------------------------------------------------
# Date encoding
# ---------------------------------------------------------------------------

def encode_time(timestamps: Sequence[datetime]) -> np.ndarray:
    """Encode timestamps as (T, 11): sin/cos hour, sin/cos month, one-hot weekday."""
    out = np.zeros((len(timestamps), len(DATE_CHANNELS)))
    for t, ts in enumerate(timestamps):
        hour_angle = 2.0 * math.pi * ts.hour / 24.0
        month_angle = 2.0 * math.pi * (ts.month - 1) / 12.0
        out[t, 0] = math.sin(hour_angle)
        out[t, 1] = math.cos(hour_angle)
        out[t, 2] = math.sin(month_angle)
        out[t, 3] = math.cos(month_angle)
        out[t, 4 + ts.weekday()] = 1.0  # Monday = 0
    return out


def add_date_channels(panel: Panel) -> Panel:
    """Append the 11 synthesized date channels, broadcast to every node."""
    if any(panel.roles[v] == VariableRole.DATE for v in panel.variables):
        raise ValueError("panel already carries date channels")
    block = encode_time(panel.timestamps)  # (T, 11)
    tiled = np.broadcast_to(block, (panel.n_nodes,) + block.shape)
    data = np.concatenate([panel.data, tiled], axis=2)
    mask = panel.mask
    if mask is not None:
        mask = np.concatenate(
            [mask, np.ones(tiled.shape, dtype=bool)], axis=2)
    roles = dict(panel.roles)
    roles.update({name: VariableRole.DATE for name in DATE_CHANNELS})
    return replace(panel, variables=panel.variables + DATE_CHANNELS,
                   roles=roles, data=data, mask=mask)


# ---------------------------------------------------------------------------
# Missing values, split, scaling
# ---------------------------------------------------------------------------

SPLIT_SHARES = (0.7, 0.2)  # train and val shares of the steps; test takes the rest

def fill_missing(panel: Panel) -> Panel:
    """Forward-fill holes along time, then zero anything left at the head."""
    if panel.mask is None:
        return panel
    steps = np.arange(panel.n_steps)[None, :, None]
    last = np.maximum.accumulate(np.where(panel.mask, steps, -1), axis=1)
    data = np.take_along_axis(panel.data, np.maximum(last, 0), axis=1)
    data[last < 0] = 0.0
    return replace(panel, data=data, mask=None)


def chronological_split(panel: Panel, min_length: int = 0) -> tuple[Panel, ...]:
    """Split along time into contiguous train, val and test segments: the
    first two take ``SPLIT_SHARES`` of the steps, rounded down, and test
    takes the rest. A segment shorter than ``min_length`` is an error."""
    t = panel.n_steps
    lengths = [int(math.floor(t * r)) for r in SPLIT_SHARES]
    lengths.append(t - sum(lengths))
    if min_length and any(n < min_length for n in lengths):
        raise ValueError(f"segment lengths {lengths} below minimum {min_length}")
    out, start = [], 0
    for n in lengths:
        out.append(panel.slice_steps(start, start + n))
        start += n
    return tuple(out)


@dataclass
class Scaler:
    """Per-channel z-score statistics fitted on training rows only."""

    mean: np.ndarray  # (F,)
    std: np.ndarray   # (F,), 1 where the training std is below STD_FLOOR

    STD_FLOOR = 1e-8

    @classmethod
    def fit(cls, panel: Panel) -> "Scaler":
        flat = panel.data.reshape(-1, panel.data.shape[2])
        std = flat.std(axis=0)  # a train-constant channel is centred, not scaled
        return cls(mean=flat.mean(axis=0),
                   std=np.where(std < cls.STD_FLOOR, 1.0, std))

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def transform_panel(self, panel: Panel) -> Panel:
        return replace(panel, data=self.transform(panel.data))

    def inverse_channel(self, values: np.ndarray, channel: int) -> np.ndarray:
        return values * self.std[channel] + self.mean[channel]


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

@dataclass
class FeatureLayout:
    """The columns of the windowed exogenous blocks, by variable name, and
    which of them are date channels."""

    past: list[str]          # names of E_past columns, date channels last
    future: list[str]        # names of E_future columns, date channels last
    past_is_date: np.ndarray
    future_is_date: np.ndarray


@dataclass(frozen=True, eq=False)
class Windows:
    """Windows cut from one panel segment, stacked on a leading window axis.
    ``len``, iteration and indexing go by window as in numpy: ``w[i]`` is one
    window, ``w[a:b]`` a range, ``w[idx]`` a batch gathered by one copy each."""

    x: np.ndarray         # (n, N, T_p, 1) endogenous history
    e_past: np.ndarray    # (n, N, T_p, F_p + dates); longer for a rollout
    e_future: np.ndarray  # (n, N, T_f, F_f + dates)
    y: np.ndarray         # (n, N, T_f, 1)
    offset: np.ndarray    # (n,) first panel step of each window

    def __len__(self) -> int:
        return len(self.offset)

    def __getitem__(self, idx) -> "Windows":
        return Windows(*(getattr(self, f.name)[idx] for f in fields(self)))


def feature_layout(panel: Panel) -> FeatureLayout:
    """The columns windows of ``panel`` carry in each exogenous block: the
    block's role columns, then the date channels, each in panel order."""
    dates = panel.names_for(VariableRole.DATE)
    past = panel.names_for(VariableRole.PAST) + dates
    future = panel.names_for(VariableRole.FUTURE) + dates
    return FeatureLayout(past=past, future=future,
                         past_is_date=np.isin(past, dates),
                         future_is_date=np.isin(future, dates))


def make_windows(panel: Panel, t_past: int,
                 t_future: int) -> tuple[Windows, FeatureLayout]:
    """Cut sliding windows; E_future spans exactly the target horizon.

    The windows are read-only views into per-split blocks, not copies:
    callers that change their values copy them first.
    """
    return make_rollout_windows(panel, t_past, t_future, 1)


def check_rollout_length(panel: Panel, t_past: int, t_future: int, days: int) -> None:
    """Raise unless ``panel`` holds at least one ``days``-day rollout window."""
    if days < 1:
        raise ValueError("days must be >= 1")
    if panel.n_steps < t_past + days * t_future:
        raise ValueError(
            f"segment length {panel.n_steps} too short for a {days}-day rollout")


def make_rollout_windows(panel: Panel, t_past: int, t_future: int,
                         days: int) -> tuple[Windows, FeatureLayout]:
    """Windows for multi-day rollout: exogenous blocks extended over all days.

    A window starts at every step o that leaves room for it. x covers
    [o, o + t_past); e_past covers [o, o + t_past + (days-1)*t_future) so
    each rolled day can read the true past-exogenous values that have become
    observable by then; e_future and y cover the full days*t_future horizon.
    These shapes fix t_past, t_future and days, which ``evaluate`` reads back.
    Every field is a read-only view whose window axis steps one step through
    a block; ``windows[::k]`` keeps every k-th window as views too, and
    ``evaluate`` forecasts from the views without copying them.
    """
    check_rollout_length(panel, t_past, t_future, days)
    layout = feature_layout(panel)
    target, past, future = (
        np.take(panel.data, [panel.variables.index(v) for v in names], axis=2)
        for names in (panel.names_for(VariableRole.TARGET), layout.past, layout.future))
    horizon = days * t_future
    offset = np.arange(panel.n_steps - t_past - horizon + 1)

    def cut(block: np.ndarray, start: int, span: int) -> np.ndarray:
        # not sliding_window_view: its .base hides the block from byte counts
        block.flags.writeable = False
        n_stride, t_stride, c_stride = block.strides
        return np.ndarray((len(offset), block.shape[0], span, block.shape[2]),
                          block.dtype, buffer=block, offset=start * t_stride,
                          strides=(t_stride, n_stride, t_stride, c_stride))

    windows = Windows(x=cut(target, 0, t_past),
                      e_past=cut(past, 0, t_past + horizon - t_future),
                      e_future=cut(future, t_past, horizon),
                      y=cut(target, t_past, horizon), offset=offset)
    return windows, layout


# ---------------------------------------------------------------------------
# Corruption
# ---------------------------------------------------------------------------

CORRUPTIONS = ("zero", "random")  # the strategies ``corrupt_exogenous`` takes


def corrupt_exogenous(samples: Windows, layout: FeatureLayout,
                      strategy: str, ratio: float, seed: int) -> Windows:
    """Randomly replace exogenous entries with zeros or standard-normal draws.

    Each entry is replaced independently with probability ``ratio``, drawn
    window by window, past block before future block. Date channels and
    targets never change.
    """
    if strategy not in CORRUPTIONS:
        raise ValueError(f"unknown corruption strategy {strategy!r}")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if ratio == 0.0:
        return samples
    rng = np.random.default_rng(seed)
    e_past, e_future = samples.e_past.copy(), samples.e_future.copy()
    for i in range(len(samples)):
        for block, cols in ((e_past[i], ~layout.past_is_date),
                            (e_future[i], ~layout.future_is_date)):
            if not cols.any():
                continue
            target = block[:, :, cols]
            hit = rng.random(target.shape) < ratio
            repl = np.zeros(target.shape) if strategy == "zero" else rng.standard_normal(target.shape)
            block[:, :, cols] = np.where(hit, repl, target)
    return replace(samples, e_past=e_past, e_future=e_future)


def mask_exogenous(samples: Windows, layout: FeatureLayout,
                   use_past: bool = True, use_future: bool = True,
                   use_date: bool = True) -> Windows:
    """Zero out whole exogenous groups in windows, as ``drop_exogenous`` does."""
    e_past, e_future = samples.e_past.copy(), samples.e_future.copy()
    e_past[..., np.where(layout.past_is_date, not use_date, not use_past)] = 0.0
    e_future[..., np.where(layout.future_is_date, not use_date, not use_future)] = 0.0
    return replace(samples, e_past=e_past, e_future=e_future)


# ---------------------------------------------------------------------------
# End-to-end preparation
# ---------------------------------------------------------------------------

@dataclass
class PreparedData:
    """Scaled chronological split panels plus their bookkeeping.

    ``train``, ``val`` and ``test`` are each split's ``make_windows``
    ``Windows``, built from its panel on first read and kept: read-only
    views into one set of blocks per split, whose memory grows with the
    split's length, not with its number of windows. ``evaluate`` reads the
    views as they are; a training batch is gathered from them by one copy.
    A split that is never read is never windowed; ``dataclasses.replace``
    starts with none built.
    """

    layout: FeatureLayout
    scaler: Scaler
    train_panel: Panel
    val_panel: Panel
    test_panel: Panel
    t_past: int
    t_future: int

    @functools.cached_property
    def train(self) -> Windows:
        return make_windows(self.train_panel, self.t_past, self.t_future)[0]

    @functools.cached_property
    def val(self) -> Windows:
        return make_windows(self.val_panel, self.t_past, self.t_future)[0]

    @functools.cached_property
    def test(self) -> Windows:
        return make_windows(self.test_panel, self.t_past, self.t_future)[0]

    @property
    def target_channel(self) -> int:
        return self.train_panel.target_index

    @property
    def train_target_series(self) -> np.ndarray:
        return self.train_panel.data[:, :, self.target_channel]


def prepare_splits(panel: Panel, t_past: int, t_future: int) -> PreparedData:
    """Fill holes, synthesize date channels, split and scale; each split is
    windowed on first use (see ``PreparedData``)."""
    panel = fill_missing(panel)
    panel = add_date_channels(panel)
    train_p, val_p, test_p = chronological_split(panel, min_length=t_past + t_future)
    scaler = Scaler.fit(train_p)
    train_s = scaler.transform_panel(train_p)
    return PreparedData(layout=feature_layout(train_s), scaler=scaler, train_panel=train_s,
                        val_panel=scaler.transform_panel(val_p),
                        test_panel=scaler.transform_panel(test_p),
                        t_past=t_past, t_future=t_future)


def drop_exogenous(prepared: PreparedData, use_past: bool = True,
                   use_future: bool = True, use_date: bool = True) -> PreparedData:
    """``prepared`` with the roles a data ablation leaves out zeroed, once.

    Each scaled split panel is copied once with those channels set to +0.0;
    the split windows, built on first read, and rollout windows later cut
    from ``test_panel`` are then ablated too. Returns ``prepared`` itself
    when nothing is dropped.
    """
    roles = zip((VariableRole.PAST, VariableRole.FUTURE, VariableRole.DATE),
                (use_past, use_future, use_date))
    cols = [i for role, used in roles if not used
            for i in prepared.train_panel.indices_for(role)]
    if not cols:
        return prepared
    panels = {}
    for name in ("train_panel", "val_panel", "test_panel"):
        panel = getattr(prepared, name)
        data = panel.data.copy()
        data[:, :, cols] = 0.0
        panels[name] = replace(panel, data=data)
    return replace(prepared, **panels)


# ---------------------------------------------------------------------------
# Synthetic panels with a known exogenous signal
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    nodes: int = 4
    steps: int = 512
    lag: int = 6
    noise: float = 0.1
    seed: int = 0
    past_coef: float = 1.0
    future_coef: float = 1.0

    def __post_init__(self):
        for name, least in (("nodes", 1), ("steps", 2), ("lag", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("past_coef", "future_coef"):
            if not abs(getattr(self, name)) < math.inf:  # also true for nan
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.noise < math.inf:  # also true for nan
            raise ValueError(f"noise must be >= 0 and finite, got {self.noise}")


def synth_generate(cfg: SynthConfig) -> Panel:
    """Generate an hourly panel from 2019-01-01T00:00 whose target mixes
    lagged past-exo, a future driver and Gaussian noise with ``cfg``'s
    coefficients, plus a daily seasonal term of amplitude 0.5."""
    rng = np.random.default_rng(cfg.seed)
    n, t = cfg.nodes, cfg.steps
    past_full = rng.standard_normal((n, t + cfg.lag))   # index i holds time i - lag
    future_drv = rng.standard_normal((n, t))
    eps = rng.standard_normal((n, t))
    timestamps = [datetime(2019, 1, 1) + timedelta(hours=i) for i in range(t)]
    hours = np.array([ts.hour for ts in timestamps])
    seasonal = 0.5 * (np.sin(2 * np.pi * hours / 24.0)
                      + 0.4 * np.cos(2 * np.pi * hours / 24.0))
    target = (cfg.past_coef * past_full[:, :t]
              + cfg.future_coef * future_drv
              + seasonal[None, :]
              + cfg.noise * eps)
    past_channel = past_full[:, cfg.lag:]
    data = np.stack([target, past_channel, future_drv], axis=2)
    return Panel(
        node_ids=[f"n{i}" for i in range(n)],
        timestamps=timestamps,
        variables=["target", "past_driver", "future_driver"],
        roles={
            "target": VariableRole.TARGET,
            "past_driver": VariableRole.PAST,
            "future_driver": VariableRole.FUTURE,
        },
        data=data,
    )
