"""Properties of ``Windows``: indexing gathers what the panel slices hold,
and a split holds no more memory than its three blocks."""

import importlib.util
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoforecast.data import (Panel, SynthConfig, VariableRole, Windows,
                              add_date_channels, make_rollout_windows,
                              make_windows, prepare_splits, synth_generate)
from exoforecast.training import stack_samples

FIELDS = ("x", "e_past", "e_future", "y")


def _panel(n, t, n_past, n_future, seed):
    """A dated panel with one target, then ``n_past`` past and ``n_future``
    future channels, in a shuffled column order."""
    rng = np.random.default_rng(seed)
    names = ["y"] + [f"p{i}" for i in range(n_past)] + [f"f{i}" for i in range(n_future)]
    roles = [VariableRole.TARGET] + [VariableRole.PAST] * n_past \
        + [VariableRole.FUTURE] * n_future
    order = rng.permutation(len(names))
    start = datetime(2021, 3, 1)
    panel = Panel(node_ids=[f"n{i}" for i in range(n)],
                  timestamps=[start + timedelta(hours=h) for h in range(t)],
                  variables=[names[i] for i in order],
                  roles={names[i]: roles[i] for i in order},
                  data=rng.standard_normal((n, t, len(names))))
    return add_date_channels(panel)


def _sliced(panel, o, t_past, t_future, days):
    """One window's fields as basic slices of the panel, columns gathered."""
    date = panel.indices_for(VariableRole.DATE)
    past = panel.indices_for(VariableRole.PAST) + date
    fut = panel.indices_for(VariableRole.FUTURE) + date
    tgt = [panel.target_index]
    hist = t_past + (days - 1) * t_future
    horizon = slice(o + t_past, o + t_past + days * t_future)
    return (panel.data[:, o:o + t_past][:, :, tgt],
            panel.data[:, o:o + hist][:, :, past],
            panel.data[:, horizon][:, :, fut],
            panel.data[:, horizon][:, :, tgt])


@st.composite
def windowed(draw):
    t_past, t_future = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    days, stride = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    t = t_past + days * t_future + draw(st.integers(0, 25))
    panel = _panel(draw(st.integers(1, 3)), t, draw(st.integers(0, 2)),
                   draw(st.integers(0, 2)), draw(st.integers(0, 2**32 - 1)))
    if days == 1 and draw(st.booleans()):
        windows = make_windows(panel, t_past, t_future)[0][::stride]
    else:
        windows = make_rollout_windows(panel, t_past, t_future, days)[0][::stride]
    idx = np.array(draw(st.lists(st.integers(0, len(windows) - 1),
                                 min_size=1, max_size=12)))
    return panel, windows, (t_past, t_future, days, stride), idx


class TestIndexing:
    @settings(max_examples=150, deadline=None)
    @given(windowed())
    def test_gathered_batch_equals_stacked_slices_by_bytes(self, case):
        panel, windows, (t_past, t_future, days, stride), idx = case
        assert len(windows) == len(range(0, panel.n_steps - t_past - days * t_future + 1,
                                         stride))
        batch = windows[idx]
        assert isinstance(batch, Windows) and len(batch) == len(idx)
        assert batch.offset.tolist() == [i * stride for i in idx]
        want = [np.stack(parts) for parts in zip(*(
            _sliced(panel, i * stride, t_past, t_future, days) for i in idx))]
        for got, w in zip(stack_samples(batch), want):
            assert got.flags.c_contiguous
            assert got.shape == w.shape and got.tobytes() == w.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(windowed())
    def test_whole_set_ranges_and_single_windows(self, case):
        panel, windows, (t_past, t_future, days, stride), _ = case
        stacked = stack_samples(windows)
        for got in stacked:
            assert got.flags.c_contiguous and got.shape[0] == len(windows)
        for i, one in enumerate(windows):
            assert one.offset == i * stride
            for field, w in zip(FIELDS, _sliced(panel, i * stride, t_past,
                                                t_future, days)):
                assert getattr(one, field).tobytes() == w.tobytes()
        tail = windows[len(windows) // 2:]
        for got, whole in zip(stack_samples(tail), stacked):
            assert got.tobytes() == whole[len(windows) // 2:].tobytes()

    def test_index_past_the_end_raises(self):
        windows, _ = make_windows(_panel(2, 12, 1, 1, 0), 4, 2)
        assert len(windows) == 7
        with pytest.raises(IndexError):
            windows[7]
        assert [int(w.offset) for w in windows] == list(range(7))

    def test_gathered_batch_is_writable_and_leaves_the_split_alone(self):
        windows, _ = make_windows(_panel(2, 20, 1, 1, 1), 4, 2)
        before = stack_samples(windows)
        batch = windows[np.array([3, 1, 3])]
        for field in FIELDS:
            getattr(batch, field)[...] = 0.0
        for got, want in zip(stack_samples(windows), before):
            assert got.tobytes() == want.tobytes()


def _tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWindowBytes:
    @pytest.mark.parametrize("t_past, t_future", [(6, 4), (24, 24)])
    def test_split_holds_its_blocks_and_offsets(self, t_past, t_future):
        nbytes_held = _tracer().nbytes_held
        prepared = prepare_splits(synth_generate(SynthConfig(nodes=3, steps=600)),
                                  t_past, t_future)
        widths = 1 + len(prepared.layout.past) + len(prepared.layout.future)
        for split in ("train", "val", "test"):
            windows = getattr(prepared, split)
            panel = getattr(prepared, f"{split}_panel")
            blocks = panel.n_nodes * panel.n_steps * widths * 8
            assert nbytes_held(windows) == blocks + windows.offset.nbytes

    @pytest.mark.parametrize("days", [1, 3])
    def test_rollout_holds_its_blocks_and_offsets(self, days):
        nbytes_held = _tracer().nbytes_held
        prepared = prepare_splits(synth_generate(SynthConfig(nodes=3, steps=600)), 6, 4)
        panel = prepared.test_panel
        windows, layout = make_rollout_windows(panel, 6, 4, days)
        widths = 1 + len(layout.past) + len(layout.future)
        assert nbytes_held(windows) == \
            panel.n_nodes * panel.n_steps * widths * 8 + windows.offset.nbytes
