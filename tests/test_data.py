"""Tests for panel ingestion, encoding, splitting, windowing and corruption."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoforecast.data import (
    DATE_CHANNELS,
    Panel,
    Scaler,
    SynthConfig,
    VariableRole,
    add_date_channels,
    chronological_split,
    corrupt_exogenous,
    drop_exogenous,
    encode_time,
    fill_missing,
    load_panel,
    make_rollout_windows,
    make_windows,
    mask_exogenous,
    prepare_splits,
    save_panel,
    synth_generate,
)


def hourly(n, start="2019-01-01T00:00:00"):
    t0 = datetime.fromisoformat(start)
    return [t0 + timedelta(hours=i) for i in range(n)]


def tiny_panel(n=2, t=6, seed=0):
    rng = np.random.default_rng(seed)
    return Panel(
        node_ids=[f"n{i}" for i in range(n)],
        timestamps=hourly(t),
        variables=["tgt", "pexo", "fexo"],
        roles={
            "tgt": VariableRole.TARGET,
            "pexo": VariableRole.PAST,
            "fexo": VariableRole.FUTURE,
        },
        data=rng.normal(size=(n, t, 3)),
    )


class TestLoadPanel:
    def write(self, tmp_path, rows, variables=("a", "b"), roles=("target", "past")):
        csv = tmp_path / "panel.csv"
        schema = tmp_path / "panel.schema.json"
        csv.write_text("node_id,timestamp," + ",".join(variables) + "\n" + rows)
        schema.write_text(
            '{"variables": {' + ", ".join(
                f'"{v}": "{r}"' for v, r in zip(variables, roles)) + "}}")
        return csv, schema

    def test_well_formed_file(self, tmp_path):
        rows = "".join(
            f"n{i},2019-01-01T0{t}:00:00,{i + t}.0,{i - t}.0\n"
            for i in range(2) for t in range(4))
        csv, schema = self.write(tmp_path, rows)
        panel = load_panel(csv, schema)
        assert panel.data.shape == (2, 4, 2)
        assert panel.roles["a"] == VariableRole.TARGET

    def test_duplicate_timestamp_rejected(self, tmp_path):
        rows = ("n0,2019-01-01T00:00:00,1.0,2.0\n"
                "n0,2019-01-01T00:00:00,1.5,2.5\n")
        csv, schema = self.write(tmp_path, rows)
        with pytest.raises(ValueError, match="non-monotone"):
            load_panel(csv, schema)

    def test_unknown_role_tag(self, tmp_path):
        csv, schema = self.write(tmp_path, "n0,2019-01-01T00:00:00,1.0,2.0\n",
                                 roles=("target", "sideways"))
        with pytest.raises(ValueError, match="unknown role"):
            load_panel(csv, schema)

    def test_date_role_rejected_in_schema(self, tmp_path):
        csv, schema = self.write(tmp_path, "n0,2019-01-01T00:00:00,1.0,2.0\n",
                                 roles=("target", "date"))
        with pytest.raises(ValueError, match="synthesized"):
            load_panel(csv, schema)

    def test_malformed_row(self, tmp_path):
        csv, schema = self.write(tmp_path, "n0,2019-01-01T00:00:00,1.0\n")
        with pytest.raises(ValueError, match="expected 4 fields"):
            load_panel(csv, schema)

    def test_missing_entries_masked(self, tmp_path):
        rows = ("n0,2019-01-01T00:00:00,1.0,\n"
                "n0,2019-01-01T01:00:00,2.0,5.0\n")
        csv, schema = self.write(tmp_path, rows)
        panel = load_panel(csv, schema)
        assert panel.mask is not None and not panel.mask[0, 0, 1]

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999"])
    def test_infinite_cell_rejected(self, tmp_path, cell):
        rows = ("n0,2019-01-01T00:00:00,1.0,\n"
                f"n0,2019-01-01T01:00:00,2.0,{cell}\n")
        csv, schema = self.write(tmp_path, rows)
        with pytest.raises(ValueError) as info:
            load_panel(csv, schema)
        assert str(info.value) == f"{csv}:3: non-finite value {cell!r}"

    def test_madrid_scale_shape_echo(self, tmp_path):
        # 4344 hourly frames, 20 variables
        variables = ["no2"] + [f"v{i}" for i in range(19)]
        roles = ["target"] + ["past"] * 10 + ["future"] * 9
        stamps = hourly(4344)
        lines = []
        for node in ("s0", "s1"):
            for ts in stamps:
                lines.append(f"{node},{ts.isoformat()}," + ",".join(["1.0"] * 20))
        csv, schema = self.write(tmp_path, "\n".join(lines) + "\n",
                                 variables=variables, roles=roles)
        panel = load_panel(csv, schema)
        assert panel.n_steps == 4344
        assert len(panel.variables) == 20

    @staticmethod
    def stamped(stamps) -> str:
        return "".join(f"n{i},{ts.isoformat()},{i + t}.0,{t}.0\n"
                       for i in range(2) for t, ts in enumerate(stamps))

    def test_dropped_hour_rejected(self, tmp_path):
        stamps = hourly(8)
        del stamps[5]
        csv, schema = self.write(tmp_path, self.stamped(stamps))
        with pytest.raises(ValueError) as info:
            load_panel(csv, schema)
        assert str(info.value) == (
            f"{csv}: irregular cadence for node n0: 2019-01-01 04:00:00 then "
            "2019-01-01 06:00:00 is 2:00:00 apart, the first step 1:00:00")

    def test_doubled_step_rejected(self, tmp_path):
        stamps = hourly(4)
        stamps += [stamps[-1] + timedelta(hours=2 * k) for k in (1, 2, 3)]
        csv, schema = self.write(tmp_path, self.stamped(stamps))
        with pytest.raises(ValueError, match=(
                "irregular cadence for node n0: 2019-01-01 03:00:00 then "
                "2019-01-01 05:00:00 is 2:00:00 apart")):
            load_panel(csv, schema)

    @pytest.mark.parametrize("step", [timedelta(minutes=15), timedelta(hours=1),
                                      timedelta(days=1)])
    def test_regular_cadence_loads(self, tmp_path, step):
        t0 = datetime.fromisoformat("2019-03-30T22:00:00")
        stamps = [t0 + k * step for k in range(6)]
        csv, schema = self.write(tmp_path, self.stamped(stamps))
        panel = load_panel(csv, schema)
        assert panel.timestamps == stamps and panel.data.shape == (2, 6, 2)

    def test_round_trip(self, tmp_path):
        panel = tiny_panel()
        save_panel(panel, tmp_path / "p.csv", tmp_path / "p.schema.json")
        back = load_panel(tmp_path / "p.csv", tmp_path / "p.schema.json")
        np.testing.assert_array_equal(back.data, panel.data)
        assert back.variables == panel.variables
        assert [ts.isoformat() for ts in back.timestamps] == \
            [ts.isoformat() for ts in panel.timestamps]


class TestEncodeTime:
    def test_hour_six(self):
        block = encode_time([datetime(2019, 1, 1, 6)])
        np.testing.assert_allclose(block[0, :2], [1.0, 0.0], atol=1e-15)

    def test_midnight_january(self):
        block = encode_time([datetime(2019, 1, 7, 0)])
        np.testing.assert_allclose(block[0, :4], [0.0, 1.0, 0.0, 1.0], atol=1e-15)

    def test_monday_one_hot(self):
        block = encode_time([datetime(2019, 1, 7)])  # a Monday
        np.testing.assert_array_equal(block[0, 4:], [1, 0, 0, 0, 0, 0, 0])

    def test_ranges_and_one_hot_sum(self):
        block = encode_time(hourly(200))
        assert (block[:, :4] >= -1).all() and (block[:, :4] <= 1).all()
        assert set(np.unique(block[:, 4:])) <= {0.0, 1.0}
        np.testing.assert_array_equal(block[:, 4:].sum(axis=1), np.ones(200))

    def test_add_date_channels(self):
        panel = add_date_channels(tiny_panel())
        assert panel.variables[-11:] == DATE_CHANNELS
        # broadcast identically to all nodes
        np.testing.assert_array_equal(panel.data[0, :, 3:], panel.data[1, :, 3:])
        with pytest.raises(ValueError, match="already"):
            add_date_channels(panel)


class TestSplit:
    def test_ten_steps(self):
        parts = chronological_split(tiny_panel(t=10))
        assert [p.n_steps for p in parts] == [7, 2, 1]

    def test_madrid_length(self):
        parts = chronological_split(tiny_panel(t=4344))
        assert [p.n_steps for p in parts] == [3040, 868, 436]

    def test_ordering(self):
        train, val, test = chronological_split(tiny_panel(t=20))
        assert max(train.timestamps) < min(val.timestamps) < min(test.timestamps)

    def test_min_length(self):
        with pytest.raises(ValueError, match="below minimum"):
            chronological_split(tiny_panel(t=10), min_length=3)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=10, max_value=400))
    def test_concatenation_reproduces_panel(self, t):
        panel = tiny_panel(t=t)
        parts = chronological_split(panel)
        glued = np.concatenate([p.data for p in parts], axis=1)
        np.testing.assert_array_equal(glued, panel.data)


class TestWindows:
    def test_counts(self):
        panel = add_date_channels(tiny_panel(t=48))
        samples, _ = make_windows(panel, 24, 24)
        assert len(samples) == 1
        samples, _ = make_windows(add_date_channels(tiny_panel(t=49)), 24, 24)
        assert len(samples) == 2

    def test_shapes_and_routing(self):
        panel = add_date_channels(tiny_panel(t=20))
        samples, layout = make_windows(panel, 6, 4)
        s = samples[0]
        assert s.x.shape == (2, 6, 1)
        assert s.e_past.shape == (2, 6, 1 + 11)
        assert s.e_future.shape == (2, 4, 1 + 11)
        assert s.y.shape == (2, 4, 1)
        assert layout.past == ["pexo"] + DATE_CHANNELS
        assert layout.future == ["fexo"] + DATE_CHANNELS

    def test_offset_alignment(self):
        panel = add_date_channels(tiny_panel(t=20, seed=3))
        samples, _ = make_windows(panel, 6, 4)
        tgt = panel.target_index
        for s in samples:
            np.testing.assert_array_equal(
                s.y[:, :, 0], panel.data[:, s.offset + 6:s.offset + 10, tgt])
            np.testing.assert_array_equal(
                s.x[:, :, 0], panel.data[:, s.offset:s.offset + 6, tgt])

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter"):
            make_windows(tiny_panel(t=5), 4, 4)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=30, max_value=120), st.integers(min_value=1, max_value=3))
    def test_no_leakage(self, t, stride):
        # every X/E_past timestamp precedes every Y timestamp; E_future == Y steps
        panel = add_date_channels(tiny_panel(t=t, seed=t))
        t_past, t_future = 8, 5
        samples = make_windows(panel, t_past, t_future)[0][::stride]
        assert len(samples) == len(range(0, t - t_past - t_future + 1, stride))
        for s in samples:
            hist_end = s.offset + t_past
            horizon = panel.timestamps[hist_end:hist_end + t_future]
            assert max(panel.timestamps[s.offset:hist_end]) < min(horizon)
            np.testing.assert_array_equal(
                s.e_future[:, :, -11:], panel.data[:, hist_end:hist_end + t_future, -11:])

    def test_rollout_windows_extended(self):
        panel = add_date_channels(tiny_panel(t=40, seed=1))
        samples, _ = make_rollout_windows(panel, 8, 4, days=3)
        s = samples[0]
        assert s.e_past.shape[1] == 8 + 2 * 4
        assert s.e_future.shape[1] == 12
        assert s.y.shape[1] == 12


class TestScaler:
    def test_two_point_channel(self):
        panel = tiny_panel(n=1, t=2)
        panel.data[0, :, 0] = [1.0, 3.0]
        scaler = Scaler.fit(panel)
        assert scaler.mean[0] == 2.0 and scaler.std[0] == 1.0
        np.testing.assert_allclose(scaler.transform(panel.data)[0, :, 0], [-1.0, 1.0])

    def test_constant_channel_floors(self):
        panel = tiny_panel()
        panel.data[:, :, 1] = 4.2
        scaler = Scaler.fit(panel)
        out = scaler.transform(panel.data)
        # mean of identical values can be off by an ulp; the 1e-8 floor keeps
        # the quotient at roundoff scale instead of blowing up
        np.testing.assert_allclose(out[:, :, 1], np.zeros((2, 6)), atol=1e-6)

    def test_train_constant_channel_scales_by_one(self):
        panel = tiny_panel()
        panel.data[:, :, 1] = 4.2
        assert Scaler.fit(panel).std[1] == 1.0

    def test_short_panel_scales_to_bounded_values(self):
        # 112 training hours: weekday 6 and the month channels never vary there
        prepared = prepare_splits(synth_generate(SynthConfig(nodes=3, steps=160)), 6, 4)
        floored = [v for v, s in zip(prepared.train_panel.variables,
                                     prepared.scaler.std) if s == 1.0]
        assert {"month_sin", "month_cos", "dow_6"} <= set(floored)
        for name in ("train", "val", "test"):
            data = getattr(prepared, f"{name}_panel").data
            assert np.isfinite(data).all() and np.abs(data).max() < 10.0

    def test_round_trip(self):
        panel = tiny_panel(seed=5)
        scaler = Scaler.fit(panel)
        scaled = scaler.transform(panel.data)
        back = np.stack([scaler.inverse_channel(scaled[..., c], c)
                         for c in range(panel.data.shape[2])], axis=-1)
        np.testing.assert_allclose(back, panel.data, atol=1e-9)

    def test_train_statistics(self):
        panel = tiny_panel(n=4, t=200, seed=6)
        scaler = Scaler.fit(panel)
        out = scaler.transform(panel.data).reshape(-1, 3)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-3)


class TestCorruption:
    def _samples(self, seed=0, t=60):
        panel = add_date_channels(tiny_panel(t=t, seed=seed))
        return make_windows(panel, 8, 4)

    def test_ratio_zero_identical(self):
        samples, layout = self._samples()
        out = corrupt_exogenous(samples, layout, "zero", 0.0, seed=1)
        for a, b in zip(out, samples):
            np.testing.assert_array_equal(a.e_past, b.e_past)
            np.testing.assert_array_equal(a.e_future, b.e_future)

    def test_ratio_one_zero_strategy(self):
        samples, layout = self._samples()
        out = corrupt_exogenous(samples, layout, "zero", 1.0, seed=1)
        for s in out:
            assert (s.e_past[:, :, ~layout.past_is_date] == 0).all()
            assert (s.e_future[:, :, ~layout.future_is_date] == 0).all()

    def test_date_and_target_untouched(self):
        samples, layout = self._samples()
        out = corrupt_exogenous(samples, layout, "random", 1.0, seed=2)
        for a, b in zip(out, samples):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(
                a.e_past[:, :, layout.past_is_date], b.e_past[:, :, layout.past_is_date])

    def test_random_strategy_moments(self):
        # ratio 1 on ~1e5 entries: sample mean near 0, variance near 1
        panel = add_date_channels(tiny_panel(n=5, t=600, seed=9))
        samples, layout = make_windows(panel, 24, 24)
        samples = samples[::13]
        out = corrupt_exogenous(samples, layout, "random", 1.0, seed=3)
        drawn = np.concatenate([
            np.concatenate([s.e_past[:, :, ~layout.past_is_date].ravel(),
                            s.e_future[:, :, ~layout.future_is_date].ravel()])
            for s in out])
        assert drawn.size >= 1e4
        assert abs(drawn.mean()) < 0.02
        assert abs(drawn.var() - 1.0) < 0.05

    def test_reproducible_from_seed(self):
        samples, layout = self._samples()
        a = corrupt_exogenous(samples, layout, "random", 0.4, seed=7)
        b = corrupt_exogenous(samples, layout, "random", 0.4, seed=7)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.e_past, s2.e_past)

    @pytest.mark.parametrize("ratio", [0.2, 0.4, 0.6, 0.8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binomial_fraction_bound(self, ratio, seed):
        # seed-fixed draws: a 3-sigma bound is not an almost-sure event
        samples, layout = self._samples(seed=1, t=400)
        out = corrupt_exogenous(samples, layout, "zero", ratio, seed=seed)
        changed = total = 0
        for a, b in zip(out, samples):
            pa = a.e_past[:, :, ~layout.past_is_date]
            pb = b.e_past[:, :, ~layout.past_is_date]
            changed += int((pa != pb).sum())
            total += pa.size
        # zeroing an entry that is already ~0 is immeasurable, but the
        # normal-valued driver columns make exact collisions null events
        bound = 3 * np.sqrt(ratio * (1 - ratio) / total)
        assert abs(changed / total - ratio) <= bound + 1e-12

    def test_bad_inputs(self):
        samples, layout = self._samples()
        with pytest.raises(ValueError, match="ratio"):
            corrupt_exogenous(samples, layout, "zero", 1.2, seed=0)
        with pytest.raises(ValueError, match="strategy"):
            corrupt_exogenous(samples, layout, "drop", 0.5, seed=0)


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(SynthConfig(seed=42))
        b = synth_generate(SynthConfig(seed=42))
        np.testing.assert_array_equal(a.data, b.data)

    def test_noiseless_target_is_linear_in_exogenous(self):
        # With lag >= t_future every horizon step depends only on observable
        # inputs, so an ordinary least-squares fit must reach MAE ~ 0.
        cfg = SynthConfig(nodes=3, steps=300, lag=5, noise=0.0, seed=11)
        panel = add_date_channels(synth_generate(cfg))
        t_past, t_future = 8, 4
        samples, layout = make_windows(panel, t_past, t_future)
        p_col = layout.past.index("past_driver")
        f_col = layout.future.index("future_driver")
        sin_col = layout.future.index("hour_sin")
        cos_col = layout.future.index("hour_cos")
        for h in range(t_future):
            feats, ys = [], []
            for s in samples:
                lagged = s.e_past[:, t_past - cfg.lag + h, p_col]
                feats.append(np.stack([
                    lagged,
                    s.e_future[:, h, f_col],
                    s.e_future[:, h, sin_col],
                    s.e_future[:, h, cos_col],
                ], axis=1))
                ys.append(s.y[:, h, 0])
            a = np.concatenate(feats)
            y = np.concatenate(ys)
            coef, *_ = np.linalg.lstsq(a, y, rcond=None)
            mae = np.abs(a @ coef - y).mean()
            assert mae < 1e-9

    def test_zero_coefficients_leave_no_signal(self):
        cfg = SynthConfig(past_coef=0.0, future_coef=0.0, seed=3, noise=0.0)
        panel = synth_generate(cfg)
        tgt = panel.data[:, :, panel.target_index]
        pexo = panel.data[:, :, 1]
        # target is pure seasonality: identical across nodes, uncorrelated with drivers
        np.testing.assert_allclose(tgt[0], tgt[1])
        corr = np.corrcoef(tgt.ravel(), pexo.ravel())[0, 1]
        assert abs(corr) < 0.1


class TestFillMissing:
    def test_forward_then_zero_fill(self):
        panel = tiny_panel(t=4)
        mask = np.ones_like(panel.data, dtype=bool)
        panel.data[0, 0, 1] = np.nan
        panel.data[0, 2, 1] = np.nan
        mask[0, 0, 1] = mask[0, 2, 1] = False
        panel = Panel(panel.node_ids, panel.timestamps, panel.variables,
                      panel.roles, panel.data, mask=mask)
        filled = fill_missing(panel)
        assert filled.mask is None
        assert filled.data[0, 0, 1] == 0.0                       # head hole -> zero
        assert filled.data[0, 2, 1] == filled.data[0, 1, 1]      # interior -> ffill


def _owner(a):
    """The array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a


def _copied_windows(panel, t_past, t_future, hist_span, stride=1):
    """(x, e_past, e_future, y) of every window as fancy-indexed copies."""
    tgt = panel.target_index
    date = panel.indices_for(VariableRole.DATE)
    past = panel.indices_for(VariableRole.PAST) + date
    fut = panel.indices_for(VariableRole.FUTURE) + date
    out = []
    for o in range(0, panel.n_steps - t_past - t_future + 1, stride):
        horizon = slice(o + t_past, o + t_past + t_future)
        out.append((panel.data[:, o:o + t_past, [tgt]],
                    panel.data[:, o:o + hist_span, :][:, :, past],
                    panel.data[:, horizon, :][:, :, fut],
                    panel.data[:, horizon, [tgt]]))
    return out


FIELDS = ("x", "e_past", "e_future", "y")


class TestWindowViews:
    def test_split_windows_are_views_of_one_block_set(self):
        prepared = prepare_splits(synth_generate(SynthConfig(nodes=3, steps=200)), 8, 4)
        widths = 1 + len(prepared.layout.past) + len(prepared.layout.future)
        for name in ("train", "val", "test"):
            samples = getattr(prepared, name)
            panel = getattr(prepared, f"{name}_panel")
            first = samples[0]
            for s in samples:
                for field, block in zip(FIELDS, (first.x, first.e_past,
                                                 first.e_future, first.x)):
                    arr = getattr(s, field)
                    assert arr.base is not None
                    assert np.shares_memory(arr, _owner(block))
            owners = {id(_owner(getattr(s, f))): _owner(getattr(s, f)).nbytes
                      for s in samples for f in FIELDS}
            assert len(owners) == 3
            assert sum(owners.values()) <= panel.n_nodes * panel.n_steps * widths * 8

    @pytest.mark.parametrize("days", [1, 3])
    def test_windows_are_read_only(self, days):
        panel = add_date_channels(tiny_panel(t=40, seed=2))
        samples, _ = make_rollout_windows(panel, 8, 4, days=days)
        for s in samples[:3]:
            for field in FIELDS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(s, field)[0, 0, 0] = 1.0
        np.testing.assert_array_equal(panel.data, add_date_channels(
            tiny_panel(t=40, seed=2)).data)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=20, max_value=60), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    def test_views_equal_copies_by_bytes(self, t, stride, days):
        panel = add_date_channels(tiny_panel(t=t, seed=t))
        t_past, t_future = 6, 4
        if days == 1:
            samples = make_windows(panel, t_past, t_future)[0][::stride]
        else:
            samples = make_rollout_windows(panel, t_past, t_future, days)[0][::stride]
        expected = _copied_windows(panel, t_past, days * t_future,
                                   t_past + (days - 1) * t_future, stride)
        assert len(samples) == len(expected)
        for s, want in zip(samples, expected):
            for field, w in zip(FIELDS, want):
                got = getattr(s, field)
                assert got.shape == w.shape and got.tobytes() == w.tobytes()


ABLATIONS = [flags for flags in
             ((p, f, d) for p in (True, False) for f in (True, False)
              for d in (True, False)) if not all(flags)]


class TestDropExogenous:
    def _prepared(self):
        return prepare_splits(synth_generate(SynthConfig(nodes=3, steps=260, seed=4)),
                              6, 4)

    @staticmethod
    def _assert_same_windows(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.offset == b.offset
            for field in FIELDS:
                x, y = getattr(a, field), getattr(b, field)
                assert x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("flags", ABLATIONS)
    def test_equals_window_masking_by_bytes(self, flags):
        prepared = self._prepared()
        before = {name: getattr(prepared, f"{name}_panel").data.copy()
                  for name in ("train", "val", "test")}
        dropped = drop_exogenous(prepared, *flags)
        for name in ("train", "val", "test"):
            self._assert_same_windows(
                getattr(dropped, name),
                mask_exogenous(getattr(prepared, name), prepared.layout, *flags))
            assert getattr(prepared, f"{name}_panel").data.tobytes() == \
                before[name].tobytes()
        assert dropped.layout is prepared.layout
        assert dropped.train_target_series.tobytes() == \
            prepared.train_target_series.tobytes()

    def test_nothing_dropped_is_the_same_object(self):
        prepared = self._prepared()
        assert drop_exogenous(prepared) is prepared
        assert drop_exogenous(prepared, True, True, True) is prepared

    @pytest.mark.parametrize("flags", ABLATIONS)
    def test_windows_stay_read_only_views(self, flags):
        dropped = drop_exogenous(self._prepared(), *flags)
        widths = 1 + len(dropped.layout.past) + len(dropped.layout.future)
        for name in ("train", "val", "test"):
            samples = getattr(dropped, name)
            panel = getattr(dropped, f"{name}_panel")
            owners = {id(_owner(getattr(s, f))): _owner(getattr(s, f))
                      for s in samples for f in FIELDS}
            assert len(owners) <= 3
            assert sum(o.nbytes for o in owners.values()) <= \
                panel.n_nodes * panel.n_steps * widths * 8
            assert not any(o.flags.writeable for o in owners.values())

    @pytest.mark.parametrize("days", [1, 2, 3])
    @pytest.mark.parametrize("flags", ABLATIONS)
    def test_rollouts_from_dropped_panel_are_masked(self, flags, days):
        prepared = self._prepared()
        dropped = drop_exogenous(prepared, *flags)
        got, _ = make_rollout_windows(dropped.test_panel, 6, 4, days)
        plain, layout = make_rollout_windows(prepared.test_panel, 6, 4, days)
        self._assert_same_windows(got, mask_exogenous(plain, layout, *flags))


def fill_missing_oracle(panel):
    """Forward-fill by scalar loops: the last observed value, +0.0 before any."""
    data = panel.data.copy()
    n, t, f = data.shape
    for i in range(n):
        for j in range(f):
            col = data[i, :, j]
            obs = panel.mask[i, :, j]
            last = 0.0
            for s in range(t):
                if obs[s]:
                    last = col[s]
                else:
                    col[s] = last
    return data


@st.composite
def holed_panels(draw):
    n = draw(st.integers(1, 3))
    t = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    panel = tiny_panel(n=n, t=t, seed=seed)
    mask = rng.random(panel.data.shape) < draw(st.sampled_from([0.2, 0.5, 0.9]))
    lead = draw(st.integers(0, t))
    mask[:, :lead, rng.integers(3)] = False          # leading hole
    if draw(st.booleans()):
        mask[rng.integers(n), :, rng.integers(3)] = False   # an all-missing column
    data = panel.data
    data[rng.random(data.shape) < 0.1] *= -0.0        # signed zeros among the values
    data[~mask] = np.nan
    return Panel(panel.node_ids, panel.timestamps, panel.variables, panel.roles,
                 data, mask=mask)


class TestFillMissingVectorized:
    @settings(max_examples=200, deadline=None)
    @given(holed_panels())
    def test_matches_loop_oracle_by_bytes(self, panel):
        filled = fill_missing(panel)
        assert filled.mask is None
        assert filled.data.tobytes() == fill_missing_oracle(panel).tobytes()

    def test_head_holes_are_positive_zero(self):
        panel = tiny_panel(t=5)
        mask = np.ones(panel.data.shape, bool)
        mask[0, :3, 1] = False
        mask[1, :, 2] = False
        panel.data[~mask] = np.nan
        filled = fill_missing(Panel(panel.node_ids, panel.timestamps, panel.variables,
                                    panel.roles, panel.data, mask=mask))
        head = np.concatenate([filled.data[0, :3, 1], filled.data[1, :, 2]])
        assert (head == 0.0).all() and not np.signbit(head).any()
