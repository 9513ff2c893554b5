"""Fast checks of the benchmark harness itself, at toy shapes.

Run from the repository root: ``python3 -m pytest -q perfbench/test_harness.py``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, nbytes_held  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    tr = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0))
    outer = tr.open("outer")            # 0 .. 10
    child = tr.open("child")            # 1 .. 4, holds grandchild 2 .. 3
    grandchild = tr.open("grandchild")
    tr.close(grandchild)
    tr.close(child)
    second = tr.open("child")           # 6 .. 7
    tr.close(second)
    tr.close(outer)
    summary = tr.summary()
    assert summary["outer"] == {"total_s": 10.0, "self_s": 6.0, "calls": 1}
    assert summary["child"] == {"total_s": 4.0, "self_s": 3.0, "calls": 2}
    assert summary["grandchild"] == {"total_s": 1.0, "self_s": 1.0, "calls": 1}
    assert [row[3] for row in tr.spans()] == [-1, 0, 1, 0]


def test_wrap_records_spans_and_restores():
    import exoforecast.training as training

    original = training.metrics
    tr = Tracer()
    assert tr.wrap("exoforecast.training.metrics", "training.metrics")
    training.metrics([1.0, 2.0], [1.0, 3.0])
    tr.uninstall()
    assert training.metrics is original
    assert tr.summary()["training.metrics"]["calls"] == 1


def test_missing_entry_point_is_reported_not_raised():
    tr = Tracer()
    assert not tr.wrap("exoforecast.cli.no_such_entry", "gone.span")
    assert not tr.wrap("no_such_package.module.fn", "gone.module")
    assert "exoforecast.cli.no_such_entry" in tr.missing["gone.span"]
    assert "gone.module" in tr.missing
    assert not tr.hook_tape("exoforecast.autodiff.NoSuchTape")
    assert "autodiff" in tr.missing
    tr.uninstall()


def test_layer_metrics_mark_missing_spans_never_zero():
    spans = {span: {"total_s": 2.0, "self_s": 1.0, "calls": 3}
             for _, span, _ in run.LAYER_TIMES}
    info = {"spans": spans,
            "missing": {"selector.select_stage": "entry point exoforecast.model.select_stage not found"},
            "tape_error": None,
            "tape_per_step": {span: [5, 40] for _, span in run.TAPE_SPANS},
            "tapes_alive_max": 2, "window_bytes": 64}
    metrics = run.layer_metrics({"wall_s": 1.0}, {"wall_s": 1.5, "trace": info},
                                {"step_peak_mb": 3.0})
    assert [n for n, _ in run.PER_LAYER] == list(metrics)
    for name in ("selector.select_stage_s", "selector.select_stage_calls",
                 "selector.tape_nodes", "selector.tape_bytes"):
        assert metrics[name]["value"] is None
        assert "select_stage" in metrics[name]["missing"]
    assert metrics["model.predict_s"]["value"] == 2.0      # a total-time metric
    assert metrics["model.forward_self_s"]["value"] == 1.0
    assert metrics["backbones.tape_bytes"]["value"] == 40
    assert metrics["trace.overhead_frac"]["value"] == pytest.approx(0.5)
    failed = run.layer_metrics(None, None, None)
    assert all(m["value"] is None and m["missing"] for m in failed.values())


def test_tape_counters_follow_the_active_tape():
    from exoforecast import autodiff as ad

    tr = Tracer()
    assert tr.hook_tape("exoforecast.autodiff.Tape")
    try:
        kept = []
        for _ in range(3):
            with ad.Tape() as tape:
                w = ad.Tensor([1.0, 2.0], requires_grad=True)
                ad.add(ad.mul(w, w), 1.0)
            kept.append(tape)
    finally:
        tr.uninstall()
    assert tr.tapes_alive_max == 2
    assert tr.tape_per_step("autodiff") == (2, 32)


def test_nbytes_held_counts_each_buffer_once():
    import numpy as np

    base = np.zeros(100)
    windows = [base[:10], base[10:20], np.ones(4)]
    assert nbytes_held(windows) == base.nbytes + 32


def test_output_check_rejects_a_wrong_count(tmp_path):
    wl = run.WORKLOADS["eval-rollout"]
    test_len = run.split_lengths(wl.steps)[2]
    rows = [{"horizon_days": d, "mae": 1.0,
             "count": run.n_windows(test_len, d) * run.NODES * run.T_FUTURE * d}
            for d in (1, 2, 3)]
    (tmp_path / "metrics.json").write_text(json.dumps(rows))
    assert run.check_outputs(wl, tmp_path)[0] == []
    rows[2]["count"] -= 1
    (tmp_path / "metrics.json").write_text(json.dumps(rows))
    problems, _, mae = run.check_outputs(wl, tmp_path)
    assert problems and mae is None


def test_ledger_flags_changed_outputs(tmp_path):
    ledger = run.Ledger(tmp_path / "digests.json", "w|seed=1|src=x")
    assert ledger.check({"metrics.json": "a"}) == []
    ledger.save()
    again = run.Ledger(tmp_path / "digests.json", "w|seed=1|src=x")
    assert again.check({"metrics.json": "a"}) == []
    assert again.check({"metrics.json": "b"})


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == run.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
               for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_traced_toy_command_end_to_end(tmp_path):
    """One real subprocess: a tiny train under the tracer reports every span."""
    run.write_panel(tmp_path / "p.csv", tmp_path / "p.json", steps=160, seed=3, nodes=3)
    spec = {"mode": "trace", "kind": "train", "report": str(tmp_path / "r.json"),
            "spans": str(tmp_path / "s.json"),
            "argv": ["train", "--data", str(tmp_path / "p.csv"), "--schema",
                     str(tmp_path / "p.json"), "--t-past", "8", "--t-future", "4",
                     "--hidden", "4", "--experts", "2", "--graph-k", "2",
                     "--batch", "64", "--epochs", "1", "--out", str(tmp_path / "out")]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(tmp_path / "spec.json")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    trace = report["trace"]
    assert trace["missing"] == {} and trace["tape_error"] is None
    assert trace["spans"]["data.prepare_splits"]["calls"] == 2
    assert trace["tape_per_step"]["autodiff"][0] > trace["tape_per_step"]["selector.select_stage"][0] > 0
    assert report["setup_s"] < report["wall_s"]
    assert len(json.loads((tmp_path / "s.json").read_text())) > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-mixer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
