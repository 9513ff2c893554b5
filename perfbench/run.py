"""Benchmark for the exoforecast CLI: train and evaluate at the paper shape.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-grugcn --seed 1 --seconds 36 --trace 0

Each run writes a seeded synthetic panel (and, for ``eval-rollout``, an
untrained model archive) before any timing, then starts every command in a
fresh process of its own (``perfbench/child.py``), one at a time. With
``--trace 0`` it repeats the untraced command while ``--seconds`` allow and
probes set-up alone a few times; the end-to-end metrics are medians over
those processes. With ``--trace 1`` it runs the command under the span
tracer between two untraced runs, then once more for one step under
``tracemalloc``, and reports the per-layer metrics. Every command's outputs are checked. The last
line of standard output is the JSON result; details, spans and the
environment stamp go to ``.perfbench_out/``. ``perfbench/DESIGN.md`` explains
the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

NODES, T_PAST, T_FUTURE = 24, 24, 24
RATIOS = (0.7, 0.2)            # train / val shares of the chronological split
SETUP_PROBES = 10              # set-up-only processes per untraced run
RUN_DEADLINE_S = 165.0         # every process of one run ends within this
PAPER_SHAPE = {"t_past": T_PAST, "t_future": T_FUTURE, "hidden": 64, "experts": 4,
               "backbone": "grugcn", "graph_kind": "pearson", "graph_k": 8,
               "fusion": "context", "seed": 0}
PAPER_FLAGS = ["--t-past", str(T_PAST), "--t-future", str(T_FUTURE), "--hidden", "64",
               "--experts", "4", "--graph", "pearson", "--graph-k", "8",
               "--fusion", "context", "--seed", "0"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "train" or "eval"
    steps: int         # panel length in hourly steps
    days: int          # longest horizon the command evaluates
    flags: tuple       # CLI words specific to the workload
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("train-grugcn", "train", 512, 1,
             ("--backbone", "grugcn", "--batch", "4"),
             "GRU recurrence and tape dominate: ~980 tape nodes per step, "
             "so recurrence, backward and per-node overhead do most of the work"),
    Workload("train-mixer", "train", 512, 1,
             ("--backbone", "mlp-mixer", "--batch", "8"),
             "graph-free with ~90 larger nodes per step, so the MoE selector "
             "dominates; a GRU-only change must not move it"),
    # 1440 steps, not the 4344 of the Madrid shape: one eval there takes ~55 s
    Workload("eval-rollout", "eval", 1440, 3, ("--horizon-days", "3"),
             "forward only (no tape, backward or optimizer) over 3-day rollouts, "
             "with a large window-materializing data path"),
)}

E2E = (  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("windows_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("test_mae", "1"),
)
# per-layer time metrics: (metric, span, "self" or "total")
LAYER_TIMES = (
    ("data.load_panel_s", "data.load_panel", "self"),
    ("data.prepare_splits_s", "data.prepare_splits", "self"),
    ("data.make_rollout_windows_s", "data.make_rollout_windows", "self"),
    ("graphs.build_graph_s", "graphs.build_graph", "self"),
    ("selector.select_stage_s", "selector.select_stage", "self"),
    ("backbones.forward_s", "backbones.forward", "self"),
    ("fusion.balance_s", "fusion.balance", "self"),
    ("model.forward_self_s", "model.forward", "self"),
    ("model.predict_s", "model.predict", "total"),
    ("model.load_s", "model.load", "self"),
    ("model.save_s", "model.save", "self"),
    ("autodiff.backward_s", "autodiff.backward", "self"),
    ("training.adamw_s", "training.adamw", "self"),
    ("training.zero_grad_s", "training.zero_grad", "self"),
    ("training.stack_samples_s", "training.stack_samples", "self"),
    ("training.evaluate_s", "training.evaluate", "total"),
    ("training.metrics_s", "training.metrics", "self"),
)
TAPE_SPANS = (("selector", "selector.select_stage"), ("backbones", "backbones.forward"),
              ("fusion", "fusion.balance"), ("autodiff", "autodiff"))
PER_LAYER = (
    *((m, "s") for m, _, _ in LAYER_TIMES),
    *((f"{span}_calls", "count") for _, span, _ in LAYER_TIMES),
    *((f"{layer}.tape_{what}", unit) for layer, _ in TAPE_SPANS
      for what, unit in (("nodes", "count"), ("bytes", "bytes"))),
    ("data.window_bytes", "bytes"),
    ("autodiff.tapes_alive_max", "count"),
    ("autodiff.step_traced_peak_mb", "MB"),
    ("trace.overhead_frac", "ratio"),
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_panel(csv_path: Path, schema_path: Path, steps: int, seed: int,
                nodes: int = NODES, lag: int = 6, noise: float = 0.1) -> None:
    """Seeded hourly panel: target = lagged past exogenous + future exogenous +
    daily season + noise, in the ``node_id,timestamp,var...`` CLI format."""
    rng = np.random.default_rng(seed)
    past = rng.standard_normal((nodes, steps + lag))
    future = rng.standard_normal((nodes, steps))
    eps = rng.standard_normal((nodes, steps))
    hours = np.arange(steps) % 24
    season = 0.5 * (np.sin(2 * np.pi * hours / 24) + 0.4 * np.cos(2 * np.pi * hours / 24))
    target = past[:, :steps] + future + season + noise * eps
    columns = np.stack([target, past[:, lag:], future], axis=2)
    start = datetime(2019, 1, 1)
    stamps = [(start + timedelta(hours=t)).isoformat() for t in range(steps)]
    with open(csv_path, "w") as fh:
        fh.write("node_id,timestamp,target,past_exo,future_exo\n")
        for i in range(nodes):
            for t in range(steps):
                a, b, c = columns[i, t].tolist()
                fh.write(f"n{i},{stamps[t]},{a!r},{b!r},{c!r}\n")
    schema = {"variables": {"target": "target", "past_exo": "past",
                            "future_exo": "future"}}
    schema_path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")


def split_lengths(steps: int) -> tuple[int, int, int]:
    """Train / val / test lengths of the CLI's chronological 70/20/10 split."""
    train, val = (math.floor(steps * r) for r in RATIOS)
    return train, val, steps - train - val


def n_windows(length: int, days: int = 1) -> int:
    return length - T_PAST - days * T_FUTURE + 1


def forecasts(wl: Workload) -> int:
    """One-day window forecasts the command makes over days 1..days."""
    test = split_lengths(wl.steps)[2]
    return sum(n_windows(test, d) * d for d in range(1, wl.days + 1))


def command(wl: Workload, work: Path, out: Path) -> list[str]:
    if wl.kind == "eval":
        return ["eval", "--model-dir", str(work / "archive"), "--out", str(out), *wl.flags]
    return ["train", "--data", str(work / "panel.csv"), "--schema",
            str(work / "panel.schema.json"), *PAPER_FLAGS, *wl.flags,
            "--epochs", "1", "--out", str(out)]


# ---------------------------------------------------------------------------
# Processes and checks
# ---------------------------------------------------------------------------

class Session:
    """One benchmark run: its deadline, child processes and failures."""

    def __init__(self, wl: Workload, work: Path):
        self.wl, self.work = wl, work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self._n = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, mode: str, argv=(), **extra) -> dict | None:
        """Run child.py in a fresh process; None (and a failure) if it fails."""
        self._n += 1
        tag = f"{self._n:02d}-{mode}"
        spec = {"mode": mode, "kind": self.wl.kind, "argv": list(argv),
                "report": str(self.work / f"{tag}.report.json"),
                "spans": str(self.work / f"{tag}.spans.json"), **extra}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        self.attempted += 1
        with open(self.work / f"{tag}.log", "w") as log:
            try:
                proc = subprocess.run([sys.executable, str(CHILD), str(spec_path)],
                                      cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                return self.fail(tag, "killed at the run deadline")
        report_path = Path(spec["report"])
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        if proc.returncode != 0 or report.get("exit") != 0:
            detail = report.get("error") or (self.work / f"{tag}.log").read_text()[-2000:]
            return self.fail(tag, f"exit {proc.returncode}: {detail.strip()}")
        return report

    def fail(self, tag: str, why: str) -> None:
        self.failures.append(f"{tag}: {why}")
        print(f"FAILED {tag}: {why}", file=sys.stderr)
        return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_outputs(wl: Workload, out: Path) -> tuple[list[str], dict, float | None]:
    """Problems with one command's outputs, their digests and the test MAE."""
    problems: list[str] = []
    names = ("metrics.json",) if wl.kind == "eval" else \
        ("history.jsonl", "metrics.json", "model.bin")
    absent = [n for n in names if not (out / n).is_file()]
    if absent:
        return [f"missing outputs {absent}"], {}, None
    rows = json.loads((out / "metrics.json").read_text())
    if [r.get("horizon_days") for r in rows] != list(range(1, wl.days + 1)):
        problems.append(f"metrics.json horizons {[r.get('horizon_days') for r in rows]}")
    test = split_lengths(wl.steps)[2]
    for r in rows:
        d = r.get("horizon_days")
        expected = n_windows(test, d) * NODES * T_FUTURE * d if isinstance(d, int) else None
        if r.get("count") != expected:
            problems.append(f"day {d}: count {r.get('count')} != {expected}")
        if not isinstance(r.get("mae"), float) or not math.isfinite(r["mae"]):
            problems.append(f"day {d}: mae {r.get('mae')!r}")
    if wl.kind == "train":
        for line in (out / "history.jsonl").read_text().splitlines():
            rec = json.loads(line)
            for key in ("loss", "val_mae"):
                if not math.isfinite(rec.get(key, math.nan)):
                    problems.append(f"history epoch {rec.get('epoch')}: {key} {rec.get(key)!r}")
    digests = {n: sha256(out / n) for n in names}
    mae = rows[-1]["mae"] if rows and not problems else None
    return problems, digests, mae


class Ledger:
    """Output digests per (workload, seed, source digest), kept across runs, so
    a command whose outputs differ between runs of one commit and seed fails."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, digests: dict) -> list[str]:
        seen = self.data.setdefault(self.key, digests)
        return [f"{n} differs from an earlier run of this commit and seed"
                for n in digests if seen.get(n, digests[n]) != digests[n]]

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")


def full_command(s: Session, ledger: Ledger, mode: str) -> dict | None:
    """Run the workload's command once and check its outputs."""
    out = Path(tempfile.mkdtemp(prefix=f"out-{mode}-", dir=s.work))
    report = s.child(mode, command(s.wl, s.work, out))
    if report is None:
        return None
    problems, digests, mae = check_outputs(s.wl, out)
    problems = problems or ledger.check(digests)
    if problems:
        return s.fail(out.name, "; ".join(problems))
    report["test_mae"] = mae
    if s.wl.kind == "train":
        epochs = (out / "timing.txt").read_text().splitlines()[1:]
        train_windows = n_windows(split_lengths(s.wl.steps)[0])
        report["windows_per_s"] = train_windows * len(epochs) / sum(
            float(line.split("\t")[1]) for line in epochs)
    elif "eval_s" in report:
        report["windows_per_s"] = forecasts(s.wl) / report["eval_s"]
    shutil.rmtree(out)
    return report


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def measured(values: list, unit: str, reason: str) -> dict:
    """Median of the samples, or a missing metric with its reason."""
    if not values:
        return {"value": None, "unit": unit, "missing": reason}
    return {"value": statistics.median(values), "unit": unit, "samples": len(values),
            "min": min(values), "max": max(values), "values": values}


def untraced(s: Session, ledger: Ledger, seconds: int) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        report = s.child("setup", command(s.wl, s.work, s.work / "probe"))
        if report is not None and "setup_s" in report:
            setups.append(report["setup_s"])
    runs: list[dict] = []
    began = time.perf_counter()
    last = 0.0
    while not runs or time.perf_counter() - began + last <= seconds:
        if s.remaining() < 2 * last:
            break
        t = time.perf_counter()
        report = full_command(s, ledger, "plain")
        last = time.perf_counter() - t
        if report is None:
            break
        runs.append(report)
    setups += [r["setup_s"] for r in runs if "setup_s" in r]
    reason = "no successful command"
    return {
        "setup_s": measured(setups, "s", runs[0].get("missing_marker", reason) if runs else reason),
        "wall_s": measured([r["wall_s"] for r in runs], "s", reason),
        "windows_per_s": measured([r["windows_per_s"] for r in runs if "windows_per_s" in r],
                                  "1/s", runs[0].get("missing_eval", reason) if runs else reason),
        "peak_rss_mb": measured([r["peak_rss_mb"] for r in runs], "MB", reason),
        "test_mae": measured([r["test_mae"] for r in runs], "1", reason),
    }


def traced(s: Session, ledger: Ledger) -> dict:
    # untraced commands on both sides of the traced one: the first command
    # of a run is often slower, which alone would bias the overhead
    before = full_command(s, ledger, "plain")
    trace = full_command(s, ledger, "trace")
    after = full_command(s, ledger, "plain")
    step = s.child("stepmem", command(s.wl, s.work, s.work / "stepmem"))
    plain = None if before is None or after is None else \
        {"wall_s": (before["wall_s"] + after["wall_s"]) / 2}
    return layer_metrics(plain, trace, step)


def layer_metrics(plain: dict | None, trace: dict | None, step: dict | None) -> dict:
    """Per-layer metrics from the untraced, traced and step-probe reports
    (None where that process failed); each one is a value or missing."""
    values: dict = {}
    missing: dict = {}
    info = (trace or {}).get("trace")
    if info is not None:
        spans, gone = info["spans"], info["missing"]
        for metric, span, kind in LAYER_TIMES:
            rec = spans.get(span, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            for name, value in ((metric, rec[f"{kind}_s"]), (f"{span}_calls", rec["calls"])):
                if span in gone:
                    missing[name] = gone[span]
                else:
                    values[name] = value
        for layer, span in TAPE_SPANS:
            why = gone.get("autodiff") or info["tape_error"] or gone.get(span)
            for i, what in enumerate(("nodes", "bytes")):
                if why:
                    missing[f"{layer}.tape_{what}"] = why
                else:
                    values[f"{layer}.tape_{what}"] = info["tape_per_step"][span][i]
        if "autodiff" in gone:
            missing["autodiff.tapes_alive_max"] = gone["autodiff"]
        else:
            values["autodiff.tapes_alive_max"] = info["tapes_alive_max"]
        if info["window_bytes"] is None:
            missing["data.window_bytes"] = gone.get("data.prepare_splits", "no windows seen")
        else:
            values["data.window_bytes"] = info["window_bytes"]
    if step is not None and "step_peak_mb" in step:
        values["autodiff.step_traced_peak_mb"] = step["step_peak_mb"]
    else:
        missing["autodiff.step_traced_peak_mb"] = "step probe failed or its entry points are missing"
    if plain is not None and trace is not None:
        values["trace.overhead_frac"] = trace["wall_s"] / plain["wall_s"] - 1.0
    return {name: {"value": values[name], "unit": unit} if name in values else
            {"value": None, "unit": unit,
             "missing": missing.get(name, "traced command failed")}
            for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = None
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            rev = ref_path.read_text().strip() if ref_path.is_file() else ref
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": rev, "src_sha256": src_digest(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "exoforecast" / "cli.py").is_file():
        print(f"error: no exoforecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stamp = environment()
    print("env " + json.dumps(stamp, sort_keys=True))

    s = Session(wl, work)
    write_panel(work / "panel.csv", work / "panel.schema.json", wl.steps, args.seed)
    prepared = wl.kind != "eval" or s.child(
        "archive", data=str(work / "panel.csv"), schema=str(work / "panel.schema.json"),
        out=str(work / "archive"), shape=PAPER_SHAPE, days=wl.days) is not None
    ledger = Ledger(OUT / "digests.json",
                    f"{wl.name}|seed={args.seed}|src={stamp['src_sha256']}")
    names = PER_LAYER if args.trace else E2E
    if not prepared:
        metrics = {n: {"value": None, "unit": u, "missing": "input preparation failed"}
                   for n, u in names}
    elif args.trace:
        metrics = traced(s, ledger)
    else:
        metrics = untraced(s, ledger, args.seconds)
    ledger.save()

    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": stamp, "failures": s.failures,
              "metrics": metrics,
              "spans": {p.name: json.loads(p.read_text()) for p in sorted(work.glob("*.spans.json"))}}
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for name, rec in metrics.items():
        if rec["value"] is None:
            print(f"metric {name} missing ({rec['unit']}): {rec['missing']}")
            continue
        extra = f" (median of {rec['samples']}, min {rec['min']}, max {rec['max']})" \
            if "samples" in rec else ""
        print(f"metric {name} = {rec['value']} {rec['unit']}{extra}")
    failed = len(s.failures)
    result = {"correct": failed == 0, "attempted": s.attempted, "failed": failed,
              "metrics": {n: {k: rec[k] for k in ("value", "unit", "missing") if k in rec}
                          for n, rec in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
