"""Run one exoforecast command in this fresh process and report on it.

Usage: ``python3 perfbench/child.py SPEC.json``. The spec names a mode, the
CLI words and where to write the JSON report. Modes:

- ``plain``: the untraced command. Only a one-shot marker is installed,
  where set-up ends: the first tape opened (train) or the first forecast
  (eval). For eval, ``evaluate`` calls are also timed.
- ``setup``: the same command, stopped where set-up ends.
- ``trace``: ``plain`` plus the span tracer on every entry point in
  ``SPANS``; raw spans are written to the spec's ``spans`` path.
- ``stepmem``: under ``tracemalloc``, one training step (tape open to the
  optimizer update) or, for eval, the first forecast; then stop.
- ``archive``: write the seeded, untrained model archive ``eval`` reads.

The program is imported from ``src/`` of the checkout this file sits in.
"""

import time

T0 = time.perf_counter()  # the command starts here: its imports count as set-up

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, nbytes_held, resolve  # noqa: E402

# (span, entry point at the name its caller resolves, counts tape growth)
SPANS = (
    ("data.load_panel", "exoforecast.cli.load_panel", False),
    ("data.prepare_splits", "exoforecast.cli.prepare_splits", False),
    ("data.make_rollout_windows", "exoforecast.cli.make_rollout_windows", False),
    ("graphs.build_graph", "exoforecast.model.build_graph", False),
    ("selector.select_stage", "exoforecast.model.select_stage", True),
    ("backbones.forward", "exoforecast.model.backbone_forward", True),
    ("fusion.balance", "exoforecast.model.context_balance", True),
    ("model.forward", "exoforecast.model.ExoModel.forward", False),
    ("model.predict", "exoforecast.model.ExoModel.predict", False),
    ("model.load", "exoforecast.cli.load_model", False),
    ("model.save", "exoforecast.cli.save_model", False),
    ("autodiff.backward", "exoforecast.autodiff.Tape.backward", False),
    ("training.adamw", "exoforecast.training.adamw_step", False),
    ("training.zero_grad", "exoforecast.model.ExoModel.zero_grad", False),
    ("training.stack_samples", "exoforecast.training.stack_samples", False),
    ("training.evaluate", "exoforecast.cli.evaluate", False),
    ("training.metrics", "exoforecast.training.metrics", False),
)
TAPE_CLASS = "exoforecast.autodiff.Tape"
TAPE_ENTER = TAPE_CLASS + ".__enter__"
PREDICT = "exoforecast.model.ExoModel.predict"
EVALUATE = "exoforecast.cli.evaluate"
ADAMW = "exoforecast.training.adamw_step"


class StopRun(BaseException):
    """Raised from a hook to end the command early; the CLI does not catch it."""


def once(path: str, before=None, after=None) -> bool:
    """Run ``before``/``after`` around the next call of ``path`` only."""
    owner, attr = resolve(path)
    if owner is None:
        return False
    original = getattr(owner, attr)

    def hook(*args, **kwargs):
        setattr(owner, attr, original)
        if before is not None:
            before()
        result = original(*args, **kwargs)
        if after is not None:
            after()
        return result

    setattr(owner, attr, hook)
    return True


def install_tracer(window_bytes: list) -> Tracer:
    tracer = Tracer()
    tracer.hook_tape(TAPE_CLASS)
    for span, path, count_tape in SPANS:
        on_result = None
        if span == "data.prepare_splits":
            def on_result(prepared):
                window_bytes.append(sum(nbytes_held(getattr(prepared, split, None))
                                        for split in ("train", "val", "test")))
        tracer.wrap(path, span, count_tape=count_tape, on_result=on_result)
    return tracer


def trace_report(tracer: Tracer, window_bytes: list) -> dict:
    tape = {span: tracer.tape_per_step(span) for span, _, counted in SPANS if counted}
    tape["autodiff"] = tracer.tape_per_step("autodiff")
    return {
        "spans": tracer.summary(),
        "missing": tracer.missing,
        "tape_error": tracer.tape_error,
        "tape_per_step": tape,
        "tapes_alive_max": tracer.tapes_alive_max,
        "window_bytes": max(window_bytes) if window_bytes else None,
    }


def write_archive(spec: dict) -> None:
    """Untrained grugcn archive at the paper shape, in the layout ``eval`` reads."""
    from exoforecast.cli import RunConfig, write_json
    from exoforecast.data import load_panel, prepare_splits
    from exoforecast.model import ExoModel, ModelConfig, save_model
    from exoforecast.training import TrainConfig

    shape = spec["shape"]
    prepared = prepare_splits(load_panel(spec["data"], spec["schema"]),
                              shape["t_past"], shape["t_future"])
    config = ModelConfig(n_nodes=prepared.train_panel.n_nodes,
                         past_exo_dim=len(prepared.layout.past),
                         future_exo_dim=len(prepared.layout.future),
                         **shape)
    model = ExoModel(config, target_series=prepared.train_target_series)
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.bin", model)
    run = RunConfig(data=spec["data"], schema=spec["schema"], seed=shape["seed"],
                    t_past=shape["t_past"], t_future=shape["t_future"],
                    horizon_days=spec["days"], use_past=True, use_future=True,
                    use_date=True, model=config.to_dict(),
                    train=dataclasses.asdict(TrainConfig()))
    write_json(out / "config.json", run.to_dict())


def run(spec: dict) -> dict:
    mode, kind = spec["mode"], spec.get("kind")
    report: dict = {"mode": mode}
    if mode == "archive":
        write_archive(spec)
        report["exit"] = 0
        return report

    setup_marker = TAPE_ENTER if kind == "train" else PREDICT
    marks: dict = {}
    window_bytes: list = []
    tracer = timer = None
    if mode == "trace":
        tracer = install_tracer(window_bytes)
    if mode == "stepmem":
        import tracemalloc

        def stop():
            marks["step_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            raise StopRun

        found = once(setup_marker, before=tracemalloc.start) and \
            once(ADAMW if kind == "train" else PREDICT, after=stop)
    elif mode == "setup":
        def stop():
            marks["setup_end"] = time.perf_counter()
            raise StopRun

        found = once(setup_marker, before=stop)
    else:
        found = once(setup_marker,
                     before=lambda: marks.setdefault("setup_end", time.perf_counter()))
        if kind == "eval":
            timer = Tracer()
            if not timer.wrap(EVALUATE, "evaluate"):
                report["missing_eval"] = timer.missing["evaluate"]
    if not found:
        report["missing_marker"] = f"entry point {setup_marker} not found"

    from exoforecast.cli import main

    try:
        report["exit"] = main(spec["argv"])
    except StopRun:
        report["exit"] = 0
    report["wall_s"] = time.perf_counter() - T0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "setup_end" in marks:
        report["setup_s"] = marks["setup_end"] - T0
    if "step_peak_mb" in marks:
        report["step_peak_mb"] = marks["step_peak_mb"]
    if timer is not None and "evaluate" in timer.summary():
        report["eval_s"] = timer.summary()["evaluate"]["total_s"]
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = trace_report(tracer, window_bytes)
        Path(spec["spans"]).write_text(json.dumps(tracer.spans()))
    return report


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    try:
        report = run(spec)
    except Exception:  # the parent records the failure; this process must report it
        report = {"mode": spec["mode"], "exit": None, "error": traceback.format_exc()}
    Path(spec["report"]).write_text(json.dumps(report))
    return 0 if report.get("exit") == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
