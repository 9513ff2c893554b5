"""Command-line surface: synthesize, train, evaluate, ablate, corrupt, graph.

Every run archives its full configuration next to its outputs so results
can be reproduced from the archive alone. Wall-clock accounting goes to a
separate timing file; all other outputs are byte-deterministic for a fixed
config and seed.

A run prepares and ablates its panel once; every horizon, day 1 included, is
scored on rollout windows of the test panel, and reported by ``_report``.
Horizons 1..D are rolled once: each continues the rollout of the one before.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    PreparedData,
    SynthConfig,
    check_rollout_length,
    corrupt_exogenous,
    drop_exogenous,
    load_panel,
    make_rollout_windows,
    prepare_splits,
    save_panel,
    synth_generate,
)
from .backbones import BACKBONE_KINDS
from .fusion import FUSION_STRATEGIES
from .graphs import GRAPH_KINDS, build_graph
from .model import ExoModel, ModelConfig, config_from_dict, load_model, save_model
from .training import TrainConfig, TrainResult, evaluate, train

METRIC_COLUMNS = ("mae", "rmse", "mape", "mre")


# ---------------------------------------------------------------------------
# Run configuration archive
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RunConfig:
    """Merged, serializable view of one run's settings."""

    data: str
    schema: str
    seed: int
    t_past: int
    t_future: int
    horizon_days: int
    use_past: bool
    use_future: bool
    use_date: bool
    model: dict
    train: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def format_table(rows: list[dict], columns: list[str]) -> str:
    """Fixed-width text table; metric floats rendered at six decimals."""
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.6f}"
        return "-" if v is None else str(v)

    cells = [[fmt(r.get(c)) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in cells]
    return "\n".join(lines) + "\n"


def _load_prepared(cfg) -> PreparedData:
    """Load and prepare the panel named by ``cfg`` (parsed args or a RunConfig)."""
    return prepare_splits(load_panel(cfg.data, cfg.schema), cfg.t_past, cfg.t_future)


def _check_horizons(prepared: PreparedData, days) -> None:
    """Fail before any training or forecasting unless the test split holds a
    rollout of each length in ``days``."""
    for d in days:
        check_rollout_length(prepared.test_panel, prepared.t_past,
                             prepared.t_future, d)


def _model_config(args, prepared: PreparedData) -> ModelConfig:
    return ModelConfig(
        n_nodes=prepared.train_panel.n_nodes,
        past_exo_dim=len(prepared.layout.past),
        future_exo_dim=len(prepared.layout.future),
        t_past=args.t_past,
        t_future=args.t_future,
        hidden=args.hidden,
        experts=args.experts,
        backbone=args.backbone,
        mix_hidden=args.mix_hidden,
        graph_kind=args.graph,
        graph_k=args.graph_k,
        fusion=args.fusion,
        use_selector=not args.no_selector,
        use_balancer=not args.no_balancer,
        keep_prob=args.keep_prob,
        seed=args.seed,
    )


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch,
                       patience=args.patience, seed=args.seed,
                       lr_max=args.lr_max, lr_min=args.lr_min,
                       weight_decay=args.weight_decay, loss=args.loss)


def _train_once(run: RunConfig, prepared: PreparedData
                ) -> tuple[ExoModel, TrainResult]:
    model = ExoModel(ModelConfig.from_dict(run.model),
                     target_series=prepared.train_target_series)
    result = train(model, prepared.train, prepared.val, prepared.scaler,
                   prepared.target_channel,
                   config_from_dict(TrainConfig, run.train))
    return model, result


def _evaluate(model, run: RunConfig, prepared: PreparedData, horizons,
              corrupt: str | None = None, corrupt_ratio: float = 0.0,
              corrupt_seed: int = 0) -> list[dict]:
    """One metric row per horizon in ``horizons`` (increasing day counts),
    each from one ``make_rollout_windows`` and one ``evaluate`` call.

    An uncorrupted horizon continues the rollout history of the one before
    it, so it forecasts only its new days; the rows equal those of rolling
    each horizon from day 1 bit for bit. A corrupted horizon rolls from
    day 1: its corruption draws differ from the shorter horizon's.
    """
    rows, history = [], None
    for days in horizons:
        samples, _ = make_rollout_windows(prepared.test_panel, run.t_past,
                                          run.t_future, days)
        if corrupt is not None:
            samples = corrupt_exogenous(samples, prepared.layout, corrupt,
                                        corrupt_ratio, corrupt_seed)
        record = evaluate(model, samples, prepared.scaler,
                          prepared.target_channel, days=days,
                          t_future=run.t_future, history=history)
        history = record.history if corrupt is None else None
        rows.append({"horizon_days": days, **record.to_dict()})
    return rows


def _report(out_dir: Path, stem: str, rows: list[dict], lead: list[str]) -> None:
    """Write ``rows`` to ``stem``.json and as a table to ``stem``.txt, and
    print the table; ``lead`` names the columns before the metrics."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / f"{stem}.json", rows)
    table = format_table(rows, [*lead, "horizon_days", *METRIC_COLUMNS, "count"])
    (out_dir / f"{stem}.txt").write_text(table)
    print(table, end="")


def _write_run_outputs(out_dir: Path, run: RunConfig, model: ExoModel,
                       result: TrainResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", run.to_dict())
    save_model(out_dir / "model.bin", model)
    with open(out_dir / "history.jsonl", "w") as fh:
        for rec in result.history:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(out_dir / "timing.txt", "w") as fh:
        fh.write("epoch\tseconds\n")
        for i, sec in enumerate(result.epoch_seconds):
            fh.write(f"{i + 1}\t{sec:.4f}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = SynthConfig(nodes=args.nodes, steps=args.steps, lag=args.lag,
                      noise=args.noise, seed=args.seed,
                      past_coef=args.past_coef, future_coef=args.future_coef)
    panel = synth_generate(cfg)
    save_panel(panel, out_dir / "panel.csv", out_dir / "panel.schema.json")
    write_json(out_dir / "synth_config.json", dataclasses.asdict(cfg))
    print(f"wrote {out_dir / 'panel.csv'} "
          f"({panel.n_nodes} nodes x {panel.n_steps} steps)")
    return 0


def _build_run(args, prepared: PreparedData) -> RunConfig:
    """The run archive for ``args``; the model config needs the layout widths."""
    model_cfg = _model_config(args, prepared)
    return RunConfig(
        data=str(args.data), schema=str(args.schema), seed=args.seed,
        t_past=args.t_past, t_future=args.t_future,
        horizon_days=args.horizon_days,
        use_past=args.use_past, use_future=args.use_future,
        use_date=args.use_date,
        model=model_cfg.to_dict(),
        train=dataclasses.asdict(_train_config(args)),
    )


def cmd_train(args) -> int:
    prepared = _load_prepared(args)
    _check_horizons(prepared, range(1, args.horizon_days + 1))
    run = _build_run(args, prepared)
    prepared = drop_exogenous(prepared, run.use_past, run.use_future, run.use_date)
    model, result = _train_once(run, prepared)
    rows = _evaluate(model, run, prepared, range(1, run.horizon_days + 1))
    _write_run_outputs(Path(args.out), run, model, result)
    print(f"trained {len(result.history)} epochs "
          f"(best val MAE {result.best_val_mae:.6f} "
          f"at epoch {result.best_epoch}); outputs in {args.out}")
    _report(Path(args.out), "metrics", rows, [])
    return 0


def _load_run(model_dir: Path) -> tuple[RunConfig, ExoModel, PreparedData]:
    config_path = model_dir / "config.json"
    if not config_path.exists():
        raise FileNotFoundError(f"missing model archive: {config_path}")
    try:
        run = config_from_dict(RunConfig, json.loads(config_path.read_text()))
        model_cfg = ModelConfig.from_dict(run.model)
        config_from_dict(TrainConfig, run.train)
    except ValueError as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    prepared = drop_exogenous(_load_prepared(run), run.use_past, run.use_future,
                              run.use_date)
    model = load_model(model_dir / "model.bin", model_cfg)
    return run, model, prepared


def cmd_eval(args) -> int:
    if args.corrupt_ratio is not None and args.corrupt is None:
        raise ValueError("--corrupt-ratio needs --corrupt")
    model_dir = Path(args.model_dir)
    run, model, prepared = _load_run(model_dir)
    days = args.horizon_days or run.horizon_days
    _check_horizons(prepared, range(1, days + 1))
    rows = _evaluate(model, run, prepared, range(1, days + 1),
                     corrupt=args.corrupt, corrupt_ratio=args.corrupt_ratio or 0.0,
                     corrupt_seed=args.corrupt_seed)
    _report(Path(args.out) if args.out else model_dir, "metrics", rows, [])
    return 0


_DATA_ABLATIONS = [  # the seven past/future/date input combinations
    (True, False, False), (False, True, False), (False, False, True),
    (True, False, True), (False, True, True), (True, True, False),
    (True, True, True),
]


def cmd_ablate(args) -> int:
    rows = []
    prepared = _load_prepared(args)
    _check_horizons(prepared, [args.horizon_days])

    def one(label: str, *, use_past=True, use_future=True, use_date=True,
            fusion="context", no_selector=False, no_balancer=False):
        run = _build_run(args, prepared)
        run.use_past, run.use_future, run.use_date = use_past, use_future, use_date
        run.model["fusion"] = fusion
        run.model["use_selector"] = not no_selector
        run.model["use_balancer"] = not no_balancer
        variant_data = drop_exogenous(prepared, use_past, use_future, use_date)
        model, _ = _train_once(run, variant_data)
        row = {"variant": label}
        row.update(_evaluate(model, run, variant_data, [args.horizon_days])[0])
        rows.append(row)

    for use_past, use_future, use_date in _DATA_ABLATIONS:
        label = "data:" + "".join(
            ch for ch, flag in zip("PFD", (use_past, use_future, use_date))
            if flag)
        one(label, use_past=use_past, use_future=use_future, use_date=use_date)
    one("module:no-selector", no_selector=True)
    one("module:no-balancer", no_balancer=True)
    for fusion in FUSION_STRATEGIES:
        one(f"strategy:{fusion}", fusion=fusion)
    _report(Path(args.out), "ablation", rows, ["variant"])
    return 0


CORRUPTION_RATIOS = (0.2, 0.4, 0.6, 0.8)


def cmd_corrupt_eval(args) -> int:
    model_dir = Path(args.model_dir)
    run, model, prepared = _load_run(model_dir)
    days = args.horizon_days or run.horizon_days
    rows = []
    base = {"strategy": "none", "ratio": 0.0}
    base.update(_evaluate(model, run, prepared, [days])[0])
    rows.append(base)
    for strategy in ("zero", "random"):
        for ratio in CORRUPTION_RATIOS:
            row = {"strategy": strategy, "ratio": ratio}
            row.update(_evaluate(model, run, prepared, [days], corrupt=strategy,
                                 corrupt_ratio=ratio,
                                 corrupt_seed=args.corrupt_seed)[0])
            rows.append(row)
    _report(Path(args.out) if args.out else model_dir, "corruption", rows,
            ["strategy", "ratio"])
    return 0


def cmd_graph(args) -> int:
    panel = load_panel(args.data, args.schema)
    prepared = prepare_splits(panel, args.t_past, args.t_future)
    graph = build_graph(args.graph, panel.n_nodes,
                        target_series=prepared.train_target_series,
                        k=args.graph_k, rng=np.random.default_rng(args.seed))
    matrix = graph.matrix().values
    lines = ["\t".join(repr(float(v)) for v in row) for row in matrix]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({graph.provenance}, {panel.n_nodes} nodes)")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_data_flags(p):
    p.add_argument("--data", required=True, help="panel csv path")
    p.add_argument("--schema", required=True, help="role descriptor path")
    p.add_argument("--t-past", type=int, default=24, dest="t_past")
    p.add_argument("--t-future", type=int, default=24, dest="t_future")


def _add_graph_flags(p):
    p.add_argument("--graph", choices=GRAPH_KINDS, default="pearson")
    p.add_argument("--graph-k", type=int, default=8, dest="graph_k")


def _add_model_flags(p):
    p.add_argument("--experts", type=int, default=4, metavar="K")
    p.add_argument("--hidden", type=int, default=64, metavar="H")
    p.add_argument("--backbone", choices=BACKBONE_KINDS, default="grugcn")
    p.add_argument("--mix-hidden", type=int, default=32, dest="mix_hidden")
    _add_graph_flags(p)
    p.add_argument("--fusion", choices=FUSION_STRATEGIES, default="context")
    p.add_argument("--keep-prob", type=float, default=0.9, dest="keep_prob")
    p.add_argument("--no-selector", action="store_true")
    p.add_argument("--no-balancer", action="store_true")
    p.add_argument("--use-past", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--use-future", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--use-date", action=argparse.BooleanOptionalAction,
                   default=True)


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--patience", type=int, default=30)
    p.add_argument("--lr-max", type=float, default=1e-2, dest="lr_max")
    p.add_argument("--lr-min", type=float, default=1e-7, dest="lr_min")
    p.add_argument("--weight-decay", type=float, default=1e-4,
                   dest="weight_decay")
    p.add_argument("--loss", choices=("mae", "mse"), default="mae")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exoforecast",
        description="Exogenous-aware spatio-temporal forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic panel")
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--lag", type=int, default=6)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--past-coef", type=float, default=1.0, dest="past_coef")
    p.add_argument("--future-coef", type=float, default=1.0, dest="future_coef")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and archive the run")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon-days", type=int, choices=(1, 2, 3), default=1,
                   dest="horizon_days")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model archive")
    p.add_argument("--model-dir", required=True, dest="model_dir")
    p.add_argument("--out", default=None)
    p.add_argument("--horizon-days", type=int, choices=(1, 2, 3), default=None,
                   dest="horizon_days")
    p.add_argument("--corrupt", choices=("zero", "random"), default=None)
    p.add_argument("--corrupt-ratio", type=float, default=None,
                   dest="corrupt_ratio")
    p.add_argument("--corrupt-seed", type=int, default=0, dest="corrupt_seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="input/module/strategy ablation grid")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon-days", type=int, choices=(1, 2, 3), default=1,
                   dest="horizon_days")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("corrupt-eval",
                       help="robustness grid over corruption strategies")
    p.add_argument("--model-dir", required=True, dest="model_dir")
    p.add_argument("--out", default=None)
    p.add_argument("--horizon-days", type=int, choices=(1, 2, 3), default=None,
                   dest="horizon_days")
    p.add_argument("--corrupt-seed", type=int, default=0, dest="corrupt_seed")
    p.set_defaults(func=cmd_corrupt_eval)

    p = sub.add_parser("graph", help="dump an adjacency matrix")
    _add_data_flags(p)
    _add_graph_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
