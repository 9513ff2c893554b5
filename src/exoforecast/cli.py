"""Command-line surface: synthesize, train, evaluate, ablate, corrupt, graph.

Every run archives its full configuration next to its outputs so results
can be reproduced from the archive alone. Wall-clock accounting goes to a
separate timing file; all other outputs are byte-deterministic for a fixed
config and seed.

A run prepares and ablates its panel once; every horizon, day 1 included, is
scored on rollout windows of the test panel, and reported by ``_report``.
Horizons 1..D are rolled once: each continues the rollout of the one before.

Each setting is declared once. A flag's dest is the name of the config field
it sets, and ``_settings`` fills ``SynthConfig``, ``ModelConfig``,
``TrainConfig`` and ``RunConfig`` from the parsed flags by those names; a
flag's default is read from the dataclass that owns the field.
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
    """Merged, serializable view of one run's settings.

    ``model`` and ``train`` are typed configs; ``to_dict`` writes them as the
    nested JSON objects ``config_from_dict`` parses back into them.
    """

    data: str
    schema: str
    seed: int
    t_past: int
    t_future: int
    horizon_days: int
    use_past: bool
    use_future: bool
    use_date: bool
    model: ModelConfig
    train: TrainConfig

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


def _settings(cls, args, **given):
    """``cls`` built from ``given`` plus each other field that ``args`` holds
    under the field's own name; a field neither names keeps its default."""
    named = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if f.name not in given and hasattr(args, f.name)}
    return cls(**named, **given)


def _panel_sizes(prepared: PreparedData) -> dict:
    """The ``ModelConfig`` fields that the panel decides, by name."""
    return {"n_nodes": prepared.train_panel.n_nodes,
            "past_exo_dim": len(prepared.layout.past),
            "future_exo_dim": len(prepared.layout.future)}


def _model_config(args, prepared: PreparedData) -> ModelConfig:
    return _settings(ModelConfig, args, **_panel_sizes(prepared))


def _evaluate(model, prepared: PreparedData, horizons,
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
        samples, _ = make_rollout_windows(prepared.test_panel, prepared.t_past,
                                          prepared.t_future, days)
        if corrupt is not None:
            samples = corrupt_exogenous(samples, prepared.layout, corrupt,
                                        corrupt_ratio, corrupt_seed)
        record = evaluate(model, samples, prepared.scaler,
                          prepared.target_channel, history=history)
        history = record.history if corrupt is None else None
        rows.append({"horizon_days": days, **record.to_dict()})
    return rows


def _fit(run: RunConfig, prepared: PreparedData, horizons):
    """Train the model ``run`` describes on ``prepared`` less the inputs the
    run leaves out; the model, its ``TrainResult`` and one metric row per
    horizon in ``horizons``."""
    prepared = drop_exogenous(prepared, run.use_past, run.use_future, run.use_date)
    model = ExoModel(run.model, target_series=prepared.train_target_series)
    result = train(model, prepared.train, prepared.val, prepared.scaler,
                   prepared.target_channel, run.train)
    return model, result, _evaluate(model, prepared, horizons)


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
    cfg = _settings(SynthConfig, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    panel = synth_generate(cfg)
    save_panel(panel, out_dir / "panel.csv", out_dir / "panel.schema.json")
    write_json(out_dir / "synth_config.json", dataclasses.asdict(cfg))
    print(f"wrote {out_dir / 'panel.csv'} "
          f"({panel.n_nodes} nodes x {panel.n_steps} steps)")
    return 0


def _build_run(args, prepared: PreparedData) -> RunConfig:
    """The run archive for ``args``; the model config needs the layout widths."""
    return _settings(RunConfig, args, model=_model_config(args, prepared),
                     train=_settings(TrainConfig, args))


def cmd_train(args) -> int:
    prepared = _load_prepared(args)
    _check_horizons(prepared, range(1, args.horizon_days + 1))
    run = _build_run(args, prepared)
    model, result, rows = _fit(run, prepared, range(1, run.horizon_days + 1))
    _write_run_outputs(Path(args.out), run, model, result)
    print(f"trained {len(result.history)} epochs "
          f"(best val MAE {result.best_val_mae:.6f} "
          f"at epoch {result.best_epoch}); outputs in {args.out}")
    _report(Path(args.out), "metrics", rows, [])
    return 0


def _load_run(model_dir: Path) -> tuple[RunConfig, ExoModel, PreparedData]:
    """The run archived in ``model_dir``: its config, model and prepared panel.

    ``config.json`` is parsed once, into a ``RunConfig`` whose ``model`` and
    ``train`` are typed configs, so every field must be present and of its
    type. Each setting it stores twice must agree: the top-level ``t_past``,
    ``t_future`` and ``seed`` with ``model``'s, ``seed`` with ``train.seed``,
    and the panel's node count and exogenous widths with ``model``'s. A file
    that breaks either rule is a one-line ``ValueError`` naming it and, for
    a disagreement, both values.
    """
    config_path = model_dir / "config.json"
    if not config_path.exists():
        raise FileNotFoundError(f"missing model archive: {config_path}")
    try:
        run = config_from_dict(RunConfig, json.loads(config_path.read_text()))
    except ValueError as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    prepared = drop_exogenous(_load_prepared(run), run.use_past, run.use_future,
                              run.use_date)
    twice = [(name, getattr(run, name), f"model.{name}", getattr(run.model, name))
             for name in ("t_past", "t_future", "seed")]
    twice.append(("seed", run.seed, "train.seed", run.train.seed))
    twice += [(f"model.{name}", getattr(run.model, name), f"the panel's {name}", value)
              for name, value in _panel_sizes(prepared).items()]
    for name, value, other, other_value in twice:
        if value != other_value:
            raise ValueError(f"{config_path}: {name} {value} disagrees with "
                             f"{other} {other_value}")
    model = load_model(model_dir / "model.bin", run.model)
    return run, model, prepared


def cmd_eval(args) -> int:
    if args.corrupt_ratio is not None and args.corrupt is None:
        raise ValueError("--corrupt-ratio needs --corrupt")
    model_dir = Path(args.model_dir)
    run, model, prepared = _load_run(model_dir)
    days = args.horizon_days or run.horizon_days
    _check_horizons(prepared, range(1, days + 1))
    rows = _evaluate(model, prepared, range(1, days + 1),
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
    base = _build_run(args, prepared)

    def one(label: str, *, use_past=True, use_future=True, use_date=True,
            fusion="context", use_selector=True, use_balancer=True):
        run = dataclasses.replace(
            base, use_past=use_past, use_future=use_future, use_date=use_date,
            model=dataclasses.replace(base.model, fusion=fusion,
                                      use_selector=use_selector,
                                      use_balancer=use_balancer))
        _, _, (row,) = _fit(run, prepared, [run.horizon_days])
        rows.append({"variant": label, **row})

    for use_past, use_future, use_date in _DATA_ABLATIONS:
        label = "data:" + "".join(
            ch for ch, flag in zip("PFD", (use_past, use_future, use_date))
            if flag)
        one(label, use_past=use_past, use_future=use_future, use_date=use_date)
    one("module:no-selector", use_selector=False)
    one("module:no-balancer", use_balancer=False)
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
    base.update(_evaluate(model, prepared, [days])[0])
    rows.append(base)
    for strategy in ("zero", "random"):
        for ratio in CORRUPTION_RATIOS:
            row = {"strategy": strategy, "ratio": ratio}
            row.update(_evaluate(model, prepared, [days], corrupt=strategy,
                                 corrupt_ratio=ratio,
                                 corrupt_seed=args.corrupt_seed)[0])
            rows.append(row)
    _report(Path(args.out) if args.out else model_dir, "corruption", rows,
            ["strategy", "ratio"])
    return 0


def cmd_graph(args) -> int:
    """Dump ``--graph``'s adjacency as tab-separated rows: the matrix before
    self-loops and row normalization, not the one a grugcn model convolves
    with. An adaptive kind draws its embeddings from ``--seed`` alone.

    The flags pass ``train``'s checks first, in its words, so ``--graph-k``
    below 1 fails as it does there. ``--out`` reports the ``--graph`` kind."""
    prepared = _load_prepared(args)
    n_nodes = _model_config(args, prepared).n_nodes
    graph = build_graph(args.graph_kind, n_nodes,
                        target_series=prepared.train_target_series, k=args.graph_k,
                        rng=np.random.default_rng(args.seed))
    text = "".join("\t".join(repr(float(v)) for v in row) + "\n"
                   for row in graph.matrix().values)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({args.graph_kind}, {n_nodes} nodes)")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_data_flags(p):
    p.add_argument("--data", required=True, help="panel csv path")
    p.add_argument("--schema", required=True, help="role descriptor path")
    p.add_argument("--t-past", type=int, default=ModelConfig.t_past)
    p.add_argument("--t-future", type=int, default=ModelConfig.t_future)


def _add_graph_flags(p):
    p.add_argument("--graph", choices=GRAPH_KINDS, default=ModelConfig.graph_kind,
                   dest="graph_kind")
    p.add_argument("--graph-k", type=int, default=ModelConfig.graph_k)


def _add_run_flags(p):
    """The flags of ``train`` and ``ablate``: data, model, training, output."""
    _add_data_flags(p)
    p.add_argument("--experts", type=int, default=ModelConfig.experts, metavar="K")
    p.add_argument("--hidden", type=int, default=ModelConfig.hidden, metavar="H")
    p.add_argument("--backbone", choices=BACKBONE_KINDS, default=ModelConfig.backbone)
    p.add_argument("--mix-hidden", type=int, default=ModelConfig.mix_hidden)
    _add_graph_flags(p)
    p.add_argument("--fusion", choices=FUSION_STRATEGIES, default=ModelConfig.fusion)
    p.add_argument("--keep-prob", type=float, default=ModelConfig.keep_prob)
    p.add_argument("--no-selector", action="store_false", dest="use_selector")
    p.add_argument("--no-balancer", action="store_false", dest="use_balancer")
    for role in ("past", "future", "date"):
        p.add_argument(f"--use-{role}", action=argparse.BooleanOptionalAction,
                       default=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size,
                   dest="batch_size", metavar="BATCH")
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--lr-max", type=float, default=TrainConfig.lr_max)
    p.add_argument("--lr-min", type=float, default=TrainConfig.lr_min)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--loss", choices=("mae", "mse"), default=TrainConfig.loss)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.add_argument("--horizon-days", type=int, choices=(1, 2, 3), default=1)


def _add_archive_flags(p, *, corrupt: bool):
    """The flags of ``eval`` and ``corrupt-eval``; ``corrupt`` adds the
    single-strategy corruption flags of ``eval``."""
    p.add_argument("--model-dir", required=True)
    p.add_argument("--out")
    p.add_argument("--horizon-days", type=int, choices=(1, 2, 3))
    if corrupt:
        p.add_argument("--corrupt", choices=("zero", "random"))
        p.add_argument("--corrupt-ratio", type=float)
    p.add_argument("--corrupt-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exoforecast",
        description="Exogenous-aware spatio-temporal forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic panel")
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=SynthConfig.nodes)
    p.add_argument("--steps", type=int, default=SynthConfig.steps)
    p.add_argument("--lag", type=int, default=SynthConfig.lag)
    p.add_argument("--noise", type=float, default=SynthConfig.noise)
    p.add_argument("--past-coef", type=float, default=SynthConfig.past_coef)
    p.add_argument("--future-coef", type=float, default=SynthConfig.future_coef)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and archive the run")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model archive")
    _add_archive_flags(p, corrupt=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="input/module/strategy ablation grid")
    _add_run_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("corrupt-eval",
                       help="robustness grid over corruption strategies")
    _add_archive_flags(p, corrupt=False)
    p.set_defaults(func=cmd_corrupt_eval)

    about = ("dump a graph's adjacency before self-loops and row normalization, "
             "not the matrix a grugcn model convolves with")
    p = sub.add_parser("graph", help=about, description=about)
    _add_data_flags(p)
    _add_graph_flags(p)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.add_argument("--out")
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
