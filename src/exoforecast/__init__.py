"""Exogenous-aware spatio-temporal forecasting toolkit."""

from .autodiff import Tape, Tensor, grad_check
from .data import (
    Panel,
    Scaler,
    SynthConfig,
    VariableRole,
    Windows,
    chronological_split,
    corrupt_exogenous,
    encode_time,
    load_panel,
    make_rollout_windows,
    make_windows,
    prepare_splits,
    save_panel,
    synth_generate,
)
from .graphs import (
    Graph,
    adaptive_adjacency,
    adaptive_adjacency_directed,
    build_graph,
    pearson_topk_adjacency,
)
from .model import ExoModel, ModelConfig, load_model, save_model
from .training import (
    MetricsRecord,
    TrainConfig,
    cosine_lr,
    evaluate,
    metrics,
    train,
)

__version__ = "0.1.0"
