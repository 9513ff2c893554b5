"""Pluggable spatio-temporal encoders mapping (N, T, H) to an (N, T_f, 1) forecast.

Two desk-scale kinds: a graph-convolutional recurrent encoder (``grugcn``)
and a graph-free per-node MLP over the flattened window (``mlp-mixer``).
Both share a two-stage readout whose penultimate features (N, T_f, H) are
exposed for the attention fusion strategy.

The whole ``grugcn`` recurrence is one ``autodiff.gru_gcn_sequence`` tape
node and each dense layer one ``autodiff.affine`` node, so a branch records
that node plus the three readout nodes: lift, reshape and head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Params, Tensor

BACKBONE_KINDS = ("grugcn", "mlp-mixer")


@dataclass
class BackboneSpec:
    kind: str
    hidden: int            # latent width H of the conditioned representation
    t_future: int
    mix_hidden: int = 32   # mlp-mixer bottleneck width

    def __post_init__(self):
        if self.kind not in BACKBONE_KINDS:
            raise ValueError(f"unknown backbone kind {self.kind!r}")

    @property
    def needs_graph(self) -> bool:
        return self.kind == "grugcn"


@dataclass
class ReadoutParams(Params):
    """Two-stage head: lift a feature vector to per-step width-H features,
    then project each step to one channel."""

    w_seq: Tensor   # (D, T_f * H)
    b_seq: Tensor   # (T_f * H,)
    w_out: Tensor   # (H, 1)
    b_out: Tensor   # (1,)


@dataclass
class GruGcnParams(Params):
    w_s: Tensor     # (H, H) spatial mixing weights
    w_z: Tensor     # (2H, H) update gate
    b_z: Tensor
    w_r: Tensor     # (2H, H) reset gate
    b_r: Tensor
    w_c: Tensor     # (2H, H) candidate
    b_c: Tensor
    readout: ReadoutParams


@dataclass
class MlpMixerParams(Params):
    w1: Tensor      # (T * H, M)
    b1: Tensor
    w2: Tensor      # (M, M)
    b2: Tensor
    readout: ReadoutParams


def init_readout(feat_dim: int, t_future: int, hidden: int,
                 rng: Optional[np.random.Generator]) -> ReadoutParams:
    return ReadoutParams(
        w_seq=ad.uniform_parameter(rng, (feat_dim, t_future * hidden), feat_dim),
        b_seq=Tensor(np.zeros(t_future * hidden), requires_grad=True),
        w_out=ad.uniform_parameter(rng, (hidden, 1), hidden),
        b_out=Tensor(np.zeros(1), requires_grad=True),
    )


def init_grugcn(spec: BackboneSpec, rng: Optional[np.random.Generator]) -> GruGcnParams:
    h = spec.hidden

    def gate():
        return (ad.uniform_parameter(rng, (2 * h, h), 2 * h),
                Tensor(np.zeros(h), requires_grad=True))

    w_z, b_z = gate()
    w_r, b_r = gate()
    w_c, b_c = gate()
    return GruGcnParams(
        w_s=ad.uniform_parameter(rng, (h, h), h),
        w_z=w_z, b_z=b_z, w_r=w_r, b_r=b_r, w_c=w_c, b_c=b_c,
        readout=init_readout(h, spec.t_future, h, rng),
    )


def init_mlp_mixer(spec: BackboneSpec, t_in: int,
                   rng: Optional[np.random.Generator]) -> MlpMixerParams:
    flat = t_in * spec.hidden
    m = spec.mix_hidden
    return MlpMixerParams(
        w1=ad.uniform_parameter(rng, (flat, m), flat),
        b1=Tensor(np.zeros(m), requires_grad=True),
        w2=ad.uniform_parameter(rng, (m, m), m),
        b2=Tensor(np.zeros(m), requires_grad=True),
        readout=init_readout(m, spec.t_future, spec.hidden, rng),
    )


def readout_head(penult: Tensor, readout: ReadoutParams) -> Tensor:
    """Project width-H features (..., T_f, H) to one channel (..., T_f, 1)."""
    return ad.affine(penult, readout.w_out, readout.b_out)


def apply_readout(features: Tensor, readout: ReadoutParams) -> tuple[Tensor, Tensor]:
    """Return (forecast (..., T_f, 1), penultimate features (..., T_f, H)).

    H is the row count of ``w_out`` and T_f the width of ``w_seq`` over H,
    so the weights fix both sizes.
    """
    hidden = readout.w_out.shape[0]
    lifted = ad.affine(features, readout.w_seq, readout.b_seq)
    penult = ad.reshape(lifted, features.shape[:-1]
                        + (readout.w_seq.shape[1] // hidden, hidden))
    return readout_head(penult, readout), penult


def grugcn_forward(x: Tensor, adj: Tensor, params: GruGcnParams) -> tuple[Tensor, Tensor]:
    """Run the recurrence over time and read out from the last hidden state."""
    h = ad.gru_gcn_sequence(x, adj, params.w_s, params.w_z, params.b_z,
                            params.w_r, params.b_r, params.w_c, params.b_c)
    return apply_readout(h, params.readout)


def mlp_mixer_forward(x: Tensor, params: MlpMixerParams) -> tuple[Tensor, Tensor]:
    """Two-layer per-node map over the flattened time-feature window."""
    flat = ad.reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    h1 = ad.relu(ad.affine(flat, params.w1, params.b1))
    h2 = ad.relu(ad.affine(h1, params.w2, params.b2))
    return apply_readout(h2, params.readout)


def backbone_forward(x_prime: Tensor, graph, params, spec: BackboneSpec
                     ) -> tuple[Tensor, Tensor]:
    """Dispatch on kind; returns (forecast, penultimate features)."""
    if spec.kind == "mlp-mixer":
        return mlp_mixer_forward(x_prime, params)
    if graph is None:
        raise ValueError("grugcn backbone requires a graph")
    return grugcn_forward(x_prime, graph, params)


def init_backbone(spec: BackboneSpec, t_in: int, rng: Optional[np.random.Generator]):
    if spec.kind == "grugcn":
        return init_grugcn(spec, rng)
    return init_mlp_mixer(spec, t_in, rng)
