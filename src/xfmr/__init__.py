"""Cross-scale grouped-attention vision transformer on a from-scratch
numpy autodiff engine, with exact cost accounting and verification tools."""

from .analysis import count_flops, count_params
from .attention import (
    GroupedAttention,
    GroupLayout,
    attend_tokens,
    build_layout,
    group,
    ungroup,
)
from .bias import (
    AbsolutePositionEmbedding,
    BiasRangeError,
    DynamicPositionBias,
    RelativePositionBias,
    bake_to_table,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, emit_config, parse_config, to_model_spec
from .data import synth_dataset
from .embed import CelSpec, ConfigError, CrossScaleEmbedding, allocate_dims
from .gradcheck import grad_check
from .model import (
    Classifier,
    ModelSpec,
    StageSpec,
    build_model,
    build_variant,
    model_forward,
    toy_spec,
)
from .tensor import MacCounter, Tensor, count_macs, no_grad
from .train import AdamW, train_toy

__version__ = "0.1.0"

__all__ = [
    "AbsolutePositionEmbedding",
    "AdamW",
    "BiasRangeError",
    "CelSpec",
    "Classifier",
    "ConfigError",
    "CrossScaleEmbedding",
    "DynamicPositionBias",
    "GroupLayout",
    "GroupedAttention",
    "MacCounter",
    "ModelSpec",
    "RelativePositionBias",
    "RunConfig",
    "StageSpec",
    "Tensor",
    "allocate_dims",
    "attend_tokens",
    "bake_to_table",
    "build_layout",
    "build_model",
    "build_variant",
    "count_flops",
    "count_macs",
    "count_params",
    "emit_config",
    "grad_check",
    "group",
    "load_checkpoint",
    "model_forward",
    "no_grad",
    "parse_config",
    "save_checkpoint",
    "synth_dataset",
    "to_model_spec",
    "toy_spec",
    "train_toy",
    "ungroup",
]
