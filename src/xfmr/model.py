"""Four-stage pyramid assembly: embedding layers, attention blocks, head.

Each stage is a cross-scale embedding (quartering the grid and doubling the
width after stage one) followed by pre-norm residual blocks that alternate
short-distance and long-distance grouping. Named variants reproduce the
reference configuration tables structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import LDA, SDA, GroupedAttention, GroupLayout, PooledFullAttention, build_layout, group, ungroup
from .bias import (BIAS_KINDS, DYNAMIC_BIAS_KINDS, AbsolutePositionEmbedding, DynamicPositionBias,
                   RelativePositionBias, dpb_hidden_width)
from .embed import CelSpec, ConfigError, CrossScaleEmbedding
from .layers import LayerNorm, Linear, Mlp, Module, drop_path_mask
from .tensor import Tensor

__all__ = [
    "StageSpec",
    "ModelSpec",
    "VARIANT_NAMES",
    "VARIANT_CHOICES",
    "TASKS",
    "build_variant",
    "toy_spec",
    "Block",
    "Classifier",
    "build_model",
    "model_forward",
    "MLP_RATIO",
    "PVT_REDUCTIONS",
]

MLP_RATIO = 4
PVT_REDUCTIONS = (8, 4, 2, 1)  # per-stage key/value pooling for the ablation

ATTENTION_MODES = ("lsda", "sda-only", "pvt-like")


@dataclass(frozen=True)
class StageSpec:
    cel: CelSpec
    heads: int
    group_size: int
    interval: int
    blocks: int

    @property
    def dim(self) -> int:
        """The stage's width: its embedding layer's output channels."""
        return self.cel.dim

    def __post_init__(self):
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        dpb_hidden_width(self.dim)
        if self.blocks < 1 or self.group_size < 1 or self.interval < 1:
            raise ConfigError("blocks, group size and interval must be positive")

    def check_follows(self, prev: StageSpec) -> None:
        """The rule between consecutive stages: each doubles the width."""
        if self.dim != 2 * prev.dim:
            raise ConfigError(f"dim {self.dim} must double the previous stage's dim {prev.dim}")


@dataclass(frozen=True)
class ModelSpec:
    stages: tuple[StageSpec, StageSpec, StageSpec, StageSpec]
    classes: int = 1000
    bias_kind: str = "dpb"
    attention_mode: str = "lsda"
    input_size: tuple[int, int] = (224, 224)
    drop_path_max: float = 0.0

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ConfigError("exactly four stages expected")
        for a, b in zip(self.stages, self.stages[1:]):
            b.check_follows(a)
        if self.attention_mode not in ATTENTION_MODES:
            raise ConfigError(f"unknown attention mode {self.attention_mode!r}")
        if self.bias_kind not in BIAS_KINDS:
            raise ConfigError(f"unknown bias kind {self.bias_kind!r}")
        if self.classes < 1:
            raise ConfigError(f"classes = {self.classes} must be at least 1")

    def stage_grids(self, input_size: tuple[int, int] | None = None) -> list[tuple[int, int]]:
        """Embedding-grid extents after each stage's embedding layer, for
        ``input_size`` (default: the build input size)."""
        h, w = input_size or self.input_size
        grids = []
        for stage in self.stages:
            h, w = stage.cel.output_grid(h, w)
            grids.append((h, w))
        return grids

    def block_plan(self, input_size: tuple[int, int] | None = None) -> list[list[GroupLayout]]:
        """Per stage, one :class:`GroupLayout` per block, on that stage's grid
        for ``input_size`` (default: the build input size).

        Blocks alternate short-distance (even) and long-distance (odd)
        grouping; "sda-only" makes every block short-distance.
        """
        plan = []
        for stage, (h, w) in zip(self.stages, self.stage_grids(input_size)):
            blocks = []
            for b in range(stage.blocks):
                mode = SDA if self.attention_mode == "sda-only" or b % 2 == 0 else LDA
                size = stage.group_size if mode == SDA else stage.interval
                blocks.append(build_layout(mode, h, w, size))
            plan.append(blocks)
        return plan

    def total_blocks(self) -> int:
        return sum(s.blocks for s in self.stages)


# -- named variants ------------------------------------------------------------

# dims, heads, block counts and stochastic-depth maximum per named size
_VARIANTS = {
    "tiny": ((64, 128, 256, 512), (2, 4, 8, 16), (1, 1, 8, 6), 0.1),
    "small": ((96, 192, 384, 768), (3, 6, 12, 24), (2, 2, 6, 2), 0.2),
    "base": ((96, 192, 384, 768), (3, 6, 12, 24), (2, 2, 18, 2), 0.3),
    "large": ((128, 256, 512, 1024), (4, 8, 16, 32), (2, 2, 18, 2), 0.5),
}
_ALIASES = {"t": "tiny", "s": "small", "b": "base", "l": "large"}
VARIANT_NAMES = tuple(_VARIANTS)
# every `variant` a run config takes: the named sizes, their aliases and the toy
VARIANT_CHOICES = (*VARIANT_NAMES, *_ALIASES, "toy")


def canonical_variant(name: str) -> str:
    return _ALIASES.get(name.lower(), name.lower())

# embedding-layer kernel sets per mode: (stage 1, stages 2-4)
CEL_KERNELS = {"cross": ((4, 8, 16, 32), (2, 4)), "two": ((4, 8), (2, 4)), "single": ((4,), (2,))}

# grouping hyperparameters: classification uses G=7 everywhere with intervals
# 8/4/2/1; the dense-task setting widens the first two stages
_TASK_GROUPING = {
    "classification": ((7, 7, 7, 7), (8, 4, 2, 1), (224, 224)),
    "dense": ((14, 14, 7, 7), (16, 8, 2, 1), (800, 1280)),
}
TASKS = tuple(_TASK_GROUPING)


def _stages(cel_mode: str, dims, heads, groups, intervals, depths) -> tuple[StageSpec, ...]:
    """Four stages from per-stage tuples; stage 1 embeds at stride 4, later
    stages at stride 2."""
    if cel_mode not in CEL_KERNELS:
        raise ConfigError(f"unknown embedding-layer mode {cel_mode!r}")
    first, later = CEL_KERNELS[cel_mode]
    return tuple(
        StageSpec(
            cel=CelSpec(first if s == 0 else later, 4 if s == 0 else 2, dims[s]),
            heads=heads[s],
            group_size=groups[s],
            interval=intervals[s],
            blocks=depths[s],
        )
        for s in range(4)
    )


def build_variant(name: str, task: str = "classification", cel_mode: str = "cross") -> ModelSpec:
    """The stages of a named variant with ``task``'s grouping and ``cel_mode``'s
    embedding kernels, at the task's input size and with the variant's
    stochastic-depth maximum. Every other field keeps its `ModelSpec` default;
    an ablation sets it with ``dataclasses.replace``."""
    key = canonical_variant(name)
    if key not in _VARIANTS:
        raise ConfigError(f"unknown variant {name!r} (expected one of {VARIANT_NAMES})")
    if task not in _TASK_GROUPING:
        raise ConfigError(f"unknown task {task!r}")
    dims, heads, depths, drop_path = _VARIANTS[key]
    groups, intervals, input_size = _TASK_GROUPING[task]
    return ModelSpec(
        stages=_stages(cel_mode, dims, heads, groups, intervals, depths),
        input_size=input_size,
        drop_path_max=drop_path,
    )


def toy_spec() -> ModelSpec:
    """Stages of the smallest configuration that still exercises both grouping
    modes: 64x64 input, grids 16/8/4/2, dims 16/32/64/128, 10 classes. An
    ablation sets any other field with ``dataclasses.replace``."""
    return ModelSpec(
        stages=_stages("two", dims=(16, 32, 64, 128), heads=(1, 2, 4, 8), groups=(2, 2, 2, 2),
                       intervals=(2, 2, 1, 1), depths=(1, 1, 2, 1)),
        classes=10,
        input_size=(64, 64),
    )


# -- runtime modules -------------------------------------------------------------


def _make_bias_provider(rng, spec: ModelSpec, stage: StageSpec, layout: GroupLayout, dtype):
    if spec.bias_kind == "ape":
        return None
    if spec.bias_kind in DYNAMIC_BIAS_KINDS:
        return DynamicPositionBias(
            rng, stage.dim, stage.heads, residual=spec.bias_kind == "dpb-res", dtype=dtype
        )
    # fixed table sized for this block's slot extent at the build input size
    return RelativePositionBias(rng, stage.heads, *layout.slots, dtype=dtype)


class Block(Module):
    """Pre-norm residual block: grouped attention then token MLP."""

    def __init__(self, rng, spec: ModelSpec, stage: StageSpec, layout: GroupLayout,
                 drop_rate: float, reduction: int, dtype):
        self.mode = layout.mode
        self.group_size = layout.size
        self.layout = layout
        self.drop_rate = drop_rate
        self.norm1 = LayerNorm(stage.dim, dtype)
        if spec.attention_mode == "pvt-like":
            self.attn = PooledFullAttention(rng, stage.dim, stage.heads, reduction, dtype)
        else:
            provider = _make_bias_provider(rng, spec, stage, layout, dtype)
            self.attn = GroupedAttention(rng, stage.dim, stage.heads, provider, dtype)
        self.norm2 = LayerNorm(stage.dim, dtype)
        self.mlp = Mlp(rng, stage.dim, MLP_RATIO * stage.dim, dtype)

    def _attend(self, x: Tensor) -> Tensor:
        if isinstance(self.attn, PooledFullAttention):
            return self.attn(x)
        layout = self.layout
        if x.shape[1:3] != layout.grid:
            layout = build_layout(self.mode, x.shape[1], x.shape[2], self.group_size)
        return ungroup(self.attn(group(x, layout), layout), layout)

    def forward(self, x: Tensor, train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        def residual(branch: Tensor) -> Tensor:
            if train and self.drop_rate > 0.0:
                return branch * drop_path_mask(rng, x.shape[0], self.drop_rate, branch.data.ndim,
                                               branch.data.dtype.type)
            return branch

        x = x + residual(self._attend(self.norm1(x)))
        x = x + residual(self.mlp(self.norm2(x)))
        return x


class Classifier(Module):
    """Full pyramid: 4 x (embedding + blocks), final norm, pooled linear head.

    Weights are truncated-normal draws from ``rng``; with ``rng`` None they
    are allocated but not drawn, for a loader to replace."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator | None, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        rates = iter(np.linspace(0.0, spec.drop_path_max, spec.total_blocks()))
        self.cels = []
        self.stages = []
        in_ch = 3
        for s, (stage, layouts) in enumerate(zip(spec.stages, spec.block_plan())):
            self.cels.append(CrossScaleEmbedding(rng, in_ch, stage.cel, dtype))
            self.stages.append([Block(rng, spec, stage, layout, float(next(rates)), PVT_REDUCTIONS[s], dtype)
                                for layout in layouts])
            in_ch = stage.dim
        self.ape = None
        if spec.bias_kind == "ape":
            self.ape = AbsolutePositionEmbedding(rng, spec.stage_grids()[0], spec.stages[0].dim, dtype)
        self.final_norm = LayerNorm(spec.stages[3].dim, dtype)
        self.head = Linear(rng, spec.stages[3].dim, spec.classes, dtype)

    def forward(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        """Logits (N, classes) of a batch (N, H, W, 3)."""
        if x.data.dtype != self.dtype:
            x = Tensor(x.data.astype(self.dtype), requires_grad=x.requires_grad)
        for s, (cel, blocks) in enumerate(zip(self.cels, self.stages)):
            x = cel(x)
            if s == 0 and self.ape is not None:
                x = self.ape(x)
            for block in blocks:
                x = block(x, train=train, rng=rng)
        x = self.final_norm(x)
        x = x.mean(axis=(1, 2))
        return self.head(x)


def build_model(spec: ModelSpec, seed: int = 0, dtype=np.float32) -> Classifier:
    """Instantiate a model with truncated-normal weights, deterministic per seed.
    A trained model comes from `checkpoint.load_model`, which draws nothing."""
    return Classifier(spec, np.random.default_rng(seed), dtype)


def model_forward(model: Classifier, images: Tensor | np.ndarray) -> Tensor:
    """Inference-mode logits: (N, classes) for a batch (N, H, W, 3), or
    (classes,) for one (H, W, 3) image, which gets a batch axis of 1 here;
    every layer below takes batched (N, H, W, C) tensors only."""
    if not isinstance(images, Tensor):
        images = Tensor(images)
    single = images.data.ndim == 3
    with T.no_grad():
        logits = model(Tensor(images.data[None]) if single else images)
    return Tensor(logits.data[0]) if single else logits
