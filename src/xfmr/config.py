"""Line-oriented run configuration files.

Format: `key = value` pairs, `#` comments, optional `[stage.N]` sections
(N in 1..4); a key appears at most once per section, a section at most once.
The top-level keys and their order in the file are `RunConfig`'s fields;
`emit_config` leaves out an unset `input_size` or `classes` and writes an
unset `drop_path` as `auto`. Emitting and re-parsing a config yields an equal
config.

Which fields apply depends on where the stages come from:
- a named variant (tiny, small, base, large or t, s, b, l) reads `task`
  (grouping and default input size) and `cel` (embedding-layer kernels);
- `variant = toy` has fixed stages and reads neither `task` nor `cel`;
- `[stage.N]` sections each parse to a `StageSpec` (keys kernels, stride,
  dim, heads, group, interval, blocks) and give all four stages; they need
  `input_size`, and `variant`, `task` and `cel` do not apply.
A field that does not apply must keep its default, else `to_model_spec`
raises `ConfigError`. `bias`, `attention`, `input_size`, `classes` and
`drop_path` apply everywhere; unset, the last three take the base spec's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bias import BIAS_KINDS
from .embed import CelSpec, ConfigError
from .model import (ATTENTION_MODES, CEL_KERNELS, TASKS, VARIANT_CHOICES, VARIANT_NAMES, ModelSpec, StageSpec,
                    build_variant, canonical_variant, toy_spec)

__all__ = ["RunConfig", "TOY_TRAINING", "DTYPES", "parse_config", "emit_config", "load_config", "to_model_spec"]

# `dtype` value -> the numpy dtype a model of that config computes in
DTYPES = {"f32": np.float32, "f64": np.float64}

_STAGE_KEYS = ("kernels", "stride", "dim", "heads", "group", "interval", "blocks")
_CHOICES = {"variant": VARIANT_CHOICES, "task": TASKS, "bias": BIAS_KINDS, "attention": ATTENTION_MODES,
            "cel": tuple(CEL_KERNELS), "dtype": tuple(DTYPES)}


@dataclass(frozen=True)
class RunConfig:
    variant: str = "toy"
    task: str = "classification"
    bias: str = "dpb"
    attention: str = "lsda"
    cel: str = "cross"
    input_size: tuple[int, int] | None = None
    classes: int | None = None
    seed: int = 0
    dtype: str = "f32"
    # training hyperparameters: reference defaults. `xfmr train-toy` on the toy
    # variant without --config takes classes, lr, weight_decay, warmup and
    # drop_path from TOY_TRAINING below, and records the config it trained with
    # in its checkpoint
    steps: int = 500
    batch: int = 32
    samples: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.05
    warmup: int = 0
    drop_path: float | None = None
    stages: tuple[StageSpec, ...] = field(default=())

    def __post_init__(self):
        """Refuse a setting no run can use; flags, config files and stored
        configs all pass through here."""
        for name, allowed in _CHOICES.items():  # a variant may also be any case of a size or alias
            value = getattr(self, name)
            if value not in allowed and not (name == "variant" and canonical_variant(value) in VARIANT_NAMES):
                raise ConfigError(f"{name} = {value} must be {', '.join(allowed[:-1])} or {allowed[-1]}")
        lows = (("seed", 0), ("classes", 1), ("steps", 1), ("batch", 1), ("samples", 1), ("warmup", 0))
        for name, low in lows:
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} = {value} must be at least {low}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr = {self.lr} must be a positive finite number")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay = {self.weight_decay} must be a finite number of at least 0")
        if not 0 <= (self.drop_path or 0.0) < 1:
            raise ConfigError(f"drop_path = {self.drop_path} must be at least 0 and below 1")


_DEFAULTS = RunConfig()
_KEYS = [f.name for f in fields(RunConfig) if f.name != "stages"]

# the toy training recipe: overfits `synth_dataset` within 500 steps
TOY_TRAINING = {"classes": 4, "lr": 1e-2, "weight_decay": 0.01, "warmup": 20, "drop_path": 0.0}


def parse_config(text: str) -> RunConfig:
    values: dict = {}
    stage_values: dict[int, dict] = {}
    headers: dict[int, int] = {}  # stage number -> line of its section header
    section: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name.startswith("stage."):
                raise ConfigError(f"line {lineno}: unknown section {name!r}")
            try:
                section = int(name.split(".", 1)[1])
            except ValueError:
                raise ConfigError(f"line {lineno}: bad stage number in {name!r}") from None
            if section not in (1, 2, 3, 4):
                raise ConfigError(f"line {lineno}: stage number must be 1..4")
            if section in headers:
                raise ConfigError(f"line {lineno}: repeated section [stage.{section}]")
            stage_values[section], headers[section] = {}, lineno
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        keys, into = (_KEYS, values) if section is None else (_STAGE_KEYS, stage_values[section])
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown {'' if section is None else 'stage '}key {key!r}")
        if key in into:
            raise ConfigError(f"line {lineno}: repeated {'' if section is None else 'stage '}key {key!r}")
        try:
            into[key] = _decode(key, value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from None
    if stage_values:
        if sorted(stage_values) != [1, 2, 3, 4]:
            raise ConfigError("stage sections must cover stages 1..4")
        stages = []
        for n in (1, 2, 3, 4):
            sv = stage_values[n]
            missing = set(_STAGE_KEYS) - set(sv)
            if missing:
                raise ConfigError(f"[stage.{n}] missing keys: {sorted(missing)}")
            try:
                stage = StageSpec(cel=CelSpec(sv["kernels"], sv["stride"], sv["dim"]), heads=sv["heads"],
                                  group_size=sv["group"], interval=sv["interval"], blocks=sv["blocks"])
                if stages:
                    stage.check_follows(stages[-1])
            except ConfigError as exc:
                raise ConfigError(f"[stage.{n}] at line {headers[n]}: {exc}") from None
            stages.append(stage)
        values["stages"] = tuple(stages)
    return RunConfig(**values)


def _decode(key: str, text: str):
    """The value of one `key = text` line: a stage key's int (kernels: a list),
    `input_size` "H W", `classes` an int, `drop_path` a float or `auto`, and
    any other key the type of its default."""
    if key == "kernels":
        return tuple(int(p) for p in text.replace(",", " ").split())
    if key in _STAGE_KEYS or key == "classes":
        return int(text)
    if key == "input_size":
        h, w = text.split()
        return int(h), int(w)
    if key == "drop_path":
        return None if text == "auto" else float(text)
    return type(getattr(_DEFAULTS, key))(text)


def _encode(value) -> str:
    """The text of one value: `auto` for None (an unset drop_path), "H W" for a pair."""
    if value is None:
        return "auto"
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def emit_config(cfg: RunConfig) -> str:
    lines = [f"{key} = {_encode(getattr(cfg, key))}" for key in _KEYS
             if getattr(cfg, key) is not None or key == "drop_path"]
    for n, stage in enumerate(cfg.stages, 1):
        values = (", ".join(map(str, stage.cel.kernel_sizes)), stage.cel.stride, stage.dim, stage.heads,
                  stage.group_size, stage.interval, stage.blocks)
        lines += [f"[stage.{n}]", *(f"{key} = {value}" for key, value in zip(_STAGE_KEYS, values))]
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


def to_model_spec(cfg: RunConfig) -> ModelSpec:
    """The model spec a config describes: one base spec (the config's stages,
    the toy or a named variant) with the config's choices on top."""
    if cfg.stages:
        if cfg.input_size is None:
            raise ConfigError("explicit stages require input_size")
        _refuse_unused(cfg, ("variant", "task", "cel"), "[stage.N] sections give the stages")
        base = ModelSpec(stages=cfg.stages)
    elif cfg.variant == "toy":
        _refuse_unused(cfg, ("task", "cel"), "the toy variant's stages are fixed")
        base = toy_spec()
    else:
        base = build_variant(cfg.variant, task=cfg.task, cel_mode=cfg.cel)
    return replace(
        base,
        classes=base.classes if cfg.classes is None else cfg.classes,
        bias_kind=cfg.bias,
        attention_mode=cfg.attention,
        input_size=cfg.input_size or base.input_size,
        drop_path_max=base.drop_path_max if cfg.drop_path is None else cfg.drop_path,
    )


def _refuse_unused(cfg: RunConfig, names: tuple[str, ...], why: str) -> None:
    """Refuse a non-default value in a field the config's stages do not read."""
    for name in names:
        value = getattr(cfg, name)
        if value != getattr(_DEFAULTS, name):
            raise ConfigError(f"{name} = {value} does not apply: {why}; drop it")
