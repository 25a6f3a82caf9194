"""The benchmark's workloads, each a closed loop with one caller.

Every input the program gets is made here from the workload seed: model
weights (written to a checkpoint file by a child process, then loaded),
images, and the toy training configuration.
"""

from __future__ import annotations

import contextlib
import math
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from xfmr import (
    AdamW,
    RunConfig,
    bake_to_table,
    build_layout,
    build_model,
    build_variant,
    count_flops,
    count_macs,
    load_checkpoint,
    model_forward,
    to_model_spec,
    train_toy,
)
from xfmr.train import DivergenceError

from tracer import Tracer, patch

_ns = time.perf_counter_ns

# live and baked logits of one image may differ by at most this much
BAKE_TOLERANCE = 1e-6
TRAIN_STEPS = 40  # per training run; a timed phase repeats whole runs
WARMUP_STEPS = 2  # training steps in each set-up's warm-up
# every value pinned here, so that changes to the program's defaults do not move the workload
TOY_CONFIG = RunConfig(variant="toy", classes=4, lr=1e-2, weight_decay=0.01, warmup=20, drop_path=0.0,
                       batch=32, samples=32, steps=TRAIN_STEPS, dtype="f32")


def load_into(model, entries: dict[str, np.ndarray], copy: bool) -> None:
    """Point every parameter of ``model`` at its checkpoint entry."""
    params = dict(model.named_parameters())
    if set(params) != set(entries):
        raise ValueError(f"checkpoint names differ from the model's: {sorted(set(params) ^ set(entries))[:4]}")
    for name, p in params.items():
        if entries[name].shape != p.data.shape or entries[name].dtype != p.data.dtype:
            raise ValueError(f"checkpoint entry {name} does not match the model")
        p.data = entries[name].copy() if copy else entries[name]


def analytic_macs(spec, batch: int, live_bias: bool) -> int:
    """MACs of one forward over ``batch`` images from ``count_flops``.

    Dynamic position bias tables are built once per forward, whatever the
    batch; baked tables cost no MACs.
    """
    entries = count_flops(spec).entries
    bias = sum(v for k, v in entries.items() if k.endswith(".bias"))
    return batch * (sum(entries.values()) - bias) + (bias if live_bias else 0)


def bake(model) -> list:
    """Replace every block's dynamic position bias by its baked table; return
    (block, live provider) pairs so that the live path can be put back."""
    live = []
    for blocks, grid in zip(model.stages, model.spec.stage_grids()):
        for block in blocks:
            layout = build_layout(block.mode, grid[0], grid[1], block.group_size)
            live.append((block, block.attn.bias))
            block.attn.bias = bake_to_table(block.attn.bias, *layout.slots)
    return live


@dataclass
class Setup:
    load_s: float
    executed_macs: int  # counted around the warm-up
    analytic_macs: int  # the same work from count_flops


class Inference:
    """tiny@224 classification, one ``model_forward`` per call."""

    def __init__(self, name: str, batch: int, baked: bool):
        self.name, self.batch, self.baked = name, batch, baked
        self.spec = build_variant("tiny")
        self.model = None
        self.batch_images = None
        self.live = []
        self.reference = None

    def gate(self) -> float | None:
        """Largest |live - baked| logit of one image, or None when not baked."""
        if not self.baked:
            return None
        image = self.batch_images[:1]
        baked = model_forward(self.model, image).data
        swapped = [(block, block.attn.bias) for block, _ in self.live]
        try:
            for block, provider in self.live:
                block.attn.bias = provider
            live = model_forward(self.model, image).data
        finally:
            for block, provider in swapped:
                block.attn.bias = provider
        return float(np.abs(live - baked).max())

    def setup(self, seed: int, path: Path) -> Setup:
        self.model, self.live = None, []  # free the previous set-up's model first
        model = build_model(self.spec, seed=seed)
        start = time.perf_counter()
        entries = load_checkpoint(path)
        load_s = time.perf_counter() - start
        load_into(model, entries, copy=False)
        self.live = bake(model) if self.baked else []
        rng = np.random.default_rng(seed)
        self.batch_images = rng.random((self.batch, *self.spec.input_size, 3), dtype=np.float32)
        with count_macs() as counter:
            model_forward(model, self.batch_images)
        expected = analytic_macs(self.spec, self.batch, live_bias=not self.baked)
        self.model = model
        return Setup(load_s, counter.macs, expected)

    def run_unit(self, tracer: Tracer | None) -> list[tuple[int, bool]]:
        """One forward call: [(ns, output ok)]; an exception is one failed call."""
        try:
            with tracer.installed(self.model) if tracer else contextlib.nullcontext():
                start = _ns()
                logits = model_forward(self.model, self.batch_images).data
                elapsed = _ns() - start
        except Exception:  # a call that raises is a failed call; the run goes on
            traceback.print_exc()
            if tracer:
                tracer.cut(None)
            return [(None, False)]
        if tracer:
            tracer.cut(elapsed)
        if self.reference is None:
            self.reference = logits.copy()
        ok = bool(np.isfinite(logits).all()) and np.array_equal(logits, self.reference)
        return [(elapsed, ok)]

    def report(self) -> dict:
        return {}


class Training:
    """``train_toy`` on the toy spec at 64x64, f32, batch = samples = 32."""

    name = "train-toy-b32"
    batch = 32

    def __init__(self):
        self.spec = to_model_spec(TOY_CONFIG)
        self.cfg = TOY_CONFIG
        self.entries = None
        self.losses = None

    def gate(self) -> None:
        return None

    def _fresh_model(self):
        model = build_model(self.spec, seed=self.cfg.seed)
        load_into(model, self.entries, copy=True)  # training updates parameters in place
        return model

    def setup(self, seed: int, path: Path) -> Setup:
        self.cfg = replace(TOY_CONFIG, seed=seed)
        start = time.perf_counter()
        self.entries = load_checkpoint(path)
        load_s = time.perf_counter() - start
        with count_macs() as counter:
            train_toy(replace(self.cfg, steps=WARMUP_STEPS), model=self._fresh_model(),
                      stop_when_perfect=False)
        expected = WARMUP_STEPS * analytic_macs(self.spec, self.cfg.batch, live_bias=True)
        return Setup(load_s, counter.macs, expected)

    def run_unit(self, tracer: Tracer | None) -> list[tuple[int, bool]]:
        """One training run of TRAIN_STEPS steps: [(ns, loss ok)] per step
        after the first, each step timed between returns of ``AdamW.step``."""
        model = self._fresh_model()
        marks: list[int] = []

        def marking(step):
            def wrapper(*args, **kwargs):
                step(*args, **kwargs)
                now = _ns()
                if tracer:
                    tracer.cut(now - marks[-1] if marks else None)
                marks.append(now)
            return wrapper

        try:
            with contextlib.ExitStack() as stack:
                if tracer:
                    stack.enter_context(tracer.installed(model))
                stack.enter_context(patch(AdamW, "step", marking))
                try:
                    _, result = train_toy(self.cfg, model=model, stop_when_perfect=False)
                finally:
                    if tracer:
                        tracer.cut(None)
        except DivergenceError:
            traceback.print_exc()
            return [(None, False)] * self.cfg.steps
        losses = result.losses
        if self.losses is None:
            self.losses = losses
        ok = [math.isfinite(a) and a == b for a, b in zip(losses, self.losses)]
        gaps = np.diff(marks).tolist()
        return [(None, ok[0])] + list(zip(gaps, ok[1:]))

    def report(self) -> dict:
        return {"loss_final": self.losses[-1]} if self.losses else {}


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (Inference("infer-live-b1", 1, baked=False), Inference("infer-baked-b2", 2, baked=True), Training())
}
