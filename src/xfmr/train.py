"""Toy training loop: decoupled-weight-decay adaptive optimizer with cosine
learning-rate decay, run on the synthetic cross-scale dataset."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DTYPES, RunConfig, to_model_spec
from .data import synth_dataset
from .embed import ConfigError
from .model import Classifier, build_model
from .tensor import Tensor, cross_entropy, no_grad

__all__ = ["AdamW", "cosine_lr", "TrainResult", "train_toy", "DivergenceError"]


class DivergenceError(RuntimeError):
    pass


class AdamW:
    """Adam with decoupled weight decay applied directly to the parameters."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float = 1e-3, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            p.data -= (lr * (update + self.weight_decay * p.data)).astype(p.data.dtype, copy=False)


def cosine_lr(base: float, step: int, total: int, warmup: int = 0) -> float:
    """Linear warmup to ``base`` then cosine decay to zero."""
    if warmup > 0 and step < warmup:
        return base * (step + 1) / warmup
    span = max(total - warmup, 1)
    return base * 0.5 * (1.0 + math.cos(math.pi * min(step - warmup, span) / span))


@dataclass
class TrainResult:
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    reached_full_accuracy_at: int | None = None

    @property
    def steps_run(self) -> int:
        return len(self.losses)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else 0.0


def train_toy(cfg: RunConfig, model: Classifier | None = None,
              stop_when_perfect: bool = True, log=None) -> tuple[Classifier, TrainResult]:
    """Overfit the synthetic dataset; deterministic given cfg.seed."""
    spec = to_model_spec(cfg)
    if spec.input_size[0] != spec.input_size[1]:
        raise ConfigError("input {}x{} must be square: the synthetic dataset draws square images"
                          .format(*spec.input_size))
    dtype = DTYPES[cfg.dtype]
    images, labels = synth_dataset(cfg.seed, cfg.samples, spec.input_size[0], spec.classes)
    images = images.astype(dtype)
    if model is None:
        model = build_model(spec, seed=cfg.seed, dtype=dtype)
    rng = np.random.default_rng(cfg.seed + 1)
    params = [p for _, p in model.named_parameters()]
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    result = TrainResult()
    full_batch = cfg.batch >= cfg.samples
    for step in range(cfg.steps):
        if full_batch:  # the whole dataset, read in place
            x, y = Tensor(images), labels
        else:
            batch_idx = rng.choice(cfg.samples, size=cfg.batch, replace=False)
            x, y = Tensor(images[batch_idx]), labels[batch_idx]
        logits = model(x, train=True, rng=rng)
        loss = cross_entropy(logits, y)
        loss_val = float(loss.data)
        if not math.isfinite(loss_val):
            raise DivergenceError(f"loss became non-finite at step {step + 1}")
        opt.zero_grad()
        loss.backward()
        opt.step(cosine_lr(cfg.lr, step, cfg.steps, cfg.warmup))
        if full_batch:
            acc = float((logits.data.argmax(axis=1) == y).mean())
        else:
            with no_grad():
                full = model(Tensor(images))
            acc = float((full.data.argmax(axis=1) == labels).mean())
        result.losses.append(loss_val)
        result.accuracies.append(acc)
        if acc == 1.0 and result.reached_full_accuracy_at is None:
            result.reached_full_accuracy_at = step + 1
        if log is not None and (step % 25 == 0 or acc == 1.0):
            log(f"step {step + 1:>4}  lr {cosine_lr(cfg.lr, step, cfg.steps, cfg.warmup):.2e}  "
                f"loss {loss_val:.4f}  train acc {acc:.3f}")
        if stop_when_perfect and acc == 1.0:
            break
    return model, result
