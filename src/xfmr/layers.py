"""Parameter containers and the standard layers the blocks are built from."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = ["Module", "Linear", "LayerNorm", "Mlp", "trunc_normal", "drop_path_mask"]


def trunc_normal(rng: np.random.Generator | None, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) samples redrawn until they land within +/- 2 std; with
    ``rng`` None, an uninitialised array for a loader to replace.

    Each round redraws only the entries the previous round rejected, in flat
    index order, so the draws land where a whole-tensor rescan would put them.
    """
    if rng is None:
        return np.empty(shape, dtype)
    out = rng.standard_normal(shape)
    out *= std
    flat = out.reshape(-1)
    bound = 2.0 * std
    redo = np.flatnonzero((flat > bound) | (flat < -bound))
    while redo.size:
        draws = rng.standard_normal(redo.size)
        draws *= std
        flat[redo] = draws
        redo = redo[np.abs(draws) > bound]
    return out.astype(dtype, copy=False)


def _walk(name: str, value):
    if isinstance(value, Tensor):
        yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(name + ".")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(f"{name}.{i}", item)


class Module:
    """Tiny parameter registry: any Tensor attribute is a parameter, any
    Module (or nested list of Modules) is a child. A subclass computes in
    ``forward``; every module call goes through ``Module.__call__``, the one
    entry point, where per-module scopes are to be pushed."""

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def named_parameters(self, prefix: str = ""):
        for key, value in vars(self).items():
            yield from _walk(f"{prefix}{key}" if prefix else key, value)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p


class Linear(Module):
    """Token-wise ``x @ w + b``: one `T.linear` tape node, which keeps only
    its inputs."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, dtype=np.float32):
        self.w = Tensor(trunc_normal(rng, (d_in, d_out), dtype=dtype), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim: int, dtype=np.float32, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, self.eps)


class Mlp(Module):
    """Token-wise two-layer feed-forward with GELU: one `T.mlp` tape node,
    which keeps the GELU output and its slope and no other hidden-sized
    array."""

    def __init__(self, rng, dim: int, hidden: int, dtype=np.float32):
        self.fc1 = Linear(rng, dim, hidden, dtype)
        self.fc2 = Linear(rng, hidden, dim, dtype)

    def forward(self, x: Tensor) -> Tensor:
        return T.mlp(x, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b)


def drop_path_mask(rng: np.random.Generator, batch: int, rate: float, rank: int, dtype) -> Tensor:
    """Per-sample stochastic-depth keep mask scaled by 1/keep, for 0 < rate < 1.

    The mask broadcasts over all non-batch axes of a rank-``rank`` tensor.
    """
    keep = 1.0 - rate
    mask = (rng.random(batch) < keep).astype(dtype) / dtype(keep)
    return Tensor(mask.reshape((batch,) + (1,) * (rank - 1)))
