"""Cross-scale patch embedding.

One embedding layer samples the input with several square kernels that share
a single stride, projects each patch, and concatenates the per-kernel
projections channel-wise, so every output site blends patches of several
scales around a common center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import Module, trunc_normal
from .tensor import Tensor

__all__ = ["ConfigError", "CelSpec", "allocate_dims", "CrossScaleEmbedding"]


class ConfigError(ValueError):
    """Raised when a configuration violates a structural precondition."""


def allocate_dims(total_dim: int, n_kernels: int) -> list[int]:
    """Split ``total_dim`` across kernels, halving per ascending kernel size.

    Kernel i gets total_dim / 2**(i+1); the last kernel repeats the previous
    share so the list sums to total_dim (e.g. 128 over 4 kernels gives
    [64, 32, 16, 16]; a single kernel takes everything).
    """
    if n_kernels < 1:
        raise ConfigError("need at least one kernel")
    divisor = 2 ** min(n_kernels, 3)
    if total_dim % divisor:
        raise ConfigError(f"dim {total_dim} not divisible by {divisor} for {n_kernels} kernels")
    if n_kernels == 1:
        return [total_dim]
    if total_dim % 2 ** (n_kernels - 1):
        # halving n-1 times must stay integral (matters for 5+ kernels)
        raise ConfigError(f"dim {total_dim} cannot be halved across {n_kernels} kernels")
    dims = [total_dim >> (i + 1) for i in range(n_kernels - 1)]
    dims.append(total_dim >> (n_kernels - 1))
    assert sum(dims) == total_dim
    return dims


@dataclass(frozen=True)
class CelSpec:
    """Kernel set (kept in ascending order), shared stride and channel
    allocation of one embedding layer."""

    kernel_sizes: tuple[int, ...]
    stride: int
    dim: int
    per_kernel_dims: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        # ascending, the order the halving rule allocates in, so that equal
        # layers are equal specs whatever order the kernels were given in
        object.__setattr__(self, "kernel_sizes", tuple(sorted(self.kernel_sizes)))
        object.__setattr__(self, "per_kernel_dims", tuple(allocate_dims(self.dim, len(self.kernel_sizes))))
        if self.stride < 1 or any(k < 1 for k in self.kernel_sizes):
            raise ConfigError("kernel and stride must be positive")
        for k in self.kernel_sizes:
            if k < self.stride:
                raise ConfigError(
                    f"kernel {k} smaller than stride {self.stride}: padding (k-s)/2 would be negative"
                )
            if (k - self.stride) % 2:
                raise ConfigError(
                    f"kernel {k} with stride {self.stride}: padding (k-s)/2 must be integral"
                )

    def padding_for(self, kernel: int) -> int:
        # symmetric zero padding keeping all kernels co-centered on one grid
        return (kernel - self.stride) // 2

    def output_grid(self, height: int, width: int) -> tuple[int, int]:
        if height < 1 or width < 1:
            raise ConfigError(f"input {height}x{width} must be at least 1x1")
        if height % self.stride or width % self.stride:
            raise ConfigError(
                f"input {height}x{width} not divisible by stride {self.stride}"
            )
        return height // self.stride, width // self.stride


class CrossScaleEmbedding(Module):
    """Multi-kernel strided projection; output channel extent is spec.dim."""

    def __init__(self, rng: np.random.Generator, in_channels: int, spec: CelSpec, dtype=np.float32):
        self.spec = spec
        self.in_channels = in_channels
        self.kernels = []
        self.biases = []
        for k, d in zip(spec.kernel_sizes, spec.per_kernel_dims):
            self.kernels.append(Tensor(trunc_normal(rng, (k, k, in_channels, d), dtype=dtype), requires_grad=True))
            self.biases.append(Tensor(np.zeros(d, dtype=dtype), requires_grad=True))

    def forward(self, x: Tensor) -> Tensor:
        h, w = x.shape[-3], x.shape[-2]
        self.spec.output_grid(h, w)
        pieces = []
        for k, kernel, bias in zip(self.spec.kernel_sizes, self.kernels, self.biases):
            pieces.append(T.conv2d(x, kernel, bias, self.spec.stride, self.spec.padding_for(k)))
        return T.concat(pieces, axis=-1)
