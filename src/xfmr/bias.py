"""Attention position-bias providers.

Four interchangeable kinds feed the additive bias matrix of grouped
attention: a dynamic MLP over relative offsets (optionally with residual
hidden blocks), a learned fixed-range relative-bias table, and an absolute
per-position embedding baseline (which contributes no attention bias and is
added once after the first stage instead).

The dynamic provider never goes out of range: its bias table is rebuilt for
whatever slot extent a layout asks for, by one batched MLP pass over every
possible offset pair, which is O(G^2) rows instead of the O(G^4) cost of
evaluating every slot pair directly. Each layer of that pass is a batch of
one-row products, ``matmul`` of the (R, 1, K) rows then ``add`` of the bias,
which run the BLAS call a lone offset's (1, K) product makes. So each row,
and each row's contribution to the gradients, is bitwise equal to evaluating
its offset alone; the tests' per-offset oracle, ``dpb_offset_row`` in
``tests/oracles.py``, runs the MLP from the module's parameters one offset
at a time. The one exception is the output bias gradient of a one-head
provider: ``add`` reduces its contiguous (R, 1, 1) gradient, which numpy
sums pairwise rather than in row order, so it differs in the last bits.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import GroupLayout
from .embed import ConfigError
from .layers import LayerNorm, Linear, Module, trunc_normal
from .tensor import Tensor

__all__ = [
    "BiasRangeError",
    "BIAS_KINDS",
    "DYNAMIC_BIAS_KINDS",
    "DynamicPositionBias",
    "RelativePositionBias",
    "AbsolutePositionEmbedding",
    "bake_to_table",
    "dpb_hidden_width",
    "pair_offset_index",
]

BIAS_KINDS = ("ape", "rpb", "dpb", "dpb-res")
# the kinds whose bias an MLP computes from the offsets (`DynamicPositionBias`)
DYNAMIC_BIAS_KINDS = ("dpb", "dpb-res")


def dpb_hidden_width(dim: int) -> int:
    """Hidden width of the dynamic-position-bias MLP of a stage of width ``dim``."""
    if dim % 4:
        raise ConfigError(f"dim {dim} must be divisible by 4 (bias MLP hidden width)")
    return dim // 4


class BiasRangeError(RuntimeError):
    """A fixed bias table was asked for an offset outside its trained range."""


def pair_offset_index(slots_h: int, slots_w: int, table_h: int, table_w: int) -> np.ndarray:
    """Flat lookup indices for every ordered slot pair of a slot grid.

    Slot s has coordinates (s // slots_w, s % slots_w); pair (i, j) looks up
    row offset xi-xj and column offset yi-yj, shifted so the most negative
    offset of a (table_h, table_w) table maps to index 0.
    """
    n = slots_h * slots_w
    coords_x = np.arange(n) // slots_w
    coords_y = np.arange(n) % slots_w
    dx = coords_x[:, None] - coords_x[None, :]
    dy = coords_y[:, None] - coords_y[None, :]
    if abs(dx).max(initial=0) > table_h // 2 or abs(dy).max(initial=0) > table_w // 2:
        raise BiasRangeError(
            f"slot grid {slots_h}x{slots_w} needs offsets up to "
            f"(+/-{slots_h - 1}, +/-{slots_w - 1}) but the bias table only covers "
            f"(+/-{table_h // 2}, +/-{table_w // 2}); "
            f"retrain or use the dynamic position bias"
        )
    return (dx + table_h // 2) * table_w + (dy + table_w // 2)


def _slot_pair_bias(table: Tensor, layout: GroupLayout) -> Tensor:
    """Bias (S, S, heads) of every ordered slot pair of ``layout``, looked up
    in an offset table (table_h, table_w, heads) centred on offset (0, 0)."""
    th, tw, heads = table.shape
    idx = pair_offset_index(*layout.slots, th, tw)
    return T.index_rows(table.reshape(th * tw, heads), idx)


def _per_row_linear(fc: Linear, x: Tensor) -> Tensor:
    """``fc`` applied to each (K,) row of an (R, K) ``x`` as its own one-row product."""
    r, k = x.shape
    return (T.matmul(x.reshape(r, 1, k), fc.w) + fc.b).reshape(r, fc.w.shape[1])


class DynamicPositionBias(Module):
    """MLP mapping a relative offset (dx, dy) to one bias value per head."""

    def __init__(self, rng, dim: int, heads: int, residual: bool = False, dtype=np.float32):
        hidden = dpb_hidden_width(dim)
        self.heads = heads
        self.residual = residual
        self.dtype = np.dtype(dtype)
        self.fc_in = Linear(rng, 2, hidden, dtype)
        self.norm1 = LayerNorm(hidden, dtype)
        self.fc1 = Linear(rng, hidden, hidden, dtype)
        self.norm2 = LayerNorm(hidden, dtype)
        self.fc2 = Linear(rng, hidden, hidden, dtype)
        self.norm3 = LayerNorm(hidden, dtype)
        self.fc_out = Linear(rng, hidden, heads, dtype)
        self.eval_count = 0  # offset rows evaluated by the MLP, for cost audits

    def table(self, slots_h: int, slots_w: int) -> Tensor:
        """Bias table (2*slots_h-1, 2*slots_w-1, heads) covering every offset
        a slot grid of that extent can produce, from one batched MLP pass;
        each row is bitwise equal to the MLP run on its offset alone."""
        dx, dy = np.meshgrid(np.arange(1 - slots_h, slots_h), np.arange(1 - slots_w, slots_w),
                             indexing="ij")
        x = Tensor(np.stack([dx.ravel(), dy.ravel()], axis=1).astype(self.dtype))
        self.eval_count += x.shape[0]
        x = _per_row_linear(self.fc_in, x)
        for norm, fc in ((self.norm1, self.fc1), (self.norm2, self.fc2)):
            y = _per_row_linear(fc, T.relu(norm(x)))
            x = x + y if self.residual else y
        rows = _per_row_linear(self.fc_out, T.relu(self.norm3(x)))
        return rows.reshape(2 * slots_h - 1, 2 * slots_w - 1, self.heads)

    def bias_matrix(self, layout: GroupLayout) -> Tensor:
        return _slot_pair_bias(self.table(*layout.slots), layout)


class RelativePositionBias(Module):
    """Learned bias table over a fixed offset range; errors beyond it."""

    def __init__(self, rng, heads: int, max_slots_h: int, max_slots_w: int, dtype=np.float32):
        self.heads = heads
        shape = (2 * max_slots_h - 1, 2 * max_slots_w - 1, heads)
        self.table = Tensor(trunc_normal(rng, shape, dtype=dtype), requires_grad=True)

    def bias_matrix(self, layout: GroupLayout) -> Tensor:
        return _slot_pair_bias(self.table, layout)


class AbsolutePositionEmbedding(Module):
    """Learnable per-position embedding added to the first stage's grid."""

    def __init__(self, rng, grid: tuple[int, int], dim: int, dtype=np.float32):
        self.grid = grid
        self.embedding = Tensor(trunc_normal(rng, (*grid, dim), dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        h, w = x.shape[-3], x.shape[-2]
        if (h, w) != self.grid:
            raise BiasRangeError(
                f"absolute position embedding was trained for grid {self.grid}, got {(h, w)}"
            )
        return x + self.embedding


def bake_to_table(dpb: DynamicPositionBias, slots_h: int, slots_w: int) -> RelativePositionBias:
    """Freeze a dynamic provider into a fixed table for the given slot extent.

    The frozen table holds exactly the values the dynamic path would compute,
    so attention outputs are bit-identical at the same precision; the table
    then inherits the fixed-range restriction.
    """
    baked = RelativePositionBias(None, dpb.heads, slots_h, slots_w, dtype=dpb.dtype)
    with T.no_grad():
        baked.table.data = dpb.table(slots_h, slots_w).data
    return baked
