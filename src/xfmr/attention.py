"""Grouped self-attention over a 2-D embedding grid.

Two grouping rules share one implementation: short-distance groups tile the
grid into adjacent blocks, long-distance groups collect positions sampled at
a fixed interval per axis. Both split each axis into (outer, inner) indices,
(N, H, W, D) to (N, H/s, s, W/s, s, D), and differ only in the axis order:
SDA groups by the outer indices, LDA by the inner ones. Grids that are not
multiples of s are zero-padded up to the next multiple and the padded slots
are masked out of the softmax with a -inf sentinel.
Every attention module takes a batch (N, H, W, D) and its layout and returns
(N, H, W, D). The pooled-key/value ablation reuses the same multi-head core
on one group holding every token; its keys and values are the means of the
layout's short-distance windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import Linear, Module
from .tensor import Tensor

__all__ = [
    "GroupLayout",
    "build_layout",
    "group",
    "ungroup",
    "attend_tokens",
    "GroupedAttention",
    "PooledFullAttention",
]

SDA = "sda"
LDA = "lda"


# axis order of each mode over the split (N, H/size, size, W/size, size, D):
# the group axes first, the slot axes second
_ORDERS = {SDA: (0, 1, 3, 2, 4, 5), LDA: (0, 2, 4, 1, 3, 5)}


@dataclass(frozen=True)
class GroupLayout:
    """Invertible map from the (H, W) positions of a batched (N, H, W, C)
    grid to (group, slot) coordinates; :func:`group` applies it.

    Both modes split the padded grid to (H/size, size, W/size, size); SDA's
    groups are the (H/size, W/size) outer indices and its slots the inner
    (size, size), LDA's the other way round."""

    mode: str
    grid: tuple[int, int]
    size: int  # group extent for SDA, sampling interval for LDA
    padded_grid: tuple[int, int]
    groups: tuple[int, int]  # group-index grid
    slots: tuple[int, int]  # per-group slot grid
    mask: np.ndarray  # (n_groups, n_slots) True for real positions

    @property
    def n_groups(self) -> int:
        return self.groups[0] * self.groups[1]

    @property
    def n_slots(self) -> int:
        return self.slots[0] * self.slots[1]


def _split(x: Tensor, size: int) -> Tensor:
    """A batch (N, H, W, D) zero-padded to multiples of ``size`` and split to
    (N, H/size, size, W/size, size, D)."""
    n, h, w, d = x.shape
    hp, wp = math.ceil(h / size), math.ceil(w / size)
    return T.pad_hw(x, hp * size - h, wp * size - w).reshape(n, hp, size, wp, size, d)


def build_layout(mode: str, height: int, width: int, size: int) -> GroupLayout:
    """Compute the (group, slot) assignment for every grid position.

    Short-distance: position (r, c) lands in group (r//G, c//G), slot
    (r%G, c%G). Long-distance: group (r%I, c%I), slot (r//I, c//I), applied
    independently per axis so rectangular grids are allowed. Both are the one
    split of :func:`group` in the mode's order: the extents come from the
    split grid, and the mask is the grid of real positions put through it.
    """
    if height < 1 or width < 1 or size < 1:
        raise ValueError("grid extents and group size must be positive")
    if mode not in _ORDERS:
        raise ValueError(f"unknown grouping mode {mode!r}")
    split = _split(Tensor(np.ones((1, height, width, 1))), size).data
    real = split.transpose(_ORDERS[mode])
    groups, slots = real.shape[1:3], real.shape[3:5]
    return GroupLayout(
        mode=mode,
        grid=(height, width),
        size=size,
        padded_grid=(split.shape[1] * size, split.shape[3] * size),
        groups=groups,
        slots=slots,
        # a C-ordered copy: reshaping a transposed view can keep its strides
        mask=real.reshape(math.prod(groups), math.prod(slots)).astype(bool, order="C"),
    )


def group(x: Tensor, layout: GroupLayout) -> Tensor:
    """Rearrange a batch (N, H, W, D) into (N, n_groups, n_slots, D).

    Pure reshape/permute composition on the zero-padded grid; padded slots
    hold zeros and are excluded from attention by the layout mask.
    """
    if x.data.ndim != 4:
        raise T.ShapeError(f"group wants a batch (N, H, W, D), got shape {x.shape}")
    n, h, w, d = x.shape
    if (h, w) != layout.grid:
        raise T.ShapeError(f"tensor grid {(h, w)} does not match layout {layout.grid}")
    return _split(x, layout.size).permute(_ORDERS[layout.mode]).reshape(n, layout.n_groups, layout.n_slots, d)


def ungroup(g: Tensor, layout: GroupLayout) -> Tensor:
    """Exact inverse of :func:`group`: (N, n_groups, n_slots, D) back to
    (N, H, W, D); padded slots are discarded."""
    if g.data.ndim != 4:
        raise T.ShapeError(f"ungroup wants a batch (N, n_groups, n_slots, D), got shape {g.shape}")
    n, ng, ns, d = g.shape
    if (ng, ns) != (layout.n_groups, layout.n_slots):
        raise T.ShapeError(f"grouped shape {(ng, ns)} does not match layout")
    x = g.reshape(n, *layout.groups, *layout.slots, d).permute(tuple(np.argsort(_ORDERS[layout.mode])))
    return T.crop_hw(x.reshape(n, *layout.padded_grid, d), *layout.grid)


def key_padding_logits(layout: GroupLayout, dtype) -> np.ndarray | None:
    """Additive (1, n_groups, 1, 1, n_slots) logits: 0 real, -inf padded."""
    if layout.mask.all():
        return None
    add = np.where(layout.mask, 0.0, -np.inf).astype(dtype)
    return add[None, :, None, None, :]


def attend_tokens(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Tensor | None = None,
    key_logits: np.ndarray | None = None,
) -> Tensor:
    """Vanilla scaled dot-product attention on (..., heads, S, d) operands.

    ``bias`` broadcasts over the leading axes as (heads, S, S); ``key_logits``
    is an additive constant carrying the -inf padding sentinel.
    """
    d = q.shape[-1]
    scores = T.matmul(q, k.permute(tuple(range(k.data.ndim - 2)) + (k.data.ndim - 1, k.data.ndim - 2)))
    scores = scores * (1.0 / math.sqrt(d))
    if bias is not None:
        scores = scores + bias
    if key_logits is not None:
        scores = scores + Tensor(key_logits)
    return T.matmul(T.softmax_lastdim(scores), v)


class GroupedAttention(Module):
    """Multi-head attention run independently inside each group.

    Cost per image scales with n_groups * slots^2 * dim, i.e. quadratic in
    the grid side when the group extent is fixed.
    """

    def __init__(self, rng, dim: int, heads: int, bias_provider: Module | None = None, dtype=np.float32):
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.q_proj = Linear(rng, dim, dim, dtype)
        self.k_proj = Linear(rng, dim, dim, dtype)
        self.v_proj = Linear(rng, dim, dim, dtype)
        self.out_proj = Linear(rng, dim, dim, dtype)
        self.bias = bias_provider

    def qkv(self, g: Tensor, kv: Tensor | None = None) -> tuple[Tensor, Tensor, Tensor]:
        """Head-major q of grouped tokens g (N, groups, tokens, dim) and k, v of
        ``kv`` (default g, same axes), each (N, groups, heads, tokens, dim/heads)."""
        kv = g if kv is None else kv

        def heads_first(t: Tensor) -> Tensor:
            n, ng, tokens, dim = t.shape
            return t.reshape(n, ng, tokens, self.heads, dim // self.heads).permute(0, 1, 3, 2, 4)

        return heads_first(self.q_proj(g)), heads_first(self.k_proj(kv)), heads_first(self.v_proj(kv))

    def attend(self, g: Tensor, kv: Tensor, bias: Tensor | None = None,
               key_logits: np.ndarray | None = None) -> Tensor:
        """Queries of ``g`` attend to the keys and values of ``kv`` group by
        group; heads are merged and out-projected to the shape of ``g``."""
        mixed = attend_tokens(*self.qkv(g, kv), bias, key_logits)
        return self.out_proj(mixed.permute(0, 1, 3, 2, 4).reshape(g.shape))

    def forward(self, x: Tensor, layout: GroupLayout) -> Tensor:
        """Attention output (N, H, W, dim) of a batch (N, H, W, dim): the tokens
        of each group of ``layout`` attend to each other, under the position
        bias and with padded slots masked out."""
        g = group(x, layout)
        bias = None
        if self.bias is not None:
            bias = self.bias.bias_matrix(layout).permute(2, 0, 1)  # (heads, S, S)
        return ungroup(self.attend(g, g, bias, key_padding_logits(layout, g.dtype)), layout)


class PooledFullAttention(GroupedAttention):
    """Full-grid attention with keys and values pooled over windows.

    Ablation stand-in for architectures that merge adjacent key/value
    embeddings: one group holds every token and queries stay at full
    resolution. Keys and values come from the means of the layout's
    short-distance windows, zero padding counted. No position bias is used.
    """

    def __init__(self, rng, dim: int, heads: int, dtype=np.float32):
        super().__init__(rng, dim, heads, None, dtype)

    def forward(self, x: Tensor, layout: GroupLayout) -> Tensor:
        """Attention output (N, H, W, dim) of a batch (N, H, W, dim)."""
        n, h, w, dim = x.shape
        windows = group(x, layout).mean(axis=2).reshape(n, 1, layout.n_groups, dim)
        return self.attend(x.reshape(n, 1, h * w, dim), windows).reshape(n, h, w, dim)
