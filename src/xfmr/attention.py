"""Grouped self-attention over a 2-D embedding grid.

Two grouping rules share one implementation: short-distance groups tile the
grid into adjacent blocks, long-distance groups collect positions sampled at
a fixed interval per axis. Grouping is a pure reshape/permute rearrangement
on divisible grids; other sizes are zero-padded up to the next multiple and
the padded slots are masked out of the softmax with a -inf sentinel.
The pooled-key/value ablation reuses the same multi-head core on one group
holding every token, with keys and values taken from the pooled grid.
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


@dataclass(frozen=True)
class GroupLayout:
    """Invertible map from the (H, W) positions of a batched (N, H, W, C)
    grid to (group, slot) coordinates; :func:`group` applies it."""

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


def build_layout(mode: str, height: int, width: int, size: int) -> GroupLayout:
    """Compute the (group, slot) assignment for every grid position.

    Short-distance: position (r, c) lands in group (r//G, c//G), slot
    (r%G, c%G). Long-distance: group (r%I, c%I), slot (r//I, c//I), applied
    independently per axis so rectangular grids are allowed.
    """
    if height < 1 or width < 1 or size < 1:
        raise ValueError("grid extents and group size must be positive")
    if mode not in (SDA, LDA):
        raise ValueError(f"unknown grouping mode {mode!r}")
    hp = math.ceil(height / size) * size
    wp = math.ceil(width / size) * size
    rows = np.arange(hp)[:, None]
    cols = np.arange(wp)[None, :]
    if mode == SDA:
        groups = (hp // size, wp // size)
        slots = (size, size)
        gid = (rows // size) * groups[1] + (cols // size)
        sid = (rows % size) * slots[1] + (cols % size)
    else:
        groups = (size, size)
        slots = (hp // size, wp // size)
        gid = (rows % size) * groups[1] + (cols % size)
        sid = (rows // size) * slots[1] + (cols // size)
    mask = np.zeros((groups[0] * groups[1], slots[0] * slots[1]), dtype=bool)
    mask[gid[:height, :width], sid[:height, :width]] = True
    return GroupLayout(
        mode=mode,
        grid=(height, width),
        size=size,
        padded_grid=(hp, wp),
        groups=groups,
        slots=slots,
        mask=mask,
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
    hp, wp = layout.padded_grid
    x = T.pad_hw(x, hp - h, wp - w)
    if layout.mode == SDA:
        gh, gw = layout.groups
        sh, sw = layout.slots
        x = x.reshape(n, gh, sh, gw, sw, d).permute(0, 1, 3, 2, 4, 5)
    else:
        gh, gw = layout.groups
        sh, sw = layout.slots
        x = x.reshape(n, sh, gh, sw, gw, d).permute(0, 2, 4, 1, 3, 5)
    return x.reshape(n, layout.n_groups, layout.n_slots, d)


def ungroup(g: Tensor, layout: GroupLayout) -> Tensor:
    """Exact inverse of :func:`group`: (N, n_groups, n_slots, D) back to
    (N, H, W, D); padded slots are discarded."""
    if g.data.ndim != 4:
        raise T.ShapeError(f"ungroup wants a batch (N, n_groups, n_slots, D), got shape {g.shape}")
    n, ng, ns, d = g.shape
    if (ng, ns) != (layout.n_groups, layout.n_slots):
        raise T.ShapeError(f"grouped shape {(ng, ns)} does not match layout")
    gh, gw = layout.groups
    sh, sw = layout.slots
    hp, wp = layout.padded_grid
    x = g.reshape(n, gh, gw, sh, sw, d)
    if layout.mode == SDA:
        x = x.permute(0, 1, 3, 2, 4, 5)
    else:
        x = x.permute(0, 3, 1, 4, 2, 5)
    return T.crop_hw(x.reshape(n, hp, wp, d), *layout.grid)


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
        self.dim = dim
        self.heads = heads
        self.q_proj = Linear(rng, dim, dim, dtype)
        self.k_proj = Linear(rng, dim, dim, dtype)
        self.v_proj = Linear(rng, dim, dim, dtype)
        self.out_proj = Linear(rng, dim, dim, dtype)
        self.bias = bias_provider

    def qkv(self, g: Tensor, kv: Tensor | None = None) -> tuple[Tensor, Tensor, Tensor]:
        """Head-major q of grouped tokens g (N, groups, *slots, dim) and k, v of
        ``kv`` (default g), each (N, groups, heads, tokens, dim/heads)."""
        kv = g if kv is None else kv

        def heads_first(t: Tensor) -> Tensor:
            n, ng, *slots, dim = t.shape
            return t.reshape(n, ng, math.prod(slots), self.heads, dim // self.heads).permute(0, 1, 3, 2, 4)

        return heads_first(self.q_proj(g)), heads_first(self.k_proj(kv)), heads_first(self.v_proj(kv))

    def attend(self, g: Tensor, kv: Tensor, bias: Tensor | None = None,
               key_logits: np.ndarray | None = None) -> Tensor:
        """Queries of ``g`` attend to the keys and values of ``kv`` group by
        group; heads are merged and out-projected to the shape of ``g``."""
        mixed = attend_tokens(*self.qkv(g, kv), bias, key_logits)
        return self.out_proj(mixed.permute(0, 1, 3, 2, 4).reshape(g.shape))

    def __call__(self, g: Tensor, layout: GroupLayout) -> Tensor:
        bias = None
        if self.bias is not None:
            bias = self.bias.bias_matrix(layout).permute(2, 0, 1)  # (heads, S, S)
        return self.attend(g, g, bias, key_padding_logits(layout, g.dtype))


class PooledFullAttention(GroupedAttention):
    """Full-grid attention with keys/values average-pooled by a fixed factor.

    Ablation stand-in for architectures that merge adjacent key/value
    embeddings: one group holds every token, queries stay at full
    resolution, keys and values come from the pooled grid, and no position
    bias is used.
    """

    def __init__(self, rng, dim: int, heads: int, reduction: int, dtype=np.float32):
        super().__init__(rng, dim, heads, None, dtype)
        self.reduction = reduction

    def _pool(self, x: Tensor) -> Tensor:
        """Keys/values source: the grid (N, H, W, dim) zero-padded to a
        multiple of the reduction and average-pooled, as one group."""
        r = self.reduction
        n, h, w, d = x.shape
        hp = math.ceil(h / r) * r
        wp = math.ceil(w / r) * r
        x = T.pad_hw(x, hp - h, wp - w)
        return x.reshape(n, hp // r, r, wp // r, r, d).mean(axis=(2, 4)).reshape(n, 1, hp // r, wp // r, d)

    def __call__(self, x: Tensor) -> Tensor:
        """Attention output (N, H, W, dim) of a batch (N, H, W, dim)."""
        n, h, w, dim = x.shape
        g = x.reshape(n, 1, h, w, dim)  # one group holding every token, on its grid
        return self.attend(g, g if self.reduction == 1 else self._pool(x)).reshape(n, h, w, dim)
