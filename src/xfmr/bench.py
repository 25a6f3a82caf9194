"""Attention-cost scaling harness.

Counts the multiply-accumulates of the attention-map matmuls (score and
mixing products, the terms the grouping scheme is meant to shrink) for
grouped attention versus one full-grid attention over the same tokens, and
times both. With the group extent fixed, grouped MACs grow quadratically in
the grid side while full attention grows quartically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attention import SDA, GroupedAttention, attend_tokens, build_layout, group, key_padding_logits
from .tensor import Tensor, count_macs, no_grad

__all__ = ["BenchRow", "attention_scaling", "growth_ratios"]


@dataclass(frozen=True)
class BenchRow:
    side: int
    grouped_macs: int
    full_macs: int
    grouped_seconds: float
    full_seconds: float


def attention_scaling(
    sides: list[int],
    dim: int = 64,
    heads: int = 2,
    group_size: int = 7,
    seed: int = 0,
    repeats: int = 1,
) -> list[BenchRow]:
    """Measure grouped vs full attention-map cost on square grids."""
    rng = np.random.default_rng(seed)
    attn = GroupedAttention(rng, dim, heads)
    rows = []
    for side in sides:
        x = Tensor(rng.standard_normal((1, side, side, dim)).astype(np.float32))
        with no_grad():
            grouped = build_layout(SDA, side, side, group_size)
            full = build_layout(SDA, side, side, side)
            row_stats = {}
            for label, layout in (("grouped", grouped), ("full", full)):
                q, k, v = attn.qkv(group(x, layout))
                pad = key_padding_logits(layout, np.float32)
                with count_macs() as counter:
                    start = time.perf_counter()
                    for _ in range(repeats):
                        attend_tokens(q, k, v, key_logits=pad)
                    elapsed = (time.perf_counter() - start) / repeats
                row_stats[label] = (counter.macs // repeats, elapsed)
        rows.append(
            BenchRow(
                side,
                row_stats["grouped"][0],
                row_stats["full"][0],
                row_stats["grouped"][1],
                row_stats["full"][1],
            )
        )
    return rows


def growth_ratios(rows: list[BenchRow]) -> list[tuple[int, int, float, float]]:
    """(side from, side to, grouped ratio, full ratio) for consecutive rows."""
    out = []
    for a, b in zip(rows, rows[1:]):
        out.append((a.side, b.side, b.grouped_macs / a.grouped_macs, b.full_macs / a.full_macs))
    return out


def format_table(rows: list[BenchRow]) -> str:
    header = f"{'S':>5} {'grouped MACs':>16} {'full MACs':>16} {'grouped s':>11} {'full s':>11} {'full/grouped':>13}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.side:>5} {r.grouped_macs:>16,} {r.full_macs:>16,} "
            f"{r.grouped_seconds:>11.4f} {r.full_seconds:>11.4f} {r.full_macs / r.grouped_macs:>13.2f}"
        )
    return "\n".join(lines)
