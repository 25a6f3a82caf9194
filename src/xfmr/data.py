"""Procedural dataset where class identity needs both coarse and fine cues.

Every class is a (large shape, fine texture) combination drawn on a noisy
gradient background with jittered position, texture phase and contrast, so
a pixel-level linear model generalizes poorly while features that relate
the coarse shape to its fine texture separate the classes cleanly.
"""

from __future__ import annotations

import numpy as np

from .embed import ConfigError

__all__ = ["synth_dataset"]

_SHAPES = ("square", "ring", "disk", "wedge")
_TEXTURES = ("checker", "stripes")
MAX_CLASSES = len(_SHAPES) * len(_TEXTURES)


def _shape_mask(kind: str, size: int, cx: float, cy: float, radius: float) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size]
    dx, dy = ys - cx, xs - cy
    if kind == "square":
        return (np.abs(dx) <= radius) & (np.abs(dy) <= radius)
    if kind == "disk":
        return dx * dx + dy * dy <= radius * radius
    if kind == "ring":
        rho = dx * dx + dy * dy
        return (rho <= radius * radius) & (rho >= (0.55 * radius) ** 2)
    # wedge: upper triangle of the bounding square
    return (np.abs(dx) <= radius) & (np.abs(dy) <= radius) & (dy >= dx)


def _texture(kind: str, size: int, period: int, phase: int) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size]
    if kind == "checker":
        return (((ys + phase) // period + (xs + phase) // period) % 2).astype(np.float64)
    return (((ys + xs + phase) // period) % 2).astype(np.float64)


def synth_dataset(seed: int, n: int, size: int, classes: int):
    """Deterministic (images, labels): images (n, size, size, 3) float32 in
    [0, 1], labels balanced to within one sample per class."""
    if not 2 <= classes <= MAX_CLASSES:
        raise ConfigError(f"the synthetic dataset has 2..{MAX_CLASSES} classes, {classes} requested")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    images = np.empty((n, size, size, 3), dtype=np.float32)
    for i in range(n):
        shape_kind = _SHAPES[labels[i] // len(_TEXTURES)]
        texture_kind = _TEXTURES[labels[i] % len(_TEXTURES)]
        gx, gy = rng.uniform(-0.2, 0.2, 2)
        ys, xs = np.mgrid[0:size, 0:size]
        img = 0.4 + gx * (ys / size - 0.5) + gy * (xs / size - 0.5)
        img = img + rng.normal(0.0, 0.02, (size, size))
        jitter = size / 8
        cx = size / 2 + rng.uniform(-jitter, jitter)
        cy = size / 2 + rng.uniform(-jitter, jitter)
        radius = size * rng.uniform(0.24, 0.31)
        mask = _shape_mask(shape_kind, size, cx, cy, radius)
        tex = _texture(texture_kind, size, period=2, phase=int(rng.integers(0, 4)))
        # interior sits well above the background so the silhouette is a
        # coarse cue while the texture stays a fine one
        contrast = rng.uniform(0.3, 0.4)
        fill = 0.7 + contrast * (tex - 0.5)
        img = np.where(mask, fill, img)
        gains = rng.uniform(0.85, 1.15, 3)
        rgb = np.clip(img[..., None] * gains, 0.0, 1.0)
        images[i] = rgb.astype(np.float32)
    return images, labels.astype(np.int64)

