"""Seeded procedural HDR scenes for tests and desk-scale experiments.

Three families: linear gradients, sums of Gaussian blobs, and checkerboards.
Peak radiance is drawn from an exponential distribution so scenes span a
wide dynamic range; a small ambient floor keeps log-domain targets finite.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .image_io import RadianceMap

SCENE_KINDS = ("gradient", "blobs", "checker")
AMBIENT_FLOOR = 1e-4


def synth_scene(kind: str, width: int, height: int, rng: np.random.Generator) -> RadianceMap:
    """One procedural scene of the given kind with rng-driven content."""
    if kind not in SCENE_KINDS:
        raise ParameterError(f"unknown scene kind {kind!r}")
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    ys /= max(height - 1, 1)
    xs /= max(width - 1, 1)

    if kind == "gradient":
        angle = rng.uniform(0, 2 * np.pi)
        ramp = xs * np.cos(angle) + ys * np.sin(angle)
        ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-12)
        base = ramp[..., None] * rng.uniform(0.3, 1.0, size=3)
    elif kind == "blobs":
        base = np.zeros((height, width, 3))
        for _ in range(rng.integers(3, 7)):
            cy, cx = rng.uniform(0, 1, size=2)
            sigma = rng.uniform(0.05, 0.25)
            blob = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma**2))
            base += blob[..., None] * rng.uniform(0.1, 1.0, size=3)
        base /= max(base.max(), 1e-12)
    else:  # checker
        cell = int(rng.integers(4, max(5, width // 4)))
        mask = ((ys * (height - 1)) // cell + (xs * (width - 1)) // cell) % 2
        dark = rng.uniform(0.02, 0.15, size=3)
        bright = rng.uniform(0.5, 1.0, size=3)
        base = np.where(mask[..., None] > 0, bright, dark)

    peak = rng.exponential(scale=4.0) + 0.5
    data = base * peak + AMBIENT_FLOOR
    return RadianceMap.from_array(data.astype(np.float32))


def synth_scenes(count: int, size: int, seed: int) -> list[RadianceMap]:
    """A deterministic list of scenes cycling through the scene kinds."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if size < 1:
        raise ParameterError(f"size must be >= 1, got {size}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return [
        synth_scene(SCENE_KINDS[i % len(SCENE_KINDS)], size, size, rng)
        for i in range(count)
    ]
