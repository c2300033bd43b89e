"""Weighted multi-exposure merge into a radiance map (Debevec-style).

Per pixel and channel: E = sum_i w(Z_i) * finv(Z_i)/dt_i / sum_i w(Z_i),
with a middle-exposure fallback where every observation carries zero weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Crf, ExposureStack, inverse_lut
from .errors import ValidationError
from .image_io import RadianceMap


@dataclass
class WeightFn:
    """Code-confidence weights; codes 0 and 255 are always distrusted."""

    values: np.ndarray  # (256,) float64, non-negative

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (256,):
            raise ValidationError(f"weight table must be (256,), got {self.values.shape}")
        if self.values[0] != 0 or self.values[255] != 0:
            raise ValidationError("weights at codes 0 and 255 must be zero")
        if np.any(self.values < 0) or self.values.max() <= 0:
            raise ValidationError("weights must be non-negative with a positive max")


def hat_weight() -> WeightFn:
    """Triangle weights: w(z) = z for z <= 127, w(z) = 255 - z for z >= 128."""
    z = np.arange(256, dtype=np.float64)
    return WeightFn(values=np.where(z <= 127, z, 255.0 - z))


def debevec_merge(stack: ExposureStack, crf: Crf) -> RadianceMap:
    """Merge an exposure stack into linear radiance through the inverse CRF,
    with :func:`hat_weight` confidences."""
    weights = hat_weight().values
    inv = inverse_lut(crf)  # (256, 3)
    channels = np.arange(3)
    h, w = stack.height, stack.width
    mid = len(stack.images) // 2

    num = np.zeros((h, w, 3), dtype=np.float64)
    den = np.zeros((h, w, 3), dtype=np.float64)
    for i, img in enumerate(stack.images):
        estimate = inv[img.data, channels] / img.exposure
        wgt = weights[img.data]
        num += wgt * estimate
        den += wgt
        if i == mid:
            fallback = estimate

    out = np.where(den > 0, num / np.where(den > 0, den, 1.0), fallback)
    return RadianceMap(width=w, height=h, data=out.astype(np.float32))
