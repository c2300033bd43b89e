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
    h, w = stack.height, stack.width
    mid = stack.images[len(stack.images) // 2]

    # One channel at a time, every term is a gather from a 256-entry table.
    # Codes are 0..255, so mode="clip" changes no index; it lets np.take write
    # into `term` directly, where the default mode buffers its out= array.
    out = np.empty((h, w, 3), dtype=np.float32)
    codes = np.empty((h, w), dtype=np.intp)
    term = np.empty((h, w), dtype=np.float64)
    num = np.empty((h, w), dtype=np.float64)
    den = np.empty((h, w), dtype=np.float64)
    for c in range(3):
        num.fill(0.0)
        den.fill(0.0)
        for img in stack.images:
            codes[...] = img.data[..., c]
            num += np.take(weights * (inv[:, c] / img.exposure), codes, out=term, mode="clip")
            den += np.take(weights, codes, out=term, mode="clip")
        # Where no observation carries weight, the middle exposure's estimate.
        unseen = den <= 0
        den[unseen] = 1.0
        num /= den
        codes[...] = mid.data[..., c]
        np.copyto(num, np.take(inv[:, c] / mid.exposure, codes, out=term, mode="clip"),
                  where=unseen)
        out[..., c] = num
    return RadianceMap(width=w, height=h, data=out)
