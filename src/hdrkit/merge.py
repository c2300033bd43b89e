"""Weighted multi-exposure merge into a radiance map (Debevec-style).

Per pixel and channel: E = sum_i w(Z_i) * finv(Z_i)/dt_i / sum_i w(Z_i),
with a middle-exposure fallback where every observation carries zero weight.
"""

from __future__ import annotations

import numpy as np

from .camera import Crf, ExposureStack, inverse_lut
from .image_io import RadianceMap


def hat_weight() -> np.ndarray:
    """(256,) float64 triangle weights: w(z) = z for z <= 127, w(z) = 255 - z
    for z >= 128, so codes 0 and 255 are always distrusted."""
    z = np.arange(256, dtype=np.float64)
    return np.where(z <= 127, z, 255.0 - z)


def debevec_merge(stack: ExposureStack, crf: Crf) -> RadianceMap:
    """Merge an exposure stack into linear radiance through the inverse CRF,
    with :func:`hat_weight` confidences."""
    weights = hat_weight()
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
