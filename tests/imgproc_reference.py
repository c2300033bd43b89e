"""The per-offset bilateral loop that ``hdrkit.imgproc`` replaced, as a test
oracle for the row-block filter.

The body is the earlier implementation verbatim: one pass per window offset
over the whole plane, nine elementwise maps each, in float64.
"""

import math

import numpy as np

from hdrkit.errors import ParameterError


def bilateral_filter(plane: np.ndarray, sigma_s: float, sigma_r: float) -> np.ndarray:
    """Gaussian-in-space, Gaussian-in-range filter with reflect padding.

    Window radius is ceil(3 * sigma_s); the output at each pixel is a convex
    combination of window values, so it never leaves the input's range.
    """
    if sigma_s <= 0 or sigma_r <= 0:
        raise ParameterError(f"sigmas must be > 0, got ({sigma_s}, {sigma_r})")
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ParameterError(f"plane must be 2-D, got shape {plane.shape}")
    r = math.ceil(3.0 * sigma_s)
    h, w = plane.shape
    center = plane.astype(np.float64)
    padded = np.pad(center, r, mode="reflect")
    inv_2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    inv_2sr = 1.0 / (2.0 * sigma_r * sigma_r)

    # Accumulate offsets from the center value: out = I + sum w*(q - I) / sum w.
    # The subtraction keeps constant regions bit-exact.
    num = np.zeros((h, w), dtype=np.float64)
    den = np.ones((h, w), dtype=np.float64)  # the (0,0) offset has weight 1
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx == 0:
                continue
            ws = math.exp(-(dy * dy + dx * dx) * inv_2ss)
            q = padded[r + dy : r + dy + h, r + dx : r + dx + w]
            diff = q - center
            wgt = ws * np.exp(-(diff * diff) * inv_2sr)
            num += wgt * diff
            den += wgt
    return (center + num / den).astype(plane.dtype)
