"""Color-space conversions, luminance, histogram entropy, bilateral filter."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .image_io import LdrImage, RadianceMap

log = logging.getLogger(__name__)

# CIE D65 reference white, 2-degree observer.
D65_WHITE = (0.95047, 1.0, 1.08883)

# Linear sRGB <-> XYZ (D65).  Rows sum to the white point, so (1,1,1) -> white.
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_XYZ_TO_RGB = np.linalg.inv(_RGB_TO_XYZ)

LUMA_WEIGHTS = np.array([0.2126, 0.7152, 0.0722])

# CIE L* constants: delta = 6/29, kappa = (29/3)^3.
_LAB_DELTA3 = (6.0 / 29.0) ** 3
_LAB_KAPPA = 24389.0 / 27.0


@dataclass
class LabImage:
    """CIE L*a*b* planes (L in 0..100 for in-gamut input)."""

    width: int
    height: int
    L: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def validate(self) -> None:
        shape = (self.height, self.width)
        for name, plane in (("L", self.L), ("a", self.a), ("b", self.b)):
            if plane.shape != shape:
                raise ValidationError(f"{name} plane shape {plane.shape} != {shape}")
        if not np.all(np.isfinite(self.L)):
            raise ValidationError("L plane contains non-finite values")


def round_half_up(x: np.ndarray | float) -> np.ndarray:
    """Round half-way cases up, elementwise (np.round rounds half to even)."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


# ---------------------------------------------------------------------------
# sRGB transfer
# ---------------------------------------------------------------------------


def srgb_decode(codes: np.ndarray | int) -> np.ndarray:
    """Map 8-bit sRGB codes to linear light in [0, 1]."""
    u = np.asarray(codes, dtype=np.float64) / 255.0
    return np.where(u <= 0.04045, u / 12.92, ((u + 0.055) / 1.055) ** 2.4)


def srgb_encode(linear: np.ndarray | float) -> np.ndarray:
    """Map linear light to 8-bit sRGB codes (clamped, round-half-up)."""
    y = np.clip(np.asarray(linear, dtype=np.float64), 0.0, 1.0)
    v = np.where(y <= 0.0031308, 12.92 * y, 1.055 * y ** (1.0 / 2.4) - 0.055)
    return round_half_up(255.0 * v).astype(np.uint8)


# ---------------------------------------------------------------------------
# Luminance and CIELAB
# ---------------------------------------------------------------------------


def luminance(rgb: np.ndarray | RadianceMap) -> np.ndarray:
    """Rec.709 luminance: 0.2126 R + 0.7152 G + 0.0722 B."""
    if isinstance(rgb, RadianceMap):
        rgb = rgb.data
    return rgb @ LUMA_WEIGHTS.astype(rgb.dtype)


def _lab_f(t: np.ndarray) -> np.ndarray:
    return np.where(t > _LAB_DELTA3, np.cbrt(t), (_LAB_KAPPA * t + 16.0) / 116.0)


def rgb_to_lab(rgb: np.ndarray | RadianceMap) -> LabImage:
    """Convert linear RGB (white level 1.0) to CIE L*a*b* relative to D65.

    Negative channel values are clamped to zero; the clamp count is logged.
    """
    if isinstance(rgb, RadianceMap):
        rgb = rgb.data
    arr = np.asarray(rgb, dtype=np.float64)
    negatives = int(np.count_nonzero(arr < 0))
    if negatives:
        log.warning("rgb_to_lab clamped %d negative channel values to 0", negatives)
        arr = np.maximum(arr, 0.0)

    xyz = arr @ _RGB_TO_XYZ.T
    xr = xyz[..., 0] / D65_WHITE[0]
    yr = xyz[..., 1] / D65_WHITE[1]
    zr = xyz[..., 2] / D65_WHITE[2]
    fx, fy, fz = _lab_f(xr), _lab_f(yr), _lab_f(zr)
    # Direct two-branch L so that Y == 0 gives exactly L == 0.
    L = np.where(yr > _LAB_DELTA3, 116.0 * np.cbrt(yr) - 16.0, _LAB_KAPPA * yr)
    a = 500.0 * (fx - fy)
    b = 200.0 * (fy - fz)
    h, w = arr.shape[:2]
    return LabImage(
        width=w,
        height=h,
        L=L.astype(np.float32),
        a=a.astype(np.float32),
        b=b.astype(np.float32),
    )


def lab_to_rgb(lab: LabImage) -> RadianceMap:
    """Invert :func:`rgb_to_lab` for in-gamut values."""
    L = lab.L.astype(np.float64)
    a = lab.a.astype(np.float64)
    b = lab.b.astype(np.float64)
    fy = (L + 16.0) / 116.0
    fx = fy + a / 500.0
    fz = fy - b / 200.0
    delta = 6.0 / 29.0

    def f_inv(f: np.ndarray) -> np.ndarray:
        return np.where(f > delta, f**3, (116.0 * f - 16.0) / _LAB_KAPPA)

    yr = np.where(L > _LAB_KAPPA * _LAB_DELTA3, fy**3, L / _LAB_KAPPA)
    w = D65_WHITE
    xyz = np.stack([f_inv(fx) * w[0], yr * w[1], f_inv(fz) * w[2]], axis=-1)
    rgb = xyz @ _XYZ_TO_RGB.T
    return RadianceMap.from_array(np.maximum(rgb, 0.0).astype(np.float32))


# ---------------------------------------------------------------------------
# Histogram entropy
# ---------------------------------------------------------------------------


def luma_histogram(img: LdrImage) -> np.ndarray:
    """(256,) int64 bin counts of integer luma (round-half-up of Rec.709 luma)."""
    luma = round_half_up(luminance(img.data.astype(np.float64))).astype(np.int64)
    return np.bincount(luma.ravel(), minlength=256)


def entropy(img: LdrImage) -> float:
    """Shannon entropy of the luma histogram, in bits (0..8)."""
    bins = luma_histogram(img)
    p = bins[bins > 0] / bins.sum()
    return float(-(p * np.log2(p)).sum())


# ---------------------------------------------------------------------------
# Bilateral filter
# ---------------------------------------------------------------------------


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
