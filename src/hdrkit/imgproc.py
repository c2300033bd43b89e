"""CIELAB conversions, luminance, histogram entropy, bilateral filter."""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
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

    L: np.ndarray
    a: np.ndarray
    b: np.ndarray


def round_half_up(x: np.ndarray | float) -> np.ndarray:
    """Round half-way cases up, elementwise (np.round rounds half to even)."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


# ---------------------------------------------------------------------------
# Luminance and CIELAB
# ---------------------------------------------------------------------------


def luminance(rgb: np.ndarray) -> np.ndarray:
    """Rec.709 luminance of an (..., 3) array: 0.2126 R + 0.7152 G + 0.0722 B."""
    return rgb @ LUMA_WEIGHTS.astype(rgb.dtype)


def _lab_f(t: np.ndarray) -> np.ndarray:
    return np.where(t > _LAB_DELTA3, np.cbrt(t), (_LAB_KAPPA * t + 16.0) / 116.0)


def rgb_to_lab(rgb: np.ndarray) -> LabImage:
    """Convert an (H, W, 3) linear RGB array (white level 1.0) to CIE L*a*b*
    relative to D65.

    Negative channel values are clamped to zero; the clamp count is logged.
    """
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
    return LabImage(L=L.astype(np.float32), a=a.astype(np.float32), b=b.astype(np.float32))


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

# One unit of work is a tile of output pixels against a whole row of window
# offsets: (8, 256, 2r + 1) values per numpy call at most.  The column limit
# keeps each thread's two scratch arrays at 32 KiB * (2r + 1) on wide planes.
_BLOCK_ROWS = 8
_BLOCK_COLS = 256


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def bilateral_filter(plane: np.ndarray, sigma_s: float, sigma_r: float) -> np.ndarray:
    """Gaussian-in-space, Gaussian-in-range filter with reflect padding.

    Window radius is ceil(3 * sigma_s); the output at each pixel is a convex
    combination of window values, so it never leaves the input's range.
    Both sigmas must be finite and positive, and sigma_r must not be so
    small that a finite plane's values over sqrt(2) * sigma_r overflow.

    The work runs in tiles of ``_BLOCK_ROWS`` x ``_BLOCK_COLS`` output pixels
    on a pool of ``min(tiles, CPUs)`` threads.  Each tile owns its pixels of
    the sums and adds its offsets in a fixed order, so the output does not
    depend on the number of CPUs.
    """
    if not (0.0 < sigma_s < math.inf and 0.0 < sigma_r < math.inf):
        raise ParameterError(f"sigmas must be finite and > 0, got ({sigma_s}, {sigma_r})")
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ParameterError(f"plane must be 2-D, got shape {plane.shape}")
    r = math.ceil(3.0 * sigma_s)
    h, w = plane.shape
    center = plane.astype(np.float64)
    # In units of sqrt(2) * sigma_r, a range difference d weighs exp(-d**2).
    # Every |d| is at most twice the plane's largest |value| in those units.
    unit = math.sqrt(2.0) * sigma_r
    peak = float(np.abs(center).max(initial=0.0))
    if math.isfinite(peak) and not math.isfinite(2.0 * (peak / unit)):
        raise ParameterError(f"sigma_r = {sigma_r} is too small for plane values up to {peak}")
    scaled = np.pad(center, r, mode="reflect") / unit
    # windows[y, x] is padded row y from column x, 2r + 1 values wide.
    windows = np.lib.stride_tricks.sliding_window_view(scaled, 2 * r + 1, axis=1)
    sq = np.arange(-r, r + 1, dtype=np.float64) ** 2
    log_ws = -(sq[:, None] + sq[None, :]) / (2.0 * sigma_s * sigma_s)  # [dy, dx]

    # out = I + sum w*(q - I) / sum w.  The centre offset has d == 0 and
    # weight exp(0) == 1 exactly, so constant regions stay bit-exact.
    num = np.zeros((h, w), dtype=np.float64)
    den = np.zeros((h, w), dtype=np.float64)

    def run(tile: tuple[int, int]) -> None:
        top, left = tile
        ys = slice(top, min(top + _BLOCK_ROWS, h))
        xs = slice(left, min(left + _BLOCK_COLS, w))
        c = scaled[r + ys.start : r + ys.stop, r + xs.start : r + xs.stop, None]
        d = np.empty(c.shape[:2] + (2 * r + 1,), dtype=np.float64)
        t = np.empty_like(d)
        with np.errstate(over="ignore"):  # d**2 = inf is weight exp(-inf) = 0
            for dy in range(2 * r + 1):
                np.subtract(windows[ys.start + dy : ys.stop + dy, xs], c, out=d)
                np.square(d, out=t)
                np.subtract(log_ws[dy], t, out=t)
                np.exp(t, out=t)
                den[ys, xs] += t.sum(-1)
                num[ys, xs] += np.vecdot(t, d)

    tiles = [(top, left) for top in range(0, h, _BLOCK_ROWS) for left in range(0, w, _BLOCK_COLS)]
    with ThreadPoolExecutor(min(len(tiles), _cpu_count())) as pool:
        list(pool.map(run, tiles))
    num /= den
    num *= unit
    return (center + num).astype(plane.dtype)
