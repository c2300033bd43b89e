"""CIELAB conversions, luminance, histogram entropy, bilateral filter."""

from __future__ import annotations

import logging
import math
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
    # Two-branch L so that Y == 0 gives exactly L == 0; above delta^3 fy is cbrt(yr).
    L = np.where(yr > _LAB_DELTA3, 116.0 * fy - 16.0, _LAB_KAPPA * yr)
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

# A bilateral grid (Paris & Durand, ECCV 2006; Chen, Paris & Durand, SIGGRAPH
# 2007).  Cells are sigma / 2 on each axis, but never under one pixel, and the
# grid's blur is a Gaussian of sigma / cell cells, truncated at twice that: on
# the range axis and for sigma_s >= 2 that is 2 cells, truncated at 4.
# The range axis is walked in bands of this many cells, each on a grid that
# covers only its own pixels and the blur's reach around them, so that the
# grid's size does not grow with the plane's (max - min) / sigma_r.
_BAND_CELLS = 32
# Range-cell indices are int64; this leaves room for corners and band ends.
_MAX_CELLS = 2.0**62


def _taps(sigma_cells: float) -> np.ndarray:
    """A Gaussian's taps at offsets 0, 1, ..., ceil(2 * sigma_cells)."""
    k = np.arange(math.ceil(2.0 * sigma_cells) + 1.0)
    with np.errstate(over="ignore"):  # a tiny sigma gives taps exp(-inf) == 0
        return np.exp(-0.5 * (k / sigma_cells) ** 2)


_RANGE_TAPS = _taps(2.0)
_RANGE_REACH = len(_RANGE_TAPS) - 1


def _corners(cells, fractions, points, origin, shape) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and trilinear weights, each (8, n), of the corners around
    n points of a grid of ``shape`` that starts at cell ``origin``; ``cells``
    and ``fractions`` hold every point's integer cells and fractions along
    (row, column, value), and ``points`` picks the n."""
    iy, ix, iz = (c[points] - o for c, o in zip(cells, origin))
    fy, fx, fz = (f[points] for f in fractions)
    _, nx, nz = shape
    steps = np.array([dy * nx * nz + dx * nz + dz
                      for dy in (0, 1) for dx in (0, 1) for dz in (0, 1)])
    index = ((iy * nx + ix) * nz + iz) + steps[:, None]
    weights = np.empty(index.shape)
    corner = iter(weights)
    for wy in (1.0 - fy, fy):
        for wx in (1.0 - fx, fx):
            wyx = wy * wx
            for wz in (1.0 - fz, fz):
                np.multiply(wyx, wz, out=next(corner))
    return index, weights


def _blur(grid: np.ndarray, taps: tuple[np.ndarray, ...]) -> np.ndarray:
    """Blur a (2, ny, nx, nz) grid along its last three axes, each with its
    symmetric kernel's taps at offsets 0, 1, ...; the grid is zero outside."""
    for axis, t in enumerate(taps, start=1):
        n, reach = grid.shape[axis], len(t) - 1
        pad = [(0, 0)] * grid.ndim
        pad[axis] = (reach, reach)
        src = np.moveaxis(np.pad(grid, pad), axis, 0)
        out = np.multiply(src[reach : reach + n], t[0])
        pair = np.empty_like(out)
        for k in range(1, reach + 1):
            np.add(src[reach - k : reach - k + n], src[reach + k : reach + k + n], out=pair)
            pair *= t[k]
            out += pair
        grid = np.moveaxis(out, 0, axis)
    return grid


def _grid_pass(cells, fractions, values, offset, src, dst, taps) -> np.ndarray:
    """Splat the points ``src`` with their ``values`` less ``offset`` into a
    grid that spans their cells, blur it with ``taps`` per axis, and slice it
    at the points ``dst``: the filtered value, less ``offset``, of each."""
    ends = [(at.min(), at.max()) for at in (c[src] for c in cells)]
    origin = [lo for lo, _ in ends]
    shape = tuple(int(hi - lo) + 2 for lo, hi in ends)
    size = math.prod(shape)
    index, weights = _corners(cells, fractions, src, origin, shape)
    index = index.ravel()
    grid = np.stack([np.bincount(index, (weights * (values[src] - offset)).ravel(), size),
                     np.bincount(index, weights.ravel(), size)])
    grid = _blur(grid.reshape((2,) + shape), taps).reshape(2, size)
    index, weights = _corners(cells, fractions, dst, origin, shape)
    num = (weights * np.take(grid[0], index)).sum(axis=0)
    den = (weights * np.take(grid[1], index)).sum(axis=0)
    return num / den


def bilateral_filter(plane: np.ndarray, sigma_s: float, sigma_r: float) -> np.ndarray:
    """Gaussian-in-space, Gaussian-in-range filter on a bilateral grid.

    The plane is reflect-padded by ceil(3 * sigma_s), splatted trilinearly
    (value and weight) into a grid of (row, column, value) cells, blurred
    there, and sliced back trilinearly at the plane's pixels: output =
    blurred value sum / blurred weight sum.  Each output is a convex
    combination of the plane's values, so it stays inside the input's range
    up to rounding; a constant plane comes back unchanged.  It approximates
    the brute-force filter over a window of radius ceil(3 * sigma_s): at
    sigma_s = 8, sigma_r = 10 on the L* planes of the benchmark's scenes,
    within 1.25 L* at most and 0.1 L* rms (measured: 1.22 and 0.084).

    The range axis runs in bands of ``_BAND_CELLS`` cells, so the memory
    used grows with the plane's size and not with its range: a band's grid
    covers the cells of the pixels it needs and no others.  Both sigmas must
    be finite and positive, the plane's values finite, and sigma_r large
    enough that (max - min) / (sigma_r / 2) stays under ``_MAX_CELLS``.  The
    work runs on one thread in a fixed order, so the output is the same
    bytes on any number of CPUs.
    """
    if not (0.0 < sigma_s < math.inf and 0.0 < sigma_r < math.inf):
        raise ParameterError(f"sigmas must be finite and > 0, got ({sigma_s}, {sigma_r})")
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ParameterError(f"plane must be 2-D, got shape {plane.shape}")
    r = math.ceil(3.0 * sigma_s)
    h, w = plane.shape
    padded = np.pad(plane.astype(np.float64), r, mode="reflect")
    low, high = float(padded.min()), float(padded.max())
    span = high - low
    if not math.isfinite(span):
        raise ParameterError(f"plane values must be finite with a finite span, got {low}..{high}")
    # Values above the minimum: a constant plane splats zeros and comes back exact.
    values = (padded - low).ravel()
    cell_s, cell_r = max(sigma_s / 2.0, 1.0), sigma_r / 2.0
    if not span / cell_r < _MAX_CELLS:
        raise ParameterError(f"sigma_r = {sigma_r} is too small for plane values spanning {span}")
    taps = (_taps(sigma_s / cell_s),) * 2 + (_RANGE_TAPS,)

    # Each padded pixel's cell and fraction along (row, column, value).
    rows, cols = np.indices(padded.shape).reshape(2, -1) / cell_s
    coords = (rows, cols, values / cell_r)
    cells = [c.astype(np.int64) for c in coords]  # floor: every coordinate is >= 0
    fractions = [c - i for c, i in zip(coords, cells)]
    out_at = np.full(padded.shape, -1, dtype=np.int64)  # -1 in the padding
    out_at[r : r + h, r : r + w] = np.arange(h * w).reshape(h, w)
    out_at = out_at.ravel()
    band = cells[2] // _BAND_CELLS
    order = np.argsort(band, kind="stable")
    bands = np.unique(band)
    # Where bands k - 1, k, k + 1 and k + 2 start in that order, for each k.
    band_ends = np.searchsorted(band[order], np.arange(-1, 3)[:, None] + bands)

    out = np.empty(h * w)
    # Reflect padding copies plane values, so every band holds plane pixels.
    for k, (below, first, last, above) in zip(bands, band_ends.T):
        z0 = int(k) * _BAND_CELLS
        # A band's pixels read the blurred cells z0 .. z0 + _BAND_CELLS, which
        # sum the splats of pixels up to the blur's reach beyond them.
        near = order[below:above]
        lift = cells[2][near] - z0
        src = near[(lift >= -_RANGE_REACH - 1) & (lift <= _BAND_CELLS + _RANGE_REACH)]
        dst = order[first:last]
        dst = dst[out_at[dst] >= 0]
        # Values from the band's start keep their precision far above the minimum.
        offset = z0 * cell_r
        out[out_at[dst]] = (low + offset) + _grid_pass(cells, fractions, values, offset,
                                                       src, dst, taps)
    return out.reshape(h, w).astype(plane.dtype)
