"""The classical kernels that ``hdrkit.camera``, ``hdrkit.merge`` and
``hdrkit.tmo`` replaced with in-place versions, as bitwise test oracles.

The bodies are the earlier implementations verbatim: exposure synthesis
through a separate response-curve pass and rounding step, Mertens weights
stacked from per-image temporaries, the Debevec merge gathering each
estimate and weight per pixel, and TMQI scoring every operator from scratch,
the HDR side included.  ``reinhard_global`` and ``drago`` scale a full-size
product of the colors and then clip it into another (``scale_colors``).
``encode_hdr`` scales, floors and clips the map into fresh f64 arrays and
zeroes the sub-threshold pixels with ``np.where``.

``bilateral_filter`` is the bilateral grid that allocated each band's
arrays as it went: every pixel's cells and fractions on all three axes,
each band's corners, splat products, grid and padded blur copies, fresh.

``format_crf`` writes the ``index r g b`` text that ``load_crf`` parses;
hdrkit itself only reads that format.  ``rgb_to_lab`` is the CIELAB
conversion, less its clamp warning, that computed the cube root of Y twice:
once for f(Y) and once for L*.
"""

import math

import numpy as np

from hdrkit.camera import _CODE_GRID, Crf, ExposureStack, inverse_lut
from hdrkit.errors import ParameterError, ValidationError
from hdrkit.image_io import RGBE_ZERO_THRESHOLD, LdrImage, RadianceMap
from hdrkit.imgproc import (
    _BAND_CELLS,
    _LAB_DELTA3,
    _LAB_KAPPA,
    _MAX_CELLS,
    _RANGE_REACH,
    _RANGE_TAPS,
    _RGB_TO_XYZ,
    D65_WHITE,
    LabImage,
    _lab_f,
    _taps,
    luminance,
    round_half_up,
)
from hdrkit.merge import hat_weight
from hdrkit.tmo import (
    DEFAULT_TMQI,
    GEOMEAN_GUARD,
    WEIGHT_GUARD,
    TmqiScore,
    ToneMap,
    _ERF_T,
    _ERF_U,
    _ERFC_P,
    _ERFC_Q,
    _ERFC_R,
    _ERFC_S,
    _filter_valid,
    _gaussian_window,
    _rescale_255,
    statistical_naturalness,
)


def format_crf(crf: Crf) -> str:
    rows = (f"{i} {r:.10f} {g:.10f} {b:.10f}" for i, (r, g, b) in enumerate(crf.forward))
    return "\n".join(rows) + "\n"


def apply_crf(crf: Crf, x: np.ndarray) -> np.ndarray:
    """Evaluate the forward curve at normalized exposures x in [0, 1]."""
    out = np.empty_like(x, dtype=np.float64)
    for c in range(3):
        out[..., c] = np.interp(x[..., c], _CODE_GRID, crf.forward[:, c])
    return out


def expose(m: RadianceMap, dt: float, crf: Crf) -> LdrImage:
    """Simulate one exposure: Z = round(255 * f(clip(E * dt, 0, 1)))."""
    if dt <= 0:
        raise ParameterError(f"exposure time must be > 0, got {dt}")
    x = np.clip(m.data.astype(np.float64) * dt, 0.0, 1.0)
    codes = round_half_up(255.0 * apply_crf(crf, x)).astype(np.uint8)
    return LdrImage(width=m.width, height=m.height, data=codes, exposure=float(dt))


def debevec_merge(stack: ExposureStack, crf: Crf) -> RadianceMap:
    weights = hat_weight()
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


def mertens_weights(stack: ExposureStack) -> np.ndarray:
    raw = []
    for img in stack.images:
        rgb = img.data.astype(np.float64) / 255.0
        luma = luminance(rgb)
        padded = np.pad(luma, 1, mode="reflect")
        lap = (
            padded[:-2, 1:-1]
            + padded[2:, 1:-1]
            + padded[1:-1, :-2]
            + padded[1:-1, 2:]
            - 4.0 * luma
        )
        contrast = np.abs(lap)
        saturation = rgb.std(axis=2)
        exposedness = np.exp(-((rgb - 0.5) ** 2) / (2.0 * 0.2**2)).prod(axis=2)
        raw.append(contrast * saturation * exposedness + WEIGHT_GUARD)
    stacked = np.stack(raw)
    return stacked / stacked.sum(axis=0, keepdims=True)


def mertens_fuse(stack: ExposureStack) -> ToneMap:
    weights = mertens_weights(stack)
    fused = np.zeros((stack.height, stack.width, 3), dtype=np.float64)
    for wgt, img in zip(weights, stack.images):
        fused += wgt[..., None] * (img.data.astype(np.float64) / 255.0)
    return ToneMap(stack.width, stack.height, np.clip(fused, 0.0, 1.0).astype(np.float32))


def _ndtr(z: np.ndarray) -> np.ndarray:
    x = np.asarray(z, dtype=np.float64) * math.sqrt(0.5)
    a = np.minimum(np.abs(x), 30.0)
    inner = a < 1.0
    xi = np.where(inner, x, 0.0)
    erf = xi * np.polyval(_ERF_T, xi * xi) / np.polyval(_ERF_U, xi * xi)
    ratio = np.where(
        a < 8.0,
        np.polyval(_ERFC_P, a) / np.polyval(_ERFC_Q, a),
        np.polyval(_ERFC_R, a) / np.polyval(_ERFC_S, a),
    )
    half_erfc = 0.5 * np.exp(-a * a) * ratio
    return np.where(inner, 0.5 + 0.5 * erf, np.where(x > 0, 1.0 - half_erfc, half_erfc))


def structural_fidelity(lum_hdr: np.ndarray, lum_tm: np.ndarray) -> float:
    c = DEFAULT_TMQI
    k = c.window_size
    if lum_hdr.shape != lum_tm.shape:
        raise ValidationError("luminance planes must share dimensions")
    if min(lum_hdr.shape) < k:
        raise ParameterError(f"images must be at least {k}x{k} for TMQI")
    x = _rescale_255(lum_hdr.astype(np.float64))
    y = _rescale_255(lum_tm.astype(np.float64))
    g = _gaussian_window(k, c.window_sigma)

    mu_x = _filter_valid(x, g)
    mu_y = _filter_valid(y, g)
    sig_x = np.sqrt(np.maximum(_filter_valid(x * x, g) - mu_x * mu_x, 0.0))
    sig_y = np.sqrt(np.maximum(_filter_valid(y * y, g) - mu_y * mu_y, 0.0))
    sig_xy = _filter_valid(x * y, g) - mu_x * mu_y

    sf = c.spatial_freq
    csf = 100.0 * 2.6 * (0.0192 + 0.114 * sf) * math.exp(-((0.114 * sf) ** 1.1))
    thresh = 128.0 / (1.4 * csf)
    spread = thresh / 3.0
    sig_x_p = _ndtr((sig_x - thresh) / spread)
    sig_y_p = _ndtr((sig_y - thresh) / spread)

    c1, c2 = c.c1, c.c2
    s_map = ((2.0 * sig_x_p * sig_y_p + c1) / (sig_x_p**2 + sig_y_p**2 + c1)) * (
        (sig_xy + c2) / (sig_x * sig_y + c2)
    )
    return float(np.clip(np.mean(s_map), 0.0, 1.0))


def tmqi(m: RadianceMap, tm: ToneMap) -> TmqiScore:
    """The whole score of one operator, HDR side included."""
    if (m.width, m.height) != (tm.width, tm.height):
        raise ValidationError(
            f"dimension mismatch: map {m.width}x{m.height}, tone map {tm.width}x{tm.height}"
        )
    lum_hdr = luminance(m.data).astype(np.float64)
    lum_tm = luminance(tm.data).astype(np.float64) * 255.0
    s = structural_fidelity(lum_hdr, lum_tm)
    n = statistical_naturalness(lum_tm)
    c = DEFAULT_TMQI
    q = c.a * s**c.alpha + (1.0 - c.a) * n**c.beta
    return TmqiScore(S=s, N=n, Q=float(np.clip(q, 0.0, 1.0)))


def scale_colors(rgb: np.ndarray, lum: np.ndarray, lum_display: np.ndarray) -> np.ndarray:
    """Rescale colors by lum_display/lum, preserving channel ratios."""
    ratio = np.where(lum > 0, lum_display / np.where(lum > 0, lum, 1.0), 0.0)
    return np.clip(rgb * ratio[..., None], 0.0, 1.0).astype(np.float32)


def reinhard_global(m: RadianceMap, key: float = 0.18, white: float | None = None) -> ToneMap:
    if key <= 0:
        raise ParameterError(f"key must be > 0, got {key}")
    lum = luminance(m.data).astype(np.float64)
    geomean = math.exp(float(np.mean(np.log(lum + GEOMEAN_GUARD))))
    scaled = key * lum / geomean
    if white is None:
        peak = float(scaled.max())
        white = peak if peak > 0 else 1.0
    display = scaled * (1.0 + scaled / (white * white)) / (1.0 + scaled)
    return ToneMap(m.width, m.height, scale_colors(m.data.astype(np.float64), lum, display))


def drago(m: RadianceMap, bias: float = 0.85, l_max: float | None = None) -> ToneMap:
    if not 0.0 < bias <= 1.0:
        raise ParameterError(f"bias must be in (0, 1], got {bias}")
    lum = luminance(m.data).astype(np.float64)
    if l_max is None:
        l_max = float(lum.max())
    if l_max <= 0:
        return ToneMap(m.width, m.height, np.zeros_like(m.data, dtype=np.float32))
    exponent = math.log(bias) / math.log(0.5)
    denom = np.log(2.0 + 8.0 * (lum / l_max) ** exponent)
    display = (np.log1p(lum) / math.log1p(l_max)) * (math.log(10.0) / denom)
    return ToneMap(m.width, m.height, scale_colors(m.data.astype(np.float64), lum, display))


def encode_hdr(m: RadianceMap) -> bytes:
    m.validate()
    header = f"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {m.height} +X {m.width}\n"
    data = m.data.astype(np.float64)
    maxc = data.max(axis=2)
    nonzero = maxc >= RGBE_ZERO_THRESHOLD

    _, exp = np.frexp(maxc)  # maxc in [2^(e-1), 2^e)
    exp = np.clip(exp, -127, 127)
    scale = np.ldexp(1.0, 8 - exp)
    mant = np.clip(np.floor(data * scale[..., None]), 0, 255)

    rgbe = np.zeros((m.height, m.width, 4), dtype=np.uint8)
    rgbe[..., :3] = np.where(nonzero[..., None], mant, 0).astype(np.uint8)
    rgbe[..., 3] = np.where(nonzero, exp + 128, 0).astype(np.uint8)
    return header.encode("ascii") + rgbe.tobytes()


def rgb_to_lab(rgb: np.ndarray) -> LabImage:
    arr = np.asarray(rgb, dtype=np.float64)
    if np.count_nonzero(arr < 0):
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
