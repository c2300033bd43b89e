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
    _LAB_DELTA3,
    _LAB_KAPPA,
    _RGB_TO_XYZ,
    D65_WHITE,
    LabImage,
    _lab_f,
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
