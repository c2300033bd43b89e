"""Tone-mapping operators, the TMQI quality metric, and best-operator selection.

Operators map linear radiance to display-referred [0, 1] color.  TMQI scores
a (radiance map, tone map) pair as Q = a*S^alpha + (1-a)*N^beta, combining a
structural-fidelity term S computed on locally contrast-mapped luminance with
a statistical-naturalness term N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import Crf, ExposureStack, fixed_stack
from .errors import ParameterError, ValidationError
from .image_io import RadianceMap
from .imgproc import luminance

GEOMEAN_GUARD = 1e-6
WEIGHT_GUARD = 1e-12


@dataclass
class ToneMap:
    """Display-referred image with all values in [0, 1]."""

    width: int
    height: int
    data: np.ndarray  # (H, W, 3) float32 in [0, 1]

    @classmethod
    def from_array(cls, data: np.ndarray) -> "ToneMap":
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValidationError(f"tone map data must be (H, W, 3), got {data.shape}")
        h, w = data.shape[:2]
        return cls(width=w, height=h, data=data)


def _scale_colors(rgb: np.ndarray, lum: np.ndarray, lum_display: np.ndarray) -> np.ndarray:
    """Rescale colors by lum_display/lum, preserving channel ratios.  ``rgb``
    is the caller's fresh f64 copy, scaled and clipped in place."""
    ratio = np.where(lum > 0, lum_display / np.where(lum > 0, lum, 1.0), 0.0)
    rgb *= ratio[..., None]
    return np.clip(rgb, 0.0, 1.0, out=rgb).astype(np.float32)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def reinhard_global(m: RadianceMap, key: float = 0.18, white: float | None = None) -> ToneMap:
    """Global photographic operator with a burn-out white level.

    L_scaled = key * L / geomean(L + guard); the display luminance is
    L_scaled * (1 + L_scaled / white^2) / (1 + L_scaled).
    """
    if key <= 0:
        raise ParameterError(f"key must be > 0, got {key}")
    lum = luminance(m.data).astype(np.float64)
    geomean = math.exp(float(np.mean(np.log(lum + GEOMEAN_GUARD))))
    scaled = key * lum / geomean
    if white is None:
        peak = float(scaled.max())
        white = peak if peak > 0 else 1.0
    display = scaled * (1.0 + scaled / (white * white)) / (1.0 + scaled)
    return ToneMap(m.width, m.height, _scale_colors(m.data.astype(np.float64), lum, display))


def drago(m: RadianceMap, bias: float = 0.85, l_max: float | None = None) -> ToneMap:
    """Adaptive logarithmic mapping with bias-controlled base interpolation."""
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
    return ToneMap(m.width, m.height, _scale_colors(m.data.astype(np.float64), lum, display))


def mertens_weights(stack: ExposureStack) -> np.ndarray:
    """Normalized per-image fusion weights, shape (len(stack), H, W).

    Per image: contrast = |3x3 Laplacian of luma|, saturation = per-pixel RGB
    standard deviation, exposedness = product over channels of a Gaussian
    around 0.5 (sigma 0.2); the weight is their product.  A tiny additive
    guard keeps the per-pixel normalization well defined, so the maps sum to
    one everywhere.
    """
    out = np.empty((len(stack.images), stack.height, stack.width), dtype=np.float64)
    for wgt, img in zip(out, stack.images):
        rgb = img.data.astype(np.float64)
        rgb /= 255.0
        luma = luminance(rgb)
        padded = np.pad(luma, 1, mode="reflect")
        np.add(padded[:-2, 1:-1], padded[2:, 1:-1], out=wgt)
        wgt += padded[1:-1, :-2]
        wgt += padded[1:-1, 2:]
        luma *= 4.0
        wgt -= luma
        np.abs(wgt, out=wgt)  # contrast
        del luma, padded  # freed before std's temporaries
        wgt *= rgb.std(axis=2)  # saturation
        rgb -= 0.5
        np.square(rgb, out=rgb)
        np.negative(rgb, out=rgb)
        rgb /= 2.0 * 0.2**2
        np.exp(rgb, out=rgb)
        wgt *= rgb.prod(axis=2)  # exposedness
        wgt += WEIGHT_GUARD
    out /= out.sum(axis=0, keepdims=True)
    return out


def mertens_fuse(stack: ExposureStack) -> ToneMap:
    """Single-scale exposure fusion: weighted per-pixel average of the stack."""
    weights = mertens_weights(stack)
    fused = np.zeros((stack.height, stack.width, 3), dtype=np.float64)
    term = np.empty((stack.height, stack.width), dtype=np.float64)
    for wgt, img in zip(weights, stack.images):
        for c in range(3):
            term[...] = img.data[..., c]
            term /= 255.0
            term *= wgt
            fused[..., c] += term
    np.clip(fused, 0.0, 1.0, out=fused)
    return ToneMap(stack.width, stack.height, fused.astype(np.float32))


# ---------------------------------------------------------------------------
# TMQI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TmqiConstants:
    """Metric constants; the naturalness set follows the published reference."""

    a: float = 0.8012
    alpha: float = 0.3046
    beta: float = 0.7088
    c1: float = 0.01
    c2: float = 10.0
    spatial_freq: float = 16.0  # cycles/degree fed to the contrast threshold
    window_size: int = 11
    window_sigma: float = 1.5
    nat_mean_mu: float = 115.94
    nat_mean_sigma: float = 27.99
    nat_std_shape1: float = 4.4
    nat_std_shape2: float = 10.1
    nat_std_scale: float = 64.29


DEFAULT_TMQI = TmqiConstants()


@dataclass
class TmqiScore:
    S: float
    N: float
    Q: float


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    """The normalised 1-D Gaussian; its outer product is the 2-D TMQI window."""
    half = (size - 1) / 2.0
    g = np.exp(-0.5 * ((np.arange(size) - half) / sigma) ** 2)
    return g / g.sum()


def _filter_valid(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """'Valid' correlation with the 2-D window ``outer(g, g)``: rows first, then columns."""
    k = g.size
    h, w = img.shape
    rows = g[0] * img[:, : w - k + 1]
    for j in range(1, k):
        rows += g[j] * img[:, j : j + w - k + 1]
    out = g[0] * rows[: h - k + 1]
    for i in range(1, k):
        out += g[i] * rows[i : i + h - k + 1]
    return out


# Cephes ndtr rational approximations, highest power first: erf(x) = x T(x^2)/U(x^2)
# for |x| < 1, erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8 and exp(-x^2) R(x)/S(x)
# beyond.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """``np.polyval(coeffs, x)``: the same steps y = y * x + c, in one buffer."""
    y = np.zeros_like(x)
    for c in coeffs:
        y *= x
        y += c
    return y


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF Phi(z) = erfc(-x)/2 with x = z/sqrt(2), elementwise.

    The erf branch takes every |x| < 1, where the P/Q fit does not reach.
    |x| is capped at 30, where exp(-x^2) is already 0, so +-inf map to 1 and 0.
    """
    x = np.asarray(z, dtype=np.float64) * math.sqrt(0.5)
    a = np.minimum(np.abs(x), 30.0)
    # erfc(|x|) / 2 = exp(-x^2) / 2 * (P/Q below 8, R/S beyond)
    out = _horner(_ERFC_R, a)
    out /= _horner(_ERFC_S, a)
    near = _horner(_ERFC_P, a)
    near /= _horner(_ERFC_Q, a)
    np.copyto(out, near, where=a < 8.0)
    del near
    out *= 0.5 * np.exp(-a * a)
    np.subtract(1.0, out, out=out, where=x > 0)
    # 0.5 + 0.5 * erf(x), with erf(x) = x T(x^2) / U(x^2)
    inner = a < 1.0
    xi = np.where(inner, x, 0.0)
    xi2 = xi * xi
    erf = _horner(_ERF_T, xi2)
    erf *= xi
    erf /= _horner(_ERF_U, xi2)
    erf *= 0.5
    erf += 0.5
    np.copyto(out, erf, where=inner)
    return out


def _rescale_255(plane: np.ndarray) -> np.ndarray:
    lo, hi = float(plane.min()), float(plane.max())
    if hi - lo <= 0:
        return np.zeros_like(plane)
    return 255.0 * (plane - lo) / (hi - lo)


def _check_tmqi_size(shape: tuple[int, ...]) -> None:
    k = DEFAULT_TMQI.window_size
    if min(shape) < k:
        raise ParameterError(f"images must be at least {k}x{k} for TMQI")


def _local_stats(lum: np.ndarray) -> tuple[np.ndarray, ...]:
    """One side of the structural-fidelity comparison.

    Returns the plane rescaled to [0, 255], its windowed mean and standard
    deviation, and that deviation mapped through the visual-sensitivity
    normal CDF: a contrast-sensitivity threshold at the working spatial
    frequency, spread over three standard deviations.
    """
    c = DEFAULT_TMQI
    g = _gaussian_window(c.window_size, c.window_sigma)
    x = _rescale_255(lum.astype(np.float64))
    mu = _filter_valid(x, g)
    sig = _filter_valid(x * x, g)
    sig -= mu * mu
    np.maximum(sig, 0.0, out=sig)
    np.sqrt(sig, out=sig)
    sf = c.spatial_freq
    csf = 100.0 * 2.6 * (0.0192 + 0.114 * sf) * math.exp(-((0.114 * sf) ** 1.1))
    thresh = 128.0 / (1.4 * csf)
    z = sig - thresh
    z /= thresh / 3.0
    return x, mu, sig, _ndtr(z)


def _fidelity(hdr: tuple[np.ndarray, ...], lum_tm: np.ndarray) -> float:
    """Structural fidelity of a tone-mapped plane against the HDR side's
    :func:`_local_stats`."""
    c = DEFAULT_TMQI
    x, mu_x, sig_x, sig_x_p = hdr
    y, mu_y, sig_y, sig_y_p = _local_stats(lum_tm)
    # s = (2 sx' sy' + c1) / (sx'^2 + sy'^2 + c1) * (sxy + c2) / (sx sy + c2)
    s_map = 2.0 * sig_x_p
    s_map *= sig_y_p
    s_map += c.c1
    den = np.square(sig_x_p)
    den += np.square(sig_y_p)
    den += c.c1
    s_map /= den
    sig_xy = _filter_valid(x * y, _gaussian_window(c.window_size, c.window_sigma))
    sig_xy -= mu_x * mu_y
    sig_xy += c.c2
    np.multiply(sig_x, sig_y, out=den)
    den += c.c2
    sig_xy /= den
    s_map *= sig_xy
    return float(np.clip(np.mean(s_map), 0.0, 1.0))


def structural_fidelity(lum_hdr: np.ndarray, lum_tm: np.ndarray) -> float:
    """Single-scale structural fidelity between two luminance planes.

    Both planes are rescaled to a common [0, 255] range; local standard
    deviations pass through a visual-sensitivity normal CDF before the
    SSIM-style comparison, making the term contrast- and scale-tolerant.
    """
    if lum_hdr.shape != lum_tm.shape:
        raise ValidationError("luminance planes must share dimensions")
    _check_tmqi_size(lum_hdr.shape)
    return _fidelity(_local_stats(lum_hdr), lum_tm)


def statistical_naturalness(lum_tm_255: np.ndarray) -> float:
    """Brightness/contrast naturalness of a tone-mapped luminance (0..255 scale).

    Gaussian prior on the global mean, Beta prior on the average local
    (11x11 block) standard deviation (Yeganeh & Wang, IEEE TIP 2013); both
    normalized by their modes so the product lies in [0, 1].  Dividing each
    density by its value at the mode cancels its normalizing constant, which
    leaves the closed forms below.
    """
    c = DEFAULT_TMQI
    u = float(np.mean(lum_tm_255))
    k = c.window_size
    h, w = lum_tm_255.shape
    if h >= k and w >= k:
        rows, cols = h // k, w // k
        blocks = lum_tm_255[: rows * k, : cols * k].reshape(rows, k, cols, k)
        sig = float(blocks.std(axis=(1, 3)).mean())
    else:
        sig = float(lum_tm_255.std())

    p_mean = math.exp(-0.5 * ((u - c.nat_mean_mu) / c.nat_mean_sigma) ** 2)
    a, b = c.nat_std_shape1, c.nat_std_shape2
    mode = (a - 1.0) / (a + b - 2.0)
    x = sig / c.nat_std_scale
    if 0.0 < x < 1.0:
        p_std = (x / mode) ** (a - 1.0) * ((1.0 - x) / (1.0 - mode)) ** (b - 1.0)
    else:
        p_std = 0.0  # outside the Beta support
    return float(np.clip(p_mean * p_std, 0.0, 1.0))


def _score(s: float, lum_tm: np.ndarray) -> TmqiScore:
    """Q from the fidelity S and the tone map's luminance on the 0..255 scale."""
    n = statistical_naturalness(lum_tm)
    c = DEFAULT_TMQI
    q = c.a * s**c.alpha + (1.0 - c.a) * n**c.beta
    return TmqiScore(S=s, N=n, Q=float(np.clip(q, 0.0, 1.0)))


def tmqi(m: RadianceMap, tm: ToneMap) -> TmqiScore:
    """Score a tone map against its source radiance map."""
    if (m.width, m.height) != (tm.width, tm.height):
        raise ValidationError(
            f"dimension mismatch: map {m.width}x{m.height}, tone map {tm.width}x{tm.height}"
        )
    lum_tm = luminance(tm.data).astype(np.float64) * 255.0
    return _score(structural_fidelity(luminance(m.data).astype(np.float64), lum_tm), lum_tm)


# ---------------------------------------------------------------------------
# Best-operator selection
# ---------------------------------------------------------------------------

OPERATORS = ("reinhard", "drago", "mertens")


def apply_operator(m: RadianceMap, operator: str, crf: Crf) -> ToneMap:
    """Apply one named operator with its default parameters; mertens runs on
    a synthesized fixed stack."""
    if operator == "reinhard":
        return reinhard_global(m)
    if operator == "drago":
        return drago(m)
    if operator == "mertens":
        return mertens_fuse(fixed_stack(m, crf))
    raise ParameterError(f"unknown operator {operator!r}")


def select_best_tmo(
    m: RadianceMap,
    crf: Crf,
    operators: tuple[str, ...] = OPERATORS,
) -> tuple[ToneMap, str, TmqiScore, list[tuple[str, TmqiScore]]]:
    """Score every operator with TMQI and return the argmax (ties: list order).

    Returns (best tone map, operator id, its score, all scores in list order).
    """
    if not operators:
        raise ParameterError("need at least one operator")
    # The HDR side of TMQI is the same for every operator: compute it once.
    _check_tmqi_size((m.height, m.width))
    hdr = _local_stats(luminance(m.data).astype(np.float64))
    scores: list[tuple[str, TmqiScore]] = []
    best = None
    for op in operators:
        tm = apply_operator(m, op, crf=crf)
        lum_tm = luminance(tm.data).astype(np.float64) * 255.0
        score = _score(_fidelity(hdr, lum_tm), lum_tm)
        scores.append((op, score))
        # Only a strictly higher Q replaces the best: the first of equal scores wins.
        if best is None or score.Q > best[2].Q:
            best = (tm, op, score)
    return (*best, scores)
