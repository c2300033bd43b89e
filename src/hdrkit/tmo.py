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

from .camera import Crf, ExposureStack, fixed_stack, gamma_crf
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
    """Rescale colors by lum_display/lum, preserving channel ratios."""
    ratio = np.where(lum > 0, lum_display / np.where(lum > 0, lum, 1.0), 0.0)
    return np.clip(rgb * ratio[..., None], 0.0, 1.0).astype(np.float32)


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
    """Single-scale exposure fusion: weighted per-pixel average of the stack."""
    weights = mertens_weights(stack)
    fused = np.zeros((stack.height, stack.width, 3), dtype=np.float64)
    for wgt, img in zip(weights, stack.images):
        fused += wgt[..., None] * (img.data.astype(np.float64) / 255.0)
    return ToneMap(stack.width, stack.height, np.clip(fused, 0.0, 1.0).astype(np.float32))


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


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF Phi(z) = erfc(-x)/2 with x = z/sqrt(2), elementwise.

    The erf branch takes every |x| < 1, where the P/Q fit does not reach.
    |x| is capped at 30, where exp(-x^2) is already 0, so +-inf map to 1 and 0.
    """
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


def _rescale_255(plane: np.ndarray) -> np.ndarray:
    lo, hi = float(plane.min()), float(plane.max())
    if hi - lo <= 0:
        return np.zeros_like(plane)
    return 255.0 * (plane - lo) / (hi - lo)


def structural_fidelity(lum_hdr: np.ndarray, lum_tm: np.ndarray) -> float:
    """Single-scale structural fidelity between two luminance planes.

    Both planes are rescaled to a common [0, 255] range; local standard
    deviations pass through a visual-sensitivity normal CDF before the
    SSIM-style comparison, making the term contrast- and scale-tolerant.
    """
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

    # Contrast sensitivity at the working spatial frequency; local stds are
    # mapped through a normal CDF centered on the modulation threshold.
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


def tmqi(m: RadianceMap, tm: ToneMap) -> TmqiScore:
    """Score a tone map against its source radiance map."""
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


# ---------------------------------------------------------------------------
# Best-operator selection
# ---------------------------------------------------------------------------

OPERATORS = ("reinhard", "drago", "mertens")


def apply_operator(m: RadianceMap, operator: str, crf: Crf | None = None) -> ToneMap:
    """Apply one named operator with its default parameters; mertens runs on
    a synthesized fixed stack."""
    if operator == "reinhard":
        return reinhard_global(m)
    if operator == "drago":
        return drago(m)
    if operator == "mertens":
        if crf is None:
            crf = gamma_crf(2.2)
        return mertens_fuse(fixed_stack(m, crf))
    raise ParameterError(f"unknown operator {operator!r}")


def select_best_tmo(
    m: RadianceMap,
    operators: tuple[str, ...] = OPERATORS,
    crf: Crf | None = None,
) -> tuple[ToneMap, str, TmqiScore, list[tuple[str, TmqiScore]]]:
    """Score every operator with TMQI and return the argmax (ties: list order).

    Returns (best tone map, operator id, its score, all scores in list order).
    """
    if not operators:
        raise ParameterError("need at least one operator")
    scored: list[tuple[str, ToneMap, TmqiScore]] = []
    for op in operators:
        tm = apply_operator(m, op, crf=crf)
        scored.append((op, tm, tmqi(m, tm)))
    # max() keeps the first of equal keys, which is the documented tie rule
    op, tm, score = max(scored, key=lambda item: item[2].Q)
    return tm, op, score, [(s[0], s[2]) for s in scored]
