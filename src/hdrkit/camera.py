"""Camera forward model: response curves, exposure synthesis, stack selection.

An LDR code is produced as Z = round(255 * f(clip(E * dt, 0, 1))) where f is
the response curve.  Quantization is round-half-up so independent
implementations agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError
from .image_io import LdrImage, RadianceMap
from .imgproc import entropy, round_half_up

FIXED_EXPOSURES = (1.0, 8.0, 64.0, 512.0, 4096.0)
STACK_SIZE = 5

_CODE_GRID = np.arange(256) / 255.0


@dataclass
class Crf:
    """Per-channel response lookup: normalized exposure i/255 -> f in [0, 1]."""

    forward: np.ndarray  # (256, 3) float64, non-decreasing, f[0]=0, f[255]=1
    name: str = "custom"

    def __post_init__(self) -> None:
        self.forward = np.asarray(self.forward, dtype=np.float64)
        if self.forward.shape != (256, 3):
            raise ValidationError(f"CRF table must be (256, 3), got {self.forward.shape}")
        diffs = np.diff(self.forward, axis=0)
        bad = np.argwhere(diffs < 0)
        if bad.size:
            i, c = bad[0]
            raise ValidationError(
                f"CRF not monotone: channel {c} decreases at index {i + 1}"
            )
        if np.any(self.forward[0] != 0.0) or np.any(self.forward[255] != 1.0):
            raise ValidationError("CRF must map 0 -> 0 and 255 -> 1 on every channel")


@dataclass
class ExposureLadder:
    """Strictly increasing candidate exposure times."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(t <= 0 for t in self.times):
            raise ValidationError("ladder times must be > 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValidationError("ladder times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class ExposureStack:
    """Exactly five exposures of one scene, ordered by increasing time."""

    images: list[LdrImage]
    ladder_indices: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.images) != STACK_SIZE:
            raise ValidationError(f"stack needs {STACK_SIZE} images, got {len(self.images)}")
        exposures = [img.exposure for img in self.images]
        if any(b <= a for a, b in zip(exposures, exposures[1:])):
            raise ValidationError(f"stack exposures must strictly increase: {exposures}")
        dims = {(img.width, img.height) for img in self.images}
        if len(dims) != 1:
            raise ValidationError(f"stack images have mixed dimensions: {dims}")

    @property
    def exposures(self) -> list[float]:
        return [img.exposure for img in self.images]

    @property
    def width(self) -> int:
        return self.images[0].width

    @property
    def height(self) -> int:
        return self.images[0].height


def gamma_crf(gamma: float) -> Crf:
    """Power-law response f(x) = x^(1/gamma); identity when gamma == 1."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    curve = _CODE_GRID ** (1.0 / gamma)
    return Crf(forward=np.tile(curve[:, None], (1, 3)), name=f"gamma{gamma:g}")


def load_crf(text: str, name: str = "file") -> Crf:
    """Parse the 256-line ``index r g b`` response-curve format."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValidationError(f"CRF line {lineno}: expected 'index r g b', got {line!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValidationError(f"CRF line {lineno}: non-numeric field in {line!r}") from None
    if len(rows) != 256:
        raise ValidationError(f"CRF file must have 256 entries, got {len(rows)}")
    table = np.asarray(rows, dtype=np.float64)
    if np.any(table[:, 0] != np.arange(256)):
        first = int(np.argwhere(table[:, 0] != np.arange(256))[0, 0])
        raise ValidationError(f"CRF indices out of order starting at row {first}")
    if not np.all((table[:, 1:] >= 0) & (table[:, 1:] <= 1)):  # NaN fails both
        raise ValidationError("CRF values must be finite and lie in [0, 1]")
    return Crf(forward=table[:, 1:], name=name)


def format_crf(crf: Crf) -> str:
    lines = [
        f"{i} {crf.forward[i, 0]:.10f} {crf.forward[i, 1]:.10f} {crf.forward[i, 2]:.10f}"
        for i in range(256)
    ]
    return "\n".join(lines) + "\n"


def invert_crf(crf: Crf, code: int, channel: int) -> float:
    """Normalized exposure x with forward(x) == code/255 on one channel."""
    if not 0 <= code <= 255:
        raise ParameterError(f"code must be in [0, 255], got {code}")
    return float(inverse_lut(crf)[code, channel])


def inverse_lut(crf: Crf) -> np.ndarray:
    """(256, 3) normalized exposures x with forward(x) == code/255, per channel.

    Piecewise-linear inversion of the lookup table; a flat run containing the
    target value maps to the run's midpoint.
    """
    out = np.empty((256, 3), dtype=np.float64)
    for c in range(3):
        f = crf.forward[:, c]
        lo = np.searchsorted(f, _CODE_GRID, side="left")
        hi = np.searchsorted(f, _CODE_GRID, side="right")
        # Exact hits f[lo..hi-1] == v take the midpoint of that flat run.
        out[:, c] = (lo + hi - 1) / 2.0 / 255.0
        # Elsewhere v lies strictly between f[lo-1] and f[lo]; f[0] == 0 and
        # f[255] == 1 keep 1 <= lo <= 255 there.
        between = hi == lo
        left, right = lo[between] - 1, lo[between]
        frac = (_CODE_GRID[between] - f[left]) / (f[right] - f[left])
        out[between, c] = (left + frac) / 255.0
    return out


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


def geometric_ladder() -> ExposureLadder:
    """Ten exposure times: first term 1, ratio 4, last term 4^9."""
    return ExposureLadder(times=tuple(float(4**i) for i in range(10)))


def fixed_stack(m: RadianceMap, crf: Crf) -> ExposureStack:
    """Expose at the fixed times (1, 8, 64, 512, 4096)."""
    images = [expose(m, dt, crf) for dt in FIXED_EXPOSURES]
    return ExposureStack(images=images, ladder_indices=tuple(range(STACK_SIZE)))


def adaptive_window(entropies: list[float], ladder_len: int) -> tuple[int, ...]:
    """Indices of the 5-wide window centered on the entropy argmax.

    Ties break toward the smaller exposure; windows at the ladder edges are
    shifted inward so the stack always has exactly five members.
    """
    k = int(np.argmax(entropies))
    lo = min(max(k - 2, 0), ladder_len - STACK_SIZE)
    return tuple(range(lo, lo + STACK_SIZE))


def adaptive_stack(m: RadianceMap, crf: Crf, ladder: ExposureLadder) -> ExposureStack:
    """Expose at every ladder time, keep the window around the entropy peak."""
    if len(ladder) < STACK_SIZE:
        raise ParameterError(f"ladder must have >= {STACK_SIZE} times, got {len(ladder)}")
    images = [expose(m, dt, crf) for dt in ladder.times]
    entropies = [entropy(img) for img in images]
    indices = adaptive_window(entropies, len(ladder))
    return ExposureStack(images=[images[i] for i in indices], ladder_indices=indices)
