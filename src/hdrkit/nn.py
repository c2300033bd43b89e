"""Minimal CNN engine on NCHW numpy arrays with hand-written gradients.

The engine knows exactly three layer kinds: 3x3 convolution (zero padding 1),
1x1 convolution, and a bare 1x1 output convolution, only as the last
layer.  Only layer 0 may be 3x3, as in the paper's nets.  Hidden layers may
carry spatial batch normalization (before ReLU) and inverted dropout (after
ReLU).
Everything runs in float32 for training or float64 for gradient checking.
A forward runs in one of two modes: train, with batchnorm on the batch's
statistics and the spec's dropout, or eval, on the running statistics and
without dropout.  ``grad_check`` also runs train passes with the ReLU gates
frozen, block by block; no other caller does.
Convolutions are GEMMs on (N, C, H*W) views: a 3x3 layer gathers its nine
shifted inputs into one column buffer first (im2col, as in Chellapilla, Puri
& Simard 2006), for any run of pixel columns.  Batchnorm works on the same
views and centres the conv output in place; an eval forward folds it into
the conv weights instead (Jacob et al. 2018, section 3.2).  Layers return
what their backward needs, and the block keeps it, with one bool mask,
dropout keep AND ReLU gate, that it applies with the 1/(1-p) factor in each
direction.  The first layer, the only one that may be 3x3, skips its input
gradient.

A network's train forward and backward split the batch into contiguous
N-slices on one thread each.  Every per-sample result is computed as on the
whole batch; the sums across samples (batchnorm statistics, dW) add
per-sample partials in n order, as numpy's whole-batch reductions do, and
each slice draws its part of the dropout stream from a PCG64 copy advanced
to its offset.  So the result is bitwise the same on any number of threads.
Each keep-mask element reads one 16-bit lane, a quarter of a raw PCG64
output, and drops with probability p rounded up to a multiple of 2**-16.

A train pass runs block by block over the whole batch.  An eval pass has no
sums across samples, so it runs depth-first (Alwani et al., MICRO 2016) in
chunks of ``_EVAL_PIXELS`` pixel columns of a sample, cut at the same
columns whatever the thread count.  Each slice thread takes a contiguous
run of chunks through every block, in two ping-pong buffers that fit a
core's L2 cache, so one large sample uses every CPU, and its memory grows
neither with N nor with H*W.

The process-wide state is the slice pool (``_new_pool``) and BLAS's thread
count, which every engine call caps at one thread (``_blas_one_thread``).
"""

from __future__ import annotations

import copy
import ctypes
import functools
import io
import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import CorruptionError, FormatError, ParameterError, TruncationError, ValidationError
from .image_io import ByteReader

LAYER_KINDS = ("conv3x3", "conv1x1", "output1x1")
_KIND_CODE = {k: i for i, k in enumerate(LAYER_KINDS)}

CHECKPOINT_MAGIC = b"HDRNN2"

# Each slice pass hands work to a pool thread and back, 20-50 us for a
# trivial task on a 2-CPU x86-64 VM.  Below one 64x64 patch per slice a
# second thread costs more than it saves: the R and L_base nets' train
# forward and backward of two 32x32 samples took 7.7 and 12.2 ms on two
# slices, 5.1 and 9.7 on one.
_SLICE_PIXELS = 64 * 64

# An eval forward cuts each sample into chunks of this many pixel columns,
# the last one narrower, and runs each chunk through every block; a chunk
# is also its unit of work on the slice threads.  Two chunk buffers of the
# widest paper layer (100 channels) in f32 take 1.6 MiB, so a chunk stays in
# a 2 MiB L2 per core from the first layer to the last.  The 7 paper nets
# over 6 tiles of 64x64 on a 2-CPU x86-64 VM took 46-56 ms in chunks of 2048
# px, 53-60 in 1024, 58-67 in 512 and 59-60 in whole tiles.
_EVAL_PIXELS = 2048


@functools.cache
def _blas_thread_control():
    """OpenBLAS's (get, set) thread-count functions, or None if not found.

    ``dlsym`` on numpy's core extension also searches the BLAS it links, so
    the functions are found by name; the names below cover the symbol
    suffixes of the numpy wheels' scipy-openblas and of a plain OpenBLAS.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


# The BLAS count is process-wide, so the cap's state is too.
_blas_lock = threading.Lock()
_blas_depth = 0  # callers inside the cap, on every thread
_blas_saved = 1  # the count before the first of them entered


@contextmanager
def _blas_one_thread():
    """Run BLAS on one thread, and restore the caller's count on exit.

    The engine's slice threads, about one per CPU, replace BLAS's own.  On
    more threads, OpenBLAS's workers would also busy-wait after each call
    and take a CPU from whatever runs next.  The cap nests and is shared by
    all threads: the first caller in saves the count and sets one thread,
    and the last one out puts the saved count back, returning or raising.
    """
    global _blas_depth, _blas_saved
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, put = control
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                put(_blas_saved)


def check_tensor4(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValidationError(f"{name} must be 4-D (N, C, H, W), got shape {x.shape}")
    if x.size == 0:
        raise ValidationError(f"{name} is empty: shape {x.shape}")
    return x


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_depth: int
    out_depth: int
    batchnorm: bool = False
    dropout_p: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValidationError(f"unknown layer kind {self.kind!r}")
        if self.in_depth < 1 or self.out_depth < 1:
            raise ValidationError("layer depths must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError(f"dropout_p must be in [0, 1), got {self.dropout_p}")


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not 0 <= self.seed < 2**63:  # checkpoints store it as an int64
            raise ValidationError(f"network seed must be in [0, 2**63), got {self.seed}")
        if not self.layers:
            raise ValidationError("network needs at least one layer")
        for i, (a, b) in enumerate(zip(self.layers, self.layers[1:])):
            if a.out_depth != b.in_depth:
                raise ValidationError(
                    f"layer {i} out_depth {a.out_depth} != layer {i + 1} in_depth {b.in_depth}"
                )
        for i, ls in enumerate(self.layers):
            if ls.kind == "conv3x3" and i > 0:
                raise ValidationError(f"only layer 0 may be conv3x3, layer {i} is")
            if ls.kind == "output1x1" and i < len(self.layers) - 1:
                raise ValidationError(f"only the last layer may be output1x1, layer {i} is")
        last = self.layers[-1]
        if last.kind != "output1x1" or last.out_depth != 1:
            raise ValidationError("final layer must be output1x1 with out_depth 1")
        if last.batchnorm or last.dropout_p != 0.0:
            raise ValidationError("output layer takes no batchnorm or dropout")

    def parameter_count(self) -> int:
        """Weights, plus per output channel either a bias or, with batchnorm,
        its gamma and beta."""
        total = 0
        for spec in self.layers:
            k = 3 if spec.kind == "conv3x3" else 1
            total += spec.out_depth * (spec.in_depth * k * k + (2 if spec.batchnorm else 1))
        return total


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class _Slices:
    """Contiguous N-slices of one batch, run on ``min(N, threads)`` threads.

    The calling thread runs the first slice and the slice pool
    (:func:`_new_pool`) the others.  A task writes only its own slice of each
    output, so a result that crosses slices is a per-sample partial that the
    caller reduces in n order.  Tasks run plain numpy kernels, never wait on
    one another, and write into buffers the calling thread made: glibc keeps
    what another thread frees in that thread's malloc arena, and slice-local
    scratch raised the train benchmark's peak RSS by up to 40%.
    """

    def __init__(self, n: int, threads: int = 1) -> None:
        k = max(1, min(n, threads))
        bounds = [n * i // k for i in range(k + 1)]
        self.parts = [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def run(self, task) -> None:
        """Call ``task(sl)`` for every slice and return when all are done."""
        futures = [_pool.submit(task, sl) for sl in self.parts[1:]]
        try:
            task(self.parts[0])
        finally:
            for future in futures:
                future.exception()  # waits, even when the first slice failed
        for future in futures:
            future.result()


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _slice_threads(x: np.ndarray) -> int:
    """Slice threads for an (N, C, H, W) batch: one per CPU, but at most one
    per ``_SLICE_PIXELS`` pixels of the batch."""
    return min(_cpu_count(), x.shape[0] * x.shape[2] * x.shape[3] // _SLICE_PIXELS)


def _new_pool() -> None:
    """Make the process's slice pool: a thread per CPU beside the caller's,
    each started on first use.  A forked child makes its own, because its
    copy of the parent's counts threads as idle that the child lacks."""
    global _pool
    _pool = ThreadPoolExecutor(max(1, _cpu_count() - 1))


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _channel_total(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Bitwise ``x.sum(axis=(0, 2))`` of an (N, C, L) array, given its row
    sums ``rows = x.sum(axis=2)``.

    numpy adds each (n, c) row's pairwise sum to the total in n order, and
    so does the axis-0 sum of ``rows``, as in batchnorm's variance and the
    conv's dW.  With one channel numpy may sum the batch as one run, so that
    is summed whole.
    """
    return x.sum(axis=(0, 2)) if x.shape[1] == 1 else rows.sum(axis=0)


def _im2col(x: np.ndarray, width: int, start: int, cols9: np.ndarray) -> None:
    """Gather the zero-padded 3x3 neighbourhoods of the pixel columns
    ``start`` to ``start + m`` of (..., C, H*W) ``x``, rows of ``width``
    pixels, into (..., C, 9, m) ``cols9``: tap 3*di + dj holds x shifted by
    (di - 1, dj - 1), zero where that falls outside x.

    A tap is one run of the flat pixels, so a run of columns reads only its
    own rows and one row on either side.  Its ends are zero where the run
    leaves the first or last row; a column shift also wraps from one row
    into the next, and those entries are zeroed too.
    """
    hw, m = x.shape[-1], cols9.shape[-1]
    for k in range(9):
        di, dj = k // 3 - 1, k % 3 - 1
        tap = cols9[..., k, :]
        src = start + di * width + dj  # the flat pixel that column 0 reads
        a = min(m, max(0, -src))
        b = max(a, min(m, hw - src))
        tap[..., :a] = 0
        tap[..., b:] = 0
        tap[..., a:b] = x[..., src + a : src + b]
        if dj:
            tap[..., (-start if dj < 0 else width - 1 - start) % width :: width] = 0


class Conv:
    """Cross-correlation with stride 1; 3x3 uses zero padding 1, 1x1 none.

    The 3x3 column buffer is (N, 9C, H*W); row c*9 + 3*di + dj matches
    ``w.reshape(O, 9C)``, so both sizes are one ``matmul`` per sample.  dW
    is summed from per-sample products in n order, db over the whole batch.
    Without ``bias`` there is no ``b`` or ``db``: batchnorm's mean
    subtraction would cancel it.

    ``forward`` also returns the columns, 1x1's a view of x, for ``backward``.
    With ``input_grad`` false, backward fills dW and db only and returns
    None.  It is false for 3x3, which :class:`NetworkSpec` allows only as
    layer 0, and a :class:`Network` also clears it on a 1x1 layer 0.  Only
    train passes run this layer; an eval forward runs :func:`_eval_chunk`.
    """

    def __init__(self, in_ch: int, out_ch: int, ksize: int, rng, dtype, bias: bool = True) -> None:
        if ksize not in (1, 3):
            raise ParameterError(f"kernel size must be 1 or 3, got {ksize}")
        self.ksize = ksize
        self.input_grad = ksize == 1
        fan_in = in_ch * ksize * ksize
        self.w = rng.normal(0.0, math.sqrt(2.0 / fan_in), (out_ch, in_ch, ksize, ksize)).astype(dtype)
        self.b = np.zeros(out_ch, dtype=dtype) if bias else None
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b) if bias else None

    def check_channels(self, c: int) -> None:
        if c != self.w.shape[1]:
            raise ValidationError(f"conv expects {self.w.shape[1]} input channels, got {c}")

    def forward(self, x: np.ndarray, slices: _Slices) -> tuple[np.ndarray, np.ndarray]:
        n, c, h, w = x.shape
        self.check_channels(c)
        w2 = self.w.reshape(self.w.shape[0], -1)
        x = x.reshape(n, c, h * w)
        if self.ksize == 1:
            cols = x
        else:
            cols9 = np.empty((n, c, 9, h * w), dtype=x.dtype)
            cols = cols9.reshape(n, c * 9, h * w)
        y = np.empty((n, w2.shape[0], h * w), dtype=np.result_type(w2, cols))

        def run(sl: slice) -> None:
            if self.ksize == 3:
                _im2col(x[sl], w, 0, cols9[sl])
            ys = np.matmul(w2, cols[sl], out=y[sl])
            if self.b is not None:
                ys += self.b[:, None]

        slices.run(run)
        return y.reshape(n, -1, h, w), cols

    def backward(self, dy: np.ndarray, cols: np.ndarray, slices: _Slices) -> np.ndarray | None:
        n, o, h, w = dy.shape
        dy = dy.reshape(n, o, h * w)
        w2 = self.w.reshape(o, -1)
        dws = np.empty((n,) + w2.shape, dtype=np.result_type(dy, cols))
        dx = None
        if self.input_grad:
            dx = np.empty((n, w2.shape[1], h * w), dtype=np.result_type(w2, dy))

        def run(sl: slice) -> None:
            np.matmul(dy[sl], cols[sl].transpose(0, 2, 1), out=dws[sl])
            if dx is not None:
                np.matmul(w2.T, dy[sl], out=dx[sl])

        slices.run(run)
        if self.db is not None:
            self.db[...] = dy.sum(axis=(0, 2))
        self.dw.reshape(o, -1)[...] = dws.sum(axis=0)
        return None if dx is None else dx.reshape(n, -1, h, w)


class BatchNorm:
    """Spatial batch normalization over (N, H, W) per channel, on the batch's
    own statistics.

    The batch statistics are per-sample sums added in n order, and blend
    into the running statistics.  ``forward`` also returns ``(xc, istd)``
    for ``backward``.  The input gradient reuses ``dbeta`` and ``dgamma`` as
    its means.  An eval forward never runs this layer: it folds the running
    statistics into the conv (:meth:`_Block.eval_weights`).
    """

    eps = 1e-5
    momentum = 0.1  # weight of the batch statistics in the running averages

    def __init__(self, channels: int, dtype) -> None:
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)

    def forward(self, x: np.ndarray, slices: _Slices) -> tuple[np.ndarray, tuple]:
        """Normalize x, centring it in place (a block's fresh conv output):
        the centred x is the returned ``xc``."""
        shape = x.shape
        x = x.reshape(shape[0], shape[1], -1)
        m = x.shape[0] * x.shape[2]
        rows = np.empty(x.shape[:2], dtype=x.dtype)
        slices.run(lambda sl: x[sl].sum(axis=2, out=rows[sl]))
        mu = _channel_total(x, rows) / m
        squares = np.empty(x.shape[:2], dtype=x.dtype)

        def centre(sl: slice) -> None:
            xs = np.subtract(x[sl], mu[:, None], out=x[sl])
            np.vecdot(xs, xs, out=squares[sl])

        slices.run(centre)
        var = squares.sum(axis=0) / m
        mom = self.momentum
        self.running_mean[...] = (1.0 - mom) * self.running_mean + mom * mu
        self.running_var[...] = (1.0 - mom) * self.running_var + mom * var
        istd = 1.0 / np.sqrt(var + self.eps)
        scale = self.gamma * istd
        y = np.empty(x.shape, dtype=np.result_type(x, scale))

        def normalize(sl: slice) -> None:
            ys = np.multiply(x[sl], scale[:, None], out=y[sl])
            ys += self.beta[:, None]

        slices.run(normalize)
        return y.reshape(shape), (x, istd)

    def backward(self, dy: np.ndarray, saved: tuple, slices: _Slices) -> np.ndarray:
        """Input gradient, written over dy, from the forward's ``saved``
        pair; backward writes the mean-correction term over its ``xc``."""
        xc, istd = saved  # xhat = xc * istd
        dy3 = dy.reshape(xc.shape)
        rows = np.empty(xc.shape[:2], dtype=dy3.dtype)
        dots = np.empty(xc.shape[:2], dtype=np.result_type(dy3, xc))

        def reduce(sl: slice) -> None:
            dy3[sl].sum(axis=2, out=rows[sl])
            np.vecdot(dy3[sl], xc[sl], out=dots[sl])

        slices.run(reduce)
        self.dbeta[...] = _channel_total(dy3, rows)
        self.dgamma[...] = dots.sum(axis=0) * istd
        scale = self.gamma * istd
        m = xc.shape[0] * xc.shape[2]
        x_term = (scale * istd * self.dgamma / m)[:, None]
        mean_term = (scale * self.dbeta / m)[:, None]

        def run(sl: slice) -> None:
            ds = np.multiply(dy3[sl], scale[:, None], out=dy3[sl])
            xs = xc[sl]
            xs *= x_term
            ds -= xs
            ds -= mean_term

        slices.run(run)
        return dy3.reshape(dy.shape)


_DRAW_CHUNK = 1 << 16  # 16-bit lanes per draw: 128 KiB, which stays in cache

# advance(k) of these skips exactly k 64-bit outputs; Philox's advance counts
# blocks of four outputs, and MT19937 has none.
_SKIPPABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _check_dropout_rng(rng) -> None:
    """Refuse a dropout generator that slices cannot skip ahead in."""
    if not isinstance(getattr(rng, "bit_generator", None), _SKIPPABLE):
        raise ParameterError("train-mode dropout needs a PCG64 or PCG64DXSM Generator")


def _keep_drawer(shape, p: float, rng: np.random.Generator, slices: _Slices):
    """A bool keep mask drawn from 16-bit lanes of the raw stream, and the
    task that draws slice ``sl`` of it.

    Element i of the mask, in C order, reads lane i: slot ``i % 4`` of the
    little-endian ``uint16`` view of raw output ``i // 4``.  It keeps when
    its lane is at least ``T = ceil(p * 2**16)``, so an element drops with
    probability p rounded up to a multiple of 2**-16.  The test is
    ``lane > T - 1`` in ``uint16``, so that T = 2**16 drops every element.
    Each slice draws from a copy of the PCG64 stream advanced to the output
    that holds its first lane, in chunks of ``_DRAW_CHUNK`` lanes that start
    on an output, straight into the mask.  ``rng`` is moved past the
    ceil(n / 4) outputs of the whole draw at once.  Any other generator is
    refused before it is touched: Philox would give a wrong mask silently.
    """
    _check_dropout_rng(rng)
    bitgen = rng.bit_generator
    keep = np.empty(shape, dtype=bool)
    rows = keep.reshape(shape[0], -1)
    below = np.uint16(math.ceil(p * 2**16) - 1)
    streams = {}
    for sl in slices.parts:
        stream = copy.deepcopy(bitgen)
        stream.advance(sl.start * rows.shape[1] // 4)
        streams[sl.start] = stream
    state = bitgen.state
    bitgen.advance(-(-keep.size // 4))
    # advance() drops a buffered 32-bit half, which raw output keeps.
    bitgen.state = {**bitgen.state, "has_uint32": state["has_uint32"],
                    "uinteger": state["uinteger"]}

    def draw(sl: slice) -> None:
        out, stream = rows[sl].reshape(-1), streams[sl.start]
        # Lanes of this slice's first output that earlier slices use.
        skip = sl.start * rows.shape[1] % 4
        for start in range(-skip, out.size, _DRAW_CHUNK):
            stop = min(start + _DRAW_CHUNK, out.size)
            raw = stream.random_raw((stop - start + 3) // 4)
            lanes = raw.astype("<u8", copy=False).view("<u2")
            np.greater(lanes[max(0, -start) : stop - start], below, out=out[max(0, start) : stop])

    return keep, draw


class _Block:
    """conv -> [batchnorm] -> relu -> [dropout]; the output block is conv only.

    ``forward`` is the train-mode forward, and the block alone keeps what
    it saves: ``_saved = (cols, bn_saved, mask, scale)``, what its conv and
    batchnorm returned and one bool mask, the ReLU gate ``y > 0`` AND the
    dropout keep mask when dropout runs, in which case ``scale`` is
    1/(1-p).  ``backward`` spends the record.  ``y *= mask; y *= scale``
    and, backward, ``dy *= mask`` then ``*= scale`` are bitwise a ReLU
    followed by inverted dropout (the ``relu`` and ``dropout`` oracles in
    ``tests/nn_reference.py``).  A frozen-gate pass, which only
    :func:`grad_check` runs, takes the mask of the dropout-free train pass
    before it as ``gate``.  ``forward`` and ``backward`` run on the caller's
    :class:`_Slices`.  An eval forward runs neither: it reads the block's
    conv through :meth:`eval_weights`.

    A batchnormed block's conv has no bias.  A train forward normalizes on
    the batch's statistics.

    ``state`` names each array the block owns once, with its gradient, in
    checkpoint order: ``(name, array, gradient)``, where the running
    statistics have gradient None.  :class:`Network` and :func:`grad_check`
    read the parameters from it.
    """

    def __init__(self, spec: LayerSpec, index: int, rng, dtype) -> None:
        self.spec = spec
        self.name = f"{index}:{spec.kind}({spec.in_depth}->{spec.out_depth})"
        ksize = 3 if spec.kind == "conv3x3" else 1
        self.conv = conv = Conv(spec.in_depth, spec.out_depth, ksize, rng, dtype,
                                bias=not spec.batchnorm)
        self.bn = bn = BatchNorm(spec.out_depth, dtype) if spec.batchnorm else None
        self.state = [("w", conv.w, conv.dw)] + (
            [("b", conv.b, conv.db)] if bn is None else
            [("gamma", bn.gamma, bn.dgamma), ("beta", bn.beta, bn.dbeta),
             ("running_mean", bn.running_mean, None), ("running_var", bn.running_var, None)])
        self.is_output = spec.kind == "output1x1"
        self._saved: tuple | None = None

    def eval_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The eval conv as (O, C*k*k) weights and an (O, 1) bias.

        Batchnorm on the running statistics folds into the conv (Jacob et
        al. 2018, section 3.2): ``s*(W*x - mu) + beta`` is the conv with
        weights ``s*W`` and bias ``beta - mu*s``, ``s = gamma /
        sqrt(running_var + eps)``.  They are made on each call, never
        stored, so that checkpoints and concurrent forwards see only the
        stored parameters.
        """
        conv, bn = self.conv, self.bn
        if bn is None:
            w, b = conv.w, conv.b
        else:
            s = bn.gamma / np.sqrt(bn.running_var + bn.eps)
            w, b = conv.w * s[:, None, None, None], bn.beta - bn.running_mean * s
        return w.reshape(w.shape[0], -1), b[:, None]

    def forward(self, x, rng, slices: _Slices, gate: np.ndarray | None = None):
        y, cols = self.conv.forward(x, slices)
        if self.is_output:
            self._saved = (cols, None, None, None)
            return y
        y, bn_saved = (y, None) if self.bn is None else self.bn.forward(y, slices)
        fresh = gate is None
        gate = np.empty(y.shape, dtype=bool) if fresh else gate
        p = self.spec.dropout_p
        keep = scale = None
        if p > 0.0:
            keep, draw = _keep_drawer(y.shape, p, rng, slices)
            scale = y.dtype.type(1.0 / (1.0 - p))

        def run(sl: slice) -> None:
            ys, mask = y[sl], gate[sl]
            if fresh:
                np.greater(ys, 0, out=mask)
            if keep is not None:
                draw(sl)
                mask = np.logical_and(keep[sl], mask, out=keep[sl])
            ys *= mask
            if scale is not None:
                ys *= scale

        slices.run(run)
        self._saved = (cols, bn_saved, gate if keep is None else keep, scale)
        return y

    def backward(self, dy, slices: _Slices):
        """Input gradient; a hidden block's mask multiply overwrites dy."""
        if self._saved is None:
            raise ValidationError("block backward before a train-mode forward")
        cols, bn_saved, mask, scale = self._saved
        self._saved = None
        if not self.is_output:
            def run(sl: slice) -> None:
                ds = np.multiply(dy[sl], mask[sl], out=dy[sl])
                if scale is not None:
                    ds *= scale

            slices.run(run)
            if self.bn is not None:
                dy = self.bn.backward(dy, bn_saved, slices)
            bn_saved = mask = None  # frees the centred conv output before the GEMMs
        return self.conv.backward(dy, cols, slices)


def _eval_chunk(layers, src: np.ndarray, dest: np.ndarray, pair: np.ndarray) -> None:
    """Run the (C, m) pixel columns ``src`` through ``layers``, (weights,
    bias, relu) triples of :meth:`_Block.eval_weights`, into ``dest``.

    Each layer is one GEMM into the free half of ``pair``, the bias add and,
    on hidden layers, the ReLU ``max(y, 0)``, all in place; the last layer
    writes into ``dest``.  On the SkylakeX (AVX-512) kernels of numpy's
    OpenBLAS, a column's sums are those of the whole-sample GEMM when each
    chunk is a multiple of 16 columns wide, as in 64x64 tiles and in
    inference's plane of tiles; a last chunk of another width can take
    other kernels, which round otherwise.  On its Haswell (AVX2) kernels,
    which ``OPENBLAS_CORETYPE=Zen`` also selects, even such chunks can round
    otherwise.  ``max`` gives +0 where the train-mode gate-and-multiply
    gives -0, which adds the same to every later sum.
    """
    last = len(layers) - 1
    m = src.shape[1]
    for j, (w2, b, relu) in enumerate(layers):
        out = dest if j == last else pair[j % 2, : w2.shape[0] * m].reshape(-1, m)
        np.matmul(w2, src, out=out)
        out += b
        if relu:
            np.maximum(out, 0, out=out)
        src = out


class Network:
    """A stack of blocks built from a :class:`NetworkSpec`.

    Weights are He-initialized from the spec seed; biases, on the convs
    without batchnorm, start at zero; batchnorm at gamma=1, beta=0.
    """

    def __init__(self, spec: NetworkSpec, dtype=np.float32) -> None:
        self.spec = spec
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(spec.seed)
        self.blocks = [_Block(ls, i, rng, self.dtype) for i, ls in enumerate(spec.layers)]
        self.blocks[0].conv.input_grad = False

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        """Run the network on up to one thread per CPU, with at least
        ``_SLICE_PIXELS`` pixels per thread.  The result does not depend on
        the number of threads.  BLAS runs on one thread.

        A train forward runs the blocks one after another over the whole
        batch, each on ``min(N, threads)`` slices of samples: it normalizes
        on the batch's statistics and applies the spec's dropout, drawn from
        ``rng``, a PCG64 or PCG64DXSM Generator.

        An eval forward uses the running statistics (:meth:`_Block.eval_weights`)
        and no dropout, and keeps nothing for backward.  It has no sums
        across samples, so it is depth-first (Alwani et al., "Fused-Layer
        CNN Accelerators", MICRO 2016): its unit of work is one chunk of at
        most ``_EVAL_PIXELS`` pixel columns of one sample, and each slice
        thread takes a contiguous run of chunks through every block, in two
        ping-pong buffers (:func:`_eval_chunk`).  Chunks start at multiples
        of ``_EVAL_PIXELS`` in each sample, so the bytes do not depend on
        the thread count, and a one-sample plane uses every CPU.  At 2048
        columns the pair holds the widest paper layer, 100 channels in f32,
        in 1.6 MiB, so a chunk stays in a 2 MiB L2 cache from the first
        layer to the last.  A 3x3 layer 0 gathers each chunk's im2col from
        the chunk's rows and one row on either side, so a thread's scratch
        does not grow with the sample.
        """
        x = check_tensor4(x, "input").astype(self.dtype, copy=False)
        if train and any(b.spec.dropout_p > 0 for b in self.blocks):
            _check_dropout_rng(rng)
        with _blas_one_thread():
            if not train:
                return self._eval_forward(x)
            slices = _Slices(x.shape[0], _slice_threads(x))
            for block in self.blocks:
                x = block.forward(x, rng, slices)
        return x

    def _eval_forward(self, x: np.ndarray) -> np.ndarray:
        blocks = self.blocks
        blocks[0].conv.check_channels(x.shape[1])
        for block in blocks:  # an eval forward keeps nothing for backward
            block._saved = None
        n, c, h, w = x.shape
        hw = h * w
        chunk = min(hw, _EVAL_PIXELS)
        per_sample = -(-hw // chunk)
        layers = [(*block.eval_weights(), not block.is_output) for block in blocks]
        widest = max(w2.shape[0] for w2, _, _ in layers)
        gather = blocks[0].conv.ksize == 3
        pixels = x.reshape(n, c, hw)
        y = np.empty((n, 1, hw), dtype=x.dtype)
        # Unit u of the slices is chunk u % per_sample of sample u // per_sample.
        slices = _Slices(n * per_sample, _slice_threads(x))
        # Each slice thread's scratch, made here (see _Slices): the chunk
        # pair and, for a 3x3 layer 0, one chunk's im2col.
        scratch = {sl.start: (np.empty((2, widest * chunk), x.dtype),
                              np.empty(9 * c * chunk if gather else 0, x.dtype))
                   for sl in slices.parts}

        def run(sl: slice) -> None:
            pair, cols = scratch[sl.start]
            for u in range(sl.start, sl.stop):
                i, c0 = u // per_sample, u % per_sample * chunk
                m = min(chunk, hw - c0)
                src = pixels[i, :, c0 : c0 + m]
                if gather:
                    src = cols[: 9 * c * m]
                    _im2col(pixels[i], w, c0, src.reshape(c, 9, m))
                    src = src.reshape(9 * c, m)
                _eval_chunk(layers, src, y[i, :, c0 : c0 + m], pair)

        slices.run(run)
        return y.reshape(n, 1, h, w)

    def backward(self, dy: np.ndarray) -> None:
        """Fill every parameter gradient from the loss gradient ``dy``, on
        slices of the batch as in :meth:`forward`.

        The gradient of the network input is not computed: no caller needs it.
        ``dy`` itself is only read, by the output conv; each hidden block's
        mask multiply overwrites the fresh input gradient of the conv above it.
        """
        slices = _Slices(dy.shape[0], _slice_threads(dy))
        with _blas_one_thread():
            for block in reversed(self.blocks):
                dy = block.backward(dy, slices)

    def params(self) -> list[np.ndarray]:
        """The arrays that SGD updates: the state entries with a gradient."""
        return [arr for blk in self.blocks for _, arr, grad in blk.state if grad is not None]

    def grads(self) -> list[np.ndarray]:
        """The gradient of each of :meth:`params`, in the same order."""
        return [grad for blk in self.blocks for _, _, grad in blk.state if grad is not None]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """All state arrays (parameters plus BN running stats), in checkpoint order."""
        return [(f"{blk.name}.{name}", arr) for blk in self.blocks for name, arr, _ in blk.state]

    def load_tensors(self, arrays: list[np.ndarray]) -> None:
        own = self.tensors()
        if len(arrays) != len(own):
            raise ValidationError(f"expected {len(own)} tensors, got {len(arrays)}")
        for (name, dst), src in zip(own, arrays):
            if dst.shape != src.shape:
                raise ValidationError(f"tensor {name}: shape {src.shape} != {dst.shape}")
            dst[...] = src.astype(self.dtype)

    def clone(self) -> "Network":
        other = Network(self.spec, dtype=self.dtype)
        other.load_tensors([arr for _, arr in self.tensors()])
        return other

    def copy_state_from(self, other: "Network") -> None:
        self.load_tensors([arr for _, arr in other.tensors()])

    def activation_stats(self, x: np.ndarray) -> list[dict]:
        """Per-block train-mode output statistics, without dropout, for
        divergence diagnostics.  They are taken on a dropout-free copy
        (:func:`_diagnostic_copy`), so the diagnosis leaves this network as
        it was, whether it returns or raises."""
        x = check_tensor4(x).astype(self.dtype, copy=False)
        stats = []
        with _blas_one_thread():
            for block in _diagnostic_copy(self).blocks:
                x = block.forward(x, None, _Slices(x.shape[0]))
                stats.append(
                    {
                        "layer": block.name,
                        "min": float(x.min()),
                        "max": float(x.max()),
                        "mean": float(x.mean()),
                        "finite": bool(np.all(np.isfinite(x))),
                    }
                )
        return stats


def _diagnostic_copy(net: Network) -> Network:
    """A network of ``net``'s spec with every ``dropout_p`` set to 0, loaded
    with ``net``'s tensors: what :func:`grad_check` and
    :meth:`Network.activation_stats` run, so that neither changes ``net``."""
    layers = tuple(replace(ls, dropout_p=0.0) for ls in net.spec.layers)
    twin = Network(NetworkSpec(layers, net.spec.seed), dtype=net.dtype)
    twin.load_tensors([arr for _, arr in net.tensors()])
    return twin


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements, and its gradient wrt pred."""
    if pred.shape != target.shape:
        raise ValidationError(f"shape mismatch: pred {pred.shape}, target {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = diff * diff.dtype.type(2.0 / diff.size)
    return loss, grad


def sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
    momentum: float = 0.0,
    velocity: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """In-place SGD update: v <- momentum*v - lr*g; p <- p + v.

    Returns the velocity buffers so callers can carry them across steps.
    """
    if not 0 <= lr < math.inf:  # also false for NaN
        raise ParameterError(f"learning rate must be finite and >= 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
    if velocity is None:
        velocity = [np.zeros_like(p) for p in params]
    if len(velocity) != len(params) or len(grads) != len(params):
        raise ValidationError("params, grads, velocity must have equal lengths")
    for p, g, v in zip(params, grads, velocity):
        v *= p.dtype.type(momentum)
        v -= p.dtype.type(lr) * g
        p += v
    return velocity


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


@dataclass
class LayerGradReport:
    layer: str
    max_rel_err: float
    checked: int


@dataclass
class GradCheckReport:
    layers: list[LayerGradReport]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r.max_rel_err < self.tolerance for r in self.layers)

    def lines(self) -> list[str]:
        out = []
        for r in self.layers:
            verdict = "PASS" if r.max_rel_err < self.tolerance else "FAIL"
            out.append(
                f"{r.layer}: max_rel_err={r.max_rel_err:.3e} ({r.checked} params) {verdict}"
            )
        return out


def _rel_err(a: float, n: float) -> float:
    # Both sides negligible means they agree the gradient is zero; comparing
    # pure float noise against the 1e-8 floor would be meaningless.
    if abs(a) < 1e-10 and abs(n) < 1e-10:
        return 0.0
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(
    net: Network,
    x: np.ndarray,
    target: np.ndarray,
    h: float = 1e-3,
    tolerance: float = 1e-4,
    max_samples: int = 200,
) -> GradCheckReport:
    """Compare analytic gradients against the finite difference ``(f(-2h) -
    8f(-h) + 8f(h) - f(2h)) / 12h``, whose error is O(h**4); the two-point
    one's O(h**2) exceeded 1e-4 on batchnorm's curvature at h=1e-3.

    Runs in 64-bit, in train mode on the fixed batch, on a dropout-free
    copy of ``net`` (:func:`_diagnostic_copy`), so ``net`` is left as it
    was.  The ReLU gates are frozen from the reference pass while
    differencing: the network is piecewise linear in its gates, and the
    analytic gradient is the derivative of exactly that local smooth piece,
    so the difference quotient must be taken on the same piece (batchnorm
    statistics stay live and are verified in full).  The gates are the
    blocks' saved masks, taken before the reference backward spends them.
    The check runs the frozen-gate passes itself, block by block, under one
    BLAS cap, on one set of slices cut by the rule :meth:`Network.forward`
    uses and run on the process's slice pool.

    A conv's ``w`` and a batchnorm's ``gamma`` are checked at their
    ``max_samples`` largest-gradient entries when they have more, where the
    comparison is well conditioned; a structural backward bug shifts those
    at least as much as the near-zero ones, which finite differences at
    fixed h cannot resolve relatively.  A bias ``b`` and a batchnorm's
    ``beta`` are checked in full.
    """
    if not 0 < tolerance < math.inf:  # also false for NaN
        raise ParameterError(f"tolerance must be finite and > 0, got {tolerance}")
    if net.dtype != np.float64:
        raise ParameterError("grad_check requires a float64 network")
    net = _diagnostic_copy(net)
    x = check_tensor4(x).astype(np.float64)
    target = np.asarray(target, dtype=np.float64)

    pred = net.forward(x, train=True)
    gates = [blk._saved[2] for blk in net.blocks]
    _, dpred = mse_loss(pred, target)
    net.backward(dpred)

    reports = []
    slices = _Slices(x.shape[0], _slice_threads(x))
    with _blas_one_thread():

        def loss_with(flat: np.ndarray, idx, value) -> float:
            flat[idx] = value
            y = x
            for blk, gate in zip(net.blocks, gates):
                y = blk.forward(y, None, slices, gate)
            return mse_loss(y, target)[0]

        for block in net.blocks:
            worst = 0.0
            checked = 0
            for name, param, grad in block.state:
                if grad is None:
                    continue
                analytic = grad.copy().reshape(-1)
                flat = param.reshape(-1)
                if name in ("w", "gamma") and flat.size > max_samples:
                    indices = np.argsort(np.abs(analytic))[-max_samples:]
                else:
                    indices = np.arange(flat.size)
                for idx in indices:
                    old = flat[idx]
                    f = [loss_with(flat, idx, old + step) for step in (-2.0 * h, -h, h, 2.0 * h)]
                    flat[idx] = old
                    numeric = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
                    worst = max(worst, _rel_err(analytic[idx], numeric))
                    checked += 1
            reports.append(LayerGradReport(layer=block.name, max_rel_err=worst, checked=checked))
    return GradCheckReport(layers=reports, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(net: Network, metadata: dict | None = None) -> bytes:
    """Serialize spec, metadata, and all state tensors (float32 LE).

    A tensor holding NaN or Inf in float32 (a diverged run, or a float64
    value beyond float32's range) is refused, as :func:`load_checkpoint`
    would refuse it.
    """
    with np.errstate(over="ignore"):  # an overflow to Inf is refused below
        tensors = [arr.astype("<f4") for _, arr in net.tensors()]
    for i, arr in enumerate(tensors):
        if not np.isfinite(arr).all():
            raise ValidationError(f"checkpoint tensor {i} {arr.shape} holds NaN or Inf")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<q", net.spec.seed))
    buf.write(struct.pack("<I", len(net.spec.layers)))
    for ls in net.spec.layers:
        buf.write(
            struct.pack(
                "<BIIBf",
                _KIND_CODE[ls.kind],
                ls.in_depth,
                ls.out_depth,
                int(ls.batchnorm),
                ls.dropout_p,
            )
        )
    meta = json.dumps(metadata or {}).encode("utf-8")
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    buf.write(struct.pack("<I", len(tensors)))
    for arr in tensors:
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.tobytes())
    return buf.getvalue()


def load_checkpoint(data: bytes) -> tuple[Network, dict]:
    """Rebuild a float32 network (and its metadata) from
    :func:`save_checkpoint` bytes."""
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {data[:6]!r}", offset=0)
    r = ByteReader(data, len(CHECKPOINT_MAGIC))
    seed, n_layers = r.unpack("<qI")
    layers = []
    for _ in range(n_layers):
        kind, in_d, out_d, bn, p = r.unpack("<BIIBf", "checkpoint layer")
        if kind >= len(LAYER_KINDS):
            raise FormatError(f"unknown layer kind code {kind}")
        layers.append(LayerSpec(LAYER_KINDS[kind], in_d, out_d, bool(bn), p))
    meta = r.take(*r.unpack("<I"), "checkpoint metadata")
    try:
        metadata = json.loads(meta.decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
        metadata = None
    if not isinstance(metadata, dict):
        raise FormatError(f"checkpoint metadata {meta[:40]!r} is not a UTF-8 JSON object")

    spec = NetworkSpec(layers=tuple(layers), seed=seed)
    if 4 * spec.parameter_count() > r.remaining:  # bound the allocation by the bytes left
        raise TruncationError(
            f"spec needs {4 * spec.parameter_count()} tensor bytes, {r.remaining} left"
        )
    net = Network(spec)
    own = net.tensors()
    (n_tensors,) = r.unpack("<I")
    if n_tensors != len(own):
        raise ValidationError(f"checkpoint holds {n_tensors} tensors, its spec has {len(own)}")
    for i, (name, dst) in enumerate(own):
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        if shape != dst.shape:  # checked before the bytes are read
            raise ValidationError(f"checkpoint tensor {i} ({name}): shape {shape} != {dst.shape}")
        src = r.array("<f4", shape, "checkpoint tensor")
        if not np.isfinite(src).all():
            raise ValidationError(f"checkpoint tensor {i} {shape} holds NaN or Inf")
        dst[...] = src
    if r.remaining:
        raise CorruptionError(f"{r.remaining} trailing bytes after the checkpoint tensors")
    return net, metadata
