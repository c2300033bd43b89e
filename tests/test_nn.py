import copy
import dataclasses
import math
import os
import signal
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import nn_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from nn_reference import (
    EinsumConv,
    FourAxisBatchNorm,
    WholeBatchNetwork,
    dropout,
    keep_mask,
    relu,
    relu_backward,
)

from hdrkit import nn
from hdrkit.errors import (
    CorruptionError,
    FormatError,
    ParameterError,
    TruncationError,
    ValidationError,
)
from hdrkit.nn import (
    LAYER_KINDS,
    BatchNorm,
    Conv,
    LayerSpec,
    Network,
    NetworkSpec,
    grad_check,
    load_checkpoint,
    mse_loss,
    _Block,
    _channel_total,
    _DRAW_CHUNK,
    _keep_drawer,
    _Slices,
    _blas_thread_control,
    save_checkpoint,
    sgd_step,
)
from hdrkit.pipeline import build_ldr2hdr_net, build_tonemap_net


def single_layer_net(seed=0, in_depth=3):
    return NetworkSpec(layers=(LayerSpec("output1x1", in_depth, 1),), seed=seed)


def two_layer_net(kind="conv1x1", batchnorm=False, p=0.0, seed=0):
    return NetworkSpec(
        layers=(
            LayerSpec(kind, 3, 4, batchnorm=batchnorm, dropout_p=p),
            LayerSpec("output1x1", 4, 1),
        ),
        seed=seed,
    )


class TestSpecs:
    def test_depth_chain_enforced(self):
        with pytest.raises(ValidationError):
            NetworkSpec(
                layers=(
                    LayerSpec("conv1x1", 3, 4),
                    LayerSpec("output1x1", 5, 1),
                )
            )

    def test_final_layer_rules(self):
        with pytest.raises(ValidationError):
            NetworkSpec(layers=(LayerSpec("conv1x1", 3, 1),))
        with pytest.raises(ValidationError):
            NetworkSpec(layers=(LayerSpec("output1x1", 3, 2),))

    def test_dropout_range(self):
        with pytest.raises(ValidationError):
            LayerSpec("conv1x1", 3, 4, dropout_p=1.0)

    @pytest.mark.parametrize("later", [1, 2], ids=["layer1", "last_hidden"])
    def test_conv3x3_only_as_layer_0(self, later):
        layers = [LayerSpec("conv3x3", 3, 4), LayerSpec("conv1x1", 4, 4),
                  LayerSpec("conv1x1", 4, 4), LayerSpec("output1x1", 4, 1)]
        NetworkSpec(layers=tuple(layers))
        layers[later] = LayerSpec("conv3x3", 4, 4)
        with pytest.raises(ValidationError, match=f"only layer 0 may be conv3x3, layer {later} is"):
            NetworkSpec(layers=tuple(layers))

    @pytest.mark.parametrize("earlier", [0, 1], ids=["layer0", "hidden"])
    def test_output1x1_only_as_the_last_layer(self, earlier):
        """A bare output conv in a hidden place would run as a linear block."""
        layers = [LayerSpec("conv1x1", 3, 4, batchnorm=True), LayerSpec("conv1x1", 4, 4),
                  LayerSpec("output1x1", 4, 1)]
        NetworkSpec(layers=tuple(layers))
        layers[earlier] = dataclasses.replace(layers[earlier], kind="output1x1", batchnorm=False)
        with pytest.raises(ValidationError,
                           match=f"only the last layer may be output1x1, layer {earlier} is"):
            NetworkSpec(layers=tuple(layers))

    def test_parameter_counts_ldr2hdr(self):
        # layer-by-layer arithmetic: out*(in*k*k + 2) with batchnorm (gamma
        # and beta, no bias), out*(in*k*k + 1) without (a bias)
        spec = build_ldr2hdr_net("R", seed=0)
        per_layer = [60 * (5 * 9 + 2), 40 * (60 + 2), 20 * (40 + 2), 20 * (20 + 2), 20 * (20 + 2),
                     1 * (20 + 1)]
        assert per_layer == [2820, 2480, 840, 440, 440, 21]
        assert spec.parameter_count() == sum(per_layer) == 7041

    def test_parameter_counts_tonemap(self):
        spec = build_tonemap_net("L_base", seed=0)
        per_layer = [100 * (1 * 9 + 2), 80 * (100 + 2), 50 * (80 + 2), 10 * (50 + 2), 1 * (10 + 1)]
        assert spec.parameter_count() == sum(per_layer) == 13891

    def test_network_param_arrays_match_count(self):
        spec = build_ldr2hdr_net("R", seed=0)
        net = Network(spec)
        assert sum(p.size for p in net.params()) == spec.parameter_count()


class TestConv:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        conv = Conv(3, 3, 1, rng, np.float64)
        conv.w[...] = np.eye(3)[:, :, None, None]
        conv.b[...] = 0
        x = rng.normal(size=(2, 3, 5, 5))
        y, cols = conv.forward(x, _Slices(2))
        assert np.array_equal(y, x)
        assert np.shares_memory(cols, x)  # a 1x1 conv's columns are its input

    def test_3x3_box_kernel_counts(self):
        rng = np.random.default_rng(0)
        conv = Conv(1, 1, 3, rng, np.float64)
        conv.w[...] = 1.0
        conv.b[...] = 0.0
        c = 2.5
        y, cols = conv.forward(np.full((1, 1, 4, 4), c), _Slices(1))
        assert cols.shape == (1, 9, 16)  # the nine taps of one channel
        assert y[0, 0, 1, 1] == pytest.approx(9 * c)  # interior
        assert y[0, 0, 0, 0] == pytest.approx(4 * c)  # corner (zero padding)
        assert y[0, 0, 0, 1] == pytest.approx(6 * c)  # edge

    def test_channel_mismatch_raises(self):
        conv = Conv(3, 4, 1, np.random.default_rng(0), np.float32)
        with pytest.raises(ValidationError):
            conv.forward(np.zeros((1, 2, 4, 4), np.float32), _Slices(1))

    @pytest.mark.parametrize("kind", ["conv1x1", "conv3x3"])
    def test_gradcheck(self, kind):
        net = Network(two_layer_net(kind), dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 6))
        t = rng.normal(size=(2, 1, 6, 6))
        report = grad_check(net, x, t)
        assert report.passed, report.lines()


class TestBatchNorm:
    def test_constant_input_maps_to_zero(self):
        bn = BatchNorm(2, np.float64)
        y, (xc, istd) = bn.forward(np.full((2, 2, 4, 4), 7.0), _Slices(2))
        assert np.all(np.abs(y) < 1e-3)
        assert not xc.any() and istd.shape == (2,)

    def test_train_mode_normalizes(self, rng):
        bn = BatchNorm(3, np.float64)
        x = rng.normal(2.0, 3.0, size=(4, 3, 16, 16))
        y, _ = bn.forward(x, _Slices(4))
        assert np.all(np.abs(y.mean(axis=(0, 2, 3))) < 1e-5)
        assert np.all(np.abs(y.var(axis=(0, 2, 3)) - 1.0) < 1e-2)

    def test_gradcheck(self):
        net = Network(two_layer_net(batchnorm=True), dtype=np.float64)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 6))
        t = rng.normal(size=(2, 1, 6, 6))
        report = grad_check(net, x, t)
        assert report.passed, report.lines()


class TestRelu:
    def test_idempotent(self, rng):
        x = rng.normal(size=(3, 4))
        y, _ = relu(x)
        assert np.array_equal(relu(y)[0], y)

    def test_all_negative(self, rng):
        x = -np.abs(rng.normal(size=(3, 4))) - 0.1
        y, gate = relu(x)
        assert np.all(y == 0)
        assert np.all(relu_backward(np.ones_like(x), gate) == 0)

    def test_fd_away_from_kink(self, rng):
        # |x| > 1e-2, perturbation h smaller than the margin
        x = rng.normal(size=(64,))
        x = np.where(np.abs(x) < 1e-2, np.sign(x) * 0.5, x)
        g = np.ones_like(x)
        h = 1e-3
        numeric = (relu(x + h)[0] - relu(x - h)[0]) / (2 * h)
        analytic = relu_backward(g, relu(x)[1])
        assert np.abs(numeric - analytic).max() < 1e-12


class TestDropout:
    def test_p_zero_identity(self, rng):
        x = rng.normal(size=(4, 4))
        assert np.array_equal(dropout(x, 0.0, train=True, rng=rng)[0], x)

    def test_eval_identity(self, rng):
        x = rng.normal(size=(4, 4))
        assert np.array_equal(dropout(x, 0.7, train=False)[0], x)

    @staticmethod
    def passthrough_net():
        """Unit-weight 1x1 layers around one dropout: the output is the
        dropout of a positive input."""
        net = Network(NetworkSpec(layers=(LayerSpec("conv1x1", 1, 1, dropout_p=0.4),
                                          LayerSpec("output1x1", 1, 1))))
        for block in net.blocks:
            block.conv.w[...] = 1.0
        return net

    def test_statistics(self):
        x = np.ones((4, 1, 500, 500), np.float32)
        y = self.passthrough_net().forward(x, train=True, rng=np.random.default_rng(123))
        ref, _ = dropout(x, 0.4, train=True, rng=np.random.default_rng(123))
        assert y.tobytes() == ref.tobytes()
        assert abs(y.mean() - 1.0) < 0.01  # within 1% of 1.0
        assert abs((y == 0).mean() - 0.4) < 0.004  # within 1% of 0.4

    def test_needs_rng_in_train(self):
        net = self.passthrough_net()
        with pytest.raises(ParameterError):
            net.forward(np.ones((1, 1, 4, 4), np.float32), train=True)
        assert np.all(net.forward(np.ones((1, 1, 4, 4), np.float32), train=False) == 1.0)

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox])
    def test_refuses_generators_it_cannot_advance(self, bitgen):
        """Dropout slices skip ahead in a PCG64 stream; any other generator is
        refused before any block runs, so no tensor changes."""
        net = Network(SLICED_SPEC)
        before = [arr.tobytes() for _, arr in net.tensors()]
        x = np.random.default_rng(3).normal(size=(4, 3, 64, 64)).astype(np.float32)
        with pytest.raises(ParameterError, match="PCG64"):
            net.forward(x, train=True, rng=np.random.Generator(bitgen(23)))
        assert [arr.tobytes() for _, arr in net.tensors()] == before  # BN running stats too
        assert all(b._saved is None for b in net.blocks)

    def test_keep_fraction(self):
        """Each element drops with probability p rounded up to a multiple of
        2**-16: the keep fraction is within 4 sigma of 1 - T / 2**16."""
        for p in (2.0**-20, 0.4, 0.9):
            kept = 1.0 - math.ceil(p * 2**16) / 2**16
            slices = _Slices(4, 2)
            keep, draw = _keep_drawer((4, 1, 1000, 1000), p, np.random.default_rng(25), slices)
            slices.run(draw)
            assert abs(keep.mean() - kept) < 4 * math.sqrt(kept * (1.0 - kept) / keep.size)

    def test_drops_everything_above_the_last_lane(self):
        """For p > 1 - 2**-16 no lane passes, without the threshold wrapping."""
        net = Network(NetworkSpec(layers=(LayerSpec("conv1x1", 1, 1, dropout_p=1.0 - 2.0**-20),
                                          LayerSpec("output1x1", 1, 1))))
        for block in net.blocks:
            block.conv.w[...] = 1.0
        y = net.forward(np.ones((4, 1, 100, 100), np.float32), train=True,
                        rng=np.random.default_rng(26))
        assert not net.blocks[0]._saved[2].any()  # the mask
        assert np.isfinite(y).all() and not y.any()

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 65535, 65536, 65537, 3 * 65536 + 5])
    def test_keep_mask_is_the_full_draw(self, size):
        """One slice drawing a row across chunk boundaries gives bitwise the
        one-array mask and rng state."""
        chunked, whole = np.random.default_rng(21), np.random.default_rng(21)
        keep, draw = _keep_drawer((1, size), 0.4, chunked, _Slices(1))
        draw(slice(0, 1))
        assert keep.dtype == bool
        assert keep.tobytes() == keep_mask((1, size), 0.4, whole).tobytes()
        assert chunked.bit_generator.state == whole.bit_generator.state
        assert chunked.random() == whole.random()

    def test_keep_mask_keeps_shape(self):
        chunked, whole = np.random.default_rng(22), np.random.default_rng(22)
        slices = _Slices(3, 2)
        keep, draw = _keep_drawer((3, 5, 70, 80), 0.25, chunked, slices)
        slices.run(draw)
        assert np.array_equal(keep, keep_mask((3, 5, 70, 80), 0.25, whole))

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.PCG64DXSM,
                                        np.random.MT19937, np.random.Philox])
    @pytest.mark.parametrize("shape, threads", [((5, 3, 70, 80), 3), ((3, 1, 300, 301), 2),
                                                ((7, 2, 1, 3), 5), ((2, 4, 5), 5),
                                                ((5, 3, 70, 80), 1), ((1, 4, 9, 7), 3),
                                                ((1, 2, 200, 201), 2), ((4, 1, 3, 3), 4),
                                                ((5, 1, 2, 3), 5), ((3, 1, 5, 7), 3),
                                                ((3, 1, 257, 257), 3)])
    def test_keep_mask_slices_are_the_full_draw(self, bitgen, shape, threads):
        """Slices drawing from advanced PCG64 copies, at offsets that are not
        chunk multiples, or that start inside a raw output (per-sample sizes
        1, 2 and 3 mod 4, rows of several chunks among them), or as one slice
        (one thread, one sample, or one row of several chunks), give the
        one-array mask, and leave rng where the whole draw does, even with a
        buffered 32-bit half.  MT19937 (no advance) and Philox (advance in
        blocks of four) are refused with rng untouched."""
        sliced = np.random.Generator(bitgen(23))
        whole = np.random.Generator(bitgen(23))
        for g in (sliced, whole):
            g.integers(0, 2**32, dtype=np.uint32)
        per_sample = int(np.prod(shape[1:]))
        slices = _Slices(shape[0], threads)
        assert len(slices.parts) == 1 or any(
            sl.start * per_sample % _DRAW_CHUNK for sl in slices.parts)
        if bitgen in (np.random.MT19937, np.random.Philox):
            with pytest.raises(ParameterError, match="PCG64"):
                _keep_drawer(shape, 0.4, sliced, slices)
            np.testing.assert_equal(sliced.bit_generator.state, whole.bit_generator.state)
            assert sliced.random() == whole.random()
            return
        keep, draw = _keep_drawer(shape, 0.4, sliced, slices)
        slices.run(draw)
        assert keep.tobytes() == keep_mask(shape, 0.4, whole).tobytes()
        np.testing.assert_equal(sliced.bit_generator.state, whole.bit_generator.state)
        assert sliced.integers(0, 2**32, dtype=np.uint32) == whole.integers(0, 2**32, dtype=np.uint32)
        assert sliced.random() == whole.random()

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.PCG64DXSM])
    @pytest.mark.parametrize("shape, threads", [((1, 1), 1), ((1, 4), 1), ((3, 1, 1, 1), 3),
                                                ((2, 1, 1, 3), 2), ((5, 1, 2, 3), 5),
                                                ((3, 1, 257, 257), 3)])
    def test_draw_advances_a_quarter_output_per_element(self, bitgen, shape, threads):
        """A draw of n elements moves rng past ceil(n / 4) raw outputs and
        keeps a buffered 32-bit half."""
        rng = np.random.Generator(bitgen(24))
        rng.integers(0, 2**32, dtype=np.uint32)  # buffers the other half
        advanced = copy.deepcopy(rng.bit_generator)
        advanced.advance(-(-math.prod(shape) // 4))
        buffered = rng.bit_generator.state["uinteger"]
        slices = _Slices(shape[0], threads)
        _, draw = _keep_drawer(shape, 0.4, rng, slices)
        slices.run(draw)
        assert rng.bit_generator.state == {**advanced.state, "has_uint32": 1, "uinteger": buffered}

def assert_close(actual, reference, rtol=1e-12):
    """Max abs difference within ``rtol`` of the reference's largest value."""
    assert actual.shape == reference.shape
    assert np.abs(actual - reference).max() <= rtol * np.abs(reference).max()


class TestMatchesEinsumReference:
    """The GEMM engine against the einsum conv and 4-D batchnorm it replaced."""

    @pytest.mark.parametrize("c,o,k", [(5, 60, 3), (1, 100, 3), (60, 40, 1), (100, 80, 1)])
    def test_conv(self, c, o, k):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, c, 13, 7))
        dy = rng.normal(size=(3, o, 13, 7))
        conv = Conv(c, o, k, np.random.default_rng(0), np.float64)
        ref = EinsumConv(c, o, k, np.random.default_rng(0), np.float64)
        conv.b[...] = ref.b[...] = rng.normal(size=o)
        y, cols = conv.forward(x, _Slices(3))
        assert_close(y, ref.forward(x))
        dx, ref_dx = conv.backward(dy, cols, _Slices(3)), ref.backward(dy)
        if k == 1:
            assert_close(dx, ref_dx)
        else:  # a 3x3 conv is only ever layer 0
            assert dx is None
        assert_close(conv.dw, ref.dw)
        assert_close(conv.db, ref.db)

    def test_batchnorm(self):
        rng = np.random.default_rng(12)
        x = rng.normal(2.0, 3.0, size=(3, 6, 13, 7))
        dy = rng.normal(size=x.shape)
        bn, ref = BatchNorm(6, np.float64), FourAxisBatchNorm(6, np.float64)
        for layer in (bn, ref):
            layer.gamma[...] = np.linspace(0.5, 2.0, 6)
            layer.beta[...] = np.linspace(-1.0, 1.0, 6)
            layer.running_mean[...] = np.linspace(-0.3, 0.4, 6)
            layer.running_var[...] = np.linspace(0.8, 1.7, 6)
        # the engine centres x and writes its input gradient over dy
        y, saved = bn.forward(x.copy(), _Slices(3))
        assert_close(y, ref.forward(x, train=True))
        assert_close(bn.backward(dy.copy(), saved, _Slices(3)), ref.backward(dy))
        for name in ("dgamma", "dbeta", "running_mean", "running_var"):
            assert_close(getattr(bn, name), getattr(ref, name))

    @pytest.mark.parametrize("batchnorm", [True, False])
    def test_block_is_relu_then_dropout(self, batchnorm):
        """One fused multiply per direction, bitwise the separate operations.
        A 1x1 block, so that its conv computes the input gradient."""
        spec = LayerSpec("conv1x1", 3, 8, batchnorm=batchnorm, dropout_p=0.4)
        block = _Block(spec, 0, np.random.default_rng(1), np.float32)
        ref = _Block(spec, 0, np.random.default_rng(1), np.float32)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 9, 6)).astype(np.float32)
        dy = rng.normal(size=(2, 8, 9, 6)).astype(np.float32)

        y = block.forward(x, np.random.default_rng(5), _Slices(2))
        pre, cols = ref.conv.forward(x, _Slices(2))
        if batchnorm:
            pre, saved = ref.bn.forward(pre, _Slices(2))
        y_ref, gate = relu(pre)
        y_ref, scale = dropout(y_ref, 0.4, train=True, rng=np.random.default_rng(5))
        assert y.tobytes() == y_ref.tobytes()

        dx = block.backward(dy.copy(), _Slices(2))
        assert block._saved is None  # spent
        d = relu_backward(dy * scale, gate)
        if batchnorm:
            d = ref.bn.backward(d, saved, _Slices(2))
        assert dx.tobytes() == ref.conv.backward(d, cols, _Slices(2)).tobytes()
        assert block.conv.dw.tobytes() == ref.conv.dw.tobytes()


SLICED_SPEC = NetworkSpec(
    layers=(
        LayerSpec("conv3x3", 3, 6, batchnorm=True, dropout_p=0.3),
        LayerSpec("conv1x1", 6, 5, dropout_p=0.4),
        LayerSpec("conv1x1", 5, 4, batchnorm=True),
        LayerSpec("conv1x1", 4, 3),
        LayerSpec("output1x1", 3, 1),
    ),
    seed=8,
)


def _without_dropout(spec):
    return NetworkSpec(tuple(dataclasses.replace(ls, dropout_p=0.0) for ls in spec.layers), spec.seed)


def _tensor_bytes(net):
    return [arr.tobytes() for _, arr in net.tensors()] + [g.tobytes() for g in net.grads()]


@pytest.fixture
def cpus(request, monkeypatch):
    """The CPU count for the test, with tiny batches sliced as large ones
    are, on a slice pool of that many threads, and every slice of a pooled
    pass held until all of them can start.  Without the hold the calling
    thread mostly finishes slice 0 before a pool thread wakes, so the slices
    run in order; with it, pool slices mostly start first."""
    pool = ThreadPoolExecutor(request.param)
    monkeypatch.setattr(nn, "_pool", pool)
    monkeypatch.setattr(nn, "_cpu_count", lambda: request.param)
    monkeypatch.setattr(nn, "_SLICE_PIXELS", 1)
    real_run = _Slices.run

    def run_together(self, task):
        if len(self.parts) == 1:
            return real_run(self, task)
        start = threading.Barrier(len(self.parts))

        def together(sl):
            start.wait(timeout=60)
            task(sl)

        return real_run(self, together)

    monkeypatch.setattr(_Slices, "run", run_together)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the slice threads as often as possible
    yield request.param
    sys.setswitchinterval(switch)
    pool.shutdown()


class TestSlicedEngine:
    """The N-sliced engine against the whole-batch engine it replaced, bitwise
    in f32, for any number of slice threads."""

    @staticmethod
    def _pass(net, x, dy, mode, rng):
        """One pass of the given mode; returns its outputs."""
        if mode == "eval":
            return [net.forward(x, train=False)]
        out = [net.forward(x, train=True, rng=rng)]
        if not isinstance(net, WholeBatchNetwork):  # the gates, before backward spends them
            gates = [block._saved[2] for block in net.blocks]
        net.backward(dy)
        if mode == "frozen":  # a frozen-gate pass on nudged weights
            net.blocks[2].conv.w += np.float32(0.01)
            if isinstance(net, WholeBatchNetwork):
                out.append(net.forward(x, train=True, frozen_gates=True))
            else:  # block by block under one set of slices, as grad_check runs it
                y = x
                slices = _Slices(x.shape[0], nn._slice_threads(x))
                for block, gate in zip(net.blocks, gates):
                    y = block.forward(y, None, slices, gate)
                out.append(y)
            net.backward(dy)
        return out

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5], indirect=True)
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    @pytest.mark.parametrize("mode", ["dropout", "no_dropout", "eval", "frozen"])
    def test_matches_whole_batch_engine(self, cpus, n, mode):
        data = np.random.default_rng(100 + n)
        x = data.normal(size=(n, 3, 7, 6)).astype(np.float32)
        dy = data.normal(size=(n, 1, 7, 6)).astype(np.float32)
        spec = _without_dropout(SLICED_SPEC) if mode in ("no_dropout", "frozen") else SLICED_SPEC
        net = Network(spec)
        ref = WholeBatchNetwork(spec)
        for model in (net, ref):  # non-trivial running statistics for eval
            for block in model.blocks:
                if block.bn is not None:
                    block.bn.running_mean[...] = np.linspace(-0.2, 0.3, block.bn.gamma.size)
                    block.bn.running_var[...] = np.linspace(0.5, 1.5, block.bn.gamma.size)
        rngs = [np.random.default_rng(31), np.random.default_rng(31)]
        for _ in range(2):  # a second step starts from updated running statistics
            got = self._pass(net, x, dy, mode, rngs[0])
            want = self._pass(ref, x, dy, mode, rngs[1])
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert _tensor_bytes(net) == _tensor_bytes(ref)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("shape, threads, expected", [
        ((40, 5, 64, 64), 2, 2), ((2, 5, 64, 64), 5, 2), ((4, 1, 64, 32), 5, 2),
        ((3, 5, 32, 32), 2, 1), ((2, 5, 8, 8), 2, 1), ((1, 5, 200, 200), 2, 1)])
    def test_small_batches_take_fewer_slices(self, monkeypatch, shape, threads, expected):
        """A slice gets at least one 64x64 patch's worth of pixels."""
        monkeypatch.setattr(nn, "_cpu_count", lambda: threads)
        assert len(_Slices(shape[0], nn._slice_threads(np.empty(shape))).parts) == expected

    def test_eval_forward_keeps_no_caches(self):
        net = Network(SLICED_SPEC)
        x = np.random.default_rng(4).normal(size=(2, 3, 5, 5)).astype(np.float32)
        net.forward(x, train=True, rng=np.random.default_rng(1))
        net.forward(x, train=False)
        assert all(block._saved is None for block in net.blocks)
        with pytest.raises(ValidationError, match="backward before"):
            net.backward(np.ones((2, 1, 5, 5), np.float32))
        with pytest.raises(ValidationError, match="block backward before"):
            net.blocks[1].backward(np.ones((2, 5, 5, 5), np.float32), _Slices(2))

    def test_task_error_is_raised_after_every_slice_ends(self):
        finished = []

        def task(sl):
            if sl.start == 0:
                raise ValueError("first slice")
            finished.append(sl.start)

        slices = _Slices(6, 3)
        with pytest.raises(ValueError, match="first slice"):
            slices.run(task)
        assert sorted(finished) == [2, 4]
        finished.clear()  # the pool outlives the error
        slices.run(lambda sl: finished.append(sl.start))
        assert sorted(finished) == [0, 2, 4]

    @settings(max_examples=300, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), n=st.integers(1, 300),
           c=st.integers(1, 40), length=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_channel_total_is_the_whole_batch_sum(self, dtype, n, c, length, seed):
        """The axis-0 sum of the row sums (one channel: the whole sum) is
        bitwise numpy's sum over (N, L), on values of mixed magnitudes."""
        data = np.random.default_rng(seed)
        x = (data.normal(size=(n, c, length)) * 10.0 ** data.integers(-4, 5, (n, c, length))).astype(dtype)
        assert _channel_total(x, x.sum(axis=2)).tobytes() == x.sum(axis=(0, 2)).tobytes()


RACE_SPEC = NetworkSpec(
    layers=(
        LayerSpec("conv3x3", 3, 8, batchnorm=True, dropout_p=0.3),
        LayerSpec("conv1x1", 8, 8, batchnorm=True, dropout_p=0.4),
        LayerSpec("output1x1", 8, 1),
    ),
    seed=9,
)


class TestSlicesRunAtOnce:
    """Slices of 1-2 samples of 8*160*160 = 204,800 elements per hidden
    layer, large enough that numpy's loops release the GIL, so that the
    slices of a pass run at the same time.  A buffer or a running sum that
    the slices share then gives other bytes than the whole-batch engine; at
    ``TestSlicedEngine``'s sizes each slice ends before another starts."""

    @pytest.mark.parametrize("cpus", [3, 4], indirect=True)
    def test_matches_whole_batch_engine(self, cpus):
        data = np.random.default_rng(40)
        x = data.normal(size=(4, 3, 160, 160)).astype(np.float32)
        dy = data.normal(size=(4, 1, 160, 160)).astype(np.float32)
        net, ref = Network(RACE_SPEC), WholeBatchNetwork(RACE_SPEC)
        rngs = [np.random.default_rng(41), np.random.default_rng(41)]
        for _ in range(4):
            got = net.forward(x, train=True, rng=rngs[0])
            net.backward(dy)
            want = ref.forward(x, train=True, rng=rngs[1])
            ref.backward(dy)
            assert got.tobytes() == want.tobytes()
            assert _tensor_bytes(net) == _tensor_bytes(ref)


class TestSameBytesOnAnySliceCount:
    """The engine against itself on 1 slice: train outputs, every gradient,
    the running statistics and eval outputs are the same bytes on 2 and 4.
    Each slice's GEMMs have the same shapes whatever the slice count, so
    this holds on any OpenBLAS kernel, where the whole-batch oracles' GEMMs
    may round otherwise."""

    @staticmethod
    def _passes(spec, x, dy):
        net = Network(spec)
        rng = np.random.default_rng(51)
        out = []
        for _ in range(2):  # the second step starts from moved running statistics
            out.append(net.forward(x, train=True, rng=rng).tobytes())
            net.backward(dy)
            out += _tensor_bytes(net)
        out.append(net.forward(x, train=False).tobytes())
        return out

    @pytest.mark.parametrize("cpus", [2, 4], indirect=True)
    @pytest.mark.parametrize("spec, shape", [(RACE_SPEC, (4, 3, 160, 160)),
                                             (build_tonemap_net("L_base", seed=5), (6, 1, 64, 64))],
                             ids=["race", "L_base"])
    def test_matches_one_slice(self, cpus, monkeypatch, spec, shape):
        data = np.random.default_rng(50)
        x = data.normal(size=shape).astype(np.float32)
        dy = data.normal(size=(shape[0], 1) + shape[2:]).astype(np.float32)
        monkeypatch.setattr(nn, "_cpu_count", lambda: 1)
        want = self._passes(spec, x, dy)
        monkeypatch.setattr(nn, "_cpu_count", lambda: cpus)
        assert self._passes(spec, x, dy) == want

    @pytest.mark.parametrize("cpus", [2, 5], indirect=True)
    def test_one_plane_of_many_chunks_matches_one_slice(self, cpus, monkeypatch):
        """An eval forward of one sample, 12 chunks of a 181x129 plane, runs
        its chunks on every slice thread, with the bytes of one thread."""
        net = _with_stats(Network(build_ldr2hdr_net("R", seed=5)), 6)
        x = np.random.default_rng(52).random((1, 5, 181, 129)).astype(np.float32)
        monkeypatch.setattr(nn, "_cpu_count", lambda: 1)
        want = net.forward(x).tobytes()
        monkeypatch.setattr(nn, "_cpu_count", lambda: cpus)
        threads, real_chunk = set(), nn._eval_chunk

        def chunk(*args):
            threads.add(threading.get_ident())
            return real_chunk(*args)

        monkeypatch.setattr(nn, "_eval_chunk", chunk)
        assert net.forward(x).tobytes() == want
        assert len(threads) == cpus


class TestSlicePool:
    """The process's slice pool, sized by the engine's rule for two CPUs (one
    thread), so that a 96x96 plane takes two slices on one CPU too."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(nn, "_cpu_count", lambda: 2)
        monkeypatch.setattr(nn, "_pool", None)  # the module's pool comes back after
        nn._new_pool()
        yield
        nn._pool.shutdown()

    @staticmethod
    def _net_and_plane():
        x = np.random.default_rng(60).normal(size=(1, 3, 96, 96)).astype(np.float32)
        return _with_stats(Network(SLICED_SPEC), 61), x

    def test_forwards_share_the_pool_thread(self, monkeypatch):
        net, x = self._net_and_plane()
        caller, names, real_chunk = threading.current_thread(), set(), nn._eval_chunk

        def chunk(*args):
            if threading.current_thread() is not caller:
                names.add(threading.current_thread().name)
            return real_chunk(*args)

        monkeypatch.setattr(nn, "_eval_chunk", chunk)
        for _ in range(20):
            net.forward(x)
        assert len(names) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_forked_child_runs_a_forward(self):
        """A forked child's copy of the pool counts the parent's idle thread,
        which the child does not have; the child's forward must not wait on
        it."""
        net, x = self._net_and_plane()
        want = net.forward(x).tobytes()  # the pool now has an idle thread
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if net.forward(x).tobytes() == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 20
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid, "the child's forward did not finish in 20 s"
        assert os.waitstatus_to_exitcode(done[1]) == 0


def _with_stats(net, seed):
    """Non-zero biases where a conv has one, and gamma, beta and running
    statistics away from 1, 0, 0 and 1 in every batchnorm."""
    data = np.random.default_rng(seed)
    for block in net.blocks:
        if block.conv.b is not None:
            block.conv.b[...] = data.normal(0.0, 0.2, block.conv.b.size)
        if block.bn is not None:
            c = block.bn.gamma.size
            block.bn.gamma[...] = data.uniform(0.5, 2.0, c)
            block.bn.beta[...] = data.normal(0.0, 0.5, c)
            block.bn.running_mean[...] = data.normal(0.0, 0.3, c)
            block.bn.running_var[...] = data.uniform(0.2, 3.0, c)
    return net


class TestBatchnormCancelsConvBias:
    """Train-mode batchnorm subtracts the batch mean, so a conv bias in front
    of it changes no output and no other gradient: a batchnormed block's conv
    has none."""

    @pytest.mark.parametrize("c,o,k", [(5, 60, 3), (1, 100, 3), (60, 40, 1), (100, 80, 1)])
    def test_bias_free_conv_matches_biased_einsum_conv(self, c, o, k):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, c, 13, 7))
        dy = rng.normal(size=(3, o, 13, 7))
        conv = Conv(c, o, k, np.random.default_rng(0), np.float64, bias=False)
        ref = EinsumConv(c, o, k, np.random.default_rng(0), np.float64)
        ref.b[...] = rng.normal(0.0, 3.0, o)
        bn, ref_bn = BatchNorm(o, np.float64), FourAxisBatchNorm(o, np.float64)
        for layer in (bn, ref_bn):
            layer.gamma[...] = np.linspace(0.5, 2.0, o)
            layer.beta[...] = np.linspace(-1.0, 1.0, o)
        # the engine's batchnorm centres its input and writes over dy
        pre, cols = conv.forward(x, _Slices(3))
        y, saved = bn.forward(pre, _Slices(3))
        assert_close(y, ref_bn.forward(ref.forward(x), train=True))
        dx = conv.backward(bn.backward(dy.copy(), saved, _Slices(3)), cols, _Slices(3))
        ref_dx = ref.backward(ref_bn.backward(dy))
        if k == 1:
            assert_close(dx, ref_dx)
        else:  # a 3x3 conv is only ever layer 0
            assert dx is None
        assert_close(conv.dw, ref.dw)
        assert_close(bn.dgamma, ref_bn.dgamma)
        assert_close(bn.dbeta, ref_bn.dbeta)
        assert_close(bn.running_var, ref_bn.running_var)
        # Only the running mean sees the bias, through its momentum update.
        assert_close(ref_bn.running_mean - bn.running_mean, BatchNorm.momentum * ref.b)

    def test_batchnormed_blocks_hold_no_bias(self):
        net = Network(SLICED_SPEC)
        names = [name for name, _ in net.tensors()]
        for block in net.blocks:
            assert (f"{block.name}.b" in names) == (block.bn is None), block.name
            assert [name for name, _, grad in block.state if grad is not None] == (
                ["w", "gamma", "beta"] if block.bn is not None else ["w", "b"])


class TestEvalFold:
    """An eval forward runs each batchnormed block as one conv whose weights
    fold in the running statistics, without storing them."""

    @pytest.mark.parametrize("spec", [build_ldr2hdr_net("R", seed=3),
                                      build_tonemap_net("L_base", seed=4)],
                             ids=["ldr2hdr", "tonemap"])
    def test_matches_unfolded_batchnorm(self, spec):
        net = _with_stats(Network(spec, dtype=np.float64), 5)
        ref = WholeBatchNetwork(spec, dtype=np.float64)
        ref.load_tensors([arr for _, arr in net.tensors()])
        x = np.random.default_rng(6).random((3, spec.layers[0].in_depth, 20, 16))
        folded = net.forward(x, train=False)
        # The oracle's train mode with running statistics and no dropout is
        # the same function, through its unfolded batchnorm.
        unfolded = ref.forward(x, train=True, bn_train=False, apply_dropout=False)
        assert_close(folded, unfolded, rtol=1e-12)

    def test_skips_batchnorm(self, monkeypatch):
        net = _with_stats(Network(SLICED_SPEC), 1)
        x = np.random.default_rng(2).normal(size=(2, 3, 6, 5)).astype(np.float32)
        net.forward(x, train=True, rng=np.random.default_rng(3))  # leaves saved records

        def refuse(*args, **kwargs):
            raise AssertionError("BatchNorm.forward ran in an eval forward")

        monkeypatch.setattr(BatchNorm, "forward", refuse)
        net.forward(x, train=False)
        assert all(b._saved is None for b in net.blocks)

    def test_leaves_every_tensor_unchanged(self):
        net = _with_stats(Network(build_tonemap_net("L_base", seed=4)), 7)
        arrays = [arr for _, arr in net.tensors()]
        before, checkpoint = _tensor_bytes(net), save_checkpoint(net)
        net.forward(np.random.default_rng(8).random((2, 1, 16, 16)).astype(np.float32))
        assert all(a is b for a, b in zip(arrays, (arr for _, arr in net.tensors())))
        assert _tensor_bytes(net) == before
        assert save_checkpoint(net) == checkpoint

    def test_concurrent_forwards_on_one_net_match_one_thread(self):
        net = _with_stats(Network(build_ldr2hdr_net("R", seed=3)), 5)
        xs = [np.random.default_rng(s).random((2, 5, 16, 16)).astype(np.float32) for s in (1, 2)]
        want = [net.forward(x).tobytes() for x in xs]
        start = threading.Barrier(2)

        def forward(x):
            start.wait(timeout=60)  # so that the two forwards of a round overlap
            return net.forward(x).tobytes()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two forwards as often as possible
        try:
            with ThreadPoolExecutor(2) as pool:
                for _ in range(50):
                    assert list(pool.map(forward, xs, timeout=120)) == want
        finally:
            sys.setswitchinterval(switch)


# A paper-shaped chain (3x3 layer 0, 1x1 after it), and an all-1x1 chain,
# whose eval pass reads each sample as it is, without an im2col gather.
EVAL_SPECS = {
    "paper": NetworkSpec(layers=(
        LayerSpec("conv3x3", 3, 8, batchnorm=True, dropout_p=0.4),
        LayerSpec("conv1x1", 8, 6, batchnorm=True, dropout_p=0.4),
        LayerSpec("conv1x1", 6, 4),
        LayerSpec("output1x1", 4, 1),
    ), seed=12),
    "1x1_first": NetworkSpec(layers=(
        LayerSpec("conv1x1", 3, 6, batchnorm=True),
        LayerSpec("conv1x1", 6, 5, dropout_p=0.3),
        LayerSpec("conv1x1", 5, 7, batchnorm=True),
        LayerSpec("conv1x1", 7, 4, batchnorm=True),
        LayerSpec("output1x1", 4, 1),
    ), seed=13),
}


def _eval_pair(spec, dtype, seed):
    """A network with random running statistics, and the whole-batch engine
    loaded with its tensors."""
    net = _with_stats(Network(spec, dtype=dtype), seed)
    ref = WholeBatchNetwork(spec, dtype=dtype)
    ref.load_tensors([arr for _, arr in net.tensors()])
    return net, ref


class TestEvalPass:
    """The depth-first eval forward, chunk by chunk through every block,
    against the whole-batch engine's eval forward."""

    # H*W below, equal to, above and three times nn._EVAL_PIXELS (2048).
    @pytest.mark.parametrize("hw", [(20, 16), (32, 64), (48, 48), (64, 96)],
                             ids=["below", "equal", "above", "three"])
    @pytest.mark.parametrize("spec", list(EVAL_SPECS.values()), ids=list(EVAL_SPECS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("cpus", [1, 2, 5], indirect=True)
    def test_matches_whole_batch_engine(self, cpus, n, dtype, spec, hw):
        net, ref = _eval_pair(spec, dtype, n)
        x = np.random.default_rng(n).normal(size=(n, 3) + hw).astype(dtype)
        assert net.forward(x).tobytes() == ref.forward(x).tobytes()

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-13)], ids=["f32", "f64"])
    @pytest.mark.parametrize("spec", list(EVAL_SPECS.values()), ids=list(EVAL_SPECS))
    def test_ragged_chunk_of_odd_width_within_rounding(self, spec, dtype, rtol, monkeypatch):
        """A last chunk whose width is not a multiple of 16 columns (here
        2500 - 2048 = 452) can take other OpenBLAS kernels than the whole
        sample's GEMM, which round otherwise: a 50x50 f32 sample of the
        ldr2hdr net read up to 1.8e-7 apart.  The oracle runs whole-sample
        GEMMs here, with its eval chunk wider than the sample."""
        monkeypatch.setattr(nn_reference, "_EVAL_PIXELS", 1 << 30)
        net, ref = _eval_pair(spec, dtype, 4)
        x = np.random.default_rng(4).normal(size=(2, 3, 50, 50)).astype(dtype)
        assert_close(net.forward(x), ref.forward(x), rtol=rtol)

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_wrong_input_channels_refused(self, train):
        net = Network(EVAL_SPECS["paper"])
        with pytest.raises(ValidationError, match="conv expects 3 input channels, got 2"):
            net.forward(np.zeros((1, 2, 4, 4), np.float32), train=train, rng=np.random.default_rng(0))

    def test_memory_does_not_grow_with_the_tiles(self, monkeypatch):
        """The traced peak of an eval forward, less its output, over 64 tiles
        of 64x64 stays within what 4 tiles take, and over one 1024x1024
        plane within what one 256x256 plane takes: each slice thread holds
        its chunk pair and one chunk's im2col, whatever N, H and W.  A
        whole-batch forward of 64 tiles peaks at about 200 MiB, and a
        whole-sample im2col of the 1024x1024 plane takes 36 MiB."""
        monkeypatch.setattr(nn, "_cpu_count", lambda: 2)
        net = _with_stats(Network(build_tonemap_net("L_base", seed=1)), 2)

        def scratch(shape):
            x = np.random.default_rng(shape[0]).random(shape).astype(np.float32)
            tracemalloc.start()
            try:
                y = net.forward(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - y.nbytes

        assert scratch((64, 1, 64, 64)) <= 1.1 * scratch((4, 1, 64, 64))
        assert scratch((1, 1, 1024, 1024)) <= 1.1 * scratch((1, 1, 256, 256))


class TestBlasCap:
    """Every engine call runs BLAS on one thread, read inside its convs and
    inside the eval pass at each chunk, and puts the caller's count
    (``blas_threads``) back after, also when calls run concurrently or
    raise.  The trainer tests in test_pipeline.py cover calls nested in the
    trainer's cap."""

    ROUNDS = 1000

    @staticmethod
    def _record(monkeypatch, seen, failing=None):
        """Make both conv directions and the eval pass's chunks append
        (direction, BLAS count) to ``seen``; the backward of conv
        ``failing`` then raises MemoryError."""
        get, _ = _blas_thread_control()
        real = {"forward": Conv.forward, "backward": Conv.backward, "eval": nn._eval_chunk}

        def recorded(direction):
            def call(conv, *args, **kwargs):
                seen.append((direction, get()))
                if direction == "backward" and conv is failing:
                    raise MemoryError("conv backward")
                return real[direction](conv, *args, **kwargs)
            return call

        monkeypatch.setattr(Conv, "forward", recorded("forward"))
        monkeypatch.setattr(Conv, "backward", recorded("backward"))
        monkeypatch.setattr(nn, "_eval_chunk", recorded("eval"))

    @pytest.mark.parametrize("call, directions", [
        ("forward", {"eval"}), ("backward", {"backward"}),
        ("activation_stats", {"forward"}), ("grad_check", {"forward", "backward"})])
    def test_direct_call_runs_on_one_thread(self, monkeypatch, blas_threads, call, directions):
        get, _ = _blas_thread_control()
        net = Network(two_layer_net(batchnorm=True), dtype=np.float64)
        data = np.random.default_rng(11)
        x, t = data.normal(size=(2, 3, 5, 5)), data.normal(size=(2, 1, 5, 5))
        net.forward(x, train=True)  # the caches backward needs
        seen = []
        self._record(monkeypatch, seen)
        {"forward": lambda: net.forward(x),
         "backward": lambda: net.backward(t),
         "activation_stats": lambda: net.activation_stats(x),
         "grad_check": lambda: grad_check(net, x, t, max_samples=2)}[call]()
        assert {direction for direction, _ in seen} == directions
        assert {count for _, count in seen} == {1}
        assert get() == blas_threads

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_concurrent_calls_share_one_cap(self, monkeypatch, blas_threads, raises):
        """Two threads run forward and backward on their own nets at once,
        the second one's backward raising in every round when ``raises``."""
        get, _ = _blas_thread_control()
        nets = [Network(two_layer_net(batchnorm=True, seed=s), dtype=np.float64) for s in (1, 2)]
        data = np.random.default_rng(12)
        x, dy = data.normal(size=(2, 3, 5, 5)), data.normal(size=(2, 1, 5, 5))
        seen = []
        self._record(monkeypatch, seen, nets[1].blocks[-1].conv if raises else None)

        start = threading.Barrier(2)

        def rounds(net):
            start.wait(timeout=60)  # so that the threads overlap from the first round
            raised = 0
            for _ in range(self.ROUNDS):
                net.forward(x, train=True)
                try:
                    net.backward(dy)
                except MemoryError:
                    raised += 1
            return raised

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads as often as possible
        try:
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(rounds, net) for net in nets]
                raised = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert raised == [0, self.ROUNDS * raises]
        assert len(seen) == self.ROUNDS * (8 - raises)  # 2 convs, 2 directions, 2 nets
        assert {count for _, count in seen} == {1}
        assert get() == blas_threads


class TestMseLoss:
    def test_equal_inputs(self, rng):
        x = rng.normal(size=(2, 1, 3, 3))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0 and np.all(grad == 0)

    def test_unit_offset(self):
        pred = np.ones((2, 1, 4, 4))
        loss, _ = mse_loss(pred, np.zeros_like(pred))
        assert loss == 1.0

    def test_gradient_fd(self, rng):
        pred = rng.normal(size=(2, 1, 3, 3))
        target = rng.normal(size=(2, 1, 3, 3))
        _, grad = mse_loss(pred, target)
        h = 1e-6
        flat = pred.reshape(-1)
        for i in (0, 5, 17):
            old = flat[i]
            flat[i] = old + h
            f1, _ = mse_loss(pred, target)
            flat[i] = old - h
            f2, _ = mse_loss(pred, target)
            flat[i] = old
            assert grad.reshape(-1)[i] == pytest.approx((f1 - f2) / (2 * h), rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            mse_loss(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))


class TestSgd:
    def test_plain_step(self):
        p = [np.array([1.0, 2.0])]
        g = [np.array([0.5, -0.5])]
        sgd_step(p, g, lr=0.1, momentum=0.0)
        assert np.allclose(p[0], [0.95, 2.05])

    def test_zero_gradient_fixed_point(self):
        p = [np.array([3.0])]
        v = None
        for _ in range(5):
            v = sgd_step(p, [np.zeros(1)], lr=0.1, momentum=0.9, velocity=v)
        assert p[0][0] == 3.0

    def test_quadratic_bowl_decay(self):
        # loss 0.5 p^2, grad p: with lr 0.1 each step multiplies p by 0.9
        p = [np.array([1.0])]
        for _ in range(10):
            sgd_step(p, [p[0].copy()], lr=0.1, momentum=0.0)
        assert p[0][0] == pytest.approx(0.9**10, rel=1e-12)

    def test_momentum_bounds(self):
        with pytest.raises(ParameterError):
            sgd_step([np.zeros(1)], [np.zeros(1)], lr=0.1, momentum=1.0)

    @pytest.mark.parametrize("lr", [-0.1, np.nan, np.inf])
    def test_lr_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ParameterError):
            sgd_step([np.zeros(1)], [np.zeros(1)], lr=lr, momentum=0.0)


class TestGradCheckHarness:
    def test_single_1x1_layer_passes(self):
        net = Network(single_layer_net(), dtype=np.float64)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 4, 4))
        t = rng.normal(size=(2, 1, 4, 4))
        report = grad_check(net, x, t, tolerance=1e-4)
        assert report.passed

    def test_corrupted_gradient_names_layer(self, monkeypatch):
        net = Network(two_layer_net(batchnorm=True), dtype=np.float64)
        orig = Conv.backward

        def corrupted(conv, dy, *slices):  # on the class: grad_check runs a copy
            dx = orig(conv, dy, *slices)
            if not conv.input_grad:  # the first layer's conv
                conv.dw *= 1.1
            return dx

        monkeypatch.setattr(Conv, "backward", corrupted)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 5, 5))
        t = rng.normal(size=(2, 1, 5, 5))
        report = grad_check(net, x, t)
        assert not report.passed
        failing = [r.layer for r in report.layers if r.max_rel_err >= report.tolerance]
        assert failing == [net.blocks[0].name]

    def test_sampled_and_full_tensors(self):
        """``w`` and ``gamma`` are checked at their ``max_samples``
        largest-gradient entries when they have more, and in full when they
        have fewer; ``b`` and ``beta`` in full, whatever their size."""
        spec = NetworkSpec(layers=(
            LayerSpec("conv3x3", 2, 6, batchnorm=True),  # w 108, gamma 6, beta 6
            LayerSpec("conv1x1", 6, 5),  # w 30, b 5
            LayerSpec("conv1x1", 5, 3, batchnorm=True),  # w 15, gamma 3, beta 3
            LayerSpec("output1x1", 3, 1),  # w 3, b 1
        ), seed=4)
        net = Network(spec, dtype=np.float64)
        data = np.random.default_rng(10)
        x, t = data.normal(size=(2, 2, 5, 5)), data.normal(size=(2, 1, 5, 5))
        report = grad_check(net, x, t, max_samples=4)
        assert report.passed
        assert [r.checked for r in report.layers] == [4 + 4 + 6, 4 + 5, 4 + 3 + 3, 3 + 1]

    def test_same_report_on_one_and_two_slices(self, monkeypatch):
        """Every frozen-gate pass runs on one set of slices, cut as
        :meth:`Network.forward` cuts them, and gives the same bytes as on one
        slice."""
        data = np.random.default_rng(9)
        x, t = data.normal(size=(2, 3, 64, 64)), data.normal(size=(2, 1, 64, 64))
        real = _Slices.__init__
        reports = {}
        for cpus in (1, 2):
            sizes = []

            def record(self, n, threads=1):
                real(self, n, threads)
                sizes.append(len(self.parts))

            monkeypatch.setattr(nn, "_cpu_count", lambda: cpus)
            monkeypatch.setattr(_Slices, "__init__", record)
            net = Network(single_layer_net(seed=3), dtype=np.float64)
            reports[cpus] = grad_check(net, x, t).lines()
            # the reference forward, its backward, and one set for 8 frozen passes
            assert sizes == [cpus] * 3
        assert reports[1] == reports[2]

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1.0, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        """NaN or a tolerance <= 0 would fail every layer, and inf pass any gradient."""
        net = Network(single_layer_net(), dtype=np.float64)
        with pytest.raises(ParameterError, match="tolerance must be finite and > 0"):
            grad_check(net, np.zeros((1, 3, 4, 4)), np.zeros((1, 1, 4, 4)), tolerance=tolerance)

    def test_requires_float64(self):
        net = Network(single_layer_net(), dtype=np.float32)
        with pytest.raises(ParameterError):
            grad_check(net, np.zeros((1, 3, 4, 4)), np.zeros((1, 1, 4, 4)))

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_leaves_the_network_unchanged(self, monkeypatch, raises):
        """The check runs on a dropout-free copy, so the checked net's
        batchnorm running statistics, and with them its checkpoint and eval
        output, stay as they were, whether the check returns or raises."""
        net = Network(build_ldr2hdr_net("R", seed=7, dropout_p=0.4), dtype=np.float64)
        data = np.random.default_rng(8)
        x, t = data.random((2, 5, 8, 8)), data.normal(size=(2, 1, 8, 8))
        checkpoint, before = save_checkpoint(net), net.forward(x).tobytes()
        if raises:
            def fail(*args, **kwargs):
                raise MemoryError("conv backward")

            monkeypatch.setattr(Conv, "backward", fail)  # after the first train forward
            with pytest.raises(MemoryError):
                grad_check(net, x, t, max_samples=5)
        else:
            assert grad_check(net, x, t, max_samples=5).passed
        assert save_checkpoint(net) == checkpoint
        assert net.forward(x).tobytes() == before


class TestNetwork:
    def test_first_layer_skips_input_gradient(self, rng):
        """Parameter gradients are bitwise those of a net that also computes
        dx.  Layer 0 is 1x1 here: a 3x3 conv never computes one."""
        spec = NetworkSpec(layers=(LayerSpec("conv1x1", 1, 8, batchnorm=True, dropout_p=0.4),
                                   LayerSpec("conv1x1", 8, 4), LayerSpec("output1x1", 4, 1)), seed=3)
        net = Network(spec, dtype=np.float32)
        full = net.clone()
        full.blocks[0].conv.input_grad = True
        x = rng.random((2, 1, 12, 12)).astype(np.float32)
        dy = rng.normal(size=(2, 1, 12, 12)).astype(np.float32)
        for n in (net, full):
            n.forward(x, train=True, rng=np.random.default_rng(4))
        assert net.backward(dy) is None
        full.backward(dy)
        assert [g.tobytes() for g in net.grads()] == [g.tobytes() for g in full.grads()]
        assert [b.conv.input_grad for b in net.blocks] == [False, True, True]
        paper = Network(build_tonemap_net("L_base", seed=3))
        assert [b.conv.input_grad for b in paper.blocks] == [False] + [True] * (len(paper.blocks) - 1)

    def test_eval_forward_deterministic(self, rng):
        net = Network(build_ldr2hdr_net("R", seed=1), dtype=np.float32)
        x = rng.random((2, 5, 16, 16)).astype(np.float32)
        y1 = net.forward(x, train=False)
        y2 = net.forward(x, train=False)
        assert np.array_equal(y1, y2)

    def test_forward_shape_preserved(self):
        net = Network(build_ldr2hdr_net("G", seed=2))
        y = net.forward(np.zeros((3, 5, 64, 64), np.float32))
        assert y.shape == (3, 1, 64, 64)

    def test_train_dropout_requires_rng(self):
        net = Network(build_ldr2hdr_net("B", seed=0, dropout_p=0.4))
        with pytest.raises(ParameterError):
            net.forward(np.zeros((1, 5, 8, 8), np.float32), train=True)

    @pytest.mark.parametrize("shape", [(0, 5, 8, 8), (1, 5, 0, 8), (1, 5, 8, 0)])
    @pytest.mark.parametrize("train", [True, False])
    def test_empty_input_refused_before_any_block(self, shape, train):
        net = Network(build_ldr2hdr_net("R", seed=0, dropout_p=0.4))
        before = _tensor_bytes(net)
        with pytest.raises(ValidationError, match="empty"):
            net.forward(np.zeros(shape, np.float32), train=train, rng=np.random.default_rng(0))
        assert _tensor_bytes(net) == before  # train mode would have moved the BN running stats

    def test_clone_is_independent(self, rng):
        net = Network(two_layer_net(batchnorm=True), dtype=np.float64)
        other = net.clone()
        for (_, a), (_, b) in zip(net.tensors(), other.tensors()):
            assert np.array_equal(a, b)
        net.blocks[0].conv.w += 1.0
        assert not np.array_equal(net.blocks[0].conv.w, other.blocks[0].conv.w)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_caller_arrays_unchanged(self, rng, monkeypatch, cpus):
        """Layers centre and overwrite their own buffers in place, never the
        caller's input or loss gradient."""
        monkeypatch.setattr(nn, "_cpu_count", lambda: cpus)
        net = Network(build_ldr2hdr_net("R", seed=5), dtype=np.float32)
        x = rng.random((2, 5, 64, 64)).astype(np.float32)
        dy = rng.normal(size=(2, 1, 64, 64)).astype(np.float32)
        x_bytes, dy_bytes = x.tobytes(), dy.tobytes()
        net.forward(x, train=True, rng=np.random.default_rng(1))
        net.backward(dy)
        net.forward(x, train=False)
        assert x.tobytes() == x_bytes and dy.tobytes() == dy_bytes

    def test_finite_activations_reported(self, rng):
        net = Network(two_layer_net(batchnorm=True), dtype=np.float64)
        stats = net.activation_stats(rng.normal(size=(2, 3, 6, 6)))
        assert len(stats) == 2 and all(s["finite"] for s in stats)

    def test_activation_stats_leave_the_network_unchanged(self, rng):
        """The diagnosis's train-mode batchnorm moves the running statistics;
        they are put back, so checkpoints and eval outputs stay the same."""
        net = Network(build_ldr2hdr_net("R", seed=6))
        x = rng.random((2, 5, 16, 16)).astype(np.float32)
        checkpoint, before = save_checkpoint(net), net.forward(x).tobytes()
        # The statistics of a train-mode forward without dropout, as before.
        want = Network(_without_dropout(net.spec))
        want.load_tensors([arr for _, arr in net.tensors()])
        want = want.forward(x, train=True)
        stats = net.activation_stats(x)
        assert save_checkpoint(net) == checkpoint
        assert net.forward(x).tobytes() == before
        assert [s["layer"] for s in stats] == [b.name for b in net.blocks]
        assert stats[-1] == {"layer": net.blocks[-1].name, "min": float(want.min()),
                             "max": float(want.max()), "mean": float(want.mean()), "finite": True}

    def test_activation_stats_restore_running_statistics_on_error(self, rng, monkeypatch):
        net = Network(build_tonemap_net("a", seed=6))
        checkpoint = save_checkpoint(net)

        real = _Block.forward

        def fail(block, *args, **kwargs):  # on the class: the stats run on a copy
            if block.is_output:  # after every batchnorm ran
                raise FloatingPointError("output block")
            return real(block, *args, **kwargs)

        monkeypatch.setattr(_Block, "forward", fail)
        with pytest.raises(FloatingPointError):
            net.activation_stats(rng.random((2, 1, 8, 8)))
        assert save_checkpoint(net) == checkpoint


class TestCheckpoint:
    def test_round_trip_exact(self, rng):
        net = Network(build_tonemap_net("a", seed=9, dropout_p=0.25))
        x = rng.random((1, 1, 16, 16)).astype(np.float32)
        net.forward(x, train=True, rng=np.random.default_rng(0))  # move BN stats
        blob = save_checkpoint(net, {"channel": "a", "target_domain": "linear"})
        back, meta = load_checkpoint(blob)
        assert meta == {"channel": "a", "target_domain": "linear"}
        assert back.spec == net.spec
        for (n1, a), (n2, b) in zip(net.tensors(), back.tensors()):
            assert n1 == n2
            assert np.array_equal(a, b)

    def test_inference_matches_after_reload(self, rng):
        net = Network(build_tonemap_net("b", seed=4, dropout_p=0.0))
        blob = save_checkpoint(net, None)
        back, _ = load_checkpoint(blob)
        x = rng.random((2, 1, 12, 12)).astype(np.float32)
        assert np.array_equal(net.forward(x), back.forward(x))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            load_checkpoint(b"NOPE!!" + bytes(64))

    def test_earlier_format_refused(self):
        """HDRNN1 checkpoints held a bias for every conv; they are refused,
        not read."""
        blob = save_checkpoint(Network(two_layer_net(batchnorm=True)), None)
        assert blob.startswith(b"HDRNN2")
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(b"HDRNN1" + blob[6:])

    def test_truncated(self):
        net = Network(single_layer_net())
        blob = save_checkpoint(net, None)
        with pytest.raises(TruncationError):
            load_checkpoint(blob[: len(blob) // 2])

    @staticmethod
    def with_metadata(meta: bytes) -> bytes:
        blob = save_checkpoint(Network(single_layer_net()), None)
        empty = struct.pack("<I", 2) + b"{}"
        return blob.replace(empty, struct.pack("<I", len(meta)) + meta)

    def test_later_3x3_layer_refused(self):
        """A checkpoint whose layer 1 is edited to conv3x3 holds an invalid spec."""
        spec = NetworkSpec(layers=(LayerSpec("conv3x3", 3, 4), LayerSpec("conv1x1", 4, 4),
                                   LayerSpec("output1x1", 4, 1)))
        blob = bytearray(save_checkpoint(Network(spec), None))
        kind1 = 6 + 8 + 4 + struct.calcsize("<BIIBf")  # after magic, seed, count, layer 0
        assert blob[kind1] == LAYER_KINDS.index("conv1x1")
        blob[kind1] = LAYER_KINDS.index("conv3x3")
        with pytest.raises(ValidationError, match="only layer 0 may be conv3x3, layer 1 is"):
            load_checkpoint(bytes(blob))

    def test_unknown_layer_kind(self):
        blob = bytearray(save_checkpoint(Network(single_layer_net()), None))
        blob[6 + 8 + 4] = 9  # kind byte of the first layer, after magic, seed, count
        with pytest.raises(FormatError, match="kind"):
            load_checkpoint(bytes(blob))

    @pytest.mark.parametrize("meta", [b"\xff", b"[]", b"{", b"[" * 100_000])
    def test_metadata_must_be_json_object(self, meta):
        with pytest.raises(FormatError, match="metadata"):
            load_checkpoint(self.with_metadata(meta))

    def test_trailing_bytes(self):
        blob = save_checkpoint(Network(single_layer_net()), None)
        with pytest.raises(CorruptionError):
            load_checkpoint(blob + b"\0\0")

    def test_oversized_spec_rejected_before_allocating(self):
        # in_depth 2^30 would ask for a 4 GiB weight tensor; the file holds 16 bytes
        blob = bytearray(save_checkpoint(Network(single_layer_net()), None))
        blob[6 + 8 + 4 + 1 : 6 + 8 + 4 + 5] = struct.pack("<I", 1 << 30)
        with pytest.raises(TruncationError):
            load_checkpoint(bytes(blob))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        net = Network(two_layer_net(batchnorm=True))
        net.blocks[0].bn.running_var[2] = bad
        with pytest.raises(ValidationError, match=r"tensor 4 \(4,\) holds NaN or Inf"):
            load_checkpoint(save_checkpoint(net, None))

    def test_float64_weight_beyond_float32_refused(self):
        """Checkpoints store float32: a finite float64 weight that overflows
        it would be written as Inf, which loading refuses."""
        net = Network(two_layer_net(), dtype=np.float64)
        net.blocks[1].conv.w[0, 1] = 1e39
        with pytest.raises(ValidationError, match=r"tensor 2 \(1, 4, 1, 1\) holds NaN or Inf"):
            save_checkpoint(net, None)

    def test_non_finite_bytes_rejected_on_load(self):
        blob = save_checkpoint(Network(single_layer_net()), None)
        with pytest.raises(ValidationError, match="holds NaN or Inf"):
            load_checkpoint(blob[:-4] + np.float32(np.nan).tobytes())

    def test_shape_must_match_spec(self):
        blob = bytearray(save_checkpoint(Network(single_layer_net()), None))
        # the last tensor is the (1,) bias: ndim byte, one extent, 4 data bytes
        assert struct.unpack_from("<BI", blob, len(blob) - 9) == (1, 1)
        blob[-8:-4] = struct.pack("<I", 0)
        with pytest.raises(ValidationError, match=r"shape \(0,\) != \(1,\)"):
            load_checkpoint(bytes(blob))

    def test_seed_must_fit_int64(self):
        with pytest.raises(ValidationError, match="seed"):
            NetworkSpec(layers=single_layer_net().layers, seed=2**63)

    def test_negative_seed_rejected(self):
        blob = bytearray(save_checkpoint(Network(single_layer_net()), None))
        blob[6:14] = struct.pack("<q", -1)
        with pytest.raises(ValidationError, match="seed"):
            load_checkpoint(bytes(blob))
