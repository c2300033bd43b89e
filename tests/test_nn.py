import struct

import numpy as np
import pytest
from nn_reference import EinsumConv, FourAxisBatchNorm

from hdrkit.errors import (
    CorruptionError,
    FormatError,
    ParameterError,
    TruncationError,
    ValidationError,
)
from hdrkit.nn import (
    BatchNorm,
    Conv,
    LayerSpec,
    Network,
    NetworkSpec,
    dropout,
    grad_check,
    load_checkpoint,
    mse_loss,
    relu,
    relu_backward,
    _Block,
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

    def test_parameter_counts_ldr2hdr(self):
        # layer-by-layer arithmetic: out*in*k*k + out, plus 2 BN params/channel
        spec = build_ldr2hdr_net("R", seed=0)
        per_layer = [5 * 60 * 9 + 60, 60 * 40 + 40, 40 * 20 + 20, 20 * 20 + 20, 20 * 20 + 20, 20 + 1]
        assert per_layer == [2760, 2440, 820, 420, 420, 21]
        bn = 2 * (60 + 40 + 20 + 20 + 20)
        assert spec.parameter_count() == sum(per_layer) + bn

    def test_parameter_counts_tonemap(self):
        spec = build_tonemap_net("L_base", seed=0)
        per_layer = [1 * 100 * 9 + 100, 100 * 80 + 80, 80 * 50 + 50, 50 * 10 + 10, 10 + 1]
        bn = 2 * (100 + 80 + 50 + 10)
        assert spec.parameter_count() == sum(per_layer) + bn

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
        assert np.array_equal(conv.forward(x), x)

    def test_3x3_box_kernel_counts(self):
        rng = np.random.default_rng(0)
        conv = Conv(1, 1, 3, rng, np.float64)
        conv.w[...] = 1.0
        conv.b[...] = 0.0
        c = 2.5
        y = conv.forward(np.full((1, 1, 4, 4), c))
        assert y[0, 0, 1, 1] == pytest.approx(9 * c)  # interior
        assert y[0, 0, 0, 0] == pytest.approx(4 * c)  # corner (zero padding)
        assert y[0, 0, 0, 1] == pytest.approx(6 * c)  # edge

    def test_channel_mismatch_raises(self):
        conv = Conv(3, 4, 1, np.random.default_rng(0), np.float32)
        with pytest.raises(ValidationError):
            conv.forward(np.zeros((1, 2, 4, 4), np.float32))

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
        y = bn.forward(np.full((2, 2, 4, 4), 7.0), train=True)
        assert np.all(np.abs(y) < 1e-3)

    def test_train_mode_normalizes(self, rng):
        bn = BatchNorm(3, np.float64)
        x = rng.normal(2.0, 3.0, size=(4, 3, 16, 16))
        y = bn.forward(x, train=True)
        assert np.all(np.abs(y.mean(axis=(0, 2, 3))) < 1e-5)
        assert np.all(np.abs(y.var(axis=(0, 2, 3)) - 1.0) < 1e-2)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm(2, np.float64)
        x = rng.normal(size=(2, 2, 4, 4))
        y = bn.forward(x, train=False)  # before any training step: mu=0, var=1
        assert np.allclose(y, x / np.sqrt(1 + bn.eps))

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

    def test_statistics(self):
        rng = np.random.default_rng(123)
        x = np.ones(1_000_000)
        y, scale = dropout(x, 0.4, train=True, rng=rng)
        assert np.array_equal(y, x * scale)
        assert abs(y.mean() - 1.0) < 0.01  # within 1% of 1.0
        assert abs((y == 0).mean() - 0.4) < 0.004  # within 1% of 0.4

    def test_needs_rng_in_train(self):
        with pytest.raises(ParameterError):
            dropout(np.ones(4), 0.5, train=True)


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
        assert_close(conv.forward(x), ref.forward(x))
        assert_close(conv.backward(dy), ref.backward(dy))
        assert_close(conv.dw, ref.dw)
        assert_close(conv.db, ref.db)

    @pytest.mark.parametrize("train", [True, False])
    def test_batchnorm(self, train):
        rng = np.random.default_rng(12)
        x = rng.normal(2.0, 3.0, size=(3, 6, 13, 7))
        dy = rng.normal(size=x.shape)
        bn, ref = BatchNorm(6, np.float64), FourAxisBatchNorm(6, np.float64)
        for layer in (bn, ref):
            layer.gamma[...] = np.linspace(0.5, 2.0, 6)
            layer.beta[...] = np.linspace(-1.0, 1.0, 6)
            layer.running_mean[...] = np.linspace(-0.3, 0.4, 6)
            layer.running_var[...] = np.linspace(0.8, 1.7, 6)
        assert_close(bn.forward(x, train), ref.forward(x, train))
        assert_close(bn.backward(dy), ref.backward(dy))
        for name in ("dgamma", "dbeta", "running_mean", "running_var"):
            assert_close(getattr(bn, name), getattr(ref, name))

    @pytest.mark.parametrize("batchnorm", [True, False])
    def test_block_is_relu_then_dropout(self, batchnorm):
        """One fused multiply per direction, bitwise the separate operations."""
        spec = LayerSpec("conv3x3", 3, 8, batchnorm=batchnorm, dropout_p=0.4)
        block = _Block(spec, 0, np.random.default_rng(1), np.float32)
        ref = _Block(spec, 0, np.random.default_rng(1), np.float32)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 9, 6)).astype(np.float32)
        dy = rng.normal(size=(2, 8, 9, 6)).astype(np.float32)

        y = block.forward(x, True, np.random.default_rng(5), True, True)
        pre = ref.conv.forward(x)
        if batchnorm:
            pre = ref.bn.forward(pre, train=True)
        y_ref, gate = relu(pre)
        y_ref, scale = dropout(y_ref, 0.4, train=True, rng=np.random.default_rng(5))
        assert y.tobytes() == y_ref.tobytes()

        dx = block.backward(dy)
        d = relu_backward(dy * scale, gate)
        if batchnorm:
            d = ref.bn.backward(d)
        assert dx.tobytes() == ref.conv.backward(d).tobytes()
        assert block.conv.dw.tobytes() == ref.conv.dw.tobytes()


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

    def test_corrupted_gradient_names_layer(self):
        net = Network(two_layer_net(batchnorm=True), dtype=np.float64)
        conv = net.blocks[0].conv
        orig = conv.backward

        def corrupted(dy):
            dx = orig(dy)
            conv.dw *= 1.1
            return dx

        conv.backward = corrupted
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 5, 5))
        t = rng.normal(size=(2, 1, 5, 5))
        report = grad_check(net, x, t)
        assert not report.passed
        failing = [r.layer for r in report.layers if r.max_rel_err >= report.tolerance]
        assert failing == [net.blocks[0].name]

    def test_requires_float64(self):
        net = Network(single_layer_net(), dtype=np.float32)
        with pytest.raises(ParameterError):
            grad_check(net, np.zeros((1, 3, 4, 4)), np.zeros((1, 1, 4, 4)))


class TestNetwork:
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

    def test_clone_is_independent(self, rng):
        net = Network(two_layer_net(batchnorm=True), dtype=np.float64)
        other = net.clone()
        for (_, a), (_, b) in zip(net.tensors(), other.tensors()):
            assert np.array_equal(a, b)
        net.blocks[0].conv.w += 1.0
        assert not np.array_equal(net.blocks[0].conv.w, other.blocks[0].conv.w)

    def test_finite_activations_reported(self, rng):
        net = Network(two_layer_net(batchnorm=True), dtype=np.float64)
        stats = net.activation_stats(rng.normal(size=(2, 3, 6, 6)))
        assert len(stats) == 2 and all(s["finite"] for s in stats)


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
        with pytest.raises(ValidationError, match=r"tensor 5 \(4,\) holds NaN or Inf"):
            load_checkpoint(save_checkpoint(net, None))

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
