import ctypes
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from conftest import running_statistics, shards_on_fresh_clones
import numpy as np
import pytest

from hdrkit import nn, pipeline

from hdrkit.camera import fixed_stack, gamma_crf
from hdrkit.errors import ParameterError, ValidationError
from hdrkit.image_io import RadianceMap
from hdrkit.imgproc import luminance, rgb_to_lab
from hdrkit.nn import Conv, Network, _blas_thread_control, mse_loss
from hdrkit.pipeline import (
    LDR2HDR_CHANNELS,
    TONEMAP_CHANNELS,
    ParallelTrainer,
    TrainConfig,
    build_ldr2hdr_net,
    build_ldr2hdr_samples,
    build_tonemap_net,
    build_tonemap_samples,
    curve_csv,
    decompose_tonemap_channels,
    dropout_stream,
    eval_mse,
    extract_patches,
    hyperparam_search,
    infer_ldr2hdr,
    infer_tonemap,
    normalize_hdr,
    reassemble,
    recompose_tonemap,
    split_base_detail,
    train,
)
from hdrkit.synth import synth_scenes
from hdrkit.tmo import reinhard_global, select_best_tmo


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 40 and cfg.patch == 64 and cfg.dropout_p == 0.4

    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(patch=4)
        with pytest.raises(ValidationError):
            TrainConfig(workers=0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("key, value", [
        ("momentum", 1.0), ("momentum", 2.0), ("momentum", -0.1), ("momentum", np.nan),
        ("dropout_p", 1.0), ("dropout_p", 1.5), ("dropout_p", -0.1), ("dropout_p", np.nan),
        ("seed", -1), ("seed", 2**63 - 3), ("seed", 2**63),
    ])
    def test_rejects_values_that_would_fail_later(self, key, value):
        with pytest.raises(ValidationError, match=key):
            TrainConfig(**{key: value})

    def test_largest_seed_fits_every_channel_net(self):
        seed = TrainConfig(seed=2**63 - 4).seed
        for ch in TONEMAP_CHANNELS:
            build_tonemap_net(ch, seed)
        for ch in LDR2HDR_CHANNELS:
            build_ldr2hdr_net(ch, seed)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValidationError):
            TrainConfig.from_dict({"lr": 0.1, "bogus": 2})


class TestNormalize:
    def test_p99_of_output_is_one(self, rng):
        m = RadianceMap.from_array((rng.random((64, 64, 3)) * 9).astype(np.float32))
        norm, scale = normalize_hdr(m)
        p99 = np.percentile(luminance(norm.data), 99.0)
        assert p99 == pytest.approx(1.0, abs=1e-6)

    def test_scale_equivariance(self, rng):
        data = (rng.random((32, 32, 3)) * 2).astype(np.float32)
        n1, s1 = normalize_hdr(RadianceMap.from_array(data))
        n2, s2 = normalize_hdr(RadianceMap.from_array(10.0 * data))
        assert s2 == pytest.approx(10.0 * s1, rel=1e-6)
        assert np.allclose(n1.data, n2.data, atol=1e-6)

    def test_normalized_map_unchanged(self, rng):
        m = RadianceMap.from_array((rng.random((32, 32, 3)) * 2).astype(np.float32))
        norm, _ = normalize_hdr(m)
        again, scale = normalize_hdr(norm)
        assert scale == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(again.data, norm.data, atol=1e-6)

    def test_zero_map_rejected(self):
        with pytest.raises(ValidationError):
            normalize_hdr(RadianceMap.from_array(np.zeros((8, 8, 3), np.float32)))


class TestBuilders:
    def test_ldr2hdr_depth_sequence(self):
        spec = build_ldr2hdr_net("R", seed=0)
        assert [ls.out_depth for ls in spec.layers] == [60, 40, 20, 20, 20, 1]
        assert spec.layers[0].kind == "conv3x3"
        assert all(ls.kind == "conv1x1" for ls in spec.layers[1:-1])
        assert spec.layers[0].in_depth == 5

    def test_ldr2hdr_forward_shape(self):
        net = Network(build_ldr2hdr_net("R", seed=0))
        y = net.forward(np.zeros((1, 5, 64, 64), np.float32))
        assert y.shape == (1, 1, 64, 64)

    def test_tonemap_depth_sequence(self):
        spec = build_tonemap_net("a", seed=0)
        assert [ls.out_depth for ls in spec.layers] == [100, 80, 50, 10, 1]
        assert spec.layers[0].in_depth == 1

    def test_tonemap_forward_shape(self):
        net = Network(build_tonemap_net("b", seed=0))
        y = net.forward(np.zeros((1, 1, 64, 64), np.float32))
        assert y.shape == (1, 1, 64, 64)

    def test_four_tonemap_channels_get_distinct_seeds(self):
        seeds = {build_tonemap_net(ch, seed=7).seed for ch in ("L_base", "L_detail", "a", "b")}
        assert len(seeds) == 4

    def test_unknown_channel(self):
        with pytest.raises(ParameterError):
            build_ldr2hdr_net("X", seed=0)


class TestPatches:
    def test_exact_tiling(self, rng):
        plane = rng.random((128, 128))
        grid, patches = extract_patches(plane, 64)
        assert patches.shape == (4, 64, 64)
        assert np.array_equal(reassemble(grid, patches), plane)

    def test_padded_tiling_round_trip(self, rng):
        plane = rng.random((100, 70))
        grid, patches = extract_patches(plane, 64)
        assert patches.shape == (4, 64, 64)
        assert np.array_equal(reassemble(grid, patches), plane)

    def test_single_patch_identity(self, rng):
        plane = rng.random((64, 64))
        grid, patches = extract_patches(plane, 64)
        assert patches.shape == (1, 64, 64)
        assert np.array_equal(reassemble(grid, patches), plane)

    def test_multichannel_and_tiny_planes(self, rng):
        for shape in ((5, 1, 1), (3, 9, 130), (2, 64, 65)):
            planes = rng.random(shape)
            grid, patches = extract_patches(planes, 64)
            assert np.array_equal(reassemble(grid, patches), planes)

    def test_patch_minimum(self, rng):
        with pytest.raises(ParameterError):
            extract_patches(rng.random((16, 16)), 4)


class TestDecompose:
    def test_base_plus_detail_exact(self, small_scene):
        tm = reinhard_global(small_scene)
        chans = {c.name: c for c in decompose_tonemap_channels(small_scene, tm)}
        lab_in = rgb_to_lab(small_scene.data)
        lab_out = rgb_to_lab(tm.data)
        assert np.array_equal(chans["L_base"].input + chans["L_detail"].input, lab_in.L)
        assert np.array_equal(chans["L_base"].target + chans["L_detail"].target, lab_out.L)

    def test_constant_pair_has_zero_detail(self):
        m = RadianceMap.from_array(np.full((16, 16, 3), 0.4, np.float32))
        from hdrkit.tmo import ToneMap

        tm = ToneMap.from_array(np.full((16, 16, 3), 0.6, np.float32))
        chans = {c.name: c for c in decompose_tonemap_channels(m, tm)}
        assert np.all(chans["L_detail"].input == 0)
        assert np.all(chans["L_detail"].target == 0)

    def test_recompose_identity(self, small_scene):
        tm = reinhard_global(small_scene)
        chans = decompose_tonemap_channels(small_scene, tm)
        preds = {c.name: c.target.astype(np.float64) for c in chans}
        rec = recompose_tonemap(preds)
        assert np.abs(rec.data - tm.data).max() < 2e-3

    def test_samples_are_the_scaled_planes(self, small_scene):
        """Training scales a plane as inference does: ``_scale_plane`` with
        ``CHANNEL_SCALINGS``, /100 for L_base and +128 then /255 for a."""
        crf = gamma_crf(2.2)
        samples, _ = build_tonemap_samples([small_scene], TrainConfig(patch=16), crf=crf)
        norm, _ = normalize_hdr(small_scene)
        tm = select_best_tmo(norm, crf=crf)[0]
        chans = {c.name: c for c in decompose_tonemap_channels(norm, tm)}
        assert pipeline.CHANNEL_SCALINGS["L_base"] == (0.0, 100.0)
        assert pipeline.CHANNEL_SCALINGS["a"] == (128.0, 255.0)
        for name in ("L_base", "a"):
            scaling = pipeline.CHANNEL_SCALINGS[name]
            for got, plane in zip(samples[name], (chans[name].input, chans[name].target)):
                want = extract_patches(pipeline._scale_plane(plane, *scaling)[None], 16)[1]
                assert got.tobytes() == want.astype(np.float32).tobytes()

    def test_split_exactness_on_adversarial_plane(self, rng):
        # tiny values beside huge ones force the snap path
        L = rng.random((24, 24)).astype(np.float32) * 100
        L[::3, ::3] = 1e-7
        base, detail = split_base_detail(L, sigma_s=1.0, sigma_r=50.0)
        assert np.array_equal(base + detail, L)

    def test_split_exactness_beside_a_float32_max_highlight(self, rng):
        # L* of a float32-max radiance, whose range band lies far from the rest
        L = (rng.random((64, 64)) * 100).astype(np.float32)
        L[20, 30] = 8.1e14
        base, detail = split_base_detail(L)
        assert np.array_equal(base + detail, L)
        assert base[20, 30] == L[20, 30]


def tiny_samples(rng, n=6, size=16, channels=2):
    x = rng.normal(size=(n, channels, size, size))
    w = rng.normal(size=(channels,))
    y = (x * w[None, :, None, None]).sum(axis=1, keepdims=True) * 0.3
    return x.astype(np.float64), y.astype(np.float64)


def tiny_spec(channels=2, p=0.0, seed=0, batchnorm=True):
    from hdrkit.nn import LayerSpec, NetworkSpec

    return NetworkSpec(
        layers=(
            LayerSpec("conv3x3", channels, 6, batchnorm=batchnorm, dropout_p=p),
            LayerSpec("conv1x1", 6, 4, batchnorm=batchnorm, dropout_p=p),
            LayerSpec("output1x1", 4, 1),
        ),
        seed=seed,
    )


class TestTrainEpoch:
    """The epochs of one ``train`` run."""

    def test_zero_lr_keeps_params(self, rng):
        x, y = tiny_samples(rng)
        cfg = TrainConfig(lr=0.0, momentum=0.9, batch_size=4, dropout_p=0.0, seed=1, dtype="f64")
        net = Network(tiny_spec(), dtype=np.float64)
        before = [arr.copy() for _, arr in net.tensors() if "running" not in _]
        # every run shuffles with the same stream
        losses = [train(net, (x, y), cfg, epochs=1).curve[0][1] for _ in range(3)]
        after = [arr for _, arr in net.tensors() if "running" not in _]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)
        assert losses[0] == pytest.approx(losses[1], rel=1e-9)

    def test_deterministic_loss_sequence(self, rng):
        x, y = tiny_samples(rng)
        cfg = TrainConfig(lr=1e-2, momentum=0.9, batch_size=4, dropout_p=0.4, seed=5, dtype="f64")
        runs = []
        for _ in range(2):
            net = Network(tiny_spec(p=0.4, seed=2), dtype=np.float64)
            runs.append(train(net, (x, y), cfg, epochs=4).curve)
        assert runs[0] == runs[1]
        assert len(set(row[1] for row in runs[0])) == 4

    def test_curve_one_row_per_epoch(self, rng):
        x, y = tiny_samples(rng)
        cfg = TrainConfig(lr=1e-3, momentum=0.9, batch_size=4, dropout_p=0.0, seed=1, dtype="f64")
        net = Network(tiny_spec(), dtype=np.float64)
        state = train(net, (x, y), cfg, epochs=5)
        assert [row[0] for row in state.curve] == [1, 2, 3, 4, 5]

    def test_divergence_aborts_with_diagnostics(self, rng):
        x, y = tiny_samples(rng)
        x[0, 0, 0, 0] = np.nan
        cfg = TrainConfig(lr=1e-2, momentum=0.9, batch_size=6, dropout_p=0.0, seed=1, dtype="f64")
        net = Network(tiny_spec(), dtype=np.float64)
        with pytest.raises(ValidationError, match="diverged"):
            train(net, (x, y), cfg, epochs=1)

    def test_trained_net_holds_only_its_state_table(self, rng):
        """A backward spends what its train forward saved: after training,
        the arrays reachable from the blocks, convs and batchnorms are the
        state table's arrays and gradients, and no mask or cache."""
        x, y = tiny_samples(rng, n=8)
        cfg = TrainConfig(lr=1e-2, momentum=0.9, batch_size=4, dropout_p=0.4, seed=2, workers=2)
        net = Network(tiny_spec(p=0.4, seed=3))
        train(net, (x, y), cfg, epochs=2)

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)

        held = {id(arr) for block in net.blocks for owner in (block, block.conv, block.bn)
                if owner is not None for value in vars(owner).values() for arr in arrays(value)}
        state = {id(arr) for block in net.blocks for _, param, grad in block.state
                 for arr in (param, grad) if arr is not None}
        assert held == state

    def test_loss_decreases_on_learnable_problem(self, rng):
        x, y = tiny_samples(rng, n=12)
        cfg = TrainConfig(lr=1e-2, momentum=0.9, batch_size=6, dropout_p=0.0, seed=3, dtype="f64")
        net = Network(tiny_spec(seed=4), dtype=np.float64)
        losses = [row[1] for row in train(net, (x, y), cfg, epochs=20).curve]
        assert losses[-1] < 0.5 * losses[0]


class TestParallel:
    def test_k1_matches_serial_step_bitwise(self, rng):
        x, y = tiny_samples(rng, n=5)
        cfg = TrainConfig(lr=1e-2, momentum=0.9, batch_size=5, dropout_p=0.4, seed=9, dtype="f64")
        n1 = Network(tiny_spec(p=0.4, seed=2), dtype=np.float64)
        n2 = n1.clone()
        l1 = [row[1] for row in train(n1, (x, y), cfg, epochs=2).curve]
        # one trainer (momentum, step count) and one shuffle stream for the run
        shuffle = np.random.default_rng(cfg.seed)
        trainer = ParallelTrainer(n2, cfg)
        l2 = []
        for _ in range(2):
            order = shuffle.permutation(5)
            l2.append(trainer.step(x[order], y[order]))
        assert l1 == l2
        for (_, a), (_, b) in zip(n1.tensors(), n2.tensors()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_gradients_match_serial(self, rng, workers):
        x, y = tiny_samples(rng, n=10)
        cfg = TrainConfig(lr=1e-2, momentum=0.9, batch_size=10, dropout_p=0.0, seed=9,
                          workers=workers, dtype="f64")
        # Without batchnorm: each shard would normalize on its own statistics.
        serial = Network(tiny_spec(seed=3, batchnorm=False), dtype=np.float64)
        pred = serial.forward(x, train=True)
        loss, dp = mse_loss(pred, y)
        serial.backward(dp)
        expected = [g.copy() for g in serial.grads()]

        trainer = ParallelTrainer(Network(tiny_spec(seed=3, batchnorm=False), dtype=np.float64), cfg)
        got_loss, got = trainer.accumulate_gradients(x, y)
        for a, b in zip(got, expected):
            rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-30)
            assert rel.max() < 1e-12
        assert got_loss == pytest.approx(loss, rel=1e-14)

    def test_surplus_workers_idle(self, rng):
        x, y = tiny_samples(rng, n=2)
        cfg = TrainConfig(lr=1e-2, momentum=0.0, batch_size=2, dropout_p=0.0, seed=0, workers=5,
                          dtype="f64")
        trainer = ParallelTrainer(Network(tiny_spec(), dtype=np.float64), cfg)
        loss = trainer.step(x, y)  # shards of size >= 1 only
        assert np.isfinite(loss)

    @pytest.mark.parametrize("workers, n", [(2, 8), (3, 8), (5, 3)])
    def test_threaded_shards_match_sequential_reference(self, rng, workers, n):
        """The shards, run in turn on one network, each on threaded slices,
        give bitwise the loss and gradients of running each shard on its own
        fresh clone with its own stream, so no state passes from one shard to
        the next; and the running statistics take one momentum step per
        shard, in worker order."""
        x, y = tiny_samples(rng, n=n)
        x, y = x.astype(np.float32), y.astype(np.float32)
        cfg = TrainConfig(batch_size=n, dropout_p=0.4, seed=6, workers=workers)
        net = Network(tiny_spec(p=0.4, seed=5), dtype=np.float32)
        for block in net.blocks:  # running statistics away from their initial values
            if block.bn is not None:
                block.bn.running_mean[...] = np.linspace(-0.2, 0.3, block.bn.gamma.size)
                block.bn.running_var[...] = np.linspace(0.5, 1.5, block.bn.gamma.size)
        ref_loss, ref, ref_stats = shards_on_fresh_clones(net, x, y, cfg, step=0)
        loss, got = ParallelTrainer(net, cfg).accumulate_gradients(x, y)
        assert loss == ref_loss
        assert [g.tobytes() for g in got] == [g.tobytes() for g in ref]
        got_stats = running_statistics(net)
        assert [a.tobytes() for pair in got_stats for a in pair] == \
            [a.tobytes() for pair in ref_stats for a in pair]


@pytest.mark.skipif(_blas_thread_control() is None, reason="no OpenBLAS thread control found")
class TestBlasThreads:
    """Inside every engine call BLAS runs on one thread, and the caller's
    count comes back after it, as the shards of a step and the eval
    forwards run on the engine's slice threads.  ``threads`` is the
    caller's BLAS count."""

    @pytest.fixture
    def threads(self, blas_threads):
        return blas_threads

    def _trainer(self, rng, workers=2):
        x, y = tiny_samples(rng, n=4)
        cfg = TrainConfig(lr=1e-2, batch_size=4, dropout_p=0.4, seed=1, workers=workers, dtype="f64")
        return ParallelTrainer(Network(tiny_spec(p=0.4), dtype=np.float64), cfg), x, y

    def test_capped_during_shards_and_restored_after_step(self, rng, monkeypatch, threads):
        self._step_and_check(rng, monkeypatch, threads, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cpus", [None, 1, 4])
    def test_cap_follows_engine_threads(self, rng, monkeypatch, threads, workers, cpus):
        """One BLAS thread whatever the CPU and worker counts."""
        if cpus is not None:
            monkeypatch.setattr(nn, "_cpu_count", lambda: cpus)
        self._step_and_check(rng, monkeypatch, threads, workers)

    def _step_and_check(self, rng, monkeypatch, threads, workers):
        """One step: the BLAS count at every conv of each shard's forward
        and backward, and the count after."""
        get, _ = _blas_thread_control()
        seen = []
        for name in ("forward", "backward"):
            real = getattr(Conv, name)

            def counted(*args, _real=real, **kwargs):
                seen.append(get())
                return _real(*args, **kwargs)

            monkeypatch.setattr(Conv, name, counted)
        trainer, x, y = self._trainer(rng, workers)
        trainer.step(x, y)
        assert seen == [1] * (2 * workers * len(trainer.net.blocks))
        assert get() == threads

    @pytest.mark.parametrize("cpus", [None, 1, 4])
    def test_capped_during_eval_forwards(self, rng, monkeypatch, threads, cpus):
        """The count read inside the eval pass, at every chunk of a tiled
        forward and 2 validation forwards: one chunk per ``_EVAL_PIXELS``
        columns of each sample, the tiles' one plane or a 16x16 sample."""
        if cpus is not None:
            monkeypatch.setattr(nn, "_cpu_count", lambda: cpus)
        get, _ = _blas_thread_control()
        net = Network(tiny_spec(), dtype=np.float32)
        seen, shapes = [], []
        real_chunk, real_forward = nn._eval_chunk, Network.forward

        def chunk(*args):
            seen.append(get())
            return real_chunk(*args)

        def forward(self, x, **kwargs):
            shapes.append(x.shape)
            return real_forward(self, x, **kwargs)

        monkeypatch.setattr(nn, "_eval_chunk", chunk)
        monkeypatch.setattr(Network, "forward", forward)
        pipeline._forward_tiled(net, rng.random((2, 70, 90)), 8)
        # 70 rows, 8 zero gutters and one reflected row; 90 columns, 11
        # gutters, one reflected column and 10 zeros, for 79 * 112 = 8848.
        assert shapes == [(1, 2, 79, 112)]
        x, y = tiny_samples(rng, n=3)
        eval_mse(net, (x, y), batch_size=2)
        chunks = sum(n * -(-h * w // nn._EVAL_PIXELS) for n, _, h, w in shapes)
        assert chunks == 5 + 3
        assert seen == [1] * chunks
        assert get() == threads

    def test_restored_after_diverged_shard(self, rng, threads):
        get, _ = _blas_thread_control()
        trainer, x, y = self._trainer(rng)
        x[3, 0, 0, 0] = np.nan  # only the second shard's loss is non-finite
        with pytest.raises(ValidationError, match="diverged"):
            trainer.step(x, y)
        assert get() == threads

    def test_restored_after_a_shard_raises(self, rng, monkeypatch, threads):
        """The first shard's error ends the step: one backward runs."""
        get, _ = _blas_thread_control()
        seen = []
        trainer, x, y = self._trainer(rng)

        def backward(conv, dy, cols, slices):
            seen.append(get())
            raise MemoryError("shard backward")

        monkeypatch.setattr(Conv, "backward", backward)
        with pytest.raises(MemoryError, match="shard backward"):
            trainer.step(x, y)
        assert seen == [1]
        assert get() == threads


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_repeated_training_keeps_a_steady_peak_rss():
    """Training at K=2 again and again on one network: from the second call
    to the tenth the resident high-water mark grows by less than 1 MiB
    (0-100 KiB measured on x86-64 Linux).  Keeping each step's predictions
    alive, 0.75 MiB per call, grew it by 7-9 MiB."""
    code = textwrap.dedent(
        """
        import numpy as np
        from hdrkit.nn import LayerSpec, Network, NetworkSpec
        from hdrkit.pipeline import TrainConfig, train

        def high_water_kib():
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

        data = np.random.default_rng(0)
        x = data.random((48, 1, 64, 64)).astype(np.float32)
        y = data.random((48, 1, 64, 64)).astype(np.float32)
        net = Network(NetworkSpec((LayerSpec("conv3x3", 1, 32, batchnorm=True, dropout_p=0.4),
                                   LayerSpec("conv1x1", 32, 16, batchnorm=True, dropout_p=0.4),
                                   LayerSpec("output1x1", 16, 1))))
        cfg = TrainConfig(epochs=1, batch_size=8, workers=2, seed=1)
        for _ in range(10):
            train(net, (x, y), cfg)
            print(high_water_kib())
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    marks = [int(v) for v in proc.stdout.split()]
    assert marks[-1] - marks[1] < 1024, marks  # KiB


class TestDivergence:
    def test_non_finite_weights_after_update_stop_the_step(self, rng):
        x, _ = tiny_samples(rng, n=4)
        y = np.full((4, 1, 16, 16), 1e12)
        # lr is finite in f64, but lr * gradient overflows
        cfg = TrainConfig(lr=1e300, momentum=0.0, batch_size=4, dropout_p=0.0, dtype="f64")
        trainer = ParallelTrainer(Network(tiny_spec(), dtype=np.float64), cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=r"diverged \(non-finite weights\)"):
                trainer.step(x, y)

    @pytest.mark.parametrize("dtype, lr", [("f32", 1e300), ("f32", 1e39), ("f64", float("inf")),
                                           ("f64", float("nan")), ("f64", -1e-3)])
    def test_config_rejects_lr_not_finite_in_dtype(self, dtype, lr):
        with pytest.raises(ValidationError, match="lr"):
            TrainConfig(lr=lr, dtype=dtype)
        TrainConfig(lr=1e300, dtype="f64")  # finite in f64


class TestHyperparamSearch:
    def test_single_config_returned(self, rng):
        x, y = tiny_samples(rng)
        cfg = TrainConfig(lr=1e-2, momentum=0.9, batch_size=4, dropout_p=0.0, seed=1, dtype="f64")
        results = hyperparam_search([(tiny_spec(), cfg)], (x, y), (x, y))
        assert len(results) == 1 and results[0].config_id == 0

    def test_learning_rate_beats_zero(self, rng):
        x, y = tiny_samples(rng, n=16)
        xv, yv = tiny_samples(np.random.default_rng(77), n=8)
        base = dict(momentum=0.9, batch_size=8, dropout_p=0.0, seed=1, dtype="f64")
        configs = [
            (tiny_spec(seed=2), TrainConfig(lr=1e-2, **base)),
            (tiny_spec(seed=2), TrainConfig(lr=0.0, **base)),
        ]
        results = hyperparam_search(configs, (x, y), (xv, yv))
        assert results[0].config_id == 0
        assert results[0].val_error < results[1].val_error

    def test_report_contents(self, rng):
        x, y = tiny_samples(rng)
        cfg = TrainConfig(lr=1e-3, momentum=0.9, batch_size=4, dropout_p=0.0, seed=1, dtype="f64")
        (res,) = hyperparam_search([(tiny_spec(), cfg)], (x, y), (x, y))
        assert res.config_id == 0
        assert len(res.curve) == 2  # exactly two epochs
        assert res.val_error >= 0

    def test_search_honours_workers(self, rng):
        x, y = tiny_samples(rng, n=8)
        cfg = TrainConfig(
            lr=1e-2, momentum=0.9, batch_size=4, dropout_p=0.4, seed=3, workers=2, dtype="f64"
        )
        spec = tiny_spec(p=0.4, seed=2)
        (res,) = hyperparam_search([(spec, cfg)], (x, y), (x, y))
        state = train(Network(spec, dtype=np.float64), (x, y), cfg, epochs=2)
        assert res.curve == state.curve


def _openblas_core() -> str | None:
    """The kernel family that numpy's OpenBLAS runs, e.g. ``SkylakeX``, or
    None when it does not say."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get = getattr(lib, "scipy_openblas_get_corename64_", None)
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def tiled_oracle(net, planes, patch):
    """The tiled inference that ``_forward_tiled`` replaced: reflect-padded
    tiles, one eval forward of all of them, and the tiles put back together."""
    grid, tiles = extract_patches(planes.astype(net.dtype, copy=False), patch)
    return reassemble(grid, net.forward(tiles, train=False)[:, 0])


class TestForwardTiled:
    """``_forward_tiled`` runs the tiles as one plane with zero gutters and
    gives each real pixel what the tiled oracle does.  On the SkylakeX
    (AVX-512) kernels of numpy's OpenBLAS the bytes are the same, since
    every eval chunk of either is a multiple of 16 columns; on other
    kernels, such as the AVX2 ones that ``OPENBLAS_CORETYPE=Zen`` selects,
    sums can round otherwise: these cases read up to 7.2e-7 apart there."""

    @pytest.mark.parametrize("hw", [(1, 1), (7, 5), (63, 64), (64, 64), (65, 130), (150, 110),
                                    (181, 97)], ids=lambda hw: f"{hw[0]}x{hw[1]}")
    @pytest.mark.parametrize("patch", [8, 16, 64])
    @pytest.mark.parametrize("channels", [1, 5])
    def test_matches_the_tiled_oracle(self, hw, patch, channels):
        spec = build_tonemap_net("a", seed=4) if channels == 1 else build_ldr2hdr_net("G", seed=4)
        net = Network(spec)
        data = np.random.default_rng(hw[0] * patch + channels)
        for block in net.blocks:  # running statistics away from 0 and 1
            if block.bn is not None:
                block.bn.running_mean[...] = data.normal(0.0, 0.3, block.bn.gamma.size)
                block.bn.running_var[...] = data.uniform(0.2, 3.0, block.bn.gamma.size)
        planes = data.random((channels,) + hw)
        got, want = pipeline._forward_tiled(net, planes, patch), tiled_oracle(net, planes, patch)
        assert got.shape == want.shape == hw and got.dtype == want.dtype
        if _openblas_core() == "SkylakeX":
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())

    def test_patch_minimum(self):
        with pytest.raises(ParameterError, match="patch must be >= 8"):
            pipeline._forward_tiled(Network(build_tonemap_net("a", seed=0)), np.zeros((1, 9, 9)), 4)


class TestInference:
    def test_ldr2hdr_output_dims(self, identity_crf):
        scene = synth_scenes(1, 80, seed=31)[0]  # 80x80: patching needs padding
        norm, _ = normalize_hdr(scene)
        stack = fixed_stack(norm, identity_crf)
        nets = {
            ch: Network(build_ldr2hdr_net(ch, seed=1, dropout_p=0.0)) for ch in ("R", "G", "B")
        }
        out = infer_ldr2hdr(nets, stack, patch=64)
        assert (out.width, out.height) == (80, 80)
        assert np.all(out.data >= 0) and np.all(np.isfinite(out.data))

    def test_ldr2hdr_deterministic(self, identity_crf, small_scene):
        stack = fixed_stack(small_scene, identity_crf)
        nets = {
            ch: Network(build_ldr2hdr_net(ch, seed=1, dropout_p=0.0)) for ch in ("R", "G", "B")
        }
        a = infer_ldr2hdr(nets, stack, patch=16)
        b = infer_ldr2hdr(nets, stack, patch=16)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_ldr2hdr_refuses_a_bad_scale_before_any_net_runs(self, identity_crf, small_scene, scale):
        stack = fixed_stack(small_scene, identity_crf)
        with pytest.raises(ParameterError, match="scale must be finite and > 0"):
            infer_ldr2hdr({}, stack, patch=16, scale=scale)  # no net to run

    def test_tonemap_output_in_unit_range(self, small_scene):
        nets = {
            ch: Network(build_tonemap_net(ch, seed=2, dropout_p=0.0))
            for ch in ("L_base", "L_detail", "a", "b")
        }
        tm = infer_tonemap(nets, small_scene, patch=16)
        assert (tm.width, tm.height) == (small_scene.width, small_scene.height)
        assert tm.data.min() >= 0 and tm.data.max() <= 1

    def test_tonemap_patch_beyond_the_plane_is_one_ragged_tile(self):
        """A 16x16 plane is one ragged tile at patch 32 and at patch 200000,
        and inference allocates by the plane, not by the patch."""
        m = synth_scenes(1, 16, seed=5)[0]
        nets = {ch: Network(build_tonemap_net(ch, seed=2)) for ch in TONEMAP_CHANNELS}
        want = infer_tonemap(nets, m, patch=32)
        assert infer_tonemap(nets, m, patch=200000).data.tobytes() == want.data.tobytes()

    def test_tonemap_nets_see_their_training_inputs(self, monkeypatch):
        # Bitwise: each channel net gets at inference exactly the planes that
        # build_tonemap_samples patches for training on the same scene.
        import hdrkit.pipeline as pl

        scene = synth_scenes(1, 40, seed=71)[0]
        real_extract, real_forward = pl.extract_patches, pl._forward_tiled
        patched = []
        monkeypatch.setattr(
            pl, "extract_patches", lambda planes, patch: patched.append(planes) or real_extract(planes, patch)
        )
        build_tonemap_samples([scene], TrainConfig(patch=16), gamma_crf(2.2))
        monkeypatch.setattr(pl, "extract_patches", real_extract)
        trained = dict(zip(pl.TONEMAP_CHANNELS, patched[0::2]))  # calls alternate x, y

        nets = {ch: Network(build_tonemap_net(ch, seed=2)) for ch in pl.TONEMAP_CHANNELS}
        channel_of = {id(net): ch for ch, net in nets.items()}
        fed = {}

        def spy(net, planes, patch, *args, **kwargs):
            fed[channel_of[id(net)]] = planes
            return real_forward(net, planes, patch, *args, **kwargs)

        monkeypatch.setattr(pl, "_forward_tiled", spy)
        norm, _ = normalize_hdr(scene)
        infer_tonemap(nets, norm, patch=16)
        for ch in pl.TONEMAP_CHANNELS:
            assert fed[ch].dtype == trained[ch].dtype and fed[ch].shape == trained[ch].shape, ch
            assert fed[ch].tobytes() == trained[ch].tobytes(), ch

    def test_overfit_nets_reproduce_training_scene(self, identity_crf):
        # identity stress: after converging on one scene, inference MSE stays
        # on the order of the final training loss
        scene = synth_scenes(1, 32, seed=61)[0]
        cfg = TrainConfig(lr=1e-2, momentum=0.9, epochs=200, batch_size=40, patch=32, dropout_p=0.0, seed=3)
        sets = build_ldr2hdr_samples([scene], identity_crf, cfg)
        nets, final_losses = {}, []
        for ch in ("R", "G", "B"):
            net = Network(build_ldr2hdr_net(ch, seed=cfg.seed, dropout_p=0.0), dtype=cfg.numpy_dtype())
            state = train(net, sets[ch], cfg)
            nets[ch] = net
            final_losses.append(state.curve[-1][1])
        norm, _ = normalize_hdr(scene)
        stack = fixed_stack(norm, identity_crf)
        predicted = infer_ldr2hdr(nets, stack, patch=32)
        mse = float(np.mean((predicted.data - norm.data) ** 2))
        implied = float(np.mean(final_losses))
        assert mse <= 5.0 * implied + 1e-6


class TestSampleBuilders:
    def test_ldr2hdr_shapes(self, identity_crf):
        scenes = synth_scenes(2, 64, seed=41)
        cfg = TrainConfig(patch=32, dropout_p=0.0)
        sets = build_ldr2hdr_samples(scenes, identity_crf, cfg)
        for ch in ("R", "G", "B"):
            x, y = sets[ch]
            assert x.shape == (8, 5, 32, 32) and y.shape == (8, 1, 32, 32)

    def test_tonemap_shapes_and_selection(self):
        scenes = synth_scenes(1, 32, seed=43)
        cfg = TrainConfig(patch=32, dropout_p=0.0)
        sets, selections = build_tonemap_samples(scenes, cfg, gamma_crf(2.2))
        assert len(selections) == 1
        for ch in ("L_base", "L_detail", "a", "b"):
            x, y = sets[ch]
            assert x.shape == (1, 1, 32, 32) and y.shape == (1, 1, 32, 32)

    def test_log1p_targets(self, identity_crf):
        scenes = synth_scenes(1, 32, seed=47)
        cfg = TrainConfig(patch=32, dropout_p=0.0, target_domain="log1p")
        sets = build_ldr2hdr_samples(scenes, identity_crf, cfg)
        norm, _ = normalize_hdr(scenes[0])
        _, y = sets["R"]
        expected = np.log1p(norm.data[..., 0])
        assert np.allclose(y[0, 0], expected, atol=1e-6)


class TestCurveCsv:
    def test_plain(self):
        text = curve_csv([(1, 0.5), (2, 0.25)])
        assert text.splitlines()[0] == "epoch,mean_loss"
        assert text.splitlines()[1].startswith("1,0.5")


class TestTrainLoop:
    def test_train_writes_monotone_curve(self, rng):
        x, y = tiny_samples(rng, n=8)
        cfg = TrainConfig(lr=1e-3, momentum=0.9, epochs=4, batch_size=4, dropout_p=0.0, seed=0, dtype="f64")
        net = Network(tiny_spec(), dtype=np.float64)
        state = train(net, (x, y), cfg)
        epochs = [row[0] for row in state.curve]
        assert epochs == [1, 2, 3, 4]
        assert all(len(row) == 2 for row in state.curve)

    def test_train_with_workers_matches_contract(self, rng):
        x, y = tiny_samples(rng, n=8)
        cfg = TrainConfig(lr=1e-3, momentum=0.9, epochs=2, batch_size=4, dropout_p=0.0, seed=0, dtype="f64", workers=2)
        net = Network(tiny_spec(), dtype=np.float64)
        state = train(net, (x, y), cfg)
        assert len(state.curve) == 2

    def test_eval_mse_refuses_no_samples(self):
        net = Network(tiny_spec(), dtype=np.float64)
        with pytest.raises(ValidationError, match="at least one sample"):
            eval_mse(net, (np.zeros((0, 2, 8, 8)), np.zeros((0, 1, 8, 8))), 40)

    def test_eval_mse_matches_manual(self, rng):
        x, y = tiny_samples(rng, n=5)
        net = Network(tiny_spec(), dtype=np.float64)
        from hdrkit.nn import mse_loss

        manual, _ = mse_loss(net.forward(x, train=False), y)
        assert eval_mse(net, (x, y), batch_size=5) == pytest.approx(manual, rel=1e-12)
