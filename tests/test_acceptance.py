"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavyweight training criteria (6 and 9) take a
few minutes of CPU time between them.
"""

import json
import time
from dataclasses import replace

from conftest import ldr_image, running_statistics, shards_on_fresh_clones
import numpy as np

from tmqi_reference import reference_tmqi

from hdrkit.camera import adaptive_stack, expose, fixed_stack, gamma_crf, geometric_ladder
from hdrkit.cli import run
from hdrkit.errors import (
    CorruptionError,
    FormatError,
    TruncationError,
    UnsupportedFormatError,
)
from hdrkit.image_io import (
    RadianceMap,
    decode_hdr,
    encode_hdr,
    load_radiance,
    read_pfm,
    read_ppm,
    write_pfm,
    write_ppm,
)
from hdrkit.imgproc import entropy, luminance, rgb_to_lab
from hdrkit.merge import debevec_merge, hat_weight
from hdrkit.nn import LayerSpec, Network, NetworkSpec, grad_check, mse_loss, sgd_step
from hdrkit.pipeline import (
    ParallelTrainer,
    TrainConfig,
    build_ldr2hdr_net,
    build_ldr2hdr_samples,
    build_tonemap_net,
    build_tonemap_samples,
    curve_csv,
    decompose_tonemap_channels,
    hyperparam_search,
    normalize_hdr,
    train,
)
from hdrkit.synth import synth_scenes
from hdrkit.tmo import apply_operator, reinhard_global, select_best_tmo, structural_fidelity, tmqi
from hdrkit.tmo import DEFAULT_TMQI


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {name}: {status}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    results = []

    def check(label, spec, in_depth):
        net = Network(spec, dtype=np.float64)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, in_depth, 8, 8))
        t = rng.normal(size=(2, 1, 8, 8))
        rep = grad_check(net, x, t, h=1e-3, tolerance=1e-4)
        results.append((label, rep.passed, max(r.max_rel_err for r in rep.layers)))

    # every layer kind in isolation (output1x1 is a bare conv)
    check("output1x1", NetworkSpec(layers=(LayerSpec("output1x1", 3, 1),), seed=1), 3)
    check(
        "conv1x1+bn",
        NetworkSpec(
            layers=(LayerSpec("conv1x1", 3, 6, batchnorm=True), LayerSpec("output1x1", 6, 1)),
            seed=2,
        ),
        3,
    )
    check(
        "conv3x3+bn",
        NetworkSpec(
            layers=(LayerSpec("conv3x3", 3, 6, batchnorm=True), LayerSpec("output1x1", 6, 1)),
            seed=3,
        ),
        3,
    )
    # both full architectures
    check("ldr2hdr(60/40/20/20/20)", build_ldr2hdr_net("R", seed=0, dropout_p=0.0), 5)
    check("tonemap(100/80/50/10)", build_tonemap_net("L_base", seed=0, dropout_p=0.0), 1)

    elapsed = time.monotonic() - t0
    ok = all(p for _, p, _ in results) and elapsed < 120.0
    detail = "; ".join(f"{lbl} worst={err:.2e}" for lbl, _, err in results) + f"; {elapsed:.0f}s"
    report(1, "gradient correctness", ok, detail)


def test_criterion_2_merge_round_trip():
    t0 = time.monotonic()
    crf = gamma_crf(1.0)
    scenes = synth_scenes(16, 128, seed=7)
    weights = hat_weight()
    worst_unit = 0.0
    worst_ratio = 0.0
    for scene in scenes:
        norm, _ = normalize_hdr(scene)
        stack = fixed_stack(norm, crf)
        rec = debevec_merge(stack, crf)
        codes = np.stack([img.data for img in stack.images])
        mid = np.any((codes >= 20) & (codes <= 235), axis=0)
        err = np.abs(rec.data.astype(np.float64) - norm.data)
        # half-code quantization bound per contributing exposure
        bound = np.zeros_like(err)
        for img in stack.images:
            bound += (weights[img.data] > 0) / (255.0 * img.exposure)
        worst_unit = max(worst_unit, float(err[mid].max()))
        worst_ratio = max(worst_ratio, float((err[mid] / bound[mid]).max()))
    elapsed = time.monotonic() - t0
    # error < 2% of the normalized radiance unit and within the per-pixel
    # quantization budget of the contributing exposures
    ok = worst_unit < 0.02 and worst_ratio <= 1.0 and elapsed < 30.0
    report(
        2,
        "merge oracle round trip",
        ok,
        f"max err={worst_unit:.2e} (unit bound 0.02), quantization ratio={worst_ratio:.2f}, {elapsed:.0f}s",
    )


def test_criterion_3_format_round_trips():
    rng = np.random.default_rng(13)
    pixels = (rng.random((1000, 1, 3)) * rng.choice([1e-3, 1.0, 40.0], (1000, 1, 3))).astype(
        np.float32
    )
    m = RadianceMap.from_array(pixels)
    back = decode_hdr(encode_hdr(m))
    err = np.abs(back.data - m.data).max(axis=2)
    bound = m.data.max(axis=2) / 128.0
    rgbe_ok = bool(np.all(err <= bound + 1e-12))

    m2 = RadianceMap.from_array(rng.random((21, 17, 3)).astype(np.float32))
    pfm_ok = np.array_equal(read_pfm(write_pfm(m2)).data, m2.data)
    img = ldr_image(rng.integers(0, 256, (9, 11, 3), dtype=np.uint8))
    ppm_ok = np.array_equal(read_ppm(write_ppm(img)).data, img.data)

    malformed = [
        (b"?!BAD\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1\n" + bytes(4), FormatError, decode_hdr),
        (b"#?RADIANCE\nX=1\n\n-Y 1 +X 1\n" + bytes(4), FormatError, decode_hdr),
        (b"#?RADIANCE\nFORMAT=32-bit_rle_xyze\n\n-Y 1 +X 1\n" + bytes(4), FormatError, decode_hdr),
        (b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\nbogus\n" + bytes(4), FormatError, decode_hdr),
        (b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 2 +X 2\n" + bytes(4), TruncationError, decode_hdr),
        (
            b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 4\n" + bytes([2, 2, 0, 4, 190, 9]),
            CorruptionError,
            decode_hdr,
        ),
        (b"P6\n2 2\n65535\n" + bytes(12), UnsupportedFormatError, read_ppm),
        (b"PX\n1 1\n-1.0\n" + bytes(12), FormatError, read_pfm),
    ]
    rejected = 0
    for buf, exc, reader in malformed:
        try:
            reader(buf)
        except exc:
            rejected += 1
        except Exception:
            pass
    corpus_ok = rejected == len(malformed)

    ok = rgbe_ok and pfm_ok and ppm_ok and corpus_ok
    report(
        3,
        "format round trips",
        ok,
        f"rgbe={rgbe_ok} pfm={pfm_ok} ppm={ppm_ok} malformed {rejected}/{len(malformed)}",
    )


def test_criterion_4_entropy_and_adaptive_selection():
    const = ldr_image(np.full((16, 16, 3), 55, np.uint8))
    zero_ok = entropy(const) == 0.0
    g = np.arange(256, dtype=np.uint8).reshape(16, 16)
    uniform = ldr_image(np.stack([g, g, g], axis=-1))
    uniform_ok = abs(entropy(uniform) - 8.0) <= 1e-9

    crf = gamma_crf(2.2)
    ladder = geometric_ladder()
    scenes = synth_scenes(8, 64, seed=17)
    matches = 0
    for scene in scenes:
        norm, _ = normalize_hdr(scene)
        stack = adaptive_stack(norm, crf, ladder)
        sweep = [entropy(expose(norm, dt, crf)) for dt in ladder.times]
        k = int(np.argmax(sweep))
        lo = min(max(k - 2, 0), len(ladder) - 5)
        if [img.exposure for img in stack.images] == list(ladder.times[lo : lo + 5]):
            matches += 1
    ok = zero_ok and uniform_ok and matches == 8
    report(
        4,
        "entropy and adaptive selection",
        ok,
        f"constant=0:{zero_ok} uniform=8:{uniform_ok} adaptive {matches}/8",
    )


def test_criterion_5_data_parallel_equivalence():
    cfg = TrainConfig(lr=1e-2, momentum=0.9, batch_size=8, dropout_p=0.0, seed=9, dtype="f64")
    spec = build_ldr2hdr_net("R", seed=2, dropout_p=0.0)
    # Train-mode batchnorm normalizes each shard on its own statistics, so
    # the shard gradients sum to the serial whole-batch gradient on the
    # same chain without batchnorm.
    plain = NetworkSpec(tuple(replace(ls, batchnorm=False) for ls in spec.layers), spec.seed)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 5, 16, 16))
    y = rng.normal(size=(8, 1, 16, 16))

    serial = Network(plain, dtype=np.float64)
    pred = serial.forward(x, train=True)
    _, dp = mse_loss(pred, y)
    serial.backward(dp)
    expected = [g.copy() for g in serial.grads()]

    worst = 0.0
    for workers in (2, 4):
        trainer = ParallelTrainer(Network(plain, dtype=np.float64), replace(cfg, workers=workers))
        _, got = trainer.accumulate_gradients(x, y)
        for a, b in zip(got, expected):
            rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-30)
            worst = max(worst, float(rel.max()))
    grads_ok = worst < 1e-12

    # The four shards run in turn on one batchnormed network.  Each step must
    # equal running every shard on its own fresh copy of the start-of-step
    # network, then one SGD update, with one running-statistics momentum
    # step per shard in worker order.
    cfg4 = replace(cfg, workers=4)
    trainer = ParallelTrainer(Network(spec, dtype=np.float64), cfg4)
    velocity = None
    bitwise_ok = True
    for step in range(10):
        ref = trainer.net.clone()
        _, grads, stats = shards_on_fresh_clones(ref, x, y, cfg4, step)
        velocity = sgd_step(ref.params(), grads, cfg.lr, cfg.momentum, velocity)
        for (mean, var), (want_mean, want_var) in zip(running_statistics(ref), stats):
            mean[...], var[...] = want_mean, want_var
        trainer.step(x, y)
        for (_, a), (_, b) in zip(trainer.net.tensors(), ref.tensors()):
            bitwise_ok = bitwise_ok and a.tobytes() == b.tobytes()
    ok = grads_ok and bitwise_ok
    report(
        5,
        "data-parallel equivalence",
        ok,
        f"worst grad rel diff={worst:.2e} (<1e-12), shards on one net bitwise={bitwise_ok}",
    )


def test_criterion_6_learning_sanity(tmp_path):
    # overfit a single 64x64 sample (regularization off so the oracle can
    # reach the floor; remaining settings are the defaults)
    crf = gamma_crf(1.0)
    scene = synth_scenes(1, 64, seed=11)[0]
    cfg = TrainConfig(lr=1e-2, momentum=0.9, epochs=500, batch_size=40, patch=64, dropout_p=0.0, seed=3)
    sets = build_ldr2hdr_samples([scene], crf, cfg)
    net = Network(build_ldr2hdr_net("R", seed=cfg.seed, dropout_p=0.0), dtype=cfg.numpy_dtype())
    state = train(net, sets["R"], cfg)
    final = state.curve[-1][1]
    overfit_ok = final < 1e-4

    # 32-scene set with the full default config, dropout 0.4 included
    scenes = synth_scenes(32, 64, seed=21)
    cfg2 = TrainConfig(lr=1e-2, momentum=0.9, epochs=30, batch_size=40, patch=64, dropout_p=0.4, seed=5)
    sets2 = build_ldr2hdr_samples(scenes, crf, cfg2)
    net2 = Network(build_ldr2hdr_net("G", seed=cfg2.seed, dropout_p=cfg2.dropout_p), dtype=cfg2.numpy_dtype())
    state2 = train(net2, sets2["G"], cfg2)
    first, last = state2.curve[0][1], state2.curve[-1][1]
    decrease_ok = last <= 0.1 * first

    csv_path = tmp_path / "curve.csv"
    csv_path.write_text(curve_csv(state2.curve))
    rows = csv_path.read_text().strip().splitlines()[1:]
    epochs = [int(r.split(",")[0]) for r in rows]
    curve_ok = epochs == list(range(1, 31))

    ok = overfit_ok and decrease_ok and curve_ok
    report(
        6,
        "learning sanity",
        ok,
        f"overfit final={final:.2e} (<1e-4), epoch30/epoch1={last / first:.3f} (<=0.1), curve rows={curve_ok}",
    )


def test_criterion_7_tmqi_sanity():
    scene = synth_scenes(2, 48, seed=101)[1]
    norm, _ = normalize_hdr(scene)
    lum = luminance(norm.data).astype(np.float64)
    s_identical_ok = abs(structural_fidelity(lum, lum) - 1.0) <= 1e-6
    a = DEFAULT_TMQI.a
    q_one_ok = a * 1.0**DEFAULT_TMQI.alpha + (1 - a) * 1.0**DEFAULT_TMQI.beta == 1.0

    crf = gamma_crf(2.2)
    scenes = synth_scenes(8, 64, seed=23)
    argmax_ok = 0
    for sc in scenes:
        n, _ = normalize_hdr(sc)
        _, op, score, _ = select_best_tmo(n, crf=crf)
        recomputed = {
            name: tmqi(n, apply_operator(n, name, crf=crf)).Q
            for name in ("reinhard", "drago", "mertens")
        }
        if score.Q == max(recomputed.values()) and recomputed[op] == score.Q:
            argmax_ok += 1

    # cross-check against the published reference implementation
    big = synth_scenes(3, 198, seed=1)[1]
    nb, _ = normalize_hdr(big)
    tm = reinhard_global(nb)
    q_ref, _, _ = reference_tmqi(nb.data.astype(np.float64), tm.data.astype(np.float64))
    mine = tmqi(nb, tm)
    cross_ok = abs(mine.Q - q_ref) < 0.02

    ok = s_identical_ok and q_one_ok and argmax_ok == 8 and cross_ok
    report(
        7,
        "TMQI sanity",
        ok,
        f"S(ident)=1:{s_identical_ok} Q(1,1)=1:{q_one_ok} argmax {argmax_ok}/8 |dQ|={abs(mine.Q - q_ref):.4f}",
    )


def test_criterion_8_tonemap_decomposition():
    scene = synth_scenes(2, 48, seed=101)[1]
    norm, _ = normalize_hdr(scene)
    tm = reinhard_global(norm)
    chans = {c.name: c for c in decompose_tonemap_channels(norm, tm)}
    lab_in = rgb_to_lab(norm.data)
    exact_ok = np.array_equal(chans["L_base"].input + chans["L_detail"].input, lab_in.L)

    from hdrkit.pipeline import recompose_tonemap

    preds = {c.name: c.target.astype(np.float64) for c in chans.values()}
    rec = recompose_tonemap(preds)
    recompose_ok = float(np.abs(rec.data - tm.data).max()) < 2e-3

    # two-epoch ranking: lr=1e-2 must beat its lr=0 twin on tone-map samples
    scenes = synth_scenes(10, 64, seed=29)
    cfg_base = dict(momentum=0.9, epochs=2, batch_size=1, patch=64, dropout_p=0.0, seed=2, dtype="f32")
    cfg = TrainConfig(lr=1e-2, **cfg_base)
    sets, _ = build_tonemap_samples(scenes[:8], cfg, crf=gamma_crf(2.2))
    val_sets, _ = build_tonemap_samples(scenes[8:], cfg, crf=gamma_crf(2.2))
    spec = build_tonemap_net("L_base", seed=4, dropout_p=0.0)
    configs = [(spec, TrainConfig(lr=1e-2, **cfg_base)), (spec, TrainConfig(lr=0.0, **cfg_base))]
    results = hyperparam_search(configs, sets["L_base"], val_sets["L_base"])
    rank_ok = results[0].config_id == 0 and results[0].val_error < results[1].val_error

    ok = exact_ok and recompose_ok and rank_ok
    report(
        8,
        "tone-map decomposition",
        ok,
        f"base+detail exact:{exact_ok} recompose<2e-3:{recompose_ok} lr ranking:{rank_ok}",
    )


def test_criterion_9_end_to_end_smoke(tmp_path):
    t0 = time.monotonic()
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--count", "8", "--size", "64", "--seed", "33"]) == 0

    manifest = json.loads((data / "manifest.json").read_text())
    train_entries = [e for e in manifest["scenes"] if e["split"] == "train"]
    crf = gamma_crf(2.2)

    # LDR2HDR branch
    ckpt = tmp_path / "ckpt"
    code = run(
        [
            "train-ldr2hdr", "--manifest", str(data), "--out", str(ckpt),
            "--epochs", "30", "--dropout-p", "0.0", "--seed", "3",
        ]
    )
    assert code == 0

    net_mse = []
    debevec_mse = []
    for entry in train_entries:
        scene = load_radiance(data / entry["file"])
        norm, _ = normalize_hdr(scene)

        stackdir = tmp_path / f"stack_{entry['file']}"
        assert run(["expose", "--input", str(data / entry["file"]), "--out", str(stackdir)]) == 0
        inputs = [str(p) for p in sorted(stackdir.glob("*.ppm"))]
        outdir = tmp_path / f"pred_{entry['file']}"
        assert run(
            ["infer-ldr2hdr", "--checkpoints", str(ckpt), "--inputs", *inputs, "--out", str(outdir)]
        ) == 0
        predicted = load_radiance(outdir / "predicted.hdr")
        net_mse.append(float(np.mean((predicted.data - norm.data) ** 2)))

        stack = fixed_stack(norm, crf)
        merged = debevec_merge(stack, crf)
        debevec_mse.append(float(np.mean((merged.data - norm.data) ** 2)))

    net_avg = float(np.mean(net_mse))
    deb_avg = float(np.mean(debevec_mse))
    ldr2hdr_ok = net_avg < 10.0 * deb_avg

    # tone-map branch: select targets, train, infer at full resolution
    sel = tmp_path / "sel"
    scene_paths = [str(data / e["file"]) for e in train_entries]
    assert run(["select-tmo", "--inputs", *scene_paths, "--out", str(sel)]) == 0
    assert (sel / "scores.csv").exists()

    tm_ckpt = tmp_path / "tm_ckpt"
    code = run(
        [
            "train-tonemap", "--manifest", str(data), "--out", str(tm_ckpt),
            "--epochs", "8", "--dropout-p", "0.0", "--seed", "4",
        ]
    )
    assert code == 0

    # full-resolution inference on a scene size that needs patch padding
    big = synth_scenes(1, 80, seed=55)[0]
    from hdrkit.image_io import save_radiance

    big_path = tmp_path / "big.pfm"
    save_radiance(big_path, big)
    tm_out = tmp_path / "tm_out"
    assert run(
        ["infer-tonemap", "--checkpoints", str(tm_ckpt), "--input", str(big_path), "--out", str(tm_out)]
    ) == 0
    tm_img = read_ppm((tm_out / "predicted.ppm").read_bytes())
    tonemap_ok = (tm_img.width, tm_img.height) == (80, 80)

    elapsed = time.monotonic() - t0
    ok = ldr2hdr_ok and tonemap_ok and elapsed < 900.0
    report(
        9,
        "end-to-end smoke",
        ok,
        f"net MSE={net_avg:.4f} vs 10x debevec={10 * deb_avg:.4f}; tonemap 80x80 in [0,1]: {tonemap_ok}; {elapsed:.0f}s",
    )
