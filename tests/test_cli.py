import json
import os
import struct
import subprocess
import sys
from pathlib import Path

from conftest import ldr_image
import numpy as np
import pytest
from classical_reference import format_crf

import hdrkit
from hdrkit import cli, pipeline
from hdrkit.camera import gamma_crf
from hdrkit.cli import run
from hdrkit.image_io import (
    load_ldr,
    load_radiance,
    read_ppm,
    save_ldr,
    save_radiance,
    write_ppm,
)
from hdrkit.nn import LayerSpec, Network, NetworkSpec, save_checkpoint
from hdrkit.pipeline import LDR2HDR_CHANNELS, TONEMAP_CHANNELS, build_tonemap_net, normalize_hdr
from hdrkit.synth import synth_scenes
from test_reader_properties import VALID, edit


def write_scene(tmp_path, name="scene.pfm", size=48, seed=11, normalized=True):
    scene = synth_scenes(1, size, seed=seed)[0]
    if normalized:
        scene, _ = normalize_hdr(scene)
    path = tmp_path / name
    save_radiance(path, scene)
    return path, scene


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("error:usage:")

    def test_unknown_flag_rejected(self, capsys):
        assert run(["synth", "--out", "x", "--bogus", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:usage:")

    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert capsys.readouterr().err.startswith("error:usage:")

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        assert run(["expose", "--input", str(tmp_path / "nope.pfm"), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:io:")

    def test_malformed_file_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hdr"
        bad.write_bytes(b"\xde\xad\xbe\xef" * 8)
        assert run(["expose", "--input", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:format:") or err.startswith("error:truncated:")


class TestSynth:
    def test_writes_scenes_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        assert run(["synth", "--out", str(out), "--count", "4", "--size", "32", "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["scenes"]) == 4
        assert manifest["ladder"] in ("fixed", "adaptive")
        for entry in manifest["scenes"]:
            assert (out / entry["file"]).exists()

    def test_seeded_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--out", str(a), "--count", "2", "--size", "16", "--seed", "9"])
        run(["synth", "--out", str(b), "--count", "2", "--size", "16", "--seed", "9"])
        for name in ("scene_000.pfm", "scene_001.pfm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestExpose:
    def test_fixed_mode_writes_five_ppms_with_sidecars(self, tmp_path, capsys):
        path, _ = write_scene(tmp_path)
        out = tmp_path / "stack"
        assert run(["expose", "--input", str(path), "--out", str(out), "--mode", "fixed"]) == 0
        exposures = []
        for k in range(5):
            img = load_ldr(out / f"scene_e{k}.ppm")
            exposures.append(img.exposure)
        assert exposures == [1.0, 8.0, 64.0, 512.0, 4096.0]

    def test_adaptive_mode(self, tmp_path):
        path, _ = write_scene(tmp_path)
        out = tmp_path / "stack"
        assert run(["expose", "--input", str(path), "--out", str(out), "--mode", "adaptive"]) == 0
        exposures = [load_ldr(out / f"scene_e{k}.ppm").exposure for k in range(5)]
        assert all(b > a for a, b in zip(exposures, exposures[1:]))


class TestMergeRoundTrip:
    def test_expose_then_merge_recovers_scene(self, tmp_path):
        path, scene = write_scene(tmp_path, size=32)
        norm, _ = normalize_hdr(scene)
        stackdir = tmp_path / "stack"
        run(["expose", "--input", str(path), "--out", str(stackdir), "--crf", "gamma:1.0"])
        inputs = [str(stackdir / f"scene_e{k}.ppm") for k in range(5)]
        out = tmp_path / "merged"
        assert (
            run(["merge", "--inputs", *inputs, "--out", str(out), "--crf", "gamma:1.0"]) == 0
        )
        merged = load_radiance(out / "merged.hdr")
        err = np.abs(merged.data - norm.data)
        assert np.median(err) < 0.01


class TestTmoCommands:
    def test_tmo_writes_ppm(self, tmp_path):
        path, _ = write_scene(tmp_path)
        out = tmp_path / "tm"
        assert run(["tmo", "--input", str(path), "--out", str(out), "--operator", "drago"]) == 0
        img = read_ppm((out / "scene_drago.ppm").read_bytes())
        assert (img.width, img.height) == (48, 48)

    def test_select_tmo_writes_scores_csv(self, tmp_path):
        path, _ = write_scene(tmp_path)
        out = tmp_path / "sel"
        assert run(["select-tmo", "--inputs", str(path), "--out", str(out)]) == 0
        rows = (out / "scores.csv").read_text().strip().splitlines()
        assert rows[0] == "image,operator,S,N,Q"
        assert len(rows) == 4  # three operators scored
        best = [p for p in out.iterdir() if "best" in p.name]
        assert len(best) == 1

    def test_tmqi_command(self, tmp_path, capsys):
        path, _ = write_scene(tmp_path)
        out = tmp_path / "tm"
        run(["tmo", "--input", str(path), "--out", str(out), "--operator", "reinhard"])
        code = run(["tmqi", "--hdr", str(path), "--tm", str(out / "scene_reinhard.ppm")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2] == "hdr,tm,S,N,Q"
        parts = lines[-1].split(",")
        assert len(parts) == 5
        assert 0.0 <= float(parts[-1]) <= 1.0


class TestGradcheckCommand:
    def test_single_layer_passes(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code = run(["gradcheck", "--arch", "single", "--tolerance", "1e-4", "--out", str(report)])
        assert code == 0
        assert "PASS" in report.read_text()

    def test_report_lines_per_layer(self, capsys):
        run(["gradcheck", "--arch", "single"])
        out = capsys.readouterr().out
        assert "max_rel_err" in out


class TestTrainInferCommands:
    def test_tonemap_train_and_infer(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "--out", str(data), "--count", "2", "--size", "16", "--seed", "8"])
        ckpt = tmp_path / "ckpt"
        code = run(
            [
                "train-tonemap", "--manifest", str(data), "--out", str(ckpt),
                "--epochs", "1", "--patch", "16", "--dropout-p", "0.0", "--seed", "2",
            ]
        )
        assert code == 0
        for ch in ("L_base", "L_detail", "a", "b"):
            assert (ckpt / f"tonemap_{ch}.ckpt").exists()
        out = tmp_path / "pred"
        code = run(
            [
                "infer-tonemap", "--checkpoints", str(ckpt),
                "--input", str(data / "scene_000.pfm"), "--out", str(out),
            ]
        )
        assert code == 0
        img = read_ppm((out / "predicted.ppm").read_bytes())
        assert (img.width, img.height) == (16, 16)

    def test_search_ranks_configs(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "--out", str(data), "--count", "5", "--size", "16", "--seed", "4"])
        out = tmp_path / "sweep"
        code = run(
            [
                "search", "--manifest", str(data), "--out", str(out),
                "--arch", "ldr2hdr", "--lr-grid", "1e-2,0",
                "--patch", "16", "--batch-size", "2", "--dropout-p", "0.0", "--seed", "1",
            ]
        )
        assert code == 0
        rows = (out / "search.csv").read_text().strip().splitlines()
        assert rows[0] == "rank,config_id,lr,val_error"
        assert len(rows) == 3
        assert (out / "curve_search_0.csv").exists()

    def test_search_tonemap_arch(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "--out", str(data), "--count", "5", "--size", "16", "--seed", "12"])
        out = tmp_path / "sweep"
        code = run(
            [
                "search", "--manifest", str(data), "--out", str(out),
                "--arch", "tonemap", "--lr-grid", "1e-3,1e-2",
                "--patch", "16", "--batch-size", "2", "--dropout-p", "0.0", "--seed", "1",
            ]
        )
        assert code == 0
        rows = (out / "search.csv").read_text().strip().splitlines()
        assert len(rows) == 3

    def test_train_with_workers(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "--out", str(data), "--count", "2", "--size", "16", "--seed", "3"])
        out = tmp_path / "ckpt"
        code = run(
            [
                "train-ldr2hdr", "--manifest", str(data), "--out", str(out),
                "--epochs", "1", "--patch", "16", "--workers", "2", "--seed", "1",
            ]
        )
        assert code == 0
        assert (out / "ldr2hdr_R.ckpt").exists()


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 0.5, "epochs": 1, "batch_size": 2, "patch": 16, "dropout_p": 0.0, "seed": 1}))
        out = tmp_path / "run"
        data = tmp_path / "data"
        run(["synth", "--out", str(data), "--count", "2", "--size", "16", "--seed", "2"])
        code = run(
            [
                "train-ldr2hdr",
                "--manifest",
                str(data),
                "--out",
                str(out),
                "--config",
                str(cfg),
                "--lr",
                "0.001",
                "--epochs",
                "1",
            ]
        )
        assert code == 0
        # one curve per channel, each with exactly one epoch row
        for ch in ("R", "G", "B"):
            rows = (out / f"curve_ldr2hdr_{ch}.csv").read_text().strip().splitlines()
            assert len(rows) == 2

    def test_training_bit_reproducible_with_seed(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "--out", str(data), "--count", "2", "--size", "16", "--seed", "6"])
        curves = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = run(
                [
                    "train-ldr2hdr", "--manifest", str(data), "--out", str(out),
                    "--epochs", "2", "--patch", "16", "--seed", "5", "--dtype", "f64",
                ]
            )
            assert code == 0
            curves.append((out / "curve_ldr2hdr_R.csv").read_text())
        assert curves[0] == curves[1]

    def test_lr_overflowing_its_dtype_is_one_error_line(self, tmp_path):
        """1e300 is inf in f32: refused up front, with no warnings and no checkpoint."""
        data, out = tmp_path / "data", tmp_path / "o"
        run(["synth", "--out", str(data), "--count", "1", "--size", "16", "--seed", "2"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1e300, "batch_size": 4}))
        env = {**os.environ, "PYTHONPATH": str(Path(hdrkit.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "hdrkit.cli", "train-ldr2hdr", "--manifest", str(data),
             "--out", str(out), "--config", str(cfg), "--epochs", "1", "--patch", "16"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert not list(tmp_path.rglob("*.ckpt"))

    @pytest.mark.parametrize("flag, value", [("--momentum", "1.5"), ("--dropout-p", "1.0"),
                                             ("--seed", "-1"), ("--seed", "9223372036854775806")])
    def test_bad_train_value_fails_before_any_work(self, tmp_path, capsys, monkeypatch, flag, value):
        """One error line, before the manifest is read or a checkpoint written.
        (The largest seed passes 2**63 only as the seed of the B net.)"""
        data, out = tmp_path / "data", tmp_path / "o"
        run(["synth", "--out", str(data), "--count", "1", "--size", "16", "--seed", "2"])
        read, real = [], cli._read_manifest
        monkeypatch.setattr(cli, "_read_manifest", lambda path: read.append(path) or real(path))
        capsys.readouterr()
        code = run(["train-ldr2hdr", "--manifest", str(data), "--out", str(out), flag, value,
                    "--epochs", "1", "--patch", "16", "--batch-size", "4"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:validation:") and err.count("\n") == 1, err
        assert read == [] and not list(tmp_path.rglob("*.ckpt"))

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        data = tmp_path / "data"
        run(["synth", "--out", str(data), "--count", "1", "--size", "16"])
        code = run(["train-ldr2hdr", "--manifest", str(data), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:validation:")


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--manifest", "{not json"),
        ("--manifest", json.dumps({"crf": "gamma:2.2"})),  # no "scenes"
        ("--manifest", json.dumps({"scenes": [], "crf": 2.2})),
        ("--config", "{not json"),
        ("--config", json.dumps({"batch_size": "4"})),
    ],
)
def test_malformed_json_input_is_validation_error(tmp_path, flag, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    manifest = bad if flag == "--manifest" else tmp_path / "missing.json"
    argv = ["train-ldr2hdr", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
    if flag == "--config":
        argv += ["--config", str(bad)]
    env = {**os.environ, "PYTHONPATH": str(Path(hdrkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "hdrkit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:validation:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["lr-grid", "crf-flag", "crf-manifest"])
def test_bad_number_is_one_error_line(tmp_path, capsys, case):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--count", "5", "--size", "16", "--seed", "4"]) == 0
    out = str(tmp_path / "o")
    if case == "lr-grid":
        argv = ["search", "--manifest", str(data), "--out", out, "--lr-grid", "abc", "--patch", "16"]
    elif case == "crf-flag":
        scene, _ = write_scene(tmp_path)
        argv = ["expose", "--input", str(scene), "--out", out, "--crf", "gamma:x"]
    else:
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps({**manifest, "crf": "gamma:x"}))
        argv = ["train-ldr2hdr", "--manifest", str(data), "--out", out]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--size", "-1"],
        ["gradcheck", "--size", "0"],
        ["synth", "--size", "-5"],
        ["synth", "--size", "0"],
    ],
)
def test_bad_size_is_one_error_line(tmp_path, argv):
    if argv[0] == "synth":
        argv = [*argv, "--out", str(tmp_path / "d")]
    env = {**os.environ, "PYTHONPATH": str(Path(hdrkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "hdrkit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:parameter:") and proc.stderr.count("\n") == 1, proc.stderr


def _checkpoint(meta=None) -> bytes:
    return save_checkpoint(Network(NetworkSpec(layers=(LayerSpec("output1x1", 1, 1),))), meta)


def _with_raw_metadata(raw: bytes) -> bytes:
    """A checkpoint whose metadata field holds ``raw`` in place of ``{}``."""
    empty = struct.pack("<I", 2) + b"{}"
    return _checkpoint().replace(empty, struct.pack("<I", len(raw)) + raw)


@pytest.mark.parametrize("metas, named", [
    # the channels of one run agree; these were saved by three different runs
    ([{"target_domain": "log1p", "patch": 64}, {"target_domain": "linear"},
      {"target_domain": "linear", "patch": 32}], ("target_domain", "'log1p'", "'linear'")),
    ([{"patch": 64}, {"patch": 64}, {"patch": 32}], ("patch", "64", "32")),
], ids=["target_domain", "patch"])
def test_channel_checkpoints_must_agree(tmp_path, capsys, metas, named):
    """Inference inverts every channel with one ``target_domain`` and tiles
    it with one ``patch``, so checkpoints that disagree are refused."""
    net = Network(NetworkSpec(layers=(LayerSpec("output1x1", 5, 1),)))
    for ch, meta in zip(LDR2HDR_CHANNELS, metas):
        blob = save_checkpoint(net, {**meta, "final_loss": 0.1})
        (tmp_path / f"ldr2hdr_{ch}.ckpt").write_bytes(blob)
    inputs = []
    for k in range(5):
        inputs.append(str(tmp_path / f"shot{k}.ppm"))
        save_ldr(inputs[-1], ldr_image(np.full((8, 8, 3), 40 * k, np.uint8), 2.0**k))
    capsys.readouterr()
    code = run(["infer-ldr2hdr", "--inputs", *inputs, "--checkpoints", str(tmp_path),
                "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:validation:") and err.count("\n") == 1, err
    assert all(word in err for word in named), err
    assert not (tmp_path / "out" / "predicted.hdr").exists()


def test_tonemap_checkpoints_need_not_agree_on_target_domain(tmp_path, capsys):
    """Tone-map training and inference never read ``target_domain``, so only
    ``patch`` must agree across its channels."""
    path, _ = write_scene(tmp_path)
    net = Network(NetworkSpec(layers=(LayerSpec("output1x1", 1, 1),)))
    for ch, domain in zip(TONEMAP_CHANNELS, ("linear", "log1p", "linear", "log1p")):
        blob = save_checkpoint(net, {"target_domain": domain, "patch": 32, "final_loss": 0.1})
        (tmp_path / f"tonemap_{ch}.ckpt").write_bytes(blob)
    argv = ["infer-tonemap", "--input", str(path), "--checkpoints", str(tmp_path)]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 0
    (tmp_path / "tonemap_b.ckpt").write_bytes(save_checkpoint(net, {"patch": 64, "final_loss": 0.1}))
    capsys.readouterr()
    assert run([*argv, "--out", str(tmp_path / "out2")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:validation: checkpoints disagree on patch:") and "32" in err, err


@pytest.mark.parametrize("scale, category", [
    ("0", "parameter"), ("-1", "parameter"), ("nan", "parameter"), ("inf", "parameter"),
    ("1e39", "validation"),
])
def test_bad_scale_is_one_error_line(tmp_path, scale, category):
    """``infer-ldr2hdr --scale`` refuses a scale that is not finite and > 0,
    and a finite one whose radiance overflows float32: exit 1, one stderr
    line naming the scale, and no radiance map written."""
    net = Network(NetworkSpec(layers=(LayerSpec("output1x1", 5, 1),)))
    net.load_tensors([np.ones_like(arr) for _, arr in net.tensors()])  # every pixel bright
    for ch in LDR2HDR_CHANNELS:
        (tmp_path / f"ldr2hdr_{ch}.ckpt").write_bytes(save_checkpoint(net, {"final_loss": 0.1}))
    inputs = []
    for k in range(5):
        inputs.append(str(tmp_path / f"shot{k}.ppm"))
        save_ldr(inputs[-1], ldr_image(np.full((8, 8, 3), 40 * k, np.uint8), 2.0**k))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(hdrkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "hdrkit.cli", "infer-ldr2hdr", "--inputs", *inputs,
         "--checkpoints", str(tmp_path), "--out", str(out), "--scale", scale],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error:{category}:") and proc.stderr.count("\n") == 1, proc.stderr
    assert str(float(scale)) in proc.stderr, proc.stderr
    assert not (out / "predicted.hdr").exists()


@pytest.mark.parametrize("command", ["train-ldr2hdr", "infer-tonemap"])
def test_request_too_large_for_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    """``--patch 200000`` on 16x16 scenes asks numpy for 745 GiB of padded
    planes, and a checkpoint's ``patch`` does the same for inference.  The
    MemoryError is raised here, not provoked: an overcommitting kernel may
    grant that allocation and then kill the process when it is touched."""
    data = tmp_path / "data"
    run(["synth", "--out", str(data), "--count", "1", "--size", "16", "--seed", "2"])
    if command == "train-ldr2hdr":
        argv = ["--manifest", str(data), "--patch", "200000", "--epochs", "1"]
    else:
        ckpts = tmp_path / "ckpt"
        ckpts.mkdir()
        for ch in TONEMAP_CHANNELS:
            blob = save_checkpoint(Network(build_tonemap_net(ch, 0)), {"patch": 200000, "final_loss": 0.0})
            (ckpts / f"tonemap_{ch}.ckpt").write_bytes(blob)
        argv = ["--checkpoints", str(ckpts), "--input", str(data / "scene_000.pfm")]

    def refuse(planes, patch):
        raise MemoryError(f"Unable to allocate planes padded to {patch}x{patch}")

    monkeypatch.setattr(pipeline, "extract_patches", refuse)
    capsys.readouterr()
    code = run([command, *argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:memory:") and err.count("\n") == 1, err


def test_malformed_inputs_end_in_one_error_line(tmp_path, capsys):
    """Each damaged file ends in exit 1 and one ``error:<category>:`` line."""

    def write(name, data) -> str:
        path = tmp_path / name
        path.write_bytes(data) if isinstance(data, bytes) else path.write_text(data)
        return str(path)

    def crf_with(line: str) -> str:
        rows = format_crf(gamma_crf(2.2)).splitlines()
        return write(f"crf{len(cases)}.txt", "\n".join(rows[:9] + [line] + rows[10:]))

    def checkpoints(prefix: str, blob: bytes) -> str:
        directory = tmp_path / f"ckpt{len(cases)}"
        directory.mkdir()
        for ch in TONEMAP_CHANNELS if prefix == "tonemap" else LDR2HDR_CHANNELS:
            (directory / f"{prefix}_{ch}.ckpt").write_bytes(blob)
        return str(directory)

    stack = []
    for k in range(5):
        stack.append(str(tmp_path / f"shot{k}.ppm"))
        save_ldr(stack[-1], ldr_image(np.full((4, 4, 3), 40 * k, np.uint8), 2.0**k))
    merge = ["merge", "--inputs", *stack[1:]]
    tmo = ["tmo", "--operator", "reinhard", "--input"]
    hdr = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"
    bad_kind = bytearray(_checkpoint())
    bad_kind[6 + 8 + 4] = 9
    write("nan.exposure", "nan\n")
    cases = {}
    cases["ppm-negative"] = [*merge, write("neg.ppm", b"P6\n-2 3\n255\n" + bytes(18))], "format"
    cases["ppm-empty"] = [*merge, write("empty.ppm", b"P6\n0 0\n255\n")], "format"
    cases["ppm-short"] = [*merge, write("short.ppm", b"P6\n4 4\n255\n" + bytes(9))], "truncated"
    cases["sidecar-nan"] = [*merge, write("nan.ppm", Path(stack[0]).read_bytes())], "validation"
    cases["crf-word"] = ["merge", "--inputs", *stack, "--crf", crf_with("9 0.1 x 0.1")], "validation"
    cases["crf-nan"] = ["merge", "--inputs", *stack, "--crf", crf_with("9 nan nan nan")], "validation"
    cases["crf-index"] = ["merge", "--inputs", *stack, "--crf", crf_with("9.5 0 0 0")], "validation"
    latin1 = write("latin1.txt", format_crf(gamma_crf(2.2)).encode() + b"# \xe9\n")
    cases["crf-latin1"] = ["merge", "--inputs", *stack, "--crf", latin1], "validation"
    cases["hdr-huge"] = [*tmo, write("huge.hdr", hdr + b"-Y 100000000 +X 100000000\n" + bytes(8))], "truncated"
    cases["hdr-empty"] = [*tmo, write("empty.hdr", hdr + b"-Y 0 +X 0\n")], "format"
    cases["pfm-negative"] = [*tmo, write("neg.pfm", b"PF\n-2 3\n-1.0\n" + bytes(72))], "format"
    nan_payload = np.array([np.nan, -1, np.inf], "<f4").tobytes()
    cases["pfm-nan"] = [*tmo, write("nan.pfm", b"PF\n1 1\n-1.0\n" + nan_payload)], "validation"
    infer_tonemap = ["infer-tonemap", "--input", "unread.pfm", "--checkpoints"]
    for name, blob, category in [
        ("ckpt-kind", bytes(bad_kind), "format"),
        ("ckpt-utf8", _with_raw_metadata(b"\xff"), "format"),
        ("ckpt-list", _with_raw_metadata(b"[]"), "format"),
        ("ckpt-trailing", _checkpoint() + b"\0\0", "corrupt"),
        ("ckpt-patch", _checkpoint({"patch": "abc"}), "validation"),
        ("ckpt-nan", _checkpoint()[:-4] + np.float32(np.nan).tobytes(), "validation"),
        ("ckpt-shape", edit(VALID["ckpt"], 316, 6), "validation"),  # zero items, unbuildable shape
    ]:
        cases[name] = [*infer_tonemap, checkpoints("tonemap", blob)], category
    domain = checkpoints("ldr2hdr", _checkpoint({"target_domain": "exp"}))
    cases["ckpt-domain"] = ["infer-ldr2hdr", "--inputs", *stack, "--checkpoints", domain], "validation"
    earlier = checkpoints("ldr2hdr", b"HDRNN1" + _checkpoint()[6:])  # an earlier version's magic
    cases["ckpt-hdrnn1"] = ["infer-ldr2hdr", "--inputs", *stack, "--checkpoints", earlier], "format"

    capsys.readouterr()
    for name, (argv, category) in cases.items():
        code = run([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 1, (name, err)
        assert len(errors) == 1 and errors[0].startswith(f"error:{category}:"), (name, err)
        assert "Traceback" not in err, name
