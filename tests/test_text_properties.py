"""Property tests for the text inputs: CRF tables, exposure sidecars, and the
manifest and ``--config`` JSON that the CLI reads.

A reader either returns an object that meets its invariants or raises an
``HdrkitError``.  Through ``cli.run``, a command either succeeds and leaves
valid outputs, or prints exactly one ``error:<category>:`` line and exits 1
(2 for an I/O error).
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from conftest import ldr_image
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from classical_reference import format_crf

from hdrkit.camera import gamma_crf, load_crf
from hdrkit.cli import run
from hdrkit.errors import HdrkitError
from hdrkit.image_io import load_ldr, save_ldr, save_radiance
from hdrkit.nn import load_checkpoint
from hdrkit.pipeline import LDR2HDR_CHANNELS
from hdrkit.synth import synth_scenes

BOUNDED = settings(max_examples=200, deadline=None)
CLI_RUNS = settings(max_examples=60, deadline=None)  # every example runs a command

VALID_CRF = format_crf(gamma_crf(2.2))


def damaged_text(valid: str):
    """Arbitrary text, and one-line or one-character edits or cuts of a valid file."""
    lines = valid.splitlines(keepends=True)
    return st.one_of(
        st.text(max_size=200),
        st.tuples(st.integers(0, len(lines) - 1), st.text(max_size=40)).map(
            lambda e: "".join(lines[: e[0]] + [e[1] + "\n"] + lines[e[0] + 1 :])
        ),
        st.tuples(st.integers(0, len(valid) - 1), st.characters()).map(
            lambda e: valid[: e[0]] + e[1] + valid[e[0] + 1 :]
        ),
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
    )


@BOUNDED
@given(damaged_text(VALID_CRF))
def test_load_crf_valid_or_hdrkit_error(text):
    try:
        crf = load_crf(text)
    except HdrkitError:
        return
    f = crf.forward
    assert f.shape == (256, 3) and np.isfinite(f).all()
    assert np.all(np.diff(f, axis=0) >= 0) and np.all(f[0] == 0.0) and np.all(f[255] == 1.0)


@BOUNDED
@given(
    st.one_of(
        st.binary(max_size=40),
        st.text(max_size=40).map(str.encode),
        st.floats().map(lambda v: f"{v!r}\n".encode()),
    )
)
def test_exposure_sidecar_valid_or_hdrkit_error(sidecar):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shot.ppm"
        save_ldr(path, ldr_image(np.zeros((2, 3, 3), np.uint8)))
        path.with_suffix(".exposure").write_bytes(sidecar)
        try:
            img = load_ldr(path)
        except HdrkitError:
            return
    assert 0.0 < img.exposure < math.inf
    assert img.data.shape == (2, 3, 3)


# ---------------------------------------------------------------------------
# Manifest and --config JSON through the CLI
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=10)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One 16x16 scene, a manifest naming it, and a valid CRF table file."""
    d = tmp_path_factory.mktemp("text_inputs")
    save_radiance(d / "scene.pfm", synth_scenes(1, 16, seed=3)[0])
    (d / "crf.txt").write_text(VALID_CRF)
    (d / "manifest.json").write_text(json.dumps({"scenes": [{"file": "scene.pfm"}]}))
    return d


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def assert_trained_or_one_error_line(code: int, err: str, out: Path) -> None:
    """Exit 0 with loadable checkpoints, or one error line and its exit code."""
    if code == 0:
        for ch in LDR2HDR_CHANNELS:
            net, _ = load_checkpoint((out / f"ldr2hdr_{ch}.ckpt").read_bytes())
            assert all(np.isfinite(arr).all() for _, arr in net.tensors())
        return
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in err, err
    category = re.match(r"error:([a-z]+): ", errors[0]).group(1)
    assert code == (2 if category == "io" else 1), err


def manifests(crf_file: str):
    entry = st.fixed_dictionaries(
        {},
        optional={
            "file": st.one_of(st.sampled_from(["scene.pfm", "missing.pfm", ""]), JSON_VALUES),
            "split": st.one_of(st.sampled_from(["train", "val", "test"]), JSON_VALUES),
        },
    )
    keys = {
        "scenes": st.lists(st.one_of(entry, JSON_VALUES), max_size=3),
        "crf": st.sampled_from(["gamma:2.2", "gamma:0", "gamma:x", crf_file]),
        "ladder": st.sampled_from(["fixed", "adaptive"]),
    }
    return st.one_of(
        st.fixed_dictionaries(
            {}, optional={k: st.one_of(v, JSON_VALUES) for k, v in keys.items()}
        ).map(lambda m: json.dumps(m).encode()),
        JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        st.binary(max_size=60),
    )


def test_manifest_valid_or_one_error_line(workdir):
    @CLI_RUNS
    @given(manifests(str(workdir / "crf.txt")))
    @example(json.dumps({"scenes": [{"file": "scene.pfm"}], "ladder": "adaptive"}).encode())
    @example(b"[" * 100_000)  # nested past the recursion limit
    @example(json.dumps({"scenes": [{"file": "scene\0.pfm"}]}).encode())
    @example(json.dumps({"scenes": [{"file": "\ud800.pfm"}]}).encode())  # a lone surrogate
    @example(json.dumps({"scenes": [{"file": "scene.pfm"}], "crf": "\0"}).encode())
    def check(manifest):
        (workdir / "m.json").write_bytes(manifest)
        out = workdir / "out_manifest"
        argv = ["train-ldr2hdr", "--manifest", str(workdir / "m.json"), "--out", str(out)]
        code, err = run_cli([*argv, "--epochs", "1", "--patch", "8", "--batch-size", "4"])
        assert_trained_or_one_error_line(code, err, out)

    check()


SMALL_RUN = {"epochs": 1, "patch": 8, "batch_size": 4}  # unless the example sets them
SMALL_INTS = st.integers(-2, 4)  # epochs, batch size, workers: each example trains
CONFIG_KEYS = {
    "lr": st.one_of(st.floats(), SMALL_INTS),
    "momentum": st.one_of(st.floats(), SMALL_INTS),
    "epochs": SMALL_INTS,
    "batch_size": SMALL_INTS,
    "patch": st.integers(-2, 20),
    "dropout_p": st.one_of(st.floats(), SMALL_INTS),
    "seed": st.integers(),
    "workers": SMALL_INTS,
    "dtype": st.sampled_from(["f32", "f64", "f16"]),
    "target_domain": st.sampled_from(["linear", "log1p", "log"]),
    "unknown": JSON_VALUES,
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and inf * 0 in diverging runs
def test_config_valid_or_one_error_line(workdir):
    @CLI_RUNS
    @given(
        st.one_of(
            st.fixed_dictionaries(
                {}, optional={k: st.one_of(v, JSON_VALUES) for k, v in CONFIG_KEYS.items()}
            ).map(lambda cfg: json.dumps({**SMALL_RUN, **cfg}).encode()),
            JSON_VALUES.map(lambda v: json.dumps(v).encode()),
            st.binary(max_size=60),
        )
    )
    @example(json.dumps({**SMALL_RUN, "workers": 2}).encode())
    @example(json.dumps({"epochs": 0}).encode())
    @example(json.dumps({**SMALL_RUN, "seed": 2**64}).encode())
    @example(json.dumps({**SMALL_RUN, "lr": math.nan}).encode())
    @example(json.dumps({**SMALL_RUN, "lr": 1e300}).encode())  # the weights overflow
    @example(json.dumps({**SMALL_RUN, "momentum": 2.0}).encode())
    @example(json.dumps({**SMALL_RUN, "dropout_p": 1.5}).encode())
    @example(json.dumps({**SMALL_RUN, "seed": -1}).encode())
    @example(json.dumps({**SMALL_RUN, "seed": 2**63 - 2}).encode())  # the B net's seed is 2**63
    def check(config):
        (workdir / "cfg.json").write_bytes(config)
        out = workdir / "out_config"
        argv = ["train-ldr2hdr", "--manifest", str(workdir), "--out", str(out)]
        code, err = run_cli([*argv, "--config", str(workdir / "cfg.json")])
        assert_trained_or_one_error_line(code, err, out)

    check()
