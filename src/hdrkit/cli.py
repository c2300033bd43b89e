"""Command-line front end: one subcommand per pipeline stage.

Everything writes under ``--out``.  Errors print a single machine-parseable
``error:<category>:`` line to stderr; exit code 1 marks a validation/usage
problem, 2 an I/O problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .camera import (
    Crf,
    ExposureStack,
    adaptive_stack,
    fixed_stack,
    gamma_crf,
    geometric_ladder,
    load_crf,
)
from .errors import FormatError, HdrkitError, ParameterError, UsageError, ValidationError
from .image_io import (
    LdrImage,
    load_ldr,
    load_radiance,
    save_ldr,
    save_radiance,
    write_ppm,
)
from .imgproc import round_half_up
from .merge import debevec_merge
from .nn import LayerSpec, Network, NetworkSpec, grad_check, load_checkpoint, save_checkpoint
from .pipeline import (
    LDR2HDR_CHANNELS,
    TONEMAP_CHANNELS,
    TONEMAP_SPLIT,
    TrainConfig,
    build_ldr2hdr_net,
    build_ldr2hdr_samples,
    build_tonemap_net,
    build_tonemap_samples,
    curve_csv,
    hyperparam_search,
    infer_ldr2hdr,
    infer_tonemap,
    normalize_hdr,
    train,
)
from .synth import synth_scenes
from .tmo import OPERATORS, ToneMap, apply_operator, select_best_tmo, tmqi


# Each architecture's channels, net builder, the metadata keys that inference
# needs every channel checkpoint to agree on, and the tags every checkpoint
# carries.  The architecture's name prefixes its checkpoint and curve files.
_ARCHS = {
    "ldr2hdr": (LDR2HDR_CHANNELS, build_ldr2hdr_net, ("patch", "target_domain"), {}),
    "tonemap": (TONEMAP_CHANNELS, build_tonemap_net, ("patch",), {"split": TONEMAP_SPLIT}),
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit on bad input."""

    def error(self, message):
        raise UsageError(message)


def _tonemap_to_ldr(tm) -> LdrImage:
    codes = round_half_up(255.0 * np.clip(tm.data, 0.0, 1.0)).astype(np.uint8)
    return LdrImage(width=tm.width, height=tm.height, data=codes, exposure=1.0)


def _resolve_crf(spec: str) -> Crf:
    """A CRF flag is either ``gamma:<value>`` or a path to a 256-line table."""
    if spec.startswith("gamma:"):
        try:
            gamma = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"CRF spec {spec!r}: gamma is not a number") from None
        return gamma_crf(gamma)
    return load_crf(_read_text(Path(spec), "CRF file"))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as e:
        raise ValidationError(f"{what} {path} is not UTF-8 text: {e}") from None


def _read_json_object(path: Path, what: str) -> dict:
    try:
        loaded = json.loads(_read_text(path, what))
    except (ValueError, RecursionError) as e:  # JSONDecodeError, or nested too deep
        raise ValidationError(f"{what} {path} is not JSON: {e}") from None
    if not isinstance(loaded, dict):
        raise ValidationError(f"{what} must hold a JSON object")
    return loaded


def _train_config(args) -> TrainConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_read_json_object(Path(args.config), "config file"))
    for f in dataclasses.fields(TrainConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return TrainConfig.from_dict(values)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON file with TrainConfig keys")
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--patch", type=int)
    p.add_argument("--dropout-p", dest="dropout_p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, help="K ghost batches per SGD step, run in turn")
    p.add_argument("--dtype", choices=("f32", "f64"))
    p.add_argument("--target-domain", dest="target_domain", choices=("linear", "log1p"))


def build_parser() -> _Parser:
    parser = _Parser(prog="hdrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hdrkit {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate synthetic HDR scenes + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crf", default="gamma:2.2", help="recorded in the manifest")
    p.add_argument("--ladder", choices=("fixed", "adaptive"), default="fixed")

    p = sub.add_parser("expose", help="synthesize an exposure stack from an HDR")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("fixed", "adaptive"), default="fixed")
    p.add_argument("--crf", default="gamma:2.2")
    p.add_argument("--no-normalize", action="store_true",
                   help="input is already normalized")

    p = sub.add_parser("merge", help="weighted merge of a stack into an HDR")
    p.add_argument("--inputs", nargs="+", required=True, help="5 PPM files")
    p.add_argument("--out", required=True)
    p.add_argument("--crf", default="gamma:2.2")
    p.add_argument("--name", default="merged.hdr")

    p = sub.add_parser("tmo", help="apply one tone-mapping operator")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--operator", choices=OPERATORS, required=True)
    p.add_argument("--crf", default="gamma:2.2", help="stack CRF for mertens")
    p.add_argument("--no-normalize", action="store_true")

    p = sub.add_parser("select-tmo", help="pick the best operator per scene by TMQI")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--crf", default="gamma:2.2")
    p.add_argument("--no-normalize", action="store_true")

    p = sub.add_parser("tmqi", help="score a (radiance, tone map) pair")
    p.add_argument("--hdr", required=True)
    p.add_argument("--tm", required=True, help="PPM tone map")
    p.add_argument("--out", help="optional CSV file")
    p.add_argument("--no-normalize", action="store_true")

    for arch, nets in (("ldr2hdr", "3 stack-to-radiance"), ("tonemap", "4 tone-map channel")):
        p = sub.add_parser(f"train-{arch}", help=f"train the {nets} networks")
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        _add_train_flags(p)
        p.set_defaults(arch=arch)

    p = sub.add_parser("search", help="2-epoch hyperparameter sweep",
                       description="Trains each --lr-grid rate on the first channel's net "
                       "for exactly 2 epochs, whatever --epochs says, and ranks the rates "
                       "by validation MSE.")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arch", choices=tuple(_ARCHS), default="ldr2hdr")
    p.add_argument("--lr-grid", type=_float_list, default="1e-2,1e-3",
                   help="comma-separated learning rates to try")
    _add_train_flags(p)

    p = sub.add_parser("infer-ldr2hdr", help="predict an HDR from 5 PPM exposures")
    p.add_argument("--checkpoints", required=True, help="directory with R/G/B checkpoints")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="predicted.hdr")
    p.add_argument("--scale", type=float, default=1.0)

    p = sub.add_parser("infer-tonemap", help="predict a tone map from an HDR")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="predicted.ppm")
    p.add_argument("--no-normalize", action="store_true")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--arch", choices=(*_ARCHS, "single"), default="single")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--out", help="optional report file")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    out = _out_dir(args)
    scenes = synth_scenes(args.count, args.size, args.seed)
    entries = []
    for i, scene in enumerate(scenes):
        name = f"scene_{i:03d}.pfm"
        save_radiance(out / name, scene)
        split = "train" if i % 4 < 3 else "val"
        entries.append({"file": name, "split": split})
    manifest = {"scenes": entries, "crf": args.crf, "ladder": args.ladder}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(scenes)} scenes + manifest.json to {out}")
    return 0


def _load_input_map(path: str, normalize: bool):
    m = load_radiance(path)
    return normalize_hdr(m)[0] if normalize else m


def _cmd_expose(args) -> int:
    out = _out_dir(args)
    m = _load_input_map(args.input, not args.no_normalize)
    crf = _resolve_crf(args.crf)
    if args.mode == "fixed":
        stack = fixed_stack(m, crf)
    else:
        stack = adaptive_stack(m, crf, geometric_ladder())
    stem = Path(args.input).stem
    for k, img in enumerate(stack.images):
        save_ldr(out / f"{stem}_e{k}.ppm", img)
    print(f"wrote 5 exposures ({[img.exposure for img in stack.images]}) to {out}")
    return 0


def _load_stack(paths: list[str]):
    images = sorted((load_ldr(p) for p in paths), key=lambda im: im.exposure)
    return ExposureStack(images=list(images))


def _cmd_merge(args) -> int:
    out = _out_dir(args)
    stack = _load_stack(args.inputs)
    crf = _resolve_crf(args.crf)
    merged = debevec_merge(stack, crf)
    save_radiance(out / args.name, merged)
    print(f"wrote {out / args.name}")
    return 0


def _cmd_tmo(args) -> int:
    out = _out_dir(args)
    m = _load_input_map(args.input, not args.no_normalize)
    tm = apply_operator(m, args.operator, crf=_resolve_crf(args.crf))
    name = f"{Path(args.input).stem}_{args.operator}.ppm"
    (out / name).write_bytes(write_ppm(_tonemap_to_ldr(tm)))
    print(f"wrote {out / name}")
    return 0


def _cmd_select_tmo(args) -> int:
    out = _out_dir(args)
    crf = _resolve_crf(args.crf)
    rows = ["image,operator,S,N,Q"]
    for path in args.inputs:
        m = _load_input_map(path, not args.no_normalize)
        tm, op, _, scores = select_best_tmo(m, crf=crf)
        stem = Path(path).stem
        for name, score in scores:
            rows.append(f"{stem},{name},{score.S:.6f},{score.N:.6f},{score.Q:.6f}")
        (out / f"{stem}_best_{op}.ppm").write_bytes(write_ppm(_tonemap_to_ldr(tm)))
    (out / "scores.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote scores.csv and best tone maps to {out}")
    return 0


def _cmd_tmqi(args) -> int:
    m = _load_input_map(args.hdr, not args.no_normalize)
    ldr = load_ldr(args.tm)
    tm = ToneMap.from_array(ldr.data.astype(np.float32) / 255.0)
    score = tmqi(m, tm)
    line = f"{Path(args.hdr).stem},{Path(args.tm).stem},{score.S:.6f},{score.N:.6f},{score.Q:.6f}"
    print("hdr,tm,S,N,Q")
    print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text("hdr,tm,S,N,Q\n" + line + "\n")
    return 0


def _is_path_text(value) -> bool:
    """A str the OS can take as a path: no NUL byte, and encodable to bytes."""
    if not isinstance(value, str) or "\0" in value:
        return False
    try:
        os.fsencode(value)
    except UnicodeEncodeError:  # a lone surrogate, which JSON allows
        return False
    return True


def _read_manifest(path: str):
    manifest_path = Path(path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    manifest = _read_json_object(manifest_path, "manifest")
    entries = manifest.get("scenes")
    if not isinstance(entries, list) or not all(
        isinstance(e, dict)
        and _is_path_text(e.get("file"))
        and isinstance(e.get("split", "train"), str)
        for e in entries
    ):
        raise ValidationError('manifest "scenes" must be a list of {"file", "split"} objects')
    crf_spec = manifest.get("crf", "gamma:2.2")
    if not _is_path_text(crf_spec):
        raise ValidationError(
            f'manifest "crf" must be "gamma:<value>" or a file path, got {crf_spec!r}'
        )
    base = manifest_path.parent
    scenes = {"train": [], "val": [], "test": []}
    for entry in entries:
        split = entry.get("split", "train")
        scenes.setdefault(split, []).append(load_radiance(base / entry["file"]))
    crf = _resolve_crf(crf_spec)
    ladder = manifest.get("ladder", "fixed")
    return scenes, crf, ladder


def _samples(arch: str, scenes, crf, ladder, cfg):
    """Per-channel (inputs, targets) patch arrays of ``scenes`` for ``arch``,
    and the tone-map builder's operator selections (none for ldr2hdr)."""
    if arch == "ldr2hdr":
        return build_ldr2hdr_samples(scenes, crf, cfg, mode=ladder), []
    return build_tonemap_samples(scenes, cfg, crf=crf)


def _cmd_train(args) -> int:
    """Train and save one net per channel of ``args.arch``."""
    out = _out_dir(args)
    cfg = _train_config(args)
    scenes, crf, ladder = _read_manifest(args.manifest)
    if not scenes["train"]:
        raise ValidationError("manifest has no train scenes")
    samples, selections = _samples(args.arch, scenes["train"], crf, ladder, cfg)
    if selections:
        print(f"selected operators: {','.join(op for op, _ in selections)}")
    channels, build_net, _, tags = _ARCHS[args.arch]
    for ch in channels:
        net = Network(build_net(ch, cfg.seed, cfg.dropout_p), dtype=cfg.numpy_dtype())
        state = train(net, samples[ch], cfg)
        meta = {
            "channel": ch,
            "target_domain": cfg.target_domain,
            "patch": cfg.patch,
            "final_loss": state.curve[-1][1],
            **tags,
        }
        (out / f"{args.arch}_{ch}.ckpt").write_bytes(save_checkpoint(net, meta))
        (out / f"curve_{args.arch}_{ch}.csv").write_text(curve_csv(state.curve))
        print(f"{args.arch}/{ch}: epochs={cfg.epochs} final_loss={state.curve[-1][1]:.6g}")
    return 0


def _cmd_search(args) -> int:
    out = _out_dir(args)
    cfg = _train_config(args)
    scenes, crf, ladder = _read_manifest(args.manifest)
    if not scenes["train"] or not scenes["val"]:
        raise ValidationError("search needs both train and val scenes in the manifest")
    train_sets, _ = _samples(args.arch, scenes["train"], crf, ladder, cfg)
    val_sets, _ = _samples(args.arch, scenes["val"], crf, ladder, cfg)
    channels, build_net = _ARCHS[args.arch][:2]
    spec = build_net(channels[0], cfg.seed, cfg.dropout_p)

    configs = [(spec, dataclasses.replace(cfg, lr=lr)) for lr in args.lr_grid]
    results = hyperparam_search(configs, train_sets[channels[0]], val_sets[channels[0]])
    rows = ["rank,config_id,lr,val_error"]
    for rank, r in enumerate(results):
        rows.append(f"{rank},{r.config_id},{configs[r.config_id][1].lr!r},{r.val_error!r}")
        (out / f"curve_search_{r.config_id}.csv").write_text(curve_csv(r.curve))
    (out / "search.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


def _load_channel_nets(directory: str, arch: str) -> tuple[dict, TrainConfig]:
    """The channel nets of ``arch`` and the ``patch``/``target_domain`` they
    were trained with.  Every channel's checkpoint must agree on the keys
    that inference reads, carry each of the architecture's tags, and name
    its file's channel if it names one."""
    channels, _, keys, tags = _ARCHS[arch]
    nets, first = {}, None
    for ch in channels:
        path = Path(directory) / f"{arch}_{ch}.ckpt"
        if not path.exists():
            raise ValidationError(f"missing checkpoint {path}")
        nets[ch], meta = load_checkpoint(path.read_bytes())
        if meta.get("channel", ch) != ch:
            raise ValidationError(
                f"checkpoint {path} is for channel {meta['channel']!r}, not {ch!r}")
        if "final_loss" not in meta:
            print(f"warning: checkpoint {path} carries no training record", file=sys.stderr)
        trained_with = {k: meta[k] for k in ("patch", "target_domain") if k in meta}
        try:
            cfg = TrainConfig.from_dict(trained_with)
        except ValidationError as e:
            raise ValidationError(f"checkpoint {path} metadata: {e}") from None
        for tag, want in tags.items():
            if meta.get(tag) != want:
                raise FormatError(f"checkpoint {path} has {tag} {meta.get(tag)!r}, not {want!r}: "
                                  "retrain it with this version")
        first = first or (path, cfg)
        for key in keys:
            if getattr(cfg, key) != getattr(first[1], key):
                raise ValidationError(f"checkpoints disagree on {key}: {first[0]} has "
                                      f"{getattr(first[1], key)!r}, {path} has {getattr(cfg, key)!r}")
    return nets, first[1]


def _cmd_infer_ldr2hdr(args) -> int:
    out = _out_dir(args)
    nets, cfg = _load_channel_nets(args.checkpoints, "ldr2hdr")
    stack = _load_stack(args.inputs)
    predicted = infer_ldr2hdr(
        nets, stack, patch=cfg.patch, scale=args.scale, target_domain=cfg.target_domain
    )
    save_radiance(out / args.name, predicted)
    print(f"wrote {out / args.name}")
    return 0


def _cmd_infer_tonemap(args) -> int:
    out = _out_dir(args)
    nets, cfg = _load_channel_nets(args.checkpoints, "tonemap")
    m = _load_input_map(args.input, not args.no_normalize)
    tm = infer_tonemap(nets, m, patch=cfg.patch)
    (out / args.name).write_bytes(write_ppm(_tonemap_to_ldr(tm)))
    print(f"wrote {out / args.name}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.size < 1:
        raise ParameterError(f"size must be >= 1, got {args.size}")
    if args.seed < 0:
        raise ParameterError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    if args.arch == "single":
        spec = NetworkSpec(layers=(LayerSpec("output1x1", 3, 1),), seed=args.seed)
    else:
        channels, build_net = _ARCHS[args.arch][:2]
        spec = build_net(channels[0], args.seed, dropout_p=0.0)
    net = Network(spec, dtype=np.float64)
    x = rng.normal(size=(2, spec.layers[0].in_depth, args.size, args.size))
    target = rng.normal(size=(2, 1, args.size, args.size))
    report = grad_check(net, x, target, tolerance=args.tolerance)
    lines = report.lines()
    print("\n".join(lines))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0 if report.passed else 1


_COMMANDS = {
    "synth": _cmd_synth,
    "expose": _cmd_expose,
    "merge": _cmd_merge,
    "tmo": _cmd_tmo,
    "select-tmo": _cmd_select_tmo,
    "tmqi": _cmd_tmqi,
    "train-ldr2hdr": _cmd_train,
    "train-tonemap": _cmd_train,
    "search": _cmd_search,
    "infer-ldr2hdr": _cmd_infer_ldr2hdr,
    "infer-tonemap": _cmd_infer_tonemap,
    "gradcheck": _cmd_gradcheck,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:  # --help / --version
            return int(e.code or 0)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error:usage: {e}", file=sys.stderr)
        return 1
    except HdrkitError as e:
        print(f"error:{e.category}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error:memory: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
