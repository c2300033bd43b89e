"""Per-layer metrics folded from a traced run (the ``--trace 1`` result).

Times ending in ``_s`` are self times per op (SGD step or image) over the
traced ops, unless they start with ``setup.``, which are seconds of the
traced set-up.  ``share.*`` splits the traced op time by hdrkit module;
``share.other`` is time in no span, spent in the benchmark's own code.
"""

from __future__ import annotations

import statistics

from spans import LAYERS
from workloads import median_op_seconds

# metric -> the span whose self time it reports
SELF_TIMES = {
    "nn.conv3x3.fwd_s": "nn.conv3x3.fwd",
    "nn.conv3x3.bwd_s": "nn.conv3x3.bwd",
    "nn.conv1x1.fwd_s": "nn.conv1x1.fwd",
    "nn.conv1x1.bwd_s": "nn.conv1x1.bwd",
    "nn.batchnorm.fwd_s": "nn.batchnorm.fwd",
    "nn.batchnorm.bwd_s": "nn.batchnorm.bwd",
    "nn.block.self_s": "nn.block",
    "nn.network.self_s": "nn.network",
    "nn.mse.self_s": "nn.mse",
    "nn.sgd.self_s": "nn.sgd",
    "nn.replica_sync_s": "nn.replica_sync",
    "pipeline.train.self_s": "pipeline.train",
    "pipeline.parallel.self_s": "pipeline.parallel",
    "pipeline.patches.self_s": "pipeline.patches",
    "pipeline.infer.self_s": "pipeline.infer",
    "pipeline.normalize.self_s": "pipeline.normalize",
    "imgproc.bilateral.self_s": "imgproc.bilateral",
    "imgproc.lab.self_s": "imgproc.lab",
    "imgproc.entropy.self_s": "imgproc.entropy",
    "camera.expose.self_s": "camera.expose",
    "camera.stack.self_s": "camera.stack",
    "camera.inverse_lut.self_s": "camera.inverse_lut",
    "merge.debevec.self_s": "merge.debevec",
    "tmo.reinhard.self_s": "tmo.reinhard",
    "tmo.drago.self_s": "tmo.drago",
    "tmo.mertens.self_s": "tmo.mertens",
    "tmo.structural_fidelity.self_s": "tmo.structural_fidelity",
    "tmo.naturalness.self_s": "tmo.naturalness",
    "tmo.select.self_s": "tmo.select",
    "image_io.decode_hdr.self_s": "image_io.decode_hdr",
    "image_io.encode_hdr.self_s": "image_io.encode_hdr",
    "image_io.pfm.self_s": "image_io.pfm",
    "image_io.ppm.self_s": "image_io.ppm",
}

SETUP_TIMES = {
    "setup.pipeline.samples.self_s": "pipeline.samples",
    "setup.pipeline.normalize.self_s": "pipeline.normalize",
    "setup.imgproc.bilateral.self_s": "imgproc.bilateral",
    "setup.nn.checkpoint.save_s": "nn.checkpoint.save",
    "setup.nn.checkpoint.load_s": "nn.checkpoint.load",
}

# Names and units of every metric `per_layer` returns, in BENCHMARK.json order.
UNITS = {
    "trace.overhead": "ratio",
    "trace.op_s": "s",
    **{f"share.{layer}": "%" for layer in LAYERS if layer != "synth"},
    "share.other": "%",
    **{name: "s/op" for name in SELF_TIMES},
    "nn.conv.gflop": "GFLOP/op",
    "nn.conv3x3.gflops": "GFLOP/s",
    "nn.conv1x1.gflops": "GFLOP/s",
    "pipeline.step_s_p50": "s",
    "pipeline.step_s_p90": "s",
    "pipeline.patches.pad_ratio": "ratio",
    "imgproc.bilateral.calls": "count/op",
    "imgproc.bilateral.mpix": "Mpixel/op",
    "imgproc.bilateral.mevals": "Meval/op",
    "camera.expose.calls": "count/op",
    "camera.adaptive.kept_ratio": "ratio",
    "tmo.select.kept_ratio": "ratio",
    "image_io.decode_hdr.mb": "MB/op",
    "setup.import_s": "s",
    "setup.traced_s": "s",
    **{f"setup.{layer}_s": "s" for layer in LAYERS},
    **{name: "s" for name in SETUP_TIMES},
    "setup.other_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _step_times(tracer, units) -> list[float]:
    """SGD step durations inside traced `pipeline.train` spans.

    A step ends when its update does: the `nn.sgd` span of the K=1 loop, or
    the `pipeline.parallel` span of the K=2 trainer, both direct children of
    `pipeline.train`.
    """
    spans = tracer.spans_of(units)
    closers: dict[int, list[float]] = {}
    for _, (name, _, end, parent, _) in spans:
        if name in ("nn.sgd", "pipeline.parallel"):
            closers.setdefault(parent, []).append(end)
    steps = []
    for index, (name, start, _, _, _) in spans:
        if name == "pipeline.train":
            ends = sorted(closers.get(index, []))
            steps += [b - a for a, b in zip([start, *ends], ends)]
    return steps


def per_layer(tracer, untraced, traced, import_s: float, setup_s: float) -> dict:
    """Every per-layer metric of a traced run, as ``{name: {value, unit}}``."""
    units = [index for index, _ in traced]
    ops = [op for _, unit_ops in traced for op in unit_ops]
    n = len(ops)
    op_total = sum(op.seconds for op in ops)
    self_s = tracer.self_times(units)
    counts = tracer.counted(units)
    base = [op for _, unit_ops in untraced for op in unit_ops]
    values = {
        "trace.overhead": median_op_seconds(ops) / median_op_seconds(base),
        "trace.op_s": op_total / n,
    }
    for layer in LAYERS:
        if layer != "synth":
            total = sum(t for name, t in self_s.items() if name.split(".")[0] == layer)
            values[f"share.{layer}"] = 100.0 * total / op_total
    values["share.other"] = 100.0 * (op_total - tracer.covered(units)) / op_total
    for metric, name in SELF_TIMES.items():
        values[metric] = self_s.get(name, 0.0) / n

    flop3, flop1 = counts.get("nn.conv3x3.flop", 0), counts.get("nn.conv1x1.flop", 0)
    values["nn.conv.gflop"] = (flop3 + flop1) / 1e9 / n
    conv3_s = self_s.get("nn.conv3x3.fwd", 0.0) + self_s.get("nn.conv3x3.bwd", 0.0)
    conv1_s = self_s.get("nn.conv1x1.fwd", 0.0) + self_s.get("nn.conv1x1.bwd", 0.0)
    values["nn.conv3x3.gflops"] = _ratio(flop3 / 1e9, conv3_s)
    values["nn.conv1x1.gflops"] = _ratio(flop1 / 1e9, conv1_s)
    steps = _step_times(tracer, units)
    values["pipeline.step_s_p50"] = statistics.median(steps) if steps else 0.0
    values["pipeline.step_s_p90"] = (
        statistics.quantiles(steps, n=10, method="inclusive")[8] if len(steps) > 1
        else sum(steps)
    )
    values["pipeline.patches.pad_ratio"] = _ratio(
        counts.get("pipeline.patches.computed_px", 0), counts.get("pipeline.patches.output_px", 0))
    values["imgproc.bilateral.calls"] = counts.get("imgproc.bilateral.calls", 0) / n
    values["imgproc.bilateral.mpix"] = counts.get("imgproc.bilateral.px", 0) / 1e6 / n
    values["imgproc.bilateral.mevals"] = counts.get("imgproc.bilateral.evals", 0) / 1e6 / n
    values["camera.expose.calls"] = counts.get("camera.expose.calls", 0) / n
    values["camera.adaptive.kept_ratio"] = _ratio(
        counts.get("camera.adaptive.kept", 0), counts.get("camera.adaptive.exposed", 0))
    values["tmo.select.kept_ratio"] = _ratio(
        counts.get("tmo.select.kept", 0), counts.get("tmo.select.scored", 0))
    values["image_io.decode_hdr.mb"] = counts.get("image_io.decode_hdr.bytes", 0) / 1e6 / n

    setup_self = tracer.self_times([None])
    values["setup.import_s"] = import_s
    values["setup.traced_s"] = setup_s
    for layer in LAYERS:
        values[f"setup.{layer}_s"] = sum(
            t for name, t in setup_self.items() if name.split(".")[0] == layer)
    for metric, name in SETUP_TIMES.items():
        values[metric] = setup_self.get(name, 0.0)
    values["setup.other_s"] = setup_s - import_s - tracer.covered([None])
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
