"""hdrkit benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload {train,infer,classical} --seed N \
        --seconds S --trace {0,1} [--tiny]

It imports hdrkit from ``src/`` of the checkout, builds the workload's
inputs from ``--seed`` (set-up), then runs the workload for ``--seconds``
seconds in a closed loop and checks every output.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is a JSON ``record`` of the machine, the inputs and the
workload-specific figures (patches/s, per-image percentiles, final losses).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from an
untraced run.  An op is one SGD step (train) or one image (infer,
classical); one untimed op (an SGD step, or the first image) warms up.

- ``mpix_per_s``: megapixels per timed second, the median over groups of
  units: 64x64 patches through forward, backward and update (train), or
  output image pixels (infer, classical);
- ``op_s_p50``: the median seconds per op; train averages the medians of
  its two nets, whose steps differ in cost;
- ``peak_rss_mib``: the peak resident set of the benchmark process;
- ``setup_s``: from the first line of the script to inputs ready, the
  median of this run's set-up and of two more in fresh interpreters.

``--trace 1`` reports the per-layer metrics of layers.py instead: it runs
untraced for half the time, then wraps hdrkit's public functions (see
spans.py) and runs whole input cycles traced.  Per-op figures divide by the
traced ops.

Exit status: 0 when every check passed, 1 when an op failed or a check did
not hold (the result is still printed), 2 when the run could not start,
for example without hdrkit's sources beside the benchmark.
"""

import time

_START = time.perf_counter()  # set-up is timed from the first line of the script

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 2  # extra set-ups in fresh interpreters, for the setup_s median
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description="hdrkit benchmark")
    p.add_argument("--workload", required=True, choices=("train", "infer", "classical"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time as JSON")
    return p.parse_args(argv)


def fail(message: str):
    """Stop before any result is printed."""
    print(f"error: {message}", file=sys.stderr, flush=True)
    raise SystemExit(2)


def import_hdrkit():
    src = ROOT / "src"
    if not (src / "hdrkit" / "__init__.py").is_file():
        fail(f"no hdrkit sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import hdrkit
    import hdrkit.synth  # noqa: F401  (not imported by the package itself)

    if Path(hdrkit.__file__).resolve().parent != src / "hdrkit":
        fail(f"imported hdrkit from {hdrkit.__file__}, not from {src}")
    return hdrkit


def blas_record(np) -> dict:
    """BLAS vendor, version and the thread count it will use."""
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"),
              "config": info.get("openblas configuration"), "threads": None}
    # dlsym on numpy's core extension also searches the BLAS it links.
    core = getattr(np, "_core", None) or np.core
    handle = ctypes.CDLL(core._multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            record["threads"] = int(fn())
            break
    return record


def machine_record(np) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(np),
    }


def run_units(wl, first: int, seconds: float, tracer=None, min_units=1, whole_cycles=False):
    """Run units from `first` until `seconds` pass and at least `min_units`
    ran, ending on a whole input cycle if asked."""
    units, errors = [], []
    start = time.perf_counter()
    index = first
    while True:
        if tracer is not None:
            tracer.op = index
        ops, errs = wl.unit(index, tracer)
        units.append((index, ops))
        errors += errs
        index += 1
        done = time.perf_counter() - start >= seconds and len(units) >= min_units
        if done and (not whole_cycles or (index - first) % wl.cycle == 0):
            return units, errors


def throughput(units, group: int) -> float:
    """Median Mpixel/s over complete groups of consecutive units."""
    rates = []
    for g in range(0, len(units) - group + 1, group):
        ops = [op for _, unit_ops in units[g : g + group] for op in unit_ops]
        rates.append(sum(op.mpix for op in ops) / sum(op.seconds for op in ops))
    return statistics.median(rates) if rates else 0.0


def probe_setups(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(args, wl, units, main_setup_s) -> tuple[dict, dict]:
    from workloads import median_op_seconds

    ops = [op for _, unit_ops in units for op in unit_ops]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [main_setup_s, *probe_setups(args)]
    op_seconds = [op.seconds for op in ops]
    mpix_per_s = throughput(units, wl.group)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        "mpix_per_s": {"value": mpix_per_s, "unit": "Mpixel/s"},
        "op_s_p50": {"value": median_op_seconds(ops), "unit": "s"},
    }
    failed = sum(op.failed for op in ops)
    extra = {
        "failed_frac": {"value": failed / len(ops), "unit": "ratio"},
        "setup_s_samples": setups,
        "timed_s": sum(op_seconds),
    }
    if args.workload == "train":
        extra["patches_per_s"] = {"value": mpix_per_s * 1e6 / (wl.patch * wl.patch),
                                  "unit": "patches/s"}
        extra["step_s_p50"] = {
            kind: {"value": statistics.median(op.seconds for op in ops if op.kind == kind),
                   "unit": "s", "samples": sum(op.kind == kind for op in ops)}
            for kind in sorted({op.kind for op in ops})}
        extra["loss_end"] = {"value": wl.loss_end, "unit": "MSE"}
    else:
        extra["image_s_p50"] = {"value": statistics.median(op_seconds), "unit": "s",
                                "samples": len(ops)}
        if len(ops) >= 100:
            p90 = statistics.quantiles(op_seconds, n=10, method="inclusive")[8]
            extra["image_s_p90"] = {"value": p90, "unit": "s", "samples": len(ops)}
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 0:
        fail("--seconds must be >= 0")
    import_start = time.perf_counter()
    hdrkit = import_hdrkit()
    import_s = time.perf_counter() - import_start

    import numpy as np

    from layers import per_layer
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(hdrkit) if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = WORKLOADS[args.workload](hdrkit, args.seed, args.tiny)
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0
    if tracer is not None:
        tracer.uninstall()

    warmup_start = time.perf_counter()
    wl.warmup()  # untimed: the process's first large allocations are slow
    warmup_s = time.perf_counter() - warmup_start
    machine = machine_record(np)
    threads = machine["blas"]["threads"]
    if threads is not None and threads > machine["nproc"]:
        fail(f"BLAS uses {threads} threads on {machine['nproc']} CPUs")

    if tracer is None:
        before = resource.getrusage(resource.RUSAGE_SELF)
        units, errors = run_units(wl, 0, args.seconds, min_units=wl.min_units)
        after = resource.getrusage(resource.RUSAGE_SELF)
        metrics, extra = end_to_end(args, wl, units, setup_s)
        # CPU and page-fault counts help explain a slow run on a shared machine.
        extra["timed_rusage"] = {"user_s": after.ru_utime - before.ru_utime,
                                 "sys_s": after.ru_stime - before.ru_stime,
                                 "minor_faults": after.ru_minflt - before.ru_minflt}
    else:
        phase_start = time.perf_counter()
        units, errors = run_units(wl, 0, args.seconds / 2)
        remaining = args.seconds - (time.perf_counter() - phase_start)
        tracer.install()
        traced, traced_errors = run_units(wl, len(units), remaining, tracer, whole_cycles=True)
        tracer.uninstall()
        errors += traced_errors
        metrics = per_layer(tracer, units, traced, import_s, setup_s)
        extra = {}
        units = units + traced

    ops = [op for _, unit_ops in units for op in unit_ops]
    failed = sum(op.failed for op in ops)
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine,
        "inputs": wl.inputs,
        "units": len(units),
        "warmup_s": warmup_s,
        **extra,
    }
    print(json.dumps({"record": record}), flush=True)
    correct = failed == 0 and not errors
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
