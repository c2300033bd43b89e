"""Fast self-test of the benchmark: tiny inputs, one untraced and one traced
run per workload.

    python3 perfbench/selftest.py

Checks that each run exits 0 with a correct result, that it emits exactly
the metrics of BENCHMARK.json with their units, that time outside any span
(``share.other``) is a small share of each traced run, and that the traced
shares match what each workload is for.  Exits 1 and lists the problems
otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"
MAX_OTHER_SHARE = 5.0  # percent of traced op time


def run(workload: str, trace: int) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else {})


def design_problems(workload: str, m: dict) -> list[str]:
    """The traced shares must support why each workload exists."""
    v = {name: entry["value"] for name, entry in m.items()}
    layers = ("pipeline", "imgproc", "camera", "merge", "tmo", "image_io", "other")
    problems = []
    if workload in ("train", "infer") and v["share.nn"] <= 50.0:
        problems.append(f"nn is not the majority of {workload}: {v['share.nn']:.1f}%")
    if workload == "infer" and any(v[f"nn.{k}.bwd_s"] for k in ("conv3x3", "conv1x1", "batchnorm")):
        problems.append("infer runs a backward pass")
    if workload == "classical":
        if v["share.nn"] != 0.0:
            problems.append("classical runs nn code")
        rest = max(v[f"share.{layer}"] for layer in layers)
        if v["share.tmo"] + v["share.camera"] <= rest:
            problems.append("tmo + camera are not the largest share of classical")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result.get("correct"):
                problems.append(f"{where}: exit {code}, correct={result.get('correct')}")
                continue
            metrics = result["metrics"]
            found = []
            units = {name: entry["unit"] for name, entry in metrics.items()}
            if units != expected[trace]:
                found.append("metrics or units differ from BENCHMARK.json")
            if trace == 1:
                other = metrics["share.other"]["value"]
                if not 0.0 <= other < MAX_OTHER_SHARE:
                    found.append(f"share.other is {other:.2f}%")
                found += design_problems(workload, metrics)
            problems += [f"{where}: {p}" for p in found]
            if not found:
                print(f"ok {where}: {result['attempted']} ops", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
