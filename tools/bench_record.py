"""Write one benchmark record: every workload of BENCHMARK.json, untraced on
three seeds and traced on one.

    python3 tools/bench_record.py --out BENCH_<n>.json

Runs ``perfbench/run.py`` from the root of the checkout, one run at a time,
each for BENCHMARK.json's ``run_seconds``: for each workload, once with
``--trace 0`` (the end-to-end metrics) on each of the seeds 2024, 2025 and
2026, then once with ``--trace 1`` (the per-layer metrics) on seed 2024, so
that records of different trees compare.  The output file holds the machine
block of the first run's record line, the seeds, each run's seed, exit
status, record and metrics, and a ``summary``: for each workload and
end-to-end metric, the median and quartiles over the untraced runs.  Each
run also stores the CPU steal of the whole machine over the run, from
``/proc/stat`` before and after it: seconds summed over all CPUs and the
share of all CPU time (``null`` where the file is missing), so that a reader
can tell a busy hour from a slow tree.

Exit status: 0 when every run passed its checks, 1 otherwise (the file is
still written).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (2024, 2025, 2026)  # untraced runs; the traced run uses the first
PROC_STAT = Path("/proc/stat")


def cpu_times() -> tuple[float, float] | None:
    """(steal, total) CPU seconds of the machine since boot, summed over CPUs,
    from the first line of /proc/stat; None where it cannot be read."""
    try:
        fields = PROC_STAT.read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    ticks = [int(v) for v in fields[1:9]]  # user nice system idle iowait irq softirq steal
    hz = os.sysconf("SC_CLK_TCK")
    return ticks[7] / hz, sum(ticks) / hz


def steal_between(before, after) -> dict | None:
    if before is None or after is None:
        return None
    steal, total = after[0] - before[0], after[1] - before[1]
    return {"steal_s": steal, "steal_share": steal / total if total > 0 else None}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before = cpu_times()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    cpu_steal = steal_between(before, cpu_times())
    lines = done.stdout.strip().splitlines()
    record, result = {}, {}
    if len(lines) >= 2:
        record = json.loads(lines[-2]).get("record", {})
        result = json.loads(lines[-1])
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit": done.returncode,
        "correct": result.get("correct", False),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": result.get("metrics", {}),
        "record": record,
        "cpu_steal": cpu_steal,
    }


def quartiles(values) -> dict:
    """Median and quartiles (numpy's default linear interpolation) of the values."""
    values = list(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def summary(runs) -> dict:
    """For each workload and metric of the untraced runs: its unit, each
    run's value in run order, and their median and quartiles."""
    values: dict = {}
    for r in runs:
        if r["trace"] == 0:
            for name, metric in r["metrics"].items():
                entry = values.setdefault(r["workload"], {}).setdefault(
                    name, {"unit": metric["unit"], "values": []})
                entry["values"].append(metric["value"])
    return {workload: {name: {**entry, **quartiles(entry["values"])}
                       for name, entry in metrics.items()}
            for workload, metrics in values.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in [(seed, 0) for seed in SEEDS] + [(SEEDS[0], 1)]:
            print(f"{workload} --seed {seed} --trace {trace} ...", file=sys.stderr, flush=True)
            runs.append(run(workload, seed, seconds, trace))
    # The machine block is stored once, from the first run's record line.
    machines = [r["record"].pop("machine", None) for r in runs]
    bench = {
        "command": spec["command"],
        "machine": machines[0],
        "seconds": seconds,
        "seeds": list(SEEDS),
        "runs": runs,
        "summary": summary(runs),
    }
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    ok = all(r["exit"] == 0 and r["correct"] for r in runs)
    print(f"wrote {args.out}: {len(runs)} runs, {'all correct' if ok else 'FAILED'}",
          file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
