"""Write one benchmark record: every workload of BENCHMARK.json, untraced and traced.

    python3 tools/bench_record.py --out BENCH_<n>.json

Runs ``perfbench/run.py`` from the root of the checkout for each workload,
once with ``--trace 0`` (the end-to-end metrics) and once with ``--trace 1``
(the per-layer metrics), one run at a time, each for BENCHMARK.json's
``run_seconds`` on seed 2024, so that records of different trees compare.
The output file holds the machine block of the first run's record line, the
seed, and each run's exit status, record and metrics.  Each run also stores
the CPU steal of the whole machine over the run, from ``/proc/stat`` before
and after it: seconds summed over all CPUs and the share of all CPU time
(``null`` where the file is missing), so that a reader can tell a busy hour
from a slow tree.

Exit status: 0 when every run passed its checks, 1 otherwise (the file is
still written).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2024
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


def run(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
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
        "trace": trace,
        "exit": done.returncode,
        "correct": result.get("correct", False),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": result.get("metrics", {}),
        "record": record,
        "cpu_steal": cpu_steal,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            runs.append(run(workload, seconds, trace))
    # The machine block is stored once, from the first run's record line.
    machines = [r["record"].pop("machine", None) for r in runs]
    bench = {
        "command": spec["command"],
        "machine": machines[0],
        "seconds": seconds,
        "seed": SEED,
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    ok = all(r["exit"] == 0 and r["correct"] for r in runs)
    print(f"wrote {args.out}: {len(runs)} runs, {'all correct' if ok else 'FAILED'}",
          file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
