import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture()
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_steal_is_read_from_the_cpu_line(bench_record, tmp_path, monkeypatch):
    stat = tmp_path / "stat"
    hz = bench_record.os.sysconf("SC_CLK_TCK")
    stat.write_text(f"cpu  {hz} 0 {hz} {6 * hz} 0 0 0 {2 * hz} 0 0\ncpu0 1 0 0 0 0 0 0 0 0 0\n")
    monkeypatch.setattr(bench_record, "PROC_STAT", stat)
    assert bench_record.cpu_times() == (2.0, 10.0)


def test_steal_between_two_readings(bench_record):
    assert bench_record.steal_between((1.0, 10.0), (3.0, 20.0)) == {
        "steal_s": 2.0, "steal_share": 0.2}


@pytest.mark.parametrize("text", [None, "", "intr 1 2 3\n", "cpu 1 2 3\n"])
def test_steal_is_null_without_a_readable_cpu_line(bench_record, tmp_path, monkeypatch, text):
    stat = tmp_path / "stat"
    if text is not None:
        stat.write_text(text)
    monkeypatch.setattr(bench_record, "PROC_STAT", stat)
    assert bench_record.cpu_times() is None
    assert bench_record.steal_between(None, (1.0, 2.0)) is None


def _run(workload, trace, **values):
    return {"workload": workload, "trace": trace,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_summary_is_median_and_quartiles_of_the_untraced_runs(bench_record):
    runs = [
        _run("infer", 0, setup_s=0.5, op_s_p50=0.12),
        _run("infer", 0, setup_s=0.25, op_s_p50=0.10),
        _run("infer", 0, setup_s=0.375, op_s_p50=0.11),
        _run("infer", 1, setup_s=9.0, op_s_p50=9.0),  # traced: left out
        _run("train", 0, setup_s=1.0),
    ]
    got = bench_record.summary(runs)
    assert got["infer"]["setup_s"] == {
        "unit": "s", "values": [0.5, 0.25, 0.375],
        "q1": 0.3125, "median": 0.375, "q3": 0.4375, "n": 3}
    assert got["infer"]["op_s_p50"]["median"] == 0.11
    assert got["train"]["setup_s"] == {
        "unit": "s", "values": [1.0], "q1": 1.0, "median": 1.0, "q3": 1.0, "n": 1}
