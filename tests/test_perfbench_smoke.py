"""The benchmark harness runs end to end on a short window: its last line is
the JSON report, the requests pass their correctness checks, and every
end-to-end metric that BENCHMARK.json declares is reported. No timing is
asserted."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_denoise_workload_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "denoise-2d",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        entry = report["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]


def test_traced_workloads_report_every_per_layer_metric():
    # the traced replay calls the library by name, so this fails as soon as a
    # name the benchmark uses is gone
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    reports = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(reports) == {"denoise-2d", "verify-mc"}
    for report in reports.values():
        assert report["correct"] is True
        assert report["failed"] == 0 and report["attempted"] >= 1
        for metric in declared:
            entry = report["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
